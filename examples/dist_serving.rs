//! Distributed serving end to end: two real HTTP shard servers, each
//! holding a **partial index** (only its half of the map), behind one
//! scatter-gather coordinator — then a two-phase rebuild that trains once
//! on the coordinator, stages the model on every shard and swaps all of
//! them in lockstep, and a second one over replica slots that pair an
//! in-process member with each shard server. The shard servers hold no
//! dataset: they only ever stage what the coordinator trained.
//!
//! ```sh
//! cargo run --release -p fsi --example dist_serving
//! ```
//!
//! Everything runs in one process here (three `HttpServer`s on loopback
//! ports), but the shard servers and the coordinator only talk
//! `fsi-proto` over HTTP — the same deployment works across machines
//! via `redistricting_cli serve --topology spec.json` /
//! `--shard-of IDX --listen ADDR`.

use fsi::{
    BackendSpec, Method, Pipeline, Request, ResiliencePolicy, Response, TaskSpec, TopologySpec,
    WirePoint,
};
use fsi_data::synth::city::{CityConfig, CityGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = CityGenerator::new(CityConfig {
        n_individuals: 400,
        grid_side: 16,
        seed: 11,
        ..CityConfig::default()
    })?
    .generate()?;

    // One trained deployment; the shards below all serve clips of it.
    let serving = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()?
        .serve()?;

    // Two shard servers over the halves of a 1×2 topology: each holds
    // only its slot's leaves, so per-shard memory scales down.
    let halves = TopologySpec::local(1, 2);
    let shard0 = fsi::HttpServer::bind(serving.service_shard(&halves, 0)?, "127.0.0.1:0")?;
    let shard1 = fsi::HttpServer::bind(serving.service_shard(&halves, 1)?, "127.0.0.1:0")?;
    println!("shard 0 listening on http://{}", shard0.addr());
    println!("shard 1 listening on http://{}", shard1.addr());

    // The coordinator: a serde-round-trippable TopologySpec naming both
    // shards by address, scatter-gathering over keep-alive connections.
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Http(shard0.addr().to_string()),
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    println!("topology spec: {}", serde_json::to_string(&spec)?);
    let coordinator = fsi::HttpServer::bind(serving.service_over(&spec)?, "127.0.0.1:0")?;
    println!("coordinator listening on http://{}\n", coordinator.addr());

    // Every query type through the coordinator, checked against the
    // single-box service: routed lookups, a scattered batch, a merged
    // range query.
    let mut single_box = serving.service();
    let mut client = fsi::HttpClient::connect(coordinator.addr())?;
    for (x, y) in [(0.2, 0.3), (0.5, 0.5), (0.8, 0.7)] {
        let via_wire = client.call(&Request::Lookup { x, y })?;
        assert_eq!(via_wire, single_box.dispatch(&Request::Lookup { x, y }));
        if let Response::Decision { decision } = via_wire {
            println!(
                "({x:.1}, {y:.1}) -> neighborhood {} calibrated {:.4}",
                decision.leaf_id, decision.calibrated_score
            );
        }
    }
    let batch = Request::LookupBatch {
        points: vec![
            WirePoint::new(0.1, 0.9),
            WirePoint::new(0.9, 0.1),
            WirePoint::new(0.5, 0.2),
        ],
    };
    assert_eq!(client.call(&batch)?, single_box.dispatch(&batch));
    let range = Request::RangeQuery {
        rect: fsi::WireRect::new(0.25, 0.25, 0.75, 0.75),
    };
    match (client.call(&range)?, single_box.dispatch(&range)) {
        (Response::Regions { ids }, Response::Regions { ids: expected }) => {
            assert_eq!(ids, expected);
            println!("range [0.25,0.75]² touches {} neighborhoods\n", ids.len());
        }
        other => return Err(format!("unexpected range answers: {other:?}").into()),
    }

    // Per-shard stats: the coordinator reports where each shard lives
    // and how small its partial index is next to a full replica.
    let full_heap = match single_box.dispatch(&Request::Stats) {
        Response::Stats { stats } => stats.heap_bytes,
        other => return Err(format!("unexpected stats answer: {other:?}").into()),
    };
    println!("full replica: heap={full_heap} B");
    if let Response::Stats { stats } = client.call(&Request::Stats)? {
        for (i, shard) in stats.per_shard.iter().flatten().enumerate() {
            println!(
                "shard {i}: {} {} generation={} leaves={} heap={} B ({}%)",
                shard.kind,
                shard.addr.as_deref().unwrap_or("(in-process)"),
                shard.generation,
                shard.num_leaves,
                shard.heap_bytes,
                shard.heap_bytes * 100 / full_heap.max(1)
            );
        }
    }

    // A rebuild through the coordinator runs the two-phase barrier: the
    // coordinator trains, both shards stage the shipped model, then both
    // commit — no client ever sees a half-swapped fleet.
    let new_spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 4);
    match client.call(&Request::Rebuild { spec: new_spec })? {
        Response::Rebuilt { report } => println!(
            "\nrebuilt every shard to generation {} ({} leaves, ENCE {:.4})",
            report.generation, report.num_leaves, report.ence
        ),
        other => return Err(format!("rebuild failed: {other:?}").into()),
    }
    if let Response::Stats { stats } = client.call(&Request::Stats)? {
        println!("post-rebuild generations: {:?}", stats.generations);
        assert_eq!(stats.generations, vec![2, 2]);
    }

    // Replica slots: each half is served by an in-process partial index
    // *and* the running shard server for that half. The barrier stages
    // the coordinator's index on the local member and ships the model to
    // the shard server, on both slots, before any member commits.
    let replicated = TopologySpec {
        rows: 1,
        cols: 2,
        shards: [&shard0, &shard1]
            .iter()
            .map(|server| {
                BackendSpec::Replicas(vec![
                    BackendSpec::Local,
                    BackendSpec::Http(server.addr().to_string()),
                ])
            })
            .collect(),
    };
    println!(
        "\nreplica topology: {}",
        serde_json::to_string(&replicated)?
    );
    let mut replicas = serving.service_over_with(&replicated, ResiliencePolicy::default())?;
    let final_spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::FairKd, 4);
    let generation = match replicas.dispatch(&Request::Rebuild {
        spec: final_spec.clone(),
    }) {
        Response::Rebuilt { report } => report.generation,
        other => return Err(format!("replica rebuild failed: {other:?}").into()),
    };
    match replicas.dispatch(&Request::Stats) {
        Response::Stats { stats } => {
            println!("replica-slot generations: {:?}", stats.generations);
            assert_eq!(stats.generations, vec![generation; 2]);
        }
        other => return Err(format!("unexpected stats answer: {other:?}").into()),
    }
    // Both members of every slot answer what the new spec's index does,
    // bit for bit: the coordinator reads its local members, the shard
    // servers answer for their own halves.
    let (expected, _run) = fsi_serve::build_index(&dataset, &final_spec)?;
    let mut members = [
        fsi::HttpClient::connect(shard0.addr())?,
        fsi::HttpClient::connect(shard1.addr())?,
    ];
    let mut checked = 0;
    for i in 0..16 {
        for j in 0..16 {
            let (x, y) = ((f64::from(i) + 0.5) / 16.0, (f64::from(j) + 0.5) / 16.0);
            let p = fsi::Point::new(x, y);
            let want = expected.lookup(&p).ok_or("point out of bounds")?;
            let slot = replicas.topology().shard_of(&p).ok_or("point not routed")?;
            for got in [
                replicas.dispatch(&Request::Lookup { x, y }),
                members[slot].call(&Request::Lookup { x, y })?,
            ] {
                let Response::Decision { decision } = got else {
                    return Err(format!("unexpected lookup answer: {got:?}").into());
                };
                assert_eq!(decision.leaf_id, want.leaf_id);
                assert_eq!(decision.raw_score.to_bits(), want.raw_score.to_bits());
                assert_eq!(
                    decision.calibrated_score.to_bits(),
                    want.calibrated_score.to_bits()
                );
                checked += 1;
            }
        }
    }
    println!("replica slots match the retrained index on {checked} lookups");

    coordinator.shutdown();
    shard0.shutdown();
    shard1.shutdown();
    Ok(())
}
