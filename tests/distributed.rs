//! Distributed-serving acceptance tests: a coordinator scatter-gathering
//! over **real HTTP shard processes** (in-process `HttpServer`s, real
//! sockets, keep-alive connections) must answer bit-identically to the
//! single-box service, per-shard partial indexes must actually shrink
//! the working set, and the two-phase rebuild barrier must be torn-free
//! under concurrent keep-alive clients.

use fsi::{
    BackendSpec, DecisionBody, IngestBody, MaintenanceSpec, Method, Pipeline, Request,
    ResiliencePolicy, Response, TaskSpec, TopologySpec, WirePoint, WireRect,
};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use fsi_geo::{Grid, Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dataset() -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: 300,
        grid_side: 16,
        seed: 23,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap()
}

/// Random points biased toward the hard cases: interior points, exact
/// cell- and shard-boundary coordinates, and the map corners.
fn query_points(grid: &Grid, n: usize, seed: u64) -> Vec<Point> {
    let b = *grid.bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n + 5);
    for i in 0..n {
        let (x, y) = match i % 4 {
            0 | 1 => (rng.random::<f64>(), rng.random::<f64>()),
            2 => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random::<f64>(),
            ),
            _ => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random_range(0..=grid.rows()) as f64 / grid.rows() as f64,
            ),
        };
        points.push(Point::new(
            b.min_x + x * b.width(),
            b.min_y + y * b.height(),
        ));
    }
    points.extend([
        Point::new(b.min_x, b.min_y),
        Point::new(b.max_x, b.min_y),
        Point::new(b.min_x, b.max_y),
        Point::new(b.max_x, b.max_y),
        // The 2×2 shard cross-point: both split boundaries at once.
        Point::new(b.min_x + b.width() / 2.0, b.min_y + b.height() / 2.0),
    ]);
    points
}

fn expect_decision(response: Response) -> DecisionBody {
    match response {
        Response::Decision { decision } => decision,
        other => panic!("expected a decision, got {other:?}"),
    }
}

/// The tentpole differential property: a 2×2 topology with two shards
/// served by real HTTP shard servers (partial indexes over their slots)
/// and two served in-process answers every Lookup / LookupBatch /
/// RangeQuery **bit-identically** to the single-box service and to
/// direct `FrozenIndex` calls; the union of per-shard range answers
/// equals the single-box answer; and every shard's partial index is at
/// most 60% of the full replica's heap.
#[test]
fn remote_partial_topology_answers_bit_identically_to_the_single_box() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(6)
        .run()
        .unwrap();
    let direct = run.freeze().unwrap();
    let serving = run.serve().unwrap();

    // Two real shard servers for slots 1 and 2 of the 2×2 grid, each
    // holding only its slot's partial index.
    let local_spec = TopologySpec::local(2, 2);
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let shard2 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 2).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();

    // The coordinator: slots 0 and 3 in-process, 1 and 2 over HTTP.
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard1.addr().to_string()),
            BackendSpec::Http(shard2.addr().to_string()),
            BackendSpec::Local,
        ],
    };
    let mut coordinator = serving.service_over(&spec).unwrap();
    let mut single_box = serving.service();

    // Point lookups: coordinator ≡ single box ≡ direct, bit for bit —
    // including points that route across the wire.
    let points = query_points(d.grid(), 400, 7);
    for p in &points {
        let expected: DecisionBody = direct.lookup(p).unwrap().into();
        let request = Request::Lookup { x: p.x, y: p.y };
        let got = expect_decision(coordinator.dispatch(&request));
        assert_eq!(got, expected, "coordinator at {p:?}");
        assert_eq!(got.raw_score.to_bits(), expected.raw_score.to_bits());
        assert_eq!(
            got.calibrated_score.to_bits(),
            expected.calibrated_score.to_bits()
        );
        assert_eq!(
            expect_decision(single_box.dispatch(&request)),
            expected,
            "single box at {p:?}"
        );
    }
    // An out-of-bounds point answers the same structured error on both.
    let oob = Request::Lookup { x: 50.0, y: 50.0 };
    assert_eq!(coordinator.dispatch(&oob), single_box.dispatch(&oob));

    // One batch over every point: scatter, sub-batch over the wire,
    // gather back in the original order.
    let wire_points: Vec<WirePoint> = points.iter().map(|p| WirePoint::new(p.x, p.y)).collect();
    let mut direct_batch = Vec::new();
    direct.lookup_batch(&points, &mut direct_batch).unwrap();
    let expected_batch: Vec<DecisionBody> = direct_batch
        .iter()
        .map(|&d| DecisionBody::from(d))
        .collect();
    match coordinator.dispatch(&Request::LookupBatch {
        points: wire_points,
    }) {
        Response::Decisions { decisions } => assert_eq!(decisions, expected_batch),
        other => panic!("expected decisions, got {other:?}"),
    }

    // Range queries: identical ID sets, merged across local and remote
    // shards.
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..60 {
        let (x0, x1) = (rng.random::<f64>(), rng.random::<f64>());
        let (y0, y1) = (rng.random::<f64>(), rng.random::<f64>());
        let rect = WireRect::new(x0.min(x1), y0.min(y1), x0.max(x1) + 1e-9, y0.max(y1) + 1e-9);
        let expected =
            direct.range_query(&Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap());
        match coordinator.dispatch(&Request::RangeQuery { rect }) {
            Response::Regions { ids } => assert_eq!(ids, expected, "{rect:?}"),
            other => panic!("expected regions, got {other:?}"),
        }
    }

    // Union-of-shards property: asking every shard server (and the two
    // local partials) for the whole map and merging the IDs equals the
    // single-box answer — the partial indexes tile the leaf set.
    let b = *direct.bounds();
    let full = WireRect::new(b.min_x, b.min_y, b.max_x, b.max_y);
    let mut union: Vec<usize> = Vec::new();
    for shard in 0..4 {
        let response = match shard {
            1 => fsi::http::query_once(shard1.addr(), &Request::RangeQuery { rect: full }).unwrap(),
            2 => fsi::http::query_once(shard2.addr(), &Request::RangeQuery { rect: full }).unwrap(),
            _ => serving
                .service_shard(&local_spec, shard)
                .unwrap()
                .dispatch(&Request::RangeQuery { rect: full }),
        };
        match response {
            Response::Regions { ids } => union.extend(ids),
            other => panic!("expected regions from shard {shard}, got {other:?}"),
        }
    }
    union.sort_unstable();
    union.dedup();
    assert_eq!(
        union,
        direct.range_query(&Rect::new(b.min_x, b.min_y, b.max_x, b.max_y).unwrap())
    );

    // Partial indexes scale DOWN: every shard (local and remote alike)
    // holds at most 60% of the full replica's heap.
    let full_heap = direct.heap_bytes();
    match coordinator.dispatch(&Request::Stats) {
        Response::Stats { stats } => {
            let per_shard = stats.per_shard.expect("topology stats are per-shard");
            assert_eq!(per_shard.len(), 4);
            let kinds: Vec<&str> = per_shard.iter().map(|s| s.kind.as_str()).collect();
            assert_eq!(kinds, ["local", "http", "http", "local"]);
            for (i, shard) in per_shard.iter().enumerate() {
                assert!(
                    shard.heap_bytes * 10 <= full_heap * 6,
                    "shard {i} holds {} B of a {} B replica (> 60%)",
                    shard.heap_bytes,
                    full_heap
                );
            }
        }
        other => panic!("expected stats, got {other:?}"),
    }

    shard1.shutdown();
    shard2.shutdown();
}

/// The distributed concurrency acceptance test: ≥4 keep-alive HTTP
/// clients hammer a coordinator whose two shards are **real HTTP shard
/// servers**, while rebuilds run the two-phase prepare/commit barrier
/// across the wire. No request fails, generations are monotone, and —
/// because rebuilds are deterministic — every decision must match the
/// table of a generation at least as new as the oldest the client has
/// already observed on *all* shards (a stale or torn answer fails).
#[test]
fn two_phase_rebuild_over_http_shards_is_torn_free_under_concurrent_clients() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 80;
    const REBUILDS: usize = 2;

    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap();
    let serving = run.serve().unwrap();

    // Two real shard servers over the halves of a 1×2 topology.
    let local_spec = TopologySpec::local(1, 2);
    let shard0 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 0).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Http(shard0.addr().to_string()),
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    // The coordinator itself serves HTTP: one worker per client, plus
    // one for the rebuild driver.
    let coordinator = fsi::HttpServer::bind_with(
        serving.service_over(&spec).unwrap(),
        "127.0.0.1:0",
        CLIENTS + 1,
    )
    .unwrap();
    let addr = coordinator.addr();

    // The deterministic spec schedule: generation g serves the index
    // built from specs[g - 1]; specs[0] is the deployment's own spec.
    let mut specs = vec![serving.spec().clone()];
    for i in 0..REBUILDS {
        specs.push(fsi::PipelineSpec::new(
            TaskSpec::act(),
            if i % 2 == 0 {
                Method::FairKd
            } else {
                Method::MedianKd
            },
            2 + (i % 2),
        ));
    }

    // Hot points spread over both shards; expected[g - 1][k] is
    // generation g's correct decision for hot[k].
    let b = *d.grid().bounds();
    let hot: Vec<Point> = (0..8)
        .map(|i| {
            Point::new(
                b.min_x + (0.07 + 0.125 * i as f64) * b.width(),
                b.min_y + (0.93 - 0.11 * i as f64) * b.height(),
            )
        })
        .collect();
    let expected: Vec<Vec<DecisionBody>> = specs
        .iter()
        .map(|spec| {
            let (index, _run) = fsi_serve::build_index(&d, spec).unwrap();
            hot.iter()
                .map(|p| index.lookup(p).unwrap().into())
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..CLIENTS {
            let (hot, expected) = (&hot, &expected);
            clients.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("client connects");
                let mut rng = StdRng::seed_from_u64(500 + worker as u64);
                // The barrier floor: once every shard has been seen at
                // generation g, no answer may come from an older one.
                let mut floor = 1u64;
                for i in 0..REQUESTS_PER_CLIENT {
                    if i % 10 == 0 {
                        match client.call(&Request::Stats).expect("stats round-trip") {
                            Response::Stats { stats } => {
                                let per_shard =
                                    stats.per_shard.expect("coordinator stats are per-shard");
                                assert_eq!(per_shard.len(), 2);
                                for s in &per_shard {
                                    assert_eq!(s.kind, "http");
                                    assert!(s.addr.is_some());
                                }
                                let min = per_shard.iter().map(|s| s.generation).min().unwrap();
                                assert!(
                                    min >= floor,
                                    "generation floor went backwards: {floor} -> {min}"
                                );
                                floor = min;
                            }
                            other => panic!("expected stats, got {other:?}"),
                        }
                    } else {
                        let k = rng.random_range(0..hot.len());
                        let p = &hot[k];
                        let got = expect_decision(
                            client
                                .call(&Request::Lookup { x: p.x, y: p.y })
                                .expect("lookup round-trip"),
                        );
                        let live = expected[floor as usize - 1..]
                            .iter()
                            .any(|table| table[k] == got);
                        assert!(
                            live,
                            "torn or stale decision for hot[{k}] after barrier \
                             generation {floor}: {got:?}"
                        );
                    }
                }
                floor
            }));
        }

        // Drive the rebuilds through the coordinator's own transport:
        // each one trains, then stages the model on BOTH remote shards
        // before committing either.
        let mut driver = fsi::HttpClient::connect(addr).expect("driver connects");
        for (i, spec) in specs.iter().enumerate().skip(1) {
            match driver
                .call(&Request::Rebuild { spec: spec.clone() })
                .expect("rebuild round-trip")
            {
                Response::Rebuilt { report } => {
                    assert_eq!(report.generation, i as u64 + 1, "rebuild {i}")
                }
                other => panic!("expected rebuild report, got {other:?}"),
            }
        }

        for client in clients {
            let floor = client.join().expect("client thread survived");
            assert!(floor >= 1);
        }
    });

    // After the storm both shard servers sit at the final generation
    // and the coordinator still answers.
    match fsi::http::query_once(addr, &Request::Stats).unwrap() {
        Response::Stats { stats } => {
            assert_eq!(stats.generations, vec![REBUILDS as u64 + 1; 2]);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    coordinator.shutdown();
    shard0.shutdown();
    shard1.shutdown();
}

/// A prepare that cannot reach every shard must leave the topology
/// serving the old generation everywhere: shard servers reject a bare
/// `commit`, and a coordinator whose remote shard has gone away
/// surfaces a structured error instead of publishing a half-rebuilt
/// topology.
#[test]
fn failed_prepares_leave_every_shard_on_the_old_generation() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap();
    let serving = run.serve().unwrap();

    let local_spec = TopologySpec::local(1, 2);
    let shard0 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 0).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();

    // A commit with no staged prepare is a structured protocol error.
    match fsi::http::query_once(shard0.addr(), &Request::RebuildCommit).unwrap() {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::NotPrepared),
        other => panic!("expected not_prepared, got {other:?}"),
    }

    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Http(shard0.addr().to_string()),
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    let mut coordinator = serving.service_over(&spec).unwrap();

    // Kill shard 1, then ask for a rebuild: the prepare fan-out fails,
    // no shard commits, and shard 0 keeps serving generation 1.
    shard1.shutdown();
    let rebuild_spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::FairKd, 3);
    match coordinator.dispatch(&Request::Rebuild { spec: rebuild_spec }) {
        Response::Error { error } => {
            assert_eq!(error.code, fsi::ErrorCode::Internal, "{error:?}")
        }
        other => panic!("expected a structured rebuild failure, got {other:?}"),
    }
    match fsi::http::query_once(shard0.addr(), &Request::Stats).unwrap() {
        Response::Stats { stats } => assert_eq!(stats.generations, vec![1]),
        other => panic!("expected stats, got {other:?}"),
    }
    // And a late commit still finds nothing staged on shard 0.
    match fsi::http::query_once(shard0.addr(), &Request::RebuildCommit).unwrap() {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::NotPrepared),
        other => panic!("expected not_prepared, got {other:?}"),
    }
    shard0.shutdown();
}

/// The streamed wave the maintenance tests feed: points spread over all
/// four quadrants (so every shard — local and remote — owns some), one
/// drifting cohort, deterministic order.
fn streamed_wave(grid: &Grid, n: u32) -> Vec<IngestBody> {
    let b = *grid.bounds();
    (0..n)
        .map(|i| {
            let fx = 0.05 + 0.9 * f64::from(i % 10) / 10.0;
            let fy = 0.05 + 0.9 * f64::from((i / 10) % 10) / 10.0;
            IngestBody::new(
                b.min_x + fx * b.width(),
                b.min_y + fy * b.height(),
                i % 2,
                i % 3 != 0,
            )
        })
        .collect()
}

/// The maintenance differential property: after streamed points trip a
/// maintenance pass, every decision — local or routed across the wire —
/// is **bit-identical** to a from-scratch retrain on seed ∪ streamed
/// points, and every slot ends on the same generation. The coordinator
/// alone merges its per-cell ingest counts and retrains; the HTTP shard
/// servers (which never saw an `Ingest` request and hold no dataset)
/// stage the model it ships. Runs over three slot shapes: local and HTTP
/// slots, all-local replica slots, and one replica slot pairing a local
/// member with an HTTP shard server.
#[test]
fn drift_triggered_maintenance_is_bit_exact_with_a_from_scratch_retrain() {
    // `Http` members are placeholders: each becomes a real shard server
    // over its slot's partial index.
    let http = || BackendSpec::Http(String::new());
    let local_replicas = BackendSpec::Replicas(vec![BackendSpec::Local, BackendSpec::Local]);
    maintenance_matches_a_from_scratch_retrain(vec![
        BackendSpec::Local,
        http(),
        http(),
        BackendSpec::Local,
    ]);
    maintenance_matches_a_from_scratch_retrain(vec![local_replicas; 4]);
    maintenance_matches_a_from_scratch_retrain(vec![
        BackendSpec::Local,
        BackendSpec::Replicas(vec![BackendSpec::Local, http()]),
        BackendSpec::Local,
        BackendSpec::Local,
    ]);
}

/// One run of the maintenance oracle over a 2×2 coordinator whose slots
/// are shaped like `shape`.
fn maintenance_matches_a_from_scratch_retrain(shape: Vec<BackendSpec>) {
    let d = dataset();
    let policy = MaintenanceSpec {
        drift_threshold: 1e18, // only occupancy triggers here
        max_buffered: 64,
        max_staleness_ms: 0,
        poll_interval_ms: 5,
    };
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap()
        .serve_with_ingest(policy.clone())
        .unwrap();

    let local_spec = TopologySpec::local(2, 2);
    let mut servers: Vec<(usize, fsi::HttpServer)> = Vec::new();
    let mut bind = |slot: usize| {
        let server = fsi::HttpServer::bind(
            serving.service_shard(&local_spec, slot).unwrap(),
            "127.0.0.1:0",
        )
        .unwrap();
        let backend = BackendSpec::Http(server.addr().to_string());
        servers.push((slot, server));
        backend
    };
    let mut shards = Vec::new();
    for (slot, backend) in shape.iter().enumerate() {
        shards.push(match backend {
            BackendSpec::Http(_) => bind(slot),
            BackendSpec::Replicas(members) => BackendSpec::Replicas(
                members
                    .iter()
                    .map(|member| match member {
                        BackendSpec::Http(_) => bind(slot),
                        other => other.clone(),
                    })
                    .collect(),
            ),
            other => other.clone(),
        });
    }
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards,
    };
    let replicated = spec
        .shards
        .iter()
        .any(|b| matches!(b, BackendSpec::Replicas(_)));
    let mut coordinator = if replicated {
        serving.service_over_with(&spec, ResiliencePolicy::default())
    } else {
        serving.service_over(&spec)
    }
    .unwrap();

    let bodies = streamed_wave(d.grid(), 96);
    match coordinator.dispatch(&Request::IngestBatch {
        points: bodies.clone(),
    }) {
        Response::Ingested {
            accepted, buffered, ..
        } => {
            assert_eq!(accepted, 96);
            assert_eq!(buffered, 96);
        }
        other => panic!("expected ingested, got {other:?}"),
    }

    // 96 buffered > 64 allowed: the next poll is due and publishes.
    let pspec = serving.spec().clone();
    let generation = coordinator
        .maintain(&policy, &pspec)
        .unwrap_or_else(|e| panic!("{shape:?}: {e}"))
        .expect("occupancy past the policy must trigger a rebuild");
    assert_eq!(generation, 2, "{shape:?}");

    // From-scratch reference: retrain on seed ∪ streamed points (the
    // merge folds them into per-cell counts, so their order does not
    // matter) — exactly what every shard must now be serving.
    let records: Vec<fsi_ingest::IngestRecord> = bodies
        .iter()
        .enumerate()
        .map(|(i, p)| fsi_ingest::IngestRecord::from_wire(i as u64, p))
        .collect();
    let merged = fsi_ingest::merge_dataset(&d, &TaskSpec::act(), &records).unwrap();
    let (reference, _run) = fsi_serve::build_index(&merged, &pspec).unwrap();

    let bit_exact = |got: DecisionBody, expected: DecisionBody, p: &Point| {
        assert_eq!(
            got, expected,
            "{shape:?}: post-maintenance decision at {p:?}"
        );
        assert_eq!(got.raw_score.to_bits(), expected.raw_score.to_bits());
        assert_eq!(
            got.calibrated_score.to_bits(),
            expected.calibrated_score.to_bits()
        );
    };
    let points = query_points(d.grid(), 300, 41);
    for p in &points {
        let expected: DecisionBody = reference.lookup(p).unwrap().into();
        let got = expect_decision(coordinator.dispatch(&Request::Lookup { x: p.x, y: p.y }));
        bit_exact(got, expected, p);
    }
    // Every shard server answers its own slot's points the same way —
    // including replica members the coordinator's reads never reach.
    for (slot, server) in &servers {
        let mut client = fsi::HttpClient::connect(server.addr()).unwrap();
        for p in points
            .iter()
            .filter(|p| coordinator.topology().shard_of(p) == Some(*slot))
        {
            let expected: DecisionBody = reference.lookup(p).unwrap().into();
            let got = expect_decision(client.call(&Request::Lookup { x: p.x, y: p.y }).unwrap());
            bit_exact(got, expected, p);
        }
    }
    match coordinator.dispatch(&Request::Stats) {
        Response::Stats { stats } => assert_eq!(stats.generations, vec![2, 2, 2, 2], "{shape:?}"),
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(
        coordinator.topology().generations(),
        vec![2, 2, 2, 2],
        "{shape:?}"
    );
    for (_, server) in servers {
        server.shutdown();
    }
}

/// Streaming ingestion under fire: keep-alive readers hammer a
/// coordinator over two real HTTP shard servers while a writer streams
/// batches and a background maintenance thread republishes whenever the
/// occupancy policy trips. No request fails, every decision is complete
/// and in-range, the generation floor never regresses — and after the
/// storm one forced merge brings every shard to a state bit-identical
/// to a from-scratch retrain on seed ∪ everything streamed.
#[test]
fn auto_rebuilds_under_concurrent_ingest_and_reads_stay_untorn() {
    const READERS: usize = 3;
    const REQUESTS_PER_READER: usize = 60;
    const WAVES: u32 = 12;
    const WAVE_LEN: u32 = 16;

    let d = dataset();
    let policy = MaintenanceSpec {
        drift_threshold: 1e18,
        max_buffered: 48,
        max_staleness_ms: 0,
        poll_interval_ms: 5,
    };
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::MedianKd)
        .height(3)
        .run()
        .unwrap()
        .serve_with_ingest(policy)
        .unwrap();

    let local_spec = TopologySpec::local(1, 2);
    let shard0 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 0).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Http(shard0.addr().to_string()),
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    let coordinator_service = serving.service_over(&spec).unwrap();
    let maintenance = serving.spawn_maintenance(&coordinator_service).unwrap();
    let coordinator =
        fsi::HttpServer::bind_with(coordinator_service, "127.0.0.1:0", READERS + 2).unwrap();
    let addr = coordinator.addr();

    let b = *d.grid().bounds();
    let hot: Vec<Point> = (0..8)
        .map(|i| {
            Point::new(
                b.min_x + (0.06 + 0.12 * i as f64) * b.width(),
                b.min_y + (0.9 - 0.1 * i as f64) * b.height(),
            )
        })
        .collect();

    let all_bodies: Vec<IngestBody> = streamed_wave(d.grid(), WAVES * WAVE_LEN);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for worker in 0..READERS {
            let hot = &hot;
            readers.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("reader connects");
                let mut rng = StdRng::seed_from_u64(900 + worker as u64);
                let mut floor = 1u64;
                for i in 0..REQUESTS_PER_READER {
                    if i % 12 == 0 {
                        match client.call(&Request::Stats).expect("stats round-trip") {
                            Response::Stats { stats } => {
                                let min = stats.generations.iter().copied().min().unwrap();
                                assert!(
                                    min >= floor,
                                    "generation floor went backwards: {floor} -> {min}"
                                );
                                floor = min;
                            }
                            other => panic!("expected stats, got {other:?}"),
                        }
                    } else {
                        let p = &hot[rng.random_range(0..hot.len())];
                        let got = expect_decision(
                            client
                                .call(&Request::Lookup { x: p.x, y: p.y })
                                .expect("lookup round-trip"),
                        );
                        assert!(
                            (0.0..=1.0).contains(&got.calibrated_score),
                            "torn decision: {got:?}"
                        );
                    }
                }
                floor
            }));
        }

        // The single writer: one wave per round-trip.
        let writer = scope.spawn(|| {
            let mut client = fsi::HttpClient::connect(addr).expect("writer connects");
            let mut streamed = 0u64;
            for wave in all_bodies.chunks(WAVE_LEN as usize) {
                match client
                    .call(&Request::IngestBatch {
                        points: wave.to_vec(),
                    })
                    .expect("ingest round-trip")
                {
                    Response::Ingested { accepted, .. } => streamed += accepted,
                    other => panic!("expected ingested, got {other:?}"),
                }
            }
            streamed
        });

        assert_eq!(
            writer.join().expect("writer survived"),
            u64::from(WAVES * WAVE_LEN)
        );
        for reader in readers {
            assert!(reader.join().expect("reader survived") >= 1);
        }
    });

    // Stop the background thread, then force one final merge so the
    // published state covers every streamed point.
    let background_rebuilds = maintenance.stop();
    assert!(
        background_rebuilds >= 1,
        "the occupancy policy must have tripped at least once"
    );
    let pspec = serving.spec().clone();
    match fsi::http::query_once(
        addr,
        &Request::Rebuild {
            spec: pspec.clone(),
        },
    )
    .unwrap()
    {
        Response::Rebuilt { .. } => {}
        other => panic!("expected rebuilt, got {other:?}"),
    }

    // Differential closure: the fleet now serves exactly the index a
    // from-scratch retrain on seed ∪ all streamed points produces.
    let records: Vec<fsi_ingest::IngestRecord> = all_bodies
        .iter()
        .enumerate()
        .map(|(i, p)| fsi_ingest::IngestRecord::from_wire(i as u64, p))
        .collect();
    let merged = fsi_ingest::merge_dataset(&d, &TaskSpec::act(), &records).unwrap();
    let (reference, _run) = fsi_serve::build_index(&merged, &pspec).unwrap();
    let mut client = fsi::HttpClient::connect(addr).unwrap();
    for p in query_points(d.grid(), 150, 53) {
        let expected: DecisionBody = reference.lookup(&p).unwrap().into();
        let got = expect_decision(
            client
                .call(&Request::Lookup { x: p.x, y: p.y })
                .expect("post-storm lookup"),
        );
        assert_eq!(got, expected, "post-storm decision at {p:?}");
    }

    coordinator.shutdown();
    shard0.shutdown();
    shard1.shutdown();
}

/// The parallel scatter-gather fan-out answers exactly what querying
/// each shard one at a time answers: range queries equal the sequential
/// per-shard union, per-shard stats equal each shard's own report, and
/// a metrics scrape carries every remote shard's snapshot.
#[test]
fn parallel_fanout_matches_sequential_per_shard_answers() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap()
        .serve()
        .unwrap();

    let local_spec = TopologySpec::local(2, 2);
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let shard2 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 2).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard1.addr().to_string()),
            BackendSpec::Http(shard2.addr().to_string()),
            BackendSpec::Local,
        ],
    };
    let mut coordinator = serving.service_over(&spec).unwrap().with_metrics(true);

    // Range queries: the coordinator's (concurrent) scatter-gather
    // equals the union of asking every shard sequentially.
    let sequential_shard = |shard: usize, rect: WireRect| -> Vec<usize> {
        let response = match shard {
            1 => fsi::http::query_once(shard1.addr(), &Request::RangeQuery { rect }).unwrap(),
            2 => fsi::http::query_once(shard2.addr(), &Request::RangeQuery { rect }).unwrap(),
            _ => serving
                .service_shard(&local_spec, shard)
                .unwrap()
                .dispatch(&Request::RangeQuery { rect }),
        };
        match response {
            Response::Regions { ids } => ids,
            other => panic!("expected regions from shard {shard}, got {other:?}"),
        }
    };
    let mut rng = StdRng::seed_from_u64(67);
    for _ in 0..25 {
        let (x0, x1) = (rng.random::<f64>(), rng.random::<f64>());
        let (y0, y1) = (rng.random::<f64>(), rng.random::<f64>());
        let rect = WireRect::new(x0.min(x1), y0.min(y1), x0.max(x1) + 1e-9, y0.max(y1) + 1e-9);
        let mut sequential: Vec<usize> = (0..4).flat_map(|s| sequential_shard(s, rect)).collect();
        sequential.sort_unstable();
        sequential.dedup();
        match coordinator.dispatch(&Request::RangeQuery { rect }) {
            Response::Regions { ids } => assert_eq!(ids, sequential, "{rect:?}"),
            other => panic!("expected regions, got {other:?}"),
        }
    }

    // Batches: the per-shard sub-batches now fan out concurrently, but
    // the gathered answer must equal asking for every point one at a
    // time, in the original order.
    let points = query_points(d.grid(), 120, 71);
    let sequential: Vec<DecisionBody> = points
        .iter()
        .map(|p| expect_decision(coordinator.dispatch(&Request::Lookup { x: p.x, y: p.y })))
        .collect();
    match coordinator.dispatch(&Request::LookupBatch {
        points: points.iter().map(|p| WirePoint::new(p.x, p.y)).collect(),
    }) {
        Response::Decisions { decisions } => assert_eq!(decisions, sequential),
        other => panic!("expected decisions, got {other:?}"),
    }

    // Stats: the fanned-out per-shard reports equal each remote shard's
    // own answer.
    match coordinator.dispatch(&Request::Stats) {
        Response::Stats { stats } => {
            let per_shard = stats.per_shard.expect("topology stats are per-shard");
            for (shard, server) in [(1, shard1.addr()), (2, shard2.addr())] {
                let own = match fsi::http::query_once(server, &Request::Stats).unwrap() {
                    Response::Stats { stats } => stats,
                    other => panic!("expected stats, got {other:?}"),
                };
                let via = &per_shard[shard];
                assert_eq!(via.generation, own.generations[0]);
                assert_eq!(via.num_leaves, own.num_leaves);
                assert_eq!(via.heap_bytes, own.heap_bytes);
                assert_eq!(via.backend, own.backend);
            }
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Metrics: the concurrent scrape still gathers every remote
    // shard's own snapshot into its slot.
    match coordinator.dispatch(&Request::Metrics) {
        Response::Metrics { metrics } => {
            assert!(metrics.shards[1].remote.is_some(), "shard 1 scraped");
            assert!(metrics.shards[2].remote.is_some(), "shard 2 scraped");
            assert!(
                metrics.shards[0].remote.is_none(),
                "local shards have no remote scrape"
            );
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    shard1.shutdown();
    shard2.shutdown();
}

/// Graceful degradation: when a remote shard dies (a `ChaosShard` kill
/// switch over the real HTTP backend — no hand-rolled failure
/// plumbing), fleet-wide `Stats` and `Metrics` still answer. The dead
/// shard carries an `unreachable` marker with the transport error
/// instead of failing the whole response, and flipping the switch back
/// clears the marker.
#[test]
fn stats_and_metrics_degrade_gracefully_when_a_shard_dies() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap();
    let index = run.freeze().unwrap();
    let serving = run.serve().unwrap();

    let local_spec = TopologySpec::local(1, 2);
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    let switches: std::sync::Mutex<Vec<fsi::ChaosSwitch>> = std::sync::Mutex::new(Vec::new());
    let topology = fsi::Topology::from_spec(&spec, index, |addr: &str| {
        let chaos = fsi::ChaosShard::new(Box::new(fsi::RemoteShard::connect(addr)?));
        switches.lock().unwrap().push(chaos.switch());
        Ok(Box::new(chaos) as Box<dyn fsi::ShardBackend>)
    })
    .unwrap();
    let mut coordinator = fsi::QueryService::new(topology).with_metrics(true);
    let switch = switches.into_inner().unwrap().pop().expect("one remote");

    let assert_stats = |response: Response, down: bool| match response {
        Response::Stats { stats } => {
            let per_shard = stats.per_shard.expect("topology stats are per-shard");
            assert_eq!(per_shard.len(), 2);
            assert!(per_shard[0].unreachable.is_none(), "local shard healthy");
            if down {
                assert_eq!(per_shard[1].unreachable, Some(true));
                assert_eq!(per_shard[1].backend, "unreachable");
                assert_eq!(per_shard[1].generation, 0);
                let error = per_shard[1].error.as_deref().unwrap_or_default();
                assert!(error.contains("chaos"), "marker carries the cause: {error}");
            } else {
                assert!(per_shard[1].unreachable.is_none());
                assert!(per_shard[1].error.is_none());
                assert_eq!(per_shard[1].generation, 1);
            }
        }
        other => panic!("expected stats, got {other:?}"),
    };

    assert_stats(coordinator.dispatch(&Request::Stats), false);
    switch.set_down(true);
    assert_stats(coordinator.dispatch(&Request::Stats), true);
    // Metrics likewise keep answering: the dead shard simply has no
    // remote snapshot gathered into its slot.
    match coordinator.dispatch(&Request::Metrics) {
        Response::Metrics { metrics } => {
            assert!(metrics.shards[1].remote.is_none(), "dead shard: no scrape");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    // A lookup routed at the dead, *unreplicated* shard still fails —
    // degradation markers are for observability fan-outs, not a license
    // to answer queries wrong. Replication is what removes this error
    // (see tests/resilience.rs).
    let b = *d.grid().bounds();
    let right = Request::Lookup {
        x: b.min_x + 0.75 * b.width(),
        y: b.min_y + 0.5 * b.height(),
    };
    match coordinator.dispatch(&right) {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::Internal),
        other => panic!("expected a routed failure, got {other:?}"),
    }
    switch.set_down(false);
    assert_stats(coordinator.dispatch(&Request::Stats), false);
    shard1.shutdown();
}

/// Ingestion stays on the coordinator. Points streamed into the half a
/// real HTTP shard serves never reach that shard: its own scrape shows
/// no ingest requests and no errors. And the shard refuses a
/// `RebuildPrepare` that ships an ingest log in its retired `delta`
/// (what coordinators sent before `RebuildStage`) at decode time,
/// stages nothing and keeps serving its generation.
#[test]
fn ingestion_stays_on_the_coordinator() {
    let d = dataset();
    let policy = MaintenanceSpec {
        drift_threshold: 1e18,
        max_buffered: 1 << 20,
        max_staleness_ms: 0,
        poll_interval_ms: 5,
    };
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap()
        .serve_with_ingest(policy)
        .unwrap();
    let halves = TopologySpec::local(1, 2);
    let shard =
        fsi::HttpServer::bind(serving.service_shard(&halves, 1).unwrap(), "127.0.0.1:0").unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard.addr().to_string()),
        ],
    };
    let mut coordinator = serving.service_over(&spec).unwrap();
    let b = *d.grid().bounds();
    // Ten points in the east half, the one slot 1 serves.
    let east = |k: u32| {
        let f = f64::from(k) / 10.0;
        IngestBody::new(
            b.min_x + (0.6 + 0.3 * f) * b.width(),
            b.min_y + (0.05 + 0.9 * f) * b.height(),
            k % 2,
            k.is_multiple_of(3),
        )
    };
    for k in 0..10 {
        let p = east(k);
        let request = Request::Ingest {
            x: p.x,
            y: p.y,
            group: p.group,
            label: p.label,
        };
        match coordinator.dispatch(&request) {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 1),
            other => panic!("expected an ingested ack, got {other:?}"),
        }
    }
    let batch = Request::IngestBatch {
        points: (0..10).map(east).collect(),
    };
    match coordinator.dispatch(&batch) {
        Response::Ingested {
            accepted, buffered, ..
        } => assert_eq!((accepted, buffered), (10, 20)),
        other => panic!("expected an ingested ack, got {other:?}"),
    }
    let Response::Metrics { metrics } = coordinator.dispatch(&Request::Metrics) else {
        panic!("expected metrics");
    };
    let remote = metrics.shards[1]
        .remote
        .as_ref()
        .expect("the shard's own scrape is gathered");
    assert_eq!(remote.count_for("ingest"), 0, "{remote:?}");
    assert_eq!(remote.count_for("ingest_batch"), 0, "{remote:?}");
    assert!(remote.errors.is_empty(), "{:?}", remote.errors);

    let prepare = fsi::encode_request(&Request::RebuildPrepare {
        spec: serving.spec().clone(),
        delta: None,
    });
    let old = prepare.replace(
        r#""delta":null"#,
        &format!(r#""delta":[{}]"#, serde_json::to_string(&east(0)).unwrap()),
    );
    assert_ne!(old, prepare, "expected a delta field to fill");
    let (status, body) = fsi::HttpClient::connect(shard.addr())
        .unwrap()
        .post(&old)
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("`delta` field is retired"), "{body}");
    match coordinator.dispatch(&Request::RebuildCommit) {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::NotPrepared),
        other => panic!("a refused prepare must stage nothing, got {other:?}"),
    }
    match coordinator.dispatch(&Request::Stats) {
        Response::Stats { stats } => assert_eq!(stats.generations, vec![1, 1]),
        other => panic!("expected stats, got {other:?}"),
    }
    let p = east(3);
    let expected: DecisionBody = serving
        .handle()
        .load()
        .lookup(&Point::new(p.x, p.y))
        .unwrap()
        .into();
    let got = expect_decision(coordinator.dispatch(&Request::Lookup { x: p.x, y: p.y }));
    assert_eq!(got, expected);
    shard.shutdown();
}

/// A 2×2 topology whose every slot is `{"replicas":["local","local"]}`
/// (the shape the end-to-end benchmark deploys) has no transport under
/// any slot, so the coordinator answers its fan-outs inline on the
/// calling thread. Batches, range queries over 1, 2 and 4 shards,
/// stats, metrics and health must still answer exactly what one
/// reference `FrozenIndex` and a plain-local 2×2 coordinator answer,
/// floats compared by bit pattern.
#[test]
fn replica_slot_topology_fans_out_inline_and_answers_bit_identically() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap();
    let reference = run.freeze().unwrap();
    let serving = run.serve().unwrap();
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: vec![BackendSpec::Replicas(vec![BackendSpec::Local, BackendSpec::Local]); 4],
    };
    let mut coordinator = serving
        .service_over_with(&spec, ResiliencePolicy::default())
        .unwrap()
        .with_metrics(true);
    let mut plain = serving.service_over(&TopologySpec::local(2, 2)).unwrap();

    // Batches gather every shard's sub-batch back into request order.
    let points = query_points(d.grid(), 400, 83);
    let wire: Vec<WirePoint> = points.iter().map(|p| WirePoint::new(p.x, p.y)).collect();
    match coordinator.dispatch(&Request::LookupBatch {
        points: wire.clone(),
    }) {
        Response::Decisions { decisions } => {
            assert_eq!(decisions.len(), points.len());
            for (p, d) in points.iter().zip(&decisions) {
                let r = reference.lookup(p).expect("query points are in bounds");
                assert_eq!(d.leaf_id, r.leaf_id, "{p:?}");
                assert_eq!(d.group, r.group, "{p:?}");
                assert_eq!(d.raw_score.to_bits(), r.raw_score.to_bits(), "{p:?}");
                assert_eq!(
                    d.calibrated_score.to_bits(),
                    r.calibrated_score.to_bits(),
                    "{p:?}"
                );
            }
        }
        other => panic!("expected decisions, got {other:?}"),
    }
    let b = *d.grid().bounds();
    let mut bad = wire;
    bad[211] = WirePoint::new(b.max_x + 1.0, b.min_y);
    match coordinator.dispatch(&Request::LookupBatch { points: bad }) {
        Response::Error { error } => {
            assert_eq!(error.code, fsi::ErrorCode::OutOfBounds);
            assert!(error.message.contains("#211"), "{}", error.message);
        }
        other => panic!("expected an out-of-bounds error, got {other:?}"),
    }

    // Range queries covering one, two and all four shards.
    let at = |x0: f64, y0: f64, x1: f64, y1: f64| {
        WireRect::new(
            b.min_x + x0 * b.width(),
            b.min_y + y0 * b.height(),
            b.min_x + x1 * b.width(),
            b.min_y + y1 * b.height(),
        )
    };
    for (rect, covered) in [
        (at(0.1, 0.1, 0.3, 0.3), 1),
        (at(0.3, 0.1, 0.7, 0.3), 2),
        (at(0.3, 0.3, 0.7, 0.7), 4),
    ] {
        let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap();
        assert_eq!(coordinator.topology().covering(&query).len(), covered);
        match coordinator.dispatch(&Request::RangeQuery { rect }) {
            Response::Regions { ids } => assert_eq!(ids, reference.range_query(&query), "{rect:?}"),
            other => panic!("expected regions, got {other:?}"),
        }
    }

    // Stats: every replica slot reports what the plain local slot does.
    let per_shard = |svc: &mut fsi::QueryService| match svc.dispatch(&Request::Stats) {
        Response::Stats { stats } => stats.per_shard.expect("topology stats are per-shard"),
        other => panic!("expected stats, got {other:?}"),
    };
    let (replicated, local) = (per_shard(&mut coordinator), per_shard(&mut plain));
    assert_eq!(replicated.len(), 4);
    for (r, l) in replicated.iter().zip(&local) {
        assert_eq!(r.kind, "replicas");
        assert!(r.unreachable.is_none(), "{r:?}");
        assert_eq!(
            (r.generation, r.num_leaves, r.heap_bytes, &r.backend),
            (l.generation, l.num_leaves, l.heap_bytes, &l.backend)
        );
    }

    // Metrics: every slot was forwarded to, once per round-trip timed,
    // and scraped.
    match coordinator.dispatch(&Request::Metrics) {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.shards.len(), 4);
            for shard in &metrics.shards {
                assert!(shard.requests > 0, "{shard:?}");
                assert_eq!(shard.failures, 0, "{shard:?}");
                assert_eq!(shard.round_trip.count(), shard.requests, "{shard:?}");
                assert!(
                    shard.remote.is_some(),
                    "replica slot {} scraped",
                    shard.shard
                );
            }
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // Health: every slot up, with both replicas' breakers closed.
    match coordinator.dispatch(&Request::Health) {
        Response::Health { health } => {
            assert_eq!(health.shards.len(), 4);
            for (i, shard) in health.shards.iter().enumerate() {
                assert_eq!(shard.shard, i);
                assert_eq!(shard.state, "up", "{shard:?}");
                assert_eq!(shard.replicas.len(), 2, "{shard:?}");
            }
        }
        other => panic!("expected health, got {other:?}"),
    }
}

/// A FairKd h5 deployment of `d`.
fn serve_fair(d: &SpatialDataset) -> fsi::Serving<'_> {
    Pipeline::on(d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap()
        .serve()
        .unwrap()
}

/// A shard holds no training data: a remote shard server started from a
/// *different* seed dataset on the same grid stages and commits the
/// index the coordinator trained, bit for bit, because a republish ships
/// the trained model and the shard trains nothing.
#[test]
fn a_shard_from_another_dataset_commits_the_coordinators_index() {
    let d = dataset();
    let other = CityGenerator::new(CityConfig {
        n_individuals: 300,
        grid_side: 16,
        seed: 24,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap();
    assert_eq!(other.grid(), d.grid(), "same grid, different people");
    let (serving, foreign) = (serve_fair(&d), serve_fair(&other));
    let halves = TopologySpec::local(1, 2);
    let shard =
        fsi::HttpServer::bind(foreign.service_shard(&halves, 1).unwrap(), "127.0.0.1:0").unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard.addr().to_string()),
        ],
    };
    let mut coordinator = serving.service_over(&spec).unwrap();
    let new_spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 4);
    match coordinator.dispatch(&Request::Rebuild {
        spec: new_spec.clone(),
    }) {
        Response::Rebuilt { report } => assert_eq!(report.generation, 2),
        other => panic!("expected rebuilt, got {other:?}"),
    }
    let (reference, _run) = fsi_serve::build_index(&d, &new_spec).unwrap();
    let mut client = fsi::HttpClient::connect(shard.addr()).unwrap();
    let mut checked = 0;
    for p in query_points(d.grid(), 300, 29) {
        if coordinator.topology().shard_of(&p) != Some(1) {
            continue;
        }
        let want: DecisionBody = reference.lookup(&p).unwrap().into();
        for got in [
            coordinator.dispatch(&Request::Lookup { x: p.x, y: p.y }),
            client.call(&Request::Lookup { x: p.x, y: p.y }).unwrap(),
        ] {
            let got = expect_decision(got);
            assert_eq!(got.leaf_id, want.leaf_id, "{p:?}");
            assert_eq!(got.group, want.group, "{p:?}");
            assert_eq!(got.raw_score.to_bits(), want.raw_score.to_bits(), "{p:?}");
            assert_eq!(
                got.calibrated_score.to_bits(),
                want.calibrated_score.to_bits(),
                "{p:?}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 100,
        "only {checked} answers from the shard's half"
    );
    shard.shutdown();
}

/// Records the encoded length of every phase-one barrier request a real
/// HTTP shard is sent — what a republish costs on the wire per shard.
struct PhaseOneBytes {
    inner: fsi::RemoteShard,
    sent: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
}

impl fsi::ShardBackend for PhaseOneBytes {
    fn dispatch(&self, request: &Request) -> Response {
        let phase_one = !matches!(
            request,
            Request::Lookup { .. }
                | Request::LookupBatch { .. }
                | Request::RangeQuery { .. }
                | Request::Stats
                | Request::Metrics
                | Request::Health
                | Request::RebuildCommit
                | Request::RebuildAbort
        );
        if phase_one {
            let bytes = fsi::encode_request(request).len();
            self.sent.lock().unwrap().push(bytes);
        }
        self.inner.dispatch(request)
    }

    fn descriptor(&self) -> fsi::ShardDescriptor {
        self.inner.descriptor()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn transport_stats(&self) -> Option<fsi::TransportStats> {
        self.inner.transport_stats()
    }
}

/// An ingesting 1×2 coordinator trained on `d`: slot 0 local, slot 1 a
/// real HTTP shard server (built without a dataset) behind a
/// [`PhaseOneBytes`] recorder. Returns the coordinator, the shard
/// server and the recorded lengths.
fn ingesting_coordinator_over_an_http_shard(
    d: &SpatialDataset,
) -> (
    fsi::QueryService,
    fsi::HttpServer,
    std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
) {
    let serving = serve_fair(d);
    let halves = TopologySpec::local(1, 2);
    let shard =
        fsi::HttpServer::bind(serving.service_shard(&halves, 1).unwrap(), "127.0.0.1:0").unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard.addr().to_string()),
        ],
    };
    let sent = std::sync::Arc::default();
    let index = serving.handle().load().as_ref().clone();
    let topology = fsi::Topology::from_spec(&spec, index, |addr: &str| {
        Ok(Box::new(PhaseOneBytes {
            inner: fsi::RemoteShard::connect(addr)?,
            sent: std::sync::Arc::clone(&sent),
        }) as Box<dyn fsi::ShardBackend>)
    })
    .unwrap();
    let coordinator = fsi::QueryService::new(topology)
        .with_rebuild(std::sync::Arc::new(d.clone()))
        .with_ingest(TaskSpec::act())
        .unwrap();
    (coordinator, shard, sent)
}

/// `n` uniform points over `grid` at full float precision (~72 B each
/// as JSON), with alternating cohorts and seeded labels.
fn uniform_ingest(grid: &Grid, n: usize, seed: u64) -> Vec<IngestBody> {
    let b = *grid.bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            IngestBody::new(
                b.min_x + rng.random::<f64>() * b.width(),
                b.min_y + rng.random::<f64>() * b.height(),
                (i % 2) as u32,
                rng.random::<f64>() < 0.4,
            )
        })
        .collect()
}

/// Runs one `Rebuild` through `coordinator` and answers its generation.
fn republish(coordinator: &mut fsi::QueryService) -> u64 {
    let spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::FairKd, 5);
    match coordinator.dispatch(&Request::Rebuild { spec }) {
        Response::Rebuilt { report } => report.generation,
        other => panic!("expected rebuilt, got {other:?}"),
    }
}

/// What a republish sends a remote shard does not grow with the ingest
/// log: the stage request at a 10k-point log is as long as the one at an
/// empty log, up to the digits of the trained scores and region ids.
#[test]
fn stage_requests_do_not_grow_with_the_ingest_log() {
    let d = dataset();
    let (mut coordinator, shard, sent) = ingesting_coordinator_over_an_http_shard(&d);
    assert_eq!(republish(&mut coordinator), 2);
    match coordinator.dispatch(&Request::IngestBatch {
        points: uniform_ingest(d.grid(), 10_000, 31),
    }) {
        Response::Ingested { buffered, .. } => assert_eq!(buffered, 10_000),
        other => panic!("expected ingested, got {other:?}"),
    }
    assert_eq!(republish(&mut coordinator), 3);
    let sent = sent.lock().unwrap().clone();
    let [empty, full] = sent[..] else {
        panic!("expected one phase-one request per republish, got {sent:?}");
    };
    // One score and one offset per leaf (at most 2^5) and one region id
    // per cell may each print a few digits longer or shorter.
    let slack = 2 * 32 * 24 + d.grid().len() * 2;
    assert!(
        empty.abs_diff(full) <= slack,
        "stage bytes at logs 0 and 10k: {empty} vs {full}"
    );
    assert_eq!(coordinator.topology().generations(), vec![3, 3]);
    shard.shutdown();
}

/// The republish that used to fail: past ~233k points the shipped log
/// alone exceeded the shard server's 16 MiB body limit, so the prepare
/// died on a connection reset and the fleet could never republish
/// again. Release only (`cargo test --release -- --ignored`): it merges
/// and trains on 240k rows.
#[test]
#[ignore]
fn a_republish_at_a_240k_point_log_over_an_http_shard_answers_rebuilt() {
    let d = dataset();
    let (mut coordinator, shard, sent) = ingesting_coordinator_over_an_http_shard(&d);
    for (chunk, seed) in (0..24).zip(100u64..) {
        let points = uniform_ingest(d.grid(), 10_000, seed);
        match coordinator.dispatch(&Request::IngestBatch { points }) {
            Response::Ingested { buffered, .. } => assert_eq!(buffered, (chunk + 1) * 10_000),
            other => panic!("expected ingested, got {other:?}"),
        }
    }
    assert_eq!(republish(&mut coordinator), 2);
    assert_eq!(coordinator.topology().generations(), vec![2, 2]);
    assert!(
        sent.lock().unwrap()[0] < 1 << 20,
        "{:?}",
        sent.lock().unwrap()
    );
    shard.shutdown();
}
