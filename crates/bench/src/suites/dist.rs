//! Distributed-serving costs: what the scatter-gather coordinator adds
//! on top of a single-box service, and what a wire hop to a remote
//! shard costs.
//!
//! * `coordinator_*` vs `single_box_*` — the same queries through a 2×2
//!   partial-index topology (routing + gather) and through one
//!   unsharded `QueryService`; the gap is the coordination overhead.
//! * `coordinator_*_replicated_*` — the same batch and range queries
//!   through the replica-slot 2×2 topology the end-to-end benchmark
//!   deploys (every slot `{"replicas":["local","local"]}`): the
//!   coordinator forwards to `ReplicaSet`s instead of reading local
//!   partial indexes.
//! * `remote_lookup_http_*` — keep-alive HTTP round-trips through a
//!   `RemoteShard` backend against a loopback shard server: the
//!   per-query price of moving a shard out of process.

use super::Profile;
use crate::bench_dataset;
use criterion::{black_box, Criterion};
use fsi::{
    BackendSpec, Method, Pipeline, Request, ResiliencePolicy, Response, ShardBackend, TaskSpec,
    TopologySpec, WirePoint, WireRect,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Registers the distributed-serving suite under `serving/dist_…` ids.
pub fn register(c: &mut Criterion, p: &Profile) {
    let dataset = bench_dataset(p.n_individuals, p.grid_side);
    let serving = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(p.method_height)
        .run()
        .expect("pipeline run for distributed fixtures")
        .serve()
        .expect("deployment wires up");

    let bounds = *dataset.grid().bounds();
    let mut rng = StdRng::seed_from_u64(4711);
    let batch = p.serve_batch.min(1024);
    let points: Vec<WirePoint> = (0..batch)
        .map(|_| {
            WirePoint::new(
                bounds.min_x + rng.random::<f64>() * bounds.width(),
                bounds.min_y + rng.random::<f64>() * bounds.height(),
            )
        })
        .collect();
    let rects: Vec<WireRect> = (0..64)
        .map(|_| {
            let w = bounds.width() * (0.02 + 0.1 * rng.random::<f64>());
            let h = bounds.height() * (0.02 + 0.1 * rng.random::<f64>());
            let x0 = bounds.min_x + rng.random::<f64>() * (bounds.width() - w);
            let y0 = bounds.min_y + rng.random::<f64>() * (bounds.height() - h);
            WireRect::new(x0, y0, x0 + w, y0 + h)
        })
        .collect();

    let mut single_box = serving.service();
    let mut coordinator = serving
        .service_over(&TopologySpec::local(2, 2))
        .expect("2x2 partial topology builds");
    let replicated_spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: vec![BackendSpec::Replicas(vec![BackendSpec::Local, BackendSpec::Local]); 4],
    };
    let mut replicated = serving
        .service_over_with(&replicated_spec, ResiliencePolicy::default())
        .expect("2x2 replica-slot topology builds");

    // One shard server on loopback behind a keep-alive RemoteShard —
    // the wire-hop fixture.
    let shard_server = fsi::HttpServer::bind(
        serving
            .service_shard(&TopologySpec::local(1, 1), 0)
            .expect("single-slot shard service builds"),
        "127.0.0.1:0",
    )
    .expect("shard server binds");
    let remote =
        fsi::RemoteShard::connect(&shard_server.addr().to_string()).expect("remote shard connects");

    let mut group = c.benchmark_group(format!(
        "serving/dist_n{}_h{}",
        p.n_individuals, p.method_height
    ));

    // Point lookups through the routing coordinator vs one box.
    group.bench_function(format!("coordinator_lookup_x{batch}"), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for wp in &points {
                match coordinator.dispatch(&Request::Lookup { x: wp.x, y: wp.y }) {
                    Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            black_box(acc)
        })
    });
    group.bench_function(format!("single_box_lookup_x{batch}"), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for wp in &points {
                match single_box.dispatch(&Request::Lookup { x: wp.x, y: wp.y }) {
                    Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            black_box(acc)
        })
    });

    // One batch request: scatter into per-shard sub-batches, gather in
    // request order.
    group.bench_function(format!("coordinator_batch_x{batch}"), |b| {
        let request = Request::LookupBatch {
            points: points.clone(),
        };
        b.iter(|| match coordinator.dispatch(&request) {
            Response::Decisions { decisions } => black_box(decisions.len()),
            other => panic!("expected decisions, got {other:?}"),
        })
    });

    group.bench_function(format!("coordinator_batch_replicated_x{batch}"), |b| {
        let request = Request::LookupBatch {
            points: points.clone(),
        };
        b.iter(|| match replicated.dispatch(&request) {
            Response::Decisions { decisions } => black_box(decisions.len()),
            other => panic!("expected decisions, got {other:?}"),
        })
    });

    // Range queries fan out to every covering shard and merge.
    for (id, service) in [
        ("coordinator_range_x64", &mut coordinator),
        ("coordinator_range_replicated_x64", &mut replicated),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &rect in &rects {
                    match service.dispatch(&Request::RangeQuery { rect }) {
                        Response::Regions { ids } => acc = acc.wrapping_add(ids.len()),
                        other => panic!("expected regions, got {other:?}"),
                    }
                }
                black_box(acc)
            })
        });
    }

    // The wire hop: keep-alive HTTP round-trips through a RemoteShard.
    group.bench_function("remote_lookup_http_x64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for wp in points.iter().take(64) {
                match remote.dispatch(&Request::Lookup { x: wp.x, y: wp.y }) {
                    Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            black_box(acc)
        })
    });

    group.finish();
    shard_server.shutdown();
}
