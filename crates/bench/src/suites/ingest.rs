//! The streaming-ingestion suite: what a live feed costs.
//!
//! `QueryService::with_ingest` adds the coordinator's per-cell ingest
//! counts and a drift detector next to the frozen snapshot. This suite
//! pins the three numbers that decide whether the layer is deployable:
//!
//! * `dispatch_ingest_x{N}` — end-to-end `Request::Ingest` throughput:
//!   locate + one locked bump of its cell's count and label sums per
//!   point.
//! * `drift_poll_x{N}` — one background maintenance poll over `N`
//!   buffered points with no trigger armed: the steady-state cost of
//!   measuring subtree drift against the frozen `CellStats` baseline
//!   (one summed-area fold plus a KD-shaped walk) on every poll tick.
//! * `dispatch_lookup_live_x{N}` / `dispatch_lookup_frozen_x{N}` — the
//!   ingest-while-serving twins: the same point sweep through a service
//!   with pending ingested points and through a plain frozen service.
//!
//! Before registering the criterion benches, the suite runs its own
//! interleaved-median comparison of the two lookup twins and asserts
//! the ingest-enabled path stays ≤ 1.10x the frozen one — buffered
//! writes must never tax readers, enforced wherever the suite runs
//! (CI smoke included), same contract as the obs suite's gate.

use super::Profile;
use crate::bench_dataset;
use criterion::{black_box, Criterion};
use fsi::{
    MaintenanceSpec, Method, Pipeline, PipelineSpec, QueryService, Request, Response, TaskSpec,
};
use fsi_geo::{Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// A maintenance policy that measures drift on every poll but never
/// trips: occupancy and staleness triggers disabled, the drift bar
/// unreachably high (`validate` rejects infinities, so merely huge).
fn never_trips() -> MaintenanceSpec {
    MaintenanceSpec {
        drift_threshold: 1e18,
        max_buffered: 0,
        max_staleness_ms: 0,
        poll_interval_ms: 1_000,
    }
}

/// Deterministic in-bounds ingest bodies: uniform positions, four
/// cohorts, two thirds positive.
fn feed(bounds: &Rect, n: usize, seed: u64) -> Vec<(f64, f64, u32, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                bounds.min_x + rng.random::<f64>() * bounds.width(),
                bounds.min_y + rng.random::<f64>() * bounds.height(),
                (i % 4) as u32,
                i % 3 != 0,
            )
        })
        .collect()
}

/// Streams `points` through `service`, returning the accepted count so
/// the work cannot be optimized away (and a wrong count panics).
fn stream(service: &mut QueryService, points: &[(f64, f64, u32, bool)]) -> u64 {
    let mut accepted = 0u64;
    for &(x, y, group, label) in points {
        match service.dispatch(&Request::Ingest { x, y, group, label }) {
            Response::Ingested { accepted: a, .. } => accepted += a,
            other => panic!("expected ingested, got {other:?}"),
        }
    }
    accepted
}

/// One full lookup sweep of `points` through `service` (the obs suite's
/// sweep, duplicated here so the twins stay self-contained).
fn sweep(service: &mut QueryService, points: &[Point]) -> usize {
    let mut acc = 0usize;
    for q in points {
        match service.dispatch(&Request::Lookup { x: q.x, y: q.y }) {
            Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
            other => panic!("expected decision, got {other:?}"),
        }
    }
    acc
}

/// Median of a sample, in nanoseconds.
fn median(mut nanos: Vec<u128>) -> u128 {
    nanos.sort_unstable();
    nanos[nanos.len() / 2]
}

/// The ≤ 1.10x acceptance gate: `rounds` interleaved timings of the
/// same lookup sweep through the live (log non-empty) and frozen
/// services; medians discard scheduler outliers.
fn assert_live_reads_unfrozen(
    live: &mut QueryService,
    frozen: &mut QueryService,
    points: &[Point],
    rounds: usize,
) {
    black_box(sweep(live, points));
    black_box(sweep(frozen, points));

    let (mut with, mut without) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(sweep(live, points));
        with.push(t.elapsed().as_nanos());

        let t = Instant::now();
        black_box(sweep(frozen, points));
        without.push(t.elapsed().as_nanos());
    }
    let (with, without) = (median(with), median(without));
    let ratio = with as f64 / without as f64;
    eprintln!(
        "ingest-while-serving overhead: live {with} ns vs frozen {without} ns \
         per {} lookups (ratio {ratio:.3})",
        points.len()
    );
    assert!(
        ratio <= 1.10,
        "lookups on an ingest-enabled service are {ratio:.3}x the frozen path \
         (acceptance bar: ≤ 1.10x)"
    );
}

/// Registers the streaming-ingestion suite under `serving/ingest_…` ids.
pub fn register(c: &mut Criterion, p: &Profile) {
    let dataset = bench_dataset(p.n_individuals, p.grid_side);
    let run = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(p.method_height)
        .run()
        .expect("pipeline run for ingest fixtures");
    let serving = run.serve().expect("plain serving wires up");
    let live_serving = run
        .serve_with_ingest(never_trips())
        .expect("ingest serving wires up");
    let spec = PipelineSpec::new(TaskSpec::act(), Method::FairKd, p.method_height);

    let bounds = *dataset.grid().bounds();
    let n = p.serve_batch;
    let points: Vec<Point> = feed(&bounds, n, 4242)
        .iter()
        .map(|&(x, y, _, _)| Point::new(x, y))
        .collect();

    // The twin gate first, before any criterion group: a live service
    // with a buffered backlog must read exactly like a frozen one.
    let mut live = live_serving.service();
    assert_eq!(stream(&mut live, &feed(&bounds, 256, 7)), 256);
    let mut frozen = serving.service();
    assert_live_reads_unfrozen(&mut live, &mut frozen, &points, 31);

    let mut group = c.benchmark_group(format!(
        "serving/ingest_n{}_h{}",
        p.n_individuals, p.method_height
    ));

    let mut sink = live_serving.service();
    let batch = feed(&bounds, n, 99);
    group.bench_function(format!("dispatch_ingest_x{n}"), |b| {
        b.iter(|| black_box(stream(&mut sink, &batch)))
    });

    // The poll-tick cost: a maintenance pass that measures drift over a
    // buffered backlog of `n` points and finds no trigger due.
    let policy = never_trips();
    let mut polled = live_serving.service();
    assert_eq!(stream(&mut polled, &feed(&bounds, n, 11)), n as u64);
    assert!(
        polled
            .maintain(&policy, &spec)
            .expect("maintenance poll succeeds")
            .is_none(),
        "the never-trips policy must not publish"
    );
    group.bench_function(format!("drift_poll_x{n}"), |b| {
        b.iter(|| {
            black_box(
                polled
                    .maintain(&policy, &spec)
                    .expect("maintenance poll succeeds")
                    .is_none(),
            )
        })
    });

    // The twins as recorded benchmarks, same ids the gate compared.
    group.bench_function(format!("dispatch_lookup_live_x{n}"), |b| {
        b.iter(|| black_box(sweep(&mut live, &points)))
    });
    group.bench_function(format!("dispatch_lookup_frozen_x{n}"), |b| {
        b.iter(|| black_box(sweep(&mut frozen, &points)))
    });

    group.finish();
}
