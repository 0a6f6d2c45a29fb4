//! The resilience suite: what failover machinery costs when nothing is
//! failing — and what it saves when something is.
//!
//! A `ReplicaSet` sits on the per-shard dispatch path of every
//! replicated slot, so the layer is only shippable if a healthy set is
//! indistinguishable from dispatching to its member directly. This
//! suite pins it:
//!
//! * `dispatch_lookup_x{N}` — a single-member `ReplicaSet` over a local
//!   shard, the healthy fast path.
//! * `dispatch_bare_x{N}` — the identical sweep dispatched straight at
//!   the member: the denominator.
//! * `failover_lookup_x{N}` — a two-replica set whose preferred replica
//!   is dead (`ChaosShard` kill switch) with a breaker threshold high
//!   enough to never open: every dispatch pays one failed attempt plus
//!   the retry to the healthy sibling — the worst-case failover tax.
//! * `breaker_open_lookup_x{N}` — the same dead replica behind an open
//!   breaker: dispatch short-circuits to the healthy sibling, showing
//!   what the breaker buys back.
//!
//! Before registering the criterion benches, the suite runs its own
//! interleaved best-of comparison of the two fast-path twins and
//! asserts the replica set stays ≤ 1.10x bare dispatch — the
//! acceptance bar, enforced wherever the suite runs (CI smoke
//! included).

use super::Profile;
use crate::bench_dataset;
use criterion::{black_box, Criterion};
use fsi::{
    ChaosShard, IndexHandle, LocalShard, Method, Pipeline, ReplicaSet, Request, ResiliencePolicy,
    Response, ShardBackend, TaskSpec,
};
use fsi_geo::Point;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Two attempts with immediate retries; `breaker_threshold` /
/// `breaker_reset_ms` are the scenario knobs.
fn policy(breaker_threshold: u32, breaker_reset_ms: u64) -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 2,
        backoff_base_ms: 0,
        backoff_multiplier: 1.0,
        backoff_cap_ms: 0,
        jitter_frac: 0.0,
        jitter_seed: 11,
        breaker_threshold,
        breaker_reset_ms,
    }
}

/// One full sweep of `points` through a backend, returning the leaf-id
/// accumulator so the work cannot be optimized away.
fn sweep(backend: &dyn ShardBackend, points: &[Point]) -> usize {
    let mut acc = 0usize;
    for q in points {
        match backend.dispatch(&Request::Lookup { x: q.x, y: q.y }) {
            Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
            other => panic!("expected decision, got {other:?}"),
        }
    }
    acc
}

/// The ≤ 1.10x acceptance gate: up to three independent trials, each
/// `rounds` interleaved timings of the replica-set and bare sweeps
/// (interleaving cancels clock drift and frequency scaling). Within a
/// trial the ratio compares the *minimum* sweep time on each side:
/// external perturbation — a noisy container neighbor, a scheduler
/// preemption, an unlucky page placement — only ever adds latency, so
/// the best observed sweep is the closest estimate of each path's true
/// cost, where a median still carries whatever noise burst hit its
/// half of the sample. The same argument licenses the trial loop: one
/// trial meeting the bound proves the true overhead is within it, while
/// a real regression fails every trial.
fn assert_overhead_bounded(
    set: &dyn ShardBackend,
    bare: &dyn ShardBackend,
    points: &[Point],
    rounds: usize,
) {
    const TRIALS: usize = 3;
    let mut best = f64::INFINITY;
    for trial in 1..=TRIALS {
        black_box(sweep(set, points));
        black_box(sweep(bare, points));

        let (mut with, mut without) = (u128::MAX, u128::MAX);
        for _ in 0..rounds {
            let t = Instant::now();
            black_box(sweep(set, points));
            with = with.min(t.elapsed().as_nanos());

            let t = Instant::now();
            black_box(sweep(bare, points));
            without = without.min(t.elapsed().as_nanos());
        }
        let ratio = with as f64 / without as f64;
        eprintln!(
            "resil overhead (trial {trial}/{TRIALS}): replica set {with} ns vs \
             bare {without} ns per {} lookups (ratio {ratio:.3})",
            points.len()
        );
        if ratio <= 1.10 {
            return;
        }
        best = best.min(ratio);
    }
    panic!(
        "healthy replica-set dispatch is {best:.3}x bare dispatch across \
         {TRIALS} trials (acceptance bar: ≤ 1.10x)"
    );
}

/// Registers the resilience suite under `serving/resil_…` ids.
pub fn register(c: &mut Criterion, p: &Profile) {
    let dataset = bench_dataset(p.n_individuals, p.grid_side);
    let index = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(p.method_height)
        .run()
        .expect("pipeline run for resil fixtures")
        .freeze()
        .expect("index freezes");

    let bounds = *dataset.grid().bounds();
    let mut rng = StdRng::seed_from_u64(5151);
    let points: Vec<Point> = (0..p.serve_batch)
        .map(|_| {
            Point::new(
                bounds.min_x + rng.random::<f64>() * bounds.width(),
                bounds.min_y + rng.random::<f64>() * bounds.height(),
            )
        })
        .collect();
    let n = p.serve_batch;
    // Every backend shares ONE index allocation (IndexHandle is
    // Arc-shared): the twins must differ only in the dispatch layer,
    // not in which copy of the tree happens to land on friendlier
    // cache lines.
    let handle = IndexHandle::new(index);
    let local = || Box::new(LocalShard::new(handle.clone())) as Box<dyn ShardBackend>;

    // The healthy fast-path twins, gated before anything is registered.
    let set = ReplicaSet::new(vec![local()], policy(3, 250)).expect("healthy set");
    let bare = local();
    assert_overhead_bounded(&set, bare.as_ref(), &points, 201);

    // Worst-case failover: the preferred replica is dead and the breaker
    // threshold is set beyond the sweep, so every dispatch eats one
    // failed attempt before the retry answers.
    let dead = ChaosShard::new(local());
    dead.switch().set_down(true);
    let failover = ReplicaSet::new(vec![Box::new(dead), local()], policy(u32::MAX, 3_600_000))
        .expect("failover set");

    // The breaker payoff: same dead replica, but the breaker opens after
    // one failure and (with an hour-long reset window) stays open for
    // the whole sweep — dispatch short-circuits to the healthy sibling.
    let dead = ChaosShard::new(local());
    dead.switch().set_down(true);
    let shortcircuit = ReplicaSet::new(vec![Box::new(dead), local()], policy(1, 3_600_000))
        .expect("short-circuit set");
    black_box(sweep(&shortcircuit, &points[..1])); // trip the breaker open

    let mut group = c.benchmark_group(format!(
        "serving/resil_n{}_h{}",
        p.n_individuals, p.method_height
    ));

    group.bench_function(format!("dispatch_lookup_x{n}"), |b| {
        b.iter(|| black_box(sweep(&set, &points)))
    });
    group.bench_function(format!("dispatch_bare_x{n}"), |b| {
        b.iter(|| black_box(sweep(bare.as_ref(), &points)))
    });
    group.bench_function(format!("failover_lookup_x{n}"), |b| {
        b.iter(|| black_box(sweep(&failover, &points)))
    });
    group.bench_function(format!("breaker_open_lookup_x{n}"), |b| {
        b.iter(|| black_box(sweep(&shortcircuit, &points)))
    });

    group.finish();
}
