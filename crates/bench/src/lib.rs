//! # fsi-bench — benchmark fixtures, suites, and the perf-gate runner
//!
//! The measurement code for all ten suites lives in [`suites`], driven
//! from two entry points:
//!
//! * the classic per-suite `cargo bench` harnesses in `benches/*.rs`;
//! * the `runner` binary (`cargo run -p fsi-bench --release --bin runner
//!   -- --smoke|--full`), which runs everything in one process and
//!   saves/compares the repo-root `BENCH_baseline.json` perf baseline.
//!
//! The suites:
//!
//! * [`suites::construction`] — end-to-end partition construction per
//!   method (reproduces the §5.3.1 Fair-vs-Iterative cost comparison as
//!   a ratio) plus a Fair KD-tree height sweep.
//! * [`suites::split_search`] — the Eq. 9 split scan: summed-area-table
//!   O(extent) implementation vs a naive per-cell rescan.
//! * [`suites::ml_training`] — classifier fit/score throughput.
//! * [`suites::metrics`] — ENCE and grouped-calibration throughput.
//! * [`suites::serving`] — online `FrozenIndex` serving: compile, point
//!   and batch lookups, range queries, hot-swap publishing, and
//!   multi-threaded driver scaling.
//! * [`suites::proto`] — the typed query protocol: wire encode/decode,
//!   `QueryService` dispatch overhead, and HTTP loopback throughput.
//! * [`suites::dist`] — distributed serving: the scatter-gather
//!   coordinator vs a single box, and keep-alive HTTP round-trips to a
//!   remote shard.
//! * [`suites::obs`] — the telemetry layer's cost: instrumented vs
//!   uninstrumented dispatch (with the in-suite ≤ 1.10x overhead gate),
//!   snapshot folding, and Prometheus text rendering.
//! * [`suites::ingest`] — the streaming-ingestion layer: end-to-end
//!   `Request::Ingest` throughput, the per-poll drift-check cost, and
//!   the live-vs-frozen lookup twins (with the in-suite ≤ 1.10x
//!   ingest-while-serving gate).
//! * [`suites::resil`] — the replica-set layer: healthy single-member
//!   dispatch against its bare member (with the in-suite ≤ 1.10x
//!   gate), plus failover and open-breaker lookups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suites;

use fsi_core::CellStats;
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;

/// A deterministic mid-size dataset for benches (LA-like, 16k grid).
pub fn bench_dataset(n: usize, grid_side: usize) -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: n,
        grid_side,
        seed: 99,
        ..CityConfig::default()
    })
    .expect("valid bench config")
    .generate()
    .expect("bench dataset generates")
}

/// Cell statistics with a plausible residual field for split benches.
pub fn bench_stats(dataset: &SpatialDataset) -> CellStats {
    let labels = dataset
        .threshold_labels("avg_act", 22.0)
        .expect("act outcome exists");
    // A crude score proxy: positive rate blended with location, enough to
    // create non-trivial residual structure without training a model.
    let scores: Vec<f64> = dataset
        .locations()
        .iter()
        .map(|p| (0.3 + 0.4 * p.x + 0.2 * p.y).clamp(0.0, 1.0))
        .collect();
    let counts = dataset.cell_populations();
    let score_sums = dataset.cell_sums(&scores).expect("lengths match");
    let label_sums = dataset.cell_label_sums(&labels).expect("lengths match");
    CellStats::new(dataset.grid(), &counts, &score_sums, &label_sums).expect("stats build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let d = bench_dataset(300, 32);
        assert_eq!(d.len(), 300);
        let s = bench_stats(&d);
        assert_eq!(s.shape(), (32, 32));
        assert_eq!(s.count(&d.grid().full_rect()), 300.0);
    }
}
