//! The ten benchmark suites, parameterized by a size [`Profile`].
//!
//! Each suite exposes `register(c, profile)` so the same measurement code
//! drives both entry points:
//!
//! * the classic `cargo bench` harnesses in `benches/*.rs` (one binary
//!   per suite, full-size datasets);
//! * the `fsi-bench` runner binary (`cargo run -p fsi-bench --bin
//!   runner`), which runs all ten suites in one process under either
//!   the `--smoke` or `--full` profile and records the repo's perf
//!   baseline.
//!
//! Benchmark ids encode the dataset size (`construction/n1153_h10/FairKd`),
//! so smoke and full results never collide in artifacts or baselines.

use criterion::Criterion;
use std::time::Duration;

pub mod construction;
pub mod dist;
pub mod ingest;
pub mod metrics;
pub mod ml_training;
pub mod obs;
pub mod proto;
pub mod resil;
pub mod serving;
pub mod split_search;

/// Dataset sizes and measurement settings for one benchmark run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Label recorded into artifacts and baselines (`smoke` / `full`).
    pub name: &'static str,
    /// Individuals in the synthetic city.
    pub n_individuals: usize,
    /// Base grid side (the paper's `U = V`).
    pub grid_side: usize,
    /// Tree height for the per-method construction comparison.
    pub method_height: usize,
    /// Heights swept in the Fair KD-tree height scaling group.
    pub heights: &'static [usize],
    /// Region counts swept in the metrics suite (must be perfect squares
    /// whose side divides into the grid).
    pub metric_regions: &'static [usize],
    /// Timed samples per benchmark.
    pub sample_size: usize,
    /// Warm-up duration per benchmark.
    pub warm_up: Duration,
    /// Measurement-time budget per benchmark.
    pub measurement_time: Duration,
    /// Query points per iteration in the serving lookup benchmarks.
    pub serve_batch: usize,
    /// Query points swept per multi-threaded serving iteration.
    pub serve_points: usize,
    /// Worker-thread counts for the serving scaling benchmarks.
    pub serve_threads: &'static [usize],
}

impl Profile {
    /// Paper-scale sizes (1153 individuals on a 64×64 grid, height 10):
    /// the profile behind the recorded `BENCH_baseline.json` numbers.
    pub fn full() -> Self {
        Profile {
            name: "full",
            n_individuals: 1153,
            grid_side: 64,
            method_height: 10,
            heights: &[4, 6, 8, 10],
            metric_regions: &[16, 256, 1024],
            sample_size: 15,
            warm_up: Duration::from_millis(200),
            measurement_time: Duration::from_millis(1000),
            serve_batch: 4096,
            serve_points: 262_144,
            serve_threads: &[1, 2, 4],
        }
    }

    /// Tiny sizes for CI: the whole run takes seconds, not minutes.
    pub fn smoke() -> Self {
        Profile {
            name: "smoke",
            n_individuals: 300,
            grid_side: 16,
            method_height: 4,
            heights: &[2, 3, 4],
            metric_regions: &[16, 64],
            sample_size: 10,
            warm_up: Duration::from_millis(20),
            measurement_time: Duration::from_millis(100),
            serve_batch: 1024,
            serve_points: 16_384,
            serve_threads: &[2],
        }
    }

    /// Applies this profile's measurement settings and label to a
    /// [`Criterion`] driver (used by the runner; the `cargo bench`
    /// harnesses keep the CLI-configurable defaults instead).
    #[must_use]
    pub fn configure(&self, c: Criterion) -> Criterion {
        c.profile(self.name)
            .sample_size(self.sample_size)
            .warm_up_time(self.warm_up)
            .measurement_time(self.measurement_time)
    }
}

/// Registers all ten suites on one driver, in baseline order.
pub fn register_all(c: &mut Criterion, profile: &Profile) {
    construction::register(c, profile);
    split_search::register(c, profile);
    ml_training::register(c, profile);
    metrics::register(c, profile);
    serving::register(c, profile);
    proto::register(c, profile);
    dist::register(c, profile);
    obs::register(c, profile);
    ingest::register(c, profile);
    resil::register(c, profile);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_internally_consistent() {
        for p in [Profile::smoke(), Profile::full()] {
            assert!(p.sample_size >= 2);
            assert!(p.heights.contains(&p.method_height));
            assert!(p.serve_batch > 0 && p.serve_points >= p.serve_batch);
            assert!(!p.serve_threads.is_empty());
            assert!(p.serve_threads.windows(2).all(|w| w[0] < w[1]));
            for &r in p.metric_regions {
                let side = (r as f64).sqrt() as usize;
                assert_eq!(side * side, r, "{}: {r} is not a perfect square", p.name);
                assert!(
                    side <= p.grid_side,
                    "{}: {r} regions do not fit a {} grid",
                    p.name,
                    p.grid_side
                );
            }
        }
    }
}
