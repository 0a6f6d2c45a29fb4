//! # fsi-obs — lock-free telemetry primitives for the serving stack
//!
//! A std-only metrics layer cheap enough to leave on in the lookup hot
//! path:
//!
//! * [`Counter`] / [`Gauge`] — plain atomic cells with release/acquire
//!   publication, so a scraper never observes a derived value before
//!   the value it was derived from.
//! * [`Histogram`] — a fixed-layout log-linear latency histogram
//!   (exact below 16, four sub-buckets per octave above, ≤ 25 %
//!   relative quantile error), mergeable across workers, with p50 /
//!   p95 / p99 and an exactly-tracked max.
//! * [`Registry`] / [`Recorder`] — the per-worker placement pattern:
//!   every worker clone records into its own shard (uncontended
//!   atomics), and a scrape folds all shards into one
//!   [`HistogramSnapshot`] / counter total.
//! * [`expo`] — a small Prometheus text-exposition writer
//!   (`counter` / `gauge` / `summary` families) used by the
//!   `GET /metrics` endpoint.
//!
//! The crate deliberately knows nothing about the query protocol: wire
//! DTOs embed [`HistogramSnapshot`] (serde-round-trippable, sparse) and
//! higher layers compose the exposition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo_impl;
mod hist;
mod metrics;
mod registry;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{Recorder, Registry};

/// Prometheus text-exposition writing.
pub mod expo {
    pub use crate::expo_impl::Exposition;
}
