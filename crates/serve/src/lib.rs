//! # fsi-serve — online query serving for fair spatial indexes
//!
//! The rest of the workspace *builds* fair KD-trees; this crate *serves*
//! them. A trained `(KdTree, model, grid)` triple is compiled into a
//! [`FrozenIndex`] — an immutable per-cell leaf table over the grid, so
//! a continuous point → leaf lookup is one floor-and-clamp and one load
//! — and queried online:
//!
//! * [`FrozenIndex::lookup`] maps one [`fsi_geo::Point`] to a
//!   [`Decision`]: leaf id, raw model score, locally calibrated score and
//!   fairness group.
//! * [`FrozenIndex::lookup_batch`] is the slice-in/slice-out path for
//!   request batches.
//! * [`FrozenIndex::range_query`] returns every neighborhood a map-space
//!   rectangle touches.
//!
//! Deployment pieces:
//!
//! * [`QueryService`] — dispatches every typed [`fsi_proto::Request`] to
//!   an [`fsi_proto::Response`]; the one query surface every transport
//!   (REPL, HTTP, future RPC) sits on, and the only place points are
//!   ingested (shards receive the coordinator's log with a rebuild).
//! * [`Topology`] / [`ShardBackend`] — spatially partitions the served
//!   bounds over a set of shard backends (in-process [`LocalShard`]s
//!   over partial indexes, or remote processes speaking the protocol):
//!   lookups route to one shard, batches and range queries
//!   scatter-gather, rebuilds run a two-phase generation barrier. Built
//!   from a validated [`TopologySpec`] (`rows × cols`, per-shard `local`
//!   or `http://host:port`). `LocalShard` answers every in-process read,
//!   whether dispatched to it directly or from a coordinator's reader.
//! * [`IndexHandle`] / [`IndexReader`] — lock-free reads with atomic
//!   snapshot hot-swap (std-only `Arc` + atomics), so a rebuild never
//!   blocks a query.
//! * [`build_index`] — runs the `fsi-pipeline` trainer for a spec and
//!   compiles the result; a `Rebuild` request retrains with it and
//!   republishes every shard through the two-phase barrier.
//! * [`MaintenanceHandle`] — background drift-triggered maintenance for
//!   services built `with_ingest`: polls the pending ingest counts
//!   against a [`MaintenanceSpec`], and when drift, occupancy or
//!   staleness trips, merges them into the training set and republishes
//!   through the same two-phase rebuild barrier.
//! * [`driver`] — a multi-threaded throughput harness, also used by the
//!   `serving` benchmark suite in `fsi-bench`.
//!
//! ```
//! use fsi_pipeline::{Method, PipelineSpec, TaskSpec};
//! use fsi_serve::{build_index, IndexHandle};
//!
//! let dataset = fsi_data::synth::city::CityGenerator::new(
//!     fsi_data::synth::city::CityConfig {
//!         n_individuals: 200,
//!         grid_side: 16,
//!         seed: 1,
//!         ..Default::default()
//!     },
//! )
//! .unwrap()
//! .generate()
//! .unwrap();
//! let spec = PipelineSpec::new(TaskSpec::act(), Method::FairKd, 3);
//! let (index, _run) = build_index(&dataset, &spec).unwrap();
//! let handle = IndexHandle::new(index);
//! let decision = handle.load().lookup(&fsi_geo::Point::new(0.5, 0.5)).unwrap();
//! assert!((0.0..=1.0).contains(&decision.calibrated_score));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod error;
pub mod frozen;
pub mod handle;
pub mod maintain;
pub mod obs;
pub mod rebuild;
pub mod service;
pub mod topology;

pub use driver::{sweep, ThroughputReport};
pub use error::ServeError;
pub use frozen::{Decision, FrozenIndex};
pub use handle::{IndexHandle, IndexReader};
pub use maintain::MaintenanceHandle;
pub use obs::{prometheus_text, SlowQueryRecord, SlowQuerySink};
pub use rebuild::{build_index, compile_run, RebuildReport};
pub use service::QueryService;
pub use topology::{
    BackendSpec, LocalShard, ShardBackend, ShardDescriptor, SlotConnector, Topology, TopologySpec,
    TransportStats,
};

// The streaming-ingestion vocabulary callers configure maintenance with.
pub use fsi_ingest::{IngestError, MaintenanceSpec, MaintenanceTrigger};
