//! # fsi-ingest — streaming ingestion + drift-triggered maintenance
//!
//! Everything below this crate is batch: full dataset in, full retrain,
//! atomic hot-swap. This crate opens the *online* scenario — a write
//! path that keeps the frozen index honest as points stream in:
//!
//! * [`DeltaBuffer`] — the coordinator's ingest state: per-cell count
//!   and positive-label sums of every accepted point and of the pending
//!   ones, under one mutex. Its size is fixed by the grid, however many
//!   points arrive.
//! * [`DriftDetector`] — scores how far the buffered deltas have pushed
//!   any subtree's statistics past the frozen baseline, using the
//!   `CellStats`/summed-area-table machinery (one O(grid) pass, then
//!   O(1) per subtree), against a baseline built by [`baseline_stats`].
//! * [`MaintenanceSpec`] — the policy: drift threshold, occupancy
//!   bound, SLA-style staleness bound. [`MaintenanceSpec::due`] decides
//!   when a background pass should fold the buffer in.
//! * [`merge_counts`] — the deterministic merge that appends per-cell
//!   counts to the seed dataset as rows at the cell centroids, in cell
//!   order, so any permutation of the same points builds a
//!   bit-identical index; [`merge_dataset`] folds [`IngestRecord`]s
//!   into those counts first.
//!
//! The serving layer (`fsi-serve`) wires these into `Request::Ingest` /
//! `Request::IngestBatch` dispatch on the coordinator and the two-phase
//! rebuild barrier: the coordinator alone merges and retrains, and every
//! shard stages the model it trained (`RebuildStage`), so ingested points
//! never leave the coordinator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod drift;
pub mod error;
pub mod merge;
pub mod policy;
pub mod record;

pub use buffer::DeltaBuffer;
pub use drift::{baseline_stats, DriftDetector, DriftReport};
pub use error::IngestError;
pub use merge::{merge_counts, merge_dataset};
pub use policy::{MaintenanceSpec, MaintenanceTrigger};
pub use record::IngestRecord;
