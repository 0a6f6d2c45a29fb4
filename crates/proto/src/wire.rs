//! The protocol's data bodies: plain serde-round-trippable structs with
//! no behavior beyond validation, shared by every transport.

use crate::error::ProtoError;
use fsi_geo::{Grid, Partition};
use fsi_obs::HistogramSnapshot;
use fsi_pipeline::{ModelSnapshot, PipelineSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A continuous map point on the wire.
///
/// Deliberately its own type (rather than reusing `fsi_geo::Point`) so
/// the wire format is frozen by this crate alone; services convert at
/// the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WirePoint {
    /// Map-space x coordinate.
    pub x: f64,
    /// Map-space y coordinate.
    pub y: f64,
}

impl WirePoint {
    /// Creates a wire point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Rejects non-finite coordinates.
    pub fn validate(&self) -> Result<(), ProtoError> {
        if !(self.x.is_finite() && self.y.is_finite()) {
            return Err(ProtoError::InvalidRequest(format!(
                "point ({}, {}) has non-finite coordinates",
                self.x, self.y
            )));
        }
        Ok(())
    }
}

/// A closed axis-aligned map rectangle on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireRect {
    /// Low x bound.
    pub min_x: f64,
    /// Low y bound.
    pub min_y: f64,
    /// High x bound (must be ≥ `min_x`).
    pub max_x: f64,
    /// High y bound (must be ≥ `min_y`).
    pub max_y: f64,
}

impl WireRect {
    /// Creates a wire rectangle.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Rejects non-finite bounds and non-positive extents — the same
    /// rule `fsi_geo::Rect::new` enforces, so a rectangle that decodes
    /// is always constructible by the service.
    pub fn validate(&self) -> Result<(), ProtoError> {
        let finite = [self.min_x, self.min_y, self.max_x, self.max_y]
            .iter()
            .all(|v| v.is_finite());
        if !finite {
            return Err(ProtoError::InvalidRequest(format!(
                "rectangle [{}, {}]x[{}, {}] has non-finite bounds",
                self.min_x, self.max_x, self.min_y, self.max_y
            )));
        }
        if self.min_x >= self.max_x || self.min_y >= self.max_y {
            return Err(ProtoError::InvalidRequest(format!(
                "rectangle [{}, {}]x[{}, {}] must have positive extent",
                self.min_x, self.max_x, self.min_y, self.max_y
            )));
        }
        Ok(())
    }
}

/// One ingested observation on the wire: where the point landed, the
/// cohort tag it arrived with, and its observed binary outcome — the
/// payload of [`crate::Request::Ingest`] and
/// [`crate::Request::IngestBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestBody {
    /// Map-space x coordinate.
    pub x: f64,
    /// Map-space y coordinate.
    pub y: f64,
    /// Opaque cohort tag, logged with the point; neither the merge nor
    /// drift detection reads it.
    pub group: u32,
    /// Observed binary outcome for the served task.
    pub label: bool,
}

impl IngestBody {
    /// Creates an ingest record.
    pub fn new(x: f64, y: f64, group: u32, label: bool) -> Self {
        Self { x, y, group, label }
    }

    /// Rejects non-finite coordinates — the same rule as
    /// [`WirePoint::validate`].
    pub fn validate(&self) -> Result<(), ProtoError> {
        WirePoint::new(self.x, self.y).validate()
    }
}

/// A trained model on the wire — the body of
/// [`crate::Request::RebuildStage`]: the base grid, the cell →
/// neighborhood partition and the per-neighborhood scores, exactly the
/// inputs of `FrozenIndex::from_partition`. A coordinator trains once
/// and ships this to every remote shard, which compiles and stages it
/// without training anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBody {
    /// The base grid the partition assigns.
    pub grid: Grid,
    /// One neighborhood (leaf) id per grid cell.
    pub partition: Partition,
    /// Per-leaf raw score, calibration offset and fairness group.
    pub snapshot: ModelSnapshot,
}

impl ModelBody {
    /// Re-checks what the derived decoders skip: the partition covers
    /// the grid (its length is compared before anything sized by the
    /// grid is built), every region id names a snapshot leaf, the
    /// snapshot's vectors agree, and every score is finite.
    pub fn validate(&self) -> Result<(), ProtoError> {
        let invalid = |msg: String| Err(ProtoError::InvalidRequest(format!("stage model: {msg}")));
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        let assignment = self.partition.assignments();
        let cells = rows.checked_mul(cols).filter(|&n| n > 0);
        if cells != Some(assignment.len()) || self.partition.grid_shape() != (rows, cols) {
            return invalid(format!(
                "a partition of {} cells does not cover the {rows}x{cols} grid",
                assignment.len()
            ));
        }
        let s = &self.snapshot;
        let leaves = s.num_leaves();
        if self.partition.num_regions() != leaves
            || s.offsets().len() != leaves
            || s.groups().len() != leaves
        {
            return invalid(format!(
                "{} regions but {leaves} raw scores, {} offsets and {} groups",
                self.partition.num_regions(),
                s.offsets().len(),
                s.groups().len()
            ));
        }
        if let Some(cell) = assignment.iter().position(|&r| r as usize >= leaves) {
            return invalid(format!(
                "cell {cell} names region {} of {leaves}",
                assignment[cell]
            ));
        }
        let finite = |l: usize| s.raw_scores()[l].is_finite() && s.offsets()[l].is_finite();
        if let Some(leaf) = (0..leaves).find(|&l| !finite(l)) {
            return invalid(format!("leaf {leaf} has a non-finite score"));
        }
        Ok(())
    }
}

/// One served decision on the wire — the protocol twin of
/// `fsi_serve::Decision`, field for field, so conversions are lossless
/// and serialized floats round-trip bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionBody {
    /// Leaf (= neighborhood) id the query point maps to.
    pub leaf_id: usize,
    /// Fairness group the decision is calibrated against.
    pub group: usize,
    /// The model's raw (uncalibrated) score.
    pub raw_score: f64,
    /// The locally calibrated score, clamped to `[0, 1]`.
    pub calibrated_score: f64,
}

/// Decision-cache counters inside a [`StatsBody`]. Only peers from
/// before the per-cell table replaced the decision cache send them;
/// current services always leave the block out, and the type stays so
/// those older envelopes still decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsBody {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the index.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
    /// Maximum entries the cache holds.
    pub capacity: usize,
}

impl CacheStatsBody {
    /// Fraction of lookups answered from the cache, in `[0, 1]`; `0.0`
    /// before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard's entry inside a [`StatsBody`], carrying where the shard
/// lives (backend kind + address) beside its index snapshot numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatsBody {
    /// Backend kind: `"local"` (in-process index), `"http"` (remote
    /// shard behind a socket) or `"replicas"` (a failover replica set).
    pub kind: String,
    /// The remote shard's `host:port` address; `None` for local shards.
    pub addr: Option<String>,
    /// The shard's live snapshot generation.
    pub generation: u64,
    /// Leaves served by this shard's (possibly clipped) index.
    pub num_leaves: usize,
    /// Approximate heap footprint of this shard's index, in bytes.
    pub heap_bytes: usize,
    /// Compiled backend serving this shard: `"cells"`, or `"tree"` from
    /// older peers.
    pub backend: String,
    /// `Some(true)` when the scatter-gather that produced this entry
    /// could not reach the shard — the response degrades to a per-shard
    /// marker instead of failing wholesale. Optional so envelopes
    /// encoded before graceful degradation existed still decode.
    pub unreachable: Option<bool>,
    /// The transport error that made the shard unreachable, when
    /// [`ShardStatsBody::unreachable`] is set.
    pub error: Option<String>,
}

/// Service statistics answered to [`crate::Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Number of shards behind the service.
    pub shards: usize,
    /// Per-shard snapshot generation, in shard order. Strictly monotone
    /// per shard across a client's Stats responses — hot swaps can only
    /// raise it.
    pub generations: Vec<u64>,
    /// Leaves (neighborhoods) in the live index.
    pub num_leaves: usize,
    /// Approximate heap footprint of one live index snapshot, in bytes.
    pub heap_bytes: usize,
    /// Compiled backend serving lookups: `"cells"`, or `"tree"` from
    /// older peers.
    pub backend: String,
    /// Decision-cache counters from an older peer; always `None` from a
    /// current service. Optional so v1 envelopes encoded before this
    /// field existed still decode.
    pub cache: Option<CacheStatsBody>,
    /// Per-shard breakdown with backend kind and address, populated by
    /// topology-aware coordinators. Optional so v1 envelopes encoded
    /// before this field existed still decode (same pattern as
    /// `cache`).
    pub per_shard: Option<Vec<ShardStatsBody>>,
    /// The answering worker's local telemetry snapshot, when the
    /// service runs with metrics enabled. Optional so v1/v2 envelopes
    /// encoded before this field existed still decode (same pattern as
    /// `cache` and `per_shard`).
    pub metrics: Option<Box<MetricsBody>>,
    /// Per-shard health (breaker state, replica counters), populated by
    /// topology-aware coordinators with resilience enabled. Optional so
    /// envelopes encoded before `fsi-resil` existed still decode.
    pub health: Option<Box<HealthBody>>,
}

/// Health of one replica inside a [`ShardHealthBody`] — its circuit
/// breaker state plus the retry counters the resilience layer
/// maintains for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaHealthBody {
    /// Replica index within its replica set.
    pub replica: usize,
    /// Backend kind of this replica (`"local"` or `"http"`).
    pub kind: String,
    /// The replica's `host:port` address; `None` for local replicas.
    pub addr: Option<String>,
    /// Circuit breaker state: `"closed"`, `"open"` or `"half_open"`.
    pub state: String,
    /// Consecutive failures observed since the last success.
    pub consecutive_failures: u64,
    /// Attempts dispatched to this replica (first tries + retries).
    pub attempts: u64,
    /// Attempts that failed with a transport-level (`internal`) error.
    pub failures: u64,
    /// Attempts that were retries of a failed earlier attempt.
    pub retries: u64,
    /// Always 0: replica sets no longer hedge. Kept on the wire because
    /// older decoders require the key.
    pub hedges: u64,
    /// Always 0, like [`Self::hedges`], and kept for the same reason.
    pub hedge_wins: u64,
    /// Breaker transitions into `open` (closed/half-open → open).
    pub opens: u64,
    /// Breaker transitions into `half_open` (open → probing).
    pub half_opens: u64,
    /// Breaker re-closes (half-open probe succeeded).
    pub closes: u64,
    /// Sampled per-attempt dispatch latency, in nanoseconds.
    pub latency: HistogramSnapshot,
}

/// Health of one coordinator slot inside a [`HealthBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHealthBody {
    /// Shard index in topology order.
    pub shard: usize,
    /// Backend kind: `"local"`, `"http"` or `"replicas"`.
    pub kind: String,
    /// The shard's `host:port` address; `None` for local shards,
    /// comma-joined member addresses for replica sets.
    pub addr: Option<String>,
    /// Aggregate state: `"up"` (all replicas closed), `"degraded"`
    /// (some replica open/half-open but at least one closed) or
    /// `"down"` (no closed replica). Plain backends without a
    /// resilience layer always report `"up"`.
    pub state: String,
    /// Per-replica breakdown; empty for plain (non-replicated) shards.
    pub replicas: Vec<ReplicaHealthBody>,
}

/// The coordinator's view of fleet health — the body of
/// [`crate::Response::Health`], also attached to [`StatsBody::health`]
/// so a plain `stats` round-trip surfaces it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// Per-shard health, in topology order.
    pub shards: Vec<ShardHealthBody>,
}

impl HealthBody {
    /// `true` when every shard reports `"up"`.
    pub fn all_up(&self) -> bool {
        self.shards.iter().all(|s| s.state == "up")
    }
}

/// Traffic counters for one request kind inside a [`MetricsBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestKindMetrics {
    /// Request kind in snake case (`"lookup"`, `"lookup_batch"`, …).
    pub kind: String,
    /// Requests of this kind dispatched so far.
    pub count: u64,
    /// Dispatch latency in nanoseconds. Point lookups may be *sampled*
    /// (see the service's sampling knob), so `latency.count() ≤ count`;
    /// every other kind is always timed.
    pub latency: HistogramSnapshot,
}

/// One error-code tally inside a [`MetricsBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorCountBody {
    /// The failure category.
    pub code: ErrorCode,
    /// Error responses answered with this code.
    pub count: u64,
}

/// Coordinator-side telemetry for one shard inside a [`MetricsBody`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardObsBody {
    /// Shard index in topology order.
    pub shard: usize,
    /// Backend kind: `"local"` or `"http"`.
    pub kind: String,
    /// The remote shard's `host:port` address; `None` for local shards.
    pub addr: Option<String>,
    /// Requests the coordinator forwarded to this shard.
    pub requests: u64,
    /// Forwarded requests that came back as `internal` transport
    /// errors — the raw feed for a future health/retry policy.
    pub failures: u64,
    /// Transport reconnect attempts (remote backends only).
    pub reconnects: u64,
    /// Coordinator-observed round-trip latency, in nanoseconds.
    pub round_trip: HistogramSnapshot,
    /// The shard's own scraped snapshot, when the scatter-gather that
    /// produced this body reached it. Boxed and optional: local shards
    /// have no recorder of their own and older peers omit the field.
    pub remote: Option<Box<MetricsBody>>,
    /// Per-replica health counters, when this slot is a replica set.
    /// Optional so envelopes encoded before `fsi-resil` existed still
    /// decode.
    pub replicas: Option<Vec<ReplicaHealthBody>>,
}

/// Two-phase rebuild timings inside a [`MetricsBody`], one histogram
/// per phase, in nanoseconds per shard-phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebuildObsBody {
    /// Prepare/stage durations (also records plain `Rebuild` builds).
    pub prepare: HistogramSnapshot,
    /// Commit/publish durations.
    pub commit: HistogramSnapshot,
    /// Abort durations.
    pub abort: HistogramSnapshot,
}

impl RebuildObsBody {
    /// All-empty timings.
    pub fn empty() -> Self {
        Self {
            prepare: HistogramSnapshot::empty(),
            commit: HistogramSnapshot::empty(),
            abort: HistogramSnapshot::empty(),
        }
    }
}

/// HTTP transport telemetry inside a [`MetricsBody`], attached by the
/// HTTP server in front of the service (absent on other transports).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpObsBody {
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections currently open.
    pub active: u64,
    /// HTTP requests handled (all methods and paths).
    pub requests: u64,
    /// Head + body read time per request, in nanoseconds.
    pub read: HistogramSnapshot,
    /// Decode + dispatch + encode time per request, in nanoseconds.
    pub handle: HistogramSnapshot,
    /// Response write time per request, in nanoseconds.
    pub write: HistogramSnapshot,
}

/// Streaming-ingestion telemetry inside a [`MetricsBody`], present when
/// the answering service has ingestion enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestObsBody {
    /// Points accepted into the delta buffer since start.
    pub accepted: u64,
    /// Points rejected for falling outside the served grid.
    pub rejected: u64,
    /// Points currently buffered (the occupancy gauge maintenance
    /// triggers on).
    pub buffered: u64,
    /// The maximum subtree drift score, measured when the snapshot was
    /// taken.
    pub drift_score: f64,
    /// End-to-end maintenance rebuild durations (log copy + merge +
    /// retrain + two-phase publish), in nanoseconds.
    pub maintenance: HistogramSnapshot,
}

/// One worker-merged telemetry snapshot — the body of
/// [`crate::Response::Metrics`], scatter-gathered across shards by
/// topology-aware coordinators (each remote shard's own snapshot rides
/// in [`ShardObsBody::remote`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Per-request-kind counts and latency, in dispatch order.
    pub requests: Vec<RequestKindMetrics>,
    /// Error responses tallied by code; codes never answered are
    /// omitted.
    pub errors: Vec<ErrorCountBody>,
    /// Requests that crossed the slow-query log threshold (0 when the
    /// log is off).
    pub slow_queries: u64,
    /// Highest snapshot generation observed at dispatch time.
    pub generation: u64,
    /// Decision-cache counters from an older peer; always `None` from a
    /// current service.
    pub cache: Option<CacheStatsBody>,
    /// Coordinator-side per-shard telemetry, in topology order.
    pub shards: Vec<ShardObsBody>,
    /// Two-phase rebuild timings.
    pub rebuild: RebuildObsBody,
    /// HTTP transport telemetry, when an HTTP server fronts the
    /// service.
    pub http: Option<HttpObsBody>,
    /// Streaming-ingestion telemetry, when ingestion is enabled.
    /// Optional so envelopes encoded before streaming ingestion
    /// existed still decode (same pattern as `cache` and `http`).
    pub ingest: Option<IngestObsBody>,
}

impl MetricsBody {
    /// An all-zero snapshot — what a backend without a recorder (plain
    /// local shard) answers.
    pub fn empty() -> Self {
        Self {
            requests: Vec::new(),
            errors: Vec::new(),
            slow_queries: 0,
            generation: 0,
            cache: None,
            shards: Vec::new(),
            rebuild: RebuildObsBody::empty(),
            http: None,
            ingest: None,
        }
    }

    /// Total requests across all kinds.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|r| r.count).sum()
    }

    /// The count recorded for one request kind, 0 when absent.
    pub fn count_for(&self, kind: &str) -> u64 {
        self.requests
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0, |r| r.count)
    }
}

/// What a finished rebuild did — the body of
/// [`crate::Response::Rebuilt`], also returned by the `fsi-serve`
/// rebuild APIs, so the wire protocol and the library reports share one
/// JSON representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebuildReport {
    /// The spec the new index was built from.
    pub spec: PipelineSpec,
    /// Generation the new snapshot serves at (on a sharded service: the
    /// highest generation across shards after the publish).
    pub generation: u64,
    /// Leaves in the new index.
    pub num_leaves: usize,
    /// ENCE of the retrained model over the full population.
    pub ence: f64,
    /// Wall-clock of partition construction inside the pipeline.
    pub build_time: Duration,
    /// End-to-end wall-clock: training + evaluation + compile + publish.
    pub total_time: Duration,
}

/// What phase one of a two-phase rebuild staged — the body of
/// [`crate::Response::Prepared`]: the index is built and held back,
/// waiting for a [`crate::Request::RebuildCommit`] to publish it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedBody {
    /// Leaves in the staged (possibly clipped) index.
    pub num_leaves: usize,
    /// Approximate heap footprint of the staged index, in bytes.
    pub heap_bytes: usize,
    /// ENCE of the retrained model over the full population; `0` from
    /// a slot that trained nothing and staged a shipped model.
    pub ence: f64,
    /// Wall-clock of training + compile for the staged index; zero
    /// from a slot that staged a shipped model.
    pub build_time: Duration,
}

/// Machine-readable failure category of an [`ErrorBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request could not be decoded (bad JSON or shape).
    MalformedRequest,
    /// The envelope's protocol version is not supported.
    UnsupportedVersion,
    /// A query point lies outside the served map bounds.
    OutOfBounds,
    /// A rebuild spec failed validation.
    InvalidSpec,
    /// The service was built without rebuild support.
    RebuildUnavailable,
    /// A rebuild commit arrived with no staged index to publish.
    NotPrepared,
    /// The service failed internally (training error, …).
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::OutOfBounds => "out_of_bounds",
            ErrorCode::InvalidSpec => "invalid_spec",
            ErrorCode::RebuildUnavailable => "rebuild_unavailable",
            ErrorCode::NotPrepared => "not_prepared",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// The structured error every transport reports failures through.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ErrorBody {
    /// Creates an error body.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl From<&ProtoError> for ErrorBody {
    /// The structured body a transport answers when decoding fails.
    fn from(e: &ProtoError) -> Self {
        let code = match e {
            ProtoError::Json(_) => ErrorCode::MalformedRequest,
            ProtoError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            ProtoError::InvalidRequest(_) => ErrorCode::MalformedRequest,
        };
        ErrorBody::new(code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_rect_validation() {
        assert!(WirePoint::new(0.5, 0.5).validate().is_ok());
        assert!(WirePoint::new(f64::NAN, 0.5).validate().is_err());
        assert!(WirePoint::new(0.5, f64::INFINITY).validate().is_err());
        assert!(WireRect::new(0.0, 0.0, 1.0, 1.0).validate().is_ok());
        // Zero-extent rectangles are rejected, exactly like Rect::new.
        assert!(WireRect::new(0.5, 0.5, 0.5, 0.5).validate().is_err());
        assert!(WireRect::new(0.9, 0.0, 0.1, 1.0).validate().is_err());
        assert!(WireRect::new(0.0, f64::NAN, 1.0, 1.0).validate().is_err());
    }

    #[test]
    fn decision_body_round_trips_bit_identically() {
        let d = DecisionBody {
            leaf_id: 1023,
            group: 7,
            raw_score: 0.1 + 0.2, // deliberately not representable exactly
            calibrated_score: f64::MIN_POSITIVE,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: DecisionBody = serde_json::from_str(&json).unwrap();
        assert_eq!(d.raw_score.to_bits(), back.raw_score.to_bits());
        assert_eq!(
            d.calibrated_score.to_bits(),
            back.calibrated_score.to_bits()
        );
        assert_eq!(d, back);
    }

    #[test]
    fn stats_body_decodes_old_wire_json_without_cache_fields() {
        // Captured from a pre-cache peer: the exact object shape v1
        // StatsBody serialized to before the `cache` field existed.
        let old_wire = r#"{
            "shards": 4,
            "generations": [3, 3, 2, 3],
            "num_leaves": 1024,
            "heap_bytes": 49152,
            "backend": "tree"
        }"#;
        let stats: StatsBody = serde_json::from_str(old_wire).unwrap();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generations, vec![3, 3, 2, 3]);
        assert_eq!(stats.num_leaves, 1024);
        assert_eq!(stats.heap_bytes, 49152);
        assert_eq!(stats.backend, "tree");
        assert_eq!(stats.cache, None, "missing cache field must decode as None");
        assert_eq!(
            stats.per_shard, None,
            "missing per_shard field must decode as None"
        );
        assert_eq!(
            stats.metrics, None,
            "missing metrics field must decode as None"
        );
        assert_eq!(
            stats.health, None,
            "missing health field must decode as None"
        );
        // Truly required fields still fail loudly when absent.
        let truncated = r#"{"shards": 1, "generations": [1]}"#;
        let err = serde_json::from_str::<StatsBody>(truncated).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn stats_body_with_cache_counters_round_trips() {
        let stats = StatsBody {
            shards: 1,
            generations: vec![7],
            num_leaves: 64,
            heap_bytes: 2048,
            backend: "cells".into(),
            cache: Some(CacheStatsBody {
                hits: 900,
                misses: 100,
                evictions: 12,
                entries: 64,
                capacity: 128,
            }),
            per_shard: None,
            metrics: None,
            health: None,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: StatsBody = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
        let cache = back.cache.unwrap();
        assert!((cache.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(
            CacheStatsBody::hit_rate(&CacheStatsBody {
                hits: 0,
                misses: 0,
                evictions: 0,
                entries: 0,
                capacity: 1,
            }),
            0.0
        );
    }

    #[test]
    fn stats_body_with_per_shard_entries_round_trips() {
        let stats = StatsBody {
            shards: 2,
            generations: vec![3, 3],
            num_leaves: 1024,
            heap_bytes: 49152,
            backend: "tree".into(),
            cache: None,
            per_shard: Some(vec![
                ShardStatsBody {
                    kind: "local".into(),
                    addr: None,
                    generation: 3,
                    num_leaves: 280,
                    heap_bytes: 14336,
                    backend: "tree".into(),
                    unreachable: None,
                    error: None,
                },
                ShardStatsBody {
                    kind: "http".into(),
                    addr: Some("127.0.0.1:7878".into()),
                    generation: 3,
                    num_leaves: 296,
                    heap_bytes: 15104,
                    backend: "tree".into(),
                    unreachable: Some(true),
                    error: Some("remote shard 127.0.0.1:7878: connection refused".into()),
                },
            ]),
            metrics: None,
            health: None,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: StatsBody = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
        let shards = back.per_shard.unwrap();
        assert_eq!(shards[0].addr, None);
        assert_eq!(shards[0].unreachable, None);
        assert_eq!(shards[1].addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(shards[1].unreachable, Some(true));
    }

    #[test]
    fn shard_stats_body_decodes_old_wire_json_without_degradation_markers() {
        // Captured from a pre-resilience peer: per_shard entries never
        // carried unreachable/error markers.
        let old_wire = r#"{
            "kind": "http", "addr": "10.0.0.7:7878", "generation": 5,
            "num_leaves": 256, "heap_bytes": 12288, "backend": "tree"
        }"#;
        let shard: ShardStatsBody = serde_json::from_str(old_wire).unwrap();
        assert_eq!(shard.unreachable, None);
        assert_eq!(shard.error, None);
    }

    fn sample_replica_health(replica: usize, state: &str) -> ReplicaHealthBody {
        let h = fsi_obs::Histogram::new();
        h.record(48_000);
        h.record(52_000);
        ReplicaHealthBody {
            replica,
            kind: "http".into(),
            addr: Some(format!("127.0.0.1:{}", 7878 + replica)),
            state: state.into(),
            consecutive_failures: if state == "closed" { 0 } else { 5 },
            attempts: 2048,
            failures: 5,
            retries: 4,
            hedges: 12,
            hedge_wins: 3,
            opens: u64::from(state != "closed"),
            half_opens: 0,
            closes: 0,
            latency: h.snapshot(),
        }
    }

    #[test]
    fn health_body_round_trips_and_reports_aggregate_state() {
        let health = HealthBody {
            shards: vec![
                ShardHealthBody {
                    shard: 0,
                    kind: "local".into(),
                    addr: None,
                    state: "up".into(),
                    replicas: Vec::new(),
                },
                ShardHealthBody {
                    shard: 1,
                    kind: "replicas".into(),
                    addr: Some("127.0.0.1:7878,127.0.0.1:7879".into()),
                    state: "degraded".into(),
                    replicas: vec![
                        sample_replica_health(0, "closed"),
                        sample_replica_health(1, "open"),
                    ],
                },
            ],
        };
        assert!(!health.all_up());
        let json = serde_json::to_string(&health).unwrap();
        let back: HealthBody = serde_json::from_str(&json).unwrap();
        assert_eq!(health, back);
        assert_eq!(back.shards[1].replicas[1].state, "open");
        assert_eq!(back.shards[1].replicas[1].opens, 1);
        let all_up = HealthBody {
            shards: vec![ShardHealthBody {
                shard: 0,
                kind: "local".into(),
                addr: None,
                state: "up".into(),
                replicas: Vec::new(),
            }],
        };
        assert!(all_up.all_up());
    }

    #[test]
    fn stats_body_decodes_v2_wire_json_without_metrics_field() {
        // Captured from a pre-observability peer: v2 StatsBody with the
        // cache and per_shard blocks but no `metrics` field.
        let v2_wire = r#"{
            "shards": 2,
            "generations": [5, 5],
            "num_leaves": 512,
            "heap_bytes": 24576,
            "backend": "tree",
            "cache": {"hits": 10, "misses": 2, "evictions": 0, "entries": 8, "capacity": 64},
            "per_shard": [
                {"kind": "local", "addr": null, "generation": 5,
                 "num_leaves": 256, "heap_bytes": 12288, "backend": "tree"},
                {"kind": "http", "addr": "10.0.0.7:7878", "generation": 5,
                 "num_leaves": 256, "heap_bytes": 12288, "backend": "tree"}
            ]
        }"#;
        let stats: StatsBody = serde_json::from_str(v2_wire).unwrap();
        assert_eq!(stats.cache.unwrap().hits, 10);
        assert_eq!(stats.per_shard.unwrap().len(), 2);
        assert_eq!(
            stats.metrics, None,
            "v2 envelopes without metrics must decode as None"
        );
    }

    fn sample_metrics_body() -> MetricsBody {
        let hist = |values: &[u64]| {
            let h = fsi_obs::Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        MetricsBody {
            requests: vec![
                RequestKindMetrics {
                    kind: "lookup".into(),
                    count: 4096,
                    latency: hist(&[57, 61, 122, 8_000]),
                },
                RequestKindMetrics {
                    kind: "stats".into(),
                    count: 3,
                    latency: hist(&[1_200, 1_800, 2_400]),
                },
            ],
            errors: vec![ErrorCountBody {
                code: ErrorCode::OutOfBounds,
                count: 2,
            }],
            slow_queries: 1,
            generation: 7,
            cache: Some(CacheStatsBody {
                hits: 900,
                misses: 100,
                evictions: 3,
                entries: 97,
                capacity: 128,
            }),
            shards: vec![
                ShardObsBody {
                    shard: 0,
                    kind: "local".into(),
                    addr: None,
                    requests: 2048,
                    failures: 0,
                    reconnects: 0,
                    round_trip: hist(&[90, 110]),
                    remote: None,
                    replicas: None,
                },
                ShardObsBody {
                    shard: 1,
                    kind: "http".into(),
                    addr: Some("10.0.0.7:7878".into()),
                    requests: 2048,
                    failures: 4,
                    reconnects: 1,
                    round_trip: hist(&[48_000, 52_000, 61_000]),
                    remote: Some(Box::new(MetricsBody::empty())),
                    replicas: Some(vec![sample_replica_health(0, "closed")]),
                },
            ],
            rebuild: RebuildObsBody {
                prepare: hist(&[40_000_000, 42_000_000]),
                commit: hist(&[9_000, 11_000]),
                abort: HistogramSnapshot::empty(),
            },
            http: Some(HttpObsBody {
                connections: 5,
                active: 4,
                requests: 4099,
                read: hist(&[2_000, 2_500]),
                handle: hist(&[60_000]),
                write: hist(&[1_500]),
            }),
            ingest: Some(IngestObsBody {
                accepted: 512,
                rejected: 3,
                buffered: 128,
                drift_score: 0.375,
                maintenance: hist(&[90_000_000]),
            }),
        }
    }

    #[test]
    fn metrics_body_round_trips_with_nested_remote_snapshots() {
        let body = sample_metrics_body();
        let json = serde_json::to_string(&body).unwrap();
        let back: MetricsBody = serde_json::from_str(&json).unwrap();
        assert_eq!(body, back);
        assert_eq!(back.total_requests(), 4099);
        assert_eq!(back.count_for("lookup"), 4096);
        assert_eq!(back.count_for("range_query"), 0);
        assert_eq!(back.shards[1].remote, Some(Box::new(MetricsBody::empty())));
    }

    #[test]
    fn empty_metrics_body_is_the_recorderless_answer() {
        let empty = MetricsBody::empty();
        assert_eq!(empty.total_requests(), 0);
        let json = serde_json::to_string(&empty).unwrap();
        let back: MetricsBody = serde_json::from_str(&json).unwrap();
        assert_eq!(empty, back);
    }

    #[test]
    fn prepared_body_round_trips() {
        let prepared = PreparedBody {
            num_leaves: 280,
            heap_bytes: 14336,
            ence: 0.0123,
            build_time: Duration::from_micros(4321),
        };
        let json = serde_json::to_string(&prepared).unwrap();
        let back: PreparedBody = serde_json::from_str(&json).unwrap();
        assert_eq!(prepared, back);
    }

    #[test]
    fn error_codes_map_from_proto_errors() {
        let e = ProtoError::UnsupportedVersion {
            got: 3,
            expected: 1,
        };
        assert_eq!(ErrorBody::from(&e).code, ErrorCode::UnsupportedVersion);
        let e = ProtoError::Json("boom".into());
        assert_eq!(ErrorBody::from(&e).code, ErrorCode::MalformedRequest);
    }
}
