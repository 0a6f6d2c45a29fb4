//! Service-side telemetry: the per-worker `ServiceMetrics` shard
//! every [`crate::QueryService`] clone records into, the scrape fold
//! that merges worker shards into a wire [`fsi_proto::MetricsBody`],
//! the Prometheus text renderer behind every `/metrics` surface, and
//! the slow-query log vocabulary.
//!
//! Placement is per worker: cloning a service registers a fresh
//! metrics shard in the shared [`fsi_obs::Registry`], so the dispatch
//! hot path touches only its own uncontended atomics, and a scrape
//! folds every worker's shard — including retired ones, because
//! counters are cumulative.
//!
//! ## The torn-snapshot contract
//!
//! Writers bump the request **counter before** recording the latency
//! **histogram**; the fold reads each shard's **histograms before its
//! counters**. With `Release` stores and `Acquire` loads throughout
//! (see `fsi-obs`), a scrape that races a dispatch can therefore only
//! observe `latency.count() ≤ requests` — never a latency sample whose
//! request is missing.

use fsi_obs::expo::Exposition;
use fsi_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use fsi_proto::{ErrorCode, MetricsBody, Request};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Request kinds in dispatch order — the index space of the per-kind
/// counter and histogram arrays.
pub(crate) const KINDS: [&str; 12] = [
    "lookup",
    "lookup_batch",
    "range_query",
    "stats",
    "rebuild",
    "rebuild_prepare",
    "rebuild_commit",
    "rebuild_abort",
    "metrics",
    "ingest",
    "ingest_batch",
    "health",
];

/// Index of `"lookup"` in [`KINDS`] — the sampled hot path.
pub(crate) const K_LOOKUP: usize = 0;

/// Error codes in wire order — the index space of the error tally.
pub(crate) const CODES: [ErrorCode; 7] = [
    ErrorCode::MalformedRequest,
    ErrorCode::UnsupportedVersion,
    ErrorCode::OutOfBounds,
    ErrorCode::InvalidSpec,
    ErrorCode::RebuildUnavailable,
    ErrorCode::NotPrepared,
    ErrorCode::Internal,
];

/// The [`KINDS`] index of a request.
#[inline]
pub(crate) fn kind_index(request: &Request) -> usize {
    match request {
        Request::Lookup { .. } => 0,
        Request::LookupBatch { .. } => 1,
        Request::RangeQuery { .. } => 2,
        Request::Stats => 3,
        Request::Rebuild { .. } => 4,
        Request::RebuildPrepare { .. } | Request::RebuildStage { .. } => 5,
        Request::RebuildCommit => 6,
        Request::RebuildAbort => 7,
        Request::Metrics => 8,
        Request::Ingest { .. } => 9,
        Request::IngestBatch { .. } => 10,
        Request::Health => 11,
    }
}

/// The [`CODES`] index of an error code.
#[inline]
pub(crate) fn code_index(code: ErrorCode) -> usize {
    match code {
        ErrorCode::MalformedRequest => 0,
        ErrorCode::UnsupportedVersion => 1,
        ErrorCode::OutOfBounds => 2,
        ErrorCode::InvalidSpec => 3,
        ErrorCode::RebuildUnavailable => 4,
        ErrorCode::NotPrepared => 5,
        ErrorCode::Internal => 6,
    }
}

/// A `Duration` as nanoseconds, saturating at `u64::MAX` (585 years).
#[inline]
pub(crate) fn saturating_nanos(elapsed: Duration) -> u64 {
    elapsed.as_nanos().min(u64::MAX as u128) as u64
}

/// Coordinator-side telemetry for one shard slot.
pub(crate) struct ShardMetrics {
    /// Requests forwarded to this shard.
    pub(crate) requests: Counter,
    /// Forwarded requests answered with an `internal` transport error.
    pub(crate) failures: Counter,
    /// Coordinator-observed round-trip latency, nanoseconds.
    pub(crate) round_trip: Histogram,
}

impl ShardMetrics {
    fn new() -> Self {
        Self {
            requests: Counter::new(),
            failures: Counter::new(),
            round_trip: Histogram::new(),
        }
    }
}

/// One worker's metrics shard — everything a `QueryService` clone
/// records, merged across clones by [`MetricsFold::collect`].
pub(crate) struct ServiceMetrics {
    /// Requests dispatched, by [`KINDS`] index.
    pub(crate) requests: [Counter; KINDS.len()],
    /// Dispatch latency in nanoseconds, by [`KINDS`] index. Lookups
    /// may be sampled, so `latency[k].count() ≤ requests[k]`.
    pub(crate) latency: [Histogram; KINDS.len()],
    /// Error responses, by [`CODES`] index.
    pub(crate) errors: [Counter; CODES.len()],
    /// Requests over the slow-query threshold.
    pub(crate) slow_queries: Counter,
    /// Highest generation this worker has published (raised on rebuild
    /// commits; the scrape also folds in the live local generations).
    pub(crate) generation: Gauge,
    /// Per-shard forwarding telemetry, in topology order.
    pub(crate) shards: Vec<ShardMetrics>,
    /// Two-phase rebuild prepare/stage durations, per shard-phase.
    pub(crate) rebuild_prepare: Histogram,
    /// Commit/publish durations, per shard-phase.
    pub(crate) rebuild_commit: Histogram,
    /// Abort durations, per shard-phase.
    pub(crate) rebuild_abort: Histogram,
    /// End-to-end maintenance rebuild durations (log copy + merge +
    /// retrain + two-phase publish).
    pub(crate) maintenance: Histogram,
}

impl ServiceMetrics {
    /// A zeroed shard for a topology of `n_shards` slots.
    pub(crate) fn new(n_shards: usize) -> Self {
        Self {
            requests: std::array::from_fn(|_| Counter::new()),
            latency: std::array::from_fn(|_| Histogram::new()),
            errors: std::array::from_fn(|_| Counter::new()),
            slow_queries: Counter::new(),
            generation: Gauge::new(),
            shards: (0..n_shards).map(|_| ShardMetrics::new()).collect(),
            rebuild_prepare: Histogram::new(),
            rebuild_commit: Histogram::new(),
            rebuild_abort: Histogram::new(),
            maintenance: Histogram::new(),
        }
    }
}

/// One shard's merged forwarding telemetry out of a fold.
pub(crate) struct ShardFold {
    pub(crate) requests: u64,
    pub(crate) failures: u64,
    pub(crate) round_trip: HistogramSnapshot,
}

/// Every worker shard of a registry merged into plain values — the
/// scrape primitive behind `QueryService::metrics_snapshot`.
pub(crate) struct MetricsFold {
    pub(crate) requests: [u64; KINDS.len()],
    pub(crate) latency: [HistogramSnapshot; KINDS.len()],
    pub(crate) errors: [u64; CODES.len()],
    pub(crate) slow_queries: u64,
    pub(crate) generation: u64,
    pub(crate) shards: Vec<ShardFold>,
    pub(crate) prepare: HistogramSnapshot,
    pub(crate) commit: HistogramSnapshot,
    pub(crate) abort: HistogramSnapshot,
    pub(crate) maintenance: HistogramSnapshot,
}

impl MetricsFold {
    /// Merges every worker shard. Counters sum, histograms merge, the
    /// generation gauge takes the maximum. Per shard the histograms
    /// are read **before** the counters (the torn-snapshot contract —
    /// see the module docs).
    pub(crate) fn collect(registry: &Registry<ServiceMetrics>, n_shards: usize) -> Self {
        let zero = Self {
            requests: [0; KINDS.len()],
            latency: std::array::from_fn(|_| HistogramSnapshot::empty()),
            errors: [0; CODES.len()],
            slow_queries: 0,
            generation: 0,
            shards: (0..n_shards)
                .map(|_| ShardFold {
                    requests: 0,
                    failures: 0,
                    round_trip: HistogramSnapshot::empty(),
                })
                .collect(),
            prepare: HistogramSnapshot::empty(),
            commit: HistogramSnapshot::empty(),
            abort: HistogramSnapshot::empty(),
            maintenance: HistogramSnapshot::empty(),
        };
        registry.fold(zero, |mut acc, m| {
            for k in 0..KINDS.len() {
                acc.latency[k].merge(&m.latency[k].snapshot());
                acc.requests[k] += m.requests[k].get();
            }
            for (sf, sm) in acc.shards.iter_mut().zip(&m.shards) {
                sf.round_trip.merge(&sm.round_trip.snapshot());
                sf.requests += sm.requests.get();
                sf.failures += sm.failures.get();
            }
            acc.prepare.merge(&m.rebuild_prepare.snapshot());
            acc.commit.merge(&m.rebuild_commit.snapshot());
            acc.abort.merge(&m.rebuild_abort.snapshot());
            acc.maintenance.merge(&m.maintenance.snapshot());
            for c in 0..CODES.len() {
                acc.errors[c] += m.errors[c].get();
            }
            acc.slow_queries += m.slow_queries.get();
            acc.generation = acc.generation.max(m.generation.get());
            acc
        })
    }
}

/// One slow-query log entry, handed to the configured sink.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQueryRecord {
    /// Request kind in snake case (`"lookup"`, `"rebuild"`, …).
    pub kind: String,
    /// Dispatch duration, nanoseconds.
    pub nanos: u64,
    /// The threshold that was crossed, nanoseconds.
    pub threshold_nanos: u64,
}

/// Where slow-query records go — a pluggable sink (a logger, a channel,
/// a test vector behind a mutex).
pub type SlowQuerySink = Arc<dyn Fn(&SlowQueryRecord) + Send + Sync>;

/// The installed slow-query log of one service clone.
#[derive(Clone)]
pub(crate) struct SlowQueryLog {
    pub(crate) threshold_nanos: u64,
    sink: SlowQuerySink,
}

impl SlowQueryLog {
    pub(crate) fn new(threshold: Duration, sink: SlowQuerySink) -> Self {
        Self {
            threshold_nanos: saturating_nanos(threshold),
            sink,
        }
    }

    pub(crate) fn emit(&self, kind: &str, nanos: u64) {
        (self.sink)(&SlowQueryRecord {
            kind: kind.to_string(),
            nanos,
            threshold_nanos: self.threshold_nanos,
        });
    }
}

/// Renders a scraped [`MetricsBody`] as Prometheus text exposition
/// (version 0.0.4) — what `GET /metrics`, the REPL `metrics` command
/// and `redistricting_cli serve --metrics` print.
///
/// Latency histograms are recorded in nanoseconds and exposed as
/// summary families in **seconds**. Per-shard families carry `shard`
/// and `backend` labels; nested remote snapshots
/// ([`fsi_proto::ShardObsBody::remote`]) are not flattened into the
/// text — scrape each shard server's own `/metrics` for its interior.
pub fn prometheus_text(body: &MetricsBody) -> String {
    let mut e = Exposition::new();
    e.family(
        "fsi_requests_total",
        "counter",
        "Requests dispatched, by request kind.",
    );
    for r in &body.requests {
        e.sample_u64("fsi_requests_total", &[("kind", &r.kind)], r.count);
    }
    e.family(
        "fsi_request_latency_seconds",
        "summary",
        "Dispatch latency by request kind (point lookups may be sampled).",
    );
    for r in &body.requests {
        e.summary(
            "fsi_request_latency_seconds",
            &[("kind", &r.kind)],
            &r.latency,
            1e9,
        );
    }
    if !body.errors.is_empty() {
        e.family(
            "fsi_errors_total",
            "counter",
            "Error responses, by error code.",
        );
        for err in &body.errors {
            let code = err.code.to_string();
            e.sample_u64("fsi_errors_total", &[("code", &code)], err.count);
        }
    }
    e.family(
        "fsi_slow_queries_total",
        "counter",
        "Requests over the slow-query log threshold.",
    );
    e.sample_u64("fsi_slow_queries_total", &[], body.slow_queries);
    e.family(
        "fsi_generation",
        "gauge",
        "Highest observed index snapshot generation.",
    );
    e.sample_u64("fsi_generation", &[], body.generation);
    if !body.shards.is_empty() {
        e.family(
            "fsi_shard_requests_total",
            "counter",
            "Requests the coordinator forwarded, by shard.",
        );
        for s in &body.shards {
            let shard = s.shard.to_string();
            e.sample_u64(
                "fsi_shard_requests_total",
                &[("shard", &shard), ("backend", &s.kind)],
                s.requests,
            );
        }
        e.family(
            "fsi_shard_failures_total",
            "counter",
            "Forwarded requests that failed with an internal transport error.",
        );
        for s in &body.shards {
            let shard = s.shard.to_string();
            e.sample_u64(
                "fsi_shard_failures_total",
                &[("shard", &shard), ("backend", &s.kind)],
                s.failures,
            );
        }
        e.family(
            "fsi_shard_reconnects_total",
            "counter",
            "Transport reconnect attempts, by shard.",
        );
        for s in &body.shards {
            let shard = s.shard.to_string();
            e.sample_u64(
                "fsi_shard_reconnects_total",
                &[("shard", &shard), ("backend", &s.kind)],
                s.reconnects,
            );
        }
        e.family(
            "fsi_shard_round_trip_seconds",
            "summary",
            "Coordinator-observed shard round-trip latency.",
        );
        for s in &body.shards {
            let shard = s.shard.to_string();
            e.summary(
                "fsi_shard_round_trip_seconds",
                &[("shard", &shard), ("backend", &s.kind)],
                &s.round_trip,
                1e9,
            );
        }
    }
    // Resilience telemetry: one row per replica of every replicated
    // shard slot, flattened out of the coordinator's health snapshot.
    let replicas: Vec<(usize, &fsi_proto::ReplicaHealthBody)> = body
        .shards
        .iter()
        .filter_map(|s| s.replicas.as_deref().map(|r| (s.shard, r)))
        .flat_map(|(shard, r)| r.iter().map(move |rep| (shard, rep)))
        .collect();
    if !replicas.is_empty() {
        {
            let mut counter =
                |name: &str, help: &str, get: &dyn Fn(&fsi_proto::ReplicaHealthBody) -> u64| {
                    e.family(name, "counter", help);
                    for (shard, r) in &replicas {
                        let shard = shard.to_string();
                        let replica = r.replica.to_string();
                        e.sample_u64(name, &[("shard", &shard), ("replica", &replica)], get(r));
                    }
                };
            counter(
                "fsi_resil_attempts_total",
                "Dispatch attempts, per replica.",
                &|r| r.attempts,
            );
            counter(
                "fsi_resil_failures_total",
                "Transport-failed attempts, per replica.",
                &|r| r.failures,
            );
            counter(
                "fsi_resil_retries_total",
                "Retries steered to this replica after a sibling failed.",
                &|r| r.retries,
            );
        }
        e.family(
            "fsi_resil_breaker_transitions_total",
            "counter",
            "Circuit-breaker transitions, per replica and target state.",
        );
        for (shard, r) in &replicas {
            let shard = shard.to_string();
            let replica = r.replica.to_string();
            for (into, count) in [
                ("open", r.opens),
                ("half_open", r.half_opens),
                ("closed", r.closes),
            ] {
                e.sample_u64(
                    "fsi_resil_breaker_transitions_total",
                    &[("shard", &shard), ("replica", &replica), ("into", into)],
                    count,
                );
            }
        }
        e.family(
            "fsi_resil_breaker_state",
            "gauge",
            "Current circuit-breaker state, per replica (state as a label).",
        );
        for (shard, r) in &replicas {
            let shard = shard.to_string();
            let replica = r.replica.to_string();
            e.sample_u64(
                "fsi_resil_breaker_state",
                &[
                    ("shard", &shard),
                    ("replica", &replica),
                    ("state", &r.state),
                ],
                1,
            );
        }
        e.family(
            "fsi_resil_attempt_latency_seconds",
            "summary",
            "Sampled per-attempt latency, per replica.",
        );
        for (shard, r) in &replicas {
            let shard = shard.to_string();
            let replica = r.replica.to_string();
            e.summary(
                "fsi_resil_attempt_latency_seconds",
                &[("shard", &shard), ("replica", &replica)],
                &r.latency,
                1e9,
            );
        }
    }
    e.family(
        "fsi_rebuild_phase_seconds",
        "summary",
        "Two-phase rebuild durations, per shard-phase.",
    );
    e.summary(
        "fsi_rebuild_phase_seconds",
        &[("phase", "prepare")],
        &body.rebuild.prepare,
        1e9,
    );
    e.summary(
        "fsi_rebuild_phase_seconds",
        &[("phase", "commit")],
        &body.rebuild.commit,
        1e9,
    );
    e.summary(
        "fsi_rebuild_phase_seconds",
        &[("phase", "abort")],
        &body.rebuild.abort,
        1e9,
    );
    if let Some(ingest) = &body.ingest {
        e.family(
            "fsi_ingest_accepted_total",
            "counter",
            "Points accepted into the delta buffer.",
        );
        e.sample_u64("fsi_ingest_accepted_total", &[], ingest.accepted);
        e.family(
            "fsi_ingest_rejected_total",
            "counter",
            "Ingested points rejected for falling outside the grid.",
        );
        e.sample_u64("fsi_ingest_rejected_total", &[], ingest.rejected);
        e.family(
            "fsi_ingest_buffered",
            "gauge",
            "Points currently in the delta buffer.",
        );
        e.sample_u64("fsi_ingest_buffered", &[], ingest.buffered);
        e.family(
            "fsi_ingest_drift_score",
            "gauge",
            "Last measured maximum subtree drift score.",
        );
        e.sample("fsi_ingest_drift_score", &[], ingest.drift_score);
        e.family(
            "fsi_maintenance_rebuild_seconds",
            "summary",
            "End-to-end drift-triggered maintenance rebuild durations.",
        );
        e.summary(
            "fsi_maintenance_rebuild_seconds",
            &[],
            &ingest.maintenance,
            1e9,
        );
    }
    if let Some(http) = &body.http {
        e.family(
            "fsi_http_connections_total",
            "counter",
            "HTTP connections accepted.",
        );
        e.sample_u64("fsi_http_connections_total", &[], http.connections);
        e.family(
            "fsi_http_active_connections",
            "gauge",
            "HTTP connections currently open.",
        );
        e.sample_u64("fsi_http_active_connections", &[], http.active);
        e.family(
            "fsi_http_requests_total",
            "counter",
            "HTTP requests handled.",
        );
        e.sample_u64("fsi_http_requests_total", &[], http.requests);
        e.family(
            "fsi_http_phase_seconds",
            "summary",
            "HTTP request phase timings (read, handle, write).",
        );
        e.summary(
            "fsi_http_phase_seconds",
            &[("phase", "read")],
            &http.read,
            1e9,
        );
        e.summary(
            "fsi_http_phase_seconds",
            &[("phase", "handle")],
            &http.handle,
            1e9,
        );
        e.summary(
            "fsi_http_phase_seconds",
            &[("phase", "write")],
            &http.write,
            1e9,
        );
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_proto::{
        CacheStatsBody, ErrorCountBody, HttpObsBody, RebuildObsBody, RequestKindMetrics,
        ShardObsBody,
    };

    #[test]
    fn kind_and_code_indexes_agree_with_their_tables() {
        assert_eq!(kind_index(&Request::Lookup { x: 0.0, y: 0.0 }), K_LOOKUP);
        assert_eq!(KINDS[kind_index(&Request::Metrics)], "metrics");
        assert_eq!(KINDS[kind_index(&Request::Stats)], "stats");
        assert_eq!(
            KINDS[kind_index(&Request::Ingest {
                x: 0.0,
                y: 0.0,
                group: 0,
                label: false,
            })],
            "ingest"
        );
        assert_eq!(
            KINDS[kind_index(&Request::IngestBatch { points: vec![] })],
            "ingest_batch"
        );
        assert_eq!(KINDS[kind_index(&Request::Health)], "health");
        for (i, code) in CODES.iter().enumerate() {
            assert_eq!(code_index(*code), i);
        }
    }

    #[test]
    fn fold_merges_worker_shards_and_maxes_the_generation() {
        let registry = Registry::new(|| ServiceMetrics::new(2));
        let a = registry.recorder();
        let b = a.clone();
        a.requests[K_LOOKUP].add(3);
        a.latency[K_LOOKUP].record(500);
        b.requests[K_LOOKUP].add(2);
        b.latency[K_LOOKUP].record(700);
        a.errors[code_index(ErrorCode::OutOfBounds)].inc();
        a.generation.raise(4);
        b.generation.raise(2);
        a.shards[1].requests.inc();
        b.shards[1].requests.add(4);
        b.shards[1].round_trip.record(1_000);
        let fold = MetricsFold::collect(a.registry(), 2);
        assert_eq!(fold.requests[K_LOOKUP], 5);
        assert_eq!(fold.latency[K_LOOKUP].count(), 2);
        assert_eq!(fold.errors[code_index(ErrorCode::OutOfBounds)], 1);
        assert_eq!(fold.generation, 4);
        assert_eq!(fold.shards[1].requests, 5);
        assert_eq!(fold.shards[1].round_trip.count(), 1);
        assert_eq!(fold.shards[0].requests, 0);
    }

    #[test]
    fn prometheus_text_covers_every_family() {
        let h = Histogram::new();
        h.record(1_000);
        let snap = h.snapshot();
        let body = MetricsBody {
            requests: vec![RequestKindMetrics {
                kind: "lookup".into(),
                count: 7,
                latency: snap.clone(),
            }],
            errors: vec![ErrorCountBody {
                code: ErrorCode::OutOfBounds,
                count: 2,
            }],
            slow_queries: 1,
            generation: 3,
            // A cache block from an older peer still decodes, but no
            // longer renders any family.
            cache: Some(CacheStatsBody {
                hits: 5,
                misses: 4,
                evictions: 1,
                entries: 3,
                capacity: 64,
            }),
            shards: vec![ShardObsBody {
                shard: 0,
                kind: "replicas".into(),
                addr: Some("127.0.0.1:7878".into()),
                requests: 6,
                failures: 1,
                reconnects: 2,
                round_trip: snap.clone(),
                remote: None,
                replicas: Some(vec![fsi_proto::ReplicaHealthBody {
                    replica: 1,
                    kind: "http".into(),
                    addr: Some("127.0.0.1:7879".into()),
                    state: "open".into(),
                    consecutive_failures: 3,
                    attempts: 10,
                    failures: 4,
                    retries: 3,
                    hedges: 2,
                    hedge_wins: 1,
                    opens: 1,
                    half_opens: 0,
                    closes: 0,
                    latency: snap.clone(),
                }]),
            }],
            rebuild: RebuildObsBody {
                prepare: snap.clone(),
                commit: snap.clone(),
                abort: HistogramSnapshot::empty(),
            },
            http: Some(HttpObsBody {
                connections: 2,
                active: 1,
                requests: 9,
                read: snap.clone(),
                handle: snap.clone(),
                write: snap.clone(),
            }),
            ingest: Some(fsi_proto::IngestObsBody {
                accepted: 11,
                rejected: 2,
                buffered: 6,
                drift_score: 0.375,
                maintenance: snap,
            }),
        };
        let text = prometheus_text(&body);
        for needle in [
            "# TYPE fsi_requests_total counter\n",
            "fsi_requests_total{kind=\"lookup\"} 7\n",
            "fsi_request_latency_seconds{kind=\"lookup\",quantile=\"0.5\"} ",
            "fsi_request_latency_seconds_count{kind=\"lookup\"} 1\n",
            "fsi_errors_total{code=\"out_of_bounds\"} 2\n",
            "fsi_slow_queries_total 1\n",
            "fsi_generation 3\n",
            "fsi_shard_requests_total{shard=\"0\",backend=\"replicas\"} 6\n",
            "fsi_shard_failures_total{shard=\"0\",backend=\"replicas\"} 1\n",
            "fsi_shard_reconnects_total{shard=\"0\",backend=\"replicas\"} 2\n",
            "fsi_shard_round_trip_seconds_count{shard=\"0\",backend=\"replicas\"} 1\n",
            "fsi_resil_attempts_total{shard=\"0\",replica=\"1\"} 10\n",
            "fsi_resil_failures_total{shard=\"0\",replica=\"1\"} 4\n",
            "fsi_resil_retries_total{shard=\"0\",replica=\"1\"} 3\n",
            "fsi_resil_breaker_transitions_total{shard=\"0\",replica=\"1\",into=\"open\"} 1\n",
            "fsi_resil_breaker_transitions_total{shard=\"0\",replica=\"1\",into=\"closed\"} 0\n",
            "fsi_resil_breaker_state{shard=\"0\",replica=\"1\",state=\"open\"} 1\n",
            "fsi_resil_attempt_latency_seconds_count{shard=\"0\",replica=\"1\"} 1\n",
            "fsi_rebuild_phase_seconds_count{phase=\"prepare\"} 1\n",
            "fsi_rebuild_phase_seconds_count{phase=\"abort\"} 0\n",
            "fsi_http_connections_total 2\n",
            "fsi_http_active_connections 1\n",
            "fsi_http_requests_total 9\n",
            "fsi_http_phase_seconds_count{phase=\"write\"} 1\n",
            "fsi_ingest_accepted_total 11\n",
            "fsi_ingest_rejected_total 2\n",
            "fsi_ingest_buffered 6\n",
            "fsi_ingest_drift_score 0.375\n",
            "fsi_maintenance_rebuild_seconds_count 1\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("cache"), "{text}");
        // An older peer's hedge counters still decode, but render no
        // family: six `fsi_resil_*` families remain.
        assert!(!text.contains("hedge"), "{text}");
        let resil: std::collections::BTreeSet<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE fsi_resil_"))
            .filter_map(|rest| rest.split(' ').next())
            .collect();
        assert_eq!(
            resil.into_iter().collect::<Vec<_>>(),
            [
                "attempt_latency_seconds",
                "attempts_total",
                "breaker_state",
                "breaker_transitions_total",
                "failures_total",
                "retries_total",
            ]
        );
    }

    #[test]
    fn empty_bodies_render_without_optional_families() {
        let text = prometheus_text(&MetricsBody::empty());
        assert!(text.contains("fsi_slow_queries_total 0\n"));
        assert!(!text.contains("fsi_shard_requests_total"));
        assert!(!text.contains("fsi_http_requests_total"));
        assert!(!text.contains("fsi_ingest_accepted_total"));
        assert!(!text.contains("fsi_resil_attempts_total"));
    }

    #[test]
    fn slow_query_log_emits_structured_records() {
        let seen: Arc<std::sync::Mutex<Vec<SlowQueryRecord>>> = Arc::default();
        let sink_seen = Arc::clone(&seen);
        let log = SlowQueryLog::new(
            Duration::from_micros(1),
            Arc::new(move |r| sink_seen.lock().unwrap().push(r.clone())),
        );
        log.emit("lookup", 5_000);
        let records = seen.lock().unwrap();
        assert_eq!(
            *records,
            vec![SlowQueryRecord {
                kind: "lookup".into(),
                nanos: 5_000,
                threshold_nanos: 1_000,
            }]
        );
    }
}
