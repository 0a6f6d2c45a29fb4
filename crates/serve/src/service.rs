//! The transport-agnostic query service: every serving surface — text
//! REPL, HTTP, future RPC — decodes to an [`fsi_proto::Request`], calls
//! [`QueryService::dispatch`], and encodes the returned
//! [`fsi_proto::Response`]. Nothing else in the system answers queries.
//!
//! A service coordinates a [`Topology`] of [`ShardBackend`]s: point
//! lookups route to exactly one shard, batches and range queries
//! scatter-gather across the shards they touch and merge (threads are
//! spawned only to overlap transport round-trips — see
//! `QueryService::fanout`), stats report one row per shard, and (when
//! constructed with a dataset via [`QueryService::with_rebuild`])
//! rebuilds run a **two-phase generation barrier**: the coordinator
//! trains once, every shard stages the trained model before any shard
//! publishes, and so no client ever observes a mixed-generation fleet
//! mid-rebuild. A remote shard receives the model itself in a
//! [`Request::RebuildStage`], compiles it and trains nothing, so a shard
//! service needs no dataset. A local slot answers from this clone's
//! reader through `LocalShard::read`, the one place an in-process read
//! is answered; every other slot is forwarded to. Ingestion stays on
//! the coordinator: shards never see an `Ingest`, only the model a
//! maintenance rebuild trained on the seed and the per-cell ingest
//! counts.
//!
//! The service is **cheap to clone and single-threaded by design**:
//! each clone owns its per-shard [`IndexReader`]s, while the topology
//! (and thus the live indexes and remote connections) stays shared. A
//! transport spawns one clone per worker thread and dispatches without
//! any locking on the local hot path.

use crate::frozen::{Decision, FrozenIndex};
use crate::obs::{
    code_index, kind_index, saturating_nanos, MetricsFold, ServiceMetrics, SlowQueryLog,
    SlowQuerySink, KINDS, K_LOOKUP,
};
use crate::rebuild::build_index;
use crate::topology::{LocalShard, ShardBackend, Topology};
use crate::{IndexReader, RebuildReport, ServeError};
use fsi_core::CellStats;
use fsi_data::SpatialDataset;
use fsi_geo::Point;
use fsi_ingest::{
    baseline_stats, merge_counts, DeltaBuffer, DriftDetector, DriftReport, IngestError,
    MaintenanceSpec,
};
use fsi_obs::{Histogram, Recorder, Registry};
use fsi_pipeline::{MethodRun, PipelineError, PipelineSpec, TaskSpec};
use fsi_proto::{
    DecisionBody, ErrorBody, ErrorCode, ErrorCountBody, HealthBody, IngestBody, MetricsBody,
    ModelBody, PreparedBody, RebuildObsBody, Request, RequestKindMetrics, Response,
    ShardHealthBody, ShardObsBody, ShardStatsBody, StatsBody, WirePoint, WireRect,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default lookup latency sampling: one in 256 point lookups is timed
/// (counts stay exact — see [`QueryService::with_lookup_sampling`]).
/// 256 keeps the amortized clock reads under the obs bench suite's
/// ≤ 1.10x instrumented-dispatch budget.
const DEFAULT_SAMPLE_MASK: u64 = 255;

impl From<Decision> for DecisionBody {
    fn from(d: Decision) -> Self {
        DecisionBody {
            leaf_id: d.leaf_id,
            group: d.group,
            raw_score: d.raw_score,
            calibrated_score: d.calibrated_score,
        }
    }
}

impl From<DecisionBody> for Decision {
    fn from(d: DecisionBody) -> Self {
        Decision {
            leaf_id: d.leaf_id,
            group: d.group,
            raw_score: d.raw_score,
            calibrated_score: d.calibrated_score,
        }
    }
}

/// The streaming-ingestion state of a service, shared by every clone
/// (transport workers ingest concurrently).
///
/// The buffer holds the coordinator's per-cell ingest counts, merged
/// and pending. Every maintenance pass snapshots them, trains on the
/// seed merged with merged plus the pending snapshot, and stages the
/// trained model on every shard, so ingested points never leave the
/// coordinator. Only after the commit does the snapshot move into
/// merged and the baseline advance by it, so a failed pass changes
/// nothing.
struct IngestState {
    buffer: DeltaBuffer,
    /// Per-cell statistics of the currently *published* dataset (seed
    /// plus the merged counts) — what drift is measured against.
    /// Lock order: this, then the buffer's counts.
    baseline: Mutex<CellStats>,
}

impl IngestState {
    fn measure(&self) -> Result<DriftReport, IngestError> {
        let baseline = self.baseline.lock().expect("baseline lock poisoned");
        DriftDetector::new().measure(&baseline, &self.buffer)
    }
}

/// What one shard slot looks like from this service clone: a private
/// [`IndexReader`] over the local shard's handle (the lock-free hot
/// path, answered through [`LocalShard::read`]), or a marker that
/// queries must be forwarded through the topology's boxed backend.
/// `transport` records, once at construction, whether a socket sits
/// under that backend ([`ShardBackend::transport_stats`] is `Some`):
/// only those slots' round-trips are worth overlapping on threads in
/// [`QueryService::fanout`]. Replica sets of local shards and wrappers
/// over in-process backends have none.
enum ShardSlot {
    Local(IndexReader),
    Remote { transport: bool },
}

/// The one mapping from a slot's failed barrier phase to the barrier's
/// answer: the slot's own error code, prefixed with the slot index.
fn slot_failure(shard: usize, phase: &str, answer: Response) -> Response {
    match answer {
        Response::Error { error } => Response::error(
            error.code,
            format!("shard {shard} failed to {phase}: {}", error.message),
        ),
        _ => Response::error(
            ErrorCode::Internal,
            format!("shard {shard} answered an unexpected {phase} response"),
        ),
    }
}

/// Dispatches typed protocol requests against a topology of shard
/// backends. See the module docs for the design.
pub struct QueryService {
    topology: Arc<Topology>,
    slots: Vec<ShardSlot>,
    rebuild_dataset: Option<Arc<SpatialDataset>>,
    /// Optional streaming-ingestion state, shared across clones.
    ingest: Option<Arc<IngestState>>,
    /// This clone's telemetry shard in the registry every clone shares;
    /// `None` only when metrics were explicitly disabled
    /// ([`QueryService::with_metrics`]).
    obs: Option<Recorder<ServiceMetrics>>,
    /// Dispatch counter driving lookup latency sampling; also the
    /// high-water mark the batched lookup count is derived from
    /// (`tick - flushed_tick`), so the fast path pays exactly one
    /// counter bump per lookup.
    tick: u64,
    /// `tick` as of the last counter flush.
    flushed_tick: u64,
    /// `tick & sample_mask == 0` selects the lookups that are timed
    /// (and flush the pending count); always a power of two minus one.
    sample_mask: u64,
    /// Threshold-gated slow-query log; off by default.
    slow: Option<SlowQueryLog>,
}

impl QueryService {
    /// Creates a service over a [`Topology`], without rebuild support:
    /// `Rebuild` requests answer a structured
    /// [`ErrorCode::RebuildUnavailable`] error.
    pub fn new(topology: Topology) -> Self {
        Self::over(Arc::new(topology), None)
    }

    /// Enables spec-driven rebuilds: a `Rebuild{spec}` request retrains
    /// the pipeline on `dataset` and publishes the trained model to
    /// every shard through the two-phase barrier, and a `RebuildPrepare`
    /// stages one by hand. Only a coordinator needs this: a shard stages
    /// the model its coordinator ships ([`Request::RebuildStage`]) with
    /// no dataset of its own.
    #[must_use]
    pub fn with_rebuild(mut self, dataset: Arc<SpatialDataset>) -> Self {
        self.rebuild_dataset = Some(dataset);
        self
    }

    /// Enables streaming ingestion: `Ingest` / `IngestBatch` requests
    /// count into the coordinator's per-cell ingest state (with live
    /// drift statistics against the `task` baseline), and
    /// [`QueryService::maintain`] folds the pending counts into a full
    /// two-phase rebuild when the policy triggers. Requires a training
    /// dataset ([`QueryService::with_rebuild`] first) — the buffer
    /// validates points against its grid, and maintenance merges into
    /// it.
    pub fn with_ingest(mut self, task: TaskSpec) -> Result<Self, ServeError> {
        let dataset = self
            .rebuild_dataset
            .as_ref()
            .ok_or(ServeError::Ingest(IngestError::MissingDataset))?;
        self.ingest = Some(Arc::new(IngestState {
            buffer: DeltaBuffer::new(dataset.grid().clone()),
            baseline: Mutex::new(baseline_stats(dataset, &task)?),
        }));
        Ok(self)
    }

    /// Whether streaming ingestion is configured
    /// ([`QueryService::with_ingest`]).
    pub fn ingest_enabled(&self) -> bool {
        self.ingest.is_some()
    }

    /// Telemetry is **on by default** — it is cheap enough to leave on
    /// (the `serving/obs_*` bench suite pins instrumented dispatch at
    /// ≤ 1.10× the uninstrumented path). `false` strips the recorder
    /// entirely: the service dispatches exactly as it did before the
    /// observability layer existed and `Metrics` requests answer the
    /// all-zero snapshot.
    #[must_use]
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        if !enabled {
            self.obs = None;
        } else if self.obs.is_none() {
            let n_shards = self.slots.len();
            self.obs = Some(Registry::new(move || ServiceMetrics::new(n_shards)).recorder());
        }
        self
    }

    /// Times one in `every` point lookups (rounded up to a power of
    /// two; the default is 256). A lookup costs tens of nanoseconds and
    /// two clock reads would dwarf it, so lookup *latency* is sampled
    /// while lookup *counts* stay exact — they are batched locally and
    /// flushed on every sampled lookup, on every non-lookup request,
    /// and on every scrape. `1` times every lookup (the concurrency
    /// tests use this so histogram totals equal request counts).
    #[must_use]
    pub fn with_lookup_sampling(mut self, every: u64) -> Self {
        self.sample_mask = every.max(1).next_power_of_two() - 1;
        self
    }

    /// Installs a slow-query log: any request whose dispatch takes at
    /// least `threshold` is counted (`fsi_slow_queries_total`) and
    /// handed to `sink` as a structured
    /// [`SlowQueryRecord`](crate::SlowQueryRecord). Off by default.
    /// Enabling it forces every lookup to be timed — sampling would
    /// miss slow outliers, which are the whole point of the log.
    #[must_use]
    pub fn with_slow_query_log(mut self, threshold: Duration, sink: SlowQuerySink) -> Self {
        self.slow = Some(SlowQueryLog::new(threshold, sink));
        self.sample_mask = 0;
        self
    }

    fn over(topology: Arc<Topology>, rebuild_dataset: Option<Arc<SpatialDataset>>) -> Self {
        let slots: Vec<ShardSlot> = topology
            .backends()
            .iter()
            .map(|b| match b.as_local() {
                Some(local) => ShardSlot::Local(local.reader()),
                None => ShardSlot::Remote {
                    transport: b.transport_stats().is_some(),
                },
            })
            .collect();
        let n_shards = slots.len();
        Self {
            topology,
            slots,
            rebuild_dataset,
            ingest: None,
            obs: Some(Registry::new(move || ServiceMetrics::new(n_shards)).recorder()),
            tick: 0,
            flushed_tick: 0,
            sample_mask: DEFAULT_SAMPLE_MASK,
            slow: None,
        }
    }

    /// The topology behind this service.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Answers one request. Never panics and never fails at the Rust
    /// level: every failure becomes a [`Response::Error`] with a
    /// machine-readable [`ErrorCode`], so transports can stay thin.
    ///
    /// `#[inline]` so a caller with a statically known request shape
    /// (the benches, the batch loops) folds the variant match away and
    /// builds the `Response` in place instead of memcpying it twice —
    /// without LTO this call is otherwise an opaque cross-crate boundary
    /// on the lookup hot path.
    #[inline]
    pub fn dispatch(&mut self, request: &Request) -> Response {
        if self.obs.is_none() {
            return self.dispatch_inner(request);
        }
        self.dispatch_observed(request)
    }

    /// The raw dispatch match — what [`QueryService::with_metrics`]
    /// `(false)` services run directly.
    #[inline]
    fn dispatch_inner(&mut self, request: &Request) -> Response {
        match request {
            Request::Lookup { x, y } => self.lookup_with(*x, *y, false),
            Request::LookupBatch { points } => self.lookup_batch(request, points),
            Request::RangeQuery { rect } => self.range_query(rect),
            Request::Ingest { x, y, group, label } => self.ingest(*x, *y, *group, *label),
            Request::IngestBatch { points } => self.ingest_batch(points),
            Request::Stats => self.stats(),
            Request::Rebuild { spec } => self.rebuild(spec),
            Request::RebuildPrepare { spec, .. } => self.rebuild_prepare(spec),
            Request::RebuildStage { model } => self.rebuild_stage(request, model),
            Request::RebuildCommit => self.rebuild_commit(),
            Request::RebuildAbort => self.rebuild_abort(),
            Request::Metrics => self.metrics(),
            Request::Health => Response::Health {
                health: Box::new(self.health_body()),
            },
        }
    }

    /// Instrumented dispatch. Point lookups keep the hot path cheap by
    /// batching their count and sampling their latency; every other
    /// kind is counted and timed per request. The writer order — count
    /// added **before** the histogram records — pairs with the scrape's
    /// histogram-before-counter read, so a torn concurrent scrape can
    /// only under-report latencies relative to counts, never the
    /// reverse.
    #[inline]
    fn dispatch_observed(&mut self, request: &Request) -> Response {
        if let Request::Lookup { x, y } = request {
            if self.slow.is_none() {
                self.tick = self.tick.wrapping_add(1);
                if self.tick & self.sample_mask != 0 {
                    // Tail call: inspecting the returned `Response` here
                    // would force it through a local (one large-enum
                    // memcpy per lookup, ~25% of the whole dispatch), so
                    // the error counting rides inside `lookup_with`'s
                    // cold arms instead.
                    return self.lookup_with(*x, *y, true);
                }
                return self.sampled_lookup(*x, *y);
            }
        }
        self.dispatch_timed(request)
    }

    /// The error-count side channel of the unsampled lookup fast path.
    /// `#[cold]` keeps it (and the recorder deref) out of the inlined
    /// hot loop — the bench gate holds instrumented dispatch at ≤ 1.10x
    /// the uninstrumented path, and every instruction on the fast path
    /// counts against that budget.
    #[cold]
    fn count_error(&self, code: ErrorCode) {
        if let Some(obs) = &self.obs {
            obs.errors[code_index(code)].inc();
        }
    }

    /// The 1-in-`sample_mask+1` timed lookup: records the latency sample
    /// and flushes the batched count. Out of line for the same reason as
    /// [`Self::count_error`].
    #[inline(never)]
    fn sampled_lookup(&mut self, x: f64, y: f64) -> Response {
        let started = Instant::now();
        let response = self.lookup_with(x, y, false);
        let nanos = saturating_nanos(started.elapsed());
        let pend = self.take_pending();
        let obs = self.obs.as_ref().expect("dispatch checked obs");
        obs.requests[K_LOOKUP].add(pend);
        obs.latency[K_LOOKUP].record(nanos);
        if let Response::Error { error } = &response {
            obs.errors[code_index(error.code)].inc();
        }
        response
    }

    /// Per-request counting and timing for every non-fast-path request
    /// (all non-lookup kinds, and every request once a slow-query log
    /// forces full timing).
    #[inline(never)]
    fn dispatch_timed(&mut self, request: &Request) -> Response {
        let kind = kind_index(request);
        let started = Instant::now();
        let response = self.dispatch_inner(request);
        let nanos = saturating_nanos(started.elapsed());
        let pend = self.take_pending();
        let obs = self.obs.as_ref().expect("dispatch checked obs");
        if pend > 0 {
            obs.requests[K_LOOKUP].add(pend);
        }
        obs.requests[kind].inc();
        obs.latency[kind].record(nanos);
        if let Response::Error { error } = &response {
            obs.errors[code_index(error.code)].inc();
        }
        if let Some(slow) = &self.slow {
            if nanos >= slow.threshold_nanos {
                obs.slow_queries.inc();
                slow.emit(KINDS[kind], nanos);
            }
        }
        response
    }

    /// Flushes the batched lookup count into the recorder, so a scrape
    /// reads exact totals.
    fn flush_pending(&mut self) {
        let pend = self.take_pending();
        if pend > 0 {
            if let Some(obs) = &self.obs {
                obs.requests[K_LOOKUP].add(pend);
            }
        }
    }

    /// Lookups dispatched since the last flush (the `tick` delta),
    /// resetting the window.
    #[inline]
    fn take_pending(&mut self) -> u64 {
        let pend = self.tick.wrapping_sub(self.flushed_tick);
        self.flushed_tick = self.tick;
        pend
    }

    /// Forwards one request to the backend of a remote shard slot,
    /// timing the round-trip into the per-shard telemetry (see
    /// [`Self::account`]).
    fn remote_dispatch(&self, shard: usize, request: &Request) -> Response {
        let backend = &self.topology.backends()[shard];
        if self.obs.is_none() {
            return backend.dispatch(request);
        }
        let started = Instant::now();
        let response = backend.dispatch(request);
        self.account(shard, response, saturating_nanos(started.elapsed()))
    }

    /// Records one forwarded round-trip in the per-shard telemetry and
    /// counts transport failures. An `internal`-code failure
    /// additionally gains the shard index and address in its message,
    /// so a multi-shard fleet's transport errors are attributable from
    /// the error body alone; every other code (out-of-bounds,
    /// not-prepared, …) passes through untouched — those are the
    /// shard's own answers, not transport context.
    fn account(&self, shard: usize, response: Response, nanos: u64) -> Response {
        let Some(obs) = &self.obs else {
            return response;
        };
        let sm = &obs.shards[shard];
        sm.requests.inc();
        sm.round_trip.record(nanos);
        match response {
            Response::Error { error } if error.code == ErrorCode::Internal => {
                sm.failures.inc();
                let addr = self.topology.backends()[shard]
                    .descriptor()
                    .addr
                    .unwrap_or_else(|| "<no addr>".into());
                Response::error(
                    ErrorCode::Internal,
                    format!("shard {shard} at {addr}: {}", error.message),
                )
            }
            other => other,
        }
    }

    /// Runs `call` for each `(shard, job)` against its slot's backend
    /// and returns the answers paired with their slot index, in job
    /// order. Each answer passes through `record` with the call's
    /// wall-clock nanoseconds (0 when metrics are off) on the calling
    /// worker.
    ///
    /// Threads are spawned only where there is I/O to overlap. Jobs on
    /// in-process slots answer inline on the calling worker: their work
    /// takes microseconds, while spawning and joining a scoped thread
    /// costs 100 µs or more. Jobs on transport-backed slots overlap
    /// their round-trips: each but the last runs on a scoped thread and
    /// the caller runs the last one itself, so `k` transport-backed
    /// jobs cost `k − 1` spawns.
    fn fanout<J: Sync>(
        &self,
        jobs: &[(usize, J)],
        call: impl Fn(&dyn ShardBackend, &J) -> Response + Sync,
        record: impl Fn(usize, Response, u64) -> Response,
    ) -> Vec<(usize, Response)> {
        let mut spawn: Vec<bool> = jobs
            .iter()
            .map(|(shard, _)| matches!(self.slots[*shard], ShardSlot::Remote { transport: true }))
            .collect();
        if let Some(last) = spawn.iter().rposition(|&s| s) {
            spawn[last] = false;
        }
        let backends = self.topology.backends();
        let timed = self.obs.is_some();
        let run = |shard: usize, job: &J| {
            let started = timed.then(Instant::now);
            let response = call(backends[shard].as_ref(), job);
            (
                response,
                started.map_or(0, |s| saturating_nanos(s.elapsed())),
            )
        };
        let run = &run;
        std::thread::scope(|scope| {
            let workers: Vec<_> = jobs
                .iter()
                .zip(&spawn)
                .enumerate()
                .filter(|(_, (_, &spawn))| spawn)
                .map(|(k, ((shard, job), _))| (k, scope.spawn(move || run(*shard, job))))
                .collect();
            let mut answers: Vec<Option<Response>> = jobs
                .iter()
                .zip(&spawn)
                .map(|((shard, job), &spawn)| {
                    (!spawn).then(|| {
                        let (response, nanos) = run(*shard, job);
                        record(*shard, response, nanos)
                    })
                })
                .collect();
            for (k, worker) in workers {
                let (response, nanos) = worker.join().expect("fan-out worker panicked");
                answers[k] = Some(record(jobs[k].0, response, nanos));
            }
            jobs.iter()
                .zip(answers)
                .map(|((shard, _), answer)| (*shard, answer.expect("every fan-out job answered")))
                .collect()
        })
    }

    /// One request answered by one slot: a local slot answers from this
    /// clone's reader through [`LocalShard::read`], any other slot
    /// through [`Self::remote_dispatch`].
    fn answer(&mut self, shard: usize, request: &Request) -> Response {
        match &mut self.slots[shard] {
            ShardSlot::Local(reader) => {
                let (index, generation) = reader.snapshot_with_generation();
                LocalShard::read(index, generation, request)
            }
            ShardSlot::Remote { .. } => self.remote_dispatch(shard, request),
        }
    }

    /// Answers each `(shard, request)` job on its slot and pairs every
    /// answer with its slot index: local slots first, through
    /// [`Self::answer`], then the rest through [`Self::fanout`] with
    /// exactly the telemetry of [`Self::remote_dispatch`].
    fn scatter(&mut self, jobs: Vec<(usize, Request)>) -> Vec<(usize, Response)> {
        let (local, remote): (Vec<_>, Vec<_>) = jobs
            .into_iter()
            .partition(|(shard, _)| matches!(self.slots[*shard], ShardSlot::Local(_)));
        let mut answers: Vec<(usize, Response)> = local
            .into_iter()
            .map(|(shard, request)| (shard, self.answer(shard, &request)))
            .collect();
        answers.extend(self.fanout(
            &remote,
            |backend, request| backend.dispatch(request),
            |shard, response, nanos| self.account(shard, response, nanos),
        ));
        answers
    }

    /// Point lookup. `count_errors` additionally bumps the per-code
    /// error counter in the (cold) error arms — the instrumented fast
    /// path passes `true` so its caller can return this tail call
    /// as-is instead of inspecting (and memcpying) the response; every
    /// other caller passes `false` and counts at its own layer. The
    /// flag is a compile-time constant at each inlined call site.
    #[inline]
    fn lookup_with(&mut self, x: f64, y: f64, count_errors: bool) -> Response {
        let p = Point::new(x, y);
        // Single-shard fast path: the index's (or the remote's) own
        // bounds check makes the routing step redundant.
        let shard = if self.slots.len() == 1 {
            Some(0)
        } else {
            self.topology.shard_of(&p)
        };
        let decision = match shard {
            Some(shard) => {
                if matches!(self.slots[shard], ShardSlot::Remote { .. }) {
                    let response = self.remote_dispatch(shard, &Request::Lookup { x, y });
                    if count_errors {
                        if let Response::Error { error } = &response {
                            self.count_error(error.code);
                        }
                    }
                    return response;
                }
                match &mut self.slots[shard] {
                    ShardSlot::Local(reader) => reader.snapshot().lookup(&p),
                    ShardSlot::Remote { .. } => None,
                }
            }
            None => None,
        };
        match decision {
            Some(decision) => Response::Decision {
                decision: decision.into(),
            },
            None => {
                if count_errors {
                    self.count_error(ErrorCode::OutOfBounds);
                }
                LocalShard::out_of_bounds(x, y)
            }
        }
    }

    fn lookup_batch(&mut self, request: &Request, points: &[WirePoint]) -> Response {
        // One slot owns every point, so it answers the batch as sent.
        if self.slots.len() == 1 {
            return self.answer(0, request);
        }
        // Scatter-gather: each slot answers the sub-batch of the points
        // it owns, and the answers are read back in batch order.
        let mut owners: Vec<usize> = Vec::with_capacity(points.len());
        let mut subs: Vec<Vec<WirePoint>> = vec![Vec::new(); self.slots.len()];
        for (i, wp) in points.iter().enumerate() {
            let Some(shard) = self.topology.shard_of(&Point::new(wp.x, wp.y)) else {
                return LocalShard::batch_out_of_bounds(i, wp);
            };
            owners.push(shard);
            subs[shard].push(*wp);
        }
        let sent: Vec<usize> = subs.iter().map(Vec::len).collect();
        let jobs: Vec<(usize, Request)> = subs
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(shard, points)| (shard, Request::LookupBatch { points }))
            .collect();
        let mut answers: Vec<std::vec::IntoIter<DecisionBody>> =
            sent.iter().map(|_| Vec::new().into_iter()).collect();
        for (shard, response) in self.scatter(jobs) {
            match response {
                Response::Decisions { decisions } if decisions.len() == sent[shard] => {
                    answers[shard] = decisions.into_iter();
                }
                Response::Error { error } if error.code == ErrorCode::OutOfBounds => {
                    // The slot names the offender by its *sub-batch*
                    // index; re-localize to the original batch position
                    // by probing the slot's points one by one.
                    for (i, wp) in points.iter().enumerate() {
                        if owners[i] == shard
                            && self
                                .answer(shard, &Request::Lookup { x: wp.x, y: wp.y })
                                .is_error()
                        {
                            return LocalShard::batch_out_of_bounds(i, wp);
                        }
                    }
                    return Response::Error { error };
                }
                Response::Error { error } => return Response::Error { error },
                _ => {
                    return Response::error(
                        ErrorCode::Internal,
                        format!("shard {shard} answered an unexpected batch response"),
                    )
                }
            }
        }
        Response::Decisions {
            decisions: owners
                .iter()
                .map(|&shard| {
                    answers[shard]
                        .next()
                        .expect("every routed point was answered")
                })
                .collect(),
        }
    }

    /// The error an ingest answers on a service built without
    /// [`QueryService::with_ingest`].
    fn ingest_unavailable() -> Response {
        Response::error(
            ErrorCode::RebuildUnavailable,
            "this service was built without streaming ingestion; \
             construct it with a training dataset and task",
        )
    }

    /// The newest generation readable in-process: local shards and the
    /// in-process members of replica slots. Remote generations would
    /// cost a round-trip, and they move in lockstep under the two-phase
    /// barrier anyway.
    fn in_process_generation(&self) -> u64 {
        self.topology
            .backends()
            .iter()
            .filter_map(|backend| backend.in_process_generation())
            .max()
            .unwrap_or(0)
    }

    /// The `Ingested` acknowledgement: this request's accept count, the
    /// number of pending points and the in-process generation.
    fn ingested(&self, state: &IngestState, accepted: u64) -> Response {
        Response::Ingested {
            accepted,
            buffered: state.buffer.occupancy(),
            generation: self.in_process_generation(),
        }
    }

    /// One streamed observation into the coordinator's ingest counts.
    /// Out-of-bounds points are a structured error (mirroring `Lookup`).
    /// Shards never see the point: the coordinator's counts are the one
    /// source of truth, and shards stage the model the next maintenance
    /// rebuild trains on them.
    fn ingest(&self, x: f64, y: f64, group: u32, label: bool) -> Response {
        let Some(state) = &self.ingest else {
            return Self::ingest_unavailable();
        };
        if state.buffer.accept(x, y, group, label).is_none() {
            return LocalShard::out_of_bounds(x, y);
        }
        self.ingested(state, 1)
    }

    /// The bulk write path. Out-of-bounds points are skipped, not
    /// fatal: `accepted` reports how many landed and the rejected tally
    /// is scraped via the ingest telemetry.
    fn ingest_batch(&self, points: &[IngestBody]) -> Response {
        let Some(state) = &self.ingest else {
            return Self::ingest_unavailable();
        };
        let accepted = points
            .iter()
            .filter(|b| state.buffer.accept(b.x, b.y, b.group, b.label).is_some())
            .count();
        self.ingested(state, accepted as u64)
    }

    fn range_query(&mut self, rect: &WireRect) -> Response {
        let query = match LocalShard::query_rect(rect) {
            Ok(query) => query,
            Err(error) => return error,
        };
        let jobs: Vec<(usize, Request)> = self
            .topology
            .covering(&query)
            .into_iter()
            .map(|shard| (shard, Request::RangeQuery { rect: *rect }))
            .collect();
        let mut ids: Vec<usize> = Vec::new();
        for (shard, response) in self.scatter(jobs) {
            match response {
                Response::Regions { ids: shard_ids } => ids.extend(shard_ids),
                Response::Error { error } => return Response::Error { error },
                _ => {
                    return Response::error(
                        ErrorCode::Internal,
                        format!("shard {shard} answered an unexpected range response"),
                    )
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Response::Regions { ids }
    }

    fn stats(&mut self) -> Response {
        self.flush_pending();
        let jobs: Vec<(usize, Request)> = (0..self.slots.len())
            .map(|shard| (shard, Request::Stats))
            .collect();
        let mut answers = self.scatter(jobs);
        answers.sort_unstable_by_key(|&(shard, _)| shard);
        let per_shard: Vec<ShardStatsBody> = answers
            .into_iter()
            .map(|(shard, response)| {
                // Graceful degradation: a dead shard marks its own row
                // instead of failing the whole scatter-gather, so the
                // live part of the fleet still reports.
                let (stats, error) = match response {
                    Response::Stats { stats } => (Some(stats), None),
                    Response::Error { error } => (None, Some(error.message)),
                    _ => (
                        None,
                        Some(format!(
                            "shard {shard} answered an unexpected stats response"
                        )),
                    ),
                };
                let d = self.topology.backends()[shard].descriptor();
                ShardStatsBody {
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    generation: stats
                        .as_ref()
                        .map_or(0, |s| s.generations.first().copied().unwrap_or(0)),
                    num_leaves: stats.as_ref().map_or(0, |s| s.num_leaves),
                    heap_bytes: stats.as_ref().map_or(0, |s| s.heap_bytes),
                    backend: stats.map_or_else(|| "unreachable".to_string(), |s| s.backend),
                    unreachable: error.is_some().then_some(true),
                    error,
                }
            })
            .collect();
        let generations = per_shard.iter().map(|s| s.generation).collect();
        // Shard-0 convention for the flat summary fields, kept from the
        // replica era so v1 clients keep decoding something sensible;
        // topology-aware clients read `per_shard`.
        let first = &per_shard[0];
        Response::Stats {
            stats: Box::new(StatsBody {
                shards: self.slots.len(),
                generations,
                num_leaves: first.num_leaves,
                heap_bytes: first.heap_bytes,
                backend: first.backend.clone(),
                cache: None,
                per_shard: Some(per_shard),
                // The answering worker's merged local snapshot (no
                // remote scatter-gather — that is what `Metrics` is
                // for); absent when metrics are disabled, exactly like
                // a pre-observability peer's stats.
                metrics: self.obs.is_some().then(|| Box::new(self.snapshot_body())),
                health: Some(Box::new(self.health_body())),
            }),
        }
    }

    /// The fleet health picture, answered entirely from
    /// coordinator-local state — replica-set breaker atomics for
    /// resilient slots, a synthesized `"up"` row for plain backends —
    /// with **no** scatter-gather, so it stays cheap enough to poll
    /// aggressively during the very outage it is reporting on.
    fn health_body(&self) -> HealthBody {
        let shards = self
            .topology
            .backends()
            .iter()
            .enumerate()
            .map(|(shard, b)| match b.health() {
                Some(mut h) => {
                    h.shard = shard;
                    h
                }
                None => {
                    let d = b.descriptor();
                    ShardHealthBody {
                        shard,
                        kind: d.kind.to_string(),
                        addr: d.addr,
                        state: "up".to_string(),
                        replicas: Vec::new(),
                    }
                }
            })
            .collect();
        HealthBody { shards }
    }

    /// Answer to [`Request::Metrics`]: the worker-merged snapshot of
    /// this service's registry, with each remote shard's own snapshot
    /// scatter-gathered into
    /// [`ShardObsBody::remote`](fsi_proto::ShardObsBody) so one scrape
    /// of the coordinator sees the whole fleet.
    fn metrics(&mut self) -> Response {
        self.flush_pending();
        let mut body = self.snapshot_body();
        if self.obs.is_some() {
            let jobs: Vec<(usize, Request)> = (0..self.slots.len())
                .filter(|&shard| matches!(self.slots[shard], ShardSlot::Remote { .. }))
                .map(|shard| (shard, Request::Metrics))
                .collect();
            for (shard, response) in self.scatter(jobs) {
                if let Response::Metrics { metrics } = response {
                    body.shards[shard].remote = Some(metrics);
                }
            }
        }
        Response::Metrics {
            metrics: Box::new(body),
        }
    }

    /// The merged telemetry snapshot of every worker clone sharing this
    /// service's registry — counts summed, histograms merged, the
    /// generation gauge folded with the live local shard generations.
    /// Purely local: remote shards appear with the coordinator-side
    /// view only (`remote: None`); dispatch a [`Request::Metrics`] for
    /// the scatter-gathered fleet snapshot. Unflushed batched lookup
    /// counts from *other* clones may lag by up to the sampling
    /// interval; this clone's are flushed first.
    pub fn metrics_snapshot(&mut self) -> MetricsBody {
        self.flush_pending();
        self.snapshot_body()
    }

    fn snapshot_body(&self) -> MetricsBody {
        let Some(obs) = &self.obs else {
            return MetricsBody::empty();
        };
        let fold = MetricsFold::collect(obs.registry(), self.slots.len());
        let generation = fold.generation.max(self.in_process_generation());
        // A scrape measures drift afresh, so the gauge is live even when
        // no maintenance thread is polling.
        let ingest = self.ingest.as_ref().map(|state| fsi_proto::IngestObsBody {
            accepted: state.buffer.accepted(),
            rejected: state.buffer.rejected(),
            buffered: state.buffer.occupancy(),
            drift_score: state.measure().map_or(0.0, |r| r.score),
            maintenance: fold.maintenance.clone(),
        });
        let shards = fold
            .shards
            .into_iter()
            .enumerate()
            .map(|(shard, sf)| {
                let backend = &self.topology.backends()[shard];
                let d = backend.descriptor();
                let transport = backend.transport_stats().unwrap_or_default();
                ShardObsBody {
                    shard,
                    kind: d.kind.to_string(),
                    addr: d.addr,
                    requests: sf.requests,
                    failures: sf.failures,
                    reconnects: transport.reconnects,
                    round_trip: sf.round_trip,
                    remote: None,
                    replicas: backend.health().map(|h| h.replicas),
                }
            })
            .collect();
        MetricsBody {
            requests: KINDS
                .iter()
                .zip(fold.requests)
                .zip(fold.latency)
                .map(|((kind, count), latency)| RequestKindMetrics {
                    kind: (*kind).to_string(),
                    count,
                    latency,
                })
                .collect(),
            errors: crate::obs::CODES
                .iter()
                .zip(fold.errors)
                .filter(|(_, count)| *count > 0)
                .map(|(code, count)| ErrorCountBody { code: *code, count })
                .collect(),
            slow_queries: fold.slow_queries,
            generation,
            cache: None,
            shards,
            rebuild: RebuildObsBody {
                prepare: fold.prepare,
                commit: fold.commit,
                abort: fold.abort,
            },
            http: None,
            ingest,
        }
    }

    /// Trains `spec` on the rebuild dataset merged with the per-cell
    /// `(count, positive)` ingest sums `cells` ([`merge_counts`]; `None`
    /// trains on the seed itself), with labels read under `spec.task`.
    /// Answers the compiled index, the run behind it and the
    /// [`Request::RebuildStage`] that ships the same model to forwarded
    /// slots. The one mapping from training failures to protocol errors.
    fn train(
        &self,
        spec: &PipelineSpec,
        cells: Option<&(Vec<f64>, Vec<f64>)>,
    ) -> Result<(FrozenIndex, MethodRun, Request), Response> {
        let Some(seed) = self.rebuild_dataset.as_deref() else {
            return Err(Response::error(
                ErrorCode::RebuildUnavailable,
                "this service was built without a training dataset; rebuilds are disabled",
            ));
        };
        let merged = cells
            .map(|cells| merge_counts(seed, &spec.task, cells))
            .transpose()
            .map_err(|e| {
                Response::error(ErrorCode::Internal, format!("delta merge failed: {e}"))
            })?;
        let dataset = merged.as_ref().unwrap_or(seed);
        let (index, run) = build_index(dataset, spec).map_err(|e| match e {
            ServeError::Pipeline(PipelineError::InvalidConfig(msg)) => {
                Response::error(ErrorCode::InvalidSpec, msg)
            }
            e => Response::error(ErrorCode::Internal, e.to_string()),
        })?;
        let snapshot = run
            .model_snapshot()
            .map_err(|e| Response::error(ErrorCode::Internal, e.to_string()))?;
        let model = Box::new(ModelBody {
            grid: dataset.grid().clone(),
            partition: run.partition.clone(),
            snapshot,
        });
        Ok((index, run, Request::RebuildStage { model }))
    }

    /// Phase one on every slot, through [`Self::fanout`]: in-process
    /// backends stage `index`, and the rest receive `request` (the
    /// [`Request::RebuildStage`] carrying the model `index` was compiled
    /// from), on overlapping threads when a transport sits underneath.
    /// Any failure aborts every slot. Returns each slot's staged report.
    fn prepare_all(
        &self,
        index: &FrozenIndex,
        request: &Request,
    ) -> Result<Vec<PreparedBody>, Response> {
        let jobs: Vec<(usize, ())> = (0..self.slots.len()).map(|shard| (shard, ())).collect();
        let answers = self.fanout(
            &jobs,
            |backend, ()| backend.prepare(index, request),
            |_, answer, nanos| {
                self.record_phase(|m| &m.rebuild_prepare, nanos);
                answer
            },
        );
        let mut staged = Vec::with_capacity(answers.len());
        for (shard, answer) in answers {
            match answer {
                Response::Prepared { prepared } => staged.push(*prepared),
                other => {
                    self.abort_all();
                    return Err(slot_failure(shard, "prepare", other));
                }
            }
        }
        Ok(staged)
    }

    /// Phase two on every slot: publish what the prepare staged and
    /// answer the newest generation. A slot with nothing staged answers
    /// [`ErrorCode::NotPrepared`].
    fn commit_all(&self) -> Result<u64, Response> {
        let mut newest = 0;
        for (shard, backend) in self.topology.backends().iter().enumerate() {
            let started = Instant::now();
            let answer = backend.dispatch(&Request::RebuildCommit);
            self.record_phase(|m| &m.rebuild_commit, saturating_nanos(started.elapsed()));
            match answer {
                Response::Committed { generation } => newest = newest.max(generation),
                other => return Err(slot_failure(shard, "commit", other)),
            }
        }
        if let Some(obs) = &self.obs {
            obs.generation.raise(newest);
        }
        Ok(newest)
    }

    /// Drops staged state on every slot. Abort is idempotent and an
    /// unreachable slot is skipped (it has nothing durable to publish),
    /// so this is always safe after a partial prepare.
    fn abort_all(&self) {
        for backend in self.topology.backends() {
            let started = Instant::now();
            let _ = backend.dispatch(&Request::RebuildAbort);
            self.record_phase(|m| &m.rebuild_abort, saturating_nanos(started.elapsed()));
        }
    }

    /// Records one shard-phase duration into a rebuild histogram.
    fn record_phase(&self, phase: fn(&ServiceMetrics) -> &Histogram, nanos: u64) {
        if let Some(obs) = &self.obs {
            phase(obs).record(nanos);
        }
    }

    /// The coordinator barrier behind `Rebuild` and
    /// [`QueryService::maintain`], run under the topology's barrier lock
    /// from training to commit. With ingestion configured it is a
    /// maintenance pass: it snapshots the per-cell counts, the index
    /// trains on the seed merged with merged plus pending snapshot, and
    /// every slot stages that one trained model. Only after the commit
    /// does the snapshot move into merged and the baseline advance by
    /// it — the sums are integer-valued, so this equals
    /// `baseline_stats` over the merged dataset bit for bit. Points
    /// accepted during the pass stay pending. On failure nothing
    /// changes: the old generation keeps serving and every point stays
    /// pending, counted once.
    fn rebuild(&self, spec: &PipelineSpec) -> Response {
        let started = Instant::now();
        let _barrier = self.topology.lock_barrier();
        let counts = self.ingest.as_ref().map(|state| state.buffer.pass_counts());
        let published = self
            .train(spec, counts.as_ref().map(|[all, _]| all))
            .and_then(|(index, run, stage)| {
                self.prepare_all(&index, &stage)?;
                Ok((index, run, self.commit_all()?))
            });
        let (index, run, generation) = match published {
            Ok(published) => published,
            Err(response) => return response,
        };
        if let (Some(state), Some([_, snapshot])) = (&self.ingest, &counts) {
            let mut baseline = state.baseline.lock().expect("baseline lock poisoned");
            state.buffer.mark_merged(snapshot);
            let zeros = vec![0.0; snapshot.0.len()];
            match baseline.with_deltas(state.buffer.grid(), &snapshot.0, &zeros, &snapshot.1) {
                Ok(advanced) => *baseline = advanced,
                Err(e) => return Response::error(ErrorCode::Internal, e.to_string()),
            }
        }
        Response::Rebuilt {
            report: Box::new(RebuildReport {
                spec: spec.clone(),
                generation,
                num_leaves: index.num_leaves(),
                ence: run.eval.full.ence,
                build_time: run.build_time,
                total_time: started.elapsed(),
            }),
        }
    }

    /// One maintenance poll: measure drift against the published baseline,
    /// check the policy's triggers, and — when one fires — fold the
    /// pending counts into a full two-phase rebuild. Returns the new generation
    /// when a rebuild published, `None` when nothing was due. The
    /// background driver ([`crate::MaintenanceHandle`]) calls this on
    /// the policy's poll cadence; callers can also invoke it directly
    /// for deterministic tests.
    pub fn maintain(
        &mut self,
        policy: &MaintenanceSpec,
        spec: &PipelineSpec,
    ) -> Result<Option<u64>, ServeError> {
        let Some(state) = self.ingest.as_ref().map(Arc::clone) else {
            return Err(ServeError::IngestUnavailable);
        };
        let report = state.measure()?;
        if policy
            .due(report.score, report.buffered, state.buffer.oldest_age())
            .is_none()
        {
            return Ok(None);
        }
        let started = Instant::now();
        match self.rebuild(spec) {
            Response::Rebuilt { report } => {
                if let Some(obs) = &self.obs {
                    obs.maintenance.record(saturating_nanos(started.elapsed()));
                }
                Ok(Some(report.generation))
            }
            Response::Error { error } => {
                // Keep the failure visible in the scrape even though no
                // transport dispatched this pass.
                self.count_error(error.code);
                Err(ServeError::Maintenance(error.message))
            }
            other => Err(ServeError::Maintenance(format!(
                "unexpected rebuild response: {other:?}"
            ))),
        }
    }

    /// Phase one driven by hand (the REPL `prepare` verb): train `spec`
    /// on this service's own dataset, then stage the model on every
    /// slot. Nothing is served until the commit.
    fn rebuild_prepare(&self, spec: &PipelineSpec) -> Response {
        let _barrier = self.topology.lock_barrier();
        match self.train(spec, None) {
            Ok((index, run, stage)) => {
                self.stage_all(&index, &stage, run.eval.full.ence, run.build_time)
            }
            Err(response) => response,
        }
    }

    /// Phase one when *this* service is a shard (or mid-tier
    /// coordinator) of an upstream fleet: compile the model the
    /// coordinator trained and stage it on every slot, forwarding
    /// `request` to the rest. Nothing is trained here, so a shard needs
    /// no dataset. A model that fails validation, or whose grid differs
    /// from any in-process slot's, stages nothing; forwarded slots check
    /// their own grids.
    fn rebuild_stage(&self, request: &Request, model: &ModelBody) -> Response {
        if let Err(e) = model.validate() {
            return Response::Error {
                error: ErrorBody::from(&e),
            };
        }
        let mut local = self.topology.backends().iter().filter_map(|b| b.as_local());
        if let Some(served) = local.find(|l| *l.handle().load().grid() != model.grid) {
            let served = served.handle().load().grid().clone();
            return Response::error(
                ErrorCode::InvalidSpec,
                format!(
                    "the staged model's {:?} differs from the served {served:?}",
                    model.grid
                ),
            );
        }
        let _barrier = self.topology.lock_barrier();
        match FrozenIndex::from_partition(&model.partition, &model.grid, &model.snapshot) {
            Ok(index) => self.stage_all(&index, request, 0.0, Duration::ZERO),
            Err(e) => Response::error(ErrorCode::Internal, format!("compile failed: {e}")),
        }
    }

    /// Stages `index` on every slot ([`Self::prepare_all`]) and answers
    /// what was staged, with the trainer's `ence` and `build_time`.
    fn stage_all(
        &self,
        index: &FrozenIndex,
        request: &Request,
        ence: f64,
        build_time: Duration,
    ) -> Response {
        let staged = match self.prepare_all(index, request) {
            Ok(staged) => staged,
            Err(response) => return response,
        };
        // The staged footprint reported back: a single slot's own
        // (clipped) footprint, the global index's otherwise.
        let (num_leaves, heap_bytes) = match staged.as_slice() {
            [only] => (only.num_leaves, only.heap_bytes),
            _ => (index.num_leaves(), index.heap_bytes()),
        };
        Response::Prepared {
            prepared: Box::new(PreparedBody {
                num_leaves,
                heap_bytes,
                ence,
                build_time,
            }),
        }
    }

    /// Abandons any staged rebuild on every slot. Idempotent: aborting
    /// with nothing staged changes nothing, so it always answers
    /// [`Response::Aborted`].
    fn rebuild_abort(&self) -> Response {
        let _barrier = self.topology.lock_barrier();
        self.abort_all();
        Response::Aborted
    }

    /// Phase two: publish whatever the last prepare staged, on every
    /// slot. A commit with no staged index answers
    /// [`ErrorCode::NotPrepared`].
    fn rebuild_commit(&self) -> Response {
        let _barrier = self.topology.lock_barrier();
        match self.commit_all() {
            Ok(generation) => Response::Committed { generation },
            Err(response) => response,
        }
    }
}

impl Clone for QueryService {
    /// Clones share the topology (and thus the live, hot-swappable
    /// indexes and remote connections) but get fresh readers and empty
    /// scratch buffers — one clone per transport worker thread. The
    /// telemetry recorder clones into a **fresh shard of the same
    /// registry** (per-worker placement, merged on scrape), carrying the
    /// sampling and slow-query configuration along.
    fn clone(&self) -> Self {
        let mut fresh = Self::over(Arc::clone(&self.topology), self.rebuild_dataset.clone());
        fresh.ingest = self.ingest.clone();
        fresh.obs = self.obs.clone();
        fresh.sample_mask = self.sample_mask;
        fresh.slow = self.slow.clone();
        fresh
    }
}

/// Convenience: a single-shard service over a freshly frozen index.
impl From<FrozenIndex> for QueryService {
    fn from(index: FrozenIndex) -> Self {
        QueryService::new(Topology::single(crate::IndexHandle::new(index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{BackendSpec, ShardBackend, ShardDescriptor, TopologySpec};
    use crate::IndexHandle;
    use fsi_geo::{Grid, Partition, Rect};
    use fsi_ingest::{merge_dataset, IngestRecord};
    use fsi_pipeline::ModelSnapshot;
    use std::sync::{mpsc, Mutex};

    fn index() -> FrozenIndex {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot =
            ModelSnapshot::new(vec![0.2, 0.4, 0.6, 0.8], vec![0.0; 4], vec![0, 1, 2, 3]).unwrap();
        FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap()
    }

    fn service(shards: (usize, usize)) -> QueryService {
        QueryService::new(Topology::partitioned(index(), shards.0, shards.1).unwrap())
    }

    fn dataset() -> Arc<SpatialDataset> {
        Arc::new(
            fsi_data::synth::city::CityGenerator::new(fsi_data::synth::city::CityConfig {
                n_individuals: 200,
                grid_side: 8,
                seed: 5,
                ..Default::default()
            })
            .unwrap()
            .generate()
            .unwrap(),
        )
    }

    /// An in-process stand-in for a remote shard: owns a full
    /// [`QueryService`] (typically over a [`Topology::partial`] clip)
    /// behind a mutex and forwards requests to it — exactly what the
    /// HTTP backend does over a socket, minus the socket.
    struct StubRemote {
        addr: String,
        inner: Mutex<QueryService>,
    }

    impl ShardBackend for StubRemote {
        fn dispatch(&self, request: &Request) -> Response {
            self.inner.lock().unwrap().dispatch(request)
        }

        fn descriptor(&self) -> ShardDescriptor {
            ShardDescriptor {
                kind: "http",
                addr: Some(self.addr.clone()),
            }
        }

        fn generation(&self) -> u64 {
            match self.inner.lock().unwrap().dispatch(&Request::Stats) {
                Response::Stats { stats } => stats.generations.first().copied().unwrap_or(0),
                _ => 0,
            }
        }
    }

    /// A 2×2 coordinator whose NE and SW slots are "remote" shard
    /// servers over partial indexes (stubbed in-process, without a
    /// dataset), with the other two slots local partial indexes.
    fn mixed(rebuild: Option<Arc<SpatialDataset>>) -> QueryService {
        let spec = TopologySpec {
            rows: 2,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("shard:1".into()),
                BackendSpec::Http("shard:2".into()),
                BackendSpec::Local,
            ],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            let slot: usize = addr.strip_prefix("shard:").unwrap().parse().unwrap();
            let inner = QueryService::new(Topology::partial(&index(), 2, 2, slot).unwrap());
            Ok(Box::new(StubRemote {
                addr: addr.to_string(),
                inner: Mutex::new(inner),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology);
        if let Some(dataset) = rebuild {
            svc = svc.with_rebuild(dataset);
        }
        svc
    }

    #[test]
    fn lookup_routes_to_the_right_decision_on_any_shard_count() {
        let reference = index();
        for shape in [(1, 1), (2, 2), (1, 4), (3, 2)] {
            let mut svc = service(shape);
            for p in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5), (1.0, 1.0), (0.0, 0.9)] {
                let expected: DecisionBody =
                    reference.lookup(&Point::new(p.0, p.1)).unwrap().into();
                match svc.dispatch(&Request::Lookup { x: p.0, y: p.1 }) {
                    Response::Decision { decision } => {
                        assert_eq!(decision, expected, "{shape:?} at {p:?}")
                    }
                    other => panic!("expected decision, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_lookups_answer_structured_errors() {
        let mut svc = service((2, 2));
        match svc.dispatch(&Request::Lookup { x: 5.0, y: 0.5 }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn batch_matches_singles_and_reports_offending_index() {
        for shape in [(1, 1), (2, 2)] {
            let mut svc = service(shape);
            let points: Vec<WirePoint> = (0..40)
                .map(|i| WirePoint::new((i as f64 * 0.13) % 1.0, (i as f64 * 0.37) % 1.0))
                .collect();
            let Response::Decisions { decisions } = svc.dispatch(&Request::LookupBatch {
                points: points.clone(),
            }) else {
                panic!("expected decisions");
            };
            assert_eq!(decisions.len(), points.len());
            for (p, d) in points.iter().zip(&decisions) {
                match svc.dispatch(&Request::Lookup { x: p.x, y: p.y }) {
                    Response::Decision { decision } => assert_eq!(decision, *d),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            let mut bad = points.clone();
            bad[17] = WirePoint::new(9.0, 9.0);
            match svc.dispatch(&Request::LookupBatch { points: bad }) {
                Response::Error { error } => {
                    assert_eq!(error.code, ErrorCode::OutOfBounds);
                    assert!(error.message.contains("17"), "{}", error.message);
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn range_query_merges_shards_to_the_single_index_answer() {
        let reference = index();
        for shape in [(1, 1), (2, 2), (4, 1)] {
            let mut svc = service(shape);
            for rect in [
                WireRect::new(0.0, 0.0, 1.0, 1.0),
                WireRect::new(0.1, 0.1, 0.2, 0.2),
                WireRect::new(0.1, 0.1, 0.9, 0.2),
                WireRect::new(2.0, 2.0, 3.0, 3.0),
            ] {
                let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap();
                let expected = reference.range_query(&query);
                match svc.dispatch(&Request::RangeQuery { rect }) {
                    Response::Regions { ids } => assert_eq!(ids, expected, "{shape:?} {rect:?}"),
                    other => panic!("expected regions, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn stats_report_shards_generations_and_footprint() {
        let mut svc = service((2, 2));
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generations, vec![1, 1, 1, 1]);
        assert_eq!(stats.num_leaves, 4);
        assert_eq!(stats.backend, "cells");
        assert!(stats.heap_bytes > 0);
        let per_shard = stats
            .per_shard
            .expect("coordinators report per-shard stats");
        assert_eq!(per_shard.len(), 4);
        for shard in &per_shard {
            assert_eq!(shard.kind, "local");
            assert_eq!(shard.addr, None);
            assert_eq!(shard.generation, 1);
            assert!(shard.num_leaves > 0);
        }
    }

    #[test]
    fn scatter_gather_over_mixed_backends_matches_the_single_box() {
        let reference = index();
        let mut svc = mixed(None);
        // Point lookups: every grid cell center plus the shard edges.
        let mut points: Vec<(f64, f64)> = (0..64)
            .map(|i| (((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        points.extend([(0.5, 0.5), (0.5, 0.1), (0.1, 0.5), (0.0, 0.0), (1.0, 1.0)]);
        for &(x, y) in &points {
            let expected: DecisionBody = reference.lookup(&Point::new(x, y)).unwrap().into();
            match svc.dispatch(&Request::Lookup { x, y }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "({x}, {y})"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
        // Batches route through remote sub-batches and come back in
        // original order.
        let wire: Vec<WirePoint> = points.iter().map(|&(x, y)| WirePoint::new(x, y)).collect();
        let Response::Decisions { decisions } = svc.dispatch(&Request::LookupBatch {
            points: wire.clone(),
        }) else {
            panic!("expected decisions");
        };
        for (&(x, y), d) in points.iter().zip(&decisions) {
            let expected: DecisionBody = reference.lookup(&Point::new(x, y)).unwrap().into();
            assert_eq!(*d, expected, "batch at ({x}, {y})");
        }
        let mut bad = wire;
        bad[13] = WirePoint::new(7.0, 7.0);
        match svc.dispatch(&Request::LookupBatch { points: bad }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::OutOfBounds);
                assert!(error.message.contains("13"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
        // Ranges scatter-gather across local and remote shards.
        for rect in [
            WireRect::new(0.0, 0.0, 1.0, 1.0),
            WireRect::new(0.6, 0.1, 0.9, 0.4),
            WireRect::new(0.1, 0.1, 0.9, 0.9),
        ] {
            let query = Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap();
            let expected = reference.range_query(&query);
            match svc.dispatch(&Request::RangeQuery { rect }) {
                Response::Regions { ids } => assert_eq!(ids, expected, "{rect:?}"),
                other => panic!("expected regions, got {other:?}"),
            }
        }
        // Stats carry the backend kind and address per shard.
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generations, vec![1, 1, 1, 1]);
        let per_shard = stats.per_shard.unwrap();
        let kinds: Vec<&str> = per_shard.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["local", "http", "http", "local"]);
        assert_eq!(per_shard[1].addr.as_deref(), Some("shard:1"));
        assert_eq!(per_shard[2].addr.as_deref(), Some("shard:2"));
        for shard in &per_shard {
            assert!(shard.num_leaves > 0, "{shard:?}");
        }
    }

    #[test]
    fn two_phase_rebuild_raises_every_shard_in_lockstep() {
        let dataset = dataset();
        let mut svc = mixed(Some(Arc::clone(&dataset)));
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild { spec: spec.clone() })
        else {
            panic!("expected rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, 8);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // Every shard now answers from the retrained index: compare
        // against a reference built from the same dataset and spec.
        let (reference, _run) = build_index(&dataset, &spec).unwrap();
        for p in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.5, 0.5)] {
            let expected: DecisionBody = reference.lookup(&Point::new(p.0, p.1)).unwrap().into();
            match svc.dispatch(&Request::Lookup { x: p.0, y: p.1 }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "{p:?}"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
        // A commit with nothing staged is a structured protocol error.
        let mut fresh = mixed(Some(dataset));
        match fresh.dispatch(&Request::RebuildCommit) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::NotPrepared),
            other => panic!("expected error, got {other:?}"),
        }
    }

    /// A model for the test grid whose scores differ from [`index`]'s.
    fn model_on(grid: Grid) -> ModelBody {
        ModelBody {
            partition: Partition::uniform(&grid, 2, 2).unwrap(),
            snapshot: ModelSnapshot::new(vec![0.7, 0.1, 0.5, 0.3], vec![0.05; 4], vec![3, 2, 1, 0])
                .unwrap(),
            grid,
        }
    }

    #[test]
    fn a_shard_without_a_dataset_refuses_hostile_models_and_stages_a_valid_one() {
        let mut shard = QueryService::new(Topology::partial(&index(), 1, 2, 1).unwrap());
        let good = serde_json::to_string(&model_on(Grid::unit(8).unwrap())).unwrap();
        let decoded = |wire: String| -> ModelBody {
            serde_json::from_str(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"))
        };
        let cells: Vec<String> = (0..64)
            .map(|c| ((c % 8) / 4 + 2 * (c / 32)).to_string())
            .collect();
        let assignment = format!("[{}]", cells.join(","));
        assert!(good.contains(&assignment), "{good}");
        let refused = [
            (
                good.replace(&assignment, &format!("[{}]", cells[1..].join(","))),
                ErrorCode::MalformedRequest,
                "partition of 63 cells",
            ),
            (
                good.replace(&assignment, &assignment.replacen('3', "4", 1)),
                ErrorCode::MalformedRequest,
                "names region 4 of 4",
            ),
            (
                good.replace("[3,2,1,0]", "[3,2,1]"),
                ErrorCode::MalformedRequest,
                "4 regions but 4 raw scores, 4 offsets and 3 groups",
            ),
            (
                good.replace("0.7,", "null,"),
                ErrorCode::MalformedRequest,
                "leaf 0 has a non-finite score",
            ),
            (
                serde_json::to_string(&model_on(Grid::unit(4).unwrap())).unwrap(),
                ErrorCode::InvalidSpec,
                "rows: 4, cols: 4 } differs from the served Grid {",
            ),
        ];
        for (wire, code, needle) in refused {
            let stage = Request::RebuildStage {
                model: Box::new(decoded(wire)),
            };
            match shard.dispatch(&stage) {
                Response::Error { error } => {
                    assert_eq!(error.code, code, "{needle}: {error:?}");
                    assert!(error.message.contains(needle), "{needle}: {error:?}");
                }
                other => panic!("{needle}: expected a refusal, got {other:?}"),
            }
            match shard.dispatch(&Request::RebuildCommit) {
                Response::Error { error } => assert_eq!(error.code, ErrorCode::NotPrepared),
                other => panic!("{needle}: a refused stage must stage nothing, got {other:?}"),
            }
        }
        assert_eq!(shard.topology().generations(), vec![1]);
        // The shard has no dataset, yet the valid model stages, commits
        // and serves, and nothing was trained here.
        let model = model_on(Grid::unit(8).unwrap());
        let stage = Request::RebuildStage {
            model: Box::new(model.clone()),
        };
        let Response::Prepared { prepared } = shard.dispatch(&stage) else {
            panic!("expected prepared");
        };
        assert_eq!(prepared.build_time, Duration::ZERO, "nothing was trained");
        let Response::Committed { generation } = shard.dispatch(&Request::RebuildCommit) else {
            panic!("expected committed");
        };
        assert_eq!(generation, 2);
        let reference =
            FrozenIndex::from_partition(&model.partition, &model.grid, &model.snapshot).unwrap();
        for p in [(0.6, 0.1), (0.9, 0.9), (0.75, 0.5)] {
            let expected: DecisionBody = reference.lookup(&Point::new(p.0, p.1)).unwrap().into();
            match shard.dispatch(&Request::Lookup { x: p.0, y: p.1 }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "{p:?}"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
    }

    #[test]
    fn prepare_stages_without_serving_until_the_commit() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let before = match svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => decision,
            other => panic!("expected decision, got {other:?}"),
        };
        let Response::Prepared { prepared } =
            svc.dispatch(&Request::RebuildPrepare { spec, delta: None })
        else {
            panic!("expected prepared");
        };
        assert!(prepared.num_leaves > 0);
        assert!(prepared.heap_bytes > 0);
        // Staged but not live: generation 1 everywhere, old answers.
        assert_eq!(svc.topology().generations(), vec![1, 1, 1, 1]);
        match svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => assert_eq!(decision, before),
            other => panic!("expected decision, got {other:?}"),
        }
        let Response::Committed { generation } = svc.dispatch(&Request::RebuildCommit) else {
            panic!("expected committed");
        };
        assert_eq!(generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn rebuild_without_a_dataset_is_a_structured_error() {
        let mut svc = service((1, 1));
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            2,
        );
        match svc.dispatch(&Request::Rebuild { spec: spec.clone() }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::RebuildUnavailable),
            other => panic!("expected error, got {other:?}"),
        }
        match svc.dispatch(&Request::RebuildPrepare { spec, delta: None }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::RebuildUnavailable),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn rebuild_with_a_dataset_publishes_to_every_shard() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild { spec: spec.clone() })
        else {
            panic!("expected rebuild report");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(report.spec, spec);
        assert_eq!(report.num_leaves, 8);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // Invalid specs come back as structured spec errors.
        let bad = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::FairKd,
            0,
        );
        match svc.dispatch(&Request::Rebuild { spec: bad }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::InvalidSpec);
                assert!(error.message.contains("height"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn publish_reaches_the_very_next_lookup() {
        let handle = IndexHandle::new(index());
        let mut svc = QueryService::new(Topology::single(handle.clone()));
        let (x, y) = (0.1, 0.1);
        let Response::Decision { decision: before } = svc.dispatch(&Request::Lookup { x, y })
        else {
            panic!("expected decision");
        };
        // Publish an index with different scores; the very next lookup
        // must reflect it.
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot =
            ModelSnapshot::new(vec![0.9, 0.9, 0.9, 0.9], vec![0.0; 4], vec![0, 1, 2, 3]).unwrap();
        handle.publish(FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap());
        let Response::Decision { decision: after } = svc.dispatch(&Request::Lookup { x, y }) else {
            panic!("expected decision");
        };
        assert!((before.raw_score - 0.2).abs() < 1e-12);
        assert!(
            (after.raw_score - 0.9).abs() < 1e-12,
            "stale decision served"
        );
    }

    #[test]
    fn instrumented_dispatch_counts_requests_latency_and_errors() {
        let mut svc = service((2, 2)).with_lookup_sampling(1);
        for p in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5)] {
            svc.dispatch(&Request::Lookup { x: p.0, y: p.1 });
        }
        svc.dispatch(&Request::Lookup { x: 5.0, y: 0.5 }); // out of bounds
        svc.dispatch(&Request::RangeQuery {
            rect: WireRect::new(0.1, 0.1, 0.4, 0.4),
        });
        svc.dispatch(&Request::Stats);
        let body = svc.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 4);
        assert_eq!(body.count_for("range_query"), 1);
        assert_eq!(body.count_for("stats"), 1);
        assert_eq!(body.generation, 1);
        let lookup = body
            .requests
            .iter()
            .find(|r| r.kind == "lookup")
            .expect("every kind is listed");
        // Sampling is 1-in-1, so every lookup also lands in the
        // latency histogram.
        assert_eq!(lookup.latency.count(), 4);
        let oob = body
            .errors
            .iter()
            .find(|e| e.code == ErrorCode::OutOfBounds)
            .expect("out-of-bounds error counted");
        assert_eq!(oob.count, 1);
    }

    #[test]
    fn unsampled_lookups_still_count_once_flushed() {
        // Default sampling is 1-in-256: ten lookups won't all be timed,
        // but the request counter must still reach ten on snapshot.
        let mut svc = service((1, 1));
        for i in 0..10 {
            let x = (i as f64 * 0.09) % 1.0;
            svc.dispatch(&Request::Lookup { x, y: x });
        }
        let body = svc.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 10);
        let lookup = body.requests.iter().find(|r| r.kind == "lookup").unwrap();
        assert!(lookup.latency.count() <= 10);
    }

    #[test]
    fn metrics_scatter_gather_collects_remote_snapshots() {
        let mut svc = mixed(None).with_lookup_sampling(1);
        // One lookup per quadrant so every shard sees traffic.
        for p in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)] {
            svc.dispatch(&Request::Lookup { x: p.0, y: p.1 });
        }
        let Response::Metrics { metrics } = svc.dispatch(&Request::Metrics) else {
            panic!("expected metrics");
        };
        assert_eq!(metrics.count_for("lookup"), 4);
        assert_eq!(metrics.shards.len(), 4);
        let kinds: Vec<&str> = metrics.shards.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["local", "http", "http", "local"]);
        for shard in &metrics.shards {
            assert_eq!(shard.failures, 0, "{shard:?}");
            if shard.kind == "http" {
                assert!(shard.addr.is_some());
                assert_eq!(shard.requests, 1, "{shard:?}");
                assert_eq!(shard.round_trip.count(), 1);
                let remote = shard.remote.as_ref().expect("remote snapshot gathered");
                assert_eq!(remote.count_for("lookup"), 1, "{shard:?}");
            } else {
                assert!(shard.remote.is_none());
            }
        }
    }

    #[test]
    fn disabling_metrics_reports_an_empty_body_and_no_stats_metrics() {
        let mut svc = service((1, 1)).with_metrics(false);
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        let body = svc.metrics_snapshot();
        assert_eq!(body.total_requests(), 0);
        assert!(body.requests.is_empty());
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        assert!(stats.metrics.is_none());
    }

    #[test]
    fn stats_embed_a_metrics_body_when_telemetry_is_on() {
        let mut svc = service((1, 1)).with_lookup_sampling(1);
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
            panic!("expected stats");
        };
        let metrics = stats.metrics.expect("telemetry on by default");
        assert_eq!(metrics.count_for("lookup"), 1);
    }

    #[test]
    fn slow_query_log_emits_records_and_bumps_the_counter() {
        let records: Arc<Mutex<Vec<crate::obs::SlowQueryRecord>>> =
            Arc::new(Mutex::new(Vec::new()));
        let sink_records = Arc::clone(&records);
        let mut svc = service((1, 1)).with_slow_query_log(
            Duration::ZERO,
            Arc::new(move |r| sink_records.lock().unwrap().push(r.clone())),
        );
        svc.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        svc.dispatch(&Request::Stats);
        let seen = records.lock().unwrap().clone();
        assert!(seen.len() >= 2, "{seen:?}");
        assert!(seen.iter().any(|r| r.kind == "lookup"), "{seen:?}");
        assert!(seen.iter().any(|r| r.kind == "stats"), "{seen:?}");
        assert_eq!(seen[0].threshold_nanos, 0);
        let body = svc.metrics_snapshot();
        assert!(body.slow_queries >= 2, "{}", body.slow_queries);
    }

    #[test]
    fn rebuild_phases_record_durations_and_raise_the_generation_gauge() {
        let mut svc = QueryService::new(Topology::partitioned(index(), 2, 2).unwrap())
            .with_rebuild(dataset());
        let spec = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        );
        let Response::Rebuilt { .. } = svc.dispatch(&Request::Rebuild { spec }) else {
            panic!("expected rebuild report");
        };
        let body = svc.metrics_snapshot();
        assert_eq!(body.generation, 2);
        // One prepare and one commit sample per shard, no aborts.
        assert_eq!(body.rebuild.prepare.count(), 4);
        assert_eq!(body.rebuild.commit.count(), 4);
        assert_eq!(body.rebuild.abort.count(), 0);
    }

    /// Satellite 1: a failing remote transport must surface the shard
    /// index and address, not a context-free `Internal`.
    #[test]
    fn remote_transport_failures_name_the_shard_and_address() {
        struct DownRemote {
            addr: String,
        }
        impl ShardBackend for DownRemote {
            fn dispatch(&self, _request: &Request) -> Response {
                Response::error(
                    ErrorCode::Internal,
                    format!("remote shard {}: connection refused", self.addr),
                )
            }
            fn descriptor(&self) -> ShardDescriptor {
                ShardDescriptor {
                    kind: "http",
                    addr: Some(self.addr.clone()),
                }
            }
            fn generation(&self) -> u64 {
                0
            }
        }
        let spec = TopologySpec {
            rows: 1,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("10.0.0.9:4000".into()),
            ],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            Ok(Box::new(DownRemote {
                addr: addr.to_string(),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology);
        match svc.dispatch(&Request::Lookup { x: 0.9, y: 0.5 }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::Internal);
                assert!(
                    error.message.contains("shard 1 at 10.0.0.9:4000"),
                    "{}",
                    error.message
                );
                assert!(
                    error.message.contains("connection refused"),
                    "{}",
                    error.message
                );
            }
            other => panic!("expected error, got {other:?}"),
        }
        let body = svc.metrics_snapshot();
        let shard = &body.shards[1];
        assert_eq!(shard.failures, 1, "{shard:?}");
        assert_eq!(shard.requests, 1);
    }

    #[test]
    fn recorder_clones_merge_into_one_scrape() {
        let svc = service((1, 1)).with_lookup_sampling(1);
        let mut a = svc.clone();
        let mut b = svc.clone();
        a.dispatch(&Request::Lookup { x: 0.1, y: 0.1 });
        b.dispatch(&Request::Lookup { x: 0.9, y: 0.9 });
        b.dispatch(&Request::Stats);
        // Either clone's snapshot folds every worker's shard.
        let body = a.metrics_snapshot();
        assert_eq!(body.count_for("lookup"), 2);
        assert_eq!(body.count_for("stats"), 1);
    }

    #[test]
    fn clones_share_swaps_but_not_buffers() {
        let handle = IndexHandle::new(index());
        let svc = QueryService::new(Topology::single(handle.clone()));
        let mut a = svc.clone();
        let mut b = svc;
        handle.publish(index());
        for svc in [&mut a, &mut b] {
            let Response::Stats { stats } = svc.dispatch(&Request::Stats) else {
                panic!("expected stats");
            };
            assert_eq!(stats.generations, vec![2]);
        }
    }

    fn ingest_spec() -> PipelineSpec {
        PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            3,
        )
    }

    fn ingest_service(shards: (usize, usize)) -> QueryService {
        QueryService::new(Topology::partitioned(index(), shards.0, shards.1).unwrap())
            .with_rebuild(dataset())
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .unwrap()
    }

    #[test]
    fn ingest_without_configuration_is_a_structured_error() {
        let mut svc = service((1, 1));
        match svc.dispatch(&Request::Ingest {
            x: 0.5,
            y: 0.5,
            group: 0,
            label: true,
        }) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::RebuildUnavailable);
                assert!(error.message.contains("ingestion"), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_requires_a_rebuild_dataset() {
        let err = service((1, 1))
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .err()
            .expect("with_ingest without a dataset must fail");
        assert!(matches!(err, ServeError::Ingest(_)), "{err}");
    }

    #[test]
    fn ingest_accepts_in_bounds_and_rejects_out_of_bounds() {
        let mut svc = ingest_service((2, 2));
        match svc.dispatch(&Request::Ingest {
            x: 0.25,
            y: 0.75,
            group: 1,
            label: true,
        }) {
            Response::Ingested {
                accepted,
                buffered,
                generation,
            } => {
                assert_eq!(accepted, 1);
                assert_eq!(buffered, 1);
                assert_eq!(generation, 1);
            }
            other => panic!("expected ingested, got {other:?}"),
        }
        match svc.dispatch(&Request::Ingest {
            x: 7.0,
            y: 0.5,
            group: 0,
            label: false,
        }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_batch_counts_only_landed_points() {
        let mut svc = ingest_service((1, 1));
        let points = vec![
            fsi_proto::IngestBody::new(0.1, 0.2, 0, true),
            fsi_proto::IngestBody::new(9.0, 9.0, 1, false), // out of bounds
            fsi_proto::IngestBody::new(0.8, 0.9, 1, true),
        ];
        match svc.dispatch(&Request::IngestBatch { points }) {
            Response::Ingested {
                accepted, buffered, ..
            } => {
                assert_eq!(accepted, 2);
                assert_eq!(buffered, 2);
            }
            other => panic!("expected ingested, got {other:?}"),
        }
    }

    #[test]
    fn manual_rebuild_merges_the_buffer_and_resets_it() {
        let mut svc = ingest_service((2, 2)).with_metrics(true);
        for i in 0..6u32 {
            let response = svc.dispatch(&Request::Ingest {
                x: 0.05 + 0.15 * f64::from(i),
                y: 0.35,
                group: i % 2,
                label: i % 2 == 0,
            });
            assert!(matches!(response, Response::Ingested { .. }));
        }
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild {
            spec: ingest_spec(),
        }) else {
            panic!("expected rebuilt");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        let ingest = svc
            .metrics_snapshot()
            .ingest
            .expect("ingest telemetry missing");
        assert_eq!(ingest.accepted, 6);
        assert_eq!(ingest.buffered, 0, "rebuild must drain the buffer");
        assert_eq!(ingest.drift_score, 0.0);
        // The next ingest stacks on the new generation.
        match svc.dispatch(&Request::Ingest {
            x: 0.5,
            y: 0.5,
            group: 0,
            label: true,
        }) {
            Response::Ingested { generation, .. } => assert_eq!(generation, 2),
            other => panic!("expected ingested, got {other:?}"),
        }
    }

    #[test]
    fn maintain_without_ingest_is_an_error() {
        let mut svc = service((1, 1));
        let err = svc
            .maintain(&fsi_ingest::MaintenanceSpec::default(), &ingest_spec())
            .expect_err("maintain without ingest must fail");
        assert!(matches!(err, ServeError::IngestUnavailable), "{err}");
    }

    #[test]
    fn maintain_publishes_on_occupancy_and_idles_when_quiet() {
        let mut svc = ingest_service((2, 2)).with_metrics(true);
        let policy = fsi_ingest::MaintenanceSpec {
            drift_threshold: 1e18,
            max_buffered: 4,
            max_staleness_ms: 0,
            poll_interval_ms: 1,
        };
        // Empty buffer: nothing due.
        assert!(svc.maintain(&policy, &ingest_spec()).unwrap().is_none());
        for i in 0..5u32 {
            svc.dispatch(&Request::Ingest {
                x: 0.1 + 0.18 * f64::from(i),
                y: 0.6,
                group: i % 2,
                label: i % 2 == 1,
            });
        }
        let generation = svc
            .maintain(&policy, &ingest_spec())
            .unwrap()
            .expect("occupancy past max_buffered must trigger");
        assert_eq!(generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
        // The trigger consumed the buffer; the next poll idles.
        assert!(svc.maintain(&policy, &ingest_spec()).unwrap().is_none());
        let body = svc.metrics_snapshot();
        let ingest = body.ingest.expect("ingest telemetry missing");
        assert_eq!(ingest.buffered, 0);
        assert_eq!(
            ingest.maintenance.count(),
            1,
            "maintenance histogram must record the pass"
        );
    }

    #[test]
    fn mixed_topology_ingest_keeps_the_coordinator_authoritative() {
        let mut svc = mixed(Some(dataset()))
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .unwrap();
        // One point per quadrant, two of them in the stub remotes'
        // quadrants: the coordinator's buffer accepts all four and no
        // shard sees them.
        let quadrants = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
        for (i, (x, y)) in quadrants.into_iter().enumerate() {
            match svc.dispatch(&Request::Ingest {
                x,
                y,
                group: (i % 2) as u32,
                label: i % 2 == 0,
            }) {
                Response::Ingested {
                    accepted, buffered, ..
                } => {
                    assert_eq!(accepted, 1);
                    assert_eq!(buffered, i as u64 + 1);
                }
                other => panic!("expected ingested, got {other:?}"),
            }
        }
        // A manual rebuild trains on the seed and the counts, and the
        // stub remotes stage and commit the trained model.
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild {
            spec: ingest_spec(),
        }) else {
            panic!("expected rebuilt");
        };
        assert_eq!(report.generation, 2);
        assert_eq!(svc.topology().generations(), vec![2, 2, 2, 2]);
    }

    /// What a [`Gated`] slot reports when its first prepare arrives, and
    /// waits on before forwarding it.
    type Gate = (mpsc::Sender<()>, mpsc::Receiver<()>);

    /// A [`StubRemote`] whose first prepare announces itself and then
    /// blocks until released.
    struct Gated {
        inner: StubRemote,
        gate: Mutex<Option<Gate>>,
    }

    impl ShardBackend for Gated {
        fn dispatch(&self, request: &Request) -> Response {
            if matches!(request, Request::RebuildStage { .. }) {
                let gate = self.gate.lock().unwrap().take();
                if let Some((entered, release)) = gate {
                    entered.send(()).unwrap();
                    release.recv().unwrap();
                }
            }
            self.inner.dispatch(request)
        }

        fn descriptor(&self) -> ShardDescriptor {
            self.inner.descriptor()
        }

        fn generation(&self) -> u64 {
            self.inner.generation()
        }
    }

    #[test]
    fn a_second_rebuild_waits_until_the_first_commits() {
        let dataset = dataset();
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let gate = Mutex::new(Some((entered_tx, release_rx)));
        let spec = TopologySpec {
            rows: 1,
            cols: 2,
            shards: vec![BackendSpec::Local, BackendSpec::Http("shard:1".into())],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            let inner = QueryService::new(Topology::partial(&index(), 1, 2, 1).unwrap());
            Ok(Box::new(Gated {
                inner: StubRemote {
                    addr: addr.to_string(),
                    inner: Mutex::new(inner),
                },
                gate: Mutex::new(gate.lock().unwrap().take()),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology).with_rebuild(Arc::clone(&dataset));
        let first = ingest_spec();
        let second = PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::FairKd,
            2,
        );
        let (first_answer, second_answer, early) = std::thread::scope(|scope| {
            let mut a = svc.clone();
            let spec = first.clone();
            let first = scope.spawn(move || a.dispatch(&Request::Rebuild { spec }));
            entered.recv().unwrap();
            let (done, finished) = mpsc::channel();
            let mut b = svc.clone();
            let spec = second.clone();
            let second = scope.spawn(move || {
                let answer = b.dispatch(&Request::Rebuild { spec });
                done.send(()).unwrap();
                answer
            });
            let early = finished.recv_timeout(Duration::from_secs(1)).is_ok();
            release.send(()).unwrap();
            (first.join().unwrap(), second.join().unwrap(), early)
        });
        assert!(
            !early,
            "the second rebuild answered while the first was blocked in its prepare"
        );
        let generation = |answer: &Response| match answer {
            Response::Rebuilt { report } => report.generation,
            other => panic!("expected a rebuild report, got {other:?}"),
        };
        assert_eq!(generation(&first_answer), 2);
        assert_eq!(generation(&second_answer), 3);
        assert_eq!(svc.topology().generations(), vec![3, 3]);
        // Every slot serves the second spec.
        let (reference, _) = build_index(&dataset, &second).unwrap();
        for i in 0..64 {
            let (x, y) = (((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0);
            let expected: DecisionBody = reference.lookup(&Point::new(x, y)).unwrap().into();
            match svc.dispatch(&Request::Lookup { x, y }) {
                Response::Decision { decision } => assert_eq!(decision, expected, "({x}, {y})"),
                other => panic!("expected decision, got {other:?}"),
            }
        }
    }

    /// A [`StubRemote`] whose first stage announces itself, blocks
    /// until released and then fails; later stages forward.
    struct FailsFirstPrepare {
        inner: StubRemote,
        gate: Mutex<Option<Gate>>,
    }

    impl ShardBackend for FailsFirstPrepare {
        fn dispatch(&self, request: &Request) -> Response {
            if matches!(request, Request::RebuildStage { .. }) {
                let gate = self.gate.lock().unwrap().take();
                if let Some((entered, release)) = gate {
                    entered.send(()).unwrap();
                    release.recv().unwrap();
                    return Response::error(ErrorCode::Internal, "injected prepare failure");
                }
            }
            self.inner.dispatch(request)
        }

        fn descriptor(&self) -> ShardDescriptor {
            self.inner.descriptor()
        }

        fn generation(&self) -> u64 {
            self.inner.generation()
        }
    }

    fn ingest_one(svc: &mut QueryService, body: &IngestBody) {
        let answer = svc.dispatch(&Request::Ingest {
            x: body.x,
            y: body.y,
            group: body.group,
            label: body.label,
        });
        assert!(matches!(answer, Response::Ingested { .. }), "{answer:?}");
    }

    /// `n` in-bounds points along row `y`, alternating cohort and label.
    fn points(n: u32, y: f64) -> Vec<IngestBody> {
        (0..n)
            .map(|i| IngestBody::new(0.1 + 0.3 * f64::from(i), y, i % 2, i % 2 == 0))
            .collect()
    }

    fn records(points: &[IngestBody]) -> Vec<IngestRecord> {
        points
            .iter()
            .enumerate()
            .map(|(seq, body)| IngestRecord::from_wire(seq as u64, body))
            .collect()
    }

    /// An ingesting 1×2 coordinator whose slot 1 is a
    /// [`FailsFirstPrepare`]: ingest A (3 points), start a rebuild on a
    /// clone, ingest B (3 points) while it blocks in slot 1's prepare,
    /// then release it to fail. Returns the service and A ++ B.
    fn failed_pass_with_a_racing_ingest() -> (QueryService, Vec<IngestBody>) {
        let dataset = dataset();
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let gate = Mutex::new(Some((entered_tx, release_rx)));
        let spec = TopologySpec {
            rows: 1,
            cols: 2,
            shards: vec![BackendSpec::Local, BackendSpec::Http("shard:1".into())],
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            let inner = QueryService::new(Topology::partial(&index(), 1, 2, 1).unwrap());
            Ok(Box::new(FailsFirstPrepare {
                inner: StubRemote {
                    addr: addr.to_string(),
                    inner: Mutex::new(inner),
                },
                gate: Mutex::new(gate.lock().unwrap().take()),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        let mut svc = QueryService::new(topology)
            .with_rebuild(dataset)
            .with_ingest(fsi_pipeline::TaskSpec::act())
            .unwrap();
        let (a, b) = (points(3, 0.2), points(3, 0.8));
        for body in &a {
            ingest_one(&mut svc, body);
        }
        let failed = std::thread::scope(|scope| {
            let mut pass = svc.clone();
            let first = scope.spawn(move || {
                pass.dispatch(&Request::Rebuild {
                    spec: ingest_spec(),
                })
            });
            entered.recv().unwrap();
            for body in &b {
                ingest_one(&mut svc, body);
            }
            release.send(()).unwrap();
            first.join().unwrap()
        });
        assert!(matches!(failed, Response::Error { .. }), "{failed:?}");
        (svc, [a, b].concat())
    }

    /// Every cell centre's decision on the 8×8 test grid, scores as
    /// bits, so two indexes compare bit for bit.
    fn served_bits(svc: &mut QueryService) -> Vec<(usize, usize, u64, u64)> {
        (0..64)
            .map(|i| {
                let (x, y) = (((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0);
                let Response::Decision { decision } = svc.dispatch(&Request::Lookup { x, y })
                else {
                    panic!("expected decision at ({x}, {y})");
                };
                (
                    decision.leaf_id,
                    decision.group,
                    decision.raw_score.to_bits(),
                    decision.calibrated_score.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn a_failed_pass_keeps_its_points_pending() {
        let (mut svc, points) = failed_pass_with_a_racing_ingest();
        let Response::Rebuilt { report } = svc.dispatch(&Request::Rebuild {
            spec: ingest_spec(),
        }) else {
            panic!("expected rebuilt");
        };
        assert_eq!(report.generation, 2);
        // Both slots, the stub remote included, serve the retrain on
        // A then B.
        let merged = merge_dataset(&dataset(), &ingest_spec().task, &records(&points)).unwrap();
        let (reference, _) = build_index(&merged, &ingest_spec()).unwrap();
        let mut reference = QueryService::from(reference);
        assert_eq!(served_bits(&mut svc), served_bits(&mut reference));
    }

    #[test]
    fn any_arrival_order_publishes_one_index() {
        let points: Vec<IngestBody> = (0..60u32)
            .map(|i| {
                let x = (f64::from(i * 37 % 97) + 0.5) / 97.0;
                let y = (f64::from(i * 61 % 89) + 0.5) / 89.0;
                IngestBody::new(x, y, i % 2, i % 3 == 0)
            })
            .collect();
        let reversed: Vec<IngestBody> = points.iter().rev().copied().collect();
        let served = [points, reversed].map(|order| {
            let mut svc = ingest_service((2, 2));
            for body in &order {
                ingest_one(&mut svc, body);
            }
            let answer = svc.dispatch(&Request::Rebuild {
                spec: ingest_spec(),
            });
            assert!(matches!(answer, Response::Rebuilt { .. }), "{answer:?}");
            served_bits(&mut svc)
        });
        assert_eq!(served[0], served[1]);
    }

    #[test]
    fn a_failed_pass_neither_drops_nor_double_counts_points() {
        let (mut svc, _) = failed_pass_with_a_racing_ingest();
        let ingest = svc
            .metrics_snapshot()
            .ingest
            .expect("ingest telemetry missing");
        assert_eq!((ingest.accepted, ingest.buffered), (6, 6));
    }

    #[test]
    fn a_scrape_measures_drift_against_the_merged_baseline() {
        let mut svc = ingest_service((2, 2));
        let policy = fsi_ingest::MaintenanceSpec {
            drift_threshold: 1e18,
            max_buffered: 1,
            max_staleness_ms: 0,
            poll_interval_ms: 1,
        };
        let merged_log = points(3, 0.3);
        for body in &merged_log {
            ingest_one(&mut svc, body);
        }
        assert_eq!(svc.maintain(&policy, &ingest_spec()).unwrap(), Some(2));
        // Later points land in the merged log's cells.
        let later = [points(3, 0.3), points(2, 0.3)].concat();
        let pending = DeltaBuffer::new(dataset().grid().clone());
        for body in &later {
            ingest_one(&mut svc, body);
            pending.accept(body.x, body.y, body.group, body.label);
        }
        let scraped = svc.metrics_snapshot().ingest.unwrap().drift_score;
        let task = ingest_spec().task;
        let merged = merge_dataset(&dataset(), &task, &records(&merged_log)).unwrap();
        let baseline = baseline_stats(&merged, &task).unwrap();
        let expected = DriftDetector::new().measure(&baseline, &pending).unwrap();
        assert!(expected.score > 0.0);
        assert_eq!(scraped.to_bits(), expected.score.to_bits());
        // The seed's own baseline scores differently, so the scrape
        // really measured against the advanced one.
        let seed = baseline_stats(&dataset(), &task).unwrap();
        let stale = DriftDetector::new().measure(&seed, &pending).unwrap();
        assert_ne!(stale.score.to_bits(), expected.score.to_bits());
    }

    /// Which shard slot ran a forwarded request, and on which thread.
    type ThreadLog = Arc<Mutex<Vec<(usize, std::thread::ThreadId)>>>;

    /// A [`StubRemote`] that logs the thread each request runs on and
    /// reports a transport underneath only when `transport` is set —
    /// the hook [`QueryService::fanout`] decides spawning by.
    struct Recording {
        slot: usize,
        transport: bool,
        inner: Mutex<QueryService>,
        log: ThreadLog,
    }

    impl ShardBackend for Recording {
        fn dispatch(&self, request: &Request) -> Response {
            let me = std::thread::current().id();
            self.log.lock().unwrap().push((self.slot, me));
            self.inner.lock().unwrap().dispatch(request)
        }

        fn descriptor(&self) -> ShardDescriptor {
            ShardDescriptor {
                kind: "http",
                addr: Some(format!("shard:{}", self.slot)),
            }
        }

        fn generation(&self) -> u64 {
            1
        }

        fn transport_stats(&self) -> Option<crate::TransportStats> {
            self.transport.then(crate::TransportStats::default)
        }
    }

    /// A 2×2 coordinator whose every slot is a [`Recording`] over its
    /// partial index; `transport[i]` says whether slot `i` claims a
    /// transport.
    fn recorded(transport: [bool; 4]) -> (QueryService, ThreadLog) {
        let log = ThreadLog::default();
        let spec = TopologySpec {
            rows: 2,
            cols: 2,
            shards: (0..4)
                .map(|i| BackendSpec::Http(format!("shard:{i}")))
                .collect(),
        };
        let topology = Topology::from_spec(&spec, index(), |addr: &str| {
            let slot: usize = addr.strip_prefix("shard:").unwrap().parse().unwrap();
            let inner = QueryService::new(Topology::partial(&index(), 2, 2, slot).unwrap());
            Ok(Box::new(Recording {
                slot,
                transport: transport[slot],
                inner: Mutex::new(inner),
                log: Arc::clone(&log),
            }) as Box<dyn ShardBackend>)
        })
        .unwrap();
        (QueryService::new(topology), log)
    }

    /// Requests that fan out to every slot of a 2×2 topology.
    fn fanned_requests() -> Vec<Request> {
        let centers: Vec<WirePoint> = (0..64)
            .map(|i| WirePoint::new(((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        vec![
            Request::LookupBatch { points: centers },
            Request::RangeQuery {
                rect: WireRect::new(0.0, 0.0, 1.0, 1.0),
            },
            Request::Stats,
            Request::Metrics,
        ]
    }

    #[test]
    fn fanout_spawns_only_for_transport_backed_slots_and_the_caller_runs_one() {
        let caller = std::thread::current().id();
        for transport in [
            [false; 4],
            [true; 4],
            [false, true, true, false],
            [true, false, false, false],
        ] {
            let (mut svc, log) = recorded(transport);
            for request in fanned_requests() {
                log.lock().unwrap().clear();
                assert!(
                    !matches!(svc.dispatch(&request), Response::Error { .. }),
                    "{request:?}"
                );
                let ran = std::mem::take(&mut *log.lock().unwrap());
                let mut slots: Vec<usize> = ran.iter().map(|&(slot, _)| slot).collect();
                slots.sort_unstable();
                assert_eq!(slots, vec![0, 1, 2, 3], "{transport:?} {request:?}");
                for &(slot, thread) in ran.iter().filter(|(slot, _)| !transport[*slot]) {
                    assert_eq!(thread, caller, "in-process slot {slot} ran inline");
                }
                let threads: Vec<_> = ran
                    .iter()
                    .filter(|(slot, _)| transport[*slot])
                    .map(|&(_, thread)| thread)
                    .collect();
                if !threads.is_empty() {
                    let on_caller = threads.iter().filter(|&&t| t == caller).count();
                    assert_eq!(on_caller, 1, "{transport:?} {request:?}");
                    let distinct: std::collections::HashSet<_> = threads.iter().collect();
                    assert_eq!(distinct.len(), threads.len(), "one thread per spawned job");
                }
            }
        }
    }

    #[test]
    fn inline_and_threaded_fanouts_answer_and_count_alike() {
        let (mut inline, _) = recorded([false; 4]);
        let (mut threaded, _) = recorded([true; 4]);
        let mut requests = fanned_requests();
        requests.extend([
            Request::RangeQuery {
                rect: WireRect::new(0.1, 0.1, 0.2, 0.2),
            },
            Request::RangeQuery {
                rect: WireRect::new(0.1, 0.1, 0.9, 0.2),
            },
            Request::Lookup { x: 0.9, y: 0.9 },
            Request::LookupBatch {
                points: vec![WirePoint::new(0.1, 0.1), WirePoint::new(9.0, 0.1)],
            },
        ]);
        for request in &requests {
            let (a, b) = (inline.dispatch(request), threaded.dispatch(request));
            if !matches!(request, Request::Metrics | Request::Stats) {
                assert_eq!(a, b, "{request:?}");
            }
        }
        let (a, b) = (inline.metrics_snapshot(), threaded.metrics_snapshot());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert!(x.requests > 0, "{x:?}");
            assert_eq!(x.requests, y.requests, "shard {}", x.shard);
            assert_eq!(x.failures, y.failures, "shard {}", x.shard);
            assert_eq!(
                x.round_trip.count(),
                y.round_trip.count(),
                "shard {}",
                x.shard
            );
            assert_eq!(x.round_trip.count(), x.requests, "shard {}", x.shard);
        }
    }
}
