//! The failover replica set: N backends serving the same clip
//! rectangle behind one [`ShardBackend`] facade.

use crate::breaker::CircuitBreaker;
use crate::error::ResilError;
use crate::policy::ResiliencePolicy;
use fsi_obs::{Counter, Histogram};
use fsi_proto::{ErrorCode, ReplicaHealthBody, Request, Response, ShardHealthBody};
use fsi_serve::{FrozenIndex, LocalShard, ShardBackend, ShardDescriptor, TransportStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sample one per-replica attempt latency out of this many, so the
/// resilience layer's bookkeeping stays off the hot path (same
/// precedent as the service's lookup sampling knob). 64 keeps the two
/// `Instant::now` calls per sample under a nanosecond amortized.
const LATENCY_SAMPLE_EVERY: u64 = 64;

/// One member of a [`ReplicaSet`]: the backend plus its breaker and
/// counters.
struct ReplicaSlot {
    backend: Box<dyn ShardBackend>,
    /// A [`LocalShard::read_twin`] of `backend`, when the member is a
    /// [`LocalShard`] itself ([`ShardBackend::as_local`], which wrappers
    /// never forward): the healthy fast path dispatches pure reads
    /// through it *statically*, sparing the vtable's dependent loads —
    /// worth a few nanoseconds against a ~60 ns local lookup, which the
    /// suite's ≤ 1.10x gate cares about. Rebuild-barrier traffic always
    /// goes through `backend`, whose staging slot is the real one.
    local: Option<LocalShard>,
    breaker: CircuitBreaker,
    /// Total dispatches, doubling as the latency-sampling tick. Bumped
    /// with a plain load + store (not a locked RMW): a lost increment
    /// under concurrent dispatch skews the attempts gauge and the
    /// sampling cadence by one, which observability tolerates, and it
    /// keeps the healthy hot path free of locked instructions — the
    /// difference between passing and failing the suite's ≤ 1.10x gate
    /// against a ~67 ns bare lookup.
    attempts: AtomicU64,
    failures: Counter,
    retries: Counter,
    latency: Histogram,
}

impl ReplicaSlot {
    /// Dispatches once, recording attempt/failure counters, the sampled
    /// latency, and the breaker outcome. Transport-level failures —
    /// [`ErrorCode::Internal`] — feed the breaker; every other
    /// response, *including* semantic errors like `out_of_bounds`, is a
    /// healthy answer.
    #[inline]
    fn dispatch_recorded(&self, request: &Request) -> (Response, bool) {
        self.call_recorded(|backend| backend.dispatch(request))
    }

    /// [`Self::dispatch_recorded`] for any call on the member backend.
    #[inline]
    fn call_recorded(&self, call: impl FnOnce(&dyn ShardBackend) -> Response) -> (Response, bool) {
        let tick = self.attempts.load(Ordering::Relaxed);
        self.attempts.store(tick + 1, Ordering::Relaxed);
        let sampled = tick.is_multiple_of(LATENCY_SAMPLE_EVERY);
        let start = sampled.then(Instant::now);
        let response = call(self.backend.as_ref());
        if let Some(start) = start {
            self.latency
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let failed = is_transport_failure(&response);
        if failed {
            self.failures.inc();
            self.breaker.record_failure();
        } else {
            self.breaker.record_success();
        }
        (response, failed)
    }

    fn health(&self, replica: usize) -> ReplicaHealthBody {
        let descriptor = self.backend.descriptor();
        ReplicaHealthBody {
            replica,
            kind: descriptor.kind.to_string(),
            addr: descriptor.addr,
            state: self.breaker.state_name().to_string(),
            consecutive_failures: self.breaker.consecutive_failures(),
            attempts: self.attempts.load(Ordering::Relaxed),
            failures: self.failures.get(),
            retries: self.retries.get(),
            hedges: 0,
            hedge_wins: 0,
            opens: self.breaker.opens(),
            half_opens: self.breaker.half_opens(),
            closes: self.breaker.closes(),
            latency: self.latency.snapshot(),
        }
    }
}

/// Whether a response is a transport-level failure (the replica itself
/// broke) rather than a semantic answer the client should see.
fn is_transport_failure(response: &Response) -> bool {
    matches!(
        response,
        Response::Error { error } if error.code == ErrorCode::Internal
    )
}

/// Whether a request may be safely re-sent. Reads are; writes
/// (`Ingest*`) and the rebuild barrier messages are not — retrying a
/// prepare against one replica of a barrier the coordinator is already
/// aborting would corrupt the fleet's generation lockstep.
fn is_idempotent(request: &Request) -> bool {
    matches!(
        request,
        Request::Lookup { .. }
            | Request::LookupBatch { .. }
            | Request::RangeQuery { .. }
            | Request::Stats
            | Request::Metrics
            | Request::Health
    )
}

/// N replicas of the same shard behind the one [`ShardBackend`]
/// interface, so [`fsi_serve::Topology`] and the two-phase rebuild
/// barrier compose unchanged:
///
/// * **Idempotent requests** (lookups, range queries, stats scrapes)
///   are routed to the first breaker-admitted replica, retried per the
///   [`ResiliencePolicy`] with exponential backoff and deterministic
///   jitter, failing over to sibling replicas.
/// * **Non-idempotent requests** (ingest, rebuild barrier messages) are
///   broadcast to *every* replica with all-must-succeed semantics: the
///   first failure is returned verbatim, so a coordinator's prepare
///   barrier aborts exactly as it would with a plain dead shard. This
///   keeps replicas in generation lockstep — a replica that missed a
///   commit would answer from a stale index and break bit-identity.
///
/// Every dispatch runs on the calling thread, one attempt at a time; the
/// healthy path is what the `serving/resil_*` bench suite bounds at
/// ≤ 1.10x bare dispatch.
pub struct ReplicaSet {
    slots: Box<[ReplicaSlot]>,
    policy: ResiliencePolicy,
    rng: AtomicU64,
}

impl ReplicaSet {
    /// Wraps `members` (all serving the same clip rectangle) under
    /// `policy`. Fails on an invalid policy or an empty member list.
    pub fn new(
        members: Vec<Box<dyn ShardBackend>>,
        policy: ResiliencePolicy,
    ) -> Result<Self, ResilError> {
        policy.validate()?;
        if members.is_empty() {
            return Err(ResilError::EmptyReplicaSet);
        }
        let slots = members
            .into_iter()
            .map(|backend| ReplicaSlot {
                local: backend.as_local().map(LocalShard::read_twin),
                backend,
                breaker: CircuitBreaker::new(policy.breaker_threshold, policy.breaker_reset_ms),
                attempts: AtomicU64::new(0),
                failures: Counter::new(),
                retries: Counter::new(),
                latency: Histogram::new(),
            })
            .collect();
        Ok(Self {
            slots,
            rng: AtomicU64::new(policy.jitter_seed),
            policy,
        })
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// The replica to try next: the first breaker-admitted slot,
    /// preferring one different from `avoid` (the slot that just
    /// failed). With every breaker refusing, traffic is forced to the
    /// slot after `avoid` — answering from a possibly-broken replica
    /// beats refusing outright, and the dispatch outcome feeds the
    /// breaker for recovery.
    fn pick(&self, avoid: Option<usize>) -> usize {
        let n = self.slots.len();
        for (i, slot) in self.slots.iter().enumerate() {
            if Some(i) != avoid && slot.breaker.allow() {
                return i;
            }
        }
        if let Some(prev) = avoid {
            if self.slots[prev].breaker.allow() {
                return prev;
            }
            return (prev + 1) % n;
        }
        0
    }

    /// The retry path for idempotent requests.
    #[inline]
    fn dispatch_resilient(&self, request: &Request) -> Response {
        // The healthy fast path — preferred replica's breaker quiet
        // (closed, zero streak), tick not sampled — does one unrecorded
        // inner dispatch: the tick bump is the only bookkeeping, because
        // a success reported to a quiet breaker is a no-op by
        // construction. Everything else (sampling, failures, non-quiet
        // breakers) falls through to the recorded path. Against a
        // ~60 ns local lookup this is the difference between passing
        // and failing the suite's ≤ 1.10x overhead gate.
        if let Some(first) = self.slots.first() {
            if first.breaker.is_quiet() {
                let tick = first.attempts.load(Ordering::Relaxed);
                if !tick.is_multiple_of(LATENCY_SAMPLE_EVERY) {
                    first.attempts.store(tick + 1, Ordering::Relaxed);
                    // Static dispatch through the read twin when the
                    // member is a plain local shard — every request
                    // reaching this path is idempotent, and those all
                    // serve off the shared handle, so the answer is
                    // bit-identical to the member's.
                    let response = match &first.local {
                        Some(local) => local.dispatch(request),
                        None => first.backend.dispatch(request),
                    };
                    if !is_transport_failure(&response) {
                        return response;
                    }
                    first.failures.inc();
                    first.breaker.record_failure();
                    return self.dispatch_retry(request, Some(0), response);
                }
            }
            if first.breaker.allow() {
                let (response, failed) = first.dispatch_recorded(request);
                if !failed {
                    return response;
                }
                return self.dispatch_retry(request, Some(0), response);
            }
        }
        let slot = self.pick(None);
        let (response, failed) = self.slots[slot].dispatch_recorded(request);
        if !failed {
            return response;
        }
        self.dispatch_retry(request, Some(slot), response)
    }

    /// Attempts 2..N after `failed_slot`'s first attempt came back as a
    /// transport failure (`last_failure`).
    #[cold]
    fn dispatch_retry(
        &self,
        request: &Request,
        failed_slot: Option<usize>,
        last_failure: Response,
    ) -> Response {
        // The jitter stream is only consulted on a retry, so the
        // (locked) draw from the shared seed stays off the
        // first-attempt hot path.
        let mut rng = self.rng.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let mut last_failure = last_failure;
        let mut avoid = failed_slot;
        for attempt in 1..self.policy.max_attempts {
            let backoff = self.policy.backoff(attempt - 1, &mut rng);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let slot = self.pick(avoid);
            self.slots[slot].retries.inc();
            let (response, failed) = self.slots[slot].dispatch_recorded(request);
            if !failed {
                return response;
            }
            avoid = Some(slot);
            last_failure = response;
        }
        last_failure
    }

    /// The all-must-succeed broadcast for non-idempotent calls: every
    /// replica applies the write / barrier message; the first transport
    /// failure is returned verbatim so the coordinator's two-phase
    /// barrier aborts exactly as with a plain dead shard.
    fn broadcast(&self, call: impl Fn(&dyn ShardBackend) -> Response) -> Response {
        let mut first: Option<Response> = None;
        for slot in self.slots.iter() {
            let (response, failed) = slot.call_recorded(&call);
            if failed {
                return response;
            }
            first.get_or_insert(response);
        }
        first.expect("replica sets are non-empty by construction")
    }

    /// This set's entry for the coordinator's health surface. The
    /// `shard` index is 0 here; the coordinator overwrites it with the
    /// slot's topology position.
    fn health_body(&self) -> ShardHealthBody {
        let replicas: Vec<ReplicaHealthBody> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| slot.health(i))
            .collect();
        let closed = self
            .slots
            .iter()
            .filter(|slot| slot.breaker.is_closed())
            .count();
        let state = if closed == self.slots.len() {
            "up"
        } else if closed > 0 {
            "degraded"
        } else {
            "down"
        };
        ShardHealthBody {
            shard: 0,
            kind: "replicas".into(),
            addr: self.descriptor().addr,
            state: state.into(),
            replicas,
        }
    }
}

impl ShardBackend for ReplicaSet {
    fn dispatch(&self, request: &Request) -> Response {
        if is_idempotent(request) {
            self.dispatch_resilient(request)
        } else {
            self.broadcast(|backend| backend.dispatch(request))
        }
    }

    /// Every member stages: in-process members the coordinator's
    /// `index`, remote ones the model `request` ships. All must
    /// succeed, so members stay in generation lockstep.
    fn prepare(&self, index: &FrozenIndex, request: &Request) -> Response {
        self.broadcast(|backend| backend.prepare(index, request))
    }

    fn descriptor(&self) -> ShardDescriptor {
        let members: Vec<String> = self
            .slots
            .iter()
            .map(|slot| {
                let d = slot.backend.descriptor();
                d.addr.unwrap_or_else(|| d.kind.to_string())
            })
            .collect();
        ShardDescriptor {
            kind: "replicas",
            addr: Some(members.join(",")),
        }
    }

    /// The highest member generation: any admitted replica serves it
    /// after a commit barrier (members move in lockstep), and a dead
    /// member's 0 must not mask the fleet's progress.
    fn generation(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| slot.backend.generation())
            .max()
            .unwrap_or(0)
    }

    fn in_process_generation(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|slot| slot.backend.in_process_generation())
            .max()
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        let mut total = TransportStats::default();
        let mut any = false;
        for slot in self.slots.iter() {
            if let Some(stats) = slot.backend.transport_stats() {
                total.reconnects += stats.reconnects;
                total.failures += stats.failures;
                any = true;
            }
        }
        any.then_some(total)
    }

    fn health(&self) -> Option<ShardHealthBody> {
        Some(self.health_body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosShard;
    use fsi_proto::StatsBody;
    use std::sync::Mutex;
    use std::time::Duration;

    /// A scriptable in-process backend: answers `Stats` with a fixed
    /// generation, fails while `down`, and logs every request kind.
    struct StubShard {
        generation: u64,
        down: std::sync::atomic::AtomicBool,
        log: Mutex<Vec<String>>,
    }

    impl StubShard {
        fn new(generation: u64) -> Self {
            Self {
                generation,
                down: std::sync::atomic::AtomicBool::new(false),
                log: Mutex::new(Vec::new()),
            }
        }

        fn kind_of(request: &Request) -> &'static str {
            match request {
                Request::Lookup { .. } => "lookup",
                Request::Stats => "stats",
                Request::RebuildCommit => "commit",
                Request::Ingest { .. } => "ingest",
                _ => "other",
            }
        }
    }

    impl ShardBackend for StubShard {
        fn dispatch(&self, request: &Request) -> Response {
            self.log
                .lock()
                .unwrap()
                .push(Self::kind_of(request).to_string());
            if self.down.load(Ordering::Acquire) {
                return Response::error(ErrorCode::Internal, "stub: down");
            }
            match request {
                Request::Stats => Response::Stats {
                    stats: Box::new(StatsBody {
                        shards: 1,
                        generations: vec![self.generation],
                        num_leaves: 1,
                        heap_bytes: 1,
                        backend: "tree".into(),
                        cache: None,
                        per_shard: None,
                        metrics: None,
                        health: None,
                    }),
                },
                Request::RebuildCommit => Response::Committed {
                    generation: self.generation + 1,
                },
                _ => Response::error(ErrorCode::OutOfBounds, "stub: semantic error"),
            }
        }

        fn descriptor(&self) -> ShardDescriptor {
            ShardDescriptor {
                kind: "local",
                addr: None,
            }
        }

        fn generation(&self) -> u64 {
            self.generation
        }
    }

    fn fast_policy() -> ResiliencePolicy {
        ResiliencePolicy {
            max_attempts: 3,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            jitter_frac: 0.0,
            breaker_threshold: 2,
            breaker_reset_ms: 30,
            ..ResiliencePolicy::default()
        }
    }

    fn set_of(stubs: Vec<Box<dyn ShardBackend>>, policy: ResiliencePolicy) -> ReplicaSet {
        ReplicaSet::new(stubs, policy).unwrap()
    }

    #[test]
    fn construction_validates_policy_and_members() {
        let Err(e) = ReplicaSet::new(Vec::new(), ResiliencePolicy::default()) else {
            panic!("an empty member list must be rejected");
        };
        assert_eq!(e, ResilError::EmptyReplicaSet);
        let bad = ResiliencePolicy {
            max_attempts: 0,
            ..ResiliencePolicy::default()
        };
        assert!(matches!(
            ReplicaSet::new(vec![Box::new(StubShard::new(1))], bad),
            Err(ResilError::InvalidPolicy(_))
        ));
    }

    #[test]
    fn idempotent_requests_fail_over_to_the_sibling() {
        let dead = ChaosShard::new(Box::new(StubShard::new(3)));
        let switch = dead.switch();
        switch.set_down(true);
        let set = set_of(
            vec![Box::new(dead), Box::new(StubShard::new(3))],
            fast_policy(),
        );
        let response = set.dispatch(&Request::Stats);
        let Response::Stats { stats } = response else {
            panic!("failover must surface the healthy replica's answer, got {response:?}");
        };
        assert_eq!(stats.generations, vec![3]);
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(health.replicas[0].failures, 1);
        assert_eq!(health.replicas[1].retries, 1);
    }

    #[test]
    fn semantic_errors_are_answers_not_failures() {
        let set = set_of(
            vec![Box::new(StubShard::new(1)), Box::new(StubShard::new(1))],
            fast_policy(),
        );
        let response = set.dispatch(&Request::Lookup { x: 9.0, y: 9.0 });
        let Response::Error { error } = response else {
            panic!("expected the semantic error through");
        };
        assert_eq!(error.code, ErrorCode::OutOfBounds);
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(
            (health.replicas[0].failures, health.replicas[1].attempts),
            (0, 0),
            "a semantic error must not trip retries or the breaker"
        );
    }

    #[test]
    fn breaker_opens_after_streak_and_recovers_through_half_open() {
        let flaky = ChaosShard::new(Box::new(StubShard::new(7)));
        let switch = flaky.switch();
        let set = set_of(
            vec![Box::new(flaky), Box::new(StubShard::new(7))],
            fast_policy(),
        );
        switch.set_down(true);
        // Two failed attempts (threshold) open replica 0's breaker;
        // traffic then routes straight to replica 1.
        for _ in 0..3 {
            assert!(!set.dispatch(&Request::Stats).is_error());
        }
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(health.state, "degraded");
        assert_eq!(health.replicas[0].state, "open");
        assert_eq!(health.replicas[0].opens, 1);
        let attempts_while_open = health.replicas[0].attempts;
        assert!(!set.dispatch(&Request::Stats).is_error());
        assert_eq!(
            ShardBackend::health(&set).unwrap().replicas[0].attempts,
            attempts_while_open,
            "an open breaker sheds all traffic"
        );
        // Replica heals; after the reset window one probe re-closes it.
        switch.set_down(false);
        std::thread::sleep(Duration::from_millis(40));
        for _ in 0..4 {
            assert!(!set.dispatch(&Request::Stats).is_error());
        }
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(health.state, "up");
        assert_eq!(health.replicas[0].state, "closed");
        assert_eq!(health.replicas[0].half_opens, 1);
        assert_eq!(health.replicas[0].closes, 1);
    }

    #[test]
    fn non_idempotent_requests_broadcast_to_every_replica() {
        let a = StubShard::new(4);
        let b = StubShard::new(4);
        let set = set_of(vec![Box::new(a), Box::new(b)], fast_policy());
        let response = set.dispatch(&Request::RebuildCommit);
        assert_eq!(response, Response::Committed { generation: 5 });
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(
            (health.replicas[0].attempts, health.replicas[1].attempts),
            (1, 1),
            "barrier messages must reach every replica"
        );
    }

    #[test]
    fn broadcast_surfaces_the_first_failure_for_the_barrier() {
        let dead = ChaosShard::new(Box::new(StubShard::new(4)));
        dead.switch().set_down(true);
        let set = set_of(
            vec![Box::new(StubShard::new(4)), Box::new(dead)],
            fast_policy(),
        );
        let response = set.dispatch(&Request::RebuildCommit);
        let Response::Error { error } = response else {
            panic!("a dead replica must fail the barrier, got {response:?}");
        };
        assert_eq!(error.code, ErrorCode::Internal);
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(health.replicas[1].failures, 1);
    }

    #[test]
    fn retry_budget_bounds_attempts_when_every_replica_is_down() {
        // (max_attempts, attempts per replica, retries per replica):
        // retries alternate away from the replica that just failed.
        for (max_attempts, attempts, retries) in [(3, [2, 1], [1, 1]), (1, [1, 0], [0, 0])] {
            let (a, b) = (
                ChaosShard::new(Box::new(StubShard::new(1))),
                ChaosShard::new(Box::new(StubShard::new(1))),
            );
            a.switch().set_down(true);
            b.switch().set_down(true);
            let policy = ResiliencePolicy {
                max_attempts,
                ..fast_policy()
            };
            let set = set_of(vec![Box::new(a), Box::new(b)], policy);
            let response = set.dispatch(&Request::Stats);
            let Response::Error { error } = response else {
                panic!("a set with every replica down must fail, got {response:?}");
            };
            assert_eq!(error.code, ErrorCode::Internal);
            assert!(
                error.message.contains("replica is down"),
                "{}",
                error.message
            );
            let health = ShardBackend::health(&set).unwrap();
            let per_replica = |get: fn(&ReplicaHealthBody) -> u64| -> Vec<u64> {
                health.replicas.iter().map(get).collect()
            };
            assert_eq!(
                per_replica(|r| r.attempts),
                attempts,
                "max_attempts = {max_attempts}"
            );
            assert_eq!(
                per_replica(|r| r.failures),
                attempts,
                "max_attempts = {max_attempts}"
            );
            assert_eq!(
                per_replica(|r| r.retries),
                retries,
                "max_attempts = {max_attempts}"
            );
            assert_eq!(
                per_replica(|r| r.attempts).iter().sum::<u64>(),
                u64::from(max_attempts),
                "the budget bounds the whole set, not each replica"
            );
        }
    }

    #[test]
    fn descriptor_generation_and_health_aggregate_members() {
        let set = set_of(
            vec![Box::new(StubShard::new(3)), Box::new(StubShard::new(5))],
            fast_policy(),
        );
        let descriptor = set.descriptor();
        assert_eq!(descriptor.kind, "replicas");
        assert_eq!(descriptor.addr.as_deref(), Some("local,local"));
        assert_eq!(
            set.generation(),
            5,
            "a lagging member must not mask progress"
        );
        assert_eq!(set.replicas(), 2);
        let health = ShardBackend::health(&set).unwrap();
        assert_eq!(health.kind, "replicas");
        assert_eq!(health.state, "up");
        assert_eq!(health.replicas.len(), 2);
        for replica in &health.replicas {
            assert_eq!((replica.hedges, replica.hedge_wins), (0, 0));
        }
        // Older decoders need both keys: the derive has no default for
        // a missing non-`Option` field.
        let json = fsi_proto::encode_response(&Response::Health {
            health: Box::new(fsi_proto::HealthBody {
                shards: vec![health],
            }),
        });
        assert!(
            json.contains("\"hedges\":0") && json.contains("\"hedge_wins\":0"),
            "{json}"
        );
        assert!(set.transport_stats().is_none(), "stubs have no transport");
    }
}
