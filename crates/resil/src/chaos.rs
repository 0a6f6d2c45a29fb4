//! Deterministic fault injection for tests and benchmarks.

use crate::policy::{splitmix64, unit_f64};
use fsi_obs::Counter;
use fsi_proto::{ErrorCode, Request, Response, ShardHealthBody};
use fsi_serve::{FrozenIndex, ShardBackend, ShardDescriptor, TransportStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A remote-control handle to a [`ChaosShard`]'s kill switch, cloneable
/// and usable after the shard itself moved into a topology.
#[derive(Clone)]
pub struct ChaosSwitch {
    down: Arc<AtomicBool>,
}

impl ChaosSwitch {
    /// Flips the replica dead (`true`) or alive (`false`).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
    }
}

/// A [`ShardBackend`] wrapper that injects faults on a *deterministic*
/// schedule, so distributed tests and the resilience benchmark stop
/// hand-rolling failure scenarios:
///
/// * [`ChaosShard::error_every`] — every Nth dispatch answers an
///   `internal` transport error instead of forwarding.
/// * [`ChaosShard::fail_with_probability`] — a seeded splitmix64 stream
///   decides per dispatch; the same seed replays the same fault
///   pattern.
/// * [`ChaosShard::switch`] — a shared kill switch: while down, every
///   dispatch fails, simulating a dead replica without tearing down a
///   socket.
///
/// Injected faults are transport-shaped (`ErrorCode::Internal`), so the
/// resilience layer treats them exactly like a dead remote. The wrapper
/// never hands out its inner shard ([`ShardBackend::as_local`] stays
/// `None`), so no coordinator or replica set can read past the faults.
pub struct ChaosShard {
    inner: Box<dyn ShardBackend>,
    error_every: Option<u64>,
    fail_probability: f64,
    rng: AtomicU64,
    down: Arc<AtomicBool>,
    calls: AtomicU64,
    injected: Arc<Counter>,
}

impl ChaosShard {
    /// Wraps `inner` with no faults configured (a transparent proxy
    /// until a builder method or the kill switch says otherwise).
    pub fn new(inner: Box<dyn ShardBackend>) -> Self {
        Self {
            inner,
            error_every: None,
            fail_probability: 0.0,
            rng: AtomicU64::new(0),
            down: Arc::new(AtomicBool::new(false)),
            calls: AtomicU64::new(0),
            injected: Arc::new(Counter::new()),
        }
    }

    /// Fails every `n`th dispatch (1-based: `n = 3` fails dispatches
    /// 3, 6, 9, …). `n = 0` disables the schedule.
    pub fn error_every(mut self, n: u64) -> Self {
        self.error_every = (n > 0).then_some(n);
        self
    }

    /// Fails each dispatch with probability `p`, drawn from a splitmix64
    /// stream seeded with `seed` — deterministic per construction.
    pub fn fail_with_probability(mut self, p: f64, seed: u64) -> Self {
        self.fail_probability = p.clamp(0.0, 1.0);
        self.rng = AtomicU64::new(seed);
        self
    }

    /// The kill switch, safe to hold after the shard moves into a
    /// topology.
    pub fn switch(&self) -> ChaosSwitch {
        ChaosSwitch {
            down: Arc::clone(&self.down),
        }
    }

    /// A counter of injected faults, safe to hold after the shard moves
    /// into a topology.
    pub fn fault_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.injected)
    }

    fn inject(&self, detail: &str) -> Response {
        self.injected.inc();
        Response::error(ErrorCode::Internal, format!("chaos: {detail}"))
    }

    /// Runs the fault schedule for one call: the injected fault, or
    /// `forward`.
    fn faulted(&self, forward: impl FnOnce(&dyn ShardBackend) -> Response) -> Response {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.down.load(Ordering::Acquire) {
            return self.inject("replica is down");
        }
        if let Some(n) = self.error_every {
            if call.is_multiple_of(n) {
                return self.inject(&format!("injected error on dispatch #{call}"));
            }
        }
        if self.fail_probability > 0.0 {
            let mut state = self.rng.load(Ordering::Relaxed);
            let draw = splitmix64(&mut state);
            self.rng.store(state, Ordering::Relaxed);
            if unit_f64(draw) < self.fail_probability {
                return self.inject(&format!("seeded failure on dispatch #{call}"));
            }
        }
        forward(self.inner.as_ref())
    }
}

impl ShardBackend for ChaosShard {
    fn dispatch(&self, request: &Request) -> Response {
        self.faulted(|inner| inner.dispatch(request))
    }

    /// Prepares pass the same fault schedule as every other call.
    fn prepare(&self, index: &FrozenIndex, request: &Request) -> Response {
        self.faulted(|inner| inner.prepare(index, request))
    }

    fn descriptor(&self) -> ShardDescriptor {
        self.inner.descriptor()
    }

    fn generation(&self) -> u64 {
        if self.down.load(Ordering::Acquire) {
            return 0;
        }
        self.inner.generation()
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        self.inner.transport_stats()
    }

    fn health(&self) -> Option<ShardHealthBody> {
        self.inner.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_proto::MetricsBody;

    struct EchoShard;

    impl ShardBackend for EchoShard {
        fn dispatch(&self, _request: &Request) -> Response {
            Response::Metrics {
                metrics: Box::new(MetricsBody::empty()),
            }
        }

        fn descriptor(&self) -> ShardDescriptor {
            ShardDescriptor {
                kind: "local",
                addr: None,
            }
        }

        fn generation(&self) -> u64 {
            11
        }
    }

    #[test]
    fn transparent_until_configured() {
        let shard = ChaosShard::new(Box::new(EchoShard));
        for _ in 0..10 {
            assert!(!shard.dispatch(&Request::Metrics).is_error());
        }
        assert_eq!(shard.fault_counter().get(), 0);
        assert_eq!(shard.generation(), 11);
        assert_eq!(shard.descriptor().kind, "local");
    }

    #[test]
    fn error_every_nth_follows_the_schedule() {
        let shard = ChaosShard::new(Box::new(EchoShard)).error_every(3);
        let outcomes: Vec<bool> = (0..9)
            .map(|_| shard.dispatch(&Request::Metrics).is_error())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(shard.fault_counter().get(), 3);
    }

    #[test]
    fn seeded_probability_replays_identically() {
        let pattern = |seed: u64| -> Vec<bool> {
            let shard = ChaosShard::new(Box::new(EchoShard)).fail_with_probability(0.5, seed);
            (0..32)
                .map(|_| shard.dispatch(&Request::Metrics).is_error())
                .collect()
        };
        let first = pattern(42);
        assert_eq!(first, pattern(42), "same seed, same fault pattern");
        assert_ne!(first, pattern(43), "different seed, different pattern");
        assert!(first.iter().any(|f| *f) && !first.iter().all(|f| *f));
    }

    #[test]
    fn kill_switch_downs_and_revives_after_the_move() {
        let shard = ChaosShard::new(Box::new(EchoShard));
        let switch = shard.switch();
        let faults = shard.fault_counter();
        let boxed: Box<dyn ShardBackend> = Box::new(shard);
        assert!(!boxed.dispatch(&Request::Metrics).is_error());
        switch.set_down(true);
        let response = boxed.dispatch(&Request::Metrics);
        let Response::Error { error } = response else {
            panic!("downed shard must fail");
        };
        assert_eq!(error.code, ErrorCode::Internal);
        assert!(error.message.contains("chaos"), "{}", error.message);
        assert_eq!(boxed.generation(), 0, "a dead replica reports generation 0");
        switch.set_down(false);
        assert!(!boxed.dispatch(&Request::Metrics).is_error());
        assert_eq!(faults.get(), 1);
    }
}
