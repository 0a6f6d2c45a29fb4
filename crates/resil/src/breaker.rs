//! A consecutive-failure circuit breaker with half-open probing.

use fsi_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const CLOSED: u64 = 0;
const OPEN: u64 = 1;
const HALF_OPEN: u64 = 2;

/// State lives in the low bits of the packed word, the consecutive
/// failure streak in the high bits.
const STATE_MASK: u64 = 0xFF;
const STREAK_ONE: u64 = 1 << 8;

#[inline]
fn state_of(packed: u64) -> u64 {
    packed & STATE_MASK
}

#[inline]
fn streak_of(packed: u64) -> u64 {
    packed >> 8
}

/// Per-replica admission control: after `threshold` consecutive
/// transport failures the breaker *opens* and traffic is steered away;
/// after `reset_ms` one *half-open* probe is let through, and its
/// outcome either re-closes the breaker or re-opens it for another
/// reset window.
///
/// Lock-free — state and the failure streak share one packed
/// `AtomicU64` (state in the low byte, streak above it), so the healthy
/// hot path answers both "is the breaker closed?" and "is the streak
/// zero?" with a single load: the packed word is `0` exactly when the
/// breaker is quiet. Every transition is counted
/// ([`CircuitBreaker::opens`], [`CircuitBreaker::half_opens`],
/// [`CircuitBreaker::closes`]), which is what lets the kill-a-replica
/// storm test assert the closed→open→half-open→closed cycle post-hoc
/// from a `/metrics` scrape.
pub struct CircuitBreaker {
    threshold: u64,
    reset_ms: u64,
    /// `streak << 8 | state`; `0` = closed with a zero streak.
    packed: AtomicU64,
    /// When the breaker last entered `OPEN` or `HALF_OPEN`, in
    /// milliseconds since `epoch`.
    since_ms: AtomicU64,
    epoch: Instant,
    opens: Counter,
    half_opens: Counter,
    closes: Counter,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures and probes every `reset_ms`.
    pub fn new(threshold: u32, reset_ms: u64) -> Self {
        Self {
            threshold: u64::from(threshold.max(1)),
            reset_ms: reset_ms.max(1),
            packed: AtomicU64::new(CLOSED),
            since_ms: AtomicU64::new(0),
            epoch: Instant::now(),
            opens: Counter::default(),
            half_opens: Counter::default(),
            closes: Counter::default(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Whether a request may be sent to this replica right now. On an
    /// open breaker whose reset window has elapsed, the *calling*
    /// attempt becomes the half-open probe (the transition is
    /// compare-and-swapped, so exactly one concurrent caller wins it).
    #[inline]
    pub fn allow(&self) -> bool {
        let packed = self.packed.load(Ordering::Acquire);
        match state_of(packed) {
            CLOSED => true,
            OPEN => {
                let since = self.since_ms.load(Ordering::Acquire);
                if self.now_ms().saturating_sub(since) < self.reset_ms {
                    return false;
                }
                let won = self
                    .packed
                    .compare_exchange(
                        packed,
                        streak_of(packed) << 8 | HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok();
                if won {
                    self.since_ms.store(self.now_ms(), Ordering::Release);
                    self.half_opens.inc();
                }
                won
            }
            _ => {
                // Half-open: one probe is in flight. If it never reports
                // back (a dispatch that panicked, a caller that dropped
                // the outcome), re-admit a probe after another reset
                // window so the breaker cannot wedge.
                let since = self.since_ms.load(Ordering::Acquire);
                if self.now_ms().saturating_sub(since) < self.reset_ms {
                    return false;
                }
                self.since_ms
                    .compare_exchange(since, self.now_ms(), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            }
        }
    }

    /// Reports a successful attempt: resets the failure streak, and a
    /// half-open probe's success re-closes the breaker. Success while
    /// *open* (a straggler from before the trip, or a forced dispatch
    /// when every replica is open) does not close it — recovery always
    /// goes through the half-open probe, keeping the transition cycle
    /// canonical.
    #[inline]
    pub fn record_success(&self) {
        // Hot path: a healthy replica's packed word is 0 (closed, zero
        // streak) and reporting its success must cost one load — a
        // store (or a failing CAS, still a locked RMW) here would tax
        // every dispatch for the benefit of the rare recovery.
        let packed = self.packed.load(Ordering::Acquire);
        if packed == CLOSED {
            return;
        }
        match state_of(packed) {
            CLOSED => {
                // Non-zero streak: reset it (losing a concurrent
                // failure's increment is fine — streaks are heuristic).
                let _ = self.packed.compare_exchange(
                    packed,
                    CLOSED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            // A successful probe re-closes the breaker (a lost CAS means
            // a concurrent failure re-opened it first, which wins).
            HALF_OPEN
                if self
                    .packed
                    .compare_exchange(packed, CLOSED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok() =>
            {
                self.closes.inc();
            }
            _ => {}
        }
    }

    /// Reports a failed attempt: a half-open probe's failure re-opens
    /// the breaker immediately; a closed breaker opens once the streak
    /// reaches the threshold.
    pub fn record_failure(&self) {
        let packed = self.packed.load(Ordering::Acquire);
        match state_of(packed) {
            // A failed probe re-opens immediately (a lost CAS means a
            // concurrent success re-closed it first, which wins).
            HALF_OPEN
                if self
                    .packed
                    .compare_exchange(
                        packed,
                        streak_of(packed) << 8 | OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok() =>
            {
                self.since_ms.store(self.now_ms(), Ordering::Release);
                self.opens.inc();
            }
            CLOSED => {
                let streak = streak_of(self.packed.fetch_add(STREAK_ONE, Ordering::AcqRel)) + 1;
                if streak >= self.threshold {
                    let current = self.packed.load(Ordering::Acquire);
                    if state_of(current) == CLOSED
                        && self
                            .packed
                            .compare_exchange(
                                current,
                                streak_of(current) << 8 | OPEN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                    {
                        self.since_ms.store(self.now_ms(), Ordering::Release);
                        self.opens.inc();
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether the breaker is closed with a zero failure streak — the
    /// steady state of a healthy replica, answerable with one load
    /// (the packed word is `0`). While quiet, reporting a success is a
    /// provable no-op, which lets the dispatch fast path skip breaker
    /// bookkeeping entirely.
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.packed.load(Ordering::Acquire) == CLOSED
    }

    /// The state's wire name: `"closed"`, `"open"` or `"half_open"`.
    pub fn state_name(&self) -> &'static str {
        match state_of(self.packed.load(Ordering::Acquire)) {
            CLOSED => "closed",
            OPEN => "open",
            _ => "half_open",
        }
    }

    /// Whether the breaker is currently closed (full traffic).
    pub fn is_closed(&self) -> bool {
        state_of(self.packed.load(Ordering::Acquire)) == CLOSED
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u64 {
        streak_of(self.packed.load(Ordering::Acquire))
    }

    /// Transitions into `open` so far.
    pub fn opens(&self) -> u64 {
        self.opens.get()
    }

    /// Transitions into `half_open` so far.
    pub fn half_opens(&self) -> u64 {
        self.half_opens.get()
    }

    /// Re-closes (successful probes) so far.
    pub fn closes(&self) -> u64 {
        self.closes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, 10_000);
        assert!(b.allow());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state_name(), "closed");
        assert!(b.allow(), "still closed below the threshold");
        // A success resets the streak.
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state_name(), "closed");
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert!(!b.allow(), "open breaker sheds traffic");
        assert_eq!(b.opens(), 1);
        assert_eq!(b.consecutive_failures(), 3);
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let b = CircuitBreaker::new(1, 20);
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(25));
        // The reset window elapsed: exactly one caller wins the probe.
        assert!(b.allow());
        assert_eq!(b.state_name(), "half_open");
        assert!(!b.allow(), "only one probe at a time");
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.opens(), 2);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state_name(), "closed");
        assert!(b.is_closed());
        assert!(b.is_quiet());
        assert_eq!((b.half_opens(), b.closes()), (2, 1));
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn success_while_open_does_not_shortcut_the_cycle() {
        let b = CircuitBreaker::new(1, 10_000);
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        b.record_success();
        assert_eq!(
            b.state_name(),
            "open",
            "recovery must go through the half-open probe"
        );
    }

    #[test]
    fn quiet_tracks_state_and_streak() {
        let b = CircuitBreaker::new(3, 10_000);
        assert!(b.is_quiet());
        b.record_failure();
        assert!(b.is_closed(), "one failure under the threshold");
        assert!(!b.is_quiet(), "a non-zero streak is not quiet");
        b.record_success();
        assert!(b.is_quiet(), "a success resets the streak");
    }

    #[test]
    fn wedged_half_open_readmits_a_probe_after_the_reset_window() {
        let b = CircuitBreaker::new(1, 20);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(), "first probe admitted");
        // The probe never reports back; after another window a new
        // probe is admitted instead of wedging forever.
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(), "replacement probe admitted");
    }
}
