//! The validated, serde-round-trippable resilience policy.

use crate::error::ResilError;
use serde::{Deserialize, Deserializer, Serialize};
use std::time::Duration;

/// How a [`crate::ReplicaSet`] treats failures: how often to retry, how
/// long to back off, and when to stop sending traffic to a replica
/// altogether.
///
/// All durations are whole milliseconds so the policy stays a flat,
/// hand-editable JSON object (`redistricting_cli serve --resilience
/// policy.json` reads one). Files may still carry the retired
/// `hedge_after_ms` / `attempt_deadline_ms` keys as `null`; a file that
/// sets either is refused at decode time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResiliencePolicy {
    /// Attempts per idempotent request across the replica set (first
    /// try included). Non-idempotent requests are never retried.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds. `0` retries
    /// immediately.
    pub backoff_base_ms: u64,
    /// Multiplier applied to the backoff per further retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Fraction of each backoff added as deterministic jitter, in
    /// `[0, 1]`. Jitter is drawn from a seeded splitmix64 stream, so a
    /// test replays the identical schedule.
    pub jitter_frac: f64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
    /// Consecutive transport failures that open a replica's circuit
    /// breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks traffic before letting one
    /// half-open probe through, in milliseconds.
    pub breaker_reset_ms: u64,
}

impl Default for ResiliencePolicy {
    /// Conservative defaults: three attempts with 5 ms → 10 ms → 20 ms
    /// backoff (+20 % jitter), breaker opens after 3 consecutive
    /// failures and probes every 250 ms.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_multiplier: 2.0,
            backoff_cap_ms: 200,
            jitter_frac: 0.2,
            jitter_seed: 0x5eed_cafe,
            breaker_threshold: 3,
            breaker_reset_ms: 250,
        }
    }
}

impl ResiliencePolicy {
    /// Checks every knob; [`crate::ReplicaSet::new`] runs this before
    /// accepting a policy, and CLIs run it right after decoding a file.
    pub fn validate(&self) -> Result<(), ResilError> {
        if self.max_attempts == 0 {
            return Err(ResilError::InvalidPolicy(
                "max_attempts must be at least 1".into(),
            ));
        }
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 1.0 {
            return Err(ResilError::InvalidPolicy(format!(
                "backoff_multiplier must be a finite number ≥ 1, got {}",
                self.backoff_multiplier
            )));
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(ResilError::InvalidPolicy(format!(
                "backoff_cap_ms ({}) must be ≥ backoff_base_ms ({})",
                self.backoff_cap_ms, self.backoff_base_ms
            )));
        }
        if !self.jitter_frac.is_finite() || !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err(ResilError::InvalidPolicy(format!(
                "jitter_frac must be in [0, 1], got {}",
                self.jitter_frac
            )));
        }
        if self.breaker_threshold == 0 {
            return Err(ResilError::InvalidPolicy(
                "breaker_threshold must be at least 1".into(),
            ));
        }
        if self.breaker_reset_ms == 0 {
            return Err(ResilError::InvalidPolicy(
                "breaker_reset_ms must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The backoff before retry number `retry` (0-based), jittered from
    /// `rng` (a splitmix64 state, advanced in place).
    pub fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let base = self.backoff_base_ms as f64 * self.backoff_multiplier.powi(retry as i32);
        let capped = base.min(self.backoff_cap_ms as f64);
        let jitter = capped * self.jitter_frac * unit_f64(splitmix64(rng));
        Duration::from_nanos(((capped + jitter) * 1e6) as u64)
    }
}

/// The decode form of a policy file: every [`ResiliencePolicy`] knob
/// plus the two retired ones. The derive skips unknown keys, so without
/// them a file that sets a retired knob would decode and silently lose
/// the behaviour it asked for.
#[derive(Deserialize)]
struct PolicyFile {
    max_attempts: u32,
    backoff_base_ms: u64,
    backoff_multiplier: f64,
    backoff_cap_ms: u64,
    jitter_frac: f64,
    jitter_seed: u64,
    breaker_threshold: u32,
    breaker_reset_ms: u64,
    hedge_after_ms: Option<f64>,
    attempt_deadline_ms: Option<f64>,
}

impl Deserialize for ResiliencePolicy {
    /// Decodes a policy, refusing a retired knob that is set; `null` or
    /// an absent key (how the old encoder wrote an unset knob) still
    /// decodes.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let file = PolicyFile::deserialize(de)?;
        for (key, value) in [
            ("hedge_after_ms", file.hedge_after_ms),
            ("attempt_deadline_ms", file.attempt_deadline_ms),
        ] {
            if value.is_some() {
                return Err(serde::Error::custom(format!(
                    "`{key}` was removed: replica sets no longer hedge or \
                     time out attempts; delete the key or set it to null"
                )));
            }
        }
        Ok(Self {
            max_attempts: file.max_attempts,
            backoff_base_ms: file.backoff_base_ms,
            backoff_multiplier: file.backoff_multiplier,
            backoff_cap_ms: file.backoff_cap_ms,
            jitter_frac: file.jitter_frac,
            jitter_seed: file.jitter_seed,
            breaker_threshold: file.breaker_threshold,
            breaker_reset_ms: file.breaker_reset_ms,
        })
    }
}

/// One step of the splitmix64 generator — the crate's only randomness,
/// fully determined by its seed so failure schedules replay exactly.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a draw to `[0, 1)` using the top 53 bits.
pub(crate) fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_validates_and_round_trips() {
        let policy = ResiliencePolicy::default();
        policy.validate().unwrap();
        let json = serde_json::to_string(&policy).unwrap();
        let back: ResiliencePolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
    }

    #[test]
    fn optional_knobs_decode_when_absent() {
        // A policy file without the retired hedge/deadline keys (written
        // before they existed, or after they went) decodes.
        let wire = r#"{
            "max_attempts": 2,
            "backoff_base_ms": 1,
            "backoff_multiplier": 1.5,
            "backoff_cap_ms": 10,
            "jitter_frac": 0.0,
            "jitter_seed": 7,
            "breaker_threshold": 5,
            "breaker_reset_ms": 100
        }"#;
        let policy: ResiliencePolicy = serde_json::from_str(wire).unwrap();
        policy.validate().unwrap();
    }

    #[test]
    fn retired_knobs_are_refused_when_set() {
        // What the old encoder wrote for a default policy: both retired
        // keys present as `null`. It must keep decoding.
        let old = r#"{"max_attempts":3,"backoff_base_ms":5,"backoff_multiplier":2.0,
            "backoff_cap_ms":200,"jitter_frac":0.2,"jitter_seed":1592642302,
            "attempt_deadline_ms":null,"hedge_after_ms":null,
            "breaker_threshold":3,"breaker_reset_ms":250}"#;
        let policy: ResiliencePolicy = serde_json::from_str(old).unwrap();
        assert_eq!(policy, ResiliencePolicy::default());
        for key in ["hedge_after_ms", "attempt_deadline_ms"] {
            for value in ["20", "0", "2.5"] {
                let set = old.replace(&format!("\"{key}\":null"), &format!("\"{key}\":{value}"));
                let err = serde_json::from_str::<ResiliencePolicy>(&set).unwrap_err();
                let message = err.to_string();
                assert!(
                    message.contains(key) && message.contains("removed"),
                    "{key}={value}: {message}"
                );
            }
        }
    }

    #[test]
    fn validation_rejects_each_bad_knob() {
        let ok = ResiliencePolicy::default();
        let cases: Vec<(&str, ResiliencePolicy)> = vec![
            (
                "max_attempts",
                ResiliencePolicy {
                    max_attempts: 0,
                    ..ok.clone()
                },
            ),
            (
                "backoff_multiplier",
                ResiliencePolicy {
                    backoff_multiplier: 0.5,
                    ..ok.clone()
                },
            ),
            (
                "backoff_multiplier",
                ResiliencePolicy {
                    backoff_multiplier: f64::NAN,
                    ..ok.clone()
                },
            ),
            (
                "backoff_cap_ms",
                ResiliencePolicy {
                    backoff_base_ms: 50,
                    backoff_cap_ms: 10,
                    ..ok.clone()
                },
            ),
            (
                "jitter_frac",
                ResiliencePolicy {
                    jitter_frac: 1.5,
                    ..ok.clone()
                },
            ),
            (
                "breaker_threshold",
                ResiliencePolicy {
                    breaker_threshold: 0,
                    ..ok.clone()
                },
            ),
            (
                "breaker_reset_ms",
                ResiliencePolicy {
                    breaker_reset_ms: 0,
                    ..ok.clone()
                },
            ),
        ];
        for (knob, policy) in cases {
            let err = policy.validate().unwrap_err();
            assert!(err.to_string().contains(knob), "{knob}: {err}");
        }
    }

    #[test]
    fn backoff_grows_caps_and_replays_deterministically() {
        let policy = ResiliencePolicy {
            backoff_base_ms: 10,
            backoff_multiplier: 2.0,
            backoff_cap_ms: 40,
            jitter_frac: 0.0,
            ..ResiliencePolicy::default()
        };
        let mut rng = policy.jitter_seed;
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(40));
        assert_eq!(
            policy.backoff(5, &mut rng),
            Duration::from_millis(40),
            "cap bounds every later retry"
        );
        // With jitter on, the same seed replays the same schedule and
        // stays within the jitter fraction of the base backoff.
        let jittered = ResiliencePolicy {
            jitter_frac: 0.2,
            ..policy
        };
        let (mut a, mut b) = (jittered.jitter_seed, jittered.jitter_seed);
        for retry in 0..4 {
            let first = jittered.backoff(retry, &mut a);
            let second = jittered.backoff(retry, &mut b);
            assert_eq!(first, second, "retry {retry}: same seed, same schedule");
            let flat = policy.backoff(retry, &mut { 0 });
            assert!(first >= flat && first <= flat.mul_f64(1.2), "retry {retry}");
        }
    }
}
