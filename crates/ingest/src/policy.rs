//! The maintenance policy: when does buffered drift justify the cost of
//! an incremental rebuild?

use crate::error::IngestError;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// When a background maintenance pass should merge the delta buffer and
/// drive the two-phase rebuild barrier. Serde-round-trippable so a
/// deployment config can carry it; [`MaintenanceSpec::validate`] runs
/// before a spec is accepted anywhere.
///
/// Each trigger is independently disabled by setting it to zero; a
/// valid spec enables at least one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceSpec {
    /// Rebuild when the maximum subtree drift score reaches this
    /// (`0.0` disables; see `DriftDetector` for the score).
    pub drift_threshold: f64,
    /// Rebuild when this many points sit in the buffer (`0` disables).
    pub max_buffered: u64,
    /// Rebuild when the oldest buffered point is at least this old, in
    /// milliseconds — the SLA-style staleness bound (`0` disables).
    pub max_staleness_ms: u64,
    /// How often the background pass re-checks the triggers, in
    /// milliseconds.
    pub poll_interval_ms: u64,
}

impl Default for MaintenanceSpec {
    /// Drift at 0.25, occupancy at 4096, no staleness bound, 200 ms
    /// polling.
    fn default() -> Self {
        Self {
            drift_threshold: 0.25,
            max_buffered: 4096,
            max_staleness_ms: 0,
            poll_interval_ms: 200,
        }
    }
}

impl MaintenanceSpec {
    /// Rejects non-finite or negative thresholds, a zero poll interval,
    /// and specs with every trigger disabled.
    pub fn validate(&self) -> Result<(), IngestError> {
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return Err(IngestError::InvalidSpec(format!(
                "drift_threshold must be finite and non-negative, got {}",
                self.drift_threshold
            )));
        }
        if self.poll_interval_ms == 0 {
            return Err(IngestError::InvalidSpec(
                "poll_interval_ms must be positive".into(),
            ));
        }
        if self.drift_threshold == 0.0 && self.max_buffered == 0 && self.max_staleness_ms == 0 {
            return Err(IngestError::InvalidSpec(
                "every trigger is disabled — enable drift_threshold, max_buffered \
                 or max_staleness_ms"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The background pass cadence as a [`Duration`].
    pub fn poll_interval(&self) -> Duration {
        Duration::from_millis(self.poll_interval_ms)
    }

    /// Which trigger, if any, the observed buffer state trips.
    pub fn due(
        &self,
        drift_score: f64,
        buffered: u64,
        oldest_age: Option<Duration>,
    ) -> Option<MaintenanceTrigger> {
        if buffered == 0 {
            return None;
        }
        if self.drift_threshold > 0.0 && drift_score >= self.drift_threshold {
            return Some(MaintenanceTrigger::Drift);
        }
        if self.max_buffered > 0 && buffered >= self.max_buffered {
            return Some(MaintenanceTrigger::Occupancy);
        }
        if self.max_staleness_ms > 0 {
            if let Some(age) = oldest_age {
                if age >= Duration::from_millis(self.max_staleness_ms) {
                    return Some(MaintenanceTrigger::Staleness);
                }
            }
        }
        None
    }
}

/// Why a maintenance pass fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceTrigger {
    /// A subtree's statistics drifted past the threshold.
    Drift,
    /// The buffer reached its occupancy bound.
    Occupancy,
    /// The oldest buffered point aged past the staleness bound.
    Staleness,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates_and_round_trips() {
        let spec = MaintenanceSpec::default();
        spec.validate().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: MaintenanceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = MaintenanceSpec {
            drift_threshold: f64::NAN,
            ..MaintenanceSpec::default()
        };
        assert!(spec.validate().is_err());
        spec.drift_threshold = -0.5;
        assert!(spec.validate().is_err());
        let spec = MaintenanceSpec {
            poll_interval_ms: 0,
            ..MaintenanceSpec::default()
        };
        assert!(spec.validate().is_err());
        let all_off = MaintenanceSpec {
            drift_threshold: 0.0,
            max_buffered: 0,
            max_staleness_ms: 0,
            poll_interval_ms: 100,
        };
        let err = all_off.validate().unwrap_err();
        assert!(err.to_string().contains("disabled"), "{err}");
    }

    #[test]
    fn triggers_fire_in_priority_order_and_respect_disabling() {
        let spec = MaintenanceSpec {
            drift_threshold: 0.5,
            max_buffered: 100,
            max_staleness_ms: 1_000,
            poll_interval_ms: 50,
        };
        // Empty buffers never trigger, whatever the other readings say.
        assert_eq!(spec.due(9.0, 0, None), None);
        assert_eq!(spec.due(0.6, 5, None), Some(MaintenanceTrigger::Drift));
        assert_eq!(
            spec.due(0.1, 100, None),
            Some(MaintenanceTrigger::Occupancy)
        );
        assert_eq!(
            spec.due(0.1, 5, Some(Duration::from_secs(2))),
            Some(MaintenanceTrigger::Staleness)
        );
        assert_eq!(spec.due(0.1, 5, Some(Duration::from_millis(10))), None);
        // A disabled trigger never fires.
        let drift_only = MaintenanceSpec {
            drift_threshold: 0.5,
            max_buffered: 0,
            max_staleness_ms: 0,
            poll_interval_ms: 50,
        };
        assert_eq!(
            drift_only.due(0.1, 1_000_000, Some(Duration::from_secs(60))),
            None
        );
    }
}
