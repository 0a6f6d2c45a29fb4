//! Quantiles over measured samples, and the per-run estimates built
//! from them.

/// Share of a run's set-ups `setup_s` is read from: the fastest tenth.
///
/// The benchmark was sized on a shared 2-CPU virtual machine whose
/// speed moves between two plateaus about 1.6× apart, each lasting
/// seconds, on either CPU: one set-up takes 50 ms in the fast plateau
/// and 85 ms in the slow one. The median of a run's set-ups depends on
/// how many fell in the slow plateau; other tenants only ever slow a
/// set-up down, so the fastest tenth reads the program at full speed.
pub const FAST_SHARE: f64 = 0.1;

/// Nearest-rank `q`-quantile, `q` in `[0, 1]`. `NaN` for an empty
/// sample, so a missing measurement never passes for a number.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The boundary of the fastest [`FAST_SHARE`] of `times`.
pub fn fastest_tenth(times: &[f64]) -> f64 {
    quantile(times, FAST_SHARE)
}

/// The interquartile mean over a run's cycles of one value per cycle:
/// the mean of the middle half, leaving out cycles that measured
/// nothing (`NaN`); `NaN` when none did. Robust to a stalled cycle like
/// a median, but where the machine's two speeds split a run's cycles
/// about evenly it moves smoothly with the split, where a median jumps
/// from one speed to the other.
pub fn cycle_mean(per_cycle: &[f64]) -> f64 {
    let mut measured: Vec<f64> = per_cycle
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    measured.sort_by(f64::total_cmp);
    let n = measured.len();
    let middle = &measured[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Share of a run's cycles an open-loop latency is read from: the
/// fastest quarter.
pub const BEST_SHARE: f64 = 0.25;

/// The mean over the fastest [`BEST_SHARE`] of a run's cycles of one
/// latency per cycle, leaving out cycles that measured nothing (`NaN`);
/// `NaN` when none did.
///
/// For the reason `setup_s` reads the fastest set-ups. An open loop
/// leaves the server's and the coordinator's fan-out threads idle
/// between requests, and other tenants of the shared machine delay
/// their wake-ups now and then; they only ever slow a cycle down, and
/// the share of cycles they slow changed from run to run. In a slowed
/// cycle a tail quantile doubled while the median hardly moved, so the
/// interquartile mean of the cycles still spread with that share. The
/// fastest quarter reads the program whenever at least a quarter of a
/// run's cycles ran undisturbed; a slower program slows every cycle, the
/// fastest included. Closed loops keep both CPUs busy, so their cycles
/// follow the machine's speed instead, and [`cycle_mean`] reads them
/// more steadily.
pub fn best_cycles(per_cycle: &[f64]) -> f64 {
    let mut measured: Vec<f64> = per_cycle
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    measured.sort_by(f64::total_cmp);
    let n = measured.len();
    let take = ((n as f64 * BEST_SHARE).round() as usize).clamp(n.min(1), n);
    let fastest = &measured[..take];
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn set_ups_and_cycles_read_the_fast_plateau() {
        // Twenty set-ups: six at full speed, fourteen slowed by 1.6×.
        let mut times = vec![0.05; 6];
        times.extend([0.08; 14]);
        assert_eq!(fastest_tenth(&times), 0.05);
        let ranks: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fastest_tenth(&ranks), 2.0);
        // The middle half of the cycles, without those that measured
        // nothing: a stalled cycle moves nothing.
        let stalled = [f64::NAN, 1.0, 4.0, 2.0, 1e9, 3.0, 5.0, 6.0, 0.0];
        assert_eq!(cycle_mean(&stalled), 3.5);
        assert_eq!(cycle_mean(&[2.0, 4.0, 3.0]), 3.0);
        assert!(cycle_mean(&[f64::NAN]).is_nan());
        // The fastest quarter of the cycles, without those that measured
        // nothing: slowed and stalled cycles move nothing.
        let cycles = [f64::NAN, 1.0, 4.0, 2.0, 1e9, 3.0, 5.0, 6.0, 0.5];
        assert_eq!(best_cycles(&cycles), 0.75);
        assert_eq!(best_cycles(&[2.0, 4.0, 3.0]), 2.0);
        assert!(best_cycles(&[f64::NAN]).is_nan());
        // Eight undisturbed cycles among 24 slowed ones are enough.
        let mut mixed = vec![10.0; 8];
        mixed.extend([25.0; 24]);
        assert_eq!(best_cycles(&mixed), 10.0);
    }
}
