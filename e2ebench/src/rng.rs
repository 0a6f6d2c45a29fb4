//! A seeded splitmix64 generator: every schedule and request stream the
//! benchmark produces is a pure function of the `--seed` argument.

/// A small, fast, seedable generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`lane`) of one seed.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One exponentially distributed gap of a Poisson process with
    /// `rate` events per second, in nanoseconds.
    pub fn poisson_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]: the log stays finite
        (-u.ln() / rate * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_lane_and_differ_otherwise() {
        let draw = |seed, lane| {
            let mut rng = Rng::stream(seed, lane);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn draws_stay_in_range_and_gaps_average_to_the_rate() {
        let mut rng = Rng::stream(3, 0);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!(rng.below(5) < 5);
        }
        let n = 20_000;
        let mean_ns = (0..n).map(|_| rng.poisson_gap_ns(1000.0)).sum::<u64>() as f64 / n as f64;
        // 1000 events/s: a 1 ms mean gap, within a few percent.
        assert!((mean_ns / 1e6 - 1.0).abs() < 0.05, "mean gap {mean_ns} ns");
    }
}
