//! Deterministic distribution samplers (Zipf, exponential).
//!
//! Implemented in-tree: the approved dependency set includes `rand` but no
//! distribution crates, and both samplers are small.

use rand::{Rng, RngExt};

/// Zipf-distributed ranks over `1..=n` with exponent `s`:
/// `P(k) ∝ 1 / k^s`. Sampling is a binary search over the precomputed CDF —
/// `O(log n)` per draw, exact.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for `n ≥ 1` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/NaN.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draw a 0-based index (rank − 1): index 0 is the most probable.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Exponential inter-arrival times with the given rate (events per unit
/// time), via inverse-CDF sampling. Used to drive per-author Poisson posting
/// processes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Rate must be positive and finite.
    pub(crate) fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Self { rate }
    }

    /// Draw an inter-arrival gap (same unit as `1/rate`).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 − U avoids ln(0).
        let u: f64 = rng.random();
        -(1.0 - u).ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1_000, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Rank 1 of Zipf(1.1, 1000) carries ≈13% of the mass.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.08..0.2).contains(&share), "rank-1 share {share}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 50_000.0;
            assert!((0.08..0.12).contains(&f), "uniform share {f}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_indices_in_range() {
        let z = Zipf::new(17, 1.5);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let e = Exponential::new(0.5); // mean gap = 2.0
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| e.sample(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exponential_nonnegative() {
        let e = Exponential::new(3.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1_000 {
            assert!(e.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
