//! Order statistics with a sample floor.
//!
//! A percentile is reported only when at least [`TAIL_SAMPLES`] samples lie
//! beyond it, so `p99` needs 1,000 samples and `p90` needs 100. Below the
//! floor the value is absent, never zero.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// Nearest-rank quantile of an ascending slice, without the sample floor.
/// `None` only when the slice is empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// Whether `n` samples support quantile `q`: ten samples beyond it on the
/// thinner side.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * q.min(1.0 - q) >= TAIL_SAMPLES
}

/// [`quantile`] that is absent below the sample floor.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if supports(sorted.len(), q) {
        quantile(sorted, q)
    } else {
        None
    }
}

/// Sort samples ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), which
/// is what the acceptance rule for the benchmark uses. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped into the sample range.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_absent_below_their_sample_floor() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), None, "p99 needs 1,000 samples");
        assert!(percentile(&small, 0.90).is_some(), "p90 needs only 100");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99), Some(989.0));
        assert_eq!(percentile(&[1.0; 19], 0.5), None, "p50 needs 20");
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quantile_ignores_the_floor_but_not_emptiness() {
        assert_eq!(quantile(&[3.0, 4.0, 9.0], 0.99), Some(9.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
