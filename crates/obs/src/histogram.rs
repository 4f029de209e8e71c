//! Fixed-bucket log-linear latency histogram.
//!
//! Values (typically nanoseconds) are binned into a fixed layout: the first
//! [`LINEAR_CUTOFF`] buckets are exact (one value each), and every octave
//! above is split into [`SUBS`] equal sub-buckets, giving a worst-case
//! relative error of `1/SUBS = 12.5%` on any reported quantile — constant
//! memory (496 buckets ≈ 4 KiB), O(1) record, no allocation after
//! construction, and lock-free concurrent recording (relaxed atomics).
//!
//! This is the classic HDR-style layout; see e.g. `hdrhistogram` — here
//! reduced to exactly what a hot `offer_record` path needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (8 → ≤12.5% relative bucket width).
const SUBS: usize = 8;
/// log2 of [`SUBS`].
const SUB_BITS: u32 = 3;
/// Values below this are binned exactly (one bucket per value).
const LINEAR_CUTOFF: u64 = 2 * SUBS as u64; // 16
/// Total bucket count: 16 exact + 60 octaves × 8 sub-buckets.
pub(crate) const BUCKETS: usize = 2 * SUBS + (63 - SUB_BITS as usize) * SUBS; // 496

/// Bucket index for a value. Exact below [`LINEAR_CUTOFF`], log-linear above.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ 4
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUBS as u64 - 1)) as usize;
        SUBS + (msb - SUB_BITS) as usize * SUBS + sub
    }
}

/// Smallest value mapping to bucket `idx`.
#[inline]
pub(crate) fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let k = idx - SUBS;
        let msb = SUB_BITS + (k / SUBS) as u32;
        let sub = (k % SUBS) as u64;
        (SUBS as u64 + sub) << (msb - SUB_BITS)
    }
}

/// Largest value mapping to bucket `idx`.
#[inline]
pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(idx + 1) - 1
    }
}

/// A concurrent log-linear histogram of `u64` samples.
///
/// All methods take `&self`; recording is a relaxed `fetch_add` on one
/// bucket plus count/sum/max updates, so a histogram can be shared across
/// threads behind an `Arc` with no locking.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    #[cfg(test)]
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy for rendering.
    /// (Buckets are read individually with relaxed ordering; concurrent
    /// recording can skew a snapshot by the in-flight samples, which is the
    /// standard exposition-time tradeoff.)
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// An owned point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub(crate) struct HistogramSnapshot {
    /// Per-bucket sample counts ([`BUCKETS`] entries).
    pub(crate) counts: Vec<u64>,
    /// Total samples.
    pub(crate) count: u64,
    /// Sum of samples.
    pub(crate) sum: u64,
}

impl HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` pairs for every non-empty bucket,
    /// in increasing bound order — the Prometheus `le` series (exclusive of
    /// the `+Inf` bucket, which is [`Self::count`]).
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((bucket_upper_bound(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Estimate of the `q`-quantile, linearly interpolated inside the
    /// containing bucket; 0 for an empty histogram. Exact below 16 and
    /// within 12.5% above — the accuracy the bucket layout promises.
    fn quantile(h: &Histogram, q: f64) -> u64 {
        let s = h.snapshot();
        if s.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample we want.
        let rank = ((q * s.count as f64).ceil() as u64).clamp(1, s.count);
        let mut cum = 0u64;
        for (i, &c) in s.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = bucket_lower_bound(i);
                let hi = bucket_upper_bound(i).min(h.max());
                let within = (rank - cum) as f64 / c as f64;
                return lo + ((hi.saturating_sub(lo)) as f64 * within) as u64;
            }
            cum += c;
        }
        h.max()
    }

    #[test]
    fn layout_is_exhaustive_and_ordered() {
        // Every bucket's bounds nest correctly and index round-trips.
        for idx in 0..BUCKETS {
            let lo = bucket_lower_bound(idx);
            let hi = bucket_upper_bound(idx);
            assert!(lo <= hi, "bucket {idx}: {lo} > {hi}");
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(bucket_lower_bound(idx + 1), hi + 1, "gap after {idx}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound ≤ 1/8 above the linear region.
        for idx in LINEAR_CUTOFF as usize..BUCKETS - 1 {
            let lo = bucket_lower_bound(idx);
            let width = bucket_upper_bound(idx) - lo + 1;
            assert!(width as f64 / lo as f64 <= 0.125 + 1e-9, "bucket {idx}");
        }
    }

    #[test]
    fn exact_below_cutoff() {
        let h = Histogram::new();
        for v in 0..LINEAR_CUTOFF {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..LINEAR_CUTOFF as usize {
            assert_eq!(s.counts[v], 1);
        }
    }

    #[test]
    fn count_sum_max() {
        let h = Histogram::new();
        for v in [5u64, 100, 1_000_000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_000_108);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expected) in [
            (0.5, 5_000.0),
            (0.9, 9_000.0),
            (0.99, 9_900.0),
            (0.999, 9_990.0),
        ] {
            let got = quantile(&h, q) as f64;
            let err = (got - expected).abs() / expected;
            assert!(
                err <= 0.13,
                "q={q}: got {got}, expected ≈{expected} (err {err:.3})"
            );
        }
        assert_eq!(quantile(&h, 1.0), 10_000);
        assert_eq!(quantile(&h, 0.0), 1);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(quantile(&h, 0.99), 0);
        assert!(h.snapshot().cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let h = Histogram::new();
        for v in [1u64, 1, 17, 300, 300, 300, 1 << 40] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative_buckets();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, 7);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * 7 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 40_000);
    }
}
