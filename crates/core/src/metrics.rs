//! Engine performance counters.
//!
//! The evaluation (Figures 11–16) reports four quantities per run: running
//! time, RAM, pairwise post comparisons and post insertions. Engines count
//! the latter three here (running time is measured by the harness), using the
//! paper's conventions:
//!
//! * a **comparison** is one coverage test of the arriving post against one
//!   stored record — CliqueBin may compare the same pair twice through two
//!   shared cliques and counts both, exactly like the paper's P7 example;
//! * an **insertion** is one copy of an emitted post appended to one bin —
//!   NeighborBin inserting into `d+1` bins counts `d+1`;
//! * **RAM** is the record payload held across all bins, with the peak
//!   tracked over the run.

/// Mutable counters updated by the engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Posts offered to the engine.
    pub posts_processed: u64,
    /// Posts emitted into the diversified sub-stream `Z`.
    pub posts_emitted: u64,
    /// Pairwise coverage comparisons performed.
    pub comparisons: u64,
    /// Record copies inserted into bins.
    pub insertions: u64,
    /// Record copies evicted from bins (λt expiry).
    pub evictions: u64,
    /// Record copies currently stored across all bins.
    pub copies_stored: u64,
    /// Maximum of `copies_stored` observed.
    pub peak_copies: u64,
    /// Maximum of the record payload bytes retained, observed.
    pub peak_memory_bytes: u64,
}

impl EngineMetrics {
    /// Record `n` insertions of `record_size`-byte records.
    #[inline]
    pub(crate) fn on_insert(&mut self, n: u64, record_size: usize) {
        self.insertions += n;
        self.copies_stored += n;
        if self.copies_stored > self.peak_copies {
            self.peak_copies = self.copies_stored;
        }
        let bytes = self.copies_stored * record_size as u64;
        if bytes > self.peak_memory_bytes {
            self.peak_memory_bytes = bytes;
        }
    }

    /// Record `n` evictions.
    #[inline]
    pub(crate) fn on_evict(&mut self, n: u64) {
        self.evictions += n;
        self.copies_stored -= n;
    }

    /// Current record payload in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.copies_stored * firehose_stream::PostRecord::SIZE_BYTES as u64
    }

    /// Fraction of processed posts that were emitted (the paper's `r`).
    pub fn emit_ratio(&self) -> f64 {
        if self.posts_processed == 0 {
            0.0
        } else {
            self.posts_emitted as f64 / self.posts_processed as f64
        }
    }

    /// Merge counters from another engine (used by the multi-user engines to
    /// aggregate across sub-engines).
    pub(crate) fn merge(&mut self, other: &EngineMetrics) {
        self.posts_processed += other.posts_processed;
        self.posts_emitted += other.posts_emitted;
        self.comparisons += other.comparisons;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.copies_stored += other.copies_stored;
        // Peaks are summed, not maxed: sub-engines coexist in memory.
        self.peak_copies += other.peak_copies;
        self.peak_memory_bytes += other.peak_memory_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_evict_track_copies() {
        let mut m = EngineMetrics::default();
        m.on_insert(3, 24);
        assert_eq!(m.insertions, 3);
        assert_eq!(m.copies_stored, 3);
        assert_eq!(m.peak_copies, 3);
        m.on_evict(2);
        assert_eq!(m.copies_stored, 1);
        assert_eq!(m.evictions, 2);
        assert_eq!(m.peak_copies, 3, "peak must not shrink");
        m.on_insert(1, 24);
        assert_eq!(m.peak_copies, 3);
        m.on_insert(2, 24);
        assert_eq!(m.peak_copies, 4);
    }

    #[test]
    fn peak_memory_tracks_bytes() {
        let mut m = EngineMetrics::default();
        m.on_insert(2, 24);
        assert_eq!(m.peak_memory_bytes, 48);
        m.on_evict(2);
        m.on_insert(1, 24);
        assert_eq!(m.peak_memory_bytes, 48);
    }

    #[test]
    fn emit_ratio() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.emit_ratio(), 0.0);
        m.posts_processed = 10;
        m.posts_emitted = 9;
        assert!((m.emit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = EngineMetrics {
            posts_processed: 1,
            posts_emitted: 1,
            comparisons: 5,
            insertions: 2,
            evictions: 1,
            copies_stored: 1,
            peak_copies: 2,
            peak_memory_bytes: 48,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.posts_processed, 2);
        assert_eq!(a.comparisons, 10);
        assert_eq!(a.peak_copies, 4);
        assert_eq!(a.peak_memory_bytes, 96);
    }
}
