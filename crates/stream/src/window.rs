//! The λt-window post bin (Section 4, "Handling Time Diversity").
//!
//! > "it is sufficient to store only the posts from previous λt time in
//! > memory for checking the coverage of a new post. One possible
//! > implementation is that we could store the posts in a circular array."
//!
//! [`TimeWindowBin`] is that structure, laid out **structure-of-arrays**:
//! four parallel contiguous columns (ids / authors / timestamps /
//! fingerprints) in arrival (= time) order, with a `head` offset marking
//! lazily evicted prefixes. New records append at the back; expired records
//! are evicted by advancing `head` (the columns compact once the dead prefix
//! would dominate, so memory stays bounded by ~2× the live window).
//!
//! The columnar layout exists for one reason: the engines' inner loop is a
//! newest-first scan comparing the arriving fingerprint against every stored
//! fingerprint in the window. [`window`](TimeWindowBin::window) exposes that
//! window as dense `&[u64]` column slices, so the scan runs as a batched,
//! autovectorizable kernel (`firehose_simhash::filter_within`) instead of a
//! pointer-chasing record iteration.

use crate::post::{PostRecord, Timestamp};
use firehose_simhash::{
    filter_within_append_using, popcount_class_bounds, rfind_within_using, KernelKind,
};

/// Fixed sub-bin span, in records. The bin's columns are partitioned into
/// aligned spans of this many consecutive arrivals (= a contiguous timestamp
/// range, since arrival order is time order); each span carries its min/max
/// stored popcount so a scan can skip the whole span when the query's
/// popcount class proves no record in it can match.
pub(crate) const SUBBIN_SPAN: usize = 256;

/// Popcount summary of one aligned [`SUBBIN_SPAN`]-record slice of a bin.
#[derive(Debug, Clone, Copy)]
struct SubBin {
    /// Smallest stored popcount in the span.
    min_pc: u8,
    /// Largest stored popcount in the span.
    max_pc: u8,
}

/// A dense, positional view of the records inside the λt window of some
/// arrival time — the in-window *suffix* of a [`TimeWindowBin`], oldest
/// first. All column slices have identical length; position `i` across them
/// is one record. Position `len() - 1` is the newest record, so a
/// newest-first scan walks positions in reverse.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    /// Post ids, arrival order.
    pub ids: &'a [u64],
    /// Author ids, arrival order.
    pub authors: &'a [u32],
    /// Timestamps (ms), non-decreasing.
    pub timestamps: &'a [Timestamp],
    /// 64-bit SimHash fingerprints, arrival order — the column the batched
    /// Hamming kernel scans.
    pub fingerprints: &'a [u64],
    /// Fingerprint popcounts, arrival order — the prefilter column
    /// (`popcounts[i] == fingerprints[i].count_ones()`).
    pub popcounts: &'a [u8],
    /// Absolute index of the view's first record within the bin's columns —
    /// aligns view positions to the bin's [`SUBBIN_SPAN`] boundaries.
    col_offset: usize,
    /// The bin's sub-bin summaries (indexed by absolute column position /
    /// [`SUBBIN_SPAN`]).
    subbins: &'a [SubBin],
}

impl WindowView<'_> {
    /// Number of in-window records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the window holds no records.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Reassemble the record at position `i` (diagnostics; the hot path
    /// reads individual columns instead).
    pub(crate) fn record(&self, i: usize) -> PostRecord {
        PostRecord {
            id: self.ids[i],
            author: self.authors[i],
            timestamp: self.timestamps[i],
            fingerprint: self.fingerprints[i],
        }
    }

    /// Positions (into this view) of fingerprints within `threshold` of
    /// `query`, newest-first, appended to `out` after clearing it — the
    /// pruned equivalent of running `filter_within_into` over the whole
    /// fingerprint column.
    ///
    /// The scan walks the view's sub-bins newest-first. A sub-bin whose
    /// stored popcount range misses the query's admissible class
    /// `[popcount(query) − threshold, popcount(query) + threshold]` is
    /// skipped wholesale; one fully inside is scanned without its popcount
    /// column (the column could reject nothing); only a straddling sub-bin
    /// passes the column, so the scan skips the 8-record blocks it rules
    /// out. Output is identical to the unpruned scan — the prefilter is
    /// conservative (triangle inequality) and the traversal order is the
    /// same newest-first order.
    pub fn filter_within_into(
        &self,
        kernel: KernelKind,
        query: u64,
        threshold: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let (lo, hi) = popcount_class_bounds(query, threshold);
        self.for_each_segment_rev(|s, e, meta| {
            if meta.max_pc < lo || meta.min_pc > hi {
                return true; // no record in the span can match
            }
            filter_within_append_using(
                kernel,
                query,
                &self.fingerprints[s..e],
                self.prefilter(s, e, meta, lo, hi),
                threshold,
                s as u32,
                out,
            );
            true
        });
    }

    /// Position (into this view) of the newest fingerprint within
    /// `threshold` of `query`, or `None` — the pruned equivalent of
    /// `rfind_within` over the whole fingerprint column, with the same
    /// sub-bin skipping as [`filter_within_into`](Self::filter_within_into).
    pub fn rfind_within(&self, kernel: KernelKind, query: u64, threshold: u32) -> Option<usize> {
        let (lo, hi) = popcount_class_bounds(query, threshold);
        let mut found = None;
        self.for_each_segment_rev(|s, e, meta| {
            if meta.max_pc < lo || meta.min_pc > hi {
                return true;
            }
            let hit = rfind_within_using(
                kernel,
                query,
                &self.fingerprints[s..e],
                self.prefilter(s, e, meta, lo, hi),
                threshold,
            );
            if let Some(p) = hit {
                found = Some(s + p);
                return false; // newest match found — stop
            }
            true
        });
        found
    }

    /// The popcount column of segment `[s, e)` when it can reject records:
    /// `None` for a sub-bin wholly inside the class `[lo, hi]`.
    #[inline]
    fn prefilter(&self, s: usize, e: usize, meta: SubBin, lo: u8, hi: u8) -> Option<&[u8]> {
        (meta.min_pc < lo || meta.max_pc > hi).then(|| &self.popcounts[s..e])
    }

    /// Drive `f` over the view's sub-bin segments, newest segment first.
    /// Each call gets the segment's view-relative range `[s, e)` and its
    /// sub-bin summary; returning `false` stops the walk.
    #[inline]
    fn for_each_segment_rev(&self, mut f: impl FnMut(usize, usize, SubBin) -> bool) {
        let n = self.fingerprints.len();
        if n == 0 {
            return;
        }
        let first = self.col_offset / SUBBIN_SPAN;
        let last = (self.col_offset + n - 1) / SUBBIN_SPAN;
        for sb in (first..=last).rev() {
            let abs_start = (sb * SUBBIN_SPAN).max(self.col_offset);
            let abs_end = ((sb + 1) * SUBBIN_SPAN).min(self.col_offset + n);
            if !f(
                abs_start - self.col_offset,
                abs_end - self.col_offset,
                self.subbins[sb],
            ) {
                return;
            }
        }
    }
}

/// A time-ordered bin of post records with λt-window eviction, stored as
/// parallel columns.
#[derive(Debug, Clone, Default)]
pub struct TimeWindowBin {
    ids: Vec<u64>,
    authors: Vec<u32>,
    timestamps: Vec<Timestamp>,
    fingerprints: Vec<u64>,
    /// Fingerprint popcounts, maintained in lockstep with `fingerprints` —
    /// the prefilter column (derived data: rebuilt for free on snapshot
    /// restore because restore replays `push`).
    popcounts: Vec<u8>,
    /// Per-[`SUBBIN_SPAN`] popcount summaries over the columns (including
    /// any dead prefix — conservative), rebuilt on compaction.
    subbins: Vec<SubBin>,
    /// Index of the first live record; everything before it is evicted
    /// garbage awaiting compaction.
    head: usize,
    /// Lifetime count of evictions (for metrics).
    evicted: u64,
    /// Lifetime count of out-of-order pushes whose timestamp was clamped to
    /// the bin watermark (for metrics).
    disordered: u64,
}

impl TimeWindowBin {
    /// An empty bin.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bin with pre-reserved capacity (expected λt-window
    /// occupancy). A hint of 0 allocates nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ids: Vec::with_capacity(capacity),
            authors: Vec::with_capacity(capacity),
            timestamps: Vec::with_capacity(capacity),
            fingerprints: Vec::with_capacity(capacity),
            popcounts: Vec::with_capacity(capacity),
            subbins: Vec::with_capacity(capacity.div_ceil(SUBBIN_SPAN)),
            head: 0,
            evicted: 0,
            disordered: 0,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ids.len() - self.head
    }

    /// True when the bin holds no records.
    pub fn is_empty(&self) -> bool {
        self.head == self.ids.len()
    }

    /// Lifetime number of evicted records.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Lifetime number of out-of-order pushes whose timestamp was clamped
    /// to the bin's watermark (see [`push`](Self::push)).
    #[cfg(test)]
    pub(crate) fn disordered(&self) -> u64 {
        self.disordered
    }

    /// Append a record.
    ///
    /// Every binary search in this structure (eviction, window bounds)
    /// relies on the timestamp column being non-decreasing. A record older
    /// than the newest stored one — a hostile or clock-skewed stream that
    /// slipped past the caller's ordering guard — is therefore stored with
    /// its timestamp clamped to the bin watermark rather than breaking the
    /// invariant (which would silently mis-evict live records); the clamp
    /// is counted.
    pub fn push(&mut self, record: PostRecord) {
        let mut record = record;
        if let Some(&newest) = self.timestamps.last() {
            if record.timestamp < newest {
                record.timestamp = newest;
                self.disordered += 1;
            }
        }
        self.ids.push(record.id);
        self.authors.push(record.author);
        self.timestamps.push(record.timestamp);
        self.fingerprints.push(record.fingerprint);
        let pc = record.fingerprint.count_ones() as u8;
        self.popcounts.push(pc);
        if (self.popcounts.len() - 1).is_multiple_of(SUBBIN_SPAN) {
            self.subbins.push(SubBin {
                min_pc: pc,
                max_pc: pc,
            });
        } else {
            let sb = self.subbins.last_mut().expect("sub-bin exists");
            sb.min_pc = sb.min_pc.min(pc);
            sb.max_pc = sb.max_pc.max(pc);
        }
    }

    /// Drop every record with `timestamp + lambda_t < now`, i.e. records that
    /// can no longer cover an arrival at time `now`. Returns the number
    /// evicted.
    pub fn evict_expired(&mut self, now: Timestamp, lambda_t: Timestamp) -> usize {
        let cutoff = now.saturating_sub(lambda_t);
        // Timestamps are non-decreasing, so the expired records are exactly
        // the prefix with timestamp < cutoff.
        let live = &self.timestamps[self.head..];
        let n = live.partition_point(|&ts| ts < cutoff);
        self.head += n;
        self.evicted += n as u64;
        // Compact once the dead prefix reaches the live length: each record
        // is moved at most once per doubling, keeping push/evict amortized
        // O(1) while bounding memory to ~2× the live window.
        if self.head > 0 && self.head >= self.ids.len() - self.head {
            self.ids.drain(..self.head);
            self.authors.drain(..self.head);
            self.timestamps.drain(..self.head);
            self.fingerprints.drain(..self.head);
            self.popcounts.drain(..self.head);
            self.head = 0;
            // Compaction shifts every absolute column index, so the aligned
            // sub-bin summaries are recomputed from the surviving popcounts
            // (same O(live) cost as the drains above).
            self.subbins.clear();
            for chunk in self.popcounts.chunks(SUBBIN_SPAN) {
                let mut sb = SubBin {
                    min_pc: u8::MAX,
                    max_pc: 0,
                };
                for &pc in chunk {
                    sb.min_pc = sb.min_pc.min(pc);
                    sb.max_pc = sb.max_pc.max(pc);
                }
                self.subbins.push(sb);
            }
        }
        n
    }

    /// The dense columnar view of the records within the λt window of `now`
    /// (timestamp ≥ `now − λt`), oldest first. Correct even before
    /// [`evict_expired`](Self::evict_expired) runs — out-of-window prefixes
    /// are excluded by binary search on the sorted timestamp column.
    pub fn window(&self, now: Timestamp, lambda_t: Timestamp) -> WindowView<'_> {
        let cutoff = now.saturating_sub(lambda_t);
        let live = &self.timestamps[self.head..];
        let start = self.head + live.partition_point(|&ts| ts < cutoff);
        WindowView {
            ids: &self.ids[start..],
            authors: &self.authors[start..],
            timestamps: &self.timestamps[start..],
            fingerprints: &self.fingerprints[start..],
            popcounts: &self.popcounts[start..],
            col_offset: start,
            subbins: &self.subbins,
        }
    }

    /// Iterate records within the λt window of `now`, most recent first —
    /// the exact scan order of the paper's algorithms (index `b` down to
    /// `a`). The scalar sibling of [`window`](Self::window), kept for
    /// reference implementations and diagnostics.
    pub fn iter_window(
        &self,
        now: Timestamp,
        lambda_t: Timestamp,
    ) -> impl Iterator<Item = PostRecord> + '_ {
        let view = self.window(now, lambda_t);
        (0..view.len()).rev().map(move |i| view.record(i))
    }

    /// Iterate all stored records oldest-first (diagnostics, snapshots).
    pub fn iter(&self) -> impl Iterator<Item = PostRecord> + '_ {
        (self.head..self.ids.len()).map(move |i| PostRecord {
            id: self.ids[i],
            author: self.authors[i],
            timestamp: self.timestamps[i],
            fingerprint: self.fingerprints[i],
        })
    }

    /// Bytes of record payload currently held (RAM accounting for the
    /// Figure 11–16 experiments; excludes container overhead, which is the
    /// same convention for all three algorithms — the SoA columns sum to
    /// exactly [`PostRecord::SIZE_BYTES`] per live record).
    pub fn memory_bytes(&self) -> usize {
        self.len() * PostRecord::SIZE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(id: u64, ts: Timestamp) -> PostRecord {
        PostRecord {
            id,
            author: 0,
            timestamp: ts,
            fingerprint: id.wrapping_mul(0x9E37),
        }
    }

    #[test]
    fn push_and_len() {
        let mut bin = TimeWindowBin::new();
        assert!(bin.is_empty());
        bin.push(rec(1, 10));
        bin.push(rec(2, 20));
        assert_eq!(bin.len(), 2);
    }

    #[test]
    fn eviction_drops_only_expired() {
        let mut bin = TimeWindowBin::new();
        for (id, ts) in [(1, 0), (2, 50), (3, 100), (4, 150)] {
            bin.push(rec(id, ts));
        }
        // now=150, λt=100 ⇒ cutoff 50: only id 1 (ts 0) expires.
        assert_eq!(bin.evict_expired(150, 100), 1);
        assert_eq!(bin.len(), 3);
        assert_eq!(bin.evicted(), 1);
        assert_eq!(bin.iter().next().unwrap().id, 2);
    }

    #[test]
    fn boundary_record_stays() {
        let mut bin = TimeWindowBin::new();
        bin.push(rec(1, 50));
        // distt = now − ts = λt exactly ⇒ still within the window (≤ λt).
        assert_eq!(bin.evict_expired(150, 100), 0);
        assert_eq!(bin.len(), 1);
    }

    #[test]
    fn window_iteration_most_recent_first() {
        let mut bin = TimeWindowBin::new();
        for (id, ts) in [(1, 0), (2, 100), (3, 200)] {
            bin.push(rec(id, ts));
        }
        let ids: Vec<u64> = bin.iter_window(200, 150).map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 2]); // id 1 out of window
    }

    #[test]
    fn window_iteration_without_prior_eviction() {
        let mut bin = TimeWindowBin::new();
        for ts in 0..10 {
            bin.push(rec(ts, ts * 10));
        }
        // No evict_expired call; iterator must still respect the window.
        let ids: Vec<u64> = bin.iter_window(90, 25).map(|r| r.id).collect();
        assert_eq!(ids, vec![9, 8, 7]); // ts 90, 80, 70 >= 90-25=65
    }

    #[test]
    fn saturating_cutoff_near_zero() {
        let mut bin = TimeWindowBin::new();
        bin.push(rec(1, 5));
        // now < λt: cutoff saturates to 0, nothing evicted.
        assert_eq!(bin.evict_expired(10, 100), 0);
        assert_eq!(bin.iter_window(10, 100).count(), 1);
    }

    #[test]
    fn memory_accounting() {
        let mut bin = TimeWindowBin::new();
        assert_eq!(bin.memory_bytes(), 0);
        bin.push(rec(1, 1));
        assert_eq!(bin.memory_bytes(), PostRecord::SIZE_BYTES);
    }

    #[test]
    fn window_view_columns_are_parallel() {
        let mut bin = TimeWindowBin::new();
        for (id, ts) in [(7, 10), (8, 20), (9, 30)] {
            bin.push(rec(id, ts));
        }
        let view = bin.window(30, 15);
        assert_eq!(view.len(), 2); // ts 20, 30
        assert!(!view.is_empty());
        assert_eq!(view.ids, &[8, 9]);
        assert_eq!(view.timestamps, &[20, 30]);
        assert_eq!(view.fingerprints[0], 8u64.wrapping_mul(0x9E37));
        assert_eq!(view.record(1), rec(9, 30));
    }

    #[test]
    fn eviction_compacts_dead_prefix() {
        let mut bin = TimeWindowBin::new();
        for ts in 0..100u64 {
            bin.push(rec(ts, ts));
        }
        // Evict 90 of 100: the dead prefix dominates, so columns compact.
        assert_eq!(bin.evict_expired(99, 9), 90);
        assert_eq!(bin.len(), 10);
        assert_eq!(bin.memory_bytes(), 10 * PostRecord::SIZE_BYTES);
        let ids: Vec<u64> = bin.iter().map(|r| r.id).collect();
        assert_eq!(ids, (90..100).collect::<Vec<_>>());
        // The bin stays fully usable after compaction.
        bin.push(rec(100, 100));
        assert_eq!(bin.evict_expired(100, 5), 5);
        assert_eq!(bin.len(), 6);
    }

    #[test]
    fn backwards_jumping_clock_never_underflows_or_misevicts() {
        // Regression: a post older than the window head used to be stored
        // raw, breaking the sorted-timestamps invariant — partition_point
        // could then evict live records or retain expired ones.
        let mut bin = TimeWindowBin::new();
        bin.push(rec(1, 1_000));
        bin.push(rec(2, 2_000));
        // Clock jumps backwards: record claims ts 100, far behind watermark.
        bin.push(rec(3, 100));
        assert_eq!(bin.disordered(), 1);
        // The stored column is still sorted: the straggler was clamped.
        let stored: Vec<Timestamp> = bin.iter().map(|r| r.timestamp).collect();
        assert_eq!(stored, vec![1_000, 2_000, 2_000]);
        // Eviction at now=2_500, λt=1_000 (cutoff 1_500) drops exactly the
        // ts-1_000 record; the clamped straggler survives with its peers.
        assert_eq!(bin.evict_expired(2_500, 1_000), 1);
        let ids: Vec<u64> = bin.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3]);
        // A backwards `now` (evicting "in the past") must not underflow.
        assert_eq!(bin.evict_expired(0, 1_000), 0);
        assert_eq!(bin.len(), 2);
    }

    #[test]
    fn interleaved_backwards_pushes_keep_window_queries_sane() {
        let mut bin = TimeWindowBin::new();
        for (id, ts) in [(1, 500), (2, 50), (3, 700), (4, 10), (5, 900)] {
            bin.push(rec(id, ts));
        }
        assert_eq!(bin.disordered(), 2);
        // Stored column: ts [500, 500, 700, 700, 900] (ids 2 and 4 clamped).
        // Window query sees a sorted column; no panic, no phantom records.
        let view = bin.window(900, 300);
        assert!(view.timestamps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(view.ids, &[3, 4, 5]); // cutoff 600 excludes ids 1, 2
    }

    #[test]
    fn with_capacity_preserves_behavior() {
        let mut a = TimeWindowBin::new();
        let mut b = TimeWindowBin::with_capacity(64);
        for ts in 0..40u64 {
            a.push(rec(ts, ts * 7));
            b.push(rec(ts, ts * 7));
        }
        a.evict_expired(273, 100);
        b.evict_expired(273, 100);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.evicted(), b.evicted());
        let ia: Vec<PostRecord> = a.iter().collect();
        let ib: Vec<PostRecord> = b.iter().collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn popcount_column_tracks_fingerprints() {
        let mut bin = TimeWindowBin::new();
        for (id, ts) in [(0u64, 0u64), (u64::MAX, 1), (0b1011, 2)] {
            bin.push(PostRecord {
                id,
                author: 0,
                timestamp: ts,
                fingerprint: id,
            });
        }
        let view = bin.window(2, 100);
        assert_eq!(view.popcounts, &[0, 64, 3]);
        assert_eq!(view.popcounts.len(), view.fingerprints.len());
    }

    /// The scalar reference the view scans must reproduce: newest-first
    /// positions within threshold.
    fn reference_scan(view_fps: &[u64], query: u64, threshold: u32) -> Vec<u32> {
        (0..view_fps.len())
            .rev()
            .filter(|&i| (view_fps[i] ^ query).count_ones() <= threshold)
            .map(|i| i as u32)
            .collect()
    }

    /// The view's sub-bin-pruned scans, and the kernel entry points over its
    /// whole fingerprint column with and without the popcount column, all
    /// equal the reference on every kernel the host supports.
    fn assert_view_scans_match(view: &WindowView<'_>, query: u64, threshold: u32) {
        let expected = reference_scan(view.fingerprints, query, threshold);
        let first = expected.first().map(|&p| p as usize);
        let mut got = vec![99u32];
        for kernel in firehose_simhash::supported_kernels() {
            view.filter_within_into(kernel, query, threshold, &mut got);
            assert_eq!(got, expected, "view kernel={kernel} threshold={threshold}");
            assert_eq!(
                view.rfind_within(kernel, query, threshold),
                first,
                "view kernel={kernel} threshold={threshold}"
            );
            for popcounts in [None, Some(view.popcounts)] {
                let pruned = popcounts.is_some();
                got.clear();
                let fps = view.fingerprints;
                filter_within_append_using(kernel, query, fps, popcounts, threshold, 0, &mut got);
                assert_eq!(
                    got, expected,
                    "column kernel={kernel} pruned={pruned} threshold={threshold}"
                );
                assert_eq!(
                    rfind_within_using(kernel, query, fps, popcounts, threshold),
                    first,
                    "column kernel={kernel} pruned={pruned} threshold={threshold}"
                );
            }
        }
    }

    #[test]
    fn view_scans_match_reference_across_subbin_boundaries() {
        // Enough records to span several sub-bins, with skewed popcounts so
        // whole-span skipping actually triggers at small thresholds.
        let mut bin = TimeWindowBin::new();
        for i in 0..(3 * SUBBIN_SPAN as u64 + 17) {
            let fingerprint = match i % 3 {
                0 => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                1 => i & 0xFF,      // low popcount
                _ => i | !0xFFFu64, // high popcount
            };
            bin.push(PostRecord {
                id: i,
                author: 0,
                timestamp: i,
                fingerprint,
            });
        }
        let now = 3 * SUBBIN_SPAN as u64 + 16;
        for lambda_t in [10u64, 400, 2_000] {
            // Mid-stream eviction so head offsets and compaction both occur.
            bin.evict_expired(now, lambda_t);
            let view = bin.window(now, lambda_t);
            for query in [0u64, u64::MAX, 0xFF, 42u64.wrapping_mul(0x9E37)] {
                for threshold in [0u32, 4, 18, 64] {
                    assert_view_scans_match(&view, query, threshold);
                }
            }
        }
    }

    proptest! {
        /// The pruned sub-bin scan equals the plain newest-first scan over
        /// the view's fingerprint column for every (eviction, window,
        /// threshold) interleaving — sub-bin boundaries, dead prefixes and
        /// compaction are invisible in the output.
        #[test]
        fn view_scan_matches_reference(
            mut times in proptest::collection::vec(0u64..1_000, 0..60),
            lambda_t in 0u64..400,
            evict_at in proptest::collection::vec(0u64..1_200, 0..6),
            threshold in 0u32..=64,
            query: u64,
        ) {
            times.sort_unstable();
            let now = times.last().copied().unwrap_or(0);
            let mut bin = TimeWindowBin::new();
            let mut evictions = evict_at;
            evictions.sort_unstable();
            for (i, &ts) in times.iter().enumerate() {
                bin.push(rec(i as u64, ts));
                if let Some(&at) = evictions.first() {
                    if at <= ts {
                        bin.evict_expired(ts, lambda_t);
                        evictions.remove(0);
                    }
                }
            }
            assert_view_scans_match(&bin.window(now, lambda_t), query, threshold);
        }

        /// After eviction at (now, λt), no stored record is outside the
        /// window and no in-window record was lost.
        #[test]
        fn eviction_exactness(
            mut times in proptest::collection::vec(0u64..1_000, 1..50),
            lambda_t in 0u64..500,
        ) {
            times.sort_unstable();
            let now = *times.last().unwrap();
            let mut bin = TimeWindowBin::new();
            for (i, &ts) in times.iter().enumerate() {
                bin.push(rec(i as u64, ts));
            }
            bin.evict_expired(now, lambda_t);
            let kept: Vec<u64> = bin.iter().map(|r| r.timestamp).collect();
            let expected: Vec<u64> = times
                .iter()
                .copied()
                .filter(|&ts| ts >= now.saturating_sub(lambda_t))
                .collect();
            prop_assert_eq!(kept, expected);
        }

        /// iter_window sees exactly the records within distance λt of `now`,
        /// newest first.
        #[test]
        fn window_iteration_exactness(
            mut times in proptest::collection::vec(0u64..1_000, 0..50),
            lambda_t in 0u64..500,
            now_extra in 0u64..100,
        ) {
            times.sort_unstable();
            let now = times.last().copied().unwrap_or(0) + now_extra;
            let mut bin = TimeWindowBin::new();
            for (i, &ts) in times.iter().enumerate() {
                bin.push(rec(i as u64, ts));
            }
            let seen: Vec<u64> = bin.iter_window(now, lambda_t).map(|r| r.timestamp).collect();
            let mut expected: Vec<u64> = times
                .iter()
                .copied()
                .filter(|&ts| now.saturating_sub(ts) <= lambda_t)
                .collect();
            expected.reverse();
            prop_assert_eq!(seen, expected);
        }

        /// The columnar view and the scalar iterator agree on every
        /// (eviction, window) interleaving — the SoA layout is invisible.
        #[test]
        fn window_view_matches_iterator(
            mut times in proptest::collection::vec(0u64..1_000, 0..60),
            lambda_t in 0u64..400,
            evict_at in proptest::collection::vec(0u64..1_200, 0..6),
        ) {
            times.sort_unstable();
            let now = times.last().copied().unwrap_or(0);
            let mut bin = TimeWindowBin::new();
            let mut pushed = 0usize;
            let mut evictions = evict_at;
            evictions.sort_unstable();
            for (i, &ts) in times.iter().enumerate() {
                bin.push(rec(i as u64, ts));
                pushed += 1;
                // Interleave eviction sweeps at earlier times (≤ ts).
                if let Some(&at) = evictions.first() {
                    if at <= ts {
                        bin.evict_expired(ts, lambda_t);
                        evictions.remove(0);
                    }
                }
            }
            prop_assert!(bin.len() <= pushed);
            let view = bin.window(now, lambda_t);
            let via_iter: Vec<PostRecord> = bin.iter_window(now, lambda_t).collect();
            prop_assert_eq!(view.len(), via_iter.len());
            for (k, r) in via_iter.iter().enumerate() {
                // iter_window is newest-first; the view is oldest-first.
                prop_assert_eq!(view.record(view.len() - 1 - k), *r);
            }
        }
    }
}
