//! Tiered approximate λt-window storage for the sublinear-memory mode.
//!
//! [`ApproxWindowBin`] replaces the exact SoA window of
//! [`TimeWindowBin`](crate::window::TimeWindowBin) with two stacked
//! approximations, both with one-sided error (a retained candidate is always
//! a *genuine* cover; divergence from exact mode can only make the engine
//! emit posts exact mode would prune, never prune posts it would emit):
//!
//! 1. **Recency-skewed bucket retention** (after Epasto et al., "Improved
//!    Sliding Window Algorithms for Clustering and Coverage"): the λt
//!    window is partitioned into `granularity` aligned time buckets of span
//!    `λt / granularity`. The **active** (newest) bucket keeps full
//!    fidelity up to `granularity × bucket_budget` records (drop-oldest
//!    beyond that); when time rolls the grid forward the bucket *closes*
//!    and is **decimated** to `bucket_budget` records by an even-stride
//!    sample that always keeps the bucket's newest record. Near-duplicates
//!    overwhelmingly trail their source by minutes, so the recent past —
//!    where covers live — stays exact while the tail thins to a bounded
//!    sketch. Memory is bounded by `(2·granularity + 1) × bucket_budget`
//!    records per bin regardless of stream rate. Records keep their *exact*
//!    timestamps; bucketing bounds retention, it never coarsens window
//!    membership.
//!
//! 2. **Multi-probe SimHash prefix buckets** (Manku-style, built on
//!    [`HammingIndex`]): instead of a full-window Hamming scan, lookups
//!    probe `probes` permuted prefix tables laid out for distance
//!    `min(probes − 1, λc)` and verify every colliding candidate at the
//!    full λc. Recall is exact up to the layout distance (pigeonhole) and
//!    probabilistic beyond it — a λc-near record is found iff it agrees
//!    with the query on at least one prefix block. Misses surface as
//!    residual redundancy, measured by the quality gate.
//!
//! The combination is the "tiered" backend of ROADMAP item 3: a hard memory
//! tier (buckets) under a sublinear lookup tier (prefix probes).

use std::collections::VecDeque;

use crate::post::{AuthorId, PostId, PostRecord, Timestamp};
use firehose_simhash::{Fingerprint, HammingIndex};

/// Shape of an [`ApproxWindowBin`] — validated upstream (the typed config
/// API rejects out-of-range values before a bin is ever built).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxParams {
    /// Number of permuted prefix tables to probe per lookup (= the index
    /// block count). Lookup distance is `min(probes − 1, λc)`.
    pub probes: u32,
    /// Records a bucket is decimated to when it closes. The active bucket
    /// holds up to `granularity × bucket_budget` records.
    pub bucket_budget: u32,
    /// Time buckets per λt window (bucket span = `λt / granularity`).
    pub granularity: u32,
}

/// What a push did, so the engine can keep truthful copy/eviction counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOutcome {
    /// Records dropped to make room: closed-bucket decimation plus any
    /// active-bucket cap overflow.
    pub displaced: u32,
}

/// Lifetime counters of one approximate bin, for the obs layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxStats {
    /// Prefix-table lookups performed.
    pub probes_run: u64,
    /// Candidate verifications across all lookups (the approximate
    /// analogue of the exact scan's comparison count).
    pub candidates_probed: u64,
    /// Records dropped by bucket caps (retention-tier loss).
    pub displaced: u64,
    /// Records currently retained.
    pub retained: u64,
}

impl ApproxStats {
    /// Field-wise sum, for aggregating per-bin stats into an engine total.
    pub fn merge(&mut self, other: &ApproxStats) {
        self.probes_run += other.probes_run;
        self.candidates_probed += other.candidates_probed;
        self.displaced += other.displaced;
        self.retained += other.retained;
    }
}

/// A candidate returned by [`ApproxWindowBin::probe`]: the retained record's
/// identity, already verified within the index distance and the λt window.
/// The caller applies its own author admission check.
#[derive(Debug, Clone, Copy)]
pub struct ApproxCandidate {
    /// Post id of the retained record.
    pub id: PostId,
    /// Author of the retained record.
    pub author: AuthorId,
    /// Exact (clamped) timestamp of the retained record.
    pub timestamp: Timestamp,
}

/// Per-slot record metadata, parallel to the index's fingerprint slots.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    id: PostId,
    author: AuthorId,
    timestamp: Timestamp,
}

/// One aligned time bucket: retained slot ids in arrival (= time) order.
#[derive(Debug)]
struct Bucket {
    start: Timestamp,
    slots: VecDeque<u32>,
}

/// The tiered approximate window bin (see module docs).
///
/// Records are pushed in arrival order (timestamps clamped monotone exactly
/// like `TimeWindowBin`), retained subject to per-bucket caps, expired by
/// exact timestamp, and looked up through multi-probe prefix buckets.
pub struct ApproxWindowBin {
    params: ApproxParams,
    /// Full verification distance for probes (the engine's λc).
    lambda_c: u32,
    /// Width of one time bucket, `max(1, λt / granularity)` ms.
    bucket_span: Timestamp,
    index: HammingIndex,
    meta: Vec<Meta>,
    /// Buckets oldest-first; within a bucket, slots oldest-first.
    buckets: VecDeque<Bucket>,
    live: usize,
    watermark: Timestamp,
    evicted: u64,
    displaced: u64,
    disordered: u64,
    probes_run: u64,
    candidates_probed: u64,
    scratch: Vec<u32>,
}

impl ApproxWindowBin {
    /// Build an empty bin. `lambda_c` bounds the lookup distance and
    /// `lambda_t` fixes the bucket grid. `params` must be pre-validated
    /// (`1 ≤ probes ≤ 16`, budgets ≥ 1): the typed config layer guarantees
    /// this, so an infeasible index layout here is a programming error.
    pub fn new(params: ApproxParams, lambda_c: u32, lambda_t: Timestamp) -> Self {
        let k_index = params.probes.saturating_sub(1).min(lambda_c);
        let index = HammingIndex::with_blocks(k_index, params.probes.max(k_index + 1))
            .expect("validated approx params always yield a feasible index");
        let bucket_span = (lambda_t / Timestamp::from(params.granularity)).max(1);
        Self {
            params,
            lambda_c,
            bucket_span,
            index,
            meta: Vec::new(),
            buckets: VecDeque::new(),
            live: 0,
            watermark: 0,
            evicted: 0,
            displaced: 0,
            disordered: 0,
            probes_run: 0,
            candidates_probed: 0,
            scratch: Vec::new(),
        }
    }

    /// The distance up to which a probe is guaranteed to find every
    /// retained record (the prefix-table layout distance). Between this and
    /// λc, recall is probabilistic (see the module docs).
    #[cfg(test)]
    pub(crate) fn index_distance(&self) -> u32 {
        self.params.probes.saturating_sub(1).min(self.lambda_c)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Records dropped because their timestamp left the λt window.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Records stored with a clamped timestamp (hostile-order streams).
    #[cfg(test)]
    pub(crate) fn disordered(&self) -> u64 {
        self.disordered
    }

    /// Lifetime counters for the obs layer.
    pub fn stats(&self) -> ApproxStats {
        ApproxStats {
            probes_run: self.probes_run,
            candidates_probed: self.candidates_probed,
            displaced: self.displaced,
            retained: self.live as u64,
        }
    }

    /// Record payload bytes retained — same accounting convention as
    /// [`TimeWindowBin::memory_bytes`](crate::window::TimeWindowBin::memory_bytes).
    pub fn memory_bytes(&self) -> usize {
        self.live * PostRecord::SIZE_BYTES
    }

    /// Store a record, charging the bucket cap. Timestamps are clamped
    /// monotone first (mirroring the exact bin's hostile-order guard), so
    /// bucket starts are non-decreasing and eviction stays a prefix walk.
    pub fn insert(&mut self, record: PostRecord) -> StoreOutcome {
        let mut ts = record.timestamp;
        if ts < self.watermark {
            ts = self.watermark;
            self.disordered += 1;
        } else {
            self.watermark = ts;
        }

        let start = ts - (ts % self.bucket_span);
        let mut outcome = StoreOutcome::default();
        let needs_new = match self.buckets.back() {
            Some(b) => b.start != start,
            None => true,
        };
        if needs_new {
            // Rolling the grid forward closes the previous active bucket:
            // decimate it to `bucket_budget` with an even-stride sample
            // (always keeping its newest record).
            outcome.displaced += self.decimate_back();
            self.buckets.push_back(Bucket {
                start,
                slots: VecDeque::new(),
            });
        }

        let slot = self.index.insert(record.fingerprint);
        if self.meta.len() <= slot as usize {
            self.meta.resize(slot as usize + 1, Meta::default());
        }
        self.meta[slot as usize] = Meta {
            id: record.id,
            author: record.author,
            timestamp: ts,
        };
        let bucket = self.buckets.back_mut().expect("bucket exists");
        bucket.slots.push_back(slot);
        self.live += 1;

        // Full fidelity for the active bucket, up to its hard cap.
        let active_cap = (self.params.granularity as usize)
            .saturating_mul(self.params.bucket_budget as usize)
            .max(1);
        while bucket.slots.len() > active_cap {
            let old = bucket.slots.pop_front().expect("non-empty");
            self.index.retire(old);
            self.live -= 1;
            self.displaced += 1;
            outcome.displaced += 1;
        }
        outcome
    }

    /// Decimate the back (just-closed) bucket to `bucket_budget` records:
    /// keep an even-stride sample that always includes the bucket's newest
    /// record. Deterministic, so snapshot replay reproduces the layout.
    fn decimate_back(&mut self) -> u32 {
        let budget = self.params.bucket_budget as usize;
        let Some(bucket) = self.buckets.back_mut() else {
            return 0;
        };
        let len = bucket.slots.len();
        if len <= budget {
            return 0;
        }
        let mut kept = VecDeque::with_capacity(budget);
        for (i, &slot) in bucket.slots.iter().enumerate() {
            // Keep positions ⌊(j+1)·len/budget⌋ − 1 for j in 0..budget:
            // evenly spread, strictly increasing, ending at len − 1.
            if kept.len() < budget && i == (kept.len() + 1) * len / budget - 1 {
                kept.push_back(slot);
            } else {
                self.index.retire(slot);
                self.live -= 1;
            }
        }
        let dropped = (len - kept.len()) as u32;
        self.displaced += u64::from(dropped);
        bucket.slots = kept;
        dropped
    }

    /// Drop every retained record with `timestamp + lambda_t < now` —
    /// identical expiry semantics to the exact bin (exact per-record
    /// timestamps; the bucket grid never coarsens expiry). Returns the
    /// number evicted.
    pub fn evict_expired(&mut self, now: Timestamp, lambda_t: Timestamp) -> usize {
        let cutoff = now.saturating_sub(lambda_t);
        let mut n = 0usize;
        while let Some(front) = self.buckets.front_mut() {
            // Whole-bucket fast path: every record in a bucket whose span
            // ends before the cutoff is expired.
            let bucket_end = front.start.saturating_add(self.bucket_span);
            let drop_whole = bucket_end <= cutoff;
            while let Some(&slot) = front.slots.front() {
                if !drop_whole && self.meta[slot as usize].timestamp >= cutoff {
                    break;
                }
                front.slots.pop_front();
                self.index.retire(slot);
                self.live -= 1;
                n += 1;
            }
            if front.slots.is_empty() {
                self.buckets.pop_front();
                // An emptied bucket may be followed by more expired ones.
                continue;
            }
            // Front bucket still has live records newer than the cutoff;
            // later buckets are newer still.
            break;
        }
        self.evicted += n as u64;
        n
    }

    /// Probe the prefix tables for retained records within λc of `query`
    /// whose timestamp is inside the λt window of `now`
    /// (`timestamp ≥ now − λt`, matching the exact window predicate).
    /// Candidates are verified at the full λc; records closer than
    /// the index distance `min(probes − 1, λc)` are never missed, farther
    /// (but still λc-near) ones require a prefix-block collision.
    /// Candidates land in `out` (cleared first) **newest first**, ordered by
    /// `(timestamp, id)` descending — a deterministic order independent of
    /// slot numbering, so decisions replay identically after restore.
    /// Returns the number of candidate verifications performed.
    pub fn probe(
        &mut self,
        query: Fingerprint,
        now: Timestamp,
        lambda_t: Timestamp,
        out: &mut Vec<ApproxCandidate>,
    ) -> usize {
        self.probes_run += 1;
        let probed = self
            .index
            .query_within_into(query, self.lambda_c, &mut self.scratch);
        self.candidates_probed += probed as u64;
        let cutoff = now.saturating_sub(lambda_t);
        out.clear();
        for &slot in &self.scratch {
            let m = self.meta[slot as usize];
            if m.timestamp >= cutoff {
                out.push(ApproxCandidate {
                    id: m.id,
                    author: m.author,
                    timestamp: m.timestamp,
                });
            }
        }
        out.sort_unstable_by_key(|c| std::cmp::Reverse((c.timestamp, c.id)));
        probed
    }

    /// Visit every retained record in arrival order (non-decreasing
    /// timestamps) — the snapshot serialization order. Restoring by
    /// re-inserting the visited sequence into a fresh bin reproduces the
    /// retained set, bucket layout and all future decisions exactly.
    pub fn for_each_record(&self, mut f: impl FnMut(PostRecord)) {
        for bucket in &self.buckets {
            for &slot in &bucket.slots {
                let m = self.meta[slot as usize];
                let fp = self
                    .index
                    .get(slot)
                    .expect("bucketed slot is live in the index");
                f(PostRecord {
                    id: m.id,
                    author: m.author,
                    timestamp: m.timestamp,
                    fingerprint: fp,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_simhash::hamming_distance;
    use proptest::prelude::*;

    const PARAMS: ApproxParams = ApproxParams {
        probes: 8,
        bucket_budget: 4,
        granularity: 4,
    };

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn probe_ids(bin: &mut ApproxWindowBin, q: u64, now: u64, lt: u64) -> Vec<u64> {
        let mut out = Vec::new();
        bin.probe(q, now, lt, &mut out);
        out.iter().map(|c| c.id).collect()
    }

    #[test]
    fn finds_near_duplicates_within_lambda_c() {
        let mut bin = ApproxWindowBin::new(PARAMS, 18, 1_000);
        assert_eq!(bin.index_distance(), 7);
        bin.insert(rec(1, 0, 10, 0xFF00));
        bin.insert(rec(2, 1, 20, 0xFFFF_FFFF_0000_0000));
        // Distance 2 from record 1 — found. Record 2 is distance 42 — past
        // λc, rejected by verification even where prefix blocks collide.
        assert_eq!(probe_ids(&mut bin, 0xFF03, 30, 1_000), vec![1]);
        // Distance 14 from record 1: past the layout distance (7) but
        // within λc, and the zero high blocks collide — found.
        assert_eq!(probe_ids(&mut bin, 0x00FF, 30, 1_000), vec![1]);
        // Newest-first order when both match (distance 0 insertions).
        bin.insert(rec(3, 2, 25, 0xFF00));
        assert_eq!(probe_ids(&mut bin, 0xFF00, 30, 1_000), vec![3, 1]);
    }

    #[test]
    fn active_bucket_keeps_full_fidelity_up_to_its_cap() {
        // budget 4 × granularity 4 ⇒ the active bucket holds up to 16.
        let mut bin = ApproxWindowBin::new(PARAMS, 7, 4_000); // span 1000
        let fp = |i: u64| 0xFFu64 << (8 * (i % 8));
        for i in 0..16u64 {
            assert_eq!(bin.insert(rec(i, 0, 100 + i, fp(i))).displaced, 0);
        }
        assert_eq!(bin.len(), 16);
        // The 17th record in the same bucket displaces the oldest.
        assert_eq!(bin.insert(rec(16, 0, 200, fp(0))).displaced, 1);
        assert_eq!(bin.len(), 16);
        assert_eq!(bin.stats().displaced, 1);
    }

    #[test]
    fn closing_a_bucket_decimates_to_budget_keeping_newest() {
        let mut bin = ApproxWindowBin::new(PARAMS, 7, 4_000); // span 1000
                                                              // Distinct fingerprints, pairwise distance 16 > λc = 7.
        let fp = |i: u64| 0xFFu64 << (8 * (i % 8));
        for i in 0..10u64 {
            assert_eq!(bin.insert(rec(i, 0, 100 + i, fp(i))).displaced, 0);
        }
        // Rolling into the next bucket closes the first: 10 records
        // decimated to budget 4 by an even stride that keeps the newest.
        let out = bin.insert(rec(99, 0, 1_500, 0xFFu64 << 56));
        assert_eq!(out.displaced, 6);
        assert_eq!(bin.len(), 5);
        assert_eq!(bin.stats().displaced, 6);
        // The stride keeps positions {1, 4, 6, 9} — the bucket's newest
        // record (id 9) always survives; fp(9) = fp(1), so both surface,
        // newest first...
        assert_eq!(probe_ids(&mut bin, fp(9), 1_500, 4_000), vec![9, 1]);
        // ...while dropped records (0 and 8 share fp(0)) miss.
        assert!(probe_ids(&mut bin, fp(0), 1_500, 4_000).is_empty());
    }

    #[test]
    fn eviction_matches_exact_window_predicate() {
        let mut bin = ApproxWindowBin::new(PARAMS, 7, 1_000); // span 250
        bin.insert(rec(1, 0, 0, 0xFF));
        bin.insert(rec(2, 0, 500, 0xFF00));
        bin.insert(rec(3, 0, 900, 0xFF_0000));
        // cutoff = 1100 - 1000 = 100: only record 1 expires.
        assert_eq!(bin.evict_expired(1_100, 1_000), 1);
        assert_eq!(bin.len(), 2);
        assert_eq!(bin.evicted(), 1);
        // Probe respects the window even before eviction runs.
        assert!(probe_ids(&mut bin, 0xFF00, 1_600, 1_000).is_empty());
        assert_eq!(probe_ids(&mut bin, 0xFF_0000, 1_600, 1_000), vec![3]);
        assert_eq!(bin.evict_expired(10_000, 1_000), 2);
        assert!(bin.is_empty());
        assert_eq!(bin.evicted(), 3);
    }

    #[test]
    fn disordered_timestamps_are_clamped() {
        let mut bin = ApproxWindowBin::new(PARAMS, 18, 1_000);
        bin.insert(rec(1, 0, 500, 1));
        bin.insert(rec(2, 0, 100, 2)); // hostile: goes backwards
        assert_eq!(bin.disordered(), 1);
        let mut out = Vec::new();
        bin.probe(2, 500, 1_000, &mut out);
        assert_eq!(out[0].timestamp, 500, "clamped to watermark");
    }

    #[test]
    fn snapshot_order_roundtrip_is_lossless() {
        let mut bin = ApproxWindowBin::new(PARAMS, 18, 2_000);
        for i in 0..32u64 {
            bin.insert(rec(i, (i % 3) as u32, i * 40, i.wrapping_mul(0x9E37_79B9)));
        }
        bin.evict_expired(1_600, 1_000);
        let mut records = Vec::new();
        bin.for_each_record(|r| records.push(r));
        // Arrival order ⇒ non-decreasing timestamps.
        assert!(records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        // Re-inserting into a fresh bin reproduces the retained set without
        // further displacement.
        let mut restored = ApproxWindowBin::new(PARAMS, 18, 2_000);
        for &r in &records {
            assert_eq!(restored.insert(r).displaced, 0);
        }
        let mut replayed = Vec::new();
        restored.for_each_record(|r| replayed.push(r));
        assert_eq!(records, replayed);
        assert_eq!(restored.len(), bin.len());
    }

    #[test]
    fn memory_is_bounded_by_buckets_times_budget() {
        let mut bin = ApproxWindowBin::new(PARAMS, 18, 4_000); // 4 buckets of 1000ms
        for i in 0..10_000u64 {
            bin.insert(rec(i, 0, i, i.wrapping_mul(0x45d9_f3b3)));
            bin.evict_expired(i, 4_000);
            let cap = ((2 * PARAMS.granularity + 1) * PARAMS.bucket_budget) as usize;
            assert!(bin.len() <= cap, "len {} exceeds cap {}", bin.len(), cap);
        }
        assert_eq!(
            bin.memory_bytes(),
            bin.len() * PostRecord::SIZE_BYTES,
            "payload accounting convention"
        );
    }

    proptest! {
        /// Probe error bounds vs a brute-force window: every returned
        /// candidate is a genuine in-window record within λc (sound), every
        /// in-window record within the *layout* distance is returned
        /// (complete up to `index_distance`, by pigeonhole), and the order
        /// is `(timestamp, id)` descending.
        #[test]
        fn probe_is_sound_and_complete_over_retained(
            posts in proptest::collection::vec((0u64..2_000, any::<u64>()), 1..120),
            q: u64,
        ) {
            let params = ApproxParams { probes: 8, bucket_budget: u32::MAX, granularity: 8 };
            let mut bin = ApproxWindowBin::new(params, 18, 1_000);
            let mut sorted: Vec<(u64, u64)> = posts.clone();
            sorted.sort_by_key(|&(ts, _)| ts);
            let mut reference = Vec::new(); // (id, ts, fp) retained
            for (i, &(ts, fp)) in sorted.iter().enumerate() {
                bin.insert(rec(i as u64, 0, ts, fp));
                reference.push((i as u64, ts, fp));
            }
            let now = sorted.last().unwrap().0;
            let cutoff = now.saturating_sub(1_000);
            let mut out = Vec::new();
            bin.probe(q, now, 1_000, &mut out);
            // Sound: in-window, within λc, newest-first.
            for w in out.windows(2) {
                prop_assert!((w[0].timestamp, w[0].id) > (w[1].timestamp, w[1].id));
            }
            let got: Vec<u64> = out.iter().map(|c| c.id).collect();
            for c in &out {
                let (_, ts, fp) = reference[c.id as usize];
                prop_assert!(ts >= cutoff || bin.disordered() > 0);
                prop_assert!(hamming_distance(fp, q) <= 18);
            }
            // Complete up to the layout distance.
            let k = bin.index_distance();
            for &(id, ts, fp) in &reference {
                if ts >= cutoff && hamming_distance(fp, q) <= k {
                    prop_assert!(got.contains(&id), "missed id {} within k={}", id, k);
                }
            }
        }
    }
}
