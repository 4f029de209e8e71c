//! Permuted-table near-duplicate index (Manku, Jain, Das Sarma — WWW'07).
//!
//! The index answers "which stored fingerprints are within Hamming distance
//! `k` of this query?" without a full linear scan. The 64 bits are split into
//! `B ≥ k+1` blocks; by pigeonhole, two fingerprints within distance `k`
//! agree on at least `B − k` whole blocks. The index therefore keeps one hash
//! table per *combination* of `B − k` blocks, keyed by the concatenation of
//! those blocks' bits; a query probes every table and verifies candidates with
//! an exact distance check.
//!
//! The table count is `C(B, B−k) = C(B, k)` and the key width shrinks as `B`
//! grows — this is the trade-off that Section 3 of the paper invokes to rule
//! the index out at `λc = 18`:
//!
//! * `k = 3`, `B = 4`: 4 tables with 16-bit keys — cheap and selective
//!   (Manku et al. used such configurations for web crawling).
//! * `k = 18`, `B = 19`: 19 tables with keys of ~3.4 bits — each probe
//!   matches ~9% of the corpus, so the "index" degenerates to ~1.7 linear
//!   scans. Raising `B` to sharpen keys explodes the table count
//!   (`C(24, 6) = 134_596`).
//!
//! [`IndexPlan`] exposes exactly these numbers so the
//! `ablation_manku_index` benchmark can chart the blow-up.

use std::collections::HashMap;

use crate::fingerprint::Fingerprint;
use crate::hamming::within_distance;

/// Errors from [`HammingIndex::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// `k` must be in `0..=63`.
    DistanceOutOfRange {
        /// The rejected distance.
        k: u32,
    },
    /// `blocks` must satisfy `k < blocks <= 64`.
    BadBlockCount {
        /// The rejected block count.
        blocks: u32,
        /// The distance it was paired with.
        k: u32,
    },
    /// The combination count `C(blocks, blocks-k)` exceeds `max_tables`.
    TooManyTables {
        /// Tables the layout would need.
        required: u128,
        /// The configured cap (4096 tables).
        max_tables: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DistanceOutOfRange { k } => write!(f, "distance {k} out of range 0..=63"),
            Self::BadBlockCount { blocks, k } => {
                write!(
                    f,
                    "block count {blocks} invalid for distance {k} (need k < blocks <= 64)"
                )
            }
            Self::TooManyTables {
                required,
                max_tables,
            } => {
                write!(f, "index would need {required} tables (limit {max_tables})")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Cost summary of an index configuration, before building it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexPlan {
    /// Maximum Hamming distance the index answers.
    pub k: u32,
    /// Number of blocks the fingerprint is split into.
    pub blocks: u32,
    /// Number of hash tables (`C(blocks, blocks-k)`).
    pub tables: u128,
    /// Width in bits of the narrowest table key.
    pub min_key_bits: u32,
    /// Expected fraction of the corpus probed per query under uniformly
    /// random fingerprints: `tables × 2^(−min_key_bits)`, capped at `tables`.
    pub expected_probe_fraction: f64,
}

impl IndexPlan {
    /// Plan an index for distance `k` with `blocks` blocks without building
    /// anything. Useful for charting feasibility across `k` (the paper's
    /// argument) before committing memory.
    pub fn evaluate(k: u32, blocks: u32) -> Result<Self, IndexError> {
        if k > 63 {
            return Err(IndexError::DistanceOutOfRange { k });
        }
        if blocks <= k || blocks > 64 {
            return Err(IndexError::BadBlockCount { blocks, k });
        }
        let tables = binomial(blocks as u128, (blocks - k) as u128);
        // Blocks are as even as possible; the key that concatenates the
        // smallest blocks is the least selective.
        let small_block = 64 / blocks; // floor
        let min_key_bits = small_block * (blocks - k);
        let expected = (tables as f64) / 2f64.powi(min_key_bits as i32);
        Ok(Self {
            k,
            blocks,
            tables,
            min_key_bits,
            expected_probe_fraction: expected,
        })
    }
}

fn binomial(n: u128, mut r: u128) -> u128 {
    if r > n {
        return 0;
    }
    if r > n - r {
        r = n - r;
    }
    let mut acc: u128 = 1;
    for i in 0..r {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// One table: the block ids forming its key, plus the key → entry-ids map.
struct Table {
    key_blocks: Vec<u8>,
    map: HashMap<u64, Vec<u32>>,
}

/// A Manku-style multi-table Hamming index over 64-bit fingerprints.
///
/// Entries are identified by the `u32` slot id returned from [`insert`].
/// [`retire`] frees a slot; freed slots are reused by later inserts, so the
/// id space stays dense under sliding-window churn (the approximate coverage
/// backend retires expired records continuously).
///
/// [`insert`]: HammingIndex::insert
/// [`retire`]: HammingIndex::retire
pub struct HammingIndex {
    k: u32,
    /// `(shift, width)` per block, most significant block first.
    block_bits: Vec<(u8, u8)>,
    tables: Vec<Table>,
    entries: Vec<Fingerprint>,
    /// Liveness flag per slot; retired slots stay allocated until reused.
    live: Vec<bool>,
    /// Retired slot ids available for reuse, LIFO.
    free: Vec<u32>,
}

/// Hard cap on table count: beyond this the index is plainly infeasible and
/// building it would only exhaust memory.
pub(crate) const MAX_TABLES: usize = 4096;

impl HammingIndex {
    /// Build an empty index for distance `k` using the minimal block count
    /// `k + 1` (one-block keys — the cheapest layout).
    pub fn new(k: u32) -> Result<Self, IndexError> {
        Self::with_blocks(k, k + 1)
    }

    /// Build an empty index for distance `k` split into `blocks` blocks.
    ///
    /// Each table is keyed on a combination of `blocks − k` blocks, so the
    /// net key width is `≈ 64·(blocks−k)/blocks`: raising `blocks` makes
    /// keys wider (queries more selective) while the table count
    /// `C(blocks, k)` grows combinatorially — the trade-off charted by
    /// [`IndexPlan`].
    pub fn with_blocks(k: u32, blocks: u32) -> Result<Self, IndexError> {
        let plan = IndexPlan::evaluate(k, blocks)?;
        if plan.tables > MAX_TABLES as u128 {
            return Err(IndexError::TooManyTables {
                required: plan.tables,
                max_tables: MAX_TABLES,
            });
        }

        // Split 64 bits into `blocks` contiguous blocks, as even as possible,
        // most significant first.
        let base = 64 / blocks;
        let extra = 64 % blocks; // first `extra` blocks get one more bit
        let mut block_bits = Vec::with_capacity(blocks as usize);
        let mut hi = 64u32;
        for b in 0..blocks {
            let width = base + u32::from(b < extra);
            hi -= width;
            block_bits.push((hi as u8, width as u8));
        }

        // Every combination of `blocks − k` block ids becomes a table key.
        let choose = (blocks - k) as usize;
        let mut tables = Vec::with_capacity(plan.tables as usize);
        let mut combo: Vec<u8> = (0..choose as u8).collect();
        loop {
            tables.push(Table {
                key_blocks: combo.clone(),
                map: HashMap::new(),
            });
            // Next lexicographic combination of `choose` ids out of `blocks`.
            let mut i = choose;
            loop {
                if i == 0 {
                    return Ok(Self {
                        k,
                        block_bits,
                        tables,
                        entries: Vec::new(),
                        live: Vec::new(),
                        free: Vec::new(),
                    });
                }
                i -= 1;
                if combo[i] < (blocks as u8 - (choose - i) as u8) {
                    combo[i] += 1;
                    for j in i + 1..choose {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// Number of hash tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of live (non-retired) fingerprints.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// True when no live fingerprints are stored.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extract the key of `fp` for the table's block combination.
    fn key(&self, table: &Table, fp: Fingerprint) -> u64 {
        let mut key = 0u64;
        for &b in &table.key_blocks {
            let (shift, width) = self.block_bits[b as usize];
            if width == 64 {
                // Single block spanning the whole fingerprint (k = 0).
                return fp;
            }
            let mask = (1u64 << width) - 1;
            key = (key << width) | ((fp >> shift) & mask);
        }
        key
    }

    /// Insert a fingerprint, returning its slot id. Retired slots are reused
    /// before the slot table grows.
    pub fn insert(&mut self, fp: Fingerprint) -> u32 {
        let id = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = fp;
                self.live[slot as usize] = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("index capacity exceeded");
                self.entries.push(fp);
                self.live.push(true);
                slot
            }
        };
        for t in 0..self.tables.len() {
            let key = self.key(&self.tables[t], fp);
            self.tables[t].map.entry(key).or_default().push(id);
        }
        id
    }

    /// Remove the entry stored under `id`, freeing its slot for reuse.
    /// Returns `false` if the slot was already retired or never allocated.
    pub fn retire(&mut self, id: u32) -> bool {
        let Some(live) = self.live.get_mut(id as usize) else {
            return false;
        };
        if !*live {
            return false;
        }
        *live = false;
        let fp = self.entries[id as usize];
        for t in 0..self.tables.len() {
            let key = self.key(&self.tables[t], fp);
            if let std::collections::hash_map::Entry::Occupied(mut bucket) =
                self.tables[t].map.entry(key)
            {
                // Bucket order is irrelevant (queries sort), so swap_remove.
                let ids = bucket.get_mut();
                if let Some(pos) = ids.iter().position(|&x| x == id) {
                    ids.swap_remove(pos);
                }
                if ids.is_empty() {
                    bucket.remove();
                }
            }
        }
        self.free.push(id);
        true
    }

    /// Collect the slot ids of all live fingerprints within distance `k` of
    /// `query` into `out` (cleared first), ascending and deduplicated.
    /// Returns the number of candidate verifications performed — the scan
    /// cost an exact backend would report as comparisons.
    pub fn query_into(&self, query: Fingerprint, out: &mut Vec<u32>) -> usize {
        self.query_within_into(query, self.k, out)
    }

    /// Like [`query_into`](Self::query_into) but verifies candidates at
    /// distance `d` instead of the index distance `k`. For `d > k` this
    /// widens the answer past the pigeonhole guarantee: every live entry
    /// within distance `k` is still found, and entries at distance `k+1..=d`
    /// are found iff they collide with the query in at least one prefix
    /// table — the recall trade the approximate coverage backend makes to
    /// answer λc-wide lookups from a small fixed table layout.
    pub fn query_within_into(&self, query: Fingerprint, d: u32, out: &mut Vec<u32>) -> usize {
        out.clear();
        let mut probed = 0usize;
        for table in &self.tables {
            if let Some(bucket) = table.map.get(&self.key(table, query)) {
                probed += bucket.len();
                for &id in bucket {
                    if within_distance(self.entries[id as usize], query, d) {
                        out.push(id);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        probed
    }

    /// Fingerprint stored under `id`; `None` for retired or unallocated slots.
    pub fn get(&self, id: u32) -> Option<Fingerprint> {
        if *self.live.get(id as usize)? {
            Some(self.entries[id as usize])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::hamming_distance;
    use proptest::prelude::*;

    /// Brute-force reference: ids of entries within distance k.
    fn linear_scan(entries: &[u64], query: u64, k: u32) -> Vec<u32> {
        entries
            .iter()
            .enumerate()
            .filter(|&(_, &fp)| hamming_distance(fp, query) <= k)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Test convenience over the buffer-reuse API.
    fn query(idx: &HammingIndex, q: u64) -> Vec<u32> {
        let mut out = Vec::new();
        idx.query_into(q, &mut out);
        out
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            HammingIndex::new(64),
            Err(IndexError::DistanceOutOfRange { .. })
        ));
        assert!(matches!(
            HammingIndex::with_blocks(3, 3),
            Err(IndexError::BadBlockCount { .. })
        ));
        assert!(matches!(
            HammingIndex::with_blocks(3, 65),
            Err(IndexError::BadBlockCount { .. })
        ));
    }

    #[test]
    fn table_count_matches_binomial() {
        // C(6, 3) = 20 tables for k=3, B=6.
        let idx = HammingIndex::with_blocks(3, 6).unwrap();
        assert_eq!(idx.table_count(), 20);
        // minimal layout: k+1 tables.
        let idx = HammingIndex::new(3).unwrap();
        assert_eq!(idx.table_count(), 4);
    }

    #[test]
    fn refuses_combinatorial_explosion() {
        // C(40, 22) is astronomically large.
        assert!(matches!(
            HammingIndex::with_blocks(18, 40),
            Err(IndexError::TooManyTables { .. })
        ));
    }

    #[test]
    fn plan_reports_blowup_at_lambda_c_18() {
        let cheap = IndexPlan::evaluate(3, 4).unwrap();
        assert_eq!(cheap.tables, 4);
        assert_eq!(cheap.min_key_bits, 16);
        assert!(cheap.expected_probe_fraction < 0.001);

        let doomed = IndexPlan::evaluate(18, 19).unwrap();
        assert_eq!(doomed.tables, 19);
        // 64/19 = 3 bit blocks, key = 1 block = 3 bits => ~19/8 of the corpus probed.
        assert!(doomed.expected_probe_fraction > 1.0, "{doomed:?}");
    }

    #[test]
    fn exact_duplicate_found() {
        let mut idx = HammingIndex::new(3).unwrap();
        let id = idx.insert(0xDEAD_BEEF_DEAD_BEEF);
        assert_eq!(query(&idx, 0xDEAD_BEEF_DEAD_BEEF), vec![id]);
    }

    #[test]
    fn near_neighbor_found_far_missed() {
        let mut idx = HammingIndex::new(3).unwrap();
        let base = 0x0123_4567_89AB_CDEFu64;
        idx.insert(base);
        assert_eq!(query(&idx, base ^ 0b111), vec![0]); // distance 3
        assert!(query(&idx, base ^ 0b1111).is_empty()); // distance 4
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HammingIndex::new(5).unwrap();
        assert!(query(&idx, 12345).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn get_roundtrip() {
        let mut idx = HammingIndex::new(2).unwrap();
        let id = idx.insert(777);
        assert_eq!(idx.get(id), Some(777));
        assert_eq!(idx.get(id + 1), None);
    }

    #[test]
    fn retire_removes_and_frees_slot() {
        let mut idx = HammingIndex::new(3).unwrap();
        let a = idx.insert(0xAAAA);
        let b = idx.insert(0xBBBB);
        assert_eq!(idx.len(), 2);
        assert!(idx.retire(a));
        assert!(!idx.retire(a), "double retire must be a no-op");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(a), None);
        assert!(query(&idx, 0xAAAA).is_empty());
        assert_eq!(query(&idx, 0xBBBB), vec![b]);
        // The freed slot is reused by the next insert.
        let c = idx.insert(0xCCCC);
        assert_eq!(c, a);
        assert_eq!(idx.get(c), Some(0xCCCC));
        assert_eq!(query(&idx, 0xCCCC), vec![c]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn retire_out_of_range_is_rejected() {
        let mut idx = HammingIndex::new(1).unwrap();
        assert!(!idx.retire(0));
        idx.insert(1);
        assert!(!idx.retire(7));
    }

    #[test]
    fn query_into_reports_probe_cost_and_reuses_buffer() {
        let mut idx = HammingIndex::new(3).unwrap();
        idx.insert(0);
        idx.insert(1); // distance 1 from 0 — shares prefix buckets
        let mut out = vec![99; 8];
        let probed = idx.query_into(0, &mut out);
        assert_eq!(out, vec![0, 1]);
        // Both entries collide in several of the 4 tables; each bucket hit
        // costs one verification, and the buffer was cleared first.
        assert!(probed >= 2, "probed {probed}");
        let probed = idx.query_into(!0u64, &mut out);
        assert!(out.is_empty());
        assert_eq!(probed, 0);
    }

    #[test]
    fn query_within_widens_past_index_distance() {
        // k = 1, 2 blocks of 32 bits: tables key on single blocks.
        let mut idx = HammingIndex::with_blocks(1, 2).unwrap();
        let base = 0xAAAA_BBBB_CCCC_DDDDu64;
        let id = idx.insert(base);
        // Distance 3, all flips in the low block: the high block still
        // collides, so widening the verification distance finds it...
        let q = base ^ 0b111;
        let mut out = Vec::new();
        idx.query_within_into(q, 1, &mut out);
        assert!(out.is_empty(), "beyond k at the default verification");
        idx.query_within_into(q, 3, &mut out);
        assert_eq!(out, vec![id]);
        // ...but flips in *both* blocks leave no colliding table: missed
        // even though the distance bound would admit it (the recall trade).
        idx.query_within_into(base ^ ((1 << 40) | 0b11), 3, &mut out);
        assert!(out.is_empty());
    }

    proptest! {
        /// Core correctness: for any entries/query/k/blocks, the index returns
        /// exactly the linear-scan answer (no false negatives — pigeonhole —
        /// and verification removes false positives).
        #[test]
        fn matches_linear_scan(
            entries in proptest::collection::vec(any::<u64>(), 0..64),
            q: u64,
            k in 0u32..8,
            extra_blocks in 0u32..4,
        ) {
            let mut idx = HammingIndex::with_blocks(k, k + 1 + extra_blocks).unwrap();
            for &fp in &entries {
                idx.insert(fp);
            }
            prop_assert_eq!(query(&idx, q), linear_scan(&entries, q, k));
        }

        /// Retiring a subset then querying matches a linear scan over the
        /// survivors — retired slots never surface, reused slots do.
        #[test]
        fn retire_matches_linear_scan_over_survivors(
            entries in proptest::collection::vec(any::<u64>(), 1..48),
            retire_mask in proptest::collection::vec(any::<bool>(), 1..48),
            reinserts in proptest::collection::vec(any::<u64>(), 0..16),
            q: u64,
            k in 0u32..6,
        ) {
            let mut idx = HammingIndex::new(k).unwrap();
            let ids: Vec<u32> = entries.iter().map(|&fp| idx.insert(fp)).collect();
            // Track liveness by slot id (slots are reused by reinserts).
            let mut slots: Vec<Option<u64>> = entries.iter().map(|&fp| Some(fp)).collect();
            for (i, &id) in ids.iter().enumerate() {
                if *retire_mask.get(i).unwrap_or(&false) {
                    prop_assert!(idx.retire(id));
                    slots[id as usize] = None;
                }
            }
            for &fp in &reinserts {
                let id = idx.insert(fp) as usize;
                if id == slots.len() {
                    slots.push(Some(fp));
                } else {
                    prop_assert!(slots[id].is_none(), "reused a live slot");
                    slots[id] = Some(fp);
                }
            }
            let expected: Vec<u32> = slots
                .iter()
                .enumerate()
                .filter_map(|(i, fp)| match fp {
                    Some(f) if hamming_distance(*f, q) <= k => Some(i as u32),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(query(&idx, q), expected);
            prop_assert_eq!(idx.len(), slots.iter().flatten().count());
        }

        /// Mutating up to k bits of a stored fingerprint must always find it.
        #[test]
        fn never_misses_within_k(
            fp: u64,
            flips in proptest::collection::vec(0u32..64, 0..5),
            k in 5u32..8,
        ) {
            let mut idx = HammingIndex::new(k).unwrap();
            let id = idx.insert(fp);
            let mut q = fp;
            for f in flips {
                q ^= 1u64 << f;
            }
            // q is within distance <= #flips <= 4 < k of fp.
            prop_assert!(query(&idx, q).contains(&id));
        }
    }
}
