//! Hamming distance over 64-bit fingerprints: the scalar predicate plus the
//! batched window-scan kernels ([`filter_within`], [`rfind_within`]) that the
//! SPSD engines run over a bin's contiguous fingerprint column.
//!
//! The scan is one loop (`rfind_body`: the newest match, tested 8 records at
//! a time), and a filter is that loop repeated below each match. It is
//! written once, with no intrinsics, and compiled per target by
//! `scan_bodies!`: for the build's baseline target, and inside
//! `#[target_feature(enable = "avx2,popcnt")]` functions, where LLVM lowers
//! the 8-lane XOR + popcount + compare to the AVX2 nibble-LUT popcount by
//! itself and the scalar tails to `popcnt`. Which build runs is selected at
//! runtime (see [`crate::kernels`]); both produce the positions the scalar
//! newest-first `within_distance` walk would report, in the same order. Given a parallel popcount column, the
//! scan also skips every 8-record block whose set-bit counts alone prove the
//! Hamming threshold can't be met
//! (`hamming(a, b) ≥ |popcount(a) − popcount(b)|`), without loading its
//! fingerprints; pruning is conservative, so output is again identical.

use crate::fingerprint::Fingerprint;
use crate::kernels::KernelKind;

/// Lane count of the batched kernels: fingerprints are processed in blocks of
/// eight so the XOR+POPCNT loop has a fixed trip count the compiler unrolls
/// and vectorizes for whichever target features the scan is compiled with.
pub(crate) const KERNEL_LANES: usize = 8;

/// Number of differing bits between two fingerprints (0..=64).
///
/// ```
/// use firehose_simhash::hamming_distance;
/// assert_eq!(hamming_distance(0b1010, 0b0110), 2);
/// assert_eq!(hamming_distance(u64::MAX, 0), 64);
/// ```
#[inline]
pub fn hamming_distance(a: Fingerprint, b: Fingerprint) -> u32 {
    (a ^ b).count_ones()
}

/// `true` iff the Hamming distance is at most `threshold`.
///
/// This is the hot predicate of every engine: one XOR, one POPCNT, one
/// compare.
#[inline]
pub fn within_distance(a: Fingerprint, b: Fingerprint, threshold: u32) -> bool {
    hamming_distance(a, b) <= threshold
}

/// The popcount-class window admitted by `threshold` around `query`:
/// a fingerprint whose popcount falls outside `[lo, hi]` cannot be within
/// `threshold` of `query` (triangle inequality via the all-zeros word), so
/// a scan given a popcount column rejects it without loading the fingerprint.
#[inline]
pub fn popcount_class_bounds(query: Fingerprint, threshold: u32) -> (u8, u8) {
    let qpc = query.count_ones();
    let lo = qpc.saturating_sub(threshold) as u8;
    let hi = (qpc + threshold).min(64) as u8;
    (lo, hi)
}

/// `true` iff some fingerprint of `block` is within `threshold` of `query`.
/// The fixed-size block and branch-free body let the compiler unroll and
/// vectorize the XOR + popcount + compare across all lanes. The compare is
/// on 64-bit lanes, the width the vector popcount produces, so no lane is
/// narrowed before the test.
#[inline(always)]
fn block_any_within(
    query: Fingerprint,
    block: &[Fingerprint; KERNEL_LANES],
    threshold: u32,
) -> bool {
    let mut any = false;
    for &fp in block {
        any |= u64::from((fp ^ query).count_ones()) <= u64::from(threshold);
    }
    any
}

/// `false` iff the popcount column proves that no record of the block at
/// `start` lies in the popcount class `[lo, hi]`; always `true` without a
/// column.
#[inline(always)]
fn block_admissible(prefilter: Option<(&[u8], (u8, u8))>, start: usize) -> bool {
    prefilter.is_none_or(|(pcs, (lo, hi))| {
        pcs[start..start + KERNEL_LANES]
            .iter()
            .fold(false, |any, &pc| any | (pc >= lo && pc <= hi))
    })
}

/// Position of the newest fingerprint within `threshold` of `query`,
/// skipping the blocks `popcounts` rules out: the one scan loop every
/// kernel runs. Blocks are aligned to the newest record, so a filter that
/// resumes below a match tests the rest of that block as one block again.
#[inline(always)]
fn rfind_body(
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: Option<&[u8]>,
    threshold: u32,
) -> Option<usize> {
    let prefilter = popcounts.map(|pcs| (pcs, popcount_class_bounds(query, threshold)));
    let blocks = fingerprints.rchunks_exact(KERNEL_LANES);
    let head = blocks.remainder().len();
    for (k, block) in blocks.enumerate() {
        let start = fingerprints.len() - (k + 1) * KERNEL_LANES;
        let block: &[Fingerprint; KERNEL_LANES] = block.try_into().expect("exact chunk");
        if block_admissible(prefilter, start) && block_any_within(query, block, threshold) {
            return (0..KERNEL_LANES)
                .rev()
                .find(|&j| within_distance(block[j], query, threshold))
                .map(|j| start + j);
        }
    }
    // The ragged head holds the oldest records: scan it last, scalar.
    (0..head)
        .rev()
        .find(|&i| within_distance(fingerprints[i], query, threshold))
}

/// Append the positions within `threshold` of `query`, newest-first and
/// offset by `base`: [`rfind_body`] repeated below each match.
#[inline(always)]
fn filter_body(
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: Option<&[u8]>,
    threshold: u32,
    base: u32,
    out: &mut Vec<u32>,
) {
    let mut end = fingerprints.len();
    while let Some(i) = rfind_body(
        query,
        &fingerprints[..end],
        popcounts.map(|pcs| &pcs[..end]),
        threshold,
    ) {
        out.push(base + i as u32);
        end = i;
    }
}

/// Compiles [`filter_body`] and [`rfind_body`] with the given attributes.
/// Both bodies are `#[inline(always)]`, so each instantiation compiles them
/// with its own target features: under `#[target_feature(enable =
/// "avx2,popcnt")]` LLVM vectorizes the block test with the `vpshufb`
/// nibble-LUT popcount and counts the scalar tails with `popcnt`. A
/// closure passed into a `#[target_feature]` function would not do: it is
/// compiled without the feature.
macro_rules! scan_bodies {
    ($(#[$attr:meta])*) => {
        $(#[$attr])*
        pub(super) fn filter_append(
            query: u64,
            fingerprints: &[u64],
            popcounts: Option<&[u8]>,
            threshold: u32,
            base: u32,
            out: &mut Vec<u32>,
        ) {
            super::filter_body(query, fingerprints, popcounts, threshold, base, out)
        }

        $(#[$attr])*
        pub(super) fn rfind(
            query: u64,
            fingerprints: &[u64],
            popcounts: Option<&[u8]>,
            threshold: u32,
        ) -> Option<usize> {
            super::rfind_body(query, fingerprints, popcounts, threshold)
        }
    };
}

/// The scan for the build's baseline target (on aarch64 that includes
/// NEON).
mod baseline_body {
    scan_bodies!();
}

/// The scan with AVX2 and POPCNT enabled.
#[cfg(target_arch = "x86_64")]
mod avx2_body {
    scan_bodies!(#[target_feature(enable = "avx2,popcnt")]);
}

/// Resolve `kernel` to a body this process can actually execute: requesting
/// the AVX2 kernel on a host without its features falls back to the scalar
/// body rather than executing illegal instructions.
#[inline]
fn runnable(kernel: KernelKind) -> KernelKind {
    if kernel.is_supported() {
        kernel
    } else {
        KernelKind::BatchedScalar
    }
}

/// [`filter_within_into`] with an explicit kernel (captured once at engine
/// construction via [`crate::kernels::active_kernel`]). Clears `out` first.
pub fn filter_within_into_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    threshold: u32,
    out: &mut Vec<u32>,
) {
    out.clear();
    filter_within_append_using(kernel, query, fingerprints, None, threshold, 0, out);
}

/// Append positions in `fingerprints` within `threshold` of `query`,
/// newest-first, each offset by `base`, **without** clearing `out` — the
/// building block for segmented scans (sub-bin pruning walks a window as
/// several slices but must emit one newest-first position list).
///
/// With `popcounts` — where `popcounts[i]` must equal
/// `fingerprints[i].count_ones()` — an 8-record block whose popcounts prove
/// the threshold unreachable is skipped without loading its fingerprints;
/// the output is identical either way.
pub fn filter_within_append_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: Option<&[u8]>,
    threshold: u32,
    base: u32,
    out: &mut Vec<u32>,
) {
    debug_assert!(fingerprints.len() <= u32::MAX as usize - base as usize);
    debug_assert!(popcounts.is_none_or(|pcs| pcs.len() == fingerprints.len()));
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 and POPCNT are available on this CPU.
        KernelKind::Avx2 => unsafe {
            avx2_body::filter_append(query, fingerprints, popcounts, threshold, base, out)
        },
        _ => baseline_body::filter_append(query, fingerprints, popcounts, threshold, base, out),
    }
}

/// [`rfind_within`] with an explicit kernel and, as in
/// [`filter_within_append_using`], an optional popcount column to prune by.
pub fn rfind_within_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: Option<&[u8]>,
    threshold: u32,
) -> Option<usize> {
    debug_assert!(popcounts.is_none_or(|pcs| pcs.len() == fingerprints.len()));
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 and POPCNT are available on this CPU.
        KernelKind::Avx2 => unsafe { avx2_body::rfind(query, fingerprints, popcounts, threshold) },
        _ => baseline_body::rfind(query, fingerprints, popcounts, threshold),
    }
}

/// Positions in `fingerprints` whose Hamming distance to `query` is at most
/// `threshold`, **newest-first** (highest index first), appended to `out`
/// after clearing it.
///
/// The slice is expected to be a λt-window column in arrival order (oldest at
/// index 0), so newest-first output lets callers take the first candidate
/// that passes the remaining coverage checks — exactly the record the
/// paper's scalar newest-first scan would have stopped at.
///
/// Work per fingerprint is one XOR, one POPCNT and one compare, identical to
/// [`within_distance`]; the difference is purely mechanical: blocks of
/// 8 contiguous words are distance-checked branch-free by the process-wide
/// [`crate::kernels::active_kernel`], so the scan branches once per block
/// instead of once per record, and only a block that holds a match (rare)
/// is walked lane by lane.
///
/// Positions are `u32`: a λt window holding ≥ 2³² live posts is out of scope
/// by orders of magnitude (debug-asserted).
pub fn filter_within_into(
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    threshold: u32,
    out: &mut Vec<u32>,
) {
    debug_assert!(u32::try_from(fingerprints.len()).is_ok());
    filter_within_into_using(
        crate::kernels::active_kernel(),
        query,
        fingerprints,
        threshold,
        out,
    );
}

/// Allocating convenience wrapper around [`filter_within_into`].
///
/// ```
/// use firehose_simhash::filter_within;
/// // Distances to 0: [0, 1, 2, 3]; threshold 1 keeps positions 1 and 0,
/// // newest first.
/// assert_eq!(filter_within(0, &[0b0, 0b1, 0b11, 0b111], 1), vec![1, 0]);
/// ```
pub fn filter_within(query: Fingerprint, fingerprints: &[Fingerprint], threshold: u32) -> Vec<u32> {
    let mut out = Vec::new();
    filter_within_into(query, fingerprints, threshold, &mut out);
    out
}

/// Position of the **newest** (highest-index) fingerprint within `threshold`
/// of `query`, or `None`. Equivalent to `filter_within(..).first()` but exits
/// at the first matching block — the fast path for bins where the Hamming
/// check is the *only* coverage condition (NeighborBin/CliqueBin bins hold
/// only similar authors by construction).
pub fn rfind_within(
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    threshold: u32,
) -> Option<usize> {
    rfind_within_using(
        crate::kernels::active_kernel(),
        query,
        fingerprints,
        None,
        threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::supported_kernels;
    use proptest::prelude::*;

    #[test]
    fn zero_distance_iff_equal() {
        assert_eq!(hamming_distance(42, 42), 0);
        assert_ne!(hamming_distance(42, 43), 0);
    }

    #[test]
    fn max_distance_is_64() {
        assert_eq!(hamming_distance(0, u64::MAX), 64);
    }

    #[test]
    fn within_distance_boundary() {
        let a = 0u64;
        let b = 0b111u64; // distance 3
        assert!(within_distance(a, b, 3));
        assert!(!within_distance(a, b, 2));
    }

    proptest! {
        #[test]
        fn symmetric(a: u64, b: u64) {
            prop_assert_eq!(hamming_distance(a, b), hamming_distance(b, a));
        }

        #[test]
        fn identity(a: u64) {
            prop_assert_eq!(hamming_distance(a, a), 0);
        }

        #[test]
        fn triangle_inequality(a: u64, b: u64, c: u64) {
            prop_assert!(
                hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
            );
        }

        #[test]
        fn translation_invariant(a: u64, b: u64, m: u64) {
            prop_assert_eq!(hamming_distance(a ^ m, b ^ m), hamming_distance(a, b));
        }

        #[test]
        fn bounded(a: u64, b: u64) {
            prop_assert!(hamming_distance(a, b) <= 64);
        }
    }

    /// What the batched kernels must reproduce exactly: the scalar
    /// newest-first `within_distance` loop.
    fn scalar_filter(query: u64, fps: &[u64], threshold: u32) -> Vec<u32> {
        (0..fps.len())
            .rev()
            .filter(|&i| within_distance(fps[i], query, threshold))
            .map(|i| i as u32)
            .collect()
    }

    fn popcounts_of(fps: &[u64]) -> Vec<u8> {
        fps.iter().map(|fp| fp.count_ones() as u8).collect()
    }

    /// Assert every kernel body the host supports agrees with the scalar
    /// reference on this input, with the popcount column and without it.
    fn assert_all_kernels_match(query: u64, fps: &[u64], threshold: u32) {
        let expected = scalar_filter(query, fps, threshold);
        let expected_first = expected.first().map(|&p| p as usize);
        let pcs = popcounts_of(fps);
        let mut out = Vec::new();
        for kernel in supported_kernels() {
            for popcounts in [None, Some(&pcs[..])] {
                let pruned = popcounts.is_some();
                out.clear();
                filter_within_append_using(kernel, query, fps, popcounts, threshold, 0, &mut out);
                assert_eq!(
                    out, expected,
                    "filter kernel={kernel} pruned={pruned} threshold={threshold}"
                );
                assert_eq!(
                    rfind_within_using(kernel, query, fps, popcounts, threshold),
                    expected_first,
                    "rfind kernel={kernel} pruned={pruned} threshold={threshold}"
                );
            }
            filter_within_into_using(kernel, query, fps, threshold, &mut out);
            assert_eq!(
                out, expected,
                "filter_into kernel={kernel} threshold={threshold}"
            );
        }
    }

    #[test]
    fn filter_within_empty_slice() {
        assert!(filter_within(42, &[], 64).is_empty());
        assert_eq!(rfind_within(42, &[], 64), None);
        assert_all_kernels_match(42, &[], 64);
    }

    #[test]
    fn filter_within_is_newest_first() {
        let fps = vec![7u64; 20];
        let hits = filter_within(7, &fps, 0);
        let expected: Vec<u32> = (0..20).rev().collect();
        assert_eq!(hits, expected);
        assert_eq!(rfind_within(7, &fps, 0), Some(19));
    }

    #[test]
    fn filter_within_into_reuses_buffer() {
        let mut out = vec![99, 99, 99];
        filter_within_into(0, &[1, 0], 0, &mut out);
        assert_eq!(out, vec![1]);
        filter_within_into(0, &[], 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn append_offsets_by_base() {
        let mut out = vec![7u32];
        for kernel in supported_kernels() {
            out.truncate(1);
            filter_within_append_using(kernel, 0, &[0, 1, 0], None, 0, 100, &mut out);
            assert_eq!(out, vec![7, 102, 100], "kernel={kernel}");
        }
    }

    /// All remainder lengths around the 8-wide block size: 0..=2 blocks plus
    /// one lane, so the scalar head, a single full block, and the
    /// multi-block path are each exercised at every head length — on every
    /// supported kernel.
    #[test]
    fn filter_within_all_remainder_lengths() {
        let pattern: Vec<u64> = (0..(2 * KERNEL_LANES as u64 + 1))
            .map(|i| i * 0x9E37)
            .collect();
        for len in 0..=2 * KERNEL_LANES + 1 {
            let fps = &pattern[..len];
            for threshold in [0, 3, 18, 64] {
                let query = 0x9E37 * 3;
                assert_all_kernels_match(query, fps, threshold);
            }
        }
    }

    /// Threshold extremes on every kernel: 0 admits only exact duplicates,
    /// 64 admits everything (including the all-ones/all-zeros corners).
    #[test]
    fn threshold_extremes() {
        let fps: Vec<u64> = vec![0, u64::MAX, 42, 42, 0xAAAA_AAAA_AAAA_AAAA, 7, 42];
        for query in [0u64, u64::MAX, 42] {
            assert_all_kernels_match(query, &fps, 0);
            assert_all_kernels_match(query, &fps, 64);
        }
        // Threshold 0 finds only the exact copies of 42, newest first.
        assert_eq!(filter_within(42, &fps, 0), vec![6, 3, 2]);
        // Threshold 64 keeps the whole window.
        assert_eq!(filter_within(42, &fps, 64).len(), fps.len());
    }

    /// Window lengths straddling the 8-lane block boundary with all-identical
    /// fingerprints: the densest possible match pattern at every head shape.
    #[test]
    fn block_boundary_lengths_all_identical() {
        for len in [7usize, 8, 9, 15, 16, 17] {
            let fps = vec![0xDEAD_BEEF_u64; len];
            for threshold in [0, 1, 18, 63, 64] {
                assert_all_kernels_match(0xDEAD_BEEF, &fps, threshold);
                assert_all_kernels_match(!0xDEAD_BEEF_u64, &fps, threshold);
            }
        }
    }

    /// The popcount-class prefilter bounds: a fingerprint outside
    /// `[qpc − t, qpc + t]` set bits can never pass, one inside may.
    #[test]
    fn popcount_bounds_are_conservative() {
        let (lo, hi) = popcount_class_bounds(0b1111, 2);
        assert_eq!((lo, hi), (2, 6));
        let (lo, hi) = popcount_class_bounds(0, 18);
        assert_eq!((lo, hi), (0, 18));
        let (lo, hi) = popcount_class_bounds(u64::MAX, 18);
        assert_eq!((lo, hi), (46, 64));
        // Saturation at both ends.
        let (lo, hi) = popcount_class_bounds(u64::MAX, 64);
        assert_eq!((lo, hi), (0, 64));
    }

    proptest! {
        /// The batched prefilter returns exactly the positions the scalar
        /// `within_distance` loop would, newest-first, for any threshold a
        /// 64-bit fingerprint admits and any slice length (the `0..40` range
        /// crosses several 8-wide block boundaries and every head length) —
        /// differentially on every kernel body the host supports, pruned and
        /// unpruned.
        #[test]
        fn filter_within_matches_scalar(
            query: u64,
            fps in proptest::collection::vec(any::<u64>(), 0..40),
            threshold in 0u32..=64,
        ) {
            assert_all_kernels_match(query, &fps, threshold);
        }

        /// Near-duplicate-heavy slices (fingerprints drawn from a small pool)
        /// so the dense-match path — many candidates per block — is hit.
        #[test]
        fn filter_within_matches_scalar_dense(
            fps in proptest::collection::vec(
                proptest::sample::select(vec![0u64, 1, 0b11, 0xFF, u64::MAX]),
                0..40,
            ),
            threshold in 0u32..=64,
        ) {
            assert_all_kernels_match(1u64, &fps, threshold);
        }

        /// Skewed popcounts (low/high set-bit density) so the popcount
        /// column actually rejects blocks, not just passes everything through.
        #[test]
        fn pruned_kernels_match_on_skewed_popcounts(
            fps in proptest::collection::vec(
                (any::<u64>(), 0u8..3).prop_map(|(x, skew)| match skew {
                    0 => x & 0xFF,        // popcount ≤ 8
                    1 => x | !0xFFFu64,   // popcount ≥ 52
                    _ => x,
                }),
                0..48,
            ),
            query_skew in 0u8..3,
            query_raw: u64,
            threshold in 0u32..=24,
        ) {
            let query = match query_skew {
                0 => 0u64,
                1 => u64::MAX,
                _ => query_raw,
            };
            assert_all_kernels_match(query, &fps, threshold);
        }
    }
}
