//! Hamming distance over 64-bit fingerprints: the scalar predicate plus the
//! batched window-scan kernels ([`filter_within`], [`rfind_within`]) that the
//! SPSD engines run over a bin's contiguous fingerprint column.
//!
//! The scan kernels come in three bodies — AVX2, NEON, and the portable
//! batched-scalar loop — selected at runtime (see [`crate::kernels`]). All
//! bodies produce identical output: the positions the scalar newest-first
//! `within_distance` walk would report, in the same order. The `*_pruned_*`
//! variants additionally take a parallel popcount column and skip records
//! whose set-bit count alone proves the Hamming threshold can't be met
//! (`hamming(a, b) ≥ |popcount(a) − popcount(b)|`), without loading the
//! fingerprint; pruning is conservative, so output is again identical.

use crate::fingerprint::Fingerprint;
use crate::kernels::KernelKind;

/// Lane count of the batched kernels: fingerprints are processed in blocks of
/// eight so the XOR+POPCNT loop has a fixed trip count — two 256-bit vectors
/// for the AVX2 body, four 128-bit vectors for NEON, and an unrollable
/// fixed-trip loop for the scalar fallback.
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
/// the pruned kernels reject it without loading the fingerprint.
#[inline]
pub(crate) fn popcount_class_bounds(query: Fingerprint, threshold: u32) -> (u8, u8) {
    let qpc = query.count_ones();
    let lo = qpc.saturating_sub(threshold) as u8;
    let hi = (qpc + threshold).min(64) as u8;
    (lo, hi)
}

/// Bit `j` set iff `block[j]` is within `threshold` of `query` — the
/// portable body. The fixed-size block and branch-free body let the compiler
/// unroll and vectorize the XOR + popcount + compare across all lanes.
#[inline]
fn block_mask_scalar(
    query: Fingerprint,
    block: &[Fingerprint; KERNEL_LANES],
    threshold: u32,
) -> u32 {
    let mut mask = 0u32;
    for (j, &fp) in block.iter().enumerate() {
        mask |= u32::from((fp ^ query).count_ones() <= threshold) << j;
    }
    mask
}

/// Stamps the four scan-loop bodies (filter / rfind, plain / pruned) around
/// a given 8-lane block-mask function. The loops are identical across
/// kernels; only the mask body differs, and the optional attribute
/// (`#[target_feature(..)]`) lets the SIMD instantiations inline their mask
/// into a feature-enabled caller.
macro_rules! scan_bodies {
    ($(#[$attr:meta])* mask = $mask:path) => {
        /// Append positions within `threshold` of `query`, newest-first,
        /// offset by `base`.
        $(#[$attr])*
        pub(super) fn filter_append(
            query: u64,
            fingerprints: &[u64],
            threshold: u32,
            base: u32,
            out: &mut Vec<u32>,
        ) {
            let split = fingerprints.len() - fingerprints.len() % super::KERNEL_LANES;
            // The ragged tail holds the newest records: scan it first, scalar.
            for i in (split..fingerprints.len()).rev() {
                if super::within_distance(fingerprints[i], query, threshold) {
                    out.push(base + i as u32);
                }
            }
            // Full blocks, newest block first.
            let blocks = fingerprints[..split].chunks_exact(super::KERNEL_LANES);
            for (bi, block) in blocks.enumerate().rev() {
                let mask = $mask(query, block.try_into().expect("exact chunk"), threshold);
                if mask != 0 {
                    let block_base = base + (bi * super::KERNEL_LANES) as u32;
                    for j in (0..super::KERNEL_LANES).rev() {
                        if mask & (1 << j) != 0 {
                            out.push(block_base + j as u32);
                        }
                    }
                }
            }
        }

        /// Position of the newest fingerprint within `threshold` of `query`.
        $(#[$attr])*
        pub(super) fn rfind(query: u64, fingerprints: &[u64], threshold: u32) -> Option<usize> {
            let split = fingerprints.len() - fingerprints.len() % super::KERNEL_LANES;
            for i in (split..fingerprints.len()).rev() {
                if super::within_distance(fingerprints[i], query, threshold) {
                    return Some(i);
                }
            }
            let blocks = fingerprints[..split].chunks_exact(super::KERNEL_LANES);
            for (bi, block) in blocks.enumerate().rev() {
                let mask = $mask(query, block.try_into().expect("exact chunk"), threshold);
                if mask != 0 {
                    // Highest set lane = newest record in the block.
                    return Some(
                        bi * super::KERNEL_LANES + (u32::BITS - 1 - mask.leading_zeros()) as usize,
                    );
                }
            }
            None
        }

        /// [`filter_append`] with the popcount-class prefilter: a block whose
        /// eight stored popcounts all fall outside `[lo, hi]` is skipped
        /// without touching the fingerprint column.
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        pub(super) fn filter_pruned_append(
            query: u64,
            fingerprints: &[u64],
            popcounts: &[u8],
            threshold: u32,
            lo: u8,
            hi: u8,
            base: u32,
            out: &mut Vec<u32>,
        ) {
            debug_assert_eq!(fingerprints.len(), popcounts.len());
            let split = fingerprints.len() - fingerprints.len() % super::KERNEL_LANES;
            for i in (split..fingerprints.len()).rev() {
                let pc = popcounts[i];
                if pc < lo || pc > hi {
                    continue;
                }
                if super::within_distance(fingerprints[i], query, threshold) {
                    out.push(base + i as u32);
                }
            }
            let blocks = fingerprints[..split].chunks_exact(super::KERNEL_LANES);
            for (bi, block) in blocks.enumerate().rev() {
                let pcs = &popcounts[bi * super::KERNEL_LANES..(bi + 1) * super::KERNEL_LANES];
                let mut admissible = false;
                for &pc in pcs {
                    admissible |= pc >= lo && pc <= hi;
                }
                if !admissible {
                    continue;
                }
                let mask = $mask(query, block.try_into().expect("exact chunk"), threshold);
                if mask != 0 {
                    let block_base = base + (bi * super::KERNEL_LANES) as u32;
                    for j in (0..super::KERNEL_LANES).rev() {
                        if mask & (1 << j) != 0 {
                            out.push(block_base + j as u32);
                        }
                    }
                }
            }
        }

        /// [`rfind`] with the popcount-class prefilter.
        $(#[$attr])*
        pub(super) fn rfind_pruned(
            query: u64,
            fingerprints: &[u64],
            popcounts: &[u8],
            threshold: u32,
            lo: u8,
            hi: u8,
        ) -> Option<usize> {
            debug_assert_eq!(fingerprints.len(), popcounts.len());
            let split = fingerprints.len() - fingerprints.len() % super::KERNEL_LANES;
            for i in (split..fingerprints.len()).rev() {
                let pc = popcounts[i];
                if pc < lo || pc > hi {
                    continue;
                }
                if super::within_distance(fingerprints[i], query, threshold) {
                    return Some(i);
                }
            }
            let blocks = fingerprints[..split].chunks_exact(super::KERNEL_LANES);
            for (bi, block) in blocks.enumerate().rev() {
                let pcs = &popcounts[bi * super::KERNEL_LANES..(bi + 1) * super::KERNEL_LANES];
                let mut admissible = false;
                for &pc in pcs {
                    admissible |= pc >= lo && pc <= hi;
                }
                if !admissible {
                    continue;
                }
                let mask = $mask(query, block.try_into().expect("exact chunk"), threshold);
                if mask != 0 {
                    return Some(
                        bi * super::KERNEL_LANES + (u32::BITS - 1 - mask.leading_zeros()) as usize,
                    );
                }
            }
            None
        }
    };
}

mod scalar_body {
    scan_bodies!(mask = super::block_mask_scalar);
}

#[cfg(target_arch = "x86_64")]
mod avx2_body {
    use core::arch::x86_64::*;

    /// Four 64-bit popcounts: `vpshufb` nibble LUT (Mula's algorithm — AVX2
    /// has no `vpopcntq`) summed per qword by `vpsadbw`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcount_epi64(x: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(x, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(x), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Bit `j` set iff `block[j]` is within `threshold` of `query`: two
    /// 256-bit XOR+popcount+compare steps, mask extracted via the qword
    /// sign bits (`threshold < 64`, so `pc > threshold` never overflows the
    /// signed compare).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn block_mask_avx2(query: u64, block: &[u64; super::KERNEL_LANES], threshold: u32) -> u32 {
        // SAFETY: AVX2 is enabled for this function, and `block` holds
        // `KERNEL_LANES` = 8 u64s, so both 32-byte unaligned loads (lanes
        // 0..4 and 4..8) stay inside it.
        unsafe {
            let q = _mm256_set1_epi64x(query as i64);
            let thr = _mm256_set1_epi64x(threshold as i64);
            let v0 = _mm256_loadu_si256(block.as_ptr().cast());
            let v1 = _mm256_loadu_si256(block.as_ptr().add(4).cast());
            let gt0 = _mm256_cmpgt_epi64(popcount_epi64(_mm256_xor_si256(v0, q)), thr);
            let gt1 = _mm256_cmpgt_epi64(popcount_epi64(_mm256_xor_si256(v1, q)), thr);
            // Sign bit of lane j == "distance exceeds threshold"; invert for
            // the within-mask. Lane 0 is the lowest address = oldest record.
            let m0 = _mm256_movemask_pd(_mm256_castsi256_pd(gt0)) as u32;
            let m1 = _mm256_movemask_pd(_mm256_castsi256_pd(gt1)) as u32;
            (!m0 & 0xF) | ((!m1 & 0xF) << 4)
        }
    }

    scan_bodies!(
        #[target_feature(enable = "avx2")]
        mask = block_mask_avx2
    );
}

#[cfg(target_arch = "aarch64")]
mod neon_body {
    use core::arch::aarch64::*;

    /// Bit `j` set iff `block[j]` is within `threshold` of `query`: four
    /// 128-bit steps of `vcnt` byte-popcount widened pairwise to u64 lane
    /// sums, compared against the threshold.
    #[inline]
    #[target_feature(enable = "neon")]
    fn block_mask_neon(query: u64, block: &[u64; super::KERNEL_LANES], threshold: u32) -> u32 {
        // SAFETY: NEON is enabled for this function, and each 16-byte load
        // at lane `j` (`j + 2 <= KERNEL_LANES`) stays inside `block`.
        unsafe {
            let q = vdupq_n_u64(query);
            let thr = vdupq_n_u64(u64::from(threshold));
            let mut mask = 0u32;
            let mut j = 0;
            while j < super::KERNEL_LANES {
                let v = vld1q_u64(block.as_ptr().add(j));
                let x = veorq_u64(v, q);
                let cnt = vcntq_u8(vreinterpretq_u8_u64(x));
                let pc = vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt)));
                let le = vcleq_u64(pc, thr);
                mask |= ((vgetq_lane_u64::<0>(le) & 1) as u32) << j;
                mask |= ((vgetq_lane_u64::<1>(le) & 1) as u32) << (j + 1);
                j += 2;
            }
            mask
        }
    }

    scan_bodies!(
        #[target_feature(enable = "neon")]
        mask = block_mask_neon
    );
}

/// Resolve `kernel` to a body this process can actually execute: requesting
/// a SIMD kernel on a host without the feature falls back to the scalar
/// body rather than executing illegal instructions.
#[inline]
fn runnable(kernel: KernelKind) -> KernelKind {
    match kernel {
        KernelKind::BatchedScalar => KernelKind::BatchedScalar,
        k if k.is_supported() => k,
        _ => KernelKind::BatchedScalar,
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
    filter_within_append_using(kernel, query, fingerprints, threshold, 0, out);
}

/// Append positions in `fingerprints` within `threshold` of `query`,
/// newest-first, each offset by `base`, **without** clearing `out` — the
/// building block for segmented scans (sub-bin pruning walks a window as
/// several slices but must emit one newest-first position list).
pub fn filter_within_append_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    threshold: u32,
    base: u32,
    out: &mut Vec<u32>,
) {
    debug_assert!(fingerprints.len() <= u32::MAX as usize - base as usize);
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 is available on this CPU.
        KernelKind::Avx2 => unsafe {
            avx2_body::filter_append(query, fingerprints, threshold, base, out)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `runnable` verified NEON is available on this CPU.
        KernelKind::Neon => unsafe {
            neon_body::filter_append(query, fingerprints, threshold, base, out)
        },
        _ => scalar_body::filter_append(query, fingerprints, threshold, base, out),
    }
}

/// [`rfind_within`] with an explicit kernel.
pub fn rfind_within_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    threshold: u32,
) -> Option<usize> {
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 is available on this CPU.
        KernelKind::Avx2 => unsafe { avx2_body::rfind(query, fingerprints, threshold) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `runnable` verified NEON is available on this CPU.
        KernelKind::Neon => unsafe { neon_body::rfind(query, fingerprints, threshold) },
        _ => scalar_body::rfind(query, fingerprints, threshold),
    }
}

/// [`filter_within_append_using`] with the popcount-class prefilter:
/// `popcounts[i]` must equal `fingerprints[i].count_ones()`. Records whose
/// popcount proves the threshold unreachable are skipped without loading
/// the fingerprint; the output is identical to the unpruned scan.
#[allow(clippy::too_many_arguments)]
pub fn filter_within_pruned_append_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: &[u8],
    threshold: u32,
    base: u32,
    out: &mut Vec<u32>,
) {
    let (lo, hi) = popcount_class_bounds(query, threshold);
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 is available on this CPU.
        KernelKind::Avx2 => unsafe {
            avx2_body::filter_pruned_append(
                query,
                fingerprints,
                popcounts,
                threshold,
                lo,
                hi,
                base,
                out,
            )
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `runnable` verified NEON is available on this CPU.
        KernelKind::Neon => unsafe {
            neon_body::filter_pruned_append(
                query,
                fingerprints,
                popcounts,
                threshold,
                lo,
                hi,
                base,
                out,
            )
        },
        _ => scalar_body::filter_pruned_append(
            query,
            fingerprints,
            popcounts,
            threshold,
            lo,
            hi,
            base,
            out,
        ),
    }
}

/// [`rfind_within_using`] with the popcount-class prefilter.
pub fn rfind_within_pruned_using(
    kernel: KernelKind,
    query: Fingerprint,
    fingerprints: &[Fingerprint],
    popcounts: &[u8],
    threshold: u32,
) -> Option<usize> {
    let (lo, hi) = popcount_class_bounds(query, threshold);
    match runnable(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified AVX2 is available on this CPU.
        KernelKind::Avx2 => unsafe {
            avx2_body::rfind_pruned(query, fingerprints, popcounts, threshold, lo, hi)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `runnable` verified NEON is available on this CPU.
        KernelKind::Neon => unsafe {
            neon_body::rfind_pruned(query, fingerprints, popcounts, threshold, lo, hi)
        },
        _ => scalar_body::rfind_pruned(query, fingerprints, popcounts, threshold, lo, hi),
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
/// 8 contiguous words are distance-checked branch-free into a
/// bitmask by the process-wide [`crate::kernels::active_kernel`], and the
/// (rare) per-candidate pushes branch once per block instead of once per
/// record.
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

    /// Assert every kernel body the host supports (plus the pruned variants)
    /// agrees with the scalar reference on this input.
    fn assert_all_kernels_match(query: u64, fps: &[u64], threshold: u32) {
        let expected = scalar_filter(query, fps, threshold);
        let expected_first = expected.first().map(|&p| p as usize);
        let pcs = popcounts_of(fps);
        let mut out = Vec::new();
        for kernel in supported_kernels() {
            filter_within_into_using(kernel, query, fps, threshold, &mut out);
            assert_eq!(
                out, expected,
                "filter kernel={kernel} threshold={threshold}"
            );
            assert_eq!(
                rfind_within_using(kernel, query, fps, threshold),
                expected_first,
                "rfind kernel={kernel} threshold={threshold}"
            );
            out.clear();
            filter_within_pruned_append_using(kernel, query, fps, &pcs, threshold, 0, &mut out);
            assert_eq!(
                out, expected,
                "pruned filter kernel={kernel} threshold={threshold}"
            );
            assert_eq!(
                rfind_within_pruned_using(kernel, query, fps, &pcs, threshold),
                expected_first,
                "pruned rfind kernel={kernel} threshold={threshold}"
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
            filter_within_append_using(kernel, 0, &[0, 1, 0], 0, 100, &mut out);
            assert_eq!(out, vec![7, 102, 100], "kernel={kernel}");
        }
    }

    /// All remainder lengths around the 8-wide block size: 0..=2 blocks plus
    /// one lane, so the scalar tail, a single full block, and the
    /// multi-block path are each exercised at every tail length — on every
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
    /// fingerprints: the densest possible match pattern at every tail shape.
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
        /// crosses several 8-wide block boundaries and every tail length) —
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

        /// Skewed popcounts (low/high set-bit density) so the pruned kernels
        /// actually reject blocks, not just pass everything through.
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
