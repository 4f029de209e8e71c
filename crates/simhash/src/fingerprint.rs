//! SimHash fingerprint construction.
//!
//! For each token we derive a well-mixed 64-bit hash; every set bit of the
//! hash votes `+w` for the corresponding fingerprint bit and every clear bit
//! votes `−w`, where `w` is the token's weight. The fingerprint's bit `i` is 1
//! iff the accumulated vote is positive. Cosine-similar texts share most
//! token votes and therefore land at small Hamming distance; unrelated texts
//! produce near-independent fingerprints whose distance concentrates around
//! 32 (Figure 2 of the paper).

use firehose_text::{fnv1a_64, normalize, tokens, NormalizeOptions, TokenWeights};

/// A 64-bit SimHash fingerprint.
pub type Fingerprint = u64;

/// Options controlling fingerprint construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimHashOptions {
    /// Text normalization applied before tokenization. The paper's evaluation
    /// uses [`NormalizeOptions::paper`] (Figure 4); [`NormalizeOptions::raw`]
    /// reproduces Figure 3.
    pub normalize: NormalizeOptions,
    /// Per-class token weights (Section 3's "artificial copies" experiment).
    pub weights: TokenWeights,
    /// Word n-gram size; `1` hashes single tokens (the paper's setting),
    /// larger values add positional sensitivity (an extension; see DESIGN.md).
    pub ngram: usize,
}

impl Default for SimHashOptions {
    fn default() -> Self {
        Self::paper()
    }
}

impl SimHashOptions {
    /// Figure 4 configuration: normalized text, uniform weights, unigrams.
    pub fn paper() -> Self {
        Self {
            normalize: NormalizeOptions::paper(),
            weights: TokenWeights::uniform(),
            ngram: 1,
        }
    }

    /// Figure 3 configuration: raw text, uniform weights, unigrams.
    pub fn raw() -> Self {
        Self {
            normalize: NormalizeOptions::raw(),
            ..Self::paper()
        }
    }
}

/// Post-mix the FNV token hash through the SplitMix64 finalizer.
///
/// FNV-1a on very short tokens leaves the high bits poorly diffused, which
/// would skew the "random pair" Hamming distribution away from mean 32. The
/// SplitMix64 finalizer is a cheap full-avalanche mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Token hash used by the fingerprint: FNV-1a then SplitMix64 finalization.
#[inline]
pub(crate) fn token_hash(token: &str) -> u64 {
    mix64(fnv1a_64(token.as_bytes()))
}

/// Combine two token hashes into an n-gram hash (order-sensitive).
#[inline]
fn combine(h: u64, next: u64) -> u64 {
    mix64(h.rotate_left(17) ^ next)
}

/// Fallback fingerprint for token-free text, derived from the post id.
///
/// [`simhash`] maps every token-free text to fingerprint `0`, so two empty
/// posts would look content-identical (Hamming distance 0) and any empty
/// post would silently cover all later empty posts of similar authors within
/// `λt` — misclassification, since posts with no comparable content carry no
/// duplicate signal. Engines that fingerprint full [`Post`]s substitute this
/// per-id value instead: distinct ids land at expected Hamming distance 32,
/// so empty posts behave like unrelated ones. Never returns `0`.
///
/// [`Post`]: https://docs.rs/firehose-stream
pub fn empty_text_fingerprint(id: u64) -> Fingerprint {
    // Golden-ratio offset decorrelates the id sequence before mixing; `| 1`
    // keeps the result distinguishable from the raw empty-text sentinel.
    mix64(id ^ 0x9e37_79b9_7f4a_7c15) | 1
}

/// Compute the SimHash fingerprint of `text` under `options`.
///
/// Empty or token-free text maps to fingerprint `0`. (Such posts are filtered
/// out upstream, mirroring the paper's removal of sub-two-word tweets.)
pub fn simhash(text: &str, options: SimHashOptions) -> Fingerprint {
    let normalized = normalize(text, options.normalize);
    let w = options.weights;
    if w.word == 1.0 && w.hashtag == 1.0 && w.mention == 1.0 && w.url == 1.0 {
        // Unit-weight fast path (the paper's setting, and every engine
        // default): ±1.0 votes accumulate to exact small integers in f64, so
        // counting set bits per position gives bit-identical fingerprints at
        // a fraction of the cost of the 64-lane float loop.
        return simhash_tokens_unit(
            tokens(&normalized).map(|t| token_hash(t.text)),
            options.ngram,
        );
    }
    simhash_tokens(
        tokens(&normalized).map(|t| (token_hash(t.text), options.weights.weight(t.kind))),
        options.ngram,
    )
}

/// [`simhash_tokens`] specialized to unit weights: every token votes `±1`,
/// so the per-bit accumulator is an integer set-bit count and the sign test
/// `votes[i] > 0.0` becomes `2·ones[i] > n`. Bit-identical to the float
/// path for weight `1.0` (±1.0 sums are exact in `f64` far beyond any
/// realistic token count).
pub(crate) fn simhash_tokens_unit<I>(token_hashes: I, ngram: usize) -> Fingerprint
where
    I: Iterator<Item = u64>,
{
    if ngram <= 1 {
        return vote_unit(token_hashes);
    }
    // Sliding n-gram window over the hashed token sequence.
    let hs: Vec<u64> = token_hashes.collect();
    if hs.len() >= ngram {
        vote_unit(hs.windows(ngram).map(|window| {
            let mut h = window[0];
            for &nh in &window[1..] {
                h = combine(h, nh);
            }
            h
        }))
    } else if !hs.is_empty() {
        // Shorter than one n-gram: hash the whole sequence as a unit so
        // short posts still produce a signal.
        let mut h = hs[0];
        for &nh in &hs[1..] {
            h = combine(h, nh);
        }
        vote_unit(std::iter::once(h))
    } else {
        0
    }
}

/// Integer majority vote over hashed tokens: bit `i` of the result is set
/// iff more than half the hashes have bit `i` set. Zero hashes yield the
/// empty-text fingerprint `0`.
///
/// On x86_64 with AVX2 (and unless `FIREHOSE_KERNEL=scalar` forces the
/// portable path, see [`crate::kernels`]), the per-bit counting runs in the
/// SIMD accumulator below; the counts — and therefore the fingerprint — are
/// identical to the scalar loop's.
fn vote_unit<I: Iterator<Item = u64>>(hashes: I) -> Fingerprint {
    #[cfg(target_arch = "x86_64")]
    if crate::kernels::active_kernel() == crate::kernels::KernelKind::Avx2 {
        return vote_unit_x86(hashes);
    }
    vote_unit_scalar(hashes)
}

fn vote_unit_scalar<I: Iterator<Item = u64>>(hashes: I) -> Fingerprint {
    let mut ones = [0u32; 64];
    let mut n = 0u64;
    for h in hashes {
        n += 1;
        for (i, c) in ones.iter_mut().enumerate() {
            *c += ((h >> i) & 1) as u32;
        }
    }
    assemble_majority(&ones, n)
}

/// Bit `i` set iff `2·ones[i] > n` — the exact sign test of the ±1 float
/// vote.
fn assemble_majority(ones: &[u32; 64], n: u64) -> Fingerprint {
    if n == 0 {
        return 0;
    }
    let mut fp: u64 = 0;
    for (i, &c) in ones.iter().enumerate() {
        // votes[i] = ones − (n − ones); positive iff 2·ones > n.
        fp |= u64::from(2 * u64::from(c) > n) << i;
    }
    fp
}

/// AVX2 vote path: hashes stream through a 64-word stack buffer; each full
/// buffer is bit-counted by [`x86_vote::accumulate`] into the same `ones`
/// histogram the scalar loop fills.
#[cfg(target_arch = "x86_64")]
fn vote_unit_x86<I: Iterator<Item = u64>>(hashes: I) -> Fingerprint {
    let mut ones = [0u32; 64];
    let mut n = 0u64;
    let mut buf = [0u64; 64];
    let mut fill = 0usize;
    for h in hashes {
        buf[fill] = h;
        fill += 1;
        if fill == buf.len() {
            // SAFETY: only reached when `active_kernel()` is Avx2, which
            // requires runtime AVX2 support.
            unsafe { x86_vote::accumulate(&buf[..fill], &mut ones) };
            n += fill as u64;
            fill = 0;
        }
    }
    if fill > 0 {
        // SAFETY: only reached when `active_kernel()` is Avx2, which
        // requires runtime AVX2 support.
        unsafe { x86_vote::accumulate(&buf[..fill], &mut ones) };
        n += fill as u64;
    }
    assemble_majority(&ones, n)
}

#[cfg(target_arch = "x86_64")]
mod x86_vote {
    use core::arch::x86_64::*;

    /// Add each hash's per-bit 0/1 votes into `ones`. For every 16-bit
    /// quarter of a hash, the quarter is broadcast to 16 lanes, ANDed with
    /// the per-lane bit masks `[1<<0 … 1<<15]`, and compared for equality —
    /// all-ones lanes (−1) are subtracted from a `u16` counter vector, i.e.
    /// counted. `hashes.len() ≤ 64` keeps the `u16` counters far from
    /// overflow (the caller streams through a 64-word buffer).
    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate(hashes: &[u64], ones: &mut [u32; 64]) {
        debug_assert!(hashes.len() <= u16::MAX as usize);
        let masks = _mm256_setr_epi16(
            1,
            1 << 1,
            1 << 2,
            1 << 3,
            1 << 4,
            1 << 5,
            1 << 6,
            1 << 7,
            1 << 8,
            1 << 9,
            1 << 10,
            1 << 11,
            1 << 12,
            1 << 13,
            1 << 14,
            i16::MIN, // 1 << 15 as i16
        );
        let mut acc = [_mm256_setzero_si256(); 4];
        for &h in hashes {
            for (g, a) in acc.iter_mut().enumerate() {
                let quarter = _mm256_set1_epi16((h >> (16 * g)) as i16);
                let hit = _mm256_cmpeq_epi16(_mm256_and_si256(quarter, masks), masks);
                *a = _mm256_sub_epi16(*a, hit);
            }
        }
        for (g, a) in acc.iter().enumerate() {
            let mut lanes = [0u16; 16];
            // SAFETY: `lanes` is 32 bytes, matching the unaligned store.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), *a) };
            for (j, &count) in lanes.iter().enumerate() {
                ones[16 * g + j] += u32::from(count);
            }
        }
    }
}

/// Compute a SimHash from pre-hashed, pre-weighted tokens.
///
/// This is the allocation-free core used by the engines; `ngram == 1` feeds
/// votes straight from the iterator, larger `ngram` slides a window of
/// combined hashes carrying the weight of the window's first token.
pub(crate) fn simhash_tokens<I>(token_hashes: I, ngram: usize) -> Fingerprint
where
    I: Iterator<Item = (u64, f64)>,
{
    let mut votes = [0.0f64; 64];
    let mut any = false;

    let mut vote = |h: u64, w: f64| {
        any = true;
        for (i, v) in votes.iter_mut().enumerate() {
            if (h >> i) & 1 == 1 {
                *v += w;
            } else {
                *v -= w;
            }
        }
    };

    if ngram <= 1 {
        for (h, w) in token_hashes {
            if w > 0.0 {
                vote(h, w);
            }
        }
    } else {
        // Sliding n-gram window over the hashed token sequence.
        let hs: Vec<(u64, f64)> = token_hashes.filter(|&(_, w)| w > 0.0).collect();
        if hs.len() >= ngram {
            for window in hs.windows(ngram) {
                let mut h = window[0].0;
                for &(nh, _) in &window[1..] {
                    h = combine(h, nh);
                }
                vote(h, window[0].1);
            }
        } else if !hs.is_empty() {
            // Shorter than one n-gram: hash the whole sequence as a unit so
            // short posts still produce a signal.
            let mut h = hs[0].0;
            for &(nh, _) in &hs[1..] {
                h = combine(h, nh);
            }
            vote(h, hs[0].1);
        }
    }

    if !any {
        return 0;
    }
    let mut fp: u64 = 0;
    for (i, &v) in votes.iter().enumerate() {
        if v > 0.0 {
            fp |= 1 << i;
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::hamming_distance;

    #[test]
    fn deterministic() {
        let t = "Alibaba's growth accelerates, U.S. IPO filing expected next week";
        assert_eq!(
            simhash(t, SimHashOptions::paper()),
            simhash(t, SimHashOptions::paper())
        );
    }

    #[test]
    fn empty_text_is_zero() {
        assert_eq!(simhash("", SimHashOptions::paper()), 0);
        assert_eq!(simhash("***", SimHashOptions::paper()), 0);
    }

    #[test]
    fn identical_normalized_texts_collide() {
        let a = simhash("Hello,   World!", SimHashOptions::paper());
        let b = simhash("hello world", SimHashOptions::paper());
        assert_eq!(a, b);
    }

    #[test]
    fn near_duplicates_are_close() {
        // Table 1, row 2 of the paper (Hamming distance 8 on raw text).
        let a = "\u{201c}In order to succeed, your desire for success should be greater than your fear of failure\u{201d} Bill Cosby";
        let b = "In order to succeed, your desire for success should be greater than your fear of failure. #quote #success - Bill Cosby";
        let d = hamming_distance(
            simhash(a, SimHashOptions::paper()),
            simhash(b, SimHashOptions::paper()),
        );
        assert!(d <= 18, "near-duplicate pair at distance {d}");
    }

    #[test]
    fn unrelated_texts_are_far() {
        let a = simhash(
            "Over 300 people missing after South Korean ferry sinks Reuters",
            SimHashOptions::paper(),
        );
        let b = simhash(
            "Alibaba growth accelerates IPO filing expected next week Technology",
            SimHashOptions::paper(),
        );
        let d = hamming_distance(a, b);
        assert!(d > 18, "unrelated pair at distance {d}");
    }

    #[test]
    fn raw_vs_normalized_differ_on_noisy_text() {
        let t = "BREAKING!!!   Something  HAPPENED";
        assert_ne!(
            simhash(t, SimHashOptions::raw()),
            simhash(t, SimHashOptions::paper())
        );
    }

    #[test]
    fn heavier_weight_dominates_fingerprint() {
        use firehose_text::TokenWeights;
        let boosted = SimHashOptions {
            weights: TokenWeights {
                hashtag: 100.0,
                ..TokenWeights::uniform()
            },
            ..SimHashOptions::paper()
        };
        // keep_social_sigils=false strips '#', so use raw normalization to
        // retain hashtag classification.
        let boosted = SimHashOptions {
            normalize: NormalizeOptions_raw(),
            ..boosted
        };
        let only_tag = simhash("#breaking", boosted);
        let tag_plus_noise = simhash("#breaking unrelated words here now", boosted);
        assert!(hamming_distance(only_tag, tag_plus_noise) <= 8);
    }

    // helper: NormalizeOptions::raw() via function to dodge the import dance
    #[allow(non_snake_case)]
    fn NormalizeOptions_raw() -> firehose_text::NormalizeOptions {
        firehose_text::NormalizeOptions::raw()
    }

    #[test]
    fn ngram_two_is_order_sensitive() {
        let opts = SimHashOptions {
            ngram: 2,
            ..SimHashOptions::paper()
        };
        let ab = simhash("alpha beta gamma delta", opts);
        let ba = simhash("delta gamma beta alpha", opts);
        assert_ne!(ab, ba);
        // With unigrams the same bags collide exactly.
        let u = SimHashOptions::paper();
        assert_eq!(
            simhash("alpha beta gamma delta", u),
            simhash("delta gamma beta alpha", u)
        );
    }

    #[test]
    fn short_post_with_large_ngram_still_fingerprints() {
        let opts = SimHashOptions {
            ngram: 4,
            ..SimHashOptions::paper()
        };
        assert_ne!(simhash("two words", opts), 0);
    }

    #[test]
    fn empty_text_fingerprints_are_distinct_and_nonzero() {
        let fps: Vec<Fingerprint> = (0..64).map(empty_text_fingerprint).collect();
        for (i, &a) in fps.iter().enumerate() {
            assert_ne!(a, 0, "fallback fingerprint must never be 0");
            for &b in &fps[i + 1..] {
                let d = hamming_distance(a, b);
                assert!(d >= 8, "ids too close: distance {d}");
            }
        }
    }

    #[test]
    fn unit_fast_path_matches_float_path() {
        use proptest::prelude::*;
        proptest! {
            fn inner(
                hashes in proptest::collection::vec(any::<u64>(), 0..40),
                ngram in 1usize..4,
            ) {
                let float = simhash_tokens(hashes.iter().map(|&h| (h, 1.0)), ngram);
                let unit = simhash_tokens_unit(hashes.iter().copied(), ngram);
                prop_assert_eq!(unit, float, "ngram={}", ngram);
            }
        }
        inner();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_vote_matches_scalar_vote() {
        use proptest::prelude::*;
        if !crate::kernels::KernelKind::Avx2.is_supported() {
            return;
        }
        proptest! {
            fn inner(
                // Cross the 64-word buffer boundary so flush + tail both run.
                hashes in proptest::collection::vec(any::<u64>(), 0..200),
            ) {
                prop_assert_eq!(
                    vote_unit_x86(hashes.iter().copied()),
                    vote_unit_scalar(hashes.iter().copied())
                );
            }
        }
        inner();
    }

    #[test]
    fn simhash_uses_same_votes_as_generic_path() {
        // The uniform-weight fast path inside `simhash` must agree with the
        // generic weighted accumulator on real text, for every ngram size.
        let texts = [
            "Over 300 people missing after South Korean ferry sinks Reuters",
            "breaking #news from @cnn http://t.co/x",
            "a",
            "tie tie tie tie", // repeated token: every vote identical
            "",
        ];
        for ngram in 1..4 {
            for text in texts {
                let opts = SimHashOptions {
                    ngram,
                    ..SimHashOptions::paper()
                };
                let via_fast = simhash(text, opts);
                let normalized = firehose_text::normalize(text, opts.normalize);
                let via_float = simhash_tokens(
                    firehose_text::tokens(&normalized)
                        .map(|t| (token_hash(t.text), opts.weights.weight(t.kind))),
                    ngram,
                );
                assert_eq!(via_fast, via_float, "ngram={ngram} text={text:?}");
            }
        }
    }

    #[test]
    fn token_hash_is_well_mixed() {
        // Single-character tokens must not share obvious bit patterns.
        let h1 = token_hash("a");
        let h2 = token_hash("b");
        let d = (h1 ^ h2).count_ones();
        assert!((16..=48).contains(&d), "poorly mixed: {d}");
    }
}
