//! SimHash fingerprint construction.
//!
//! For each token we derive a well-mixed 64-bit hash; every set bit of the
//! hash votes `+w` for the corresponding fingerprint bit and every clear bit
//! votes `−w`, where `w` is the token's weight. The fingerprint's bit `i` is 1
//! iff the accumulated vote is positive. Cosine-similar texts share most
//! token votes and therefore land at small Hamming distance; unrelated texts
//! produce near-independent fingerprints whose distance concentrates around
//! 32 (Figure 2 of the paper).

use std::collections::VecDeque;

use firehose_text::{for_each_token, NormalizeOptions, TokenWeights};

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
///
/// One pass over `text` normalizes, splits, classifies, hashes and votes:
/// the normalized text and its token list are never built.
pub fn simhash(text: &str, options: SimHashOptions) -> Fingerprint {
    if options.weights == TokenWeights::uniform() {
        // The paper's setting, and every engine default.
        let votes = UnitVotes {
            lanes: [0; 8],
            pending: 0,
            ones: [0; 64],
            n: 0,
        };
        fingerprint(text, options, votes)
    } else {
        fingerprint(text, options, WeightedVotes([0.0; 64]))
    }
}

/// The walk behind [`simhash`]: each token with positive weight is hashed
/// and, for `ngram > 1`, combined with the `ngram − 1` tokens before it; the
/// (combined) hash votes with the weight of its first token.
fn fingerprint<V: Votes>(text: &str, options: SimHashOptions, mut votes: V) -> Fingerprint {
    let n = options.ngram;
    // For n-grams, the last `n` (hash, weight) pairs, oldest first.
    let mut last = VecDeque::new();
    let gram = |last: &VecDeque<(u64, f64)>| {
        let h = last
            .iter()
            .skip(1)
            .fold(last[0].0, |h, &(next, _)| combine(h, next));
        (h, last[0].1)
    };
    for_each_token(text, options.normalize, |fnv, kind| {
        let w = options.weights.weight(kind);
        if w > 0.0 {
            if n <= 1 {
                votes.add(mix64(fnv), w);
                return;
            }
            if last.len() == n {
                last.pop_front();
            }
            last.push_back((mix64(fnv), w));
            if last.len() == n {
                let (h, w) = gram(&last);
                votes.add(h, w);
            }
        }
    });
    if !last.is_empty() && last.len() < n {
        // Shorter than one n-gram: hash the whole sequence as a unit so
        // short posts still produce a signal.
        let (h, w) = gram(&last);
        votes.add(h, w);
    }
    votes.finish()
}

/// A per-bit vote accumulator: every set bit of `h` votes `+w` for its
/// fingerprint bit, every clear bit `−w`; a bit is 1 iff its sum is positive.
trait Votes {
    fn add(&mut self, h: u64, w: f64);
    fn finish(self) -> Fingerprint;
}

/// Votes of any weight, summed in `f64` in token order.
struct WeightedVotes([f64; 64]);

impl Votes for WeightedVotes {
    #[inline]
    fn add(&mut self, h: u64, w: f64) {
        for (i, v) in self.0.iter_mut().enumerate() {
            if (h >> i) & 1 == 1 {
                *v += w;
            } else {
                *v -= w;
            }
        }
    }

    fn finish(self) -> Fingerprint {
        (0..64).fold(0, |fp, i| fp | u64::from(self.0[i] > 0.0) << i)
    }
}

/// Unit votes as set-bit counts: the `±1` sum of bit `i` over `n` tokens is
/// positive iff `2·ones[i] > n`, which is exact where the `f64` sum is too.
///
/// Counting runs in eight `u64` byte-lane counters, 8 adds per token
/// instead of 64: byte `k` of `lanes[j]` counts bit `8k + j`. A byte holds
/// 255, so every 255 tokens the lanes are flushed into `ones`.
struct UnitVotes {
    lanes: [u64; 8],
    /// Tokens in `lanes` not yet flushed into `ones`.
    pending: u32,
    ones: [u32; 64],
    n: u64,
}

impl UnitVotes {
    fn flush(&mut self) {
        for (j, lane) in self.lanes.iter_mut().enumerate() {
            for k in 0..8 {
                self.ones[8 * k + j] += ((*lane >> (8 * k)) & 0xff) as u32;
            }
            *lane = 0;
        }
        self.n += u64::from(self.pending);
        self.pending = 0;
    }
}

impl Votes for UnitVotes {
    #[inline]
    fn add(&mut self, h: u64, _: f64) {
        for (j, lane) in self.lanes.iter_mut().enumerate() {
            *lane += (h >> j) & 0x0101_0101_0101_0101;
        }
        self.pending += 1;
        if self.pending == 255 {
            self.flush();
        }
    }

    fn finish(mut self) -> Fingerprint {
        self.flush();
        (0..64).fold(0, |fp, i| {
            fp | u64::from(2 * u64::from(self.ones[i]) > self.n) << i
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::hamming_distance;
    use firehose_text::{fnv1a_64, normalize, tokens};

    /// Token hash used by the fingerprint: FNV-1a then SplitMix64
    /// finalization.
    fn token_hash(token: &str) -> u64 {
        mix64(fnv1a_64(token.as_bytes()))
    }

    /// The reference [`simhash`] must reproduce bit for bit: build the
    /// normalized string, split it with [`tokens`], and vote in `f64` over
    /// the collected token hashes.
    fn reference(text: &str, options: SimHashOptions) -> Fingerprint {
        let normalized = normalize(text, options.normalize);
        let hashed =
            tokens(&normalized).map(|t| (token_hash(t.text), options.weights.weight(t.kind)));
        simhash_tokens(hashed, options.ngram)
    }

    /// SimHash over pre-hashed, pre-weighted tokens: `ngram == 1` votes each
    /// token, larger `ngram` slides a window of combined hashes carrying the
    /// weight of the window's first token.
    fn simhash_tokens<I>(token_hashes: I, ngram: usize) -> Fingerprint
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

    fn options_from_bits(bits: u8) -> NormalizeOptions {
        NormalizeOptions {
            lowercase: bits & 1 != 0,
            collapse_whitespace: bits & 2 != 0,
            strip_non_alphanumeric: bits & 4 != 0,
            keep_social_sigils: bits & 8 != 0,
        }
    }

    /// Uniform, a zeroed class (hashtags; words, which the paper's options
    /// make every token), and classes boosted to fractional weights.
    fn weight_sets() -> [TokenWeights; 4] {
        [
            TokenWeights::uniform(),
            TokenWeights {
                hashtag: 0.0,
                ..TokenWeights::uniform()
            },
            TokenWeights {
                word: 0.0,
                ..TokenWeights::uniform()
            },
            TokenWeights {
                word: 0.7,
                hashtag: 2.5,
                mention: 3.0,
                url: 1.0,
            },
        ]
    }

    /// Text with URL and sigil prefixes, multi-char lowercase expansions
    /// (İ, ǅ), ß, Unicode whitespace, the ASCII separators U+001C–U+001F
    /// (not `char::is_whitespace`), the Kelvin sign (lowercases to ASCII
    /// `k`), and random code points.
    fn post_text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        const PIECES: &[&str] = &[
            "http://", "https://", "#", "@", "a", "Z", "7", "tie", " ", "  ", "\t", "\n", "-", ".",
            "İ", "ǅ", "ß", "é", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", "\u{1c}", "\u{1f}",
            "\u{212a}", "🔥",
        ];
        let piece = (
            0u8..4,
            proptest::sample::select(PIECES.to_vec()),
            0u32..0x11_0000,
        )
            .prop_map(|(pick, piece, cp)| match pick {
                0 => char::from_u32(cp).unwrap_or('\u{fffd}').to_string(),
                _ => piece.to_string(),
            });
        proptest::collection::vec(piece, 0..60).prop_map(|pieces| pieces.concat())
    }

    #[test]
    fn simhash_matches_reference_proptest() {
        use proptest::prelude::*;
        proptest! {
            fn inner(text in post_text(), bits in 0u8..16, ngram in 1usize..5) {
                for weights in weight_sets() {
                    let options = SimHashOptions {
                        normalize: options_from_bits(bits),
                        weights,
                        ngram,
                    };
                    prop_assert_eq!(
                        simhash(&text, options),
                        reference(&text, options),
                        "options={:?} text={:?}", options, text
                    );
                }
            }
        }
        inner();
    }

    #[test]
    fn byte_lane_flush_matches_reference() {
        // A byte lane holds 255 votes, so the flush must run by the 255th
        // token; a 70,000-token post crosses it 274 times. One repeated
        // token sets the same bits every time, so a late flush overflows a
        // lane; the mixed words exercise the n-gram buffer and every class.
        let mixed = ["alpha", "beta", "#gamma", "@delta", "http://e.co/x", "zeta"];
        for len in [254, 255, 256, 70_000] {
            let repeated = vec!["tie"; len].join(" ");
            let mixed: Vec<&str> = (0..len)
                .map(|i| mixed[(i * 7 + i / 3) % mixed.len()])
                .collect();
            for text in [repeated, mixed.join(" ")] {
                for ngram in 1..=2 {
                    for normalize in [NormalizeOptions::paper(), NormalizeOptions::raw()] {
                        let options = SimHashOptions {
                            normalize,
                            weights: TokenWeights::uniform(),
                            ngram,
                        };
                        assert_eq!(
                            simhash(&text, options),
                            reference(&text, options),
                            "len={len} ngram={ngram}"
                        );
                    }
                }
            }
        }
    }

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
            normalize: NormalizeOptions::raw(),
            ..boosted
        };
        let only_tag = simhash("#breaking", boosted);
        let tag_plus_noise = simhash("#breaking unrelated words here now", boosted);
        assert!(hamming_distance(only_tag, tag_plus_noise) <= 8);
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
    fn token_hash_is_well_mixed() {
        // Single-character tokens must not share obvious bit patterns.
        let h1 = token_hash("a");
        let h2 = token_hash("b");
        let d = (h1 ^ h2).count_ones();
        assert!((16..=48).contains(&d), "poorly mixed: {d}");
    }
}
