//! Sparse term-frequency vectors and exact cosine similarity.
//!
//! Cosine similarity over TF vectors is the content measure SimHash
//! approximates (Section 2/3 of the paper). It is too slow to run per arriving
//! post against the whole window, but it serves two roles here:
//!
//! 1. the ground-truth oracle for the surrogate user study (the paper found
//!    cosine ≥ 0.7 reproduces the human majority labels), and
//! 2. the exact-content ablation engine (`ablation_simhash_vs_cosine`).
//!
//! Vectors are stored as sorted `(term-hash, weight)` pairs so a dot product
//! is a linear merge — no hash map in the hot loop.

use crate::tokenize::{tokens, TokenWeights};

/// A sparse term-frequency vector over 64-bit term hashes.
///
/// Terms are represented by an FNV-1a hash of their bytes; with ≲50 tokens per
/// post, 64-bit collisions are negligible. Entries are sorted by term hash.
#[derive(Debug, Clone, PartialEq)]
pub struct TfVector {
    entries: Vec<(u64, f64)>,
    norm: f64,
}

/// FNV-1a 64-bit hash — the same term hash used by `firehose-simhash`, kept
/// dependency-free and stable across platforms.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_byte(h, b))
}

/// The FNV-1a hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: `h` extended by byte `b`.
#[inline]
pub(crate) fn fnv1a_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

impl TfVector {
    /// Build a TF vector from raw text with uniform token weights.
    pub fn from_text(text: &str) -> Self {
        Self::from_text_weighted(text, TokenWeights::uniform())
    }

    /// Build a TF vector from raw text with per-class token weights.
    pub(crate) fn from_text_weighted(text: &str, weights: TokenWeights) -> Self {
        let mut entries: Vec<(u64, f64)> = tokens(text)
            .filter_map(|t| {
                let w = weights.weight(t.kind);
                (w > 0.0).then(|| (fnv1a_64(t.text.as_bytes()), w))
            })
            .collect();
        entries.sort_unstable_by_key(|&(h, _)| h);

        // Merge duplicate terms, accumulating weights.
        let mut merged: Vec<(u64, f64)> = Vec::with_capacity(entries.len());
        for (h, w) in entries {
            match merged.last_mut() {
                Some((lh, lw)) if *lh == h => *lw += w,
                _ => merged.push((h, w)),
            }
        }

        let norm = merged.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        Self {
            entries: merged,
            norm,
        }
    }

    /// Dot product with another vector (linear merge over sorted entries).
    pub(crate) fn dot(&self, other: &Self) -> f64 {
        let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity in `[0, 1]`; empty vectors have similarity 0 with
    /// everything (including themselves) — an empty post carries no content
    /// signal, so it should never be judged redundant by content.
    pub fn cosine(&self, other: &Self) -> f64 {
        if self.norm == 0.0 || other.norm == 0.0 {
            return 0.0;
        }
        (self.dot(other) / (self.norm * other.norm)).clamp(0.0, 1.0)
    }
}

/// Convenience: cosine similarity of two raw texts with uniform weights.
///
/// ```
/// use firehose_text::cosine_similarity;
/// assert!(cosine_similarity("a b c", "a b c") > 0.999);
/// assert_eq!(cosine_similarity("a b c", "x y z"), 0.0);
/// ```
pub fn cosine_similarity(a: &str, b: &str) -> f64 {
    TfVector::from_text(a).cosine(&TfVector::from_text(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_have_cosine_one() {
        let v = TfVector::from_text("the quick brown fox");
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_texts_have_cosine_zero() {
        assert_eq!(cosine_similarity("aa bb cc", "dd ee ff"), 0.0);
    }

    #[test]
    fn cosine_is_symmetric() {
        let (a, b) = ("one two three four", "two three five");
        assert_eq!(cosine_similarity(a, b), cosine_similarity(b, a));
    }

    #[test]
    fn partial_overlap_between_zero_and_one() {
        let s = cosine_similarity("a b c d", "a b x y");
        assert!(s > 0.0 && s < 1.0, "got {s}");
        assert!(
            (s - 0.5).abs() < 1e-12,
            "2 shared of 4+4 tokens => 0.5, got {s}"
        );
    }

    #[test]
    fn repeated_terms_accumulate() {
        // "a a" has tf(a)=2; cosine with "a" is still 1 (same direction).
        assert!((cosine_similarity("a a", "a") - 1.0).abs() < 1e-12);
        // but "a a b" is closer to "a" than "a b" is... direction differs.
        let heavy = cosine_similarity("a a b", "a");
        let light = cosine_similarity("a b", "a");
        assert!(heavy > light);
    }

    #[test]
    fn empty_text_never_similar() {
        assert_eq!(cosine_similarity("", ""), 0.0);
        assert_eq!(cosine_similarity("", "hello"), 0.0);
    }

    #[test]
    fn token_weights_can_drop_classes() {
        let w = TokenWeights {
            url: 0.0,
            ..TokenWeights::uniform()
        };
        let a = TfVector::from_text_weighted("news http://t.co/abc", w);
        let b = TfVector::from_text_weighted("news http://t.co/xyz", w);
        // URLs dropped => identical single-term vectors.
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_boosts_class_influence() {
        let neutral = TokenWeights::uniform();
        let boosted = TokenWeights {
            hashtag: 4.0,
            ..TokenWeights::uniform()
        };
        let a = "report #breaking";
        let b = "update #breaking";
        let n = TfVector::from_text_weighted(a, neutral)
            .cosine(&TfVector::from_text_weighted(b, neutral));
        let s = TfVector::from_text_weighted(a, boosted)
            .cosine(&TfVector::from_text_weighted(b, boosted));
        assert!(
            s > n,
            "boosting the shared hashtag must raise similarity: {s} vs {n}"
        );
    }

    #[test]
    fn fnv_reference_values() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn entries_sorted_and_merged() {
        let v = TfVector::from_text("b a b a b");
        assert_eq!(v.entries.len(), 2);
        assert!(v.entries.windows(2).all(|w| w[0].0 < w[1].0));
        let total: f64 = v.entries.iter().map(|e| e.1).sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    fn norm_matches_definition() {
        let v = TfVector::from_text("x x y"); // tf = {x:2, y:1}
        assert!((v.norm - (5.0f64).sqrt()).abs() < 1e-12);
    }
}
