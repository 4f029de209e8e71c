//! Whitespace tokenization with social-media token classification.
//!
//! SimHash fingerprints (and the cosine baseline) are computed over weighted
//! tokens. Tweets contain token classes with special roles — hashtags,
//! mentions and shortened URLs — and the paper experimented with varying their
//! weights "by creating artificial copies" (Section 3). [`TokenWeights`]
//! expresses the same idea as fractional multipliers instead of copies.

use crate::normalize::{walk, NormalizeOptions, Sink};
use crate::tf::{fnv1a_byte, FNV_OFFSET};

/// The class of a token, used for weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Plain word or number.
    Word,
    /// `#hashtag`.
    Hashtag,
    /// `@mention`.
    Mention,
    /// `http://...` / `https://...` URL (tweets carry t.co-shortened URLs).
    Url,
}

/// A token: a byte range into the input plus its class.
///
/// Borrowing instead of owning keeps tokenization allocation-free; the
/// fingerprint pipeline hashes the slice in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (as sliced from the input).
    pub text: &'a str,
    /// The token's class.
    pub kind: TokenKind,
}

impl<'a> Token<'a> {
    fn classify(text: &'a str) -> Self {
        let kind = classify(text.as_bytes(), text.len());
        Self { text, kind }
    }
}

/// The class of a token of byte length `len` whose bytes begin with `head`
/// (at least its first `min(len, 8)`): the one rule behind both [`tokens`]
/// and [`for_each_token`], so the cosine baseline and SimHash cannot
/// disagree.
fn classify(head: &[u8], len: usize) -> TokenKind {
    if head.starts_with(b"http://") || head.starts_with(b"https://") {
        TokenKind::Url
    } else if len > 1 && head[0] == b'#' {
        TokenKind::Hashtag
    } else if len > 1 && head[0] == b'@' {
        TokenKind::Mention
    } else {
        TokenKind::Word
    }
}

/// Per-class token weights.
///
/// A weight of `0.0` drops the class entirely; `1.0` is neutral; larger values
/// emulate the paper's "artificial copies" boosting. Weights multiply the
/// token's term frequency both in [`crate::TfVector`] and in the SimHash
/// accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenWeights {
    /// Weight of [`TokenKind::Word`] tokens.
    pub word: f64,
    /// Weight of [`TokenKind::Hashtag`] tokens.
    pub hashtag: f64,
    /// Weight of [`TokenKind::Mention`] tokens.
    pub mention: f64,
    /// Weight of [`TokenKind::Url`] tokens.
    pub url: f64,
}

impl Default for TokenWeights {
    fn default() -> Self {
        Self {
            word: 1.0,
            hashtag: 1.0,
            mention: 1.0,
            url: 1.0,
        }
    }
}

impl TokenWeights {
    /// All classes weighted equally (the paper's final choice — boosting was
    /// found to have "no significant impact").
    pub fn uniform() -> Self {
        Self::default()
    }

    /// The weight applied to a token of class `kind`.
    pub fn weight(&self, kind: TokenKind) -> f64 {
        match kind {
            TokenKind::Word => self.word,
            TokenKind::Hashtag => self.hashtag,
            TokenKind::Mention => self.mention,
            TokenKind::Url => self.url,
        }
    }
}

/// Split `text` on whitespace and classify each token.
///
/// ```
/// use firehose_text::{tokenize, TokenKind};
/// let toks = tokenize("breaking #news from @cnn http://t.co/x");
/// assert_eq!(toks.len(), 5);
/// assert_eq!(toks[1].kind, TokenKind::Hashtag);
/// assert_eq!(toks[3].kind, TokenKind::Mention);
/// assert_eq!(toks[4].kind, TokenKind::Url);
/// ```
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    text.split_whitespace().map(Token::classify).collect()
}

/// Iterator variant of [`tokenize`] that avoids the intermediate `Vec`.
pub fn tokens(text: &str) -> impl Iterator<Item = Token<'_>> {
    text.split_whitespace().map(Token::classify)
}

/// Call `f(fnv1a_64(token), kind)` for each token of `normalize(text,
/// options)`, in order: what [`tokens`] yields over the normalized string,
/// hashed, in one pass over `text` and without building that string.
pub fn for_each_token(text: &str, options: NormalizeOptions, f: impl FnMut(u64, TokenKind)) {
    let mut walker = TokenWalker {
        f,
        hash: FNV_OFFSET,
        len: 0,
        head: 0,
    };
    walk(text, options, &mut walker);
    walker.end();
}

/// Splits the normalized text where `split_whitespace` does, and hashes and
/// classifies each token as its bytes arrive.
struct TokenWalker<F> {
    f: F,
    /// FNV-1a of the current token's bytes so far.
    hash: u64,
    /// The current token's byte length; 0 between tokens.
    len: usize,
    /// The current token's first `min(len, 8)` bytes, little-endian.
    head: u64,
}

impl<F: FnMut(u64, TokenKind)> TokenWalker<F> {
    fn end(&mut self) {
        if self.len > 0 {
            let head = self.head.to_le_bytes();
            (self.f)(self.hash, classify(&head[..self.len.min(8)], self.len));
            self.hash = FNV_OFFSET;
            self.len = 0;
            self.head = 0;
        }
    }
}

impl<F: FnMut(u64, TokenKind)> Sink for TokenWalker<F> {
    // Once per character: inlined into every put site of `walk`, so that
    // only the per-token `end` is a call.
    #[inline(always)]
    fn put(&mut self, ch: char) {
        if ch.is_whitespace() {
            self.end();
        } else {
            for &b in ch.encode_utf8(&mut [0; 4]).as_bytes() {
                if self.len < 8 {
                    self.head |= u64::from(b) << (8 * self.len);
                }
                self.len += 1;
                self.hash = fnv1a_byte(self.hash, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_words() {
        let t = tokenize("plain words 123");
        assert!(t.iter().all(|t| t.kind == TokenKind::Word));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn classifies_hashtags_and_mentions() {
        let t = tokenize("#Technology @Reuters");
        assert_eq!(t[0].kind, TokenKind::Hashtag);
        assert_eq!(t[1].kind, TokenKind::Mention);
    }

    #[test]
    fn bare_sigils_are_words() {
        let t = tokenize("# @ a");
        assert_eq!(t[0].kind, TokenKind::Word);
        assert_eq!(t[1].kind, TokenKind::Word);
    }

    #[test]
    fn classifies_urls() {
        let t = tokenize("see http://t.co/mUcmLJ4cpc and https://example.com/a");
        assert_eq!(t[1].kind, TokenKind::Url);
        assert_eq!(t[3].kind, TokenKind::Url);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize(" \t\n ").is_empty());
    }

    #[test]
    fn token_text_slices_input() {
        let input = "alpha beta";
        let t = tokenize(input);
        assert_eq!(t[0].text, "alpha");
        assert_eq!(t[1].text, "beta");
    }

    #[test]
    fn weights_lookup() {
        let w = TokenWeights {
            word: 1.0,
            hashtag: 2.0,
            mention: 3.0,
            url: 0.0,
        };
        assert_eq!(w.weight(TokenKind::Word), 1.0);
        assert_eq!(w.weight(TokenKind::Hashtag), 2.0);
        assert_eq!(w.weight(TokenKind::Mention), 3.0);
        assert_eq!(w.weight(TokenKind::Url), 0.0);
    }

    #[test]
    fn iterator_matches_vec() {
        let input = "a #b @c http://d";
        let collected: Vec<_> = tokens(input).collect();
        assert_eq!(collected, tokenize(input));
    }

    /// `for_each_token` against `tokens(&normalize(..))`, hashed.
    fn assert_walk_matches_split(text: &str, options: NormalizeOptions) {
        let mut streamed = Vec::new();
        for_each_token(text, options, |hash, kind| streamed.push((hash, kind)));
        let normalized = crate::normalize(text, options);
        let split: Vec<_> = tokens(&normalized)
            .map(|t| (crate::fnv1a_64(t.text.as_bytes()), t.kind))
            .collect();
        assert_eq!(streamed, split, "options={options:?} text={text:?}");
    }

    fn options_from_bits(bits: u8) -> NormalizeOptions {
        NormalizeOptions {
            lowercase: bits & 1 != 0,
            collapse_whitespace: bits & 2 != 0,
            strip_non_alphanumeric: bits & 4 != 0,
            keep_social_sigils: bits & 8 != 0,
        }
    }

    #[test]
    fn classification_edges_agree() {
        let texts = [
            "http:// https:// http:/ https:/x http://t.co/x https://e.com",
            "# @ #a @b ## @@ #@ a#b",
            "HTTP://X Https://x İhttp://x",
            "",
            " \u{85}\u{a0}\u{2028}\u{3000}\u{1c}\u{1d}\u{1e}\u{1f} ",
        ];
        for bits in 0..16 {
            for text in texts {
                assert_walk_matches_split(text, options_from_bits(bits));
            }
        }
    }

    /// Text that stresses the walker: URL and sigil prefixes, multi-char
    /// lowercase expansions (İ, ǅ), ß, Unicode whitespace, the ASCII
    /// separators U+001C–U+001F (not `char::is_whitespace`), the Kelvin sign
    /// (lowercases to ASCII `k`), and random code points.
    fn post_text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        const PIECES: &[&str] = &[
            "http://", "https://", "#", "@", "a", "Z", "7", " ", "  ", "\t", "\n", "-", ".", "İ",
            "ǅ", "ß", "é", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", "\u{1c}", "\u{1f}",
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
        proptest::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
    }

    #[test]
    fn walk_hashes_and_classifies_like_split_proptest() {
        use proptest::prelude::*;
        proptest! {
            fn inner(text in post_text(), bits in 0u8..16) {
                assert_walk_matches_split(&text, options_from_bits(bits));
            }
        }
        inner();
    }
}
