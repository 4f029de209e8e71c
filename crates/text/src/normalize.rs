//! Text normalization for social posts.
//!
//! The paper (Section 3, Figure 4) normalizes tweet text before SimHash by
//! (a) lowercasing, (b) collapsing runs of whitespace, and (c) removing
//! non-alphanumeric characters. This raises both precision and recall of the
//! Hamming-distance redundancy test, with the precision/recall curves crossing
//! at distance 18 (the paper's default `λc`).

/// Options controlling [`normalize`].
///
/// The defaults correspond exactly to the preprocessing used for Figure 4 of
/// the paper. Each step can be disabled to reproduce the "raw text" setting of
/// Figure 3 or to experiment with intermediate pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalizeOptions {
    /// Map all alphabetic characters to lowercase.
    pub lowercase: bool,
    /// Replace every run of whitespace with a single ASCII space and trim the
    /// ends.
    pub collapse_whitespace: bool,
    /// Drop characters that are neither alphanumeric nor whitespace
    /// (`*`, `,`, `-`, `+`, `/`, quotes, emoji, ...).
    pub strip_non_alphanumeric: bool,
    /// Keep `#` and `@` sigils even when stripping punctuation, so hashtags
    /// and mentions survive normalization as distinct tokens. The paper's
    /// pipeline removes them; the option exists for the token-weighting
    /// experiments.
    pub keep_social_sigils: bool,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        Self {
            lowercase: true,
            collapse_whitespace: true,
            strip_non_alphanumeric: true,
            keep_social_sigils: false,
        }
    }
}

impl NormalizeOptions {
    /// The identity pipeline: returns the input unchanged (Figure 3 setting).
    pub fn raw() -> Self {
        Self {
            lowercase: false,
            collapse_whitespace: false,
            strip_non_alphanumeric: false,
            keep_social_sigils: false,
        }
    }

    /// The paper's full normalization pipeline (Figure 4 setting).
    pub fn paper() -> Self {
        Self::default()
    }
}

/// Normalize `text` according to `options`.
///
/// The steps are applied in one pass: character classification first (strip /
/// keep), then case mapping, then whitespace collapsing. Unicode alphanumerics
/// are kept, matching Java's `Character.isLetterOrDigit` semantics used by the
/// original implementation.
///
/// ```
/// use firehose_text::{normalize, NormalizeOptions};
/// let s = normalize("Over 300  people MISSING!!  (Reuters)", NormalizeOptions::paper());
/// assert_eq!(s, "over 300 people missing reuters");
/// ```
pub fn normalize(text: &str, options: NormalizeOptions) -> String {
    let mut out = String::with_capacity(text.len());
    walk(text, options, &mut out);
    out
}

/// Where [`walk`] writes the normalized text.
pub(crate) trait Sink {
    /// Append `ch`.
    fn put(&mut self, ch: char);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, ch: char) {
        self.push(ch);
    }
}

/// Feed the characters of `normalize(text, options)` to `sink`, in order,
/// without building the string.
pub(crate) fn walk<S: Sink>(text: &str, options: NormalizeOptions, sink: &mut S) {
    let mut pending_space = false;
    let mut emitted_any = false;

    // One shared state machine, fed per-byte for ASCII (the overwhelming
    // bulk of post text — table-free class checks and the +0x20 case map)
    // and per-char for everything else. Both feeders apply identical rules,
    // so the output is byte-for-byte what the all-chars loop produced.
    macro_rules! step {
        ($ch:expr, $is_ws:expr, $is_alnum:expr, $push_lower:expr) => {{
            let ch = $ch;
            if $is_ws {
                if options.collapse_whitespace {
                    pending_space = true;
                } else {
                    sink.put(ch);
                }
            } else {
                let keep = if options.strip_non_alphanumeric {
                    $is_alnum || (options.keep_social_sigils && (ch == '#' || ch == '@'))
                } else {
                    true
                };
                if !keep {
                    // A stripped character still separates words: "foo-bar"
                    // must not collapse into the single token "foobar".
                    if options.collapse_whitespace {
                        pending_space = true;
                    } else {
                        sink.put(' ');
                    }
                } else {
                    if pending_space && emitted_any {
                        sink.put(' ');
                    }
                    pending_space = false;
                    emitted_any = true;
                    if options.lowercase {
                        $push_lower;
                    } else {
                        sink.put(ch);
                    }
                }
            }
        }};
    }

    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b < 0x80 {
            i += 1;
            step!(
                char::from(b),
                // The ASCII subset of the White_Space property.
                matches!(b, b'\t'..=b'\r' | b' '),
                b.is_ascii_alphanumeric(),
                sink.put(char::from(b.to_ascii_lowercase()))
            );
        } else {
            // Multi-byte scalar: decode and run the general Unicode rules.
            let ch = text[i..].chars().next().expect("valid UTF-8 boundary");
            i += ch.len_utf8();
            step!(
                ch,
                ch.is_whitespace(),
                ch.is_alphanumeric(),
                ch.to_lowercase().for_each(|lc| sink.put(lc))
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-optimization all-chars loop, kept as the reference the
    /// byte-wise fast path must reproduce exactly.
    fn normalize_reference(text: &str, options: NormalizeOptions) -> String {
        let mut out = String::with_capacity(text.len());
        let mut pending_space = false;
        let mut emitted_any = false;
        for ch in text.chars() {
            if ch.is_whitespace() {
                if options.collapse_whitespace {
                    pending_space = true;
                } else {
                    out.push(ch);
                }
                continue;
            }
            let keep = if options.strip_non_alphanumeric {
                ch.is_alphanumeric() || (options.keep_social_sigils && (ch == '#' || ch == '@'))
            } else {
                true
            };
            if !keep {
                if options.collapse_whitespace {
                    pending_space = true;
                } else {
                    out.push(' ');
                }
                continue;
            }
            if pending_space && emitted_any {
                out.push(' ');
            }
            pending_space = false;
            emitted_any = true;
            if options.lowercase {
                for lc in ch.to_lowercase() {
                    out.push(lc);
                }
            } else {
                out.push(ch);
            }
        }
        out
    }

    fn all_option_combos() -> Vec<NormalizeOptions> {
        let mut combos = Vec::new();
        for lowercase in [false, true] {
            for collapse_whitespace in [false, true] {
                for strip_non_alphanumeric in [false, true] {
                    for keep_social_sigils in [false, true] {
                        combos.push(NormalizeOptions {
                            lowercase,
                            collapse_whitespace,
                            strip_non_alphanumeric,
                            keep_social_sigils,
                        });
                    }
                }
            }
        }
        combos
    }

    #[test]
    fn fast_path_matches_reference_on_adversarial_inputs() {
        let inputs = [
            "",
            "   ",
            "plain ascii words",
            "MiXeD CaSe!! 123",
            "tabs\tand\nnewlines\r\nhere",
            "\u{0b}vertical\u{0c}feeds",
            "Ünïcödé MIXED ascii ÅÄÖ",
            "İstanbul DŽungla ǅ", // multi-char lowercase expansions
            "emoji 🔥🔥 and #tags @user",
            "ends with space ",
            " starts stripped *hello*",
            "ß sharp s", // lowercase of ß is itself
            "\u{00a0}nbsp\u{2028}separators\u{3000}",
            "ascii-then-ünicode-then-ascii",
            "#@#@",
        ];
        for options in all_option_combos() {
            for input in inputs {
                assert_eq!(
                    normalize(input, options),
                    normalize_reference(input, options),
                    "options={options:?} input={input:?}"
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_proptest() {
        use proptest::prelude::*;
        proptest! {
            fn inner(text in ".{0,60}") {
                for options in all_option_combos() {
                    prop_assert_eq!(
                        normalize(&text, options),
                        normalize_reference(&text, options)
                    );
                }
            }
        }
        inner();
    }

    #[test]
    fn paper_pipeline_lowercases() {
        assert_eq!(
            normalize("HeLLo World", NormalizeOptions::paper()),
            "hello world"
        );
    }

    #[test]
    fn paper_pipeline_collapses_whitespace() {
        assert_eq!(
            normalize("a  b\t\tc\nd", NormalizeOptions::paper()),
            "a b c d"
        );
    }

    #[test]
    fn paper_pipeline_strips_punctuation() {
        assert_eq!(
            normalize(
                "wow*, really-great +stuff/ here!",
                NormalizeOptions::paper()
            ),
            "wow really great stuff here"
        );
    }

    #[test]
    fn stripped_chars_act_as_separators() {
        assert_eq!(normalize("foo-bar", NormalizeOptions::paper()), "foo bar");
        assert_eq!(normalize("a.b.c", NormalizeOptions::paper()), "a b c");
    }

    #[test]
    fn leading_and_trailing_junk_trimmed() {
        assert_eq!(
            normalize("  ...hello...  ", NormalizeOptions::paper()),
            "hello"
        );
    }

    #[test]
    fn raw_pipeline_is_identity() {
        let s = "Exact *SAME*  bytes\n";
        assert_eq!(normalize(s, NormalizeOptions::raw()), s);
    }

    #[test]
    fn sigils_dropped_by_default() {
        assert_eq!(
            normalize("#quote by @bill", NormalizeOptions::paper()),
            "quote by bill"
        );
    }

    #[test]
    fn sigils_kept_when_requested() {
        let opts = NormalizeOptions {
            keep_social_sigils: true,
            ..NormalizeOptions::paper()
        };
        assert_eq!(normalize("#quote by @Bill", opts), "#quote by @bill");
    }

    #[test]
    fn unicode_alphanumerics_survive() {
        assert_eq!(
            normalize("Ünïcödé 123", NormalizeOptions::paper()),
            "ünïcödé 123"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(normalize("", NormalizeOptions::paper()), "");
        assert_eq!(normalize("   ", NormalizeOptions::paper()), "");
        assert_eq!(normalize("***", NormalizeOptions::paper()), "");
    }

    #[test]
    fn normalization_is_idempotent() {
        let inputs = [
            "Mixed CASE  with -- punctuation!!",
            "already normal",
            "#tag @user http://x",
        ];
        for input in inputs {
            let once = normalize(input, NormalizeOptions::paper());
            let twice = normalize(&once, NormalizeOptions::paper());
            assert_eq!(once, twice, "not idempotent for {input:?}");
        }
    }

    #[test]
    fn tweet_pair_from_table1_normalizes_identically_modulo_url() {
        // Table 1, row 1: same text up to the shortened URL.
        let a = "Over 300 people missing after South Korean ferry sinks. (Reuters) Story: http://t.co/9w2JrurhKm";
        let b = "Over 300 people missing after South Korean ferry sinks. (Reuters) Story: http://t.co/E1vKp9JJfe";
        let na = normalize(a, NormalizeOptions::paper());
        let nb = normalize(b, NormalizeOptions::paper());
        // Identical prefix, differing only in the URL id tokens.
        let shared: usize = na
            .bytes()
            .zip(nb.bytes())
            .take_while(|(x, y)| x == y)
            .count();
        assert!(shared > 70, "shared prefix only {shared} bytes");
        assert_ne!(na, nb);
    }
}
