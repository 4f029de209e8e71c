//! Abbreviation expansion for microblog text.
//!
//! Section 3 of the paper tried "expanding abbreviations" among the
//! preprocessing variants and found it "had no significant impact to the
//! precision and recall" — the `ablation_preprocessing` benchmark re-runs
//! that comparison. The expander is token-exact (no substring rewriting) and
//! case-insensitive, using a built-in dictionary of common social-media
//! shorthand that can be extended or replaced.

use std::collections::HashMap;

/// Built-in shorthand → expansion table (token-exact, lowercase keys).
pub(crate) const DEFAULT_ABBREVIATIONS: &[(&str, &str)] = &[
    ("2day", "today"),
    ("2moro", "tomorrow"),
    ("2nite", "tonight"),
    ("4ever", "forever"),
    ("abt", "about"),
    ("afaik", "as far as i know"),
    ("b4", "before"),
    ("bc", "because"),
    ("brb", "be right back"),
    ("btw", "by the way"),
    ("cld", "could"),
    ("cuz", "because"),
    ("dm", "direct message"),
    ("fb", "facebook"),
    ("ftw", "for the win"),
    ("fyi", "for your information"),
    ("gr8", "great"),
    ("idk", "i do not know"),
    ("imho", "in my humble opinion"),
    ("imo", "in my opinion"),
    ("irl", "in real life"),
    ("jk", "just kidding"),
    ("l8r", "later"),
    ("lol", "laughing out loud"),
    ("msg", "message"),
    ("nvm", "never mind"),
    ("omg", "oh my god"),
    ("omw", "on my way"),
    ("pls", "please"),
    ("plz", "please"),
    ("ppl", "people"),
    ("rn", "right now"),
    ("rt", "retweet"),
    ("smh", "shaking my head"),
    ("tbh", "to be honest"),
    ("thx", "thanks"),
    ("til", "today i learned"),
    ("tmrw", "tomorrow"),
    ("ttyl", "talk to you later"),
    ("u", "you"),
    ("ur", "your"),
    ("w/", "with"),
    ("w/o", "without"),
    ("wanna", "want to"),
    ("wk", "week"),
    ("wtf", "what the heck"),
    ("yolo", "you only live once"),
    ("yr", "year"),
];

/// A token-exact abbreviation expander.
#[derive(Debug, Clone)]
pub(crate) struct AbbreviationExpander {
    table: HashMap<String, String>,
}

impl AbbreviationExpander {
    /// Expander with the [`DEFAULT_ABBREVIATIONS`] table.
    pub(crate) fn new() -> Self {
        Self::from_pairs(DEFAULT_ABBREVIATIONS.iter().copied())
    }

    /// Expander with a custom table (keys are lowercased).
    pub(crate) fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        Self {
            table: pairs
                .into_iter()
                .map(|(k, v)| (k.to_lowercase(), v.to_string()))
                .collect(),
        }
    }

    /// Expand every whitespace-delimited token that (case-insensitively,
    /// ignoring one trailing `.,!?;:` character) matches a known
    /// abbreviation. Hashtags, mentions and URLs are never rewritten.
    pub(crate) fn expand(&self, text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 16);
        for (i, token) in text.split_whitespace().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if token.starts_with('#') || token.starts_with('@') || token.starts_with("http") {
                out.push_str(token);
                continue;
            }
            // Split one trailing punctuation character off for matching.
            let (stem, tail) = match token.char_indices().next_back() {
                Some((idx, ch)) if ",.!?;:".contains(ch) && idx > 0 => {
                    (&token[..idx], &token[idx..])
                }
                _ => (token, ""),
            };
            match self.table.get(&stem.to_lowercase()) {
                Some(expansion) => {
                    out.push_str(expansion);
                    out.push_str(tail);
                }
                None => out.push_str(token),
            }
        }
        out
    }
}

/// Convenience: expand with the default table.
///
/// ```
/// use firehose_text::expand_abbreviations;
/// assert_eq!(
///     expand_abbreviations("omg u r gr8"),
///     "oh my god you r great"
/// );
/// ```
pub fn expand_abbreviations(text: &str) -> String {
    AbbreviationExpander::new().expand(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_known_tokens() {
        assert_eq!(
            expand_abbreviations("idk tbh"),
            "i do not know to be honest"
        );
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(
            expand_abbreviations("OMG LOL"),
            "oh my god laughing out loud"
        );
    }

    #[test]
    fn trailing_punctuation_preserved() {
        assert_eq!(expand_abbreviations("thx!"), "thanks!");
        assert_eq!(expand_abbreviations("b4, then"), "before, then");
    }

    #[test]
    fn social_tokens_untouched() {
        assert_eq!(
            expand_abbreviations("#lol @u http://t.co/u"),
            "#lol @u http://t.co/u"
        );
    }

    #[test]
    fn unknown_tokens_pass_through() {
        let s = "completely ordinary words";
        assert_eq!(expand_abbreviations(s), s);
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(expand_abbreviations(""), "");
        assert_eq!(expand_abbreviations("   "), "");
    }

    #[test]
    fn custom_table() {
        let e = AbbreviationExpander::from_pairs([("db", "database")]);
        assert_eq!(e.expand("the DB layer"), "the database layer");
        assert_eq!(e.table.len(), 1);
    }

    #[test]
    fn expansion_is_idempotent_for_default_table() {
        // No expansion introduces a token that is itself an abbreviation
        // (single-letter "u" aside, which expands to "you").
        let once = expand_abbreviations("omg pls ttyl 2moro");
        let twice = expand_abbreviations(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn single_punctuation_token_untouched() {
        assert_eq!(expand_abbreviations(". !"), ". !");
    }
}
