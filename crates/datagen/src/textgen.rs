//! Tweet text generation and near-duplicate mutation.
//!
//! Base tweets are 6–18 tokens drawn Zipf-style from a synthetic vocabulary,
//! with occasional hashtags, mentions and shortened URLs — the token mix that
//! makes microblog fingerprinting harder than web pages (Section 1/3).
//!
//! Near-duplicates are produced by [`MutationClass`]es modeled on the
//! paper's Table 1 examples:
//!
//! * row 1 — identical text, different t.co URL → [`MutationClass::ReshortenUrl`];
//! * row 2 — quotes/punctuation dropped, attribution + hashtags appended →
//!   [`MutationClass::PunctuationAndCase`], [`MutationClass::AppendSuffix`];
//! * row 3 — truncation with ellipsis and a new URL →
//!   [`MutationClass::TruncateWithEllipsis`];
//! * plus light word substitution ([`MutationClass::WordSwap`]), the "weak
//!   near-duplicate" class of Tao et al. \[21\].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::samplers::Zipf;
use crate::urls::UrlRegistry;

/// Configuration for [`TextGen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextGenConfig {
    /// Vocabulary size (distinct word stems).
    pub vocabulary: usize,
    /// Zipf exponent of word frequencies.
    pub zipf_exponent: f64,
    /// Minimum tokens per base tweet.
    pub min_tokens: usize,
    /// Maximum tokens per base tweet.
    pub max_tokens: usize,
    /// Probability a tweet carries a URL token.
    pub url_prob: f64,
    /// Probability a tweet carries a hashtag.
    pub hashtag_prob: f64,
    /// Probability a tweet carries a mention.
    pub mention_prob: f64,
}

impl Default for TextGenConfig {
    fn default() -> Self {
        // The vocabulary/exponent/length mix is tuned so that *random* tweet
        // pairs reproduce Figure 2: SimHash distances normal around 32 with
        // only a thin tail below the λc = 18 threshold. Shorter tweets or a
        // steeper Zipf head would fatten that tail and make unrelated posts
        // "cover" each other, which the paper's real tweets do not do.
        Self {
            vocabulary: 50_000,
            zipf_exponent: 0.75,
            min_tokens: 10,
            max_tokens: 18,
            url_prob: 0.35,
            hashtag_prob: 0.25,
            mention_prob: 0.15,
        }
    }
}

/// The Table 1 near-duplicate mutation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// Replace the tweet's URL (or append one) with a fresh shortened URL.
    ReshortenUrl,
    /// Randomize casing and inject/remove punctuation; normalization-stable.
    PunctuationAndCase,
    /// Append an attribution / hashtag suffix ("- Bill Cosby #quote").
    AppendSuffix,
    /// Keep a prefix, end with "..." and a fresh URL (retweet-app style).
    TruncateWithEllipsis,
    /// Replace one or two non-leading words.
    WordSwap,
}

impl MutationClass {
    /// All classes.
    pub const ALL: [MutationClass; 5] = [
        MutationClass::ReshortenUrl,
        MutationClass::PunctuationAndCase,
        MutationClass::AppendSuffix,
        MutationClass::TruncateWithEllipsis,
        MutationClass::WordSwap,
    ];
}

/// Deterministic tweet generator.
#[derive(Debug)]
pub struct TextGen {
    config: TextGenConfig,
    zipf: Zipf,
    rng: StdRng,
    /// Short-URL registry: every minted `t.co` code resolves to a canonical
    /// article URL, so the "expand shortened URLs" preprocessing can be
    /// simulated (see [`crate::urls`]).
    urls: UrlRegistry,
    /// Articles minted so far (canonical URL ids).
    articles: u64,
}

const SYLLABLES: [&str; 20] = [
    "ba", "re", "mi", "to", "sa", "lu", "ke", "no", "vi", "da", "po", "che", "ri", "ma", "su",
    "te", "lo", "ni", "ga", "fe",
];

/// Deterministic pseudo-word for vocabulary index `i` (3–5 syllables, so
/// words are distinct across the index range and look vaguely natural).
pub(crate) fn word(i: usize) -> String {
    let mut x = i;
    let mut w = String::new();
    let syllables = 3 + (i % 3);
    for _ in 0..syllables {
        w.push_str(SYLLABLES[x % SYLLABLES.len()]);
        x = x / SYLLABLES.len() + i / 7 + 1;
    }
    w
}

impl TextGen {
    /// New generator with the given config and seed.
    pub fn new(config: TextGenConfig, seed: u64) -> Self {
        assert!(config.min_tokens >= 2, "tweets need at least two tokens");
        assert!(
            config.max_tokens >= config.min_tokens,
            "max_tokens < min_tokens"
        );
        let zipf = Zipf::new(config.vocabulary, config.zipf_exponent);
        Self {
            config,
            zipf,
            rng: StdRng::seed_from_u64(seed),
            urls: UrlRegistry::new(seed ^ 0x0051),
            articles: 0,
        }
    }

    /// The registry resolving every short URL this generator minted.
    pub(crate) fn url_registry(&self) -> &UrlRegistry {
        &self.urls
    }

    /// Shorten a brand-new article.
    fn shortened_url(&mut self) -> String {
        self.articles += 1;
        let long = format!("http://news.example/article/{}", self.articles);
        self.urls.shorten(&long)
    }

    /// A fresh short code for the same article `existing` points at (what a
    /// retweet app does), or a new article when the token is unknown.
    fn reshorten(&mut self, existing: &str) -> String {
        match self.urls.expand(existing).map(str::to_string) {
            Some(long) => self.urls.shorten(&long),
            None => self.shortened_url(),
        }
    }

    /// Generate a fresh base tweet.
    pub fn base_tweet(&mut self) -> String {
        let n = self
            .rng
            .random_range(self.config.min_tokens..=self.config.max_tokens);
        let mut tokens: Vec<String> = Vec::with_capacity(n + 3);
        for _ in 0..n {
            tokens.push(word(self.zipf.sample(&mut self.rng)));
        }
        if self.rng.random_bool(self.config.hashtag_prob) {
            let tag = word(self.zipf.sample(&mut self.rng));
            tokens.push(format!("#{tag}"));
        }
        if self.rng.random_bool(self.config.mention_prob) {
            let who = word(self.zipf.sample(&mut self.rng));
            tokens.push(format!("@{who}"));
        }
        if self.rng.random_bool(self.config.url_prob) {
            let url = self.shortened_url();
            tokens.push(url);
        }
        tokens.join(" ")
    }

    /// Produce a near-duplicate of `text` using `class`.
    pub fn mutate(&mut self, text: &str, class: MutationClass) -> String {
        match class {
            MutationClass::ReshortenUrl => {
                // Re-shorten the first URL to a fresh code for the *same*
                // article; append a new article link when there is none.
                let first_url = text
                    .split_whitespace()
                    .find(|t| t.starts_with("http"))
                    .map(str::to_string);
                match first_url {
                    Some(old) => {
                        let fresh = self.reshorten(&old);
                        text.split_whitespace()
                            .map(|t| if t == old { fresh.as_str() } else { t })
                            .collect::<Vec<_>>()
                            .join(" ")
                    }
                    None => {
                        let fresh = self.shortened_url();
                        format!("{text} {fresh}")
                    }
                }
            }
            MutationClass::PunctuationAndCase => {
                let mut out = String::with_capacity(text.len() + 8);
                for tok in text.split_whitespace() {
                    if !out.is_empty() {
                        // Occasionally double the separator.
                        out.push(' ');
                        if self.rng.random_bool(0.1) {
                            out.push(' ');
                        }
                    }
                    if tok.starts_with("http") {
                        out.push_str(tok);
                        continue;
                    }
                    let upper = self.rng.random_bool(0.2);
                    for ch in tok.chars() {
                        if upper {
                            out.extend(ch.to_uppercase());
                        } else {
                            out.push(ch);
                        }
                    }
                    match self.rng.random_range(0..10) {
                        0 => out.push(','),
                        1 => out.push('.'),
                        2 => out.push('!'),
                        _ => {}
                    }
                }
                out
            }
            MutationClass::AppendSuffix => {
                let who = word(self.rng.random_range(0..self.config.vocabulary));
                let tag = word(self.rng.random_range(0..self.config.vocabulary));
                format!("{text} - {who} #{tag}")
            }
            MutationClass::TruncateWithEllipsis => {
                let tokens: Vec<&str> = text.split_whitespace().collect();
                let keep = (tokens.len() * 3 / 4).max(2);
                let url = self.shortened_url();
                format!("{}... {url}", tokens[..keep].join(" "))
            }
            MutationClass::WordSwap => {
                let mut tokens: Vec<String> = text.split_whitespace().map(str::to_string).collect();
                let swaps = if tokens.len() > 8 { 2 } else { 1 };
                for _ in 0..swaps {
                    let i = self.rng.random_range(1..tokens.len());
                    if !tokens[i].starts_with("http") {
                        tokens[i] = word(self.zipf.sample(&mut self.rng));
                    }
                }
                tokens.join(" ")
            }
        }
    }

    /// A random mutation class (for workload duplicate injection).
    pub(crate) fn random_class(&mut self) -> MutationClass {
        MutationClass::ALL[self.rng.random_range(0..MutationClass::ALL.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_simhash::{hamming_distance, simhash, SimHashOptions};
    use firehose_text::cosine_similarity;
    use firehose_text::{normalize, NormalizeOptions};

    fn gen() -> TextGen {
        TextGen::new(TextGenConfig::default(), 42)
    }

    #[test]
    fn words_are_distinct_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000 {
            let w = word(i);
            assert!(!w.is_empty());
            seen.insert(w);
        }
        // Some collisions are tolerable; most words must be distinct.
        assert!(seen.len() > 4_000, "only {} distinct words", seen.len());
    }

    #[test]
    fn base_tweets_have_token_budget() {
        let mut g = gen();
        for _ in 0..100 {
            let t = g.base_tweet();
            let n = t.split_whitespace().count();
            assert!((6..=21).contains(&n), "token count {n}: {t}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = TextGen::new(TextGenConfig::default(), 9);
        let mut b = TextGen::new(TextGenConfig::default(), 9);
        for _ in 0..20 {
            assert_eq!(a.base_tweet(), b.base_tweet());
        }
    }

    #[test]
    fn mutations_stay_close_in_simhash() {
        let mut g = gen();
        let opts = SimHashOptions::paper();
        let mut total = 0u32;
        let mut count = 0u32;
        for _ in 0..60 {
            let base = g.base_tweet();
            for class in MutationClass::ALL {
                let m = g.mutate(&base, class);
                let d = hamming_distance(simhash(&base, opts), simhash(&m, opts));
                total += d;
                count += 1;
            }
        }
        let mean = total as f64 / count as f64;
        assert!(
            mean <= 12.0,
            "mutations drift too far: mean Hamming {mean:.1}"
        );
    }

    #[test]
    fn unrelated_tweets_are_far_in_simhash() {
        let mut g = gen();
        let opts = SimHashOptions::paper();
        // Figure 2: random pairs concentrate around distance 32, with the
        // bulk between 24 and 40 — a minority dips lower (Zipf-frequent
        // words shared by chance), which is exactly how the paper could
        // collect random pairs at distances 3..=22 at all.
        let mut far = 0;
        let mut total = 0u32;
        let n = 60;
        for _ in 0..n {
            let a = g.base_tweet();
            let b = g.base_tweet();
            let d = hamming_distance(simhash(&a, opts), simhash(&b, opts));
            total += d;
            if d > 20 {
                far += 1;
            }
        }
        let mean = f64::from(total) / f64::from(n);
        assert!(
            far * 5 >= n * 4,
            "only {far}/{n} unrelated pairs beyond distance 20"
        );
        assert!(
            (25.0..40.0).contains(&mean),
            "mean random-pair distance {mean:.1}"
        );
    }

    #[test]
    fn reshorten_url_changes_only_url() {
        let mut g = gen();
        let base = "alpha beta gamma http://t.co/oldoldold1";
        let m = g.mutate(base, MutationClass::ReshortenUrl);
        assert!(m.starts_with("alpha beta gamma http://t.co/"));
        assert_ne!(m, base);
    }

    #[test]
    fn reshorten_url_appends_when_absent() {
        let mut g = gen();
        let m = g.mutate("no url here", MutationClass::ReshortenUrl);
        assert!(m.contains("http://t.co/"));
    }

    #[test]
    fn punctuation_mutation_is_normalization_stable() {
        let mut g = gen();
        let base = "steady words without links involved";
        let m = g.mutate(base, MutationClass::PunctuationAndCase);
        assert_eq!(
            normalize(&m, NormalizeOptions::paper()),
            normalize(base, NormalizeOptions::paper()),
        );
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut g = gen();
        let base = "one two three four five six seven eight";
        let m = g.mutate(base, MutationClass::TruncateWithEllipsis);
        assert!(m.starts_with("one two three four five six"));
        assert!(m.contains("..."));
        assert!(m.contains("http://t.co/"));
    }

    #[test]
    fn word_swap_preserves_most_content() {
        let mut g = gen();
        let base = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10";
        let m = g.mutate(base, MutationClass::WordSwap);
        assert!(cosine_similarity(base, &m) >= 0.7, "{m}");
        assert!(m.starts_with("w1 "), "leading word preserved");
    }

    #[test]
    fn append_suffix_keeps_base() {
        let mut g = gen();
        let base = "quotable wisdom of the day";
        let m = g.mutate(base, MutationClass::AppendSuffix);
        assert!(m.starts_with(base));
        assert!(m.contains('#'));
    }
}
