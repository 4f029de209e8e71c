//! Simulated URL shortener (t.co stand-in).
//!
//! Tweets carry shortened URLs; re-sharing the same article produces a
//! *different* short code each time (Table 1, row 1 — identical text,
//! different `t.co` tail). The paper tried "expanding shortened URLs" as a
//! preprocessing step (it also showed expanded URLs to the user-study
//! annotators). Expansion needs the shortener's mapping — unavailable
//! offline for real t.co links — so the generator keeps its own registry:
//! every short code it mints resolves back to the canonical article URL,
//! and [`UrlRegistry::expand_urls_in`] rewrites a post the way the paper's
//! preprocessing would.

use std::collections::HashMap;

/// A deterministic short-URL registry.
#[derive(Debug, Clone, Default)]
pub struct UrlRegistry {
    short_to_long: HashMap<String, String>,
    minted: u64,
    seed: u64,
}

const BASE62: &[u8; 62] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

impl UrlRegistry {
    /// An empty registry; codes are deterministic in `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            short_to_long: HashMap::new(),
            minted: 0,
            seed,
        }
    }

    /// Number of short codes minted.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.short_to_long.len()
    }

    /// Mint a fresh short URL for `long` (a new code every call, like a real
    /// shortener shortening the same article twice).
    pub(crate) fn shorten(&mut self, long: &str) -> String {
        self.minted += 1;
        let mut x = self
            .minted
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed);
        // SplitMix-style diffusion so codes look random.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let mut code = String::with_capacity(10);
        for _ in 0..10 {
            code.push(BASE62[(x % 62) as usize] as char);
            x /= 62;
        }
        let short = format!("http://t.co/{code}");
        self.short_to_long.insert(short.clone(), long.to_string());
        short
    }

    /// Resolve a short URL, if this registry minted it.
    pub(crate) fn expand(&self, short: &str) -> Option<&str> {
        self.short_to_long.get(short).map(String::as_str)
    }

    /// Replace every known short URL token in `text` with its long form —
    /// the paper's "expand shortened URLs" preprocessing.
    pub fn expand_urls_in(&self, text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        for (i, token) in text.split_whitespace().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match self.expand(token) {
                Some(long) => out.push_str(long),
                None => out.push_str(token),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorten_and_expand_roundtrip() {
        let mut r = UrlRegistry::new(1);
        let long = "http://news.example/a/42";
        let short = r.shorten(long);
        assert!(short.starts_with("http://t.co/"));
        assert_eq!(r.expand(&short), Some(long));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn same_article_gets_distinct_codes() {
        let mut r = UrlRegistry::new(1);
        let a = r.shorten("http://news.example/a/7");
        let b = r.shorten("http://news.example/a/7");
        assert_ne!(a, b, "re-shortening must mint a new code");
        assert_eq!(r.expand(&a), r.expand(&b));
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = UrlRegistry::new(9);
        let mut b = UrlRegistry::new(9);
        assert_eq!(a.shorten("x"), b.shorten("x"));
        let mut c = UrlRegistry::new(10);
        assert_ne!(a.shorten("x"), c.shorten("x"));
    }

    #[test]
    fn expand_urls_in_text() {
        let mut r = UrlRegistry::new(2);
        let s1 = r.shorten("http://news.example/a/1");
        let s2 = r.shorten("http://news.example/a/1");
        let t1 = format!("breaking story {s1}");
        let t2 = format!("breaking story {s2}");
        assert_ne!(t1, t2);
        // After expansion the two posts become identical.
        assert_eq!(r.expand_urls_in(&t1), r.expand_urls_in(&t2));
        assert!(r.expand_urls_in(&t1).contains("news.example"));
    }

    #[test]
    fn unknown_urls_pass_through() {
        let r = UrlRegistry::new(3);
        let t = "see http://t.co/unknown123 now";
        assert_eq!(r.expand_urls_in(t), t);
    }
}
