//! Deterministic, seeded fault injection.
//!
//! Two fault surfaces matter for a long-running stream diversifier, and
//! this module simulates both reproducibly (same seed ⇒ same faults, so a
//! failing test names its seed and replays exactly):
//!
//! * **Storage** — [`ChaosWriter`] wraps any `io::Write` and applies a
//!   [`FaultPlan`]: truncation at a
//!   chosen byte offset (a torn write: the process believed the bytes were
//!   accepted, the medium never got them) and single-bit flips at chosen
//!   offsets (media corruption). Tests use these to prove checkpoints are
//!   either restored byte-identically or rejected with a typed error —
//!   never misparsed, never a panic.
//! * **Stream** — [`Perturbator`] rewrites a clean post stream into a
//!   hostile one: duplicated ids, dropped posts, bounded timestamp jitter
//!   and clock-skew bursts. The ingest guard's contract tests run every
//!   policy against these.

use std::io::{self, Write};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::post::{Post, Timestamp};

/// What to break, and where. Offsets are absolute byte positions in the
/// wrapped stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stop persisting at this offset: bytes from here on are acknowledged
    /// but never reach the inner writer.
    pub truncate_at: Option<u64>,
    /// `(byte offset, bit index 0..8)` single-bit corruptions.
    pub flips: Vec<(u64, u8)>,
}

impl FaultPlan {
    /// Torn write at `offset`.
    pub fn truncated_at(offset: u64) -> Self {
        Self {
            truncate_at: Some(offset),
            flips: Vec::new(),
        }
    }

    /// A single flipped bit.
    pub fn bit_flip(offset: u64, bit: u8) -> Self {
        Self {
            truncate_at: None,
            flips: vec![(offset, bit)],
        }
    }
}

/// An `io::Write` that applies a [`FaultPlan`] to everything passing
/// through. After the truncation point it keeps acknowledging writes (and
/// `flush`) without forwarding a byte — exactly what a crash between
/// page-cache acceptance and media persistence looks like.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    plan: FaultPlan,
    pos: u64,
    torn: bool,
}

impl<W: Write> ChaosWriter<W> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            pos: 0,
            torn: false,
        }
    }

    /// True once the truncation point has been crossed.
    #[cfg(test)]
    pub(crate) fn torn(&self) -> bool {
        self.torn
    }

    /// Bytes the caller believes it wrote (≥ bytes actually forwarded).
    #[cfg(test)]
    pub(crate) fn acknowledged(&self) -> u64 {
        self.pos
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.pos;
        let end = start + buf.len() as u64;
        self.pos = end;
        if self.torn {
            return Ok(buf.len());
        }
        let mut data = buf.to_vec();
        for &(offset, bit) in &self.plan.flips {
            if (start..end).contains(&offset) {
                data[(offset - start) as usize] ^= 1 << (bit & 7);
            }
        }
        if let Some(t) = self.plan.truncate_at {
            if t < end {
                let keep = t.saturating_sub(start) as usize;
                self.inner.write_all(&data[..keep])?;
                self.torn = true;
                return Ok(buf.len());
            }
        }
        self.inner.write_all(&data)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.torn {
            return Ok(());
        }
        self.inner.flush()
    }
}

/// Deterministic stream perturbation: turns a clean, ordered post stream
/// into the hostile firehose the ingest guard exists for. All rates are
/// probabilities in `[0, 1]`; zero disables that fault class.
#[derive(Debug, Clone, Copy)]
pub struct Perturbator {
    /// RNG seed; the entire perturbation is a pure function of
    /// `(seed, input)`.
    pub seed: u64,
    /// Probability a post is re-emitted with the same id (producer retry).
    pub dup_rate: f64,
    /// Probability a post is silently dropped.
    pub drop_rate: f64,
    /// Maximum backwards timestamp jitter in ms (late delivery); each post
    /// may arrive with its timestamp pushed back by up to this much.
    pub reorder_ms: Timestamp,
    /// Clock-skew bursts: when non-zero, short runs of consecutive posts
    /// have their timestamps shifted back by this many ms (a producer with
    /// a wrong clock).
    pub skew_ms: Timestamp,
}

impl Perturbator {
    /// A perturbator with the given seed and every fault class disabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            dup_rate: 0.0,
            drop_rate: 0.0,
            reorder_ms: 0,
            skew_ms: 0,
        }
    }

    /// Set the duplicate rate.
    pub fn with_dup_rate(mut self, p: f64) -> Self {
        self.dup_rate = p;
        self
    }

    /// Set the drop rate.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Set the maximum backwards jitter.
    pub fn with_reorder_ms(mut self, ms: Timestamp) -> Self {
        self.reorder_ms = ms;
        self
    }

    /// Set the clock-skew burst shift.
    pub fn with_skew_ms(mut self, ms: Timestamp) -> Self {
        self.skew_ms = ms;
        self
    }

    /// Apply the perturbation. Deterministic: calling twice with the same
    /// input yields byte-identical output.
    pub fn perturb(&self, posts: &[Post]) -> Vec<Post> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(posts.len());
        let mut skew_left = 0u32;
        for post in posts {
            if self.drop_rate > 0.0 && rng.random_bool(self.drop_rate) {
                continue;
            }
            let mut p = post.clone();
            if self.skew_ms > 0 {
                if skew_left == 0 && rng.random_bool(0.02) {
                    skew_left = rng.random_range(2..=8u32);
                }
                if skew_left > 0 {
                    skew_left -= 1;
                    p.timestamp = p.timestamp.saturating_sub(self.skew_ms);
                }
            }
            if self.reorder_ms > 0 {
                p.timestamp = p
                    .timestamp
                    .saturating_sub(rng.random_range(0..=self.reorder_ms));
            }
            out.push(p.clone());
            if self.dup_rate > 0.0 && rng.random_bool(self.dup_rate) {
                // A retry: same id and content, delivered a moment later.
                let mut dup = p;
                dup.timestamp = dup.timestamp.saturating_add(1);
                out.push(dup);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_writer_truncates_exactly() {
        let mut sink = Vec::new();
        {
            let mut w = ChaosWriter::new(&mut sink, FaultPlan::truncated_at(5));
            w.write_all(b"hello world").unwrap();
            w.write_all(b"more").unwrap();
            w.flush().unwrap();
            assert!(w.torn());
            assert_eq!(w.acknowledged(), 15);
        }
        assert_eq!(sink, b"hello");
    }

    #[test]
    fn chaos_writer_flips_chosen_bit() {
        let mut sink = Vec::new();
        {
            let mut w = ChaosWriter::new(&mut sink, FaultPlan::bit_flip(1, 0));
            // Split writes so the flip offset straddles a write boundary.
            w.write_all(b"a").unwrap();
            w.write_all(b"bc").unwrap();
        }
        assert_eq!(sink, [b'a', b'b' ^ 1, b'c']);
    }

    #[test]
    fn chaos_writer_no_plan_is_transparent() {
        let mut sink = Vec::new();
        ChaosWriter::new(&mut sink, FaultPlan::default())
            .write_all(b"payload")
            .unwrap();
        assert_eq!(sink, b"payload");
    }

    #[test]
    fn perturbator_is_deterministic() {
        let posts: Vec<Post> = (0..100)
            .map(|i| Post::new(i, 0, 1_000 + i * 200, format!("body {i}")))
            .collect();
        let p = Perturbator::new(42)
            .with_dup_rate(0.1)
            .with_drop_rate(0.05)
            .with_reorder_ms(500)
            .with_skew_ms(10_000);
        assert_eq!(p.perturb(&posts), p.perturb(&posts));
        // Different seeds diverge (overwhelmingly likely for 100 posts).
        assert_ne!(
            p.perturb(&posts),
            Perturbator { seed: 43, ..p }.perturb(&posts)
        );
    }

    #[test]
    fn perturbator_injects_each_fault_class() {
        let posts: Vec<Post> = (0..500)
            .map(|i| Post::new(i, 0, 100_000 + i * 100, "steady".into()))
            .collect();
        let out = Perturbator::new(7)
            .with_dup_rate(0.2)
            .with_drop_rate(0.1)
            .with_reorder_ms(1_000)
            .perturb(&posts);
        let dups = out.len() as i64
            - out
                .iter()
                .map(|p| p.id)
                .collect::<std::collections::HashSet<_>>()
                .len() as i64;
        assert!(dups > 0, "expected duplicated ids");
        assert!(
            out.iter()
                .map(|p| p.id)
                .collect::<std::collections::HashSet<_>>()
                .len()
                < 500,
            "expected drops"
        );
        assert!(
            !crate::is_time_ordered(&out),
            "expected out-of-order arrivals"
        );
    }
}
