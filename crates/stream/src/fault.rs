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

/// What a thread-level chaos fault does to the shard worker it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The worker panics (unwinds) mid-request, as a logic bug would.
    Panic,
    /// The worker stops making progress without dying: it keeps its rings
    /// open but handles no further requests until abandoned. Exercises the
    /// watchdog path rather than the panic path.
    Stall,
}

/// One scheduled thread-level fault: after the worker has handled
/// `after_requests` requests in its current lifetime, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Which shard the fault targets.
    pub shard: usize,
    /// Requests (offers, sweeps, deploys, …) the worker handles before the
    /// fault fires. Counted per worker lifetime, so a respawned worker
    /// starts its count at zero.
    pub after_requests: u64,
    /// What happens when the threshold is reached.
    pub kind: ShardFaultKind,
}

/// A deterministic schedule of thread-level shard faults. Each fault is
/// consumed by one worker lifetime: when a shard (re)spawns, it takes the
/// next pending fault for its index; once the queue drains, the shard runs
/// clean forever. Same plan ⇒ same kills, so a failing chaos run names its
/// seed and replays exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardFaultPlan {
    /// Scheduled faults, consumed in order per shard.
    pub faults: Vec<ShardFault>,
}

impl ShardFaultPlan {
    /// No faults: every worker runs clean.
    pub fn none() -> Self {
        Self::default()
    }

    /// A single scheduled fault.
    pub fn single(shard: usize, after_requests: u64, kind: ShardFaultKind) -> Self {
        Self {
            faults: vec![ShardFault {
                shard,
                after_requests,
                kind,
            }],
        }
    }

    /// Append a fault to the schedule.
    pub fn then(mut self, shard: usize, after_requests: u64, kind: ShardFaultKind) -> Self {
        self.faults.push(ShardFault {
            shard,
            after_requests,
            kind,
        });
        self
    }

    /// A deterministic pseudo-random schedule of `kills` panics spread over
    /// `shards` workers, each firing after a threshold drawn from
    /// `1..=max_after` requests. Pure function of the arguments.
    pub fn seeded(seed: u64, shards: usize, kills: usize, max_after: u64) -> Self {
        Self::seeded_after(seed, shards, kills, 1, max_after)
    }

    /// [`seeded`](Self::seeded) with a floor: thresholds are drawn from
    /// `min_after..=max_after`. Engine deploys count toward a worker's
    /// request total, so harnesses that want kills to land mid-*stream*
    /// (not during the initial deploy wave) set `min_after` above the
    /// per-shard engine count.
    pub(crate) fn seeded_after(
        seed: u64,
        shards: usize,
        kills: usize,
        min_after: u64,
        max_after: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let min_after = min_after.max(1);
        let max_after = max_after.max(min_after);
        let faults = (0..kills)
            .map(|_| ShardFault {
                shard: rng.random_range(0..shards.max(1) as u64) as usize,
                after_requests: rng.random_range(min_after..=max_after),
                kind: ShardFaultKind::Panic,
            })
            .collect();
        Self { faults }
    }

    /// Number of scheduled faults targeting `shard`.
    #[cfg(test)]
    pub(crate) fn count_for(&self, shard: usize) -> usize {
        self.faults.iter().filter(|f| f.shard == shard).count()
    }

    /// True when no faults are scheduled.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
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
    fn shard_fault_plans_are_deterministic_and_in_range() {
        for seed in 0..20u64 {
            let a = ShardFaultPlan::seeded(seed, 4, 10, 100);
            assert_eq!(a, ShardFaultPlan::seeded(seed, 4, 10, 100));
            assert_eq!(a.faults.len(), 10);
            for f in &a.faults {
                assert!(f.shard < 4);
                assert!((1..=100).contains(&f.after_requests));
                assert_eq!(f.kind, ShardFaultKind::Panic);
            }
        }
        let plan = ShardFaultPlan::seeded(1, 2, 8, 50);
        assert_eq!(plan.count_for(0) + plan.count_for(1), 8);
        assert!(ShardFaultPlan::none().is_empty());
        let built =
            ShardFaultPlan::single(0, 3, ShardFaultKind::Stall).then(1, 7, ShardFaultKind::Panic);
        assert_eq!(built.faults.len(), 2);
        assert_eq!(built.count_for(1), 1);
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
