//! Hostile-stream ingest guard.
//!
//! The SPSD engines presuppose a clean firehose: time-ordered arrivals,
//! unique post ids, authors inside the similarity graph, sane text. Real
//! firehoses deliver none of that reliably — late and clock-skewed posts,
//! producer retries that duplicate ids, oversized or empty bodies.
//! [`IngestGuard`] wraps any post source and enforces the engines' input
//! contract under a configurable [`GuardPolicy`]:
//!
//! * **Strict** — any violation quarantines the post;
//! * **Clamp** — out-of-order timestamps are clamped to the release
//!   watermark and oversized text is truncated; only irreparable posts
//!   (duplicates, unknown authors) are quarantined;
//! * **Reorder** — a bounded buffer re-sorts arrivals whose timestamps are
//!   within `bound_ms` of the newest seen; posts later than that are
//!   quarantined as [`RejectReason::TooLate`].
//!
//! Under *every* policy the guard's output is time-ordered and duplicate
//! free, and `admitted + quarantined == offered`. Quarantined posts are
//! counted per reason in [`QuarantineStats`] (exposed to dashboards via
//! `firehose_core::export_guard_stats`), never silently dropped.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::post::{Post, PostId, Timestamp};

/// How the guard treats repairable contract violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Quarantine every violation; admit only posts that already satisfy
    /// the engines' input contract.
    Strict,
    /// Repair what can be repaired in place: clamp out-of-order timestamps
    /// to the release watermark, truncate oversized text. Quarantine the
    /// rest (duplicates, unknown authors).
    Clamp,
    /// Hold arrivals in a bounded reordering buffer and release them in
    /// timestamp order once the input watermark has advanced past
    /// `bound_ms`; quarantine posts arriving later than the bound.
    Reorder {
        /// Maximum tolerated timestamp lag behind the newest arrival (ms).
        bound_ms: Timestamp,
    },
}

impl std::fmt::Display for GuardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardPolicy::Strict => write!(f, "strict"),
            GuardPolicy::Clamp => write!(f, "clamp"),
            GuardPolicy::Reorder { bound_ms } => write!(f, "reorder({bound_ms}ms)"),
        }
    }
}

/// Why a post was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Timestamp older than the release watermark (Strict only; Clamp
    /// repairs it, Reorder buffers it).
    OutOfOrder,
    /// Timestamp lags the input watermark by more than the reorder bound.
    TooLate,
    /// A post with this id was already admitted or is buffered.
    DuplicateId,
    /// Author id outside the configured author universe.
    UnknownAuthor,
    /// Token-free text under [`GuardPolicy::Strict`].
    EmptyText,
    /// Text above `max_text_bytes` under [`GuardPolicy::Strict`].
    OversizedText,
}

impl RejectReason {
    /// Every reason, for iteration over quarantine counters.
    pub const ALL: [RejectReason; 6] = [
        RejectReason::OutOfOrder,
        RejectReason::TooLate,
        RejectReason::DuplicateId,
        RejectReason::UnknownAuthor,
        RejectReason::EmptyText,
        RejectReason::OversizedText,
    ];

    /// Stable snake_case label (metric dimension, JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::OutOfOrder => "out_of_order",
            RejectReason::TooLate => "too_late",
            RejectReason::DuplicateId => "duplicate_id",
            RejectReason::UnknownAuthor => "unknown_author",
            RejectReason::EmptyText => "empty_text",
            RejectReason::OversizedText => "oversized_text",
        }
    }

    fn index(self) -> usize {
        match self {
            RejectReason::OutOfOrder => 0,
            RejectReason::TooLate => 1,
            RejectReason::DuplicateId => 2,
            RejectReason::UnknownAuthor => 3,
            RejectReason::EmptyText => 4,
            RejectReason::OversizedText => 5,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Guard configuration: policy plus the contract bounds it enforces.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Violation-handling policy.
    pub policy: GuardPolicy,
    /// Author universe size (`graph.node_count()`); `None` disables the
    /// unknown-author check.
    pub author_count: Option<u32>,
    /// Maximum admitted text length in bytes. Longer text is quarantined
    /// (Strict) or truncated at a char boundary (Clamp / Reorder).
    pub max_text_bytes: usize,
    /// How long an admitted post id is remembered for duplicate detection,
    /// in stream-time milliseconds behind the release watermark. Producer
    /// retries cluster near the original send, so a λt-sized window
    /// bounds memory without weakening the engines' window semantics.
    pub dedup_window_ms: Timestamp,
}

impl GuardConfig {
    /// Defaults: 8 KiB text bound, 1 h dedup memory, no author check.
    pub fn new(policy: GuardPolicy) -> Self {
        Self {
            policy,
            author_count: None,
            max_text_bytes: 8 * 1024,
            dedup_window_ms: crate::time::hours(1),
        }
    }

    /// Set the author universe size.
    pub fn with_author_count(mut self, count: u32) -> Self {
        self.author_count = Some(count);
        self
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::new(GuardPolicy::Strict)
    }
}

/// Counters for everything the guard did: admissions, per-reason
/// quarantines, in-place repairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Posts released downstream.
    pub admitted: u64,
    /// Quarantined posts, indexed by [`RejectReason::index`].
    quarantined: [u64; 6],
    /// Admitted posts whose timestamp was clamped to the watermark (Clamp).
    pub clamped_timestamps: u64,
    /// Admitted posts whose text was truncated to `max_text_bytes`.
    pub truncated_texts: u64,
    /// Admitted posts that arrived out of order but were re-sorted by the
    /// reorder buffer (Reorder).
    pub reordered: u64,
}

impl QuarantineStats {
    /// Quarantined count for one reason.
    pub(crate) fn count(&self, reason: RejectReason) -> u64 {
        self.quarantined[reason.index()]
    }

    /// Total quarantined posts across all reasons.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.iter().sum()
    }

    /// Total posts offered to the guard (admitted + quarantined + buffered
    /// posts are *not* yet counted — flush before reading for an exact
    /// conservation check).
    pub fn offered(&self) -> u64 {
        self.admitted + self.quarantined_total()
    }

    /// Iterate `(reason, count)` pairs in [`RejectReason::ALL`] order.
    pub fn counts(&self) -> impl Iterator<Item = (RejectReason, u64)> + '_ {
        RejectReason::ALL.iter().map(|&r| (r, self.count(r)))
    }
}

/// The guard itself. Feed posts through [`offer_into`](Self::offer_into),
/// then [`flush_into`](Self::flush_into) at end of stream (a no-op except
/// under [`GuardPolicy::Reorder`], whose buffer may still hold posts).
#[derive(Debug)]
pub struct IngestGuard {
    config: GuardConfig,
    /// Highest input timestamp seen (drives reorder releases).
    input_watermark: Timestamp,
    /// Highest timestamp released downstream (output order floor).
    release_watermark: Timestamp,
    /// Recently admitted/buffered ids → admitted timestamp.
    seen: HashMap<PostId, Timestamp>,
    /// Admission order of `seen` entries, for windowed pruning (release
    /// order is timestamp order, so this deque is sorted by timestamp).
    seen_order: VecDeque<(Timestamp, PostId)>,
    /// Reorder buffer, sorted by (timestamp, id).
    buffer: BTreeMap<(Timestamp, PostId), Post>,
    stats: QuarantineStats,
}

impl IngestGuard {
    /// A guard with the given configuration.
    pub fn new(config: GuardConfig) -> Self {
        Self {
            config,
            input_watermark: 0,
            release_watermark: 0,
            seen: HashMap::new(),
            seen_order: VecDeque::new(),
            buffer: BTreeMap::new(),
            stats: QuarantineStats::default(),
        }
    }

    /// Counters so far. Buffered (not yet released) posts are in neither
    /// the admitted nor the quarantined totals until flushed.
    pub fn stats(&self) -> &QuarantineStats {
        &self.stats
    }

    /// Offer one post. Admitted releases (possibly several under Reorder,
    /// possibly none while the buffer fills) are appended to `out` in
    /// timestamp order. Returns the reject reason if *this* post was
    /// quarantined.
    pub fn offer_into(&mut self, post: Post, out: &mut Vec<Post>) -> Option<RejectReason> {
        let mut post = post;

        // Structural checks apply under every policy.
        if let Some(limit) = self.config.author_count {
            if post.author >= limit {
                return self.reject(RejectReason::UnknownAuthor);
            }
        }
        if self.seen.contains_key(&post.id) {
            return self.reject(RejectReason::DuplicateId);
        }
        if post.text.len() > self.config.max_text_bytes {
            if self.config.policy == GuardPolicy::Strict {
                return self.reject(RejectReason::OversizedText);
            }
            let mut end = self.config.max_text_bytes;
            while !post.text.is_char_boundary(end) {
                end -= 1;
            }
            post.text.truncate(end);
            self.stats.truncated_texts += 1;
        }

        match self.config.policy {
            GuardPolicy::Strict => {
                if post.text.trim().is_empty() {
                    return self.reject(RejectReason::EmptyText);
                }
                if post.timestamp < self.release_watermark {
                    return self.reject(RejectReason::OutOfOrder);
                }
                self.admit(post, out);
                None
            }
            GuardPolicy::Clamp => {
                if post.timestamp < self.release_watermark {
                    post.timestamp = self.release_watermark;
                    self.stats.clamped_timestamps += 1;
                }
                self.admit(post, out);
                None
            }
            GuardPolicy::Reorder { bound_ms } => {
                // Too late to re-sort: admitting would break output order.
                if post.timestamp < self.release_watermark {
                    return self.reject(RejectReason::TooLate);
                }
                if post.timestamp < self.input_watermark {
                    self.stats.reordered += 1;
                }
                self.input_watermark = self.input_watermark.max(post.timestamp);
                // Track buffered ids too, so a retry arriving while the
                // original is still buffered is caught as a duplicate.
                self.seen.insert(post.id, post.timestamp);
                self.buffer.insert((post.timestamp, post.id), post);
                // Release everything settled: older than the bound behind
                // the newest arrival, so no future in-bound post can sort
                // before it.
                let cutoff = self.input_watermark.saturating_sub(bound_ms);
                while let Some(entry) = self.buffer.first_entry() {
                    if entry.key().0 > cutoff {
                        break;
                    }
                    let post = entry.remove();
                    self.release(post, out);
                }
                None
            }
        }
    }

    /// Drain the reorder buffer at end of stream. A no-op under Strict and
    /// Clamp.
    pub fn flush_into(&mut self, out: &mut Vec<Post>) {
        while let Some(entry) = self.buffer.first_entry() {
            let post = entry.remove();
            self.release(post, out);
        }
    }

    fn reject(&mut self, reason: RejectReason) -> Option<RejectReason> {
        self.stats.quarantined[reason.index()] += 1;
        Some(reason)
    }

    /// Strict/Clamp admission: record the id, release immediately.
    fn admit(&mut self, post: Post, out: &mut Vec<Post>) {
        self.seen.insert(post.id, post.timestamp);
        self.release(post, out);
    }

    fn release(&mut self, post: Post, out: &mut Vec<Post>) {
        debug_assert!(post.timestamp >= self.release_watermark);
        self.release_watermark = self.release_watermark.max(post.timestamp);
        self.seen_order.push_back((post.timestamp, post.id));
        self.stats.admitted += 1;
        out.push(post);
        self.prune_seen();
    }

    /// Forget admitted ids older than the dedup window (the deque is in
    /// release = timestamp order, so this is a prefix pop).
    fn prune_seen(&mut self) {
        let cutoff = self
            .release_watermark
            .saturating_sub(self.config.dedup_window_ms);
        while let Some(&(ts, id)) = self.seen_order.front() {
            if ts >= cutoff {
                break;
            }
            self.seen_order.pop_front();
            // Only drop the map entry if it still refers to this admission.
            if self.seen.get(&id) == Some(&ts) {
                self.seen.remove(&id);
            }
        }
    }
}

/// Run a whole in-memory stream through a guard: returns the admitted,
/// time-ordered posts plus the quarantine counters. Convenience for batch
/// callers (CLI, benches); streaming callers drive
/// [`IngestGuard::offer_into`] directly.
pub fn guard_stream(
    config: GuardConfig,
    posts: impl IntoIterator<Item = Post>,
) -> (Vec<Post>, QuarantineStats) {
    let mut guard = IngestGuard::new(config);
    let mut out = Vec::new();
    for post in posts {
        guard.offer_into(post, &mut out);
    }
    guard.flush_into(&mut out);
    (out, guard.stats.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_time_ordered;

    fn post(id: PostId, author: u32, ts: Timestamp) -> Post {
        Post::new(id, author, ts, format!("post body {id}"))
    }

    #[test]
    fn strict_admits_clean_stream_unchanged() {
        let input: Vec<Post> = (0..10).map(|i| post(i, 0, i * 1_000)).collect();
        let (out, stats) = guard_stream(GuardConfig::default(), input.clone());
        assert_eq!(out, input);
        assert_eq!(stats.admitted, 10);
        assert_eq!(stats.quarantined_total(), 0);
    }

    #[test]
    fn strict_quarantines_each_violation_kind() {
        let config = GuardConfig {
            max_text_bytes: 16,
            ..GuardConfig::default().with_author_count(4)
        };
        let mut guard = IngestGuard::new(config);
        let mut out = Vec::new();
        assert_eq!(guard.offer_into(post(1, 0, 1_000), &mut out), None);
        // Out of order.
        assert_eq!(
            guard.offer_into(post(2, 0, 500), &mut out),
            Some(RejectReason::OutOfOrder)
        );
        // Duplicate id.
        assert_eq!(
            guard.offer_into(post(1, 0, 2_000), &mut out),
            Some(RejectReason::DuplicateId)
        );
        // Unknown author.
        assert_eq!(
            guard.offer_into(post(3, 9, 2_000), &mut out),
            Some(RejectReason::UnknownAuthor)
        );
        // Empty text.
        assert_eq!(
            guard.offer_into(Post::new(4, 0, 2_000, "   ".into()), &mut out),
            Some(RejectReason::EmptyText)
        );
        // Oversized text.
        assert_eq!(
            guard.offer_into(Post::new(5, 0, 2_000, "x".repeat(64)), &mut out),
            Some(RejectReason::OversizedText)
        );
        assert_eq!(out.len(), 1);
        let stats = guard.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.quarantined_total(), 5);
        for reason in RejectReason::ALL {
            let expected = u64::from(reason != RejectReason::TooLate);
            assert_eq!(stats.count(reason), expected, "{reason}");
        }
    }

    #[test]
    fn clamp_repairs_timestamps_and_text() {
        let config = GuardConfig {
            max_text_bytes: 8,
            ..GuardConfig::new(GuardPolicy::Clamp)
        };
        let stream = vec![
            Post::new(1, 0, 1_000, "okay".into()),
            Post::new(2, 0, 400, "late but welcome".into()), // clamped + truncated
            Post::new(3, 0, 2_000, "fine".into()),
        ];
        let (out, stats) = guard_stream(config, stream);
        assert_eq!(out.len(), 3);
        assert!(is_time_ordered(&out));
        assert_eq!(out[1].timestamp, 1_000);
        assert_eq!(out[1].text, "late but");
        assert_eq!(stats.clamped_timestamps, 1);
        assert_eq!(stats.truncated_texts, 1);
        assert_eq!(stats.quarantined_total(), 0);
    }

    #[test]
    fn clamp_truncates_at_char_boundary() {
        let config = GuardConfig {
            max_text_bytes: 5,
            ..GuardConfig::new(GuardPolicy::Clamp)
        };
        // "héllo" is 6 bytes; byte 5 splits nothing, byte 2 would split é.
        let (out, _) = guard_stream(config, vec![Post::new(1, 0, 0, "ééé".into())]);
        assert_eq!(out[0].text, "éé"); // 4 bytes, boundary-safe
    }

    #[test]
    fn reorder_resorts_within_bound() {
        let config = GuardConfig::new(GuardPolicy::Reorder { bound_ms: 1_000 });
        let stream = vec![
            post(1, 0, 5_000),
            post(2, 0, 4_500), // 500 ms late: inside the bound
            post(3, 0, 6_000),
            post(4, 0, 7_000),
        ];
        let (out, stats) = guard_stream(config, stream);
        let ids: Vec<PostId> = out.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 1, 3, 4]);
        assert!(is_time_ordered(&out));
        assert_eq!(stats.reordered, 1);
        assert_eq!(stats.admitted, 4);
    }

    #[test]
    fn reorder_quarantines_posts_beyond_bound() {
        let config = GuardConfig::new(GuardPolicy::Reorder { bound_ms: 1_000 });
        let mut guard = IngestGuard::new(config);
        let mut out = Vec::new();
        guard.offer_into(post(1, 0, 10_000), &mut out);
        guard.offer_into(post(2, 0, 12_000), &mut out);
        // Watermark 12_000, bound 1_000 ⇒ releases up to 11_000; a post at
        // 8_000 is behind the release watermark and cannot be re-sorted.
        let verdict = guard.offer_into(post(3, 0, 8_000), &mut out);
        assert_eq!(verdict, Some(RejectReason::TooLate));
        guard.flush_into(&mut out);
        assert!(is_time_ordered(&out));
        assert_eq!(guard.stats().admitted, 2);
        assert_eq!(guard.stats().count(RejectReason::TooLate), 1);
    }

    #[test]
    fn reorder_catches_duplicates_still_in_buffer() {
        let config = GuardConfig::new(GuardPolicy::Reorder { bound_ms: 10_000 });
        let mut guard = IngestGuard::new(config);
        let mut out = Vec::new();
        guard.offer_into(post(1, 0, 1_000), &mut out);
        assert!(out.is_empty(), "post held in buffer");
        assert_eq!(
            guard.offer_into(post(1, 0, 1_200), &mut out),
            Some(RejectReason::DuplicateId)
        );
        guard.flush_into(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dedup_memory_is_windowed() {
        let mut config = GuardConfig::new(GuardPolicy::Strict);
        config.dedup_window_ms = 1_000;
        let mut guard = IngestGuard::new(config);
        let mut out = Vec::new();
        guard.offer_into(post(1, 0, 0), &mut out);
        guard.offer_into(post(2, 0, 5_000), &mut out);
        // Id 1 fell out of the dedup window: the map forgot it…
        assert_eq!(guard.seen.len(), 1);
        // …but a replay is still rejected, by the ordering check.
        assert_eq!(
            guard.offer_into(post(1, 0, 0), &mut out),
            Some(RejectReason::OutOfOrder)
        );
    }

    #[test]
    fn conservation_admitted_plus_quarantined_equals_offered() {
        let config = GuardConfig {
            max_text_bytes: 32,
            ..GuardConfig::new(GuardPolicy::Reorder { bound_ms: 500 }).with_author_count(3)
        };
        let mut n = 0u64;
        let stream: Vec<Post> = (0..200u64)
            .map(|i| {
                n += 1;
                // A messy mix: jittered timestamps, some dup ids, some bad
                // authors.
                let ts = 10_000 + i * 100 - (i % 7) * 250;
                post(i / 2, (i % 5) as u32, ts)
            })
            .collect();
        let (out, stats) = guard_stream(config, stream);
        assert_eq!(stats.admitted + stats.quarantined_total(), n);
        assert_eq!(out.len() as u64, stats.admitted);
        assert!(is_time_ordered(&out));
        // No admitted duplicate ids.
        let mut ids: Vec<PostId> = out.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn output_is_ordered_under_every_policy() {
        let policies = [
            GuardPolicy::Strict,
            GuardPolicy::Clamp,
            GuardPolicy::Reorder { bound_ms: 700 },
        ];
        let stream: Vec<Post> = (0..100u64)
            .map(|i| post(i, 0, 5_000 + i * 50 - (i % 4) * 333))
            .collect();
        for policy in policies {
            let (out, stats) = guard_stream(GuardConfig::new(policy), stream.clone());
            assert!(is_time_ordered(&out), "{policy}");
            assert_eq!(stats.admitted as usize, out.len(), "{policy}");
            assert_eq!(stats.offered(), 100, "{policy}");
        }
    }
}
