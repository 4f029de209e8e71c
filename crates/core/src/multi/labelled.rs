//! The labelled window: one λt window of delivered posts that serves every
//! user at once (`DESIGN.md` §9).
//!
//! Whether post `q` covers post `p` depends on content, time and the two
//! authors — not on which user asks. So user `u` is withheld `p` iff some
//! post in `Cov(p)` was delivered *to `u`*. The window therefore stores
//! each delivered post once, tagged with the users it was delivered to (its
//! labels), and one newest-first scan per arrival finds `Cov(p)`: the union
//! of the covers' labels is the set of users `p` is withheld from, and `p`
//! goes to every other follower of its author.
//!
//! The invariant: **a record carries label `u` iff it was delivered to
//! `u`**. Churn never touches a label. A user who unfollows an author keeps
//! what they were shown as coverage; a user who follows one starts from
//! what they were shown, not from what other followers were; a removed
//! user's labels age out with their records, and user ids are never
//! reused.
//!
//! The window holds exactly the posts delivered to someone within λt of
//! the newest arrival: every offer first evicts what expired. The label
//! column lives beside the [`TimeWindowBin`], in lockstep with its live
//! records (`evict_expired` returns how many to pop), so the single-engine
//! window is the unmodified `spsd_*` structure. Like that window, this one
//! assumes time-ordered arrivals: a late timestamp is stored clamped to the
//! newest post the window stored.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use firehose_graph::{AdjacencyBitsets, UndirectedGraph};
use firehose_simhash::{active_kernel, KernelKind};
use firehose_stream::{PostRecord, TimeWindowBin, Timestamp};

use crate::config::{EngineConfig, Thresholds};
use crate::metrics::EngineMetrics;
use crate::multi::subscriptions::UserId;
use crate::snapshot::{
    r_u32, r_u64, read_metrics, w_u32, w_u64, write_metrics, SnapshotError, MAX_PREALLOC,
};

/// Bytes charged per stored label id in the memory accounting.
const LABEL_BYTES: u64 = std::mem::size_of::<UserId>() as u64;

/// One window of delivered posts, each labelled with the users it was
/// delivered to.
pub(crate) struct LabelledWindow {
    thresholds: Thresholds,
    bin: TimeWindowBin,
    /// Labels of the bin's live records, oldest first, each ascending.
    labels: VecDeque<Vec<UserId>>,
    /// Label ids currently stored across all records.
    label_ids: u64,
    /// O(1) author-similarity rows, built lazily per probed author.
    adjacency: AdjacencyBitsets,
    kernel: KernelKind,
    /// Content-candidate positions of the current scan, newest first.
    positions: Vec<u32>,
    /// `open[user] == epoch` iff `user` follows the arriving post's author
    /// and no cover delivered to them has been found yet. Stamping with a
    /// per-post epoch avoids clearing the array between posts.
    open: Vec<u32>,
    epoch: u32,
    metrics: EngineMetrics,
}

impl LabelledWindow {
    pub(crate) fn new(config: &EngineConfig, node_count: usize) -> Self {
        Self {
            thresholds: config.thresholds,
            bin: TimeWindowBin::with_capacity(config.window_capacity_hint()),
            labels: VecDeque::new(),
            label_ids: 0,
            adjacency: AdjacencyBitsets::new(node_count),
            kernel: active_kernel(),
            positions: Vec::new(),
            open: Vec::new(),
            epoch: 0,
            metrics: EngineMetrics::default(),
        }
    }

    /// Records currently stored.
    pub(crate) fn len(&self) -> usize {
        self.bin.len()
    }

    pub(crate) fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Count a post nobody follows: nothing to scan or store.
    pub(crate) fn skip(&mut self, timestamp: Timestamp) {
        self.metrics.posts_processed += 1;
        self.evict(timestamp);
    }

    /// Evict the records that can no longer cover an arrival at `now`.
    fn evict(&mut self, now: Timestamp) {
        let n = self.bin.evict_expired(now, self.thresholds.lambda_t);
        for labels in self.labels.drain(..n) {
            self.label_ids -= labels.len() as u64;
        }
        self.metrics.on_evict(n as u64);
    }

    /// Decide `record` for `users` (its author's followers, ascending) and
    /// write the users it is delivered to into `delivered`, ascending. The
    /// record is stored, labelled with `delivered`, unless that is empty.
    pub(crate) fn offer(
        &mut self,
        graph: &UndirectedGraph,
        record: PostRecord,
        users: &[UserId],
        delivered: &mut Vec<UserId>,
    ) {
        self.metrics.posts_processed += 1;
        self.evict(record.timestamp);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.open.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        if let Some(&last) = users.last() {
            if last as usize >= self.open.len() {
                self.open.resize(last as usize + 1, 0);
            }
        }
        for &user in users {
            self.open[user as usize] = epoch;
        }
        let mut open_left = users.len();

        let t = &self.thresholds;
        let view = self.bin.window(record.timestamp, t.lambda_t);
        // `evict` ran at this timestamp, so the view is every live record
        // and its positions index the label column directly.
        debug_assert_eq!(view.len(), self.labels.len());
        view.filter_within_into(
            self.kernel,
            record.fingerprint,
            t.lambda_c,
            &mut self.positions,
        );
        let mut stop = None;
        if !self.positions.is_empty() {
            let row = self.adjacency.row(graph, record.author);
            for &pos in &self.positions {
                let author = view.authors[pos as usize];
                if author != record.author && !AdjacencyBitsets::test(row, author) {
                    continue;
                }
                for &label in &self.labels[pos as usize] {
                    if let Some(mark) = self.open.get_mut(label as usize) {
                        if *mark == epoch {
                            *mark = 0;
                            open_left -= 1;
                        }
                    }
                }
                if open_left == 0 {
                    stop = Some(pos as usize);
                    break;
                }
            }
        }
        // A comparison is one record examined newest-first: down to the one
        // that closed the last open user, or the whole window.
        self.metrics.comparisons += match stop {
            Some(pos) => (view.len() - pos) as u64,
            None => view.len() as u64,
        };

        delivered.clear();
        delivered.extend(
            users
                .iter()
                .copied()
                .filter(|&user| self.open[user as usize] == epoch),
        );
        if !delivered.is_empty() {
            self.metrics.posts_emitted += 1;
            self.push(record, delivered.clone());
        }
    }

    fn push(&mut self, record: PostRecord, labels: Vec<UserId>) {
        self.label_ids += labels.len() as u64;
        self.bin.push(record);
        self.labels.push_back(labels);
        self.metrics.on_insert(1, PostRecord::SIZE_BYTES);
        self.note_peak();
    }

    fn note_peak(&mut self) {
        let bytes = self.memory_bytes();
        self.metrics.peak_memory_bytes = self.metrics.peak_memory_bytes.max(bytes);
    }

    /// Record payload plus 4 B per stored label id.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.bin.len() as u64 * PostRecord::SIZE_BYTES as u64 + self.label_ids * LABEL_BYTES
    }

    /// Label ids currently stored across all records.
    pub(crate) fn label_ids(&self) -> u64 {
        self.label_ids
    }

    /// The labels of stored record `id` (`None` if not stored).
    #[cfg(test)]
    pub(crate) fn labels_of(&self, id: u64) -> Option<&[UserId]> {
        let i = self.bin.iter().position(|r| r.id == id)?;
        Some(&self.labels[i])
    }

    /// Serialize: the counters, then every record oldest-first with its
    /// labels as user ids.
    pub(crate) fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        write_metrics(w, &self.metrics)?;
        w_u64(w, self.bin.len() as u64)?;
        for (record, labels) in self.bin.iter().zip(&self.labels) {
            w_u64(w, record.id)?;
            w_u32(w, record.author)?;
            w_u64(w, record.timestamp)?;
            w_u64(w, record.fingerprint)?;
            w_u32(w, labels.len() as u32)?;
            for &user in labels {
                w_u32(w, user)?;
            }
        }
        Ok(())
    }

    /// Rebuild a window from user-labelled records, oldest first. A record
    /// by an author outside the graph, or labelled with a user id outside
    /// `0..user_count`, is refused. Counters are adopted as written; the
    /// stored-copy count is the rebuilt window's.
    pub(crate) fn restore(
        config: &EngineConfig,
        node_count: usize,
        user_count: usize,
        state: WindowState<UserId>,
    ) -> Result<Self, SnapshotError> {
        let mut window = Self::new(config, node_count);
        for (record, labels) in state.records {
            if record.author as usize >= node_count {
                return Err(SnapshotError::StructureMismatch(
                    "window record author outside the graph",
                ));
            }
            if labels.iter().any(|&u| u as usize >= user_count) {
                return Err(SnapshotError::StructureMismatch(
                    "window label names no user of the subscription table",
                ));
            }
            window.label_ids += labels.len() as u64;
            window.bin.push(record);
            window.labels.push_back(labels);
        }
        window.metrics = EngineMetrics {
            copies_stored: window.bin.len() as u64,
            ..state.metrics
        };
        window.metrics.peak_copies = window.metrics.peak_copies.max(window.metrics.copies_stored);
        window.note_peak();
        Ok(window)
    }
}

/// A serialized window: counters and records oldest-first, with labels as
/// `L` (user ids, or component keys in the component-era layout).
pub(crate) struct WindowState<L> {
    pub metrics: EngineMetrics,
    pub records: Vec<(PostRecord, Vec<L>)>,
}

/// Parse a window's counters and records, each label read by `label`.
pub(crate) fn read_state<L>(
    r: &mut dyn Read,
    label: fn(&mut dyn Read) -> io::Result<L>,
) -> Result<WindowState<L>, SnapshotError> {
    let metrics = read_metrics(r)?;
    let count = r_u64(r)?;
    let mut records = Vec::with_capacity((count as usize).min(MAX_PREALLOC));
    for _ in 0..count {
        let record = PostRecord {
            id: r_u64(r)?,
            author: r_u32(r)?,
            timestamp: r_u64(r)?,
            fingerprint: r_u64(r)?,
        };
        let n = r_u32(r)?;
        let mut labels = Vec::with_capacity((n as usize).min(MAX_PREALLOC));
        for _ in 0..n {
            labels.push(label(r)?);
        }
        records.push((record, labels));
    }
    Ok(WindowState { metrics, records })
}

/// Parse what [`LabelledWindow::write`] wrote.
pub(crate) fn read_user_state(r: &mut dyn Read) -> Result<WindowState<UserId>, SnapshotError> {
    read_state(r, |r| r_u32(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_stream::minutes;

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap())
    }

    fn window() -> (LabelledWindow, UndirectedGraph) {
        let graph = UndirectedGraph::from_edges(4, [(0, 1)]);
        (LabelledWindow::new(&config(), 4), graph)
    }

    #[test]
    fn covers_withhold_only_from_the_users_they_reached() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[3, 5], &mut out);
        assert_eq!(out, [3, 5]);
        // Author 1 is similar to 0 and followed by users 5 and 7: only 5
        // saw post 1.
        w.offer(&g, rec(2, 1, 1_000, 0), &[5, 7], &mut out);
        assert_eq!(out, [7]);
        // Author 2 is not similar to 0 or 1: nothing covers it.
        w.offer(&g, rec(3, 2, 2_000, 0), &[3], &mut out);
        assert_eq!(out, [3]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.metrics().posts_emitted, 3);
        assert_eq!(w.labels_of(1), Some(&[3, 5][..]));
        // Labels {3,5}, {7} and {3}: 4 ids at 4 B each.
        assert_eq!(w.label_ids(), 4);
        assert_eq!(
            w.memory_bytes(),
            3 * PostRecord::SIZE_BYTES as u64 + 4 * LABEL_BYTES
        );
    }

    #[test]
    fn fully_covered_post_is_not_stored() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[0], &mut out);
        w.offer(&g, rec(2, 0, 1_000, 1), &[0], &mut out);
        assert!(out.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w.metrics().posts_processed, 2);
    }

    #[test]
    fn eviction_pops_labels_in_lockstep() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[0, 1], &mut out);
        w.offer(&g, rec(2, 2, minutes(20), 0xFF), &[2], &mut out);
        w.skip(minutes(40));
        assert_eq!(w.len(), 1);
        assert_eq!(w.label_ids(), 1);
        assert_eq!(w.metrics().evictions, 1);
        // The survivor is post 2, labelled 2: it covers for user 2 only.
        w.offer(&g, rec(3, 2, minutes(41), 0xFF), &[2, 4], &mut out);
        assert_eq!(out, [4]);
    }

    #[test]
    fn write_restore_round_trip() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[2, 9], &mut out);
        w.offer(&g, rec(2, 3, 5, 0xF0), &[4], &mut out);
        let mut buf = Vec::new();
        w.write(&mut buf).unwrap();
        let state = read_user_state(&mut &buf[..]).unwrap();
        let mut back = LabelledWindow::restore(&config(), 4, 12, state).unwrap();
        assert_eq!(back.metrics(), w.metrics());
        assert_eq!(back.memory_bytes(), w.memory_bytes());
        let mut a = Vec::new();
        let mut b = Vec::new();
        w.offer(&g, rec(3, 1, 10, 0), &[2, 9, 11], &mut a);
        back.offer(&g, rec(3, 1, 10, 0), &[2, 9, 11], &mut b);
        assert_eq!(a, [11]);
        assert_eq!(a, b);
    }
}
