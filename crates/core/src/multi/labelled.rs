//! The labelled window: one λt window of emitted posts that serves every
//! distinct component at once (`DESIGN.md` §9).
//!
//! Whether post `q` covers post `p` depends on content, time and the two
//! authors — not on which component asks. So component `k` suppresses `p`
//! iff some post in `Cov(p)` was emitted *in `k`*. The window therefore
//! stores each emitted post once, tagged with the component slots (labels)
//! that emitted it, and one newest-first scan per arrival finds `Cov(p)`:
//! the union of the covers' labels is the set of components that suppress
//! `p`, and `p` is emitted in every other component containing its author.
//!
//! The invariant the registry maintains: **a record carries label `k` iff
//! component `k` emitted it or inherited it by warm start**. Retiring a
//! component strips its label from every record before the slot can be
//! recycled, so a reused slot never inherits its predecessor's coverage.
//!
//! The window holds exactly the posts emitted in some live component within
//! λt of the newest arrival: every offer first evicts what expired, and a
//! record whose last label is stripped is dropped. The label column lives
//! beside the [`TimeWindowBin`], in lockstep with its live records
//! (`evict_expired` returns how many to pop), so the single-engine window
//! is the unmodified `spsd_*` structure. Like that window, this one assumes
//! time-ordered arrivals: a late timestamp is stored clamped to the
//! window's watermark, which is the newest post any component stored, not
//! the newest post of the components it lands in.

use std::collections::VecDeque;
use std::io::{Read, Write};

use firehose_graph::{AdjacencyBitsets, UndirectedGraph};
use firehose_simhash::{active_kernel, KernelKind};
use firehose_stream::{AuthorId, PostRecord, TimeWindowBin, Timestamp};

use crate::config::{EngineConfig, Thresholds};
use crate::metrics::EngineMetrics;
use crate::snapshot::{
    r_u32, r_u64, read_metrics, w_u32, w_u64, write_metrics, SnapshotError, MAX_PREALLOC,
};

/// Bytes charged per stored label id in the memory accounting.
const LABEL_BYTES: u64 = std::mem::size_of::<u32>() as u64;

/// One window of emitted posts, each labelled with the component slots
/// that emitted (or inherited) it.
pub(crate) struct LabelledWindow {
    thresholds: Thresholds,
    bin: TimeWindowBin,
    /// Labels of the bin's live records, oldest first.
    labels: VecDeque<Vec<u32>>,
    /// Label ids currently stored across all records.
    label_ids: u64,
    /// O(1) author-similarity rows, built lazily per probed author.
    adjacency: AdjacencyBitsets,
    kernel: KernelKind,
    /// Content-candidate positions of the current scan, newest first.
    positions: Vec<u32>,
    /// `open[slot] == epoch` iff `slot` contains the arriving post's author
    /// and no cover emitted in it has been found yet. Stamping with a
    /// per-post epoch avoids clearing the array between posts.
    open: Vec<u32>,
    epoch: u32,
    /// Newest timestamp offered so far.
    watermark: Timestamp,
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
            watermark: 0,
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

    /// Count a post whose author is in no component: nothing to scan or
    /// store.
    pub(crate) fn skip(&mut self, timestamp: Timestamp) {
        self.metrics.posts_processed += 1;
        self.advance(timestamp);
    }

    /// Move the watermark to `now` and evict the records that can no longer
    /// cover an arrival at `now`.
    fn advance(&mut self, now: Timestamp) {
        self.watermark = self.watermark.max(now);
        let n = self.bin.evict_expired(now, self.thresholds.lambda_t);
        for labels in self.labels.drain(..n) {
            self.label_ids -= labels.len() as u64;
        }
        self.metrics.on_evict(n as u64);
    }

    /// Decide `record` for the component slots `slots` (those containing its
    /// author) and write the slots it is emitted in to `emitted`, in `slots`
    /// order. The record is stored, labelled with `emitted`, unless that is
    /// empty.
    pub(crate) fn offer(
        &mut self,
        graph: &UndirectedGraph,
        record: PostRecord,
        slots: &[u32],
        emitted: &mut Vec<u32>,
    ) {
        self.metrics.posts_processed += 1;
        self.advance(record.timestamp);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.open.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for &slot in slots {
            let slot = slot as usize;
            if slot >= self.open.len() {
                self.open.resize(slot + 1, 0);
            }
            self.open[slot] = epoch;
        }
        let mut open_left = slots.len();

        let t = &self.thresholds;
        let view = self.bin.window(record.timestamp, t.lambda_t);
        // `advance` evicted at this timestamp, so the view is every live
        // record and its positions index the label column directly.
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
        // that closed the last open slot, or the whole window.
        self.metrics.comparisons += match stop {
            Some(pos) => (view.len() - pos) as u64,
            None => view.len() as u64,
        };

        emitted.clear();
        emitted.extend(
            slots
                .iter()
                .copied()
                .filter(|&slot| self.open[slot as usize] == epoch),
        );
        if !emitted.is_empty() {
            self.metrics.posts_emitted += 1;
            self.push(record, emitted.clone());
        }
    }

    fn push(&mut self, record: PostRecord, labels: Vec<u32>) {
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

    /// Warm-start a newly spawned component `slot`: label every record that
    /// carries one of the `released` labels and whose author is in
    /// `members` (sorted). Returns whether any of those records is still
    /// inside λt of the newest offered post — the warm-start rule.
    pub(crate) fn inherit(&mut self, slot: u32, released: &[u32], members: &[AuthorId]) -> bool {
        let cutoff = self.watermark.saturating_sub(self.thresholds.lambda_t);
        let mut live = false;
        for (record, labels) in self.bin.iter().zip(self.labels.iter_mut()) {
            if members.binary_search(&record.author).is_ok()
                && labels.iter().any(|l| released.contains(l))
            {
                labels.push(slot);
                self.label_ids += 1;
                live |= record.timestamp >= cutoff;
            }
        }
        self.note_peak();
        live
    }

    /// Remove label `slot` of the retired component over `members` (sorted)
    /// from every record, and drop the records left with no label: they can
    /// cover nothing. Only member-authored records can carry the label.
    pub(crate) fn strip(&mut self, slot: u32, members: &[AuthorId]) {
        let mut emptied = false;
        for (record, labels) in self.bin.iter().zip(self.labels.iter_mut()) {
            if members.binary_search(&record.author).is_err() {
                continue;
            }
            if let Some(i) = labels.iter().position(|&l| l == slot) {
                labels.swap_remove(i);
                self.label_ids -= 1;
                emptied |= labels.is_empty();
            }
        }
        if !emptied {
            return;
        }
        let mut bin = TimeWindowBin::with_capacity(self.bin.len());
        let mut dropped = 0;
        for (record, labels) in self.bin.iter().zip(&self.labels) {
            if labels.is_empty() {
                dropped += 1;
            } else {
                bin.push(record);
            }
        }
        self.bin = bin;
        self.labels.retain(|labels| !labels.is_empty());
        self.metrics.on_evict(dropped);
    }

    /// The labels of stored record `id`, ascending (`None` if not stored).
    #[cfg(test)]
    pub(crate) fn labels_of(&self, id: u64) -> Option<Vec<u32>> {
        let i = self.bin.iter().position(|r| r.id == id)?;
        let mut labels = self.labels[i].clone();
        labels.sort_unstable();
        Some(labels)
    }

    /// Serialize: the window ledger (watermark, counters), then every record
    /// oldest-first with its labels mapped through `key`.
    pub(crate) fn write(&self, w: &mut dyn Write, key: impl Fn(u32) -> u64) -> std::io::Result<()> {
        w_u64(w, self.watermark)?;
        write_metrics(w, &self.metrics)?;
        w_u64(w, self.bin.len() as u64)?;
        for (record, labels) in self.bin.iter().zip(&self.labels) {
            w_u64(w, record.id)?;
            w_u32(w, record.author)?;
            w_u64(w, record.timestamp)?;
            w_u64(w, record.fingerprint)?;
            let mut keys: Vec<u64> = labels.iter().map(|&l| key(l)).collect();
            keys.sort_unstable();
            w_u32(w, keys.len() as u32)?;
            for k in keys {
                w_u64(w, k)?;
            }
        }
        Ok(())
    }

    /// Rebuild a window from [`read_state`] output, labels already mapped
    /// to slots. Counters are adopted as written; the stored-copy count is
    /// the rebuilt window's.
    pub(crate) fn restore(
        config: &EngineConfig,
        node_count: usize,
        state: WindowState<u32>,
    ) -> Result<Self, SnapshotError> {
        let mut window = Self::new(config, node_count);
        for (record, labels) in state.records {
            if record.author as usize >= node_count {
                return Err(SnapshotError::StructureMismatch(
                    "window record author outside the graph",
                ));
            }
            window.label_ids += labels.len() as u64;
            window.bin.push(record);
            window.labels.push_back(labels);
        }
        window.watermark = state.watermark;
        window.metrics = EngineMetrics {
            copies_stored: window.bin.len() as u64,
            ..state.metrics
        };
        window.metrics.peak_copies = window.metrics.peak_copies.max(window.metrics.copies_stored);
        window.note_peak();
        Ok(window)
    }
}

/// A serialized window: ledger, counters and records oldest-first, with
/// labels as `L` (component keys on disk, slots once mapped).
pub(crate) struct WindowState<L> {
    pub watermark: Timestamp,
    pub metrics: EngineMetrics,
    pub records: Vec<(PostRecord, Vec<L>)>,
}

/// Parse what [`LabelledWindow::write`] wrote, labels as component keys.
pub(crate) fn read_state(r: &mut dyn Read) -> Result<WindowState<u64>, SnapshotError> {
    let watermark = r_u64(r)?;
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
        let mut keys = Vec::with_capacity((n as usize).min(MAX_PREALLOC));
        for _ in 0..n {
            keys.push(r_u64(r)?);
        }
        records.push((record, keys));
    }
    Ok(WindowState {
        watermark,
        metrics,
        records,
    })
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

    fn window() -> (LabelledWindow, UndirectedGraph) {
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let graph = UndirectedGraph::from_edges(4, [(0, 1)]);
        (LabelledWindow::new(&config, 4), graph)
    }

    #[test]
    fn covers_suppress_only_the_labels_that_emitted_them() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[3, 5], &mut out);
        assert_eq!(out, [3, 5]);
        // Author 1 is similar to 0 and sits in slots 5 and 7: only 5 saw
        // post 1.
        w.offer(&g, rec(2, 1, 1_000, 0), &[5, 7], &mut out);
        assert_eq!(out, [7]);
        // Author 2 is not similar to 0 or 1: nothing covers it.
        w.offer(&g, rec(3, 2, 2_000, 0), &[3], &mut out);
        assert_eq!(out, [3]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.metrics().posts_emitted, 3);
        // Labels {3,5}, {7} and {3}: 4 ids at 4 B each.
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
        assert_eq!(w.label_ids, 1);
        assert_eq!(w.metrics().evictions, 1);
        // The survivor is post 2, labelled 2: it covers in slot 2 only.
        w.offer(&g, rec(3, 2, minutes(41), 0xFF), &[2, 4], &mut out);
        assert_eq!(out, [4]);
    }

    #[test]
    fn stripping_the_last_label_drops_the_record() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[0, 1], &mut out);
        w.offer(&g, rec(2, 2, 1_000, 0xFF), &[1], &mut out);
        w.offer(&g, rec(3, 3, 2_000, 0xF0F0), &[2], &mut out);
        w.strip(0, &[0]);
        assert_eq!(w.len(), 3, "post 1 still carries label 1");
        w.strip(1, &[0, 2]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.labels_of(3), Some(vec![2]));
        assert_eq!(w.metrics().copies_stored, 1);
        assert_eq!(w.metrics().evictions, 2);
        assert_eq!(
            w.memory_bytes(),
            PostRecord::SIZE_BYTES as u64 + LABEL_BYTES
        );
    }

    #[test]
    fn write_restore_round_trip() {
        let (mut w, g) = window();
        let mut out = Vec::new();
        w.offer(&g, rec(1, 0, 0, 0), &[2, 9], &mut out);
        w.offer(&g, rec(2, 3, 5, 0xF0), &[4], &mut out);
        let mut buf = Vec::new();
        w.write(&mut buf, |slot| u64::from(slot) + 100).unwrap();
        let state = read_state(&mut &buf[..]).unwrap();
        let state = WindowState {
            watermark: state.watermark,
            metrics: state.metrics,
            records: state
                .records
                .into_iter()
                .map(|(r, keys)| (r, keys.into_iter().map(|k| (k - 100) as u32).collect()))
                .collect(),
        };
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let mut back = LabelledWindow::restore(&config, 4, state).unwrap();
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
