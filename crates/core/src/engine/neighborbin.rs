//! NeighborBin (Section 4.2): one bin per author.
//!
//! Each author's bin holds the emitted posts *of that author and of her
//! similar authors*. An arriving post is checked only against its author's
//! bin — all candidates there are author-similar by construction, so the
//! coverage test reduces to content + time. The price: an emitted post is
//! inserted into `d + 1` bins (its author's and every neighbor's).

use std::sync::Arc;

use firehose_graph::UndirectedGraph;
use firehose_simhash::{active_kernel, KernelKind};
use firehose_stream::{ApproxCandidate, PostRecord};

use crate::backend::CoverageBackend;
use crate::config::EngineConfig;
#[cfg(debug_assertions)]
use crate::coverage::authors_similar;
use crate::decision::Decision;
use crate::engine::Diversifier;
use crate::metrics::EngineMetrics;
use crate::obs::EngineObs;

/// Per-author-bin engine: fewest comparisons, most RAM (Table 3).
pub struct NeighborBin {
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
    /// One bin per author id.
    bins: Vec<CoverageBackend>,
    /// Reusable candidate buffer for approximate-backend probes.
    scratch: Vec<ApproxCandidate>,
    /// Hamming kernel selected once at construction.
    kernel: KernelKind,
    metrics: EngineMetrics,
    obs: Option<EngineObs>,
}

impl NeighborBin {
    /// New engine over the author similarity graph `G`. Allocates one (empty)
    /// bin per author.
    pub fn new(config: EngineConfig, graph: Arc<UndirectedGraph>) -> Self {
        // Author `a`'s bin receives the posts of `a` and her neighbors: its
        // share of the window is (degree + 1) / m of the stream (assuming
        // uniform posting — a hint, not a bound).
        let m = graph.node_count();
        let hint = config.window_capacity_hint();
        let bins = (0..m)
            .map(|a| {
                CoverageBackend::for_config(&config, hint * (graph.degree(a as u32) + 1) / m.max(1))
            })
            .collect();
        Self {
            config,
            graph,
            bins,
            scratch: Vec::new(),
            kernel: active_kernel(),
            metrics: EngineMetrics::default(),
            obs: None,
        }
    }

    /// Snapshot internals (see `crate::snapshot`).
    pub(crate) fn parts(&self) -> (&[CoverageBackend], &EngineMetrics) {
        (&self.bins, &self.metrics)
    }

    /// Rebuild from snapshot internals (see `crate::snapshot`).
    pub(crate) fn from_parts(
        config: EngineConfig,
        graph: Arc<UndirectedGraph>,
        bins: Vec<CoverageBackend>,
        metrics: EngineMetrics,
    ) -> Self {
        assert_eq!(
            bins.len(),
            graph.node_count(),
            "bin count must match authors"
        );
        Self {
            config,
            graph,
            bins,
            scratch: Vec::new(),
            kernel: active_kernel(),
            metrics,
            obs: None,
        }
    }

    fn offer_inner(&mut self, record: PostRecord) -> Decision {
        assert!(
            (record.author as usize) < self.bins.len(),
            "author {} outside the similarity graph (m = {})",
            record.author,
            self.bins.len()
        );
        self.metrics.posts_processed += 1;
        let t = self.config.thresholds;

        // Probe only the author's own bin.
        let bin = &mut self.bins[record.author as usize];
        let evicted = bin.evict_expired(record.timestamp, t.lambda_t);
        self.metrics.on_evict(evicted as u64);

        // All candidates in the bin are author-similar by construction, so
        // coverage reduces to the content+time lookup: the newest in-window
        // fingerprint within λc is the post the scalar walk would stop at.
        #[cfg(debug_assertions)]
        if let Some(exact) = bin.as_exact() {
            let view = exact.window(record.timestamp, t.lambda_t);
            for &author in view.authors {
                debug_assert!(
                    authors_similar(&self.graph, author, record.author),
                    "bin invariant violated: non-similar author {author} in bin {}",
                    record.author
                );
            }
        }
        let (found, comparisons) =
            bin.find_newest_within(self.kernel, &record, &t, &mut self.scratch);
        self.metrics.comparisons += comparisons;
        if let Some(by) = found {
            return Decision::Covered { by };
        }

        // Emit: store a copy in the author's bin and in each neighbor's bin.
        // Touched bins are evicted opportunistically so memory tracks the
        // λt window even for authors that rarely post.
        let mut inserted = 0u64;
        let mut lazily_evicted = 0u64;
        {
            let bin = &mut self.bins[record.author as usize];
            lazily_evicted += bin.push(record);
            inserted += 1;
        }
        for &nb in self.graph.neighbors(record.author) {
            let bin = &mut self.bins[nb as usize];
            lazily_evicted += bin.evict_expired(record.timestamp, t.lambda_t) as u64;
            lazily_evicted += bin.push(record);
            inserted += 1;
        }
        self.metrics.on_evict(lazily_evicted);
        self.metrics.on_insert(inserted, PostRecord::SIZE_BYTES);
        self.metrics.posts_emitted += 1;
        Decision::Emitted
    }
}

impl Diversifier for NeighborBin {
    fn offer_record(&mut self, record: PostRecord) -> Decision {
        let started = self.obs.is_some().then(std::time::Instant::now);
        let before = self.metrics.comparisons;
        let decision = self.offer_inner(record);
        if let (Some(t0), Some(obs)) = (started, &self.obs) {
            obs.record_offer(t0, self.metrics.comparisons - before);
        }
        decision
    }

    fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "NeighborBin"
    }

    fn evict_expired(&mut self, now: firehose_stream::Timestamp) {
        let lambda_t = self.config.thresholds.lambda_t;
        let mut evicted = 0u64;
        for bin in &mut self.bins {
            evicted += bin.evict_expired(now, lambda_t) as u64;
        }
        self.metrics.on_evict(evicted);
    }

    fn attach_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::snapshot::write_state_neighborbin(w, &self.bins, &self.metrics)
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let (bins, metrics) =
            crate::snapshot::read_state_neighborbin(r, &self.config, &self.graph)?;
        self.bins = bins;
        self.metrics = metrics;
        Ok(())
    }

    fn snapshot_tag(&self) -> u8 {
        crate::snapshot::TAG_NEIGHBORBIN
    }

    fn window_records(&self, out: &mut Vec<PostRecord>) {
        // A copy lives in the author's own bin and every neighbor's; the
        // author's bin alone already holds one copy of each emission.
        let start = out.len();
        for (a, bin) in self.bins.iter().enumerate() {
            bin.for_each_record(|r| {
                if r.author as usize == a {
                    out.push(r);
                }
            });
        }
        crate::engine::order_window_records_from(out, start);
    }

    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        if !self.config.memory.is_approx() {
            return None;
        }
        let mut acc = firehose_stream::ApproxStats::default();
        for bin in &self.bins {
            acc.merge(&bin.approx_stats()?);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn paper_graph() -> Arc<UndirectedGraph> {
        // Figure 5a: a1..a4 => 0..3, edges 0-1, 0-2, 1-2, 2-3.
        Arc::new(UndirectedGraph::from_edges(
            4,
            [(0, 1), (0, 2), (1, 2), (2, 3)],
        ))
    }

    #[test]
    fn reproduces_figure6b() {
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let mut engine = NeighborBin::new(config, paper_graph());
        // Same stream as the UniBin test (Figure 5b).
        let decisions: Vec<_> = [
            rec(1, 0, 0, 0b0000),
            rec(2, 1, 60_000, 0xFF00),
            rec(3, 2, 120_000, 0b0001),
            rec(4, 3, 180_000, 0x00FF),
            rec(5, 2, 240_000, 0x00FE),
        ]
        .into_iter()
        .map(|r| engine.offer_record(r))
        .collect();

        assert_eq!(decisions[0], Decision::Emitted);
        assert_eq!(decisions[1], Decision::Emitted);
        assert_eq!(decisions[2], Decision::Covered { by: 1 });
        assert_eq!(decisions[3], Decision::Emitted);
        assert_eq!(decisions[4], Decision::Covered { by: 4 });

        // Figure 6b: P1 goes to bins of a1, a2, a3 (3 copies); P2 likewise
        // (3 copies); P4 to bins of a3, a4 (2 copies). P3 and P5 are covered.
        assert_eq!(engine.metrics().insertions, 3 + 3 + 2);
    }

    #[test]
    fn p4_checks_empty_bin_without_comparisons() {
        // "When P4 comes, a4's post bin is blank and thus P4 is added ...
        // without incurring any post comparisons."
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let mut engine = NeighborBin::new(config, paper_graph());
        engine.offer_record(rec(1, 0, 0, 0b0000));
        engine.offer_record(rec(2, 1, 60_000, 0xFF00));
        let before = engine.metrics().comparisons;
        engine.offer_record(rec(4, 3, 180_000, 0x00FF));
        assert_eq!(engine.metrics().comparisons, before, "a4's bin was empty");
    }

    #[test]
    fn fewer_comparisons_than_unibin() {
        use crate::engine::UniBin;
        // Star graph: hub 0 with leaves; posts from mutually non-similar leaves.
        let graph = Arc::new(UndirectedGraph::from_edges(
            5,
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        ));
        let config = EngineConfig::new(Thresholds::new(0, minutes(60), 0.7).unwrap());
        let mut nb = NeighborBin::new(config, Arc::clone(&graph));
        let mut ub = UniBin::new(config, graph);
        for i in 0..20u64 {
            let r = rec(i, 1 + (i % 4) as u32, i * 1_000, 1 << (i % 60));
            nb.offer_record(r);
            ub.offer_record(r);
        }
        assert!(
            nb.metrics().comparisons < ub.metrics().comparisons,
            "NeighborBin {} vs UniBin {}",
            nb.metrics().comparisons,
            ub.metrics().comparisons
        );
        assert!(nb.metrics().insertions > ub.metrics().insertions);
    }

    #[test]
    fn neighbor_coverage_found_via_own_bin() {
        let graph = Arc::new(UndirectedGraph::from_edges(2, [(0, 1)]));
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let mut engine = NeighborBin::new(config, graph);
        assert!(engine.offer_record(rec(1, 0, 0, 0)).is_emitted());
        // Author 1's bin received a copy of post 1 (neighbor insert).
        assert_eq!(
            engine.offer_record(rec(2, 1, 1_000, 1)).covered_by(),
            Some(1)
        );
    }

    #[test]
    fn non_neighbors_never_cover() {
        let graph = Arc::new(UndirectedGraph::new(2)); // no edges
        let config = EngineConfig::new(Thresholds::new(64, minutes(30), 0.7).unwrap());
        let mut engine = NeighborBin::new(config, graph);
        assert!(engine.offer_record(rec(1, 0, 0, 0)).is_emitted());
        assert!(engine.offer_record(rec(2, 1, 1, 0)).is_emitted());
    }

    #[test]
    fn same_author_covers_via_own_bin() {
        let graph = Arc::new(UndirectedGraph::new(1));
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let mut engine = NeighborBin::new(config, graph);
        assert!(engine.offer_record(rec(1, 0, 0, 0)).is_emitted());
        assert_eq!(engine.offer_record(rec(2, 0, 1, 0)).covered_by(), Some(1));
    }

    #[test]
    #[should_panic(expected = "outside the similarity graph")]
    fn out_of_range_author_panics() {
        let graph = Arc::new(UndirectedGraph::new(1));
        let mut engine = NeighborBin::new(EngineConfig::paper_defaults(), graph);
        engine.offer_record(rec(1, 5, 0, 0));
    }

    #[test]
    fn stale_neighbor_bins_evicted_on_insert() {
        let graph = Arc::new(UndirectedGraph::from_edges(2, [(0, 1)]));
        let config = EngineConfig::new(Thresholds::new(0, 1_000, 0.7).unwrap());
        let mut engine = NeighborBin::new(config, graph);
        engine.offer_record(rec(1, 0, 0, 0b01));
        // Far in the future, author 0 posts again: both its own bin and the
        // neighbor's bin shed the expired copies.
        engine.offer_record(rec(2, 0, 1_000_000, 0b10));
        assert_eq!(engine.metrics().evictions, 2);
        assert_eq!(engine.metrics().copies_stored, 2); // post 2 in 2 bins
    }
}
