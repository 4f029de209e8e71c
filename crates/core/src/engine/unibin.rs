//! UniBin (Section 4.1): one bin for everything.

use std::sync::Arc;

use firehose_graph::{AdjacencyBitsets, UndirectedGraph};
use firehose_simhash::{active_kernel, KernelKind};
use firehose_stream::PostRecord;

use crate::backend::{CoverageBackend, ScanBuffer};
use crate::config::EngineConfig;
use crate::decision::Decision;
use crate::engine::Diversifier;
use crate::metrics::EngineMetrics;
use crate::obs::EngineObs;

/// The baseline engine: every emitted post lands in one time-ordered bin and
/// each arrival is compared — newest first — against every in-window record,
/// checking content (Hamming ≤ `λc`) and author (same author or an edge of
/// the similarity graph `G`).
///
/// UniBin stores exactly one copy per emitted post, so it is the most
/// RAM-frugal engine and the best pick for low-throughput streams, very
/// small `λt`, or dense similarity graphs (Table 4).
pub struct UniBin {
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
    bin: CoverageBackend,
    /// O(1) author-similarity rows, built lazily per probed author.
    adjacency: AdjacencyBitsets,
    /// Reusable lookup-result buffer, so the hot path never allocates.
    scan: ScanBuffer,
    /// Hamming kernel selected once at construction (AVX2 when the host
    /// supports it, batched scalar otherwise).
    kernel: KernelKind,
    metrics: EngineMetrics,
    obs: Option<EngineObs>,
}

impl UniBin {
    /// New engine over the author similarity graph `G`.
    pub fn new(config: EngineConfig, graph: Arc<UndirectedGraph>) -> Self {
        let bin = CoverageBackend::for_config(&config, config.window_capacity_hint());
        let adjacency = AdjacencyBitsets::new(graph.node_count());
        Self {
            config,
            graph,
            bin,
            adjacency,
            scan: ScanBuffer::new(),
            kernel: active_kernel(),
            metrics: EngineMetrics::default(),
            obs: None,
        }
    }

    /// Snapshot internals (see `crate::snapshot`).
    pub(crate) fn parts(&self) -> (&CoverageBackend, &EngineMetrics) {
        (&self.bin, &self.metrics)
    }

    /// Rebuild from snapshot internals (see `crate::snapshot`).
    pub(crate) fn from_parts(
        config: EngineConfig,
        graph: Arc<UndirectedGraph>,
        bin: CoverageBackend,
        metrics: EngineMetrics,
    ) -> Self {
        let adjacency = AdjacencyBitsets::new(graph.node_count());
        Self {
            config,
            graph,
            bin,
            adjacency,
            scan: ScanBuffer::new(),
            kernel: active_kernel(),
            metrics,
            obs: None,
        }
    }

    fn offer_inner(&mut self, record: PostRecord) -> Decision {
        self.metrics.posts_processed += 1;
        let t = &self.config.thresholds;

        let evicted = self.bin.evict_expired(record.timestamp, t.lambda_t);
        self.metrics.on_evict(evicted as u64);

        // Newest-first scan over the λt window (index b down to a in the
        // paper's circular-array description). The exact backend runs the
        // batched Hamming prefilter over the contiguous fingerprint column
        // (with popcount-class sub-bin pruning), the approximate backend its
        // prefix-bucket probes; either way candidates arrive newest-first
        // and the first one passing the O(1) bitset author check is exactly
        // where the scalar walk would have stopped.
        self.bin.scan_into(self.kernel, &record, t, &mut self.scan);
        let mut verdict = None;
        if !self.scan.is_empty() {
            let row = self.adjacency.row(&self.graph, record.author);
            for i in 0..self.scan.len() {
                let author = self.scan.author(i);
                if author == record.author || AdjacencyBitsets::test(row, author) {
                    verdict = Some((self.scan.id(i), i));
                    break;
                }
            }
        }
        // A "comparison" is one stored record examined: the exact arm
        // reconstructs the scalar newest-first count from the stop position,
        // the approximate arm charges its probes' candidate verifications.
        self.metrics.comparisons += self.scan.comparisons(verdict.map(|(_, i)| i));
        if let Some((by, _)) = verdict {
            return Decision::Covered { by };
        }

        let displaced = self.bin.push(record);
        if displaced > 0 {
            // Bounded-retention backends drop their oldest copies to admit
            // the new one; account those like evictions so copy/memory
            // gauges stay truthful. Exact backends never displace.
            self.metrics.on_evict(displaced);
        }
        self.metrics.on_insert(1, PostRecord::SIZE_BYTES);
        self.metrics.posts_emitted += 1;
        Decision::Emitted
    }
}

impl Diversifier for UniBin {
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
        "UniBin"
    }

    fn evict_expired(&mut self, now: firehose_stream::Timestamp) {
        let evicted = self.bin.evict_expired(now, self.config.thresholds.lambda_t);
        self.metrics.on_evict(evicted as u64);
    }

    fn attach_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::snapshot::write_state_unibin(w, &self.bin, &self.metrics)
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let (bin, metrics) = crate::snapshot::read_state_unibin(r, &self.config, &self.graph)?;
        self.bin = bin;
        self.metrics = metrics;
        Ok(())
    }

    fn snapshot_tag(&self) -> u8 {
        crate::snapshot::TAG_UNIBIN
    }

    fn window_records(&self, out: &mut Vec<PostRecord>) {
        let start = out.len();
        self.bin.for_each_record(|r| out.push(r));
        crate::engine::order_window_records_from(out, start);
    }

    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        self.bin.approx_stats()
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

    /// Figure 5/6a reproduction: authors a1..a4 (here 0..3) with edges
    /// 0-1, 0-2, 1-2, 2-3 and the paper's post sequence P1..P5.
    fn paper_example() -> (UniBin, Vec<PostRecord>) {
        let graph = Arc::new(UndirectedGraph::from_edges(
            4,
            [(0, 1), (0, 2), (1, 2), (2, 3)],
        ));
        // λc chosen so that "similar content" = Hamming ≤ 2.
        let config = EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap());
        let engine = UniBin::new(config, graph);
        // Content groups: P1,P3 similar; P4,P5 similar; P2 alone.
        let posts = vec![
            rec(1, 0, 0, 0b0000),       // P1 by a1
            rec(2, 1, 60_000, 0xFF00),  // P2 by a2 (far from P1)
            rec(3, 2, 120_000, 0b0001), // P3 by a3, covered by P1 (a1~a3)
            rec(4, 3, 180_000, 0x00FF), // P4 by a4, not covered
            rec(5, 2, 240_000, 0x00FE), // P5 by a3, covered by P4 (a3~a4)
        ];
        (engine, posts)
    }

    #[test]
    fn reproduces_figure6a() {
        let (mut engine, posts) = paper_example();
        let decisions: Vec<_> = posts.iter().map(|&r| engine.offer_record(r)).collect();
        assert_eq!(decisions[0], Decision::Emitted); // P1
        assert_eq!(decisions[1], Decision::Emitted); // P2
        assert_eq!(decisions[2], Decision::Covered { by: 1 }); // P3 by P1
        assert_eq!(decisions[3], Decision::Emitted); // P4
        assert_eq!(decisions[4], Decision::Covered { by: 4 }); // P5 by P4
        assert_eq!(engine.metrics().posts_emitted, 3);
    }

    #[test]
    fn time_window_expires_coverage() {
        let graph = Arc::new(UndirectedGraph::new(1));
        let config = EngineConfig::new(Thresholds::new(2, minutes(10), 0.7).unwrap());
        let mut engine = UniBin::new(config, graph);
        assert!(engine.offer_record(rec(1, 0, 0, 0)).is_emitted());
        // Same author+content but 11 minutes later: out of window.
        assert!(engine.offer_record(rec(2, 0, minutes(11), 0)).is_emitted());
        // 5 minutes after that: covered by post 2.
        assert_eq!(
            engine.offer_record(rec(3, 0, minutes(16), 0)),
            Decision::Covered { by: 2 }
        );
    }

    #[test]
    fn eviction_reclaims_memory() {
        let graph = Arc::new(UndirectedGraph::new(1));
        let config = EngineConfig::new(Thresholds::new(0, 1_000, 0.0).unwrap());
        let mut engine = UniBin::new(config, graph);
        for i in 0..10u64 {
            engine.offer_record(rec(i, 0, i * 10_000, i * 12345)); // all far apart in time
        }
        // Each arrival evicts the previous one: at most 1 record stored.
        assert_eq!(engine.metrics().copies_stored, 1);
        assert_eq!(engine.metrics().evictions, 9);
        assert_eq!(engine.memory_bytes(), PostRecord::SIZE_BYTES as u64);
    }

    #[test]
    fn newest_covering_post_wins() {
        // The scan is newest-first, so the most recent covering post is the
        // one reported.
        let graph = Arc::new(UndirectedGraph::new(1));
        let config = EngineConfig::new(Thresholds::new(64, minutes(30), 1.0).unwrap());
        let mut engine = UniBin::new(config, graph);
        engine.offer_record(rec(1, 0, 0, 0));
        // Post 2 has λc=64 so it is covered by post 1 and never stored.
        assert_eq!(engine.offer_record(rec(2, 0, 1, 0)).covered_by(), Some(1));
    }

    #[test]
    fn timestamp_extremes_offer_without_panic() {
        // Regression: eviction cutoffs and window scans must saturate at the
        // clock boundaries rather than under/overflow.
        let graph = Arc::new(UndirectedGraph::new(2));
        let config = EngineConfig::new(Thresholds::new(2, u64::MAX, 0.7).unwrap());
        let mut engine = UniBin::new(config, graph);
        assert!(engine.offer_record(rec(1, 0, 0, 0)).is_emitted());
        // λt = u64::MAX keeps post 1 in-window forever; same author + content
        // at the far end of the clock is covered, not wrapped out of range.
        assert_eq!(
            engine.offer_record(rec(2, 0, u64::MAX, 0)).covered_by(),
            Some(1)
        );
        // A finite window at the top of the clock still evicts cleanly.
        let config = EngineConfig::new(Thresholds::new(2, 1_000, 0.7).unwrap());
        let mut engine = UniBin::new(config, Arc::new(UndirectedGraph::new(2)));
        assert!(engine
            .offer_record(rec(1, 0, u64::MAX - 2_000, 0))
            .is_emitted());
        assert!(engine.offer_record(rec(2, 0, u64::MAX, 0)).is_emitted());
        assert_eq!(engine.metrics().evictions, 1);
    }

    #[test]
    fn comparison_counting_is_linear_in_bin() {
        let graph = Arc::new(UndirectedGraph::new(5));
        // Nothing ever covers (λc = 0 and all fingerprints distinct).
        let config = EngineConfig::new(Thresholds::new(0, minutes(60), 0.0).unwrap());
        let mut engine = UniBin::new(config, graph);
        for i in 0..5u64 {
            engine.offer_record(rec(i, i as u32, i, 1 << i));
        }
        // Arrival i compares against i stored posts: 0+1+2+3+4 = 10.
        assert_eq!(engine.metrics().comparisons, 10);
        assert_eq!(engine.metrics().insertions, 5);
    }
}
