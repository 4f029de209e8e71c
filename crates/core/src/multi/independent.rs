//! `M_*`: one single-user engine per user — the paper's static reference
//! for Figure 16 and the M = S identity tests. The service never builds it.

use firehose_graph::UndirectedGraph;
use firehose_stream::Post;

use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::compact::CompactEngine;
use crate::multi::subscriptions::{Subscriptions, UserId};
use crate::multi::MultiDecision;

/// `M_UniBin` / `M_NeighborBin` / `M_CliqueBin`: every user's stream is
/// diversified independently. Shared subscriptions are re-processed once per
/// subscriber — the baseline Section 5 improves upon. The subscription table
/// is fixed at construction.
pub struct IndependentMulti {
    kind: AlgorithmKind,
    config: EngineConfig,
    subscriptions: Subscriptions,
    /// One engine per user id. Tombstoned users keep a (member-less) engine
    /// so indices stay aligned; it receives no offers.
    engines: Vec<CompactEngine>,
    /// Stream time of the last global eviction sweep. Hosting thousands of
    /// engines, the multi-user engines sweep idle bins every λt/2 of stream
    /// time so memory tracks the live window (a timer in a real deployment).
    last_sweep: firehose_stream::Timestamp,
    /// Record copies currently stored across all sub-engines.
    live_copies: u64,
    /// Peak of `live_copies` — the true simultaneous footprint. (Summing
    /// per-engine peaks would overstate it: thousands of engines peak at
    /// different moments.)
    peak_live_copies: u64,
}

impl IndependentMulti {
    /// Build one engine per user over the subgraph of `graph` induced by the
    /// user's subscriptions.
    pub fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> Self {
        let engines = (0..subscriptions.user_count() as UserId)
            .map(|u| CompactEngine::build(kind, config, graph, subscriptions.authors_of(u)))
            .collect();
        Self {
            kind,
            config,
            subscriptions,
            engines,
            last_sweep: 0,
            live_copies: 0,
            peak_live_copies: 0,
        }
    }

    /// Offer an arriving post; returns which users receive it. Users not
    /// subscribed to the post's author never appear.
    pub fn offer(&mut self, post: &Post) -> MultiDecision {
        let mut out = MultiDecision::default();
        self.offer_into(post, &mut out);
        out
    }

    /// Buffer-reusing variant of [`offer`](Self::offer): clears `out` and
    /// fills its `delivered_to` in place.
    pub fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        out.delivered_to.clear();
        // Periodic global eviction sweep (see `last_sweep`).
        let sweep_every = (self.config.thresholds.lambda_t / 2).max(1);
        if post.timestamp.saturating_sub(self.last_sweep) >= sweep_every {
            self.last_sweep = post.timestamp;
            for engine in &mut self.engines {
                engine.evict_expired(post.timestamp);
            }
            // Recompute the authoritative live-copy count after the sweep.
            self.live_copies = self.engines.iter().map(|e| e.metrics().copies_stored).sum();
        }

        // Fingerprint once, and only when someone subscribes to the author.
        let mut record = None;
        for &u in self.subscriptions.subscribers_of(post.author) {
            let record = *record.get_or_insert_with(|| post.to_record(self.config.simhash));
            let engine = &mut self.engines[u as usize];
            let before = engine.metrics().copies_stored;
            // The subscription relation says this user's engine contains the
            // author; if the maps ever disagree, skip the engine rather than
            // take down the whole stream.
            let Some(verdict) = engine.offer(record) else {
                continue;
            };
            let after = engine.metrics().copies_stored;
            self.live_copies = (self.live_copies + after).saturating_sub(before);
            if verdict.is_emitted() {
                out.delivered_to.push(u);
            }
        }
        self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
    }

    /// Aggregated counters across all per-user engines, with the tracked
    /// simultaneous peak (see `peak_live_copies`) in place of the summed
    /// per-engine peaks.
    pub fn metrics(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for e in &self.engines {
            total.merge(e.metrics());
        }
        total.peak_copies = self.peak_live_copies.max(total.copies_stored);
        total.peak_memory_bytes =
            total.peak_copies * firehose_stream::PostRecord::SIZE_BYTES as u64;
        total
    }

    /// Strategy name, e.g. `"M_UniBin"`.
    pub fn name(&self) -> String {
        format!("M_{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    fn setup(kind: AlgorithmKind) -> IndependentMulti {
        // G: 0-1 similar, 2 isolated. Users: u0 follows {0,1}, u1 follows {1,2}.
        let graph = UndirectedGraph::from_edges(3, [(0, 1)]);
        let subs = Subscriptions::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        IndependentMulti::new(kind, config, &graph, subs)
    }

    #[test]
    fn routes_to_subscribers_only() {
        for kind in AlgorithmKind::ALL {
            let mut m = setup(kind);
            let d = m.offer(&Post::new(1, 0, 0, "first post about topic x".into()));
            assert_eq!(d.delivered_to, vec![0], "{kind}: only u0 follows author 0");
            let d = m.offer(&Post::new(2, 2, 1_000, "a different story entirely".into()));
            assert_eq!(d.delivered_to, vec![1]);
        }
    }

    #[test]
    fn per_user_coverage_is_independent() {
        for kind in AlgorithmKind::ALL {
            let mut m = setup(kind);
            // Author 0's post reaches u0.
            let d = m.offer(&Post::new(1, 0, 0, "breaking news about the ferry".into()));
            assert_eq!(d.delivered_to, vec![0]);
            // Near-duplicate from author 1 (similar to 0): u0 covered (saw
            // post 1), u1 emitted (never saw post 1).
            let d = m.offer(&Post::new(
                2,
                1,
                1_000,
                "breaking news about the ferry".into(),
            ));
            assert_eq!(d.delivered_to, vec![1], "{kind}");
        }
    }

    #[test]
    fn unsubscribed_author_goes_nowhere() {
        let graph = UndirectedGraph::new(2);
        let subs = Subscriptions::new(2, vec![vec![0]]).unwrap();
        let mut m = IndependentMulti::new(
            AlgorithmKind::UniBin,
            EngineConfig::paper_defaults(),
            &graph,
            subs,
        );
        let d = m.offer(&Post::new(1, 1, 0, "nobody subscribes to me".into()));
        assert!(d.delivered_to.is_empty());
    }

    #[test]
    fn metrics_aggregate_across_users() {
        let mut m = setup(AlgorithmKind::UniBin);
        m.offer(&Post::new(1, 1, 0, "a post both users receive".into()));
        let metrics = m.metrics();
        // Author 1 has two subscribers: two engine offers.
        assert_eq!(metrics.posts_processed, 2);
        assert_eq!(metrics.posts_emitted, 2);
        assert_eq!(metrics.insertions, 2);
    }
}
