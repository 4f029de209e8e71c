//! The paper's static references for Figure 16 and the M = S = L identity
//! tests: `M_*` runs one single-user engine per user, `S_*` one per
//! distinct connected component (Section 5's sharing, engine by engine).
//! The service never builds either.

use firehose_graph::UndirectedGraph;
use firehose_stream::Post;

use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::compact::CompactEngine;
use crate::multi::shared::user_components;
use crate::multi::subscriptions::{Subscriptions, UserId};
use crate::multi::MultiDecision;

/// `M_UniBin` / `M_NeighborBin` / `M_CliqueBin` ([`new`](Self::new)) or
/// `S_UniBin` / `S_NeighborBin` / `S_CliqueBin`
/// ([`per_component`](Self::per_component)) over a subscription table fixed
/// at construction. `M_*` re-processes shared subscriptions once per
/// subscriber — the baseline Section 5 improves upon; `S_*` runs one engine
/// per distinct component and fans its emissions out to the component's
/// users.
pub struct IndependentMulti {
    kind: AlgorithmKind,
    config: EngineConfig,
    /// `"M"` or `"S"`.
    family: &'static str,
    engines: Vec<CompactEngine>,
    /// Users served by each engine, ascending.
    users: Vec<Vec<UserId>>,
    /// Author → engines whose member set contains it.
    routes: Vec<Vec<u32>>,
    /// Stream time of the last global eviction sweep. Hosting thousands of
    /// engines, the references sweep idle bins every λt/2 of stream time so
    /// memory tracks the live window (a timer in a real deployment).
    last_sweep: firehose_stream::Timestamp,
    /// Record copies currently stored across all sub-engines.
    live_copies: u64,
    /// Peak of `live_copies` — the true simultaneous footprint. (Summing
    /// per-engine peaks would overstate it: thousands of engines peak at
    /// different moments.)
    peak_live_copies: u64,
}

impl IndependentMulti {
    /// `M_*`: one engine per user over the subgraph of `graph` induced by
    /// the user's subscriptions.
    pub fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> Self {
        let groups = (0..subscriptions.user_count() as UserId)
            .filter(|&u| subscriptions.is_active(u))
            .map(|u| (subscriptions.authors_of(u).to_vec(), vec![u]))
            .collect();
        Self::from_groups(kind, config, graph, "M", groups)
    }

    /// `S_*`: one engine per distinct connected component of the users'
    /// subscription subgraphs, built in (user, smallest member) order.
    pub fn per_component(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> Self {
        let mut index: std::collections::HashMap<Vec<u32>, usize> = Default::default();
        let mut groups: Vec<(Vec<u32>, Vec<UserId>)> = Vec::new();
        let mut local = Vec::new();
        for u in 0..subscriptions.user_count() as UserId {
            if !subscriptions.is_active(u) {
                continue;
            }
            for members in user_components(graph, subscriptions.authors_of(u), &mut local) {
                let next = groups.len();
                let i = *index.entry(members.clone()).or_insert(next);
                if i == next {
                    groups.push((members, Vec::new()));
                }
                groups[i].1.push(u);
            }
        }
        Self::from_groups(kind, config, graph, "S", groups)
    }

    /// One engine per `(members, users)` group.
    fn from_groups(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        family: &'static str,
        groups: Vec<(Vec<u32>, Vec<UserId>)>,
    ) -> Self {
        let mut routes = vec![Vec::new(); graph.node_count()];
        let mut engines = Vec::with_capacity(groups.len());
        let mut users = Vec::with_capacity(groups.len());
        for (i, (members, group_users)) in groups.into_iter().enumerate() {
            for &a in &members {
                routes[a as usize].push(i as u32);
            }
            engines.push(CompactEngine::build(kind, config, graph, &members));
            users.push(group_users);
        }
        Self {
            kind,
            config,
            family,
            engines,
            users,
            routes,
            last_sweep: 0,
            live_copies: 0,
            peak_live_copies: 0,
        }
    }

    /// Number of sub-engines (users for `M_*`, distinct components for
    /// `S_*`).
    pub fn engine_count(&self) -> usize {
        self.engines.len()
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

        // Fingerprint once, and only when some engine holds the author.
        let mut record = None;
        for &i in &self.routes[post.author as usize] {
            let record = *record.get_or_insert_with(|| post.to_record(self.config.simhash));
            let engine = &mut self.engines[i as usize];
            let before = engine.metrics().copies_stored;
            let emitted = engine.offer(record).is_some_and(|v| v.is_emitted());
            let after = engine.metrics().copies_stored;
            self.live_copies = (self.live_copies + after).saturating_sub(before);
            if emitted {
                out.delivered_to.extend_from_slice(&self.users[i as usize]);
            }
        }
        // A user holds at most one engine containing the author.
        out.delivered_to.sort_unstable();
        self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
    }

    /// Aggregated counters across all sub-engines, with the tracked
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

    /// Strategy name, e.g. `"M_UniBin"` or `"S_UniBin"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.family, self.kind)
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
    fn per_component_shares_engines_and_streams() {
        // Figure 7: {0,1,5} shared, {3} for u0, {3,4} for u1.
        let graph = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut s =
            IndependentMulti::per_component(AlgorithmKind::UniBin, config, &graph, subs.clone());
        let mut m = IndependentMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
        assert_eq!(s.engine_count(), 3);
        assert_eq!(s.name(), "S_UniBin");
        for i in 0..30u64 {
            let p = Post::new(i, (i % 6) as u32, i * 5_000, format!("body {}", i % 7));
            assert_eq!(s.offer(&p), m.offer(&p), "post {i}");
        }
        assert!(s.metrics().posts_processed < m.metrics().posts_processed);
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
