//! `S_*`: one engine per distinct connected component (Section 5).
//!
//! Posts from a connected component `g` of a user's similarity subgraph `Gi`
//! can only be covered by posts from `g`, so the diversified stream of `g` is
//! identical for every user whose decomposition contains exactly `g`. The
//! engine therefore:
//!
//! 1. decomposes each user's subscription set into connected components of
//!    the induced similarity subgraph,
//! 2. deduplicates components across users by their (sorted) member list,
//! 3. runs one single-user engine per distinct component, and
//! 4. delivers an emitted post of component `g` to every user of `g`.
//!
//! The decomposition lives in a refcounted `ComponentRegistry` and is
//! maintained *incrementally* under subscription churn — see `DESIGN.md` §9.
//! [`SharedMulti`] drives that registry on the calling thread, one post at a
//! time (`DESIGN.md` §10).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use firehose_graph::{UndirectedGraph, UnionFind};
use firehose_stream::{AuthorId, Post};

use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::registry::ComponentRegistry;
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{ChurnStats, MultiDecision, MultiDiversifier};
use crate::obs::MultiObs;

/// Decompose a user's (sorted) subscription set into connected components of
/// the similarity subgraph induced on it. Returns sorted member lists,
/// ordered by smallest member.
pub(crate) fn user_components(graph: &UndirectedGraph, authors: &[AuthorId]) -> Vec<Vec<AuthorId>> {
    let local: HashMap<AuthorId, u32> = authors
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u32))
        .collect();
    let mut uf = UnionFind::new(authors.len());
    for (i, &a) in authors.iter().enumerate() {
        for &b in graph.neighbors(a) {
            if b > a {
                if let Some(&j) = local.get(&b) {
                    uf.union(i as u32, j);
                }
            }
        }
    }
    let mut groups: HashMap<u32, Vec<AuthorId>> = HashMap::new();
    for (i, &a) in authors.iter().enumerate() {
        groups.entry(uf.find(i as u32)).or_default().push(a);
    }
    let mut comps: Vec<Vec<AuthorId>> = groups.into_values().collect();
    // Author lists inherit sortedness from `authors`; order components.
    comps.sort_by_key(|c| c[0]);
    comps
}

/// Builder for [`SharedMulti`]; see [`SharedMulti::builder`].
pub struct SharedBuilder<'g> {
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: &'g UndirectedGraph,
    subscriptions: Subscriptions,
    warm_start: bool,
}

impl SharedBuilder<'_> {
    /// Whether engines spawned by churn inherit their predecessors'
    /// in-window records (default `true`); see
    /// [`IndependentBuilder::warm_start`](crate::multi::IndependentBuilder::warm_start).
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Build the component decomposition and the per-component engines.
    pub fn build(self) -> SharedMulti {
        let registry = ComponentRegistry::new(
            self.kind,
            self.config,
            Arc::new(self.graph.clone()),
            self.subscriptions,
            self.warm_start,
        );
        SharedMulti {
            registry,
            obs: None,
        }
    }
}

/// The shared-component multi-user engine: `S_UniBin`, `S_NeighborBin`,
/// `S_CliqueBin`.
pub struct SharedMulti {
    /// Engines, routing, subscriptions and churn ledger.
    registry: ComponentRegistry,
    /// Strategy-level instruments, when attached.
    obs: Option<MultiObs>,
}

impl SharedMulti {
    /// Build the component decomposition and the per-component engines.
    pub fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> Self {
        Self::builder(kind, config, graph, subscriptions).build()
    }

    /// Start building an `S_*` strategy; see [`SharedBuilder`].
    pub fn builder(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> SharedBuilder<'_> {
        SharedBuilder {
            kind,
            config,
            graph,
            subscriptions,
            warm_start: true,
        }
    }

    /// Attach strategy-level instruments (offer-latency histogram, sweep
    /// counter, live-copies gauge) labelled `{strategy="<name>"}` to
    /// `registry`.
    pub(crate) fn attach_obs(&mut self, registry: &firehose_obs::Registry) {
        self.obs = Some(MultiObs::register(registry, &MultiDiversifier::name(self)));
    }

    /// Number of distinct components (= number of engines).
    pub fn component_count(&self) -> usize {
        self.registry.component_count()
    }
}

impl MultiDiversifier for SharedMulti {
    fn offer(&mut self, post: &Post) -> MultiDecision {
        let mut out = MultiDecision::default();
        self.offer_into(post, &mut out);
        out
    }

    fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        let started = self.obs.is_some().then(Instant::now);
        let swept = self.registry.offer(post, out);
        if let (Some(t0), Some(obs)) = (started, &self.obs) {
            if swept {
                obs.sweeps.inc();
            }
            obs.offer_latency.record_duration(t0.elapsed());
            obs.live_copies.set(self.registry.live_copies as i64);
        }
    }

    fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        self.registry.subscribe(user, author)
    }

    fn unsubscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        self.registry.unsubscribe(user, author)
    }

    fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        self.registry.add_user(authors)
    }

    fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError> {
        self.registry.remove_user(user)
    }

    fn churn_stats(&self) -> ChurnStats {
        self.registry.churn
    }

    fn subscriptions(&self) -> &Subscriptions {
        &self.registry.subscriptions
    }

    fn metrics(&self) -> EngineMetrics {
        self.registry.metrics_total()
    }

    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        self.registry.approx_stats_total()
    }

    fn name(&self) -> String {
        format!("S_{}", self.registry.kind())
    }

    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.registry.save_state(w)
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.registry.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    /// The paper's Figure 7 setting: G over authors a1..a6 (0..5) where
    /// {a1,a2,a6} = {0,1,5} form a connected component in both users'
    /// subgraphs, and a4 (3) is connected to a5 (4) which only u2 follows.
    fn figure7() -> (UndirectedGraph, Subscriptions) {
        // Edges: 0-1, 0-5 (component {0,1,5}); 3-4.
        let graph = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        // u1 follows {0,1,3,5}; u2 follows {0,1,3,4,5}.
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        (graph, subs)
    }

    #[test]
    fn user_components_decomposition() {
        let (graph, subs) = figure7();
        let c1 = user_components(&graph, subs.authors_of(0));
        assert_eq!(c1, vec![vec![0, 1, 5], vec![3]]);
        let c2 = user_components(&graph, subs.authors_of(1));
        assert_eq!(c2, vec![vec![0, 1, 5], vec![3, 4]]);
    }

    #[test]
    fn shares_identical_components_only() {
        let (graph, subs) = figure7();
        let s = SharedMulti::new(
            AlgorithmKind::UniBin,
            EngineConfig::paper_defaults(),
            &graph,
            subs,
        );
        // {0,1,5} shared; {3} for u1; {3,4} for u2 → 3 distinct engines.
        assert_eq!(s.component_count(), 3);
    }

    #[test]
    fn figure7_a4_divergence() {
        // "it is possible that some posts from a4 are shown to u1 but not to
        // u2 if they are covered by a5's posts."
        let (graph, subs) = figure7();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs);

        // a5 (author 4) posts; only u2 subscribes.
        let d = s.offer(&Post::new(1, 4, 0, "match highlights video replay".into()));
        assert_eq!(d.delivered_to, vec![1]);
        // a4 (author 3) posts a near-duplicate: u1 sees it (her component {3}
        // never saw post 1); u2 does not (covered within {3,4}).
        let d = s.offer(&Post::new(
            2,
            3,
            60_000,
            "match highlights video replay".into(),
        ));
        assert_eq!(d.delivered_to, vec![0]);
    }

    #[test]
    fn shared_component_posts_delivered_identically() {
        let (graph, subs) = figure7();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
        let d = s.offer(&Post::new(1, 0, 0, "shared component news item".into()));
        assert_eq!(d.delivered_to, vec![0, 1]);
        // Near-duplicate by similar author 1: covered for both.
        let d = s.offer(&Post::new(2, 1, 1_000, "shared component news item".into()));
        assert!(d.delivered_to.is_empty());
    }

    #[test]
    fn sharing_reduces_work() {
        let (graph, subs) = figure7();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs.clone());
        let mut m =
            crate::multi::IndependentMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
        for i in 0..10u64 {
            let p = Post::new(
                i,
                (i % 6) as u32,
                i * 10_000,
                format!("post number {i} body"),
            );
            s.offer(&p);
            m.offer(&p);
        }
        assert!(
            s.metrics().posts_processed < m.metrics().posts_processed,
            "shared engines must process fewer (post, engine) pairs"
        );
    }

    #[test]
    fn all_kinds_share_identically() {
        let (graph, subs) = figure7();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let posts: Vec<Post> = (0..30u64)
            .map(|i| {
                Post::new(
                    i,
                    (i % 6) as u32,
                    i * 5_000,
                    format!("body of post {}", i % 7),
                )
            })
            .collect();
        let mut outputs = Vec::new();
        for kind in AlgorithmKind::ALL {
            let mut s = SharedMulti::new(kind, config, &graph, subs.clone());
            let out: Vec<_> = posts.iter().map(|p| s.offer(p)).collect();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "UniBin vs NeighborBin");
        assert_eq!(outputs[0], outputs[2], "UniBin vs CliqueBin");
    }

    #[test]
    fn churned_delivery_matches_fresh_build() {
        // After u2 unsubscribes author 4, the {3,4} component splits and a4's
        // posts reach both users independently — same as a fresh build over
        // the final subscriptions.
        let (graph, subs) = figure7();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
        assert!(s.unsubscribe(1, 4).unwrap());
        assert_eq!(s.churn_stats().unsubscribes, 1);
        let d = s.offer(&Post::new(1, 3, 0, "who will cover this now".into()));
        assert_eq!(d.delivered_to, vec![0, 1]);
        // Both users now hold the same {3} component: one engine serves both.
        assert_eq!(s.component_count(), 2); // {0,1,5} and {3}
    }
}
