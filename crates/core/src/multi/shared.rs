//! The shared multi-user engine: one user-labelled window for every user
//! (Section 5, `DESIGN.md` §9–§10).
//!
//! A post by author `a` is decided for every follower of `a` with one scan
//! of one window, whose records carry the users they were delivered to. It
//! is withheld from exactly the followers a covering record reached, and
//! delivered to the rest. The subscription table is read at offer time, so
//! churn is an edit of the table: nothing is recomputed, and a user's
//! coverage is always what that user was shown. Its per-user streams are
//! those of the static one-engine-per-user (`M_*`) and
//! one-engine-per-component (`S_*`) references in the `firehose-reference`
//! crate, and, under churn, those of its per-user churn oracle.

use std::sync::Arc;
use std::time::Instant;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, Post};

use crate::config::{EngineConfig, MemoryMode};
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::labelled::LabelledWindow;
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{read_multi_state, write_multi_state, ChurnStats, MultiDecision};
use crate::obs::MultiObs;
use crate::snapshot::SnapshotError;

/// The shared multi-user engine. It names itself `S_UniBin`,
/// `S_NeighborBin` or `S_CliqueBin` after the kind it was built with (the
/// name checkpoints are matched by); every kind makes the same decisions,
/// through the same scan.
pub struct SharedMulti {
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
    subscriptions: Subscriptions,
    churn: ChurnStats,
    /// Every delivered post in the λt window, labelled by user.
    window: LabelledWindow,
    /// Strategy-level instruments, when attached.
    obs: Option<MultiObs>,
}

impl SharedMulti {
    /// Build over one empty window.
    ///
    /// # Panics
    /// Panics if `config.memory` is [`MemoryMode::Approx`]. The window
    /// stores each in-window post once, which is the saving the approximate
    /// tier bought for per-user stores; a shared approximate store could
    /// not keep each user's retention.
    pub fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> Self {
        assert!(
            matches!(config.memory, MemoryMode::Exact),
            "the multi-user engine runs MemoryMode::Exact only"
        );
        SharedMulti {
            kind,
            config,
            window: LabelledWindow::new(&config, graph.node_count()),
            graph: Arc::new(graph.clone()),
            subscriptions,
            churn: ChurnStats::default(),
            obs: None,
        }
    }

    /// Attach strategy-level instruments (offer-latency histogram,
    /// live-copies gauge) labelled `{strategy="<name>"}` to
    /// `registry`.
    pub(crate) fn attach_obs(&mut self, registry: &firehose_obs::Registry) {
        self.obs = Some(MultiObs::register(registry, &self.name()));
    }

    /// Offer an arriving post; returns which users receive it. Users not
    /// subscribed to the post's author never appear.
    pub fn offer(&mut self, post: &Post) -> MultiDecision {
        let mut out = MultiDecision::default();
        self.offer_into(post, &mut out);
        out
    }

    /// Buffer-reusing variant of [`offer`](Self::offer): clears `out` and
    /// fills its `delivered_to` in place, avoiding one `Vec` allocation per
    /// post on the hot path.
    pub fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        let started = self.obs.is_some().then(Instant::now);
        let users = self.subscriptions.subscribers_of(post.author);
        if users.is_empty() {
            out.delivered_to.clear();
            self.window.skip(post.timestamp);
        } else {
            let record = post.to_record(self.config.simhash);
            self.window
                .offer(&self.graph, record, users, &mut out.delivered_to);
        }
        if let (Some(t0), Some(obs)) = (started, &self.obs) {
            obs.offer_latency.record_duration(t0.elapsed());
            obs.live_copies.set(self.window.len() as i64);
        }
    }

    /// Add a follow edge for an existing user. Returns `false` if the edge
    /// already existed.
    pub fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        let added = self.subscriptions.subscribe(user, author)?;
        self.churn.subscribes += u64::from(added);
        Ok(added)
    }

    /// Drop a follow edge. The user keeps what they were shown as coverage.
    /// Returns `false` if the edge did not exist.
    pub fn unsubscribe(
        &mut self,
        user: UserId,
        author: AuthorId,
    ) -> Result<bool, SubscriptionError> {
        let dropped = self.subscriptions.unsubscribe(user, author)?;
        self.churn.unsubscribes += u64::from(dropped);
        Ok(dropped)
    }

    /// Register a new user with the given subscription set; returns the new
    /// (stable, never reused) user id.
    pub fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let user = self.subscriptions.add_user(authors)?;
        self.churn.users_added += 1;
        Ok(user)
    }

    /// Tombstone a user: their id stays allocated, they receive nothing, and
    /// their labels age out of the window.
    pub fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError> {
        self.subscriptions.remove_user(user)?;
        self.churn.users_removed += 1;
        Ok(())
    }

    /// Counters for churn operations applied so far.
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn
    }

    /// The current subscription relation.
    pub fn subscriptions(&self) -> &Subscriptions {
        &self.subscriptions
    }

    /// The window's counters: `posts_processed` counts posts offered (one
    /// per post, whatever its fan-out), `comparisons` window records
    /// examined, `insertions` records stored (posts delivered to at least
    /// one user), and `peak_memory_bytes` the peak of record payload plus
    /// 4 B per label id.
    pub fn metrics(&self) -> EngineMetrics {
        self.window.metrics()
    }

    /// Current record payload plus 4 B per label id, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.window.memory_bytes()
    }

    /// User ids currently stored as labels, summed over the window's
    /// records: one per (record, user it was delivered to).
    pub fn label_ids(&self) -> u64 {
        self.window.label_ids()
    }

    /// Strategy name, e.g. `"S_CliqueBin"`.
    pub fn name(&self) -> String {
        format!("S_{}", self.kind)
    }

    /// Serialize the mutable state in the FHSNAP04 user-labelled layout:
    /// the churn ledger, the **current** subscription relation, and the
    /// window with user ids as labels. The bytes round-trip through
    /// [`restored`](Self::restored) on an engine built with the same kind
    /// and graph — the subscription state at build time does *not* have to
    /// match, because the embedded table replaces it.
    pub(crate) fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        write_multi_state(w, &self.churn, &self.subscriptions, &self.window)
    }

    /// Decode bytes previously produced by [`save_state`](Self::save_state),
    /// or by a component-era release (detected and converted, see
    /// `multi::components`), into a new engine of this kind over this graph.
    /// `self` is untouched; the new engine has no instruments until
    /// [`adopt`](Self::adopt)ed.
    pub(crate) fn restored(&self, r: &mut dyn std::io::Read) -> Result<SharedMulti, SnapshotError> {
        let state = read_multi_state(r, self.kind, &self.config, &self.graph, &self.subscriptions)?;
        let node_count = self.graph.node_count();
        if state.subscriptions.author_count() > node_count {
            return Err(SnapshotError::StructureMismatch(
                "subscription table names authors outside the graph",
            ));
        }
        let window = LabelledWindow::restore(
            &self.config,
            node_count,
            state.subscriptions.user_count(),
            state.window,
        )?;
        Ok(SharedMulti {
            kind: self.kind,
            config: self.config,
            graph: Arc::clone(&self.graph),
            subscriptions: state.subscriptions,
            churn: state.churn,
            window,
            obs: None,
        })
    }

    /// Take over `restored`'s state, keeping this engine's instruments.
    pub(crate) fn adopt(&mut self, restored: SharedMulti) {
        let obs = self.obs.take();
        *self = SharedMulti { obs, ..restored };
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

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    #[test]
    #[should_panic(expected = "MemoryMode::Exact only")]
    fn approx_memory_panics() {
        let (graph, subs) = figure7();
        let mut config = EngineConfig::paper_defaults();
        config.memory = MemoryMode::Approx(crate::config::ApproxConfig::default());
        SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
    }

    #[test]
    fn figure7_a4_divergence() {
        // "it is possible that some posts from a4 are shown to u1 but not to
        // u2 if they are covered by a5's posts."
        let (graph, subs) = figure7();
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs);

        // a5 (author 4) posts; only u2 subscribes.
        let d = s.offer(&Post::new(1, 4, 0, "match highlights video replay".into()));
        assert_eq!(d.delivered_to, vec![1]);
        // a4 (author 3) posts a near-duplicate: u1 sees it (they never saw
        // post 1); u2 does not (post 1 covers it for them).
        let d = s.offer(&Post::new(
            2,
            3,
            60_000,
            "match highlights video replay".into(),
        ));
        assert_eq!(d.delivered_to, vec![0]);
        assert_eq!(s.label_ids(), 2, "post 1 to u2, post 2 to u1");
    }

    #[test]
    fn shared_component_posts_delivered_identically() {
        let (graph, subs) = figure7();
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs);
        let d = s.offer(&Post::new(1, 0, 0, "shared component news item".into()));
        assert_eq!(d.delivered_to, vec![0, 1]);
        // Near-duplicate by similar author 1: covered for both.
        let d = s.offer(&Post::new(2, 1, 1_000, "shared component news item".into()));
        assert!(d.delivered_to.is_empty());
        assert_eq!(s.metrics().insertions, 1);
    }

    #[test]
    fn all_kinds_share_identically() {
        let (graph, subs) = figure7();
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
            let mut s = SharedMulti::new(kind, config(), &graph, subs.clone());
            let out: Vec<_> = posts.iter().map(|p| s.offer(p)).collect();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "UniBin vs NeighborBin");
        assert_eq!(outputs[0], outputs[2], "UniBin vs CliqueBin");
    }

    #[test]
    fn churn_edits_the_table_and_counts_effective_ops() {
        let (graph, subs) = figure7();
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs);
        assert!(s.unsubscribe(1, 4).unwrap());
        assert!(!s.unsubscribe(1, 4).unwrap(), "already gone");
        assert!(!s.subscribe(0, 1).unwrap(), "already followed");
        let d = s.offer(&Post::new(1, 3, 0, "who will cover this now".into()));
        assert_eq!(d.delivered_to, vec![0, 1]);
        let u = s.add_user(&[3]).unwrap();
        s.remove_user(0).unwrap();
        let d = s.offer(&Post::new(2, 4, 1_000, "unrelated story".into()));
        assert!(d.delivered_to.is_empty(), "nobody follows author 4 now");
        let d = s.offer(&Post::new(3, 3, 2_000, "a third story".into()));
        assert_eq!(d.delivered_to, vec![1, u], "removed u1 receives nothing");
        assert_eq!(
            s.churn_stats(),
            ChurnStats {
                unsubscribes: 1,
                users_added: 1,
                users_removed: 1,
                ..ChurnStats::default()
            }
        );
    }

    /// A table narrower than the graph routes a post by an author outside
    /// it to nobody; restoring a table wider than the graph is refused.
    #[test]
    fn table_and_graph_widths() {
        let (graph, subs) = figure7();
        let narrow = Subscriptions::new(4, vec![vec![0, 1]]).unwrap();
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, narrow);
        assert!(s
            .offer(&Post::new(1, 5, 0, "outside".into()))
            .delivered_to
            .is_empty());
        assert_eq!(s.metrics().posts_processed, 1);

        let wide_graph = UndirectedGraph::from_edges(8, [(0, 1)]);
        let wide = Subscriptions::new(8, vec![vec![0, 7]]).unwrap();
        let written = SharedMulti::new(AlgorithmKind::UniBin, config(), &wide_graph, wide);
        let mut buf = Vec::new();
        written.save_state(&mut buf).unwrap();
        let target = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs);
        let Err(err) = target.restored(&mut &buf[..]) else {
            panic!("an 8-author table must not restore over a 6-author graph");
        };
        assert!(
            matches!(err, SnapshotError::StructureMismatch(_)),
            "{err:?}"
        );
    }

    /// Labels are user ids of the embedded table: a label at or past its
    /// user count names nobody, and the state is refused.
    #[test]
    fn window_label_outside_the_table_is_a_structure_mismatch() {
        let (graph, subs) = figure7();
        let mut s = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        assert_eq!(
            s.offer(&Post::new(1, 4, 0, "only u2 follows a5".into()))
                .delivered_to,
            [1]
        );
        let mut buf = Vec::new();
        s.save_state(&mut buf).unwrap();
        assert!(s.restored(&mut &buf[..]).is_ok());

        let one_user = Subscriptions::new(6, vec![vec![0, 4]]).unwrap();
        let mut buf = Vec::new();
        write_multi_state(&mut buf, &s.churn, &one_user, &s.window).unwrap();
        let Err(err) = s.restored(&mut &buf[..]) else {
            panic!("label 1 of a 1-user table must be refused");
        };
        assert!(
            matches!(err, SnapshotError::StructureMismatch(_)),
            "{err:?}"
        );
    }
}
