//! `M_*`: one single-user engine per user.

use std::collections::HashMap;
use std::sync::Arc;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, Post, PostRecord};

use crate::config::EngineConfig;
use crate::decision::Decision;
use crate::engine::{build_engine, order_window_records, AlgorithmKind, Diversifier};
use crate::metrics::EngineMetrics;
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{
    load_engine_blob, read_multi_state, write_multi_state, BuildError, ChurnStats, MultiDecision,
    MultiDiversifier, MultiState,
};
use crate::obs::MultiObs;

/// A single-user engine over a compact relabeling of a subset of authors.
///
/// Per-user (and per-component) engines must not allocate `m`-sized bin
/// tables for a handful of subscriptions, so the author subset is relabeled
/// to dense local ids `0..k` and the engine runs on the induced subgraph.
pub(crate) struct CompactEngine {
    engine: Box<dyn Diversifier + Send>,
    local_id: HashMap<AuthorId, u32>,
    /// Sorted member list; `members[local]` reverses `local_id`.
    members: Vec<AuthorId>,
}

impl CompactEngine {
    /// Build an engine of `kind` over the subgraph of `global` induced by
    /// `members` (sorted, deduplicated author ids).
    pub(crate) fn build(
        kind: AlgorithmKind,
        mut config: EngineConfig,
        global: &UndirectedGraph,
        members: &[AuthorId],
    ) -> Self {
        // This engine sees only its members' posts: scale the bin-presizing
        // rate hint to their share of the global stream (assuming uniform
        // posting). Thresholds and decisions are untouched.
        if global.node_count() > 0 {
            config.expected_rate =
                config.expected_rate * members.len() as f64 / global.node_count() as f64;
        }
        let local_id: HashMap<AuthorId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        let mut g = UndirectedGraph::new(members.len());
        for (i, &a) in members.iter().enumerate() {
            for &b in global.neighbors(a) {
                if b > a {
                    if let Some(&j) = local_id.get(&b) {
                        g.add_edge(i as u32, j);
                    }
                }
            }
        }
        Self {
            engine: build_engine(kind, config, Arc::new(g)),
            local_id,
            members: members.to_vec(),
        }
    }

    /// Offer a record whose author is translated to the local id space.
    /// Returns `None` when the author is not a member (not subscribed).
    pub(crate) fn offer(&mut self, mut record: PostRecord) -> Option<Decision> {
        let &local = self.local_id.get(&record.author)?;
        record.author = local;
        Some(self.engine.offer_record(record))
    }

    pub(crate) fn metrics(&self) -> &EngineMetrics {
        self.engine.metrics()
    }

    pub(crate) fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        self.engine.approx_stats()
    }

    /// Sweep all bins of the wrapped engine.
    pub(crate) fn evict_expired(&mut self, now: firehose_stream::Timestamp) {
        self.engine.evict_expired(now);
    }

    /// Append the engine's distinct in-window records to `out` with authors
    /// translated back to **global** ids — the warm-start handoff format
    /// (see [`Diversifier::window_records`]).
    pub(crate) fn window_records_into(&self, out: &mut Vec<PostRecord>) {
        let start = out.len();
        self.engine.window_records(out);
        for r in &mut out[start..] {
            r.author = self.members[r.author as usize];
        }
    }

    /// Seed a record (global author id) into the engine's bins as if it had
    /// been emitted (see [`Diversifier::seed_record`]). Silently skips
    /// non-members — callers filter, this is the backstop.
    pub(crate) fn seed(&mut self, mut record: PostRecord) {
        let Some(&local) = self.local_id.get(&record.author) else {
            return;
        };
        record.author = local;
        self.engine.seed_record(record);
    }

    /// Serialize the wrapped engine's mutable state (see
    /// [`Diversifier::save_state`]).
    pub(crate) fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.engine.save_state(w)
    }

    /// Restore the wrapped engine's mutable state (see
    /// [`Diversifier::load_state`]).
    pub(crate) fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.engine.load_state(r)
    }
}

/// Builder for [`IndependentMulti`]; see
/// [`IndependentMulti::builder`].
pub struct IndependentBuilder<'g> {
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: &'g UndirectedGraph,
    subscriptions: Subscriptions,
    warm_start: bool,
}

impl IndependentBuilder<'_> {
    /// Whether engines rebuilt by churn inherit their predecessor's
    /// in-window records (default `true`). Disable to get cold rebuilds
    /// whose streams match a freshly built strategy immediately instead of
    /// after λt.
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Build one engine per user.
    pub fn build(self) -> Result<IndependentMulti, BuildError> {
        let users = self.subscriptions.user_count();
        let engines = (0..users as UserId)
            .map(|u| {
                CompactEngine::build(
                    self.kind,
                    self.config,
                    self.graph,
                    self.subscriptions.authors_of(u),
                )
            })
            .collect();
        Ok(IndependentMulti {
            kind: self.kind,
            config: self.config,
            graph: Arc::new(self.graph.clone()),
            subscriptions: self.subscriptions,
            engines,
            warm_start: self.warm_start,
            churn: ChurnStats {
                // One engine per user id at construction (tombstoned users
                // included — their member-less engines exist too).
                initial_engines: users as u64,
                ..ChurnStats::default()
            },
            last_sweep: 0,
            live_copies: 0,
            peak_live_copies: 0,
            obs: None,
        })
    }
}

/// `M_UniBin` / `M_NeighborBin` / `M_CliqueBin`: every user's stream is
/// diversified independently. Shared subscriptions are re-processed once per
/// subscriber — the baseline Section 5 improves upon.
pub struct IndependentMulti {
    kind: AlgorithmKind,
    config: EngineConfig,
    /// The global similarity graph, retained for churn-time engine rebuilds.
    graph: Arc<UndirectedGraph>,
    subscriptions: Subscriptions,
    /// One engine per user id. Tombstoned users keep a (member-less) engine
    /// so indices stay aligned; it receives no offers.
    engines: Vec<CompactEngine>,
    /// Warm-start churn-rebuilt engines from the predecessor's window.
    warm_start: bool,
    /// Churn ledger (persisted in FHSNAP04 state).
    churn: ChurnStats,
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
    /// Strategy-level instruments, when attached.
    obs: Option<MultiObs>,
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
        Self::builder(kind, config, graph, subscriptions)
            .build()
            .expect("default build cannot fail")
    }

    /// Start building an `M_*` strategy; see [`IndependentBuilder`].
    pub fn builder(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> IndependentBuilder<'_> {
        IndependentBuilder {
            kind,
            config,
            graph,
            subscriptions,
            warm_start: true,
        }
    }

    /// Attach strategy-level instruments (offer-latency histogram, sweep
    /// counter, live-copies gauge) labelled `{strategy="M_<kind>"}` to
    /// `registry`.
    pub(crate) fn attach_obs(&mut self, registry: &firehose_obs::Registry) {
        self.obs = Some(MultiObs::register(registry, &MultiDiversifier::name(self)));
    }

    /// Rebuild user `u`'s engine over their current subscription set,
    /// optionally inheriting the old engine's in-window records (restricted
    /// to authors still subscribed).
    fn rebuild_user_engine(&mut self, u: UserId) {
        let old = &self.engines[u as usize];
        let mut seeds = Vec::new();
        if self.warm_start {
            old.window_records_into(&mut seeds);
            order_window_records(&mut seeds);
        }
        let members = self.subscriptions.authors_of(u);
        let mut engine = CompactEngine::build(self.kind, self.config, &self.graph, members);
        let mut seeded = 0u64;
        for r in &seeds {
            if members.binary_search(&r.author).is_ok() {
                engine.seed(*r);
                seeded += 1;
            }
        }
        if seeded > 0 {
            self.churn.warm_starts += 1;
        }
        self.live_copies = self.live_copies.saturating_sub(old.metrics().copies_stored)
            + engine.metrics().copies_stored;
        self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
        self.engines[u as usize] = engine;
        self.churn.engines_spawned += 1;
        self.churn.engines_retired += 1;
    }
}

impl MultiDiversifier for IndependentMulti {
    fn offer(&mut self, post: &Post) -> MultiDecision {
        let mut out = MultiDecision::default();
        self.offer_into(post, &mut out);
        out
    }

    fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        out.delivered_to.clear();
        let started = self.obs.is_some().then(std::time::Instant::now);
        // Periodic global eviction sweep (see `last_sweep`).
        let sweep_every = (self.config.thresholds.lambda_t / 2).max(1);
        if post.timestamp.saturating_sub(self.last_sweep) >= sweep_every {
            self.last_sweep = post.timestamp;
            for engine in &mut self.engines {
                engine.evict_expired(post.timestamp);
            }
            // Recompute the authoritative live-copy count after the sweep.
            self.live_copies = self.engines.iter().map(|e| e.metrics().copies_stored).sum();
            if let Some(obs) = &self.obs {
                obs.sweeps.inc();
            }
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
        if let (Some(t0), Some(obs)) = (started, &self.obs) {
            obs.offer_latency.record_duration(t0.elapsed());
            obs.live_copies.set(self.live_copies as i64);
        }
    }

    fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        if !self.subscriptions.subscribe(user, author)? {
            return Ok(false);
        }
        self.rebuild_user_engine(user);
        self.churn.subscribes += 1;
        Ok(true)
    }

    fn unsubscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        if !self.subscriptions.unsubscribe(user, author)? {
            return Ok(false);
        }
        self.rebuild_user_engine(user);
        self.churn.unsubscribes += 1;
        Ok(true)
    }

    fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let u = self.subscriptions.add_user(authors)?;
        self.engines.push(CompactEngine::build(
            self.kind,
            self.config,
            &self.graph,
            self.subscriptions.authors_of(u),
        ));
        self.churn.users_added += 1;
        self.churn.engines_spawned += 1;
        Ok(u)
    }

    fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError> {
        self.subscriptions.remove_user(user)?;
        let empty = CompactEngine::build(self.kind, self.config, &self.graph, &[]);
        let old = std::mem::replace(&mut self.engines[user as usize], empty);
        self.live_copies = self.live_copies.saturating_sub(old.metrics().copies_stored);
        self.churn.users_removed += 1;
        self.churn.engines_retired += 1;
        Ok(())
    }

    fn churn_stats(&self) -> ChurnStats {
        self.churn
    }

    fn subscriptions(&self) -> &Subscriptions {
        &self.subscriptions
    }

    fn metrics(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for e in &self.engines {
            total.merge(e.metrics());
        }
        // Replace the summed per-engine peaks with the tracked simultaneous
        // peak (see `peak_live_copies`).
        total.peak_copies = self.peak_live_copies.max(total.copies_stored);
        total.peak_memory_bytes =
            total.peak_copies * firehose_stream::PostRecord::SIZE_BYTES as u64;
        total
    }

    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        let mut acc = firehose_stream::ApproxStats::default();
        let mut any = false;
        for e in &self.engines {
            if let Some(s) = e.approx_stats() {
                acc.merge(&s);
                any = true;
            }
        }
        any.then_some(acc)
    }

    fn name(&self) -> String {
        format!("M_{}", self.kind)
    }

    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        // Engines keyed by user id; tombstoned users' (empty) engines are
        // not written — the restore side rebuilds them member-less.
        let mut engines: Vec<(u64, Vec<u8>)> =
            Vec::with_capacity(self.subscriptions.active_user_count());
        for (u, engine) in self.engines.iter().enumerate() {
            if !self.subscriptions.is_active(u as UserId) {
                continue;
            }
            let mut blob = Vec::new();
            engine.save_state(&mut blob)?;
            engines.push((u as u64, blob));
        }
        write_multi_state(
            w,
            &self.churn,
            &self.subscriptions,
            [self.last_sweep, self.live_copies, self.peak_live_copies],
            &mut engines,
        )
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        match read_multi_state(r)? {
            MultiState::Legacy(blobs, ledger) => {
                if blobs.len() != self.engines.len() {
                    return Err(crate::snapshot::SnapshotError::StructureMismatch(
                        "legacy engine count does not match user count",
                    ));
                }
                for (engine, blob) in self.engines.iter_mut().zip(&blobs) {
                    load_engine_blob(engine, blob)?;
                }
                [self.last_sweep, self.live_copies, self.peak_live_copies] = ledger;
                Ok(())
            }
            MultiState::V2(state) => {
                // Rebuild users from the embedded table.
                let users = state.subscriptions.user_count();
                let mut engines = Vec::with_capacity(users);
                let mut blobs = state.engines;
                for u in 0..users as UserId {
                    let members: &[AuthorId] = if state.subscriptions.is_active(u) {
                        state.subscriptions.authors_of(u)
                    } else {
                        &[]
                    };
                    let mut engine =
                        CompactEngine::build(self.kind, self.config, &self.graph, members);
                    if state.subscriptions.is_active(u) {
                        let blob = blobs.remove(&(u as u64)).ok_or(
                            crate::snapshot::SnapshotError::StructureMismatch(
                                "missing engine state for a user",
                            ),
                        )?;
                        load_engine_blob(&mut engine, &blob)?;
                    }
                    engines.push(engine);
                }
                if !blobs.is_empty() {
                    return Err(crate::snapshot::SnapshotError::StructureMismatch(
                        "engine state for an unknown user",
                    ));
                }
                self.subscriptions = state.subscriptions;
                self.engines = engines;
                self.churn = state.churn;
                if !state.has_initial {
                    // Pre-flags state: the user id space only ever grows via
                    // `add_user`, so the construction-time engine count is
                    // exactly `users - users_added`.
                    self.churn.initial_engines =
                        (users as u64).saturating_sub(self.churn.users_added);
                }
                [self.last_sweep, self.live_copies, self.peak_live_copies] = state.ledger;
                Ok(())
            }
        }
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

    #[test]
    fn subscribe_starts_delivering() {
        let mut m = setup(AlgorithmKind::UniBin);
        // u1 does not follow author 0 yet.
        let d = m.offer(&Post::new(1, 0, 0, "a post from author zero".into()));
        assert_eq!(d.delivered_to, vec![0]);
        assert!(m.subscribe(1, 0).unwrap());
        assert!(!m.subscribe(1, 0).unwrap(), "duplicate edge is a no-op");
        let d = m.offer(&Post::new(2, 0, 1_000, "another author zero story".into()));
        assert_eq!(d.delivered_to, vec![0, 1]);
        assert_eq!(m.churn_stats().subscribes, 1);
    }

    #[test]
    fn remove_user_stops_delivery() {
        let mut m = setup(AlgorithmKind::UniBin);
        m.remove_user(0).unwrap();
        let d = m.offer(&Post::new(1, 0, 0, "post from author zero".into()));
        assert!(d.delivered_to.is_empty());
        assert!(matches!(
            m.subscribe(0, 2),
            Err(SubscriptionError::UserRemoved { .. })
        ));
    }

    #[test]
    fn warm_start_preserves_coverage_across_churn() {
        let graph = UndirectedGraph::from_edges(2, [(0, 1)]);
        let subs = Subscriptions::new(2, vec![vec![0]]).unwrap();
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        let mut m = IndependentMulti::new(AlgorithmKind::UniBin, config, &graph, subs);
        let d = m.offer(&Post::new(1, 0, 0, "the big ferry announcement".into()));
        assert_eq!(d.delivered_to, vec![0]);
        // Subscribe to similar author 1; the rebuilt engine inherits post 1,
        // so 1's near-duplicate is still covered.
        m.subscribe(0, 1).unwrap();
        assert_eq!(m.churn_stats().warm_starts, 1);
        let d = m.offer(&Post::new(2, 1, 1_000, "the big ferry announcement".into()));
        assert!(d.delivered_to.is_empty(), "covered by warm-started record");
    }

    #[test]
    fn compact_engine_relabels_authors() {
        let graph = UndirectedGraph::from_edges(5, [(2, 4)]);
        let mut ce = CompactEngine::build(
            AlgorithmKind::NeighborBin,
            EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap()),
            &graph,
            &[2, 4],
        );
        let rec = |id, author, ts, fp| PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        };
        assert!(ce.offer(rec(1, 2, 0, 0)).unwrap().is_emitted());
        // Author 4 is similar to author 2 in the induced subgraph.
        assert_eq!(ce.offer(rec(2, 4, 1_000, 1)).unwrap().covered_by(), Some(1));
        // Author 3 is not a member.
        assert!(ce.offer(rec(3, 3, 2_000, 0)).is_none());
        // Window records come back with global author ids.
        let mut out = Vec::new();
        ce.window_records_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].author, 2);
    }
}
