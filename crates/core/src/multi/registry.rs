//! Refcounted component registry: the live-churn core of the shared
//! engine, see `DESIGN.md` §9.
//!
//! The registry tracks every **distinct** connected component of some
//! user's subscription subgraph, refcounted by the users whose
//! decomposition contains it, and owns the one [`LabelledWindow`] that
//! decides posts for all of them: a component is a label on the window's
//! records. Subscription churn mutates the component set *incrementally*:
//!
//! * `subscribe(u, a)` can only **merge** components of `u`: the components
//!   of `u`'s old author set that are connected to `a` in the new set fuse
//!   into one. `u` releases the absorbed components and acquires the merged
//!   one (spawning it if no other user already holds it).
//! * `unsubscribe(u, a)` can only **split**: `u` releases the component
//!   containing `a` and acquires the connected pieces of it minus `a`.
//! * `add_user` / `remove_user` acquire and release whole decompositions.
//!
//! A component is retired the moment its last user releases it, and its
//! label is stripped from the window. Acquiring a component another user
//! already holds adds nothing: identical component ⇒ identical diversified
//! stream (the paper's Section 5 sharing argument). Components spawned for
//! genuinely new member sets are **warm-started**: they inherit the records
//! of the components they replace, restricted to their own members, so
//! recently shown posts keep covering near-duplicates across the churn
//! point. Within λt of the churn a warm-started stream may differ from a
//! fresh build (by design — the user *did* see those posts); after λt they
//! are indistinguishable.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, Post, PostRecord};

use crate::config::EngineConfig;
use crate::engine::{order_window_records, AlgorithmKind};
use crate::metrics::EngineMetrics;
use crate::multi::compact::CompactEngine;
use crate::multi::labelled::{LabelledWindow, WindowState};
use crate::multi::shared::user_components;
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{
    component_key, load_engine_blob, read_multi_state, write_labelled_state, ChurnStats,
    MultiDecision, MultiState,
};
use crate::snapshot::SnapshotError;

/// One live distinct component: its identity and its users.
struct Component {
    /// Sorted member authors — the component's identity.
    members: Vec<AuthorId>,
    /// Sorted users whose decomposition contains this exact component.
    users: Vec<UserId>,
}

/// Refcounted registry of distinct components over one labelled window.
/// Slot ids (the window's labels) are stable for a component's lifetime and
/// recycled after retirement, so `author_components` routing lists stay
/// small and dense.
pub(crate) struct ComponentRegistry {
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
    pub(crate) subscriptions: Subscriptions,
    /// Slot id → live component (`None` = free slot).
    slots: Vec<Option<Component>>,
    /// Recycled slot ids.
    free: Vec<u32>,
    /// Sorted member list → slot id.
    key_to_id: HashMap<Vec<AuthorId>, u32>,
    /// Author → slots of the distinct components containing it.
    author_components: Vec<Vec<u32>>,
    /// User → slots of the user's decomposition.
    user_components: Vec<Vec<u32>>,
    pub(crate) churn: ChurnStats,
    /// Every emitted post in the λt window, labelled by component slot.
    pub(crate) window: LabelledWindow,
    /// Slots the current post is emitted in (reused across posts).
    emitted: Vec<u32>,
    /// Author-indexed scratch for `user_components`.
    local: Vec<u32>,
}

impl ComponentRegistry {
    /// Build the full decomposition for the current subscription relation.
    /// Slot ids are assigned in (user, smallest-member) order — the
    /// construction order of the per-component releases, which is what lets
    /// their legacy (FHSNAP03-era) state blobs restore by position.
    pub(crate) fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: Arc<UndirectedGraph>,
        subscriptions: Subscriptions,
    ) -> Self {
        let mut reg = Self {
            kind,
            config,
            author_components: vec![Vec::new(); graph.node_count()],
            user_components: vec![Vec::new(); subscriptions.user_count()],
            window: LabelledWindow::new(&config, graph.node_count()),
            graph,
            subscriptions,
            slots: Vec::new(),
            free: Vec::new(),
            key_to_id: HashMap::new(),
            churn: ChurnStats::default(),
            emitted: Vec::new(),
            local: Vec::new(),
        };
        for u in 0..reg.subscriptions.user_count() as UserId {
            if !reg.subscriptions.is_active(u) {
                continue;
            }
            let authors = reg.subscriptions.authors_of(u);
            for members in user_components(&reg.graph, authors, &mut reg.local) {
                reg.acquire(u, members, &[], true);
            }
        }
        reg
    }

    pub(crate) fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Number of live distinct components.
    pub(crate) fn component_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Attach `u` to the component `members`, spawning it if no user holds
    /// it yet. A spawned component inherits the window records of the
    /// `released` slots authored by its members (warm start); an existing
    /// one already carries its own labels.
    fn acquire(&mut self, u: UserId, members: Vec<AuthorId>, released: &[u32], initial: bool) {
        let cid = match self.key_to_id.get(&members) {
            Some(&cid) => cid,
            None => {
                let cid = match self.free.pop() {
                    Some(cid) => cid,
                    None => {
                        self.slots.push(None);
                        (self.slots.len() - 1) as u32
                    }
                };
                if !released.is_empty() && self.window.inherit(cid, released, &members) {
                    self.churn.warm_starts += 1;
                }
                for &a in &members {
                    self.author_components[a as usize].push(cid);
                }
                self.key_to_id.insert(members.clone(), cid);
                self.slots[cid as usize] = Some(Component {
                    members,
                    users: Vec::new(),
                });
                if initial {
                    self.churn.initial_engines += 1;
                } else {
                    self.churn.engines_spawned += 1;
                }
                cid
            }
        };
        let comp = self.slots[cid as usize].as_mut().expect("live slot");
        if let Err(pos) = comp.users.binary_search(&u) {
            comp.users.insert(pos, u);
            self.user_components[u as usize].push(cid);
        }
    }

    /// Detach `u` from slot `cid`; retire the component if `u` was its last
    /// user, stripping its label before the slot can be recycled.
    fn release(&mut self, u: UserId, cid: u32) {
        self.user_components[u as usize].retain(|&c| c != cid);
        let comp = self.slots[cid as usize].as_mut().expect("live slot");
        comp.users.retain(|&x| x != u);
        if comp.users.is_empty() {
            let comp = self.slots[cid as usize].take().expect("live slot");
            self.window.strip(cid, &comp.members);
            self.key_to_id.remove(&comp.members);
            for &a in &comp.members {
                self.author_components[a as usize].retain(|&c| c != cid);
            }
            self.free.push(cid);
            self.churn.engines_retired += 1;
        }
    }

    /// Move `u` from the `released` slots to the `acquired` component
    /// member lists. Spawns inherit from the released slots *before* any of
    /// them can be retired.
    fn rewire(&mut self, u: UserId, released: &[u32], acquired: &[Vec<AuthorId>]) {
        for members in acquired {
            self.acquire(u, members.clone(), released, false);
        }
        for &cid in released {
            self.release(u, cid);
        }
    }

    /// The connected component containing `x` in the subgraph induced on the
    /// sorted author set `authors` (which must contain `x`).
    fn component_containing(&self, authors: &[AuthorId], x: AuthorId) -> Vec<AuthorId> {
        let mut seen: HashSet<AuthorId> = HashSet::new();
        seen.insert(x);
        let mut stack = vec![x];
        while let Some(a) = stack.pop() {
            for &b in self.graph.neighbors(a) {
                if authors.binary_search(&b).is_ok() && seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        let mut members: Vec<AuthorId> = seen.into_iter().collect();
        members.sort_unstable();
        members
    }

    /// Add a follow edge; merges the affected components of `u`.
    pub(crate) fn subscribe(&mut self, u: UserId, a: AuthorId) -> Result<bool, SubscriptionError> {
        if !self.subscriptions.subscribe(u, a)? {
            return Ok(false);
        }
        let authors = self.subscriptions.authors_of(u);
        let merged = self.component_containing(authors, a);
        // A component of the old decomposition stays connected in the new
        // author set, so it is absorbed into `merged` iff any single member
        // (the smallest is handy) lies in `merged`.
        let absorbed: Vec<u32> = self.user_components[u as usize]
            .iter()
            .copied()
            .filter(|&cid| {
                let members = &self.slots[cid as usize]
                    .as_ref()
                    .expect("live slot")
                    .members;
                merged.binary_search(&members[0]).is_ok()
            })
            .collect();
        self.rewire(u, &absorbed, std::slice::from_ref(&merged));
        self.churn.subscribes += 1;
        Ok(true)
    }

    /// Drop a follow edge; splits the affected component of `u`.
    pub(crate) fn unsubscribe(
        &mut self,
        u: UserId,
        a: AuthorId,
    ) -> Result<bool, SubscriptionError> {
        if !self.subscriptions.unsubscribe(u, a)? {
            return Ok(false);
        }
        let cid = self.user_components[u as usize]
            .iter()
            .copied()
            .find(|&cid| {
                self.slots[cid as usize]
                    .as_ref()
                    .expect("live slot")
                    .members
                    .binary_search(&a)
                    .is_ok()
            })
            .expect("subscribed author must be in one of the user's components");
        let remaining: Vec<AuthorId> = self.slots[cid as usize]
            .as_ref()
            .expect("live slot")
            .members
            .iter()
            .copied()
            .filter(|&m| m != a)
            .collect();
        let pieces = user_components(&self.graph, &remaining, &mut self.local);
        self.rewire(u, &[cid], &pieces);
        self.churn.unsubscribes += 1;
        Ok(true)
    }

    /// Register a new user; cold-spawns genuinely new components (a
    /// brand-new user has no predecessor records to inherit).
    pub(crate) fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let u = self.subscriptions.add_user(authors)?;
        self.user_components
            .resize(self.subscriptions.user_count(), Vec::new());
        let pieces = user_components(
            &self.graph,
            self.subscriptions.authors_of(u),
            &mut self.local,
        );
        self.rewire(u, &[], &pieces);
        self.churn.users_added += 1;
        Ok(u)
    }

    /// Tombstone a user, retiring every component they were the last user
    /// of.
    pub(crate) fn remove_user(&mut self, u: UserId) -> Result<(), SubscriptionError> {
        self.subscriptions.remove_user(u)?;
        let released = std::mem::take(&mut self.user_components[u as usize]);
        self.rewire(u, &released, &[]);
        self.churn.users_removed += 1;
        Ok(())
    }

    /// The per-post loop (Section 5): one scan of the labelled window
    /// decides the post for every component containing its author, and each
    /// emitting component fans out to its users. A post whose author is in
    /// no component is counted and nothing else.
    pub(crate) fn offer(&mut self, post: &Post, out: &mut MultiDecision) {
        out.delivered_to.clear();
        let slots = &self.author_components[post.author as usize];
        if slots.is_empty() {
            self.window.skip(post.timestamp);
            return;
        }
        let record = post.to_record(self.config.simhash);
        self.window
            .offer(&self.graph, record, slots, &mut self.emitted);
        // A user has at most one component containing this author, so the
        // fan-outs are disjoint.
        for &cid in &self.emitted {
            let comp = self.slots[cid as usize].as_ref().expect("live slot");
            out.delivered_to.extend_from_slice(&comp.users);
        }
        out.delivered_to.sort_unstable();
        debug_assert!(out.delivered_to.windows(2).all(|w| w[0] != w[1]));
    }

    /// The window's counters (see `EngineMetrics` in `SharedMulti::metrics`).
    pub(crate) fn metrics(&self) -> EngineMetrics {
        self.window.metrics()
    }

    /// Slot → component key, refusing to serialize if two live components
    /// share a key.
    fn slot_keys(&self) -> std::io::Result<Vec<Option<u64>>> {
        let keys: Vec<Option<u64>> = self
            .slots
            .iter()
            .map(|c| Some(component_key(&c.as_ref()?.members)))
            .collect();
        let mut live: Vec<u64> = keys.iter().flatten().copied().collect();
        live.sort_unstable();
        if live.windows(2).any(|p| p[0] == p[1]) {
            return Err(std::io::Error::other(
                "component key collision; cannot serialize unambiguously",
            ));
        }
        Ok(keys)
    }

    /// Serialize in the FHSNAP04 labelled layout: labels as component keys
    /// (the hash of the member list), independent of slot assignment and
    /// churn history.
    pub(crate) fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let keys = self.slot_keys()?;
        write_labelled_state(w, &self.churn, &self.subscriptions)?;
        self.window.write(w, |slot| {
            keys[slot as usize].expect("labels name live slots")
        })
    }

    /// Restore any layout into a new registry of this kind over this graph;
    /// `self` is untouched. FHSNAP04 states rebuild the registry from the
    /// embedded subscription table, so this registry's subscription state
    /// is irrelevant: a labelled window maps its keys to the rebuilt slots,
    /// and per-component engine blobs are matched by key and converted. The
    /// legacy layout has no keys: it converts by position into a fresh
    /// build over this registry's subscriptions, which must be the ones the
    /// state was written with (the only way legacy state was ever produced).
    pub(crate) fn restored(&self, r: &mut dyn std::io::Read) -> Result<Self, SnapshotError> {
        match read_multi_state(r)? {
            MultiState::Legacy(blobs, ledger) => {
                let mut fresh = self.rebuilt(self.subscriptions.clone());
                let slots: Vec<u32> = (0..fresh.slots.len() as u32)
                    .filter(|&cid| fresh.slots[cid as usize].is_some())
                    .collect();
                if blobs.len() != slots.len() {
                    return Err(SnapshotError::StructureMismatch(
                        "legacy engine count does not match decomposition",
                    ));
                }
                let engines: Vec<(u32, Vec<u8>)> = slots.into_iter().zip(blobs).collect();
                fresh.convert(engines, ledger)?;
                Ok(fresh)
            }
            MultiState::PerComponent(state) => {
                let mut fresh = self.rebuilt(state.subscriptions);
                let mut blobs = state.engines;
                let mut engines = Vec::with_capacity(blobs.len());
                for (cid, comp) in fresh.slots.iter().enumerate() {
                    let Some(comp) = comp else { continue };
                    let blob = blobs.remove(&component_key(&comp.members)).ok_or(
                        SnapshotError::StructureMismatch("missing engine state for a component"),
                    )?;
                    engines.push((cid as u32, blob));
                }
                if !blobs.is_empty() {
                    return Err(SnapshotError::StructureMismatch(
                        "engine state for an unknown component",
                    ));
                }
                fresh.convert(engines, state.ledger)?;
                fresh.adopt_churn(state.churn, state.has_initial);
                Ok(fresh)
            }
            MultiState::Labelled(state) => {
                let mut fresh = self.rebuilt(state.subscriptions);
                let slot_of: HashMap<u64, u32> = fresh
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(cid, c)| Some((component_key(&c.as_ref()?.members), cid as u32)))
                    .collect();
                let mut records = Vec::with_capacity(state.window.records.len());
                for (record, keys) in state.window.records {
                    let labels = keys
                        .iter()
                        .map(|k| slot_of.get(k).copied())
                        .collect::<Option<Vec<u32>>>()
                        .ok_or(SnapshotError::StructureMismatch(
                            "window label for an unknown component",
                        ))?;
                    records.push((record, labels));
                }
                fresh.window = LabelledWindow::restore(
                    &fresh.config,
                    fresh.graph.node_count(),
                    WindowState {
                        watermark: state.window.watermark,
                        metrics: state.window.metrics,
                        records,
                    },
                )?;
                fresh.adopt_churn(state.churn, true);
                Ok(fresh)
            }
        }
    }

    /// A registry like this one over `subscriptions`, with an empty window.
    fn rebuilt(&self, subscriptions: Subscriptions) -> Self {
        ComponentRegistry::new(
            self.kind,
            self.config,
            Arc::clone(&self.graph),
            subscriptions,
        )
    }

    /// Adopt a restored churn ledger. Ledgers written before flags bit 0
    /// never recorded the initial engine count; those adopt the rebuilt
    /// decomposition's count (exact when no churn preceded the save,
    /// best-effort otherwise).
    fn adopt_churn(&mut self, churn: ChurnStats, has_initial: bool) {
        let rebuilt_initial = self.churn.initial_engines;
        self.churn = churn;
        if !has_initial {
            self.churn.initial_engines = rebuilt_initial;
        }
    }

    /// Convert per-component engine state into the labelled window: decode
    /// each `(slot, blob)` through a `CompactEngine` of that component,
    /// merge the engines' records by post id (each labelled with every slot
    /// that held it), and adopt the blobs' summed counters so the
    /// manifest's `posts_processed` cross-check still holds. `ledger` is
    /// the per-component `(last_sweep, live_copies, peak_live_copies)`.
    fn convert(
        &mut self,
        engines: Vec<(u32, Vec<u8>)>,
        ledger: [u64; 3],
    ) -> Result<(), SnapshotError> {
        let mut labels: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut records: Vec<PostRecord> = Vec::new();
        let mut metrics = EngineMetrics::default();
        let mut held = Vec::new();
        for (cid, blob) in engines {
            let members = &self.slots[cid as usize]
                .as_ref()
                .expect("live slot")
                .members;
            let mut engine = CompactEngine::build(self.kind, self.config, &self.graph, members);
            load_engine_blob(&mut engine, &blob)?;
            metrics.merge(engine.metrics());
            held.clear();
            engine.window_records_into(&mut held);
            for r in &held {
                labels.entry(r.id).or_default().push(cid);
            }
            records.extend_from_slice(&held);
        }
        order_window_records(&mut records);
        let [last_sweep, _, peak_live_copies] = ledger;
        metrics.peak_copies = peak_live_copies;
        metrics.peak_memory_bytes = peak_live_copies * PostRecord::SIZE_BYTES as u64;
        let watermark = records
            .last()
            .map_or(last_sweep, |r| r.timestamp.max(last_sweep));
        let records = records
            .into_iter()
            .map(|r| {
                let l = labels.remove(&r.id).expect("labelled above");
                (r, l)
            })
            .collect();
        self.window = LabelledWindow::restore(
            &self.config,
            self.graph.node_count(),
            WindowState {
                watermark,
                metrics,
                records,
            },
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    /// Figure 7: edges 0-1, 0-5, 3-4; u0 follows {0,1,3,5}, u1 follows
    /// {0,1,3,4,5}.
    fn figure7_registry() -> ComponentRegistry {
        let graph = Arc::new(UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]));
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        ComponentRegistry::new(AlgorithmKind::UniBin, config(), graph, subs)
    }

    #[test]
    fn initial_decomposition_matches_shared_multi() {
        let reg = figure7_registry();
        // {0,1,5} shared, {3} for u0, {3,4} for u1.
        assert_eq!(reg.component_count(), 3);
        assert_eq!(
            reg.churn,
            ChurnStats {
                initial_engines: 3,
                ..ChurnStats::default()
            }
        );
    }

    /// Regression (satellite of ISSUE 7): the churn bench used to report
    /// `engines_retired > engines_spawned` because construction-time spawns
    /// were never counted anywhere while their retirements were. With
    /// `initial_engines` the ledger is symmetric.
    #[test]
    fn retire_ledger_never_exceeds_spawn_ledger() {
        let mut reg = figure7_registry();
        assert_eq!(reg.churn.initial_engines, 3);
        // Retire everything churn can reach: both users removed retires all
        // three initial engines without a single churn spawn.
        reg.remove_user(0).unwrap();
        reg.remove_user(1).unwrap();
        let c = reg.churn;
        assert_eq!(c.engines_retired, 3);
        assert_eq!(c.engines_spawned, 0);
        assert!(c.engines_retired <= c.engines_spawned + c.initial_engines);
        // And a churny sequence keeps the invariant.
        let u = reg.add_user(&[0, 1, 3]).unwrap();
        reg.subscribe(u, 5).unwrap();
        reg.unsubscribe(u, 0).unwrap();
        reg.remove_user(u).unwrap();
        let c = reg.churn;
        assert!(
            c.engines_retired <= c.engines_spawned + c.initial_engines,
            "{c:?}"
        );
    }

    #[test]
    fn subscribe_merges_and_refcounts() {
        let mut reg = figure7_registry();
        // u0 follows 4: {3} and {4} merge into {3,4}, which u1 already
        // holds — no spawn, {3} retired.
        assert!(reg.subscribe(0, 4).unwrap());
        assert_eq!(reg.component_count(), 2);
        assert_eq!(reg.churn.subscribes, 1);
        assert_eq!(reg.churn.engines_spawned, 0);
        assert_eq!(reg.churn.engines_retired, 1);
        // Both users now share {3,4}.
        let cid = reg.key_to_id[&vec![3u32, 4]];
        assert_eq!(reg.slots[cid as usize].as_ref().unwrap().users, vec![0, 1]);
    }

    #[test]
    fn unsubscribe_splits_into_pieces() {
        let mut reg = figure7_registry();
        // u1 drops 0: {0,1,5} splits into {1} and {5} for u1; u0 keeps
        // {0,1,5} so it survives.
        assert!(reg.unsubscribe(1, 0).unwrap());
        assert_eq!(reg.component_count(), 5); // {0,1,5}, {3}, {3,4}, {1}, {5}
        assert_eq!(reg.churn.engines_spawned, 2);
        assert_eq!(reg.churn.engines_retired, 0);
        assert!(!reg.subscriptions.is_subscribed(1, 0));
    }

    #[test]
    fn remove_user_retires_exclusive_engines() {
        let mut reg = figure7_registry();
        reg.remove_user(1).unwrap();
        // u1's exclusive {3,4} retired; shared {0,1,5} and {3} survive.
        assert_eq!(reg.component_count(), 2);
        assert_eq!(reg.churn.engines_retired, 1);
        // Slot recycling: a new singleton reuses the freed slot.
        let freed = reg.free.clone();
        let u = reg.add_user(&[4]).unwrap();
        assert_eq!(u, 2);
        assert_eq!(reg.component_count(), 3);
        assert!(freed.iter().any(|&c| reg.slots[c as usize].is_some()));
    }

    #[test]
    fn duplicate_edge_is_a_noop() {
        let mut reg = figure7_registry();
        assert!(!reg.subscribe(0, 1).unwrap());
        assert_eq!(reg.component_count(), 3);
        assert_eq!(reg.churn.subscribes, 0);
    }

    fn post(id: u64, author: AuthorId, ts: u64, text: &str) -> Post {
        Post::new(id, author, ts, text.into())
    }

    fn offer(reg: &mut ComponentRegistry, p: &Post) -> Vec<UserId> {
        let mut out = MultiDecision::default();
        reg.offer(p, &mut out);
        out.delivered_to
    }

    fn registry(edges: &[(u32, u32)], sets: Vec<Vec<AuthorId>>) -> ComponentRegistry {
        let graph = Arc::new(UndirectedGraph::from_edges(6, edges.iter().copied()));
        let subs = Subscriptions::new(6, sets).unwrap();
        ComponentRegistry::new(AlgorithmKind::UniBin, config(), graph, subs)
    }

    /// A slot recycled by a new component must not be suppressed by the
    /// records its retired predecessor emitted.
    #[test]
    fn recycled_slot_starts_without_its_predecessors_coverage() {
        // u0: {0}; u1: {0, 1}. Post 1 is emitted in both.
        let mut reg = registry(&[(0, 1)], vec![vec![0], vec![0, 1]]);
        assert_eq!(
            offer(&mut reg, &post(1, 0, 0, "harbour ferry delayed")),
            [0, 1]
        );
        let old = reg.key_to_id[&vec![0u32]];
        reg.remove_user(0).unwrap();
        assert_eq!(
            reg.window.labels_of(1),
            Some(vec![reg.key_to_id[&vec![0u32, 1]]]),
            "only the retired label is stripped"
        );
        // A new user over the same member set respawns into the freed slot.
        let u = reg.add_user(&[0]).unwrap();
        assert_eq!(reg.key_to_id[&vec![0u32]], old, "slot recycled");
        assert_eq!(
            offer(&mut reg, &post(2, 0, 1_000, "harbour ferry delayed")),
            [u],
            "post 1 covers in {{0, 1}} but not in the recycled slot"
        );
    }

    /// A warm start inherits the records of the released components only,
    /// and only those authored by its own members.
    #[test]
    fn warm_start_inherits_member_records_of_released_components() {
        // u0: {0} and {3}; u1: {1}.
        let mut reg = registry(&[(0, 1)], vec![vec![0, 3], vec![1]]);
        for (id, author, text) in [
            (1, 0, "storm closes the bridge"),
            (2, 3, "council votes on the budget"),
            (3, 1, "new stadium opens downtown"),
        ] {
            assert!(!offer(&mut reg, &post(id, author, id * 1_000, text)).is_empty());
        }
        // u0 follows 1: {0} merges into {0, 1}. The released {0} carried
        // post 1; post 3 is by a member but was emitted in u1's {1}, which
        // u0 does not release; post 2 is by a non-member.
        reg.subscribe(0, 1).unwrap();
        let merged = reg.key_to_id[&vec![0u32, 1]];
        assert!(reg.window.labels_of(1).unwrap().contains(&merged));
        assert!(!reg.window.labels_of(2).unwrap().contains(&merged));
        assert!(!reg.window.labels_of(3).unwrap().contains(&merged));
        assert_eq!(reg.churn.warm_starts, 1);

        // A split hands each piece only its own members' records.
        let mut reg = registry(&[(0, 1), (1, 2)], vec![vec![0, 1, 2]]);
        offer(&mut reg, &post(1, 0, 0, "storm closes the bridge"));
        offer(&mut reg, &post(2, 2, 1_000, "council votes on the budget"));
        reg.unsubscribe(0, 1).unwrap();
        let (left, right) = (reg.key_to_id[&vec![0u32]], reg.key_to_id[&vec![2u32]]);
        assert_eq!(reg.window.labels_of(1), Some(vec![left]));
        assert_eq!(reg.window.labels_of(2), Some(vec![right]));
        assert_eq!(reg.churn.warm_starts, 2);
    }

    /// Acquiring a component another user already holds inherits nothing:
    /// its labels are already authoritative.
    #[test]
    fn acquiring_an_existing_component_inherits_nothing() {
        // u0: {0}; u1: {1}; u2: {0, 1}.
        let mut reg = registry(&[(0, 1)], vec![vec![0], vec![1], vec![0, 1]]);
        let shared = reg.key_to_id[&vec![0u32, 1]];
        assert_eq!(
            offer(&mut reg, &post(1, 1, 0, "storm closes the bridge")),
            [1, 2]
        );
        // Post 2 is new to u0's {0} but covered by post 1 in {0, 1}.
        assert_eq!(
            offer(&mut reg, &post(2, 0, 1_000, "storm closes the bridge")),
            [0]
        );
        // u0 follows 1 and joins u2's {0, 1}; its {0} retires.
        reg.subscribe(0, 1).unwrap();
        assert_eq!(reg.key_to_id[&vec![0u32, 1]], shared);
        assert_eq!(
            reg.window.labels_of(2),
            None,
            "nothing inherited: dropped with {{0}}'s label"
        );
        assert_eq!(reg.churn.engines_spawned, 0);
        assert_eq!(reg.churn.warm_starts, 0);
    }

    /// Slot ids are not stable across builds, so labels travel as component
    /// keys; a key that names no rebuilt component is refused.
    #[test]
    fn unknown_window_label_is_a_structure_mismatch() {
        let mut reg = figure7_registry();
        offer(&mut reg, &post(1, 0, 0, "storm closes the bridge"));
        let mut buf = Vec::new();
        reg.save_state(&mut buf).unwrap();
        assert!(figure7_registry().restored(&mut &buf[..]).is_ok());

        let mut buf = Vec::new();
        write_labelled_state(&mut buf, &reg.churn, &reg.subscriptions).unwrap();
        reg.window.write(&mut buf, |_| 42).unwrap();
        let Err(err) = figure7_registry().restored(&mut &buf[..]) else {
            panic!("an unknown label must be refused");
        };
        assert!(
            matches!(err, SnapshotError::StructureMismatch(_)),
            "{err:?}"
        );
    }
}
