//! Refcounted component registry: the live-churn core of the shared
//! strategy (`S_*`), see `DESIGN.md` §9.
//!
//! The registry owns one [`CompactEngine`] per **distinct** connected
//! component of some user's subscription subgraph, refcounted by the users
//! whose decomposition contains it. Subscription churn mutates the component
//! set *incrementally*:
//!
//! * `subscribe(u, a)` can only **merge** components of `u`: the components
//!   of `u`'s old author set that are connected to `a` in the new set fuse
//!   into one. `u` releases the absorbed components and acquires the merged
//!   one (spawning its engine if no other user already holds it).
//! * `unsubscribe(u, a)` can only **split**: `u` releases the component
//!   containing `a` and acquires the connected pieces of it minus `a`.
//! * `add_user` / `remove_user` acquire and release whole decompositions.
//!
//! An engine is retired the moment its last user releases it; acquiring a
//! component another user already holds reuses that user's engine, which is
//! *exact* (identical component ⇒ identical diversified stream — the
//! paper's Section 5 sharing argument). Engines spawned for genuinely new
//! components are **warm-started**: they inherit the still-in-window records
//! of the components they replace (restricted to their own members), so
//! recently shown posts keep covering near-duplicates across the churn
//! point. Within λt of the churn a warm-started stream may differ from a
//! cold rebuild (by design — the user *did* see those posts); after λt they
//! are indistinguishable.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, Post, PostRecord, Timestamp};

use crate::config::EngineConfig;
use crate::engine::{order_window_records, AlgorithmKind};
use crate::metrics::EngineMetrics;
use crate::multi::compact::CompactEngine;
use crate::multi::shared::user_components;
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{
    component_key, load_engine_blob, read_multi_state, write_multi_state, ChurnStats,
    MultiDecision, MultiState,
};
use crate::snapshot::SnapshotError;

/// One live distinct component: its identity, its users and its engine.
struct Component {
    /// Sorted member authors — the component's identity.
    members: Vec<AuthorId>,
    /// Sorted users whose decomposition contains this exact component.
    users: Vec<UserId>,
    engine: CompactEngine,
}

/// Refcounted registry of distinct-component engines. Slot ids are stable
/// for a component's lifetime and recycled after retirement, so
/// `author_components` routing lists stay small and dense.
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
    /// Warm-start newly spawned engines from their predecessors' windows.
    warm_start: bool,
    pub(crate) churn: ChurnStats,
    /// Stream time of the last global eviction sweep.
    last_sweep: Timestamp,
    /// Record copies currently stored across all live engines.
    pub(crate) live_copies: u64,
    /// Peak of `live_copies` — the true simultaneous footprint.
    peak_live_copies: u64,
}

impl ComponentRegistry {
    /// Build the full decomposition for the current subscription relation.
    /// Slot ids are assigned in (user, smallest-member) order — the exact
    /// construction order of the pre-churn `SharedMulti`, which is what lets
    /// legacy (FHSNAP03-era) state blobs restore by position.
    pub(crate) fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: Arc<UndirectedGraph>,
        subscriptions: Subscriptions,
        warm_start: bool,
    ) -> Self {
        let mut reg = Self {
            kind,
            config,
            author_components: vec![Vec::new(); graph.node_count()],
            user_components: vec![Vec::new(); subscriptions.user_count()],
            graph,
            subscriptions,
            slots: Vec::new(),
            free: Vec::new(),
            key_to_id: HashMap::new(),
            warm_start,
            churn: ChurnStats::default(),
            last_sweep: 0,
            live_copies: 0,
            peak_live_copies: 0,
        };
        for u in 0..reg.subscriptions.user_count() as UserId {
            if !reg.subscriptions.is_active(u) {
                continue;
            }
            for members in user_components(&reg.graph, reg.subscriptions.authors_of(u)) {
                reg.acquire(u, members, &[], true);
            }
        }
        reg
    }

    pub(crate) fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Number of live component engines.
    pub(crate) fn component_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Attach `u` to the component `members`, spawning its engine if no user
    /// holds it yet. `seeds` (global author ids, `(timestamp, id)` order) are
    /// filtered to the membership and seeded into a *newly spawned* engine
    /// only — an existing engine already has the authoritative window.
    fn acquire(&mut self, u: UserId, members: Vec<AuthorId>, seeds: &[PostRecord], initial: bool) {
        let cid = match self.key_to_id.get(&members) {
            Some(&cid) => cid,
            None => {
                let mut engine =
                    CompactEngine::build(self.kind, self.config, &self.graph, &members);
                if self.warm_start && !seeds.is_empty() {
                    let mut seeded = 0u64;
                    for r in seeds {
                        if members.binary_search(&r.author).is_ok() {
                            engine.seed(*r);
                            seeded += 1;
                        }
                    }
                    if seeded > 0 {
                        self.churn.warm_starts += 1;
                    }
                }
                self.live_copies += engine.metrics().copies_stored;
                self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
                let slot = Some(Component {
                    members: members.clone(),
                    users: Vec::new(),
                    engine,
                });
                let cid = match self.free.pop() {
                    Some(cid) => {
                        self.slots[cid as usize] = slot;
                        cid
                    }
                    None => {
                        self.slots.push(slot);
                        (self.slots.len() - 1) as u32
                    }
                };
                for &a in &members {
                    self.author_components[a as usize].push(cid);
                }
                self.key_to_id.insert(members, cid);
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

    /// Detach `u` from slot `cid`; retire the engine if `u` was its last
    /// user.
    fn release(&mut self, u: UserId, cid: u32) {
        self.user_components[u as usize].retain(|&c| c != cid);
        let comp = self.slots[cid as usize].as_mut().expect("live slot");
        comp.users.retain(|&x| x != u);
        if comp.users.is_empty() {
            let comp = self.slots[cid as usize].take().expect("live slot");
            self.live_copies = self
                .live_copies
                .saturating_sub(comp.engine.metrics().copies_stored);
            self.key_to_id.remove(&comp.members);
            for &a in &comp.members {
                self.author_components[a as usize].retain(|&c| c != cid);
            }
            self.free.push(cid);
            self.churn.engines_retired += 1;
        }
    }

    /// Collect the warm-start seed records of the slots in `released`:
    /// distinct in-window records across all of them, in `(timestamp, id)`
    /// order.
    fn collect_seeds(&self, released: &[u32]) -> Vec<PostRecord> {
        let mut seeds = Vec::new();
        for &cid in released {
            if let Some(comp) = &self.slots[cid as usize] {
                comp.engine.window_records_into(&mut seeds);
            }
        }
        order_window_records(&mut seeds);
        seeds
    }

    /// Move `u` from the `released` slots to the `acquired` component
    /// member lists. Seeds are gathered from the released engines *before*
    /// any of them can be retired.
    fn rewire(&mut self, u: UserId, released: &[u32], acquired: &[Vec<AuthorId>]) {
        let need_spawn = acquired.iter().any(|m| !self.key_to_id.contains_key(m));
        let seeds = if self.warm_start && need_spawn && !released.is_empty() {
            self.collect_seeds(released)
        } else {
            Vec::new()
        };
        for members in acquired {
            self.acquire(u, members.clone(), &seeds, false);
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
        let pieces = user_components(&self.graph, &remaining);
        self.rewire(u, &[cid], &pieces);
        self.churn.unsubscribes += 1;
        Ok(true)
    }

    /// Register a new user; cold-spawns engines for genuinely new
    /// components (a brand-new user has no predecessor window to inherit).
    pub(crate) fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let u = self.subscriptions.add_user(authors)?;
        self.user_components
            .resize(self.subscriptions.user_count(), Vec::new());
        let pieces = user_components(&self.graph, self.subscriptions.authors_of(u));
        self.rewire(u, &[], &pieces);
        self.churn.users_added += 1;
        Ok(u)
    }

    /// Tombstone a user, retiring every engine they were the last user of.
    pub(crate) fn remove_user(&mut self, u: UserId) -> Result<(), SubscriptionError> {
        self.subscriptions.remove_user(u)?;
        let released = std::mem::take(&mut self.user_components[u as usize]);
        self.rewire(u, &released, &[]);
        self.churn.users_removed += 1;
        Ok(())
    }

    /// The per-post loop (Section 5): sweep if due, fingerprint once,
    /// consult the engine of every component owning the author, and fan each
    /// emitting component out to its users. Returns whether a sweep ran.
    pub(crate) fn offer(&mut self, post: &Post, out: &mut MultiDecision) -> bool {
        out.delivered_to.clear();
        let sweep_every = (self.config.thresholds.lambda_t / 2).max(1);
        let swept = post.timestamp.saturating_sub(self.last_sweep) >= sweep_every;
        if swept {
            self.sweep(post.timestamp);
        }
        let record = post.to_record(self.config.simhash);
        let mut delta_copies = 0i64;
        // Each component runs once. A user has at most one component
        // containing this author, so the fan-outs are disjoint.
        for &cid in &self.author_components[post.author as usize] {
            let Some(comp) = self.slots[cid as usize].as_mut() else {
                continue;
            };
            let before = comp.engine.metrics().copies_stored;
            // An engine that does not own the record's author answers
            // `None`: "not emitted" rather than taking down the stream.
            let emitted = comp.engine.offer(record).is_some_and(|v| v.is_emitted());
            delta_copies += comp.engine.metrics().copies_stored as i64 - before as i64;
            if emitted {
                out.delivered_to.extend_from_slice(&comp.users);
            }
        }
        self.live_copies = self.live_copies.saturating_add_signed(delta_copies);
        self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
        out.delivered_to.sort_unstable();
        debug_assert!(out.delivered_to.windows(2).all(|w| w[0] != w[1]));
        swept
    }

    /// Evict expired records from every live engine and recompute the
    /// authoritative live-copy count.
    fn sweep(&mut self, now: Timestamp) {
        self.last_sweep = now;
        let mut live = 0;
        for comp in self.slots.iter_mut().flatten() {
            comp.engine.evict_expired(now);
            live += comp.engine.metrics().copies_stored;
        }
        self.live_copies = live;
        self.peak_live_copies = self.peak_live_copies.max(self.live_copies);
    }

    /// Aggregated counters across all live engines, with the summed
    /// per-engine peaks replaced by the tracked simultaneous peak.
    pub(crate) fn metrics_total(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for comp in self.slots.iter().flatten() {
            total.merge(comp.engine.metrics());
        }
        total.peak_copies = self.peak_live_copies.max(total.copies_stored);
        total.peak_memory_bytes = total.peak_copies * PostRecord::SIZE_BYTES as u64;
        total
    }

    /// Aggregated approximate-backend counters across all live engines;
    /// `None` when engines run exact.
    pub(crate) fn approx_stats_total(&self) -> Option<firehose_stream::ApproxStats> {
        let mut acc = firehose_stream::ApproxStats::default();
        let mut any = false;
        for comp in self.slots.iter().flatten() {
            if let Some(s) = comp.engine.approx_stats() {
                acc.merge(&s);
                any = true;
            }
        }
        any.then_some(acc)
    }

    /// Serialize in the FHSNAP04 layout: engines keyed by the hash of their
    /// member list, independent of slot assignment and churn history.
    pub(crate) fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut engines: Vec<(u64, Vec<u8>)> = Vec::with_capacity(self.component_count());
        for comp in self.slots.iter().flatten() {
            let mut blob = Vec::new();
            comp.engine.save_state(&mut blob)?;
            engines.push((component_key(&comp.members), blob));
        }
        write_multi_state(
            w,
            &self.churn,
            &self.subscriptions,
            [self.last_sweep, self.live_copies, self.peak_live_copies],
            &mut engines,
        )
    }

    /// Restore either layout. FHSNAP04 rebuilds the registry from the
    /// embedded subscription table and matches engine blobs by component
    /// key, so the receiving registry's subscription state is irrelevant.
    /// The legacy layout has no keys: it restores by position and therefore
    /// requires a freshly built registry over the same subscriptions (the
    /// only way legacy state was ever produced).
    pub(crate) fn load_state(&mut self, r: &mut dyn std::io::Read) -> Result<(), SnapshotError> {
        match read_multi_state(r)? {
            MultiState::Legacy(blobs, ledger) => {
                let mut engines: Vec<&mut CompactEngine> = self
                    .slots
                    .iter_mut()
                    .flatten()
                    .map(|comp| &mut comp.engine)
                    .collect();
                if blobs.len() != engines.len() {
                    return Err(SnapshotError::StructureMismatch(
                        "legacy engine count does not match decomposition",
                    ));
                }
                for (engine, blob) in engines.iter_mut().zip(&blobs) {
                    load_engine_blob(engine, blob)?;
                }
                [self.last_sweep, self.live_copies, self.peak_live_copies] = ledger;
                Ok(())
            }
            MultiState::V2(state) => {
                let mut fresh = ComponentRegistry::new(
                    self.kind,
                    self.config,
                    Arc::clone(&self.graph),
                    state.subscriptions,
                    self.warm_start,
                );
                let mut blobs = state.engines;
                for comp in fresh.slots.iter_mut().flatten() {
                    let blob = blobs.remove(&component_key(&comp.members)).ok_or(
                        SnapshotError::StructureMismatch("missing engine state for a component"),
                    )?;
                    load_engine_blob(&mut comp.engine, &blob)?;
                }
                if !blobs.is_empty() {
                    return Err(SnapshotError::StructureMismatch(
                        "engine state for an unknown component",
                    ));
                }
                let rebuilt_initial = fresh.churn.initial_engines;
                fresh.churn = state.churn;
                if !state.has_initial {
                    // Pre-flags states never recorded the initial engine
                    // count; adopt the rebuilt decomposition's count (exact
                    // when no engine-churning ops preceded the save,
                    // best-effort otherwise).
                    fresh.churn.initial_engines = rebuilt_initial;
                }
                [fresh.last_sweep, fresh.live_copies, fresh.peak_live_copies] = state.ledger;
                *self = fresh;
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

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    /// Figure 7: edges 0-1, 0-5, 3-4; u0 follows {0,1,3,5}, u1 follows
    /// {0,1,3,4,5}.
    fn figure7_registry() -> ComponentRegistry {
        let graph = Arc::new(UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]));
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        ComponentRegistry::new(AlgorithmKind::UniBin, config(), graph, subs, true)
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
}
