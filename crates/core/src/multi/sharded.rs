//! The shard worker pool: the `Shards` executor of
//! [`SharedMulti`](crate::multi::SharedMulti) (`Sh_*`).
//!
//! The pool runs the component engines on N long-lived worker threads and
//! produces decisions, emissions, and counters **identical to the inline
//! executor**. Connected components never share engines (the paper's
//! Section 5 independence argument), so engines partition by slot id
//! (`cid % shards`) with no cross-shard traffic on the offer path.
//!
//! ## Topology
//!
//! The control thread — [`SharedMulti`](crate::multi::SharedMulti), which
//! lends its component registry to every call here — keeps the routing
//! tables, component metadata, subscriptions, and the churn ledger, while
//! the engines themselves live in one of two places:
//!
//! * **deployed** (steady state): each live engine is owned by the worker
//!   for shard `cid % shards`, shipped over that shard's bounded SPSC
//!   request ring (the `ring` module); the registry's engine slots are
//!   empty.
//! * **parked** (churn/restore): all engines are recalled into their
//!   registry slots — exactly where the inline executor keeps them — the
//!   *unchanged* sequential churn machinery runs (merge/split re-homing
//!   through the existing warm-start path), and the surviving engines are
//!   redeployed.
//!
//! ## Offer protocol
//!
//! Per post, the control thread replays the registry's sequential offer
//! loop: the sweep check runs first against the sequential `λt/2` schedule
//! and, if due, an in-band `Req::Sweep` marker is sent to **every** shard
//! before the post's records; the post is fingerprinted once on the control
//! thread (so SimHash pipelines with coverage scans on the shards); one
//! `Req::Offer` per owning component is routed to its shard, where the
//! worker runs the same per-engine step the inline loop does; responses
//! carry exact per-engine counter deltas, which the control thread folds
//! into an O(1) metrics cache and the sequential live/peak ledger in post
//! order. `offer_batch` keeps a bounded window of posts in flight, which is
//! where the multi-core throughput comes from.
//!
//! ## Checkpoints
//!
//! `save_state` asks every shard to serialize its engines in parallel
//! (`Req::SaveBlobs`) and stitches the per-shard blob sets into one
//! FHSNAP04 state keyed by component hash — byte-identical to what the
//! inline executor writes, so state moves freely between executors and
//! shard counts.
//!
//! ## Supervision
//!
//! A worker panic does not poison the engine. Each worker runs under
//! `catch_unwind` with a drop guard that flips its `ShardHealth` `dead`
//! flag while the stack unwinds; the control thread notices on its next
//! wait, counts the in-flight offers that died with the worker, respawns
//! the thread on fresh rings, recalls the surviving shards' engines,
//! rebuilds the lost ones empty, and redeploys. The episode is reported
//! through [`MultiDiversifier::take_shard_failure`](crate::multi::MultiDiversifier::take_shard_failure)
//! so a facade holding a checkpoint can restore the lost window state and
//! replay the lost posts (`FirehoseService` does exactly that). An optional
//! watchdog ([`SharedBuilder::watchdog`](crate::multi::SharedBuilder::watchdog))
//! escalates *stalled* shards — a frozen heartbeat with responses
//! outstanding — through the same restart path. Deterministic chaos
//! schedules ([`SharedBuilder::chaos`](crate::multi::SharedBuilder::chaos))
//! inject seeded panics and stalls mid-request for the resilience tests.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose_obs::Counter;
use firehose_stream::{
    AuthorId, Post, PostRecord, ShardFault, ShardFaultKind, ShardFaultPlan, Timestamp,
};

use crate::metrics::EngineMetrics;
use crate::multi::independent::CompactEngine;
use crate::multi::registry::{offer_engine, ComponentRegistry, Delta};
use crate::multi::ring::{self, Doorbell, SpscReceiver, SpscSender};
use crate::multi::{component_key, write_multi_state, MultiDecision, ShardFailure};
use crate::obs::ShardedObs;

/// Request/response ring capacity per shard. Pushes past a full ring drain
/// responses and retry, so this bounds memory, not correctness.
const RING_CAPACITY: usize = 1024;

/// Posts in flight at once in `offer_batch` before the control thread
/// stalls on the oldest.
const MAX_IN_FLIGHT: usize = 512;

/// Consecutive failed redeploys before the supervisor gives up. A worker
/// that cannot survive receiving its own engines is a deterministic crash
/// loop no amount of respawning fixes; chaos schedules stay far below this
/// because each respawn consumes one scheduled fault.
const MAX_RESTART_STORM: usize = 100;

/// Control → worker messages.
enum Req {
    /// Offer a fingerprinted record to the engine of component `cid`.
    Offer {
        seq: u64,
        cid: u32,
        record: PostRecord,
    },
    /// In-band eviction sweep marker: evict expired records from every
    /// engine on this shard, as of stream time `now`.
    Sweep { seq: u64, now: Timestamp },
    /// Take ownership of a component engine.
    Deploy {
        cid: u32,
        engine: Box<CompactEngine>,
    },
    /// Ship every owned engine back ([`Resp::Engine`] each).
    Recall,
    /// Serialize every owned engine ([`Resp::Blob`] each).
    SaveBlobs,
    /// Exit the worker loop.
    Shutdown,
}

/// Worker → control messages.
enum Resp {
    /// One engine consulted for `seq`.
    Offered {
        seq: u64,
        cid: u32,
        emitted: bool,
        delta: Delta,
    },
    /// The shard-wide sweep for `seq` completed.
    Swept { seq: u64, delta: Delta },
    /// A recalled engine.
    Engine {
        cid: u32,
        engine: Box<CompactEngine>,
    },
    /// FIFO barrier closing a [`Req::Recall`]: everything this worker sent
    /// before it — engine shipments, but also offer/sweep responses
    /// abandoned by a failure — has been received once this arrives.
    Recalled,
    /// One engine's serialized state.
    Blob {
        cid: u32,
        blob: std::io::Result<Vec<u8>>,
    },
}

/// Shared health record for one shard worker, written by the worker (or
/// its drop guard) and polled by the control thread.
#[derive(Default)]
struct ShardHealth {
    /// Set by the worker's drop guard while it unwinds from a panic, or by
    /// the watchdog when the shard is declared stalled. Once set, the
    /// control thread stops waiting on this shard and schedules a respawn.
    dead: AtomicBool,
    /// Set by the watchdog on a stall escalation: tells a live-but-stuck
    /// worker to exit instead of responding, and the supervisor to detach
    /// (never join) the old thread.
    abandoned: AtomicBool,
    /// Heartbeat: requests handled by the current worker lifetime, bumped
    /// after each one. A frozen value with responses outstanding is a
    /// stall.
    processed: AtomicU64,
}

impl ShardHealth {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// One shard's ring pair plus its wakeup doorbell.
struct ShardLink {
    req: SpscSender<Req>,
    resp: SpscReceiver<Resp>,
    bell: Arc<Doorbell>,
}

impl ShardLink {
    /// Push `req` and ring the doorbell, retrying while the request ring is
    /// full. `while_full` runs before each retry: it must drain whatever
    /// responses the worker may be blocked on, and returns `false` to give
    /// up (the worker is dead), which hands the request back.
    fn push(&self, mut req: Req, mut while_full: impl FnMut() -> bool) -> Result<(), Req> {
        loop {
            match self.req.try_push(req) {
                Ok(()) => {
                    self.bell.ring();
                    return Ok(());
                }
                Err(r) if while_full() => {
                    req = r;
                    std::thread::yield_now();
                }
                Err(r) => return Err(r),
            }
        }
    }
}

/// One post's in-flight bookkeeping: how many responses are still due, the
/// ordered live-copies delta, and which components emitted.
struct PendingPost {
    seq: u64,
    expected: usize,
    delta_copies: i64,
    emitted_cids: Vec<u32>,
}

/// Spawn one shard worker on fresh rings, optionally carrying a scheduled
/// chaos fault for this lifetime.
fn spawn_worker(
    shard: usize,
    fault: Option<ShardFault>,
) -> (ShardLink, std::thread::JoinHandle<()>, Arc<ShardHealth>) {
    let (req_tx, req_rx) = ring::spsc::<Req>(RING_CAPACITY);
    let (resp_tx, resp_rx) = ring::spsc::<Resp>(RING_CAPACITY);
    let bell = Arc::new(Doorbell::new());
    let health = Arc::new(ShardHealth::default());
    let worker_bell = Arc::clone(&bell);
    let worker_health = Arc::clone(&health);
    let handle = std::thread::Builder::new()
        .name(format!("firehose-shard-{shard}"))
        .spawn(move || worker_loop(req_rx, resp_tx, worker_bell, worker_health, fault))
        .expect("spawn shard worker");
    (
        ShardLink {
            req: req_tx,
            resp: resp_rx,
            bell,
        },
        handle,
        health,
    )
}

/// The persistent shard workers and the control-side state that tracks
/// them. Owns no registry: every operation borrows the caller's.
pub(super) struct ShardPool {
    links: Vec<ShardLink>,
    /// Current worker handles; `None` briefly during a respawn.
    workers: Vec<Option<std::thread::JoinHandle<()>>>,
    /// Per-shard health records shared with the workers.
    health: Vec<Arc<ShardHealth>>,
    /// Remaining scheduled chaos faults per shard; each worker lifetime
    /// consumes at most one at spawn.
    chaos: Vec<VecDeque<ShardFault>>,
    /// Stall-detection deadline; `None` disables the watchdog.
    watchdog: Option<Duration>,
    /// Whether engines currently live on the workers.
    deployed: bool,
    /// Post sequence number, shared by offers and sweep markers.
    seq: u64,
    /// Summed non-peak counters of the deployed engines: rebuilt from the
    /// engines at every deploy, advanced by response [`Delta`]s while they
    /// are away. Makes [`metrics`](Self::metrics) O(1) — required because
    /// the checkpoint manager polls it after every post.
    cache: EngineMetrics,
    /// Worker respawns over this pool's lifetime.
    restarts: u64,
    /// Offer/sweep requests awaiting a response, per shard.
    outstanding: Vec<u64>,
    /// Pending failure report for `take_shard_failure`.
    failure: Option<ShardFailure>,
    /// The strategy-level sweep counter, when observed.
    sweeps: Option<Counter>,
    /// Per-shard instruments; empty when unobserved.
    shard_obs: Vec<ShardedObs>,
}

impl ShardPool {
    /// Spawn `shards` workers (at least 1) and deploy `reg`'s engines to
    /// them.
    pub(super) fn spawn(
        shards: usize,
        watchdog: Option<Duration>,
        plan: ShardFaultPlan,
        reg: &mut ComponentRegistry,
    ) -> Self {
        let mut chaos: Vec<VecDeque<ShardFault>> = vec![VecDeque::new(); shards];
        for fault in plan.faults {
            if fault.shard < shards {
                chaos[fault.shard].push_back(fault);
            }
        }
        let mut links = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut health = Vec::with_capacity(shards);
        for (shard, queue) in chaos.iter_mut().enumerate() {
            let (link, handle, h) = spawn_worker(shard, queue.pop_front());
            links.push(link);
            workers.push(Some(handle));
            health.push(h);
        }
        let mut pool = ShardPool {
            links,
            workers,
            health,
            chaos,
            watchdog,
            deployed: false,
            seq: 0,
            cache: EngineMetrics::default(),
            restarts: 0,
            outstanding: vec![0; shards],
            failure: None,
            sweeps: None,
            shard_obs: Vec::new(),
        };
        // `ensure_deployed`, not `deploy`: a chaos fault with a tiny
        // threshold can kill a worker during this very first deployment.
        pool.ensure_deployed(reg);
        pool
    }

    /// Attach per-shard instruments (ring depth, deployed-engine occupancy,
    /// sweep and re-home counters) to `registry`; `sweeps` is the
    /// strategy-level sweep counter the pool bumps once per sweep.
    pub(super) fn attach_obs(
        &mut self,
        registry: &firehose_obs::Registry,
        strategy: &str,
        reg: &ComponentRegistry,
        sweeps: Counter,
    ) {
        self.sweeps = Some(sweeps);
        self.shard_obs = (0..self.links.len())
            .map(|s| ShardedObs::register(registry, strategy, s))
            .collect();
        self.publish_occupancy(reg);
    }

    /// Publish how many live components each shard owns.
    fn publish_occupancy(&self, reg: &ComponentRegistry) {
        if self.shard_obs.is_empty() {
            return;
        }
        let mut occupancy = vec![0i64; self.links.len()];
        for (cid, meta) in reg.meta.iter().enumerate() {
            if meta.is_some() {
                occupancy[cid % self.links.len()] += 1;
            }
        }
        for (o, n) in self.shard_obs.iter().zip(occupancy) {
            o.engines.set(n);
        }
    }

    /// Number of worker shards.
    pub(super) fn shards(&self) -> usize {
        self.links.len()
    }

    fn any_dead(&self) -> bool {
        self.health.iter().any(|h| h.is_dead())
    }

    fn first_dead(&self) -> Option<usize> {
        self.health.iter().position(|h| h.is_dead())
    }

    /// Current per-shard heartbeat counters.
    fn heartbeats(&self) -> Vec<u64> {
        self.health
            .iter()
            .map(|h| h.processed.load(Ordering::SeqCst))
            .collect()
    }

    /// Declare stalled every shard that owes responses and whose heartbeat
    /// has not moved since `base`: mark it abandoned (the worker, if it
    /// ever wakes, exits instead of responding) and dead (the supervisor
    /// respawns it). Returns whether any shard was escalated.
    fn abandon_stalled(&mut self, base: &[u64]) -> bool {
        let mut any = false;
        for (shard, &seen) in base.iter().enumerate().take(self.links.len()) {
            if self.outstanding[shard] == 0 {
                continue;
            }
            let h = &self.health[shard];
            if h.is_dead() || h.processed.load(Ordering::SeqCst) != seen {
                continue;
            }
            h.abandoned.store(true, Ordering::SeqCst);
            h.dead.store(true, Ordering::SeqCst);
            any = true;
        }
        any
    }

    /// Push `req` to `shard`, draining responses into `pending`/`cache`
    /// while the request ring is full so the worker can always make
    /// progress. Returns `false` (dropping the request) once a worker is
    /// dead — the caller escalates to recovery, which discards `pending`
    /// anyway.
    fn push_req(&mut self, shard: usize, req: Req, pending: &mut VecDeque<PendingPost>) -> bool {
        let awaits_response = matches!(req, Req::Offer { .. } | Req::Sweep { .. });
        let pushed = self.links[shard].push(req, || {
            if self.health.iter().any(|h| h.is_dead()) {
                return false;
            }
            drain_responses(
                &self.links,
                &self.shard_obs,
                pending,
                &mut self.cache,
                &mut self.outstanding,
            );
            true
        });
        if pushed.is_err() {
            return false;
        }
        if awaits_response {
            self.outstanding[shard] += 1;
        }
        if let Some(o) = self.shard_obs.get(shard) {
            o.ring_depth.add(1);
        }
        true
    }

    /// Issue one post's sweep marker (if due) and offers, pushing its
    /// bookkeeping onto `pending`. Returns `false` if a worker death cut
    /// the fan-out short.
    fn issue_post(
        &mut self,
        reg: &mut ComponentRegistry,
        post: &Post,
        pending: &mut VecDeque<PendingPost>,
    ) -> bool {
        self.seq += 1;
        let seq = self.seq;
        // The pending entry must exist BEFORE any request is pushed:
        // `push_req` drains responses whenever a ring is full, and a
        // response to this very post's first request may arrive while its
        // later requests are still being pushed. `expected` is bumped
        // ahead of each push for the same reason (it can never underflow:
        // every response matches an already-counted request).
        pending.push_back(PendingPost {
            seq,
            expected: 0,
            delta_copies: 0,
            emitted_cids: Vec::new(),
        });
        // Sequential sweep schedule, checked before the post's records and
        // delivered in-band ahead of them on every shard.
        if reg.sweep_due(post.timestamp) {
            reg.last_sweep = post.timestamp;
            for shard in 0..self.links.len() {
                pending.back_mut().expect("just pushed").expected += 1;
                if !self.push_req(
                    shard,
                    Req::Sweep {
                        seq,
                        now: post.timestamp,
                    },
                    pending,
                ) {
                    return false;
                }
                if let Some(o) = self.shard_obs.get(shard) {
                    o.sweeps.inc();
                }
            }
            if let Some(sweeps) = &self.sweeps {
                sweeps.inc();
            }
        }
        // Fingerprint once on the control thread; coverage scans overlap on
        // the shards.
        let record = post.to_record(reg.config().simhash);
        for &cid in &reg.author_components[post.author as usize] {
            let shard = cid as usize % self.links.len();
            pending.back_mut().expect("just pushed").expected += 1;
            if !self.push_req(shard, Req::Offer { seq, cid, record }, pending) {
                return false;
            }
        }
        true
    }

    /// Block until the oldest pending post has all its responses. Returns
    /// `false` if a worker died — or was declared stalled by the watchdog —
    /// while responses were still owed.
    fn wait_front(&mut self, pending: &mut VecDeque<PendingPost>) -> bool {
        let mut idle: u32 = 0;
        let mut watch: Option<(Instant, Vec<u64>)> = None;
        while pending.front().is_some_and(|p| p.expected > 0) {
            if drain_responses(
                &self.links,
                &self.shard_obs,
                pending,
                &mut self.cache,
                &mut self.outstanding,
            ) {
                idle = 0;
                watch = None;
            } else {
                if self.any_dead() {
                    return false;
                }
                idle += 1;
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    // Never park: on small machines the workers need this
                    // core.
                    std::thread::yield_now();
                    if let Some(deadline) = self.watchdog {
                        match &watch {
                            None => watch = Some((Instant::now(), self.heartbeats())),
                            Some((t0, base)) if t0.elapsed() >= deadline => {
                                if self.abandon_stalled(base) {
                                    return false;
                                }
                                // Heartbeats moved: the shards are slow, not
                                // stalled. Re-arm.
                                watch = Some((Instant::now(), self.heartbeats()));
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        true
    }

    /// Finalize the oldest pending post **in post order**: fold its signed
    /// copies delta into the sequential live/peak ledger and expand its
    /// emitting components to user ids.
    fn finalize_front(
        reg: &mut ComponentRegistry,
        pending: &mut VecDeque<PendingPost>,
        out: &mut MultiDecision,
    ) {
        let p = pending.pop_front().expect("front pending post");
        debug_assert_eq!(p.expected, 0);
        out.delivered_to.clear();
        for cid in p.emitted_cids {
            reg.deliver(cid, out);
        }
        reg.close_post(p.delta_copies, out);
    }

    /// Ship every parked engine to its shard (`cid % shards`) and rebuild
    /// the O(1) metrics cache from their counters. Returns `false` without
    /// setting the deployed flag when a worker is (or goes) dead: the
    /// in-hand engine returns to its slot, already-shipped engines stay out
    /// and are reclaimed by the next `park`.
    fn deploy(&mut self, reg: &mut ComponentRegistry) -> bool {
        debug_assert!(!self.deployed);
        if self.any_dead() {
            return false;
        }
        let mut cache = EngineMetrics::default();
        for cid in 0..reg.engines.len() {
            let Some(engine) = reg.engines[cid].take() else {
                continue;
            };
            cache.merge(engine.metrics());
            let shard = cid % self.links.len();
            let req = Req::Deploy {
                cid: cid as u32,
                engine: Box::new(engine),
            };
            if let Err(req) = self.links[shard].push(req, || !self.any_dead()) {
                let Req::Deploy { engine, .. } = req else {
                    unreachable!("the request handed back is the one pushed")
                };
                reg.engines[cid] = Some(*engine);
                return false;
            }
        }
        self.cache = cache;
        self.deployed = true;
        self.publish_occupancy(reg);
        true
    }

    /// Recall every deployed engine on every live shard into its registry
    /// slot; dead shards are skipped (their engines died with them — the
    /// supervisor rebuilds them) and stale offer/sweep/blob responses
    /// abandoned by a failure are dropped. After this the registry is
    /// authoritative for every engine that survived.
    ///
    /// The pushes here drain with [`receive_parked_responses`], not
    /// [`push_req`]'s [`drain_responses`]: earlier shards may already be
    /// streaming [`Resp::Engine`]s back while later `Recall`s are still
    /// being pushed, and the offer path rejects engine responses by design. Each live
    /// shard closes its recall with a [`Resp::Recalled`] barrier, so when
    /// every live shard has answered, nothing of the pre-park era is left
    /// in any ring.
    fn park(&mut self, reg: &mut ComponentRegistry) {
        let mut done = vec![false; self.links.len()];
        for shard in 0..self.links.len() {
            if self.health[shard].is_dead() {
                continue;
            }
            // A push given up on means the shard died meanwhile; the wait
            // below skips it like any other dead shard.
            let _ = self.links[shard].push(Req::Recall, || {
                if self.health[shard].is_dead() {
                    return false;
                }
                receive_parked_responses(
                    &self.links,
                    &self.shard_obs,
                    reg,
                    &mut self.outstanding,
                    &mut done,
                );
                true
            });
        }
        loop {
            // Snapshot deaths before draining: a worker's pre-death pushes
            // are visible once its dead flag is, so a drain that runs after
            // seeing the flag has popped everything it ever sent.
            let dead: Vec<bool> = self.health.iter().map(|h| h.is_dead()).collect();
            let progress = receive_parked_responses(
                &self.links,
                &self.shard_obs,
                reg,
                &mut self.outstanding,
                &mut done,
            );
            if (0..self.links.len()).all(|s| done[s] || dead[s]) {
                break;
            }
            if !progress {
                std::thread::yield_now();
            }
        }
        self.deployed = false;
        for o in &self.shard_obs {
            o.engines.set(0);
        }
    }

    /// Park every engine and heal every dead worker: count the offers that
    /// died with them, respawn their threads (consuming the next scheduled
    /// chaos fault, if any), rebuild their lost engines empty, and record
    /// the failure episode for `take_shard_failure`. On return all workers
    /// are alive and all surviving state is parked. Degenerates to a plain
    /// park when nothing died.
    fn heal_parked(&mut self, reg: &mut ComponentRegistry, lost_posts: u64) {
        let mut episode_shard = self.first_dead();
        let mut lost_offers = 0u64;
        let mut lost_engines = 0u64;
        let mut restarted = 0u64;
        loop {
            self.park(reg);
            if !self.any_dead() {
                break;
            }
            // A death can also first surface *during* the park (a chaos
            // fault firing on the recall itself), so the episode loops; a
            // parked worker handles no requests, so the second park is
            // always clean.
            episode_shard = episode_shard.or_else(|| self.first_dead());
            for s in 0..self.links.len() {
                if self.health[s].is_dead() && self.outstanding[s] > 0 {
                    lost_offers += self.outstanding[s];
                    if let Some(o) = self.shard_obs.get(s) {
                        o.lost_offers.add(self.outstanding[s]);
                    }
                    self.outstanding[s] = 0;
                }
            }
            restarted += self.restart_dead_workers();
            lost_engines += reg.rebuild_missing_engines();
        }
        if restarted == 0 {
            return;
        }
        for s in self.outstanding.iter_mut() {
            *s = 0;
        }
        // Requests abandoned in replaced rings make the depth gauges drift;
        // everything is quiescent now, so reset them.
        for o in &self.shard_obs {
            o.ring_depth.set(0);
        }
        let restarts = self.restarts;
        let f = self.failure.get_or_insert_with(|| ShardFailure {
            shard: episode_shard.unwrap_or(0),
            ..Default::default()
        });
        f.restarts = restarts;
        f.lost_offers += lost_offers;
        f.lost_posts += lost_posts;
        f.lost_engines += lost_engines;
    }

    /// Respawn every dead worker on fresh rings, consuming its next
    /// scheduled chaos fault. Panicked workers are joined (their threads
    /// already exited through `catch_unwind`); abandoned (stalled) workers
    /// are detached — an injected stall exits on the abandoned flag, a real
    /// runaway thread is leaked rather than waited on forever.
    fn restart_dead_workers(&mut self) -> u64 {
        let mut restarted = 0;
        for shard in 0..self.links.len() {
            if !self.health[shard].is_dead() {
                continue;
            }
            let abandoned = self.health[shard].abandoned.load(Ordering::SeqCst);
            if let Some(handle) = self.workers[shard].take() {
                if abandoned {
                    drop(handle);
                } else {
                    let _ = handle.join();
                }
            }
            let fault = self.chaos[shard].pop_front();
            // Replacing the link retires the old rings (and whatever stale
            // requests they still held) once the old worker's ends drop.
            let (link, handle, health) = spawn_worker(shard, fault);
            self.links[shard] = link;
            self.workers[shard] = Some(handle);
            self.health[shard] = health;
            self.restarts += 1;
            restarted += 1;
            if let Some(o) = self.shard_obs.get(shard) {
                o.restarts.inc();
            }
        }
        restarted
    }

    /// Full failure recovery: park what survived, respawn dead workers,
    /// rebuild lost engines, redeploy — looping because a scheduled chaos
    /// fault (or a deterministic crash bug) can kill a fresh worker during
    /// the redeploy itself. Panics after [`MAX_RESTART_STORM`] consecutive
    /// failed redeploys: a worker that cannot survive receiving its engines
    /// is a crash loop no supervisor can fix.
    fn recover_and_redeploy(&mut self, reg: &mut ComponentRegistry, mut lost_posts: u64) {
        for _ in 0..MAX_RESTART_STORM {
            self.heal_parked(reg, lost_posts);
            lost_posts = 0; // counted once
            if self.deploy(reg) {
                return;
            }
        }
        panic!(
            "shard worker crash loop: {MAX_RESTART_STORM} consecutive redeploys failed \
             ({} restarts so far)",
            self.restarts
        );
    }

    /// Offer-path failure handling: everything still pending is lost (a
    /// dead worker can never answer); clear it and run full recovery.
    fn recover(&mut self, reg: &mut ComponentRegistry, pending: &mut VecDeque<PendingPost>) {
        let lost_posts = pending.len() as u64;
        pending.clear();
        self.recover_and_redeploy(reg, lost_posts);
    }

    /// Pop every available save response, keying each blob by its
    /// component's member hash; returns how many blobs arrived (including
    /// failed ones, which land in `first_err`). Only valid while a save is
    /// in flight (the offer path is quiescent, so blobs are the only
    /// traffic).
    fn receive_saved_blobs(
        &self,
        reg: &ComponentRegistry,
        engines: &mut Vec<(u64, Vec<u8>)>,
        first_err: &mut Option<std::io::Error>,
    ) -> usize {
        let mut n = 0;
        for link in &self.links {
            while let Some(resp) = link.resp.try_pop() {
                match resp {
                    Resp::Blob { cid, blob } => {
                        n += 1;
                        match blob {
                            Ok(bytes) => {
                                let meta = reg.meta[cid as usize]
                                    .as_ref()
                                    .expect("deployed engine has meta");
                                engines.push((component_key(&meta.members), bytes));
                            }
                            Err(e) => {
                                if first_err.is_none() {
                                    *first_err = Some(e);
                                }
                            }
                        }
                    }
                    _ => unreachable!("only blobs may be in flight during a save"),
                }
            }
        }
        n
    }

    /// Recover the deployed invariant — after a failed restore left the
    /// engine parked, or after a worker death that has not yet been healed.
    fn ensure_deployed(&mut self, reg: &mut ComponentRegistry) {
        if self.any_dead() || (!self.deployed && !self.deploy(reg)) {
            self.recover_and_redeploy(reg, 0);
        }
    }

    /// Batch-path failure handling: the aborted posts still need aligned
    /// decisions (empty deliveries — their offers never completed), then
    /// full recovery.
    fn abort_pending(
        &mut self,
        reg: &mut ComponentRegistry,
        pending: &mut VecDeque<PendingPost>,
        decisions: &mut Vec<MultiDecision>,
    ) {
        for _ in 0..pending.len() {
            decisions.push(MultiDecision::default());
        }
        self.recover(reg, pending);
    }

    /// Park (healing any dead workers first), run a churn operation against
    /// the sequential registry machinery, count cross-shard re-homes, and
    /// redeploy.
    pub(super) fn with_parked<R>(
        &mut self,
        reg: &mut ComponentRegistry,
        f: impl FnOnce(&mut ComponentRegistry) -> R,
    ) -> R {
        self.heal_parked(reg, 0);
        let before: Vec<(u32, AuthorId)> = reg
            .meta
            .iter()
            .enumerate()
            .filter_map(|(cid, m)| m.as_ref().map(|m| (cid as u32, m.members[0])))
            .collect();
        let result = f(reg);
        self.count_re_homes(reg, &before);
        if !self.deploy(reg) {
            self.recover_and_redeploy(reg, 0);
        }
        result
    }

    /// Count engines spawned by the last churn op whose warm-start seeds
    /// came from a retired engine on a different shard. A merged component
    /// contains each absorbed component's smallest member (the registry's
    /// own absorption test), so "retired first member ∈ new members" is the
    /// seed-provenance signal. Approximate when a freed slot is recycled
    /// within the same operation.
    fn count_re_homes(&self, reg: &ComponentRegistry, before: &[(u32, AuthorId)]) {
        let retired: Vec<(u32, AuthorId)> = before
            .iter()
            .copied()
            .filter(|&(cid, _)| reg.meta[cid as usize].is_none())
            .collect();
        if retired.is_empty() {
            return;
        }
        let live_before: HashSet<u32> = before.iter().map(|&(cid, _)| cid).collect();
        for (cid, meta) in reg.meta.iter().enumerate() {
            let Some(meta) = meta else { continue };
            if live_before.contains(&(cid as u32)) {
                continue;
            }
            let new_shard = cid % self.links.len();
            let moved = retired.iter().any(|&(old, first)| {
                old as usize % self.links.len() != new_shard
                    && meta.members.binary_search(&first).is_ok()
            });
            if let (true, Some(o)) = (moved, self.shard_obs.get(new_shard)) {
                o.re_homes.inc();
            }
        }
    }
}

impl ShardPool {
    /// Offer one post: issue it, wait for its responses, and finalize it.
    /// A post that dies with a worker reports an empty delivery; the failure
    /// episode (including that lost post) is available via
    /// [`take_shard_failure`](Self::take_shard_failure).
    pub(super) fn offer_into(
        &mut self,
        reg: &mut ComponentRegistry,
        post: &Post,
        out: &mut MultiDecision,
    ) {
        self.ensure_deployed(reg);
        let mut pending = VecDeque::with_capacity(1);
        if self.issue_post(reg, post, &mut pending) && self.wait_front(&mut pending) {
            Self::finalize_front(reg, &mut pending, out);
        } else {
            out.delivered_to.clear();
            self.recover(reg, &mut pending);
        }
    }

    /// The pipelined throughput path: keeps up to `MAX_IN_FLIGHT` posts
    /// in flight so fingerprinting, routing, and the shards' coverage scans
    /// overlap.
    pub(super) fn offer_batch(
        &mut self,
        reg: &mut ComponentRegistry,
        posts: &[Post],
    ) -> Vec<MultiDecision> {
        self.ensure_deployed(reg);
        let mut decisions: Vec<MultiDecision> = Vec::with_capacity(posts.len());
        let mut pending: VecDeque<PendingPost> = VecDeque::with_capacity(MAX_IN_FLIGHT);
        for post in posts {
            // Opportunistically retire completed posts, then respect the
            // in-flight window.
            drain_responses(
                &self.links,
                &self.shard_obs,
                &mut pending,
                &mut self.cache,
                &mut self.outstanding,
            );
            while pending.front().is_some_and(|p| p.expected == 0) || pending.len() >= MAX_IN_FLIGHT
            {
                self.retire_front(reg, &mut pending, &mut decisions);
            }
            if !self.issue_post(reg, post, &mut pending) {
                self.abort_pending(reg, &mut pending, &mut decisions);
            }
        }
        while !pending.is_empty() {
            self.retire_front(reg, &mut pending, &mut decisions);
        }
        decisions
    }

    /// Wait for the oldest pending post and append its decision — or, when
    /// a worker died under it, abort everything pending.
    fn retire_front(
        &mut self,
        reg: &mut ComponentRegistry,
        pending: &mut VecDeque<PendingPost>,
        decisions: &mut Vec<MultiDecision>,
    ) {
        if self.wait_front(pending) {
            let mut out = MultiDecision::default();
            Self::finalize_front(reg, pending, &mut out);
            decisions.push(out);
        } else {
            self.abort_pending(reg, pending, decisions);
        }
    }

    /// Aggregated counters across all engines, wherever they are.
    pub(super) fn metrics(&self, reg: &ComponentRegistry) -> EngineMetrics {
        if self.deployed {
            reg.with_live_peak(self.cache)
        } else {
            reg.metrics_total()
        }
    }

    /// Stitched checkpoint: every shard serializes its engines in parallel
    /// and the control thread assembles the `(component key, blob)` pairs
    /// into the standard FHSNAP04 state — byte-identical to
    /// `ComponentRegistry::save_state` over the same engines.
    pub(super) fn save_state(
        &self,
        reg: &ComponentRegistry,
        w: &mut dyn std::io::Write,
    ) -> std::io::Result<()> {
        if !self.deployed {
            return reg.save_state(w);
        }
        if self.any_dead() {
            return Err(shard_failed_error());
        }
        let total = reg.component_count();
        let mut engines: Vec<(u64, Vec<u8>)> = Vec::with_capacity(total);
        let mut first_err: Option<std::io::Error> = None;
        let mut received = 0usize;
        // Like `park`, the push loop drains this path's own responses:
        // earlier shards may already be streaming blobs back while later
        // `SaveBlobs` are still being pushed.
        for link in &self.links {
            let pushed = link.push(Req::SaveBlobs, || {
                if self.any_dead() {
                    return false;
                }
                received += self.receive_saved_blobs(reg, &mut engines, &mut first_err);
                true
            });
            if pushed.is_err() {
                return Err(shard_failed_error());
            }
        }
        while received < total {
            let n = self.receive_saved_blobs(reg, &mut engines, &mut first_err);
            if n == 0 {
                if self.any_dead() {
                    return Err(shard_failed_error());
                }
                std::thread::yield_now();
            }
            received += n;
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        write_multi_state(
            w,
            &reg.churn,
            &reg.subscriptions,
            [reg.last_sweep, reg.live_copies, reg.peak_live_copies],
            &mut engines,
        )
    }

    /// Park, load the registry, redeploy. On error the engines stay parked;
    /// the next operation redeploys whatever state the registry was left
    /// with (the trait contract requires a rebuild anyway).
    pub(super) fn load_state(
        &mut self,
        reg: &mut ComponentRegistry,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.heal_parked(reg, 0);
        let result = reg.load_state(r);
        if result.is_ok() && !self.deploy(reg) {
            self.recover_and_redeploy(reg, 0);
        }
        result
    }

    /// Take the pending failure report. An unhealed death (e.g. detected
    /// by a failed `save_state`, which must not mutate) is healed here so
    /// the report is complete.
    pub(super) fn take_shard_failure(
        &mut self,
        reg: &mut ComponentRegistry,
    ) -> Option<ShardFailure> {
        if self.any_dead() {
            self.recover_and_redeploy(reg, 0);
        }
        self.failure.take()
    }

    /// Attribute an ingest-guard quarantine to the shard that would have
    /// processed the author's first owning component; authors with no
    /// subscribers hash straight to a shard so every quarantine lands
    /// somewhere.
    pub(super) fn note_quarantined(&self, reg: &ComponentRegistry, author: AuthorId) {
        let shard = reg
            .author_components
            .get(author as usize)
            .and_then(|cids| cids.first())
            .map(|&cid| cid as usize % self.links.len())
            .unwrap_or(author as usize % self.links.len());
        if let Some(o) = self.shard_obs.get(shard) {
            o.quarantined.inc();
        }
    }
}

/// Pop every available response on every link, folding counter deltas into
/// `cache` and per-post state into `pending`. Returns whether anything
/// arrived.
fn drain_responses(
    links: &[ShardLink],
    shard_obs: &[ShardedObs],
    pending: &mut VecDeque<PendingPost>,
    cache: &mut EngineMetrics,
    outstanding: &mut [u64],
) -> bool {
    let mut progress = false;
    for (shard, link) in links.iter().enumerate() {
        while let Some(resp) = link.resp.try_pop() {
            progress = true;
            if let Some(o) = shard_obs.get(shard) {
                o.ring_depth.add(-1);
            }
            outstanding[shard] = outstanding[shard].saturating_sub(1);
            let (seq, cid_emitted, delta) = match resp {
                Resp::Offered {
                    seq,
                    cid,
                    emitted,
                    delta,
                } => (seq, emitted.then_some(cid), delta),
                Resp::Swept { seq, delta } => (seq, None, delta),
                _ => unreachable!("recall/save responses cannot overlap the offer path"),
            };
            delta.apply_to(cache);
            let front_seq = pending.front().expect("pending post for response").seq;
            let p = &mut pending[(seq - front_seq) as usize];
            p.delta_copies += delta.copies;
            p.expected -= 1;
            if let Some(cid) = cid_emitted {
                p.emitted_cids.push(cid);
            }
        }
    }
    progress
}

/// Pop every available response during a park. Engines land in their
/// registry slots; [`Resp::Recalled`] barriers mark their shard done; stale
/// offer/sweep/blob responses abandoned by an aborted batch or a failed
/// save are dropped (the posts they belong to were already written off).
/// Returns whether anything arrived.
fn receive_parked_responses(
    links: &[ShardLink],
    shard_obs: &[ShardedObs],
    registry: &mut ComponentRegistry,
    outstanding: &mut [u64],
    done: &mut [bool],
) -> bool {
    let mut progress = false;
    for (shard, link) in links.iter().enumerate() {
        while let Some(resp) = link.resp.try_pop() {
            progress = true;
            match resp {
                Resp::Engine { cid, engine } => {
                    registry.engines[cid as usize] = Some(*engine);
                }
                Resp::Recalled => {
                    done[shard] = true;
                }
                Resp::Offered { .. } | Resp::Swept { .. } => {
                    // Stale offer-path traffic from before the failure.
                    if let Some(o) = shard_obs.get(shard) {
                        o.ring_depth.add(-1);
                    }
                    outstanding[shard] = outstanding[shard].saturating_sub(1);
                }
                Resp::Blob { .. } => {
                    // Stale save traffic from a failed checkpoint.
                }
            }
        }
    }
    progress
}

/// The worker entry point: runs the request loop under `catch_unwind` so a
/// panic (real or injected) flips the shard's `dead` flag and exits the
/// thread cleanly instead of poisoning the engine. The drop guard covers
/// the unwind itself; the post-`catch_unwind` store covers the (impossible
/// today, cheap forever) case of the guard being skipped.
fn worker_loop(
    rx: SpscReceiver<Req>,
    tx: SpscSender<Resp>,
    bell: Arc<Doorbell>,
    health: Arc<ShardHealth>,
    fault: Option<ShardFault>,
) {
    /// Reports the worker's death to the supervisor while the stack
    /// unwinds.
    struct DeathNotice(Arc<ShardHealth>);
    impl Drop for DeathNotice {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.dead.store(true, Ordering::SeqCst);
            }
        }
    }
    let inner = Arc::clone(&health);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _notice = DeathNotice(Arc::clone(&inner));
        worker_run(rx, tx, bell, &inner, fault);
    }));
    if result.is_err() {
        health.dead.store(true, Ordering::SeqCst);
    }
}

/// The worker request loop: owns the deployed engines of one shard, parks
/// on its doorbell when idle, bumps its heartbeat after every handled
/// request, and fires its scheduled chaos fault (if any) once enough
/// requests have been handled.
fn worker_run(
    rx: SpscReceiver<Req>,
    tx: SpscSender<Resp>,
    bell: Arc<Doorbell>,
    health: &ShardHealth,
    fault: Option<ShardFault>,
) {
    // Returns `false` when the shard was abandoned while the response ring
    // was full — the control thread stopped draining, so waiting longer
    // deadlocks; the worker exits instead.
    let respond = |mut resp: Resp| loop {
        match tx.try_push(resp) {
            Ok(()) => break true,
            Err(r) => {
                resp = r;
                if health.abandoned.load(Ordering::SeqCst) {
                    break false;
                }
                std::thread::yield_now();
            }
        }
    };

    let mut engines: std::collections::HashMap<u32, CompactEngine> =
        std::collections::HashMap::new();
    let mut handled: u64 = 0;
    loop {
        let Some(req) = next_req(&rx, &bell, health) else {
            return; // abandoned by the watchdog
        };
        if let Some(f) = fault {
            if handled >= f.after_requests {
                match f.kind {
                    // `resume_unwind`, not `panic!`: the drop guard still
                    // fires (`std::thread::panicking()` is true during the
                    // unwind) but the global panic hook does not, keeping
                    // chaos runs quiet.
                    ShardFaultKind::Panic => {
                        std::panic::resume_unwind(Box::new("injected shard fault"))
                    }
                    // Freeze mid-request until the watchdog abandons us.
                    ShardFaultKind::Stall => {
                        while !health.abandoned.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return;
                    }
                }
            }
        }
        match req {
            Req::Offer { seq, cid, record } => {
                let (emitted, delta) = match engines.get_mut(&cid) {
                    Some(engine) => offer_engine(engine, record),
                    // Routing said live but the engine is not here: answer
                    // (the control thread counts responses) without work.
                    None => (false, Delta::default()),
                };
                if !respond(Resp::Offered {
                    seq,
                    cid,
                    emitted,
                    delta,
                }) {
                    return;
                }
            }
            Req::Sweep { seq, now } => {
                let mut delta = Delta::default();
                for engine in engines.values_mut() {
                    delta.add(&Delta::of(engine, |e| e.evict_expired(now)).1);
                }
                if !respond(Resp::Swept { seq, delta }) {
                    return;
                }
            }
            Req::Deploy { cid, engine } => {
                engines.insert(cid, *engine);
            }
            Req::Recall => {
                for (cid, engine) in engines.drain() {
                    if !respond(Resp::Engine {
                        cid,
                        engine: Box::new(engine),
                    }) {
                        return;
                    }
                }
                // FIFO barrier: once the control thread pops this, every
                // response this worker ever sent before it is accounted
                // for.
                if !respond(Resp::Recalled) {
                    return;
                }
            }
            Req::SaveBlobs => {
                for (&cid, engine) in engines.iter() {
                    let mut blob = Vec::new();
                    let blob = engine.save_state(&mut blob).map(|()| blob);
                    if !respond(Resp::Blob { cid, blob }) {
                        return;
                    }
                }
            }
            Req::Shutdown => break,
        }
        handled += 1;
        health.processed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Worker-side blocking pop: spin briefly, yield a while, then park on the
/// doorbell (with the mandatory re-check between announce and sleep).
/// Returns `None` once the watchdog has abandoned this worker — the
/// doorbell's 50ms park timeout bounds how long an abandoned worker sleeps
/// before noticing.
fn next_req(rx: &SpscReceiver<Req>, bell: &Doorbell, health: &ShardHealth) -> Option<Req> {
    let mut idle: u32 = 0;
    loop {
        if let Some(req) = rx.try_pop() {
            return Some(req);
        }
        if health.abandoned.load(Ordering::SeqCst) {
            return None;
        }
        idle += 1;
        if idle < 64 {
            std::hint::spin_loop();
        } else if idle < 256 {
            std::thread::yield_now();
        } else {
            bell.prepare_park();
            match rx.try_pop() {
                Some(req) => {
                    bell.cancel_park();
                    return Some(req);
                }
                None => bell.park(),
            }
            idle = 0;
        }
    }
}

/// The typed error a failed sharded operation surfaces: the caller should
/// drain [`MultiDiversifier::take_shard_failure`] and retry.
fn shard_failed_error() -> std::io::Error {
    std::io::Error::other("a shard worker failed; recovery pending (take_shard_failure)")
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for (link, health) in self.links.iter().zip(&self.health) {
            if health.is_dead() {
                continue; // nobody is listening
            }
            let _ = link.push(Req::Shutdown, || {
                while link.resp.try_pop().is_some() {}
                !health.is_dead()
            });
        }
        for (shard, worker) in self.workers.iter_mut().enumerate() {
            let Some(worker) = worker.take() else {
                continue;
            };
            if self.health[shard].abandoned.load(Ordering::SeqCst) {
                // A stalled worker may never exit; detach instead of
                // hanging the drop (an injected stall exits on its own).
                drop(worker);
                continue;
            }
            // Keep the response rings drained so a worker mid-push can
            // always reach its Shutdown message.
            while !worker.is_finished() {
                for link in &self.links {
                    while link.resp.try_pop().is_some() {}
                }
                std::thread::yield_now();
            }
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, Thresholds};
    use crate::engine::AlgorithmKind;
    use crate::multi::shared::Executor;
    use crate::multi::{BuildError, MultiDiversifier, SharedMulti, Subscriptions};
    use firehose_graph::UndirectedGraph;
    use firehose_stream::minutes;

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    /// Figure 7: edges 0-1, 0-5, 3-4; u0 follows {0,1,3,5}, u1 follows
    /// {0,1,3,4,5}.
    fn figure7() -> (UndirectedGraph, Subscriptions) {
        let graph = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        (graph, subs)
    }

    fn posts(n: u64) -> Vec<Post> {
        (0..n)
            .map(|i| {
                Post::new(
                    i,
                    (i % 6) as u32,
                    i * 90_000,
                    format!("body of post {}", i % 11),
                )
            })
            .collect()
    }

    /// The executors under test: inline (the reference) and 1/2/4 shards.
    const EXECUTORS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

    fn build(kind: AlgorithmKind, shards: Option<usize>) -> SharedMulti {
        let (graph, subs) = figure7();
        let mut builder = SharedMulti::builder(kind, config(), &graph, subs);
        if let Some(n) = shards {
            builder = builder.shards(n);
        }
        builder.build().unwrap()
    }

    fn sharded(shards: usize) -> SharedMulti {
        build(AlgorithmKind::UniBin, Some(shards))
    }

    fn pool(multi: &SharedMulti) -> &ShardPool {
        match &multi.exec {
            Executor::Shards(pool) => pool,
            Executor::Inline => panic!("built without shards"),
        }
    }

    /// Everything observable about one run of the fixed workload.
    #[derive(Debug, PartialEq)]
    struct Run {
        decisions: Vec<MultiDecision>,
        /// `save_state` bytes taken just before post `SAVE_AT`.
        state: Vec<u8>,
        metrics: EngineMetrics,
        churn: crate::multi::ChurnStats,
    }

    const SAVE_AT: usize = 60;

    /// 120 posts with four churn ops and a mid-stream state capture woven
    /// in; sweeps fire throughout (90 s spacing against λt/2 = 15 min).
    fn run(kind: AlgorithmKind, shards: Option<usize>) -> Run {
        let mut multi = build(kind, shards);
        let mut state = Vec::new();
        let mut decisions = Vec::new();
        for (i, post) in posts(120).iter().enumerate() {
            match i {
                10 => assert!(multi.subscribe(0, 4).unwrap()),
                25 => assert!(multi.unsubscribe(1, 0).unwrap()),
                40 => assert_eq!(multi.add_user(&[2, 3]).unwrap(), 2),
                50 => multi.remove_user(0).unwrap(),
                SAVE_AT => multi.save_state(&mut state).unwrap(),
                _ => {}
            }
            decisions.push(multi.offer(post));
        }
        Run {
            decisions,
            state,
            metrics: multi.metrics(),
            churn: multi.churn_stats(),
        }
    }

    /// Decisions, counters, the churn ledger and checkpoint bytes do not
    /// depend on the executor, and state saved under any executor restores
    /// into any other and continues identically.
    #[test]
    fn executors_are_indistinguishable() {
        for kind in AlgorithmKind::ALL {
            let reference = run(kind, None);
            for shards in EXECUTORS {
                let got = run(kind, shards);
                assert_eq!(got, reference, "{kind} on {shards:?}");
                for target in EXECUTORS {
                    let mut restored = build(kind, target);
                    restored.load_state(&mut &got.state[..]).unwrap();
                    let tail: Vec<_> = posts(120)[SAVE_AT..]
                        .iter()
                        .map(|p| restored.offer(p))
                        .collect();
                    assert_eq!(
                        tail,
                        reference.decisions[SAVE_AT..],
                        "{kind}: {shards:?} state continued on {target:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn offer_batch_matches_one_at_a_time() {
        let stream = posts(200);
        let mut seq = build(AlgorithmKind::UniBin, None);
        let expected: Vec<_> = stream.iter().map(|p| seq.offer(p)).collect();
        for shards in [1, 3] {
            let mut sh = sharded(shards);
            let got = sh.offer_batch(&stream);
            assert_eq!(got, expected, "{shards} shards");
            assert_eq!(sh.metrics(), seq.metrics(), "{shards} shards");
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let (graph, subs) = figure7();
        let err = SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(0)
            .build()
            .err()
            .unwrap();
        assert_eq!(err, BuildError::ZeroThreads);
    }

    #[test]
    fn name_reports_shards() {
        let sh = build(AlgorithmKind::CliqueBin, Some(4));
        assert_eq!(MultiDiversifier::name(&sh), "Sh_CliqueBin(4)");
    }

    #[test]
    fn observed_run_counts_and_quiescent_rings() {
        let registry = firehose_obs::Registry::new();
        let mut sh = sharded(2);
        sh.attach_obs(&registry);
        let stream = posts(50);
        for post in &stream {
            sh.offer(post);
        }
        sh.subscribe(0, 4).unwrap();
        let text = registry.render_prometheus();
        // Rings fully drained between posts.
        for shard in 0..2 {
            assert!(
                text.contains(&format!(
                    "firehose_sharded_ring_depth{{shard=\"{shard}\",strategy=\"Sh_UniBin(2)\"}} 0"
                )) || text.contains(&format!(
                    "firehose_sharded_ring_depth{{strategy=\"Sh_UniBin(2)\",shard=\"{shard}\"}} 0"
                )),
                "{text}"
            );
        }
        // Occupancy gauges account for every live engine.
        let occupancy: i64 = pool(&sh).shard_obs.iter().map(|o| o.engines.get()).sum();
        assert_eq!(occupancy as usize, sh.component_count());
        // Offer latency recorded per post, and the strategy-level sweep
        // counter advanced by the pool (posts 10, 20, 30, 40: 90 s spacing
        // against λt/2 = 15 min).
        assert!(
            text.contains("firehose_multi_offer_latency_ns_count{strategy=\"Sh_UniBin(2)\"} 50"),
            "{text}"
        );
        assert!(
            text.contains("firehose_sweeps_total{strategy=\"Sh_UniBin(2)\"} 4"),
            "{text}"
        );
    }

    /// The headline regression for supervision: a worker panic must not
    /// terminate the strategy. Offers keep producing aligned decisions, the
    /// worker respawns, and the episode is reported exactly once.
    #[test]
    fn worker_panic_recovers_and_reports() {
        let (graph, subs) = figure7();
        let stream = posts(60);
        let mut sh = SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(2)
            .chaos(ShardFaultPlan::single(0, 8, ShardFaultKind::Panic))
            .build()
            .unwrap();
        let mut decisions = Vec::new();
        for post in &stream {
            decisions.push(sh.offer(post));
        }
        assert_eq!(decisions.len(), stream.len(), "every post gets a decision");
        assert!(
            pool(&sh).restarts >= 1,
            "the dead worker must have respawned"
        );
        let failure = sh.take_shard_failure().expect("episode must be reported");
        assert_eq!(failure.shard, 0);
        assert!(failure.restarts >= 1);
        assert!(
            failure.lost_posts >= 1,
            "the in-flight post died with the worker"
        );
        assert!(
            sh.take_shard_failure().is_none(),
            "an episode is reported exactly once"
        );
        // The survivor keeps working: more posts, a churn op, a checkpoint.
        for post in posts(80).iter().skip(60) {
            sh.offer(post);
        }
        sh.subscribe(0, 4).unwrap();
        let mut state = Vec::new();
        sh.save_state(&mut state).unwrap();
        assert!(!state.is_empty());
    }

    #[test]
    fn batch_stays_aligned_under_seeded_kills() {
        let (graph, subs) = figure7();
        let stream = posts(300);
        for seed in [7u64, 99] {
            // `max_after` stays below either shard's total request count so
            // the first scheduled kill always fires.
            let plan = ShardFaultPlan::seeded(seed, 2, 3, 100);
            let mut sh =
                SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs.clone())
                    .shards(2)
                    .chaos(plan)
                    .build()
                    .unwrap();
            let decisions = sh.offer_batch(&stream);
            assert_eq!(
                decisions.len(),
                stream.len(),
                "seed {seed}: decisions must stay aligned with posts"
            );
            assert!(
                pool(&sh).restarts >= 1,
                "seed {seed}: at least one kill fired"
            );
        }
    }

    #[test]
    fn watchdog_escalates_stalled_shard() {
        let (graph, subs) = figure7();
        let stream = posts(40);
        let mut sh = SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(2)
            .watchdog(Duration::from_millis(50))
            .chaos(ShardFaultPlan::single(1, 6, ShardFaultKind::Stall))
            .build()
            .unwrap();
        for post in &stream {
            sh.offer(post);
        }
        assert!(
            pool(&sh).restarts >= 1,
            "the stalled worker must be respawned"
        );
        let failure = sh.take_shard_failure().expect("stall episode reported");
        assert_eq!(failure.shard, 1);
    }

    #[test]
    fn save_fails_typed_then_heals() {
        // One author, one component, one shard: request counts are fully
        // deterministic (no sweeps: all timestamps < λt/2). Deploy is
        // request 0; p offers are 1..=p; the fault at `1 + p` fires on the
        // SaveBlobs request itself.
        let graph = UndirectedGraph::from_edges(1, std::iter::empty::<(u32, u32)>());
        let subs = Subscriptions::new(1, vec![vec![0]]).unwrap();
        let p = 4u64;
        let mut sh = SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(1)
            .chaos(ShardFaultPlan::single(0, 1 + p, ShardFaultKind::Panic))
            .build()
            .unwrap();
        for i in 0..p {
            sh.offer(&Post::new(i, 0, i, format!("post {i}")));
        }
        let err = sh.save_state(&mut Vec::new()).expect_err("save must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        let failure = sh.take_shard_failure().expect("failure surfaced via save");
        assert!(failure.restarts >= 1);
        // Healed: the retried save succeeds.
        let mut state = Vec::new();
        sh.save_state(&mut state).unwrap();
        assert!(!state.is_empty());
    }

    #[test]
    fn quarantines_attributed_to_owning_shard() {
        let registry = firehose_obs::Registry::new();
        let mut sh = sharded(2);
        sh.attach_obs(&registry);
        sh.note_quarantined(0);
        sh.note_quarantined(0);
        sh.note_quarantined(3);
        let total: u64 = pool(&sh)
            .shard_obs
            .iter()
            .map(|o| o.quarantined.get())
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn re_homes_counted_across_shard_boundaries() {
        // Line graph 0-1-2-...-7: u0 follows even authors (singleton
        // components), then subscribes to odd ones, merging everything into
        // one component whose seeds come from many slots.
        let graph = UndirectedGraph::from_edges(8, (0..7).map(|i| (i, i + 1)));
        let subs = Subscriptions::new(8, vec![vec![0, 2, 4, 6]]).unwrap();
        let mut sh = SharedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(2)
            .build()
            .unwrap();
        let registry = firehose_obs::Registry::new();
        sh.attach_obs(&registry);
        // Populate windows so merges warm-start.
        for (i, author) in [0u32, 2, 4, 6].iter().enumerate() {
            sh.offer(&Post::new(
                i as u64,
                *author,
                i as u64 * 1_000,
                format!("post from author {author}"),
            ));
        }
        for author in [1u32, 3, 5, 7] {
            sh.subscribe(0, author).unwrap();
        }
        let re_homes: u64 = pool(&sh).shard_obs.iter().map(|o| o.re_homes.get()).sum();
        assert!(
            re_homes > 0,
            "merging singletons across slots must cross a shard boundary at 2 shards"
        );
    }
}
