//! `FirehoseService` — the whole multi-user pipeline behind one object.
//!
//! The lower layers are deliberately à la carte: engines, strategies, the
//! ingest guard, checkpointing and observability each stand alone. A real
//! deployment always wires the same five pieces together, so this module
//! packages them behind a builder-constructed facade that owns the author
//! graph, the subscription table, the M-SPSD engine, an optional
//! [`IngestGuard`], an optional [`CheckpointManager`] and optional metric
//! registration:
//!
//! ```
//! use firehose_core::prelude::*;
//! use firehose_graph::UndirectedGraph;
//! use firehose_stream::Post;
//!
//! let graph = UndirectedGraph::from_edges(3, [(0, 1)]);
//! let subs = Subscriptions::new(3, [vec![0, 1]]).unwrap();
//!
//! let mut service = FirehoseService::builder(&graph, subs)
//!     .strategy(StrategyKind::Shared)
//!     .build()
//!     .unwrap();
//!
//! let mut delivered = Vec::new();
//! service
//!     .process(Post::new(1, 0, 0, "hello".into()), |post, decision| {
//!         if !decision.delivered_to.is_empty() {
//!             delivered.push(post.id);
//!         }
//!     })
//!     .unwrap();
//! service.subscribe(0, 2).unwrap(); // live churn: no rebuild, no restart
//! assert_eq!(delivered, [1]);
//! ```
//!
//! [`process`](FirehoseService::process) is the service entry point: posts
//! pass through the rate limiter and the guard (each when configured), every
//! admitted post is offered to the multi-user engine with a reused decision
//! buffer, and checkpoints are taken at the configured cadence. The churn
//! operations forward to the live [`SharedMulti`] churn API, and
//! [`ChurnOp`] gives those operations a text form so traces can be
//! recorded, replayed (`firehose run --churn-trace`) and generated
//! (`firehose_datagen::generate_churn_trace`).

use std::collections::HashMap;
use std::io::{self, BufRead};
use std::path::PathBuf;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, GuardConfig, IngestGuard, Post, QuarantineStats, Timestamp};

use crate::checkpoint::{
    restore_latest_valid_multi, CheckpointManager, CheckpointPolicy, Manifest, RestoreError,
    SkippedGeneration,
};
use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::{
    ChurnStats, MultiDecision, SharedMulti, SubscriptionError, Subscriptions, UserId,
};

// ---------------------------------------------------------------------
// Strategy selection.
// ---------------------------------------------------------------------

/// How the service's M-SPSD engine is spelled on the command line. Both
/// variants build the same [`SharedMulti`] (Section 5's `S_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// One user-labelled window for every user ([`SharedMulti`], `S_*`).
    Shared,
    /// Another spelling of [`Shared`](Self::Shared) that builds exactly what
    /// `Shared` builds. It stays because the benchmark serves
    /// `--strategy sharded:N` and builds this variant.
    Sharded {
        /// Checked to be at least 1 when parsed; otherwise unused.
        shards: usize,
    },
}

impl std::fmt::Display for StrategyKind {
    /// The form [`FromStr`](std::str::FromStr) accepts back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shared => f.write_str("shared"),
            Self::Sharded { shards } => write!(f, "sharded:{shards}"),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    /// `shared` | `sharded` | `sharded:N` with `N ≥ 1`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let cores = || std::thread::available_parallelism().map_or(4, |n| n.get());
        match s {
            "shared" | "s" => Ok(Self::Shared),
            "sharded" | "sh" => Ok(Self::Sharded { shards: cores() }),
            other => {
                let Some(n) = other.strip_prefix("sharded:") else {
                    return Err(format!(
                        "unknown --strategy {other:?} (want shared|sharded[:N])"
                    ));
                };
                match n.parse() {
                    Ok(0) => Err(format!("--strategy {other:?}: N must be at least 1")),
                    Ok(shards) => Ok(Self::Sharded { shards }),
                    Err(e) => Err(format!("bad N in --strategy {other:?}: {e}")),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rate limiting.
// ---------------------------------------------------------------------

/// Per-author token bucket measured in **stream time** (post timestamps),
/// so admission is deterministic and replayable: the same stream always
/// drops the same posts, whatever the wall-clock speed. Each author's
/// bucket refills at `posts_per_sec` and holds two seconds of it (at least
/// one post).
struct RateLimiter {
    posts_per_sec: f64,
    burst: f64,
    buckets: HashMap<AuthorId, Bucket>,
}

struct Bucket {
    tokens: f64,
    last: Timestamp,
}

impl RateLimiter {
    fn new(posts_per_sec: f64) -> Self {
        Self {
            posts_per_sec,
            burst: (2.0 * posts_per_sec).max(1.0),
            buckets: HashMap::new(),
        }
    }

    /// Spend one token for `author` at stream time `now`; `false` means the
    /// post is over the limit. Out-of-order timestamps refill nothing but
    /// never panic (the guard, when configured, enforces ordering anyway).
    fn admit(&mut self, author: AuthorId, now: Timestamp) -> bool {
        let bucket = self.buckets.entry(author).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed_ms = now.saturating_sub(bucket.last);
        bucket.tokens =
            (bucket.tokens + elapsed_ms as f64 / 1000.0 * self.posts_per_sec).min(self.burst);
        bucket.last = bucket.last.max(now);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------
// Churn operations and traces.
// ---------------------------------------------------------------------

/// One live subscription-management operation, with a stable text form for
/// trace files (`subscribe 3 17`, `add-user 1,5,9`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// `subscribe <user> <author>`.
    Subscribe(UserId, AuthorId),
    /// `unsubscribe <user> <author>`.
    Unsubscribe(UserId, AuthorId),
    /// `add-user <a1,a2,...>` (or `add-user -` for an empty set).
    AddUser(Vec<AuthorId>),
    /// `remove-user <user>`.
    RemoveUser(UserId),
}

impl std::fmt::Display for ChurnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Subscribe(u, a) => write!(f, "subscribe\t{u}\t{a}"),
            Self::Unsubscribe(u, a) => write!(f, "unsubscribe\t{u}\t{a}"),
            Self::AddUser(authors) if authors.is_empty() => f.write_str("add-user\t-"),
            Self::AddUser(authors) => {
                f.write_str("add-user\t")?;
                for (i, a) in authors.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            Self::RemoveUser(u) => write!(f, "remove-user\t{u}"),
        }
    }
}

impl std::str::FromStr for ChurnOp {
    type Err = String;

    /// Parse the [`Display`](std::fmt::Display) form; fields split on any
    /// run of tabs or spaces.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = s.split_ascii_whitespace();
        let op = fields.next().ok_or("empty churn op")?;
        let mut arg = |name: &str| {
            fields
                .next()
                .ok_or_else(|| format!("{op}: missing <{name}>"))
        };
        let parsed = match op {
            "subscribe" | "unsubscribe" => {
                let u = parse_num(arg("user")?, "user")?;
                let a = parse_num(arg("author")?, "author")?;
                if op == "subscribe" {
                    Self::Subscribe(u, a)
                } else {
                    Self::Unsubscribe(u, a)
                }
            }
            "add-user" => {
                let list = arg("authors")?;
                let authors = if list == "-" {
                    Vec::new()
                } else {
                    list.split(',')
                        .map(|a| parse_num(a, "author"))
                        .collect::<Result<_, _>>()?
                };
                Self::AddUser(authors)
            }
            "remove-user" => Self::RemoveUser(parse_num(arg("user")?, "user")?),
            other => return Err(format!("unknown churn op {other:?}")),
        };
        match fields.next() {
            Some(extra) => Err(format!("{op}: unexpected trailing field {extra:?}")),
            None => Ok(parsed),
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad <{name}> {s:?}: {e}"))
}

/// A churn operation scheduled at a stream position: apply `op` once
/// `after_posts` posts have been offered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedOp {
    /// Apply after this many posts of the (admitted) stream.
    pub after_posts: u64,
    /// The operation.
    pub op: ChurnOp,
}

impl std::fmt::Display for TracedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\t{}", self.after_posts, self.op)
    }
}

/// Parse a churn-trace file: one [`TracedOp`] per line (`<after_posts>
/// <op> <args...>`), `#` comments and blank lines ignored. Ops are returned
/// sorted by position (stable, so same-position ops keep file order).
pub fn read_churn_trace(reader: impl BufRead) -> Result<Vec<TracedOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = (|| {
            let (pos, op) = line
                .split_once(|c: char| c.is_ascii_whitespace())
                .ok_or("missing churn op after position")?;
            Ok(TracedOp {
                after_posts: parse_num(pos, "after_posts")?,
                op: op.parse()?,
            })
        })();
        ops.push(parsed.map_err(|e: String| format!("line {}: {e}", lineno + 1))?);
    }
    ops.sort_by_key(|t| t.after_posts);
    Ok(ops)
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Errors constructing or operating a [`FirehoseService`].
#[derive(Debug)]
pub enum ServiceError {
    /// Checkpoint directory I/O failed.
    Io(io::Error),
    /// Restoring from the checkpoint directory failed.
    Restore(RestoreError),
    /// A checkpoint/restore operation was requested but the service was
    /// built without [`checkpoints`](FirehoseServiceBuilder::checkpoints).
    NoCheckpointDir,
    /// The engine config asks for
    /// [`MemoryMode::Approx`](crate::MemoryMode::Approx). Only a single
    /// engine runs it: the multi-user engine stores each in-window post
    /// once, in one exact window.
    ApproxMulti,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O: {e}"),
            Self::Restore(e) => write!(f, "restore failed: {e}"),
            Self::NoCheckpointDir => f.write_str("service built without a checkpoint directory"),
            Self::ApproxMulti => f.write_str(
                "approximate memory is single-engine only; the multi-user engine runs exact",
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<RestoreError> for ServiceError {
    fn from(e: RestoreError) -> Self {
        Self::Restore(e)
    }
}

// ---------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------

/// Builder for [`FirehoseService`]; start from
/// [`FirehoseService::builder`].
pub struct FirehoseServiceBuilder<'g> {
    graph: &'g UndirectedGraph,
    subscriptions: Subscriptions,
    algorithm: AlgorithmKind,
    config: EngineConfig,
    guard: Option<GuardConfig>,
    checkpoints: Option<(PathBuf, CheckpointPolicy)>,
    obs: Option<&'g firehose_obs::Registry>,
    rate_limit: Option<f64>,
}

impl<'g> FirehoseServiceBuilder<'g> {
    /// Name the multi-user engine. Every [`StrategyKind`] builds the same
    /// [`SharedMulti`]; the call stays because the CLI and the benchmark
    /// spell the engine with it.
    pub fn strategy(self, _strategy: StrategyKind) -> Self {
        self
    }

    /// Pick the engine algorithm, which names it (default
    /// [`AlgorithmKind::UniBin`]).
    pub fn algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set thresholds/fingerprinting (default
    /// [`EngineConfig::paper_defaults`]).
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Screen incoming posts through an [`IngestGuard`] before they reach
    /// the strategy. The guard's author-universe check is filled in from the
    /// graph unless the config already set one.
    pub fn guard(mut self, config: GuardConfig) -> Self {
        self.guard = Some(config);
        self
    }

    /// Enable crash-safe checkpoints in `dir` at the given cadence.
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some((dir.into(), policy));
        self
    }

    /// Register latency/throughput metrics with an observability registry.
    pub fn observability(mut self, registry: &'g firehose_obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Drop each author's posts beyond `posts_per_sec`, measured in stream
    /// time (post timestamps), before the guard sees them. The per-author
    /// bucket holds `max(2 * posts_per_sec, 1)` posts, so a burst of two
    /// seconds' worth passes. Deterministic: the same stream always drops
    /// the same posts, counted by [`FirehoseService::rate_limited`]. The
    /// rate should be positive and finite; `firehose --rate-limit` refuses
    /// anything else.
    pub fn rate_limit(mut self, posts_per_sec: f64) -> Self {
        self.rate_limit = Some(posts_per_sec);
        self
    }

    /// Construct the service: builds the engine, opens the checkpoint
    /// directory, and arms the guard. Both [`StrategyKind`]s build the same
    /// [`SharedMulti`]; a config asking for
    /// [`MemoryMode::Approx`](crate::MemoryMode::Approx) is
    /// refused with [`ServiceError::ApproxMulti`].
    pub fn build(self) -> Result<FirehoseService, ServiceError> {
        if self.config.memory.is_approx() {
            return Err(ServiceError::ApproxMulti);
        }
        let mut multi =
            SharedMulti::new(self.algorithm, self.config, self.graph, self.subscriptions);
        if let Some(reg) = self.obs {
            multi.attach_obs(reg);
        }
        let guard = self.guard.map(|mut config| {
            if config.author_count.is_none() {
                config.author_count = Some(self.graph.node_count() as u32);
            }
            IngestGuard::new(config)
        });
        let manager = match self.checkpoints {
            Some((dir, policy)) => Some(CheckpointManager::new(dir, policy)?),
            None => None,
        };
        Ok(FirehoseService {
            multi,
            guard,
            manager,
            admitted: Vec::new(),
            decisions: Vec::new(),
            limiter: self.rate_limit.map(RateLimiter::new),
            rate_limited: 0,
        })
    }
}

// ---------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------

/// One long-running diversification service: graph + subscriptions +
/// strategy + guard + checkpoints + metrics behind a single object. See the
/// [module docs](self) for the lifecycle.
pub struct FirehoseService {
    multi: SharedMulti,
    guard: Option<IngestGuard>,
    manager: Option<CheckpointManager>,
    /// Guard output scratch, reused across `process` calls.
    admitted: Vec<Post>,
    /// Decision scratch, one per admitted post of a call, reused across
    /// calls (the `offer_into` buffer-reuse path).
    decisions: Vec<MultiDecision>,
    /// Optional per-author token-bucket rate limiter.
    limiter: Option<RateLimiter>,
    /// Posts the rate limiter dropped.
    rate_limited: u64,
}

impl FirehoseService {
    /// Start building a service over an author-similarity graph and a
    /// subscription table.
    pub fn builder(
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> FirehoseServiceBuilder<'_> {
        FirehoseServiceBuilder {
            graph,
            subscriptions,
            algorithm: AlgorithmKind::UniBin,
            config: EngineConfig::paper_defaults(),
            guard: None,
            checkpoints: None,
            obs: None,
            rate_limit: None,
        }
    }

    /// Feed one post through the full pipeline: rate limiter, guard
    /// (quarantine / clamp / reorder), strategy, checkpoint cadence. `sink`
    /// is called for every post the guard admits, with the per-user
    /// delivery decision — possibly zero times (rate-limited, quarantined
    /// or buffered for reorder) or several (a reorder release). The
    /// decision buffer is reused; copy out what you keep.
    pub fn process(
        &mut self,
        post: Post,
        sink: impl FnMut(&Post, &MultiDecision),
    ) -> Result<(), ServiceError> {
        self.process_batch(std::iter::once(post), sink)
    }

    /// Feed a batch of posts through the pipeline in one call. Semantically
    /// identical to calling [`process`](Self::process) per post, but the
    /// checkpoint cadence is polled once at the end instead of per post.
    pub fn process_batch(
        &mut self,
        posts: impl IntoIterator<Item = Post>,
        mut sink: impl FnMut(&Post, &MultiDecision),
    ) -> Result<(), ServiceError> {
        let mut admitted = std::mem::take(&mut self.admitted);
        admitted.clear();
        for post in posts {
            if let Some(limiter) = &mut self.limiter {
                if !limiter.admit(post.author, post.timestamp) {
                    self.rate_limited += 1;
                    continue;
                }
            }
            match &mut self.guard {
                None => admitted.push(post),
                Some(guard) => {
                    guard.offer_into(post, &mut admitted);
                }
            }
        }
        self.offer_admitted(&mut admitted, &mut sink);
        self.admitted = admitted;
        self.maybe_checkpoint()
    }

    /// Release any posts still held by the guard's reorder buffer (call at
    /// end of stream). A no-op without a reorder guard.
    pub fn flush(
        &mut self,
        mut sink: impl FnMut(&Post, &MultiDecision),
    ) -> Result<(), ServiceError> {
        if self.guard.is_none() {
            return Ok(());
        }
        let mut admitted = std::mem::take(&mut self.admitted);
        admitted.clear();
        if let Some(guard) = &mut self.guard {
            guard.flush_into(&mut admitted);
        }
        self.offer_admitted(&mut admitted, &mut sink);
        self.admitted = admitted;
        self.maybe_checkpoint()
    }

    /// Offer admitted posts to the strategy in order through the reused
    /// decision buffers, then hand each decision to the sink. Deciding the
    /// whole call before any sink runs keeps a heavy sink (the wire's
    /// per-user fan-out) from interleaving with the engine scans: ~5% more
    /// `wire_fanout` deliveries/s than sinking after each offer (2-core
    /// x86-64 host, 10 runs each).
    fn offer_admitted(
        &mut self,
        admitted: &mut Vec<Post>,
        sink: &mut dyn FnMut(&Post, &MultiDecision),
    ) {
        if self.decisions.len() < admitted.len() {
            self.decisions
                .resize_with(admitted.len(), MultiDecision::default);
        }
        for (post, decision) in admitted.iter().zip(&mut self.decisions) {
            self.multi.offer_into(post, decision);
        }
        for (post, decision) in admitted.drain(..).zip(&self.decisions) {
            sink(&post, decision);
        }
    }

    /// Poll the checkpoint cadence.
    fn maybe_checkpoint(&mut self) -> Result<(), ServiceError> {
        if let Some(mgr) = &mut self.manager {
            mgr.maybe_save_multi(&self.multi)?;
        }
        Ok(())
    }

    // --- live churn -------------------------------------------------

    /// User `user` starts following `author`; `Ok(false)` if already
    /// subscribed (a no-op).
    pub fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        self.multi.subscribe(user, author)
    }

    /// User `user` stops following `author`; `Ok(false)` if not subscribed
    /// (a no-op).
    pub fn unsubscribe(
        &mut self,
        user: UserId,
        author: AuthorId,
    ) -> Result<bool, SubscriptionError> {
        self.multi.unsubscribe(user, author)
    }

    /// Register a new user with an initial subscription set; returns their
    /// id.
    pub fn add_user(
        &mut self,
        authors: impl IntoIterator<Item = AuthorId>,
    ) -> Result<UserId, SubscriptionError> {
        let authors: Vec<AuthorId> = authors.into_iter().collect();
        self.multi.add_user(&authors)
    }

    /// Deactivate a user: their engines are released, their id never reused.
    pub fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError> {
        self.multi.remove_user(user)
    }

    /// Apply a [`ChurnOp`] (trace replay).
    pub fn apply(&mut self, op: &ChurnOp) -> Result<(), SubscriptionError> {
        match op {
            ChurnOp::Subscribe(u, a) => self.subscribe(*u, *a).map(|_| ()),
            ChurnOp::Unsubscribe(u, a) => self.unsubscribe(*u, *a).map(|_| ()),
            ChurnOp::AddUser(authors) => self.add_user(authors.iter().copied()).map(|_| ()),
            ChurnOp::RemoveUser(u) => self.remove_user(*u),
        }
    }

    // --- checkpoints ------------------------------------------------

    /// Checkpoint the strategy now; returns the generation written.
    pub fn checkpoint_now(&mut self) -> Result<u64, ServiceError> {
        match &mut self.manager {
            Some(mgr) => Ok(mgr.save_multi(&self.multi)?),
            None => Err(ServiceError::NoCheckpointDir),
        }
    }

    /// Restore the newest intact checkpoint generation into the strategy.
    /// Returns the restored manifest (`manifest.posts_processed` counts the
    /// posts the engine was offered, cross-checked against the restored
    /// state) and the newer, corrupt generations skipped on the way, newest
    /// first. When *no* generation restores, the error lists them all and
    /// the strategy is unchanged.
    pub fn restore_latest(&mut self) -> Result<(Manifest, Vec<SkippedGeneration>), ServiceError> {
        let Some(mgr) = &mut self.manager else {
            return Err(ServiceError::NoCheckpointDir);
        };
        let dir = mgr.dir().to_path_buf();
        let (manifest, skipped) = restore_latest_valid_multi(&dir, &mut self.multi)?;
        mgr.note_restored(&manifest);
        Ok((manifest, skipped))
    }

    // --- introspection ----------------------------------------------

    /// Engine display name (`"S_UniBin"`, `"S_CliqueBin"`, ...).
    pub fn name(&self) -> String {
        self.multi.name()
    }

    /// The engine's window counters (see [`SharedMulti::metrics`]).
    pub fn metrics(&self) -> EngineMetrics {
        self.multi.metrics()
    }

    /// Lifetime churn-operation counters.
    pub fn churn_stats(&self) -> ChurnStats {
        self.multi.churn_stats()
    }

    /// The live subscription table.
    pub fn subscriptions(&self) -> &Subscriptions {
        self.multi.subscriptions()
    }

    /// Guard counters, when a guard is configured.
    pub fn guard_stats(&self) -> Option<&QuarantineStats> {
        self.guard.as_ref().map(|g| g.stats())
    }

    /// Posts the rate limiter dropped (see
    /// [`rate_limit`](FirehoseServiceBuilder::rate_limit)).
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_stream::minutes;

    fn graph() -> UndirectedGraph {
        UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)])
    }

    fn subs() -> Subscriptions {
        Subscriptions::new(6, [vec![0, 1, 3], vec![2]]).unwrap()
    }

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    use crate::config::Thresholds;

    fn posts(n: u64) -> Vec<Post> {
        (0..n)
            .map(|i| {
                Post::new(
                    i + 1,
                    (i % 6) as AuthorId,
                    i * 10_000,
                    format!("content group {}", i % 4),
                )
            })
            .collect()
    }

    #[test]
    fn service_matches_bare_strategy() {
        for strategy in [StrategyKind::Shared, StrategyKind::Sharded { shards: 2 }] {
            let mut service = FirehoseService::builder(&graph(), subs())
                .strategy(strategy)
                .engine_config(config())
                .build()
                .unwrap();
            let mut bare = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph(), subs());
            let mut got = Vec::new();
            for post in posts(40) {
                let expected = bare.offer(&post);
                service
                    .process(post, |_, d| got.push(d.delivered_to.clone()))
                    .unwrap();
                assert_eq!(*got.last().unwrap(), expected.delivered_to, "{strategy}");
            }
            assert!(service.metrics().posts_processed > 0);
            assert_eq!(service.name(), bare.name(), "{strategy}");
            assert_eq!(service.metrics(), bare.metrics(), "{strategy}");
        }
    }

    /// Approximate memory is single-engine only: the builder refuses it
    /// rather than building a multi-user engine that cannot honour it.
    #[test]
    fn approx_memory_is_refused() {
        let mut approx = config();
        approx.memory = crate::MemoryMode::Approx(crate::ApproxConfig::default());
        let err = FirehoseService::builder(&graph(), subs())
            .engine_config(approx)
            .build()
            .err()
            .expect("approx must be refused");
        assert!(matches!(err, ServiceError::ApproxMulti), "{err:?}");
        assert!(err.to_string().contains("single-engine"), "{err}");
    }

    #[test]
    fn guard_quarantines_before_strategy() {
        let mut service = FirehoseService::builder(&graph(), subs())
            .guard(GuardConfig::default())
            .engine_config(config())
            .build()
            .unwrap();
        let mut seen = 0;
        // Author 99 is outside the 6-author graph: quarantined, never offered.
        service
            .process(Post::new(1, 99, 0, "bad author".into()), |_, _| seen += 1)
            .unwrap();
        assert_eq!(seen, 0);
        assert_eq!(service.guard_stats().unwrap().quarantined_total(), 1);
        assert_eq!(service.metrics().posts_processed, 0);

        service
            .process(Post::new(2, 0, 0, "fine".into()), |_, _| seen += 1)
            .unwrap();
        assert_eq!(seen, 1);
        assert_eq!(service.metrics().posts_processed, 1);
    }

    #[test]
    fn churn_ops_apply_and_count() {
        let mut service = FirehoseService::builder(&graph(), subs())
            .strategy(StrategyKind::Shared)
            .engine_config(config())
            .build()
            .unwrap();
        let ops = [
            ChurnOp::Subscribe(1, 4),
            ChurnOp::AddUser(vec![0, 2]),
            ChurnOp::Unsubscribe(0, 3),
            ChurnOp::RemoveUser(1),
        ];
        for op in &ops {
            service.apply(op).unwrap();
        }
        assert_eq!(service.churn_stats().ops_total(), 4);
        assert!(service.subscriptions().is_subscribed(2, 2));
        assert!(!service.subscriptions().is_active(1));
        // Bad ops surface the subscription error.
        assert!(service.apply(&ChurnOp::Subscribe(1, 0)).is_err());
        assert!(service.apply(&ChurnOp::Subscribe(0, 99)).is_err());
    }

    #[test]
    fn checkpoint_and_restore_round_trip() {
        let dir = std::env::temp_dir().join(format!("fhsvc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            FirehoseService::builder(&graph(), subs())
                .strategy(StrategyKind::Shared)
                .engine_config(config())
                .checkpoints(&dir, CheckpointPolicy::default())
                .build()
                .unwrap()
        };
        let stream = posts(60);
        let mut service = build();
        let mut first = Vec::new();
        for post in stream.iter().take(30).cloned() {
            service
                .process(post, |_, d| first.push(d.delivered_to.clone()))
                .unwrap();
        }
        service.subscribe(1, 4).unwrap();
        let generation = service.checkpoint_now().unwrap();

        let mut restored = build();
        let (manifest, skipped) = restored.restore_latest().unwrap();
        assert!(skipped.is_empty());
        assert_eq!(manifest.generation, generation);
        assert_eq!(manifest.posts_processed, service.metrics().posts_processed);
        // Continuations agree decision-for-decision.
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for post in stream.iter().skip(30) {
            service
                .process(post.clone(), |_, d| want.push(d.delivered_to.clone()))
                .unwrap();
            restored
                .process(post.clone(), |_, d| got.push(d.delivered_to.clone()))
                .unwrap();
        }
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_without_dir_is_an_error() {
        let mut service = FirehoseService::builder(&graph(), subs()).build().unwrap();
        assert!(matches!(
            service.restore_latest(),
            Err(ServiceError::NoCheckpointDir)
        ));
        assert!(matches!(
            service.checkpoint_now(),
            Err(ServiceError::NoCheckpointDir)
        ));
    }

    #[test]
    fn churn_op_text_round_trips() {
        let ops = [
            ChurnOp::Subscribe(3, 17),
            ChurnOp::Unsubscribe(0, 2),
            ChurnOp::AddUser(vec![1, 5, 9]),
            ChurnOp::AddUser(vec![]),
            ChurnOp::RemoveUser(7),
        ];
        for op in &ops {
            let text = op.to_string();
            assert_eq!(text.parse::<ChurnOp>().unwrap(), *op, "{text}");
        }
        assert!("subscribe 1".parse::<ChurnOp>().is_err());
        assert!("subscribe 1 2 3".parse::<ChurnOp>().is_err());
        assert!("follow 1 2".parse::<ChurnOp>().is_err());
        assert!("add-user".parse::<ChurnOp>().is_err());
        assert!("add-user 1,x".parse::<ChurnOp>().is_err());
    }

    #[test]
    fn churn_trace_parses_and_sorts() {
        let trace = "# comment\n\
                     \n\
                     200\tremove-user\t1\n\
                     10 subscribe 0 4\n\
                     10\tadd-user\t2,3\n";
        let ops = read_churn_trace(trace.as_bytes()).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].after_posts, 10);
        assert_eq!(ops[0].op, ChurnOp::Subscribe(0, 4));
        assert_eq!(ops[1].op, ChurnOp::AddUser(vec![2, 3]));
        assert_eq!(ops[2].after_posts, 200);

        assert!(read_churn_trace("nonsense".as_bytes()).is_err());
        assert!(read_churn_trace("5".as_bytes()).is_err());
    }

    #[test]
    fn strategy_kind_parses() {
        assert_eq!(
            "shared".parse::<StrategyKind>().unwrap(),
            StrategyKind::Shared
        );
        assert_eq!(
            "sharded:4".parse::<StrategyKind>().unwrap(),
            StrategyKind::Sharded { shards: 4 }
        );
        assert!(matches!(
            "sharded".parse::<StrategyKind>().unwrap(),
            StrategyKind::Sharded { .. }
        ));
        assert!("bogus".parse::<StrategyKind>().is_err());
        assert!("independent".parse::<StrategyKind>().is_err());
        assert!("m".parse::<StrategyKind>().is_err());
        assert!("parallel:3".parse::<StrategyKind>().is_err());
        assert!("sharded:x".parse::<StrategyKind>().is_err());
        let zero = "sharded:0".parse::<StrategyKind>().unwrap_err();
        assert!(zero.contains("--strategy"), "{zero}");
    }

    #[test]
    fn strategy_kind_display_round_trips() {
        for kind in [
            StrategyKind::Shared,
            StrategyKind::Sharded { shards: 1 },
            StrategyKind::Sharded { shards: 4 },
        ] {
            assert_eq!(kind.to_string().parse::<StrategyKind>(), Ok(kind), "{kind}");
        }
        assert_eq!(StrategyKind::Sharded { shards: 4 }.to_string(), "sharded:4");
    }

    #[test]
    fn rate_limiter_is_deterministic_in_stream_time() {
        // Author 0 posts every 100ms; at 2 posts/sec the bucket holds 4,
        // so it admits the first four then one per 500ms.
        let build = || {
            FirehoseService::builder(&graph(), subs())
                .engine_config(config())
                .rate_limit(2.0)
                .build()
                .unwrap()
        };
        let stream: Vec<Post> = (0..20)
            .map(|i| Post::new(i + 1, 0, i * 100, format!("burst {i}")))
            .collect();
        let run = || {
            let mut service = build();
            let mut admitted = Vec::new();
            for post in stream.iter().cloned() {
                service.process(post, |p, _| admitted.push(p.id)).unwrap();
            }
            (admitted, service.rate_limited())
        };
        let (first, limited) = run();
        assert!(limited > 0, "a 10x-over-limit burst must be throttled");
        assert_eq!(first.len() as u64 + limited, 20);
        let (second, limited2) = run();
        assert_eq!(first, second, "stream-time limiting is deterministic");
        assert_eq!(limited, limited2);
        assert!(
            first.contains(&1) && first.contains(&2),
            "the burst allowance admits the head of the stream"
        );
    }

    #[test]
    fn process_batch_matches_per_post_process() {
        let (graph, stream) = (graph(), posts(80));
        // Each author posts once a minute; 0.01 posts/s drops about half.
        for rate_limit in [None, Some(0.01)] {
            let build = || {
                let builder = FirehoseService::builder(&graph, subs())
                    .engine_config(config())
                    .guard(GuardConfig::default());
                match rate_limit {
                    Some(rate) => builder.rate_limit(rate),
                    None => builder,
                }
                .build()
                .unwrap()
            };
            let mut per_post = build();
            let mut expected = Vec::new();
            for post in stream.iter().cloned() {
                per_post
                    .process(post, |p, d| expected.push((p.id, d.delivered_to.clone())))
                    .unwrap();
            }
            let mut batched = build();
            let mut got = Vec::new();
            batched
                .process_batch(stream.iter().cloned(), |p, d| {
                    got.push((p.id, d.delivered_to.clone()));
                })
                .unwrap();
            assert_eq!(got, expected, "{rate_limit:?}");
            assert_eq!(
                batched.metrics().posts_processed,
                per_post.metrics().posts_processed
            );
            assert_eq!(batched.rate_limited(), per_post.rate_limited());
            assert_eq!(
                per_post.rate_limited() > 0,
                rate_limit.is_some(),
                "{rate_limit:?}"
            );
        }
    }
}
