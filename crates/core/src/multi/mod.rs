//! Multi-user diversification (M-SPSD, Section 5) with live subscription
//! churn.
//!
//! A service diversifies each user's stream centrally. Two strategies:
//!
//! * [`IndependentMulti`] (`M_UniBin` / `M_NeighborBin` / `M_CliqueBin`) —
//!   one single-user engine per user over the subgraph of `G` induced by the
//!   user's subscriptions. Simple, but shared subscriptions are re-processed
//!   once per user.
//! * [`SharedMulti`] (`S_UniBin` / `S_NeighborBin` / `S_CliqueBin`) — the
//!   paper's optimization: the diversified stream of a *connected component*
//!   of `Gi` is identical for every user whose subscription graph contains
//!   that exact component, so one engine per **distinct component** serves
//!   them all.
//!
//! Both produce identical per-user streams (tested in `tests/`).
//!
//! Both strategies support **live churn** —
//! [`subscribe`](MultiDiversifier::subscribe),
//! [`unsubscribe`](MultiDiversifier::unsubscribe),
//! [`add_user`](MultiDiversifier::add_user) and
//! [`remove_user`](MultiDiversifier::remove_user) — by incrementally
//! splitting and merging the per-user connected components in a refcounted
//! `registry` instead of rebuilding every engine (see `DESIGN.md` §9).

mod independent;
mod registry;
mod shared;
mod subscriptions;

pub use independent::{IndependentBuilder, IndependentMulti};
pub use shared::{SharedBuilder, SharedMulti};
pub use subscriptions::{SubscriptionError, Subscriptions, UserId};

use std::io::Read;

use firehose_stream::{AuthorId, Post};

use crate::metrics::EngineMetrics;
use crate::multi::independent::CompactEngine;
use crate::snapshot::SnapshotError;

/// The verdict of a multi-user engine for one arriving post.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiDecision {
    /// Users whose diversified stream includes this post, ascending.
    pub delivered_to: Vec<UserId>,
}

/// Errors constructing a multi-user strategy through its builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `IndependentMulti` per-user configs must match the user count.
    ConfigCountMismatch {
        /// Number of configs supplied.
        configs: usize,
        /// Number of users in the subscription relation.
        users: usize,
    },
    /// The subscription relation itself was invalid.
    Subscription(SubscriptionError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConfigCountMismatch { configs, users } => {
                write!(f, "{configs} per-user configs for {users} users")
            }
            Self::Subscription(e) => write!(f, "invalid subscriptions: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SubscriptionError> for BuildError {
    fn from(e: SubscriptionError) -> Self {
        Self::Subscription(e)
    }
}

/// Counters for the live-churn machinery, kept per strategy and persisted
/// through checkpoints (the FHSNAP04 churn ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnStats {
    /// Successful `subscribe` operations (new follow edges).
    pub subscribes: u64,
    /// Successful `unsubscribe` operations (dropped follow edges).
    pub unsubscribes: u64,
    /// Users added.
    pub users_added: u64,
    /// Users tombstoned.
    pub users_removed: u64,
    /// Component engines spawned by churn (not initial construction).
    pub engines_spawned: u64,
    /// Component engines retired when their last user released them.
    pub engines_retired: u64,
    /// Spawned engines warm-started with at least one surviving record.
    pub warm_starts: u64,
    /// Component engines built at initial construction, before any churn.
    /// Together with `engines_spawned` this makes the spawn/retire ledger
    /// symmetric: every live engine was counted exactly once, so
    /// `engines_retired <= engines_spawned + initial_engines` always holds.
    pub initial_engines: u64,
}

impl ChurnStats {
    /// Total successful churn operations.
    pub fn ops_total(&self) -> u64 {
        self.subscribes + self.unsubscribes + self.users_added + self.users_removed
    }

    pub(crate) fn write(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        for x in [
            self.subscribes,
            self.unsubscribes,
            self.users_added,
            self.users_removed,
            self.engines_spawned,
            self.engines_retired,
            self.warm_starts,
            self.initial_engines,
        ] {
            w.write_all(&x.to_le_bytes())?;
        }
        Ok(())
    }

    /// Read a churn ledger. States written before flags bit 0 existed carry
    /// 7 fields (`with_initial = false`); current states carry 8.
    pub(crate) fn read(r: &mut dyn Read, with_initial: bool) -> Result<Self, SnapshotError> {
        let mut vals = [0u64; 8];
        let n = if with_initial { 8 } else { 7 };
        let mut b8 = [0u8; 8];
        for v in vals.iter_mut().take(n) {
            r.read_exact(&mut b8)?;
            *v = u64::from_le_bytes(b8);
        }
        Ok(Self {
            subscribes: vals[0],
            unsubscribes: vals[1],
            users_added: vals[2],
            users_removed: vals[3],
            engines_spawned: vals[4],
            engines_retired: vals[5],
            warm_starts: vals[6],
            initial_engines: vals[7],
        })
    }
}

/// A multi-user real-time diversifier with live subscription churn.
pub trait MultiDiversifier {
    /// Offer an arriving post; returns which users receive it. Users not
    /// subscribed to the post's author never appear.
    fn offer(&mut self, post: &Post) -> MultiDecision;

    /// Buffer-reusing variant of [`offer`](Self::offer): clears `out` and
    /// fills its `delivered_to` in place, avoiding one `Vec` allocation per
    /// post on the hot path. The default delegates to `offer`.
    fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        *out = self.offer(post);
    }

    /// Add a follow edge for an existing user, incrementally merging the
    /// affected components. Returns `false` if the edge already existed.
    fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError>;

    /// Drop a follow edge, incrementally splitting the affected component.
    /// Returns `false` if the edge did not exist.
    fn unsubscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError>;

    /// Register a new user with the given subscription set; returns the new
    /// (stable) user id.
    fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError>;

    /// Tombstone a user: their id stays allocated, they receive nothing, and
    /// component engines they were the last user of are retired.
    fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError>;

    /// Counters for churn operations applied so far.
    fn churn_stats(&self) -> ChurnStats;

    /// The current subscription relation.
    fn subscriptions(&self) -> &Subscriptions;

    /// Aggregated counters across all internal engines.
    fn metrics(&self) -> EngineMetrics;

    /// Strategy name, e.g. `"M_UniBin"` or `"S_CliqueBin"`.
    fn name(&self) -> String;

    /// Current record payload across all internal engines, in bytes.
    fn memory_bytes(&self) -> u64 {
        self.metrics().memory_bytes()
    }

    /// Aggregated approximate-backend counters across all internal engines;
    /// `None` when engines run exact.
    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        None
    }

    /// Serialize the strategy's mutable state in the FHSNAP04 layout: the
    /// churn ledger, the **current** subscription relation, the sweep
    /// ledger, and every live engine's state keyed independently of
    /// construction history (component-membership hash for the shared
    /// strategies, user id for `M_*`). The bytes round-trip through
    /// [`load_state`](Self::load_state) on a strategy built with the same
    /// kind and graph — the subscription state at build time does *not* have
    /// to match, because the embedded table replaces it.
    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;

    /// Replace this strategy's mutable state with bytes previously produced
    /// by [`save_state`](Self::save_state) — either the FHSNAP04 layout or
    /// the legacy pre-churn (FHSNAP03-era) layout, which is detected
    /// automatically. On error the state is unspecified and the strategy
    /// must be rebuilt before use.
    fn load_state(&mut self, r: &mut dyn std::io::Read) -> Result<(), SnapshotError>;
}

/// Magic prefix of the FHSNAP04 multi-strategy state layout. The legacy
/// layout started with a `u32` engine count, so the first 4 bytes of the
/// magic would be an engine count above one billion — unambiguous in
/// practice.
pub(crate) const MULTI_STATE_MAGIC: &[u8; 8] = b"FHSNAP04";

/// FHSNAP04 flags bit 0: the churn ledger includes the `initial_engines`
/// counter (8 fields). States written with flags 0 carry the historical
/// 7-field ledger and are still readable.
pub(crate) const MULTI_STATE_FLAG_INITIAL_ENGINES: u32 = 1;

/// FNV-1a-64 over a component's sorted member list — the
/// construction-order-independent engine key of the FHSNAP04 layout.
pub(crate) fn component_key(members: &[AuthorId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in members {
        for b in a.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FHSNAP04 multi-strategy state, parsed. `engines` maps key → state blob.
pub(crate) struct MultiStateV2 {
    pub churn: ChurnStats,
    /// Whether the serialized churn ledger carried `initial_engines` (flags
    /// bit 0). When it did not, loaders adopt the freshly rebuilt count as a
    /// documented best effort.
    pub has_initial: bool,
    pub subscriptions: Subscriptions,
    pub ledger: [u64; 3],
    pub engines: std::collections::HashMap<u64, Vec<u8>>,
}

/// Either layout [`read_multi_state`] can encounter.
pub(crate) enum MultiState {
    /// Pre-churn layout: engine blobs in construction order plus the
    /// `(last_sweep, live_copies, peak_live_copies)` ledger.
    Legacy(Vec<Vec<u8>>, [u64; 3]),
    /// The FHSNAP04 layout.
    V2(MultiStateV2),
}

/// Serialize the FHSNAP04 multi state: magic, flags, churn ledger,
/// subscription table, sweep ledger, then `(key, blob)` engine entries
/// sorted by key.
pub(crate) fn write_multi_state(
    w: &mut dyn std::io::Write,
    churn: &ChurnStats,
    subscriptions: &Subscriptions,
    ledger: [u64; 3],
    engines: &mut [(u64, Vec<u8>)],
) -> std::io::Result<()> {
    w.write_all(MULTI_STATE_MAGIC)?;
    // Flags bit 0: churn ledger carries `initial_engines` (8 fields, not 7).
    w.write_all(&MULTI_STATE_FLAG_INITIAL_ENGINES.to_le_bytes())?;
    churn.write(w)?;
    subscriptions.write_table(w)?;
    for x in ledger {
        w.write_all(&x.to_le_bytes())?;
    }
    engines.sort_unstable_by_key(|&(k, _)| k);
    if engines.windows(2).any(|p| p[0].0 == p[1].0) {
        return Err(std::io::Error::other(
            "component key collision; cannot serialize unambiguously",
        ));
    }
    w.write_all(&(engines.len() as u32).to_le_bytes())?;
    for (key, blob) in engines.iter() {
        w.write_all(&key.to_le_bytes())?;
        w.write_all(&(blob.len() as u64).to_le_bytes())?;
        w.write_all(blob)?;
    }
    Ok(())
}

fn read_blob(r: &mut dyn Read) -> Result<Vec<u8>, SnapshotError> {
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let len = u64::from_le_bytes(b8);
    // `len` is untrusted: `take` bounds the read, the capacity hint is
    // capped, and a lying length is caught by the exact-size check.
    let mut bytes = Vec::with_capacity((len as usize).min(crate::snapshot::MAX_PREALLOC));
    let got = r.take(len).read_to_end(&mut bytes)?;
    if got as u64 != len {
        return Err(SnapshotError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(bytes)
}

fn read_ledger(r: &mut dyn Read) -> Result<[u64; 3], SnapshotError> {
    let mut ledger = [0u64; 3];
    let mut b8 = [0u8; 8];
    for v in &mut ledger {
        r.read_exact(&mut b8)?;
        *v = u64::from_le_bytes(b8);
    }
    Ok(ledger)
}

/// Read a multi-strategy state in either layout, detected from the first 8
/// bytes (magic → FHSNAP04; anything else → the legacy layout, whose first
/// 4 bytes are the engine count and whose next 4 belong to the body).
pub(crate) fn read_multi_state(r: &mut dyn Read) -> Result<MultiState, SnapshotError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    if &head == MULTI_STATE_MAGIC {
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let flags = u32::from_le_bytes(b4);
        if flags & !MULTI_STATE_FLAG_INITIAL_ENGINES != 0 {
            return Err(SnapshotError::StructureMismatch(
                "unknown multi-state flags",
            ));
        }
        let has_initial = flags & MULTI_STATE_FLAG_INITIAL_ENGINES != 0;
        let churn = ChurnStats::read(r, has_initial)?;
        let subscriptions = Subscriptions::read_table(r)?;
        let ledger = read_ledger(r)?;
        r.read_exact(&mut b4)?;
        let count = u32::from_le_bytes(b4) as usize;
        let mut engines =
            std::collections::HashMap::with_capacity(count.min(crate::snapshot::MAX_PREALLOC));
        let mut b8 = [0u8; 8];
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            r.read_exact(&mut b8)?;
            let key = u64::from_le_bytes(b8);
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapshotError::StructureMismatch("engine keys out of order"));
            }
            prev = Some(key);
            engines.insert(key, read_blob(r)?);
        }
        Ok(MultiState::V2(MultiStateV2 {
            churn,
            has_initial,
            subscriptions,
            ledger,
            engines,
        }))
    } else {
        // Legacy: `head` holds the u32 engine count plus the first 4 body
        // bytes; chain them back in front of the remaining reader.
        let count = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        let tail: [u8; 4] = head[4..].try_into().unwrap();
        let mut chained: Box<dyn Read> = Box::new((&tail[..]).chain(r));
        let r = chained.as_mut();
        let mut blobs = Vec::with_capacity(count.min(crate::snapshot::MAX_PREALLOC));
        for _ in 0..count {
            blobs.push(read_blob(r)?);
        }
        let ledger = read_ledger(r)?;
        Ok(MultiState::Legacy(blobs, ledger))
    }
}

/// Load one engine's blob, requiring it to be consumed exactly.
pub(crate) fn load_engine_blob(
    engine: &mut CompactEngine,
    blob: &[u8],
) -> Result<(), SnapshotError> {
    let mut slice: &[u8] = blob;
    engine.load_state(&mut slice)?;
    if !slice.is_empty() {
        return Err(SnapshotError::StructureMismatch(
            "embedded engine state has trailing bytes",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_key_distinguishes_lists() {
        assert_ne!(component_key(&[0, 1, 5]), component_key(&[0, 1]));
        assert_ne!(component_key(&[0]), component_key(&[1]));
        assert_eq!(component_key(&[3, 4]), component_key(&[3, 4]));
    }

    #[test]
    fn churn_stats_round_trip() {
        let stats = ChurnStats {
            subscribes: 1,
            unsubscribes: 2,
            users_added: 3,
            users_removed: 4,
            engines_spawned: 5,
            engines_retired: 6,
            warm_starts: 7,
            initial_engines: 8,
        };
        let mut buf = Vec::new();
        stats.write(&mut buf).unwrap();
        assert_eq!(ChurnStats::read(&mut &buf[..], true).unwrap(), stats);
        assert_eq!(stats.ops_total(), 10);
    }

    #[test]
    fn churn_stats_reads_legacy_seven_field_ledger() {
        let stats = ChurnStats {
            subscribes: 1,
            unsubscribes: 2,
            users_added: 3,
            users_removed: 4,
            engines_spawned: 5,
            engines_retired: 6,
            warm_starts: 7,
            initial_engines: 8,
        };
        let mut buf = Vec::new();
        stats.write(&mut buf).unwrap();
        // A legacy reader stops after 7 fields; a legacy writer simply never
        // produced the 8th, so reading 7 fields must leave it zero.
        let legacy = ChurnStats::read(&mut &buf[..56], false).unwrap();
        assert_eq!(
            legacy,
            ChurnStats {
                initial_engines: 0,
                ..stats
            }
        );
    }
}
