//! Multi-user diversification (M-SPSD, Section 5) with live subscription
//! churn.
//!
//! A service diversifies each user's stream centrally with
//! [`SharedMulti`], built on the paper's Section 5 observation: the
//! diversified stream of a *connected component* of `Gi` is identical for
//! every user whose subscription graph contains that exact component. The
//! engine goes one step further than one engine per distinct component:
//! whether a post covers another does not depend on which component asks,
//! so one window of emitted posts, each labelled with the components that
//! emitted it, decides every component with a single scan per post. It
//! supports **live churn** —
//! [`subscribe`](SharedMulti::subscribe),
//! [`unsubscribe`](SharedMulti::unsubscribe),
//! [`add_user`](SharedMulti::add_user) and
//! [`remove_user`](SharedMulti::remove_user) — by incrementally splitting
//! and merging the per-user connected components in a refcounted `registry`
//! (see `DESIGN.md` §9).
//!
//! The paper's static references over a fixed subscription table (`M_*`,
//! one single-user engine per user; `S_*`, one per distinct component) live
//! in the `firehose-reference` crate, built from [`CompactEngine`] and
//! [`user_components`]. Figure 16 and the M = S = L tests compare the shared
//! engine against both; all three produce identical per-user streams.

mod compact;
mod labelled;
mod registry;
mod shared;
mod subscriptions;

pub use compact::CompactEngine;
pub use shared::{user_components, SharedMulti};
pub use subscriptions::{SubscriptionError, Subscriptions, UserId};

use std::io::Read;

use firehose_stream::AuthorId;

use crate::multi::labelled::WindowState;
use crate::snapshot::SnapshotError;

/// The verdict of a multi-user engine for one arriving post.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiDecision {
    /// Users whose diversified stream includes this post, ascending.
    pub delivered_to: Vec<UserId>,
}

/// Counters for the live-churn machinery, persisted through checkpoints (the FHSNAP04 churn ledger).
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
    /// Distinct components spawned by churn (not initial construction).
    pub engines_spawned: u64,
    /// Distinct components retired when their last user released them.
    pub engines_retired: u64,
    /// Spawned components that inherited at least one record still inside
    /// λt of the newest offered post.
    pub warm_starts: u64,
    /// Distinct components built at initial construction, before any churn.
    /// Together with `engines_spawned` this makes the spawn/retire ledger
    /// symmetric: every live component was counted exactly once, so
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

/// FHSNAP04 flags bit 1: the state is one labelled window (churn ledger,
/// subscription table, window ledger, then the window oldest-first with
/// each record's labels as component keys) rather than one engine blob per
/// component. Always written together with bit 0.
pub(crate) const MULTI_STATE_FLAG_LABELLED: u32 = 2;

/// FHSNAP04 per-component state, parsed. `engines` maps key → state blob.
pub(crate) struct PerComponentState {
    pub churn: ChurnStats,
    /// Whether the serialized churn ledger carried `initial_engines` (flags
    /// bit 0). When it did not, loaders adopt the freshly rebuilt count as a
    /// documented best effort.
    pub has_initial: bool,
    pub subscriptions: Subscriptions,
    pub ledger: [u64; 3],
    pub engines: std::collections::HashMap<u64, Vec<u8>>,
}

/// FHSNAP04 labelled state, parsed; labels are still component keys.
pub(crate) struct LabelledState {
    pub churn: ChurnStats,
    pub subscriptions: Subscriptions,
    pub window: WindowState<u64>,
}

/// Every layout [`read_multi_state`] can encounter.
pub(crate) enum MultiState {
    /// Pre-churn layout: engine blobs in construction order plus the
    /// `(last_sweep, live_copies, peak_live_copies)` ledger.
    Legacy(Vec<Vec<u8>>, [u64; 3]),
    /// FHSNAP04 written by the per-component releases.
    PerComponent(PerComponentState),
    /// FHSNAP04 with flags bit 1: the labelled window.
    Labelled(LabelledState),
}

/// Serialize the head of the FHSNAP04 labelled layout: magic, flags, churn
/// ledger and subscription table. The window follows
/// (`LabelledWindow::write`).
pub(crate) fn write_labelled_state(
    w: &mut dyn std::io::Write,
    churn: &ChurnStats,
    subscriptions: &Subscriptions,
) -> std::io::Result<()> {
    w.write_all(MULTI_STATE_MAGIC)?;
    let flags = MULTI_STATE_FLAG_INITIAL_ENGINES | MULTI_STATE_FLAG_LABELLED;
    w.write_all(&flags.to_le_bytes())?;
    churn.write(w)?;
    subscriptions.write_table(w)
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

/// Read a multi-strategy state in any layout, detected from the first 8
/// bytes (magic → FHSNAP04, whose flags tell labelled from per-component;
/// anything else → the legacy layout, whose first 4 bytes are the engine
/// count and whose next 4 belong to the body).
pub(crate) fn read_multi_state(r: &mut dyn Read) -> Result<MultiState, SnapshotError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    if &head == MULTI_STATE_MAGIC {
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let flags = u32::from_le_bytes(b4);
        if flags & !(MULTI_STATE_FLAG_INITIAL_ENGINES | MULTI_STATE_FLAG_LABELLED) != 0 {
            return Err(SnapshotError::StructureMismatch(
                "unknown multi-state flags",
            ));
        }
        let has_initial = flags & MULTI_STATE_FLAG_INITIAL_ENGINES != 0;
        let churn = ChurnStats::read(r, has_initial)?;
        let subscriptions = Subscriptions::read_table(r)?;
        if flags & MULTI_STATE_FLAG_LABELLED != 0 {
            if !has_initial {
                return Err(SnapshotError::StructureMismatch(
                    "labelled multi state without the 8-field churn ledger",
                ));
            }
            return Ok(MultiState::Labelled(LabelledState {
                churn,
                subscriptions,
                window: labelled::read_state(r)?,
            }));
        }
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
        Ok(MultiState::PerComponent(PerComponentState {
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
