//! Multi-user diversification (M-SPSD, Section 5) with live subscription
//! churn.
//!
//! A service diversifies each user's stream centrally with
//! [`SharedMulti`]. Whether a post covers another does not depend on which
//! user asks, so one window of delivered posts, each labelled with the
//! users it was delivered to, decides every user with a single scan per
//! post. A post is withheld from user `U` iff a post already delivered to
//! `U` covers it: the paper's per-user contract, under any churn. Churn —
//! [`subscribe`](SharedMulti::subscribe),
//! [`unsubscribe`](SharedMulti::unsubscribe),
//! [`add_user`](SharedMulti::add_user) and
//! [`remove_user`](SharedMulti::remove_user) — edits the subscription
//! table and nothing else (see `DESIGN.md` §9).
//!
//! The paper's static references over a fixed subscription table (`M_*`,
//! one single-user engine per user; `S_*`, one per distinct connected
//! component) live in the `firehose-reference` crate, built from
//! [`CompactEngine`] and [`user_components`]. Figure 16 and the M = S = L
//! tests compare the shared engine against both; all three produce
//! identical per-user streams.

mod compact;
mod components;
mod labelled;
mod shared;
mod subscriptions;

pub use compact::CompactEngine;
pub use components::user_components;
pub use shared::SharedMulti;
pub use subscriptions::{SubscriptionError, Subscriptions, UserId};

use std::io::Read;

use firehose_graph::UndirectedGraph;

use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::multi::labelled::{LabelledWindow, WindowState};
use crate::snapshot::SnapshotError;

/// The verdict of a multi-user engine for one arriving post.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiDecision {
    /// Users whose diversified stream includes this post, ascending.
    pub delivered_to: Vec<UserId>,
}

/// Counters for churn operations, persisted through checkpoints (the
/// FHSNAP04 churn ledger).
///
/// The four `engines_*`/`warm_starts`/`initial_engines` fields counted the
/// component registry's spawns, retirements and warm starts. The engine
/// labels the window by user and has no components, so they are never
/// incremented: they read 0, or a restored old ledger's values as written.
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
    /// Components spawned by churn, in ledgers written by the component
    /// engine; never incremented.
    pub engines_spawned: u64,
    /// Components retired, in ledgers written by the component engine;
    /// never incremented.
    pub engines_retired: u64,
    /// Warm-started components, in ledgers written by the component
    /// engine; never incremented.
    pub warm_starts: u64,
    /// Components built before any churn, in ledgers written by the
    /// component engine; never incremented.
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

/// Magic prefix of the FHSNAP04 multi-state layouts. The legacy positional
/// layout started with a `u32` engine count, so the first 4 bytes of the
/// magic would be an engine count above one billion — unambiguous in
/// practice.
const MULTI_STATE_MAGIC: &[u8; 8] = b"FHSNAP04";

/// FHSNAP04 flags bit 0: the churn ledger has 8 fields (7 before it).
const FLAG_LEDGER8: u32 = 1;
/// FHSNAP04 flags bit 1: the state is one labelled window rather than one
/// engine blob per component.
const FLAG_LABELLED: u32 = 2;
/// FHSNAP04 flags bit 2: the window's labels are user ids, not component
/// keys. Written only together with bits 0 and 1.
const FLAG_USER_LABELS: u32 = 4;

/// A multi-user engine's mutable state, as read from any layout.
pub(crate) struct MultiState {
    pub churn: ChurnStats,
    pub subscriptions: Subscriptions,
    pub window: WindowState<UserId>,
}

/// Serialize in the FHSNAP04 user-labelled layout: magic, flags, churn
/// ledger, subscription table, then the window with user ids as labels.
pub(crate) fn write_multi_state(
    w: &mut dyn std::io::Write,
    churn: &ChurnStats,
    subscriptions: &Subscriptions,
    window: &LabelledWindow,
) -> std::io::Result<()> {
    w.write_all(MULTI_STATE_MAGIC)?;
    let flags = FLAG_LEDGER8 | FLAG_LABELLED | FLAG_USER_LABELS;
    w.write_all(&flags.to_le_bytes())?;
    churn.write(w)?;
    subscriptions.write_table(w)?;
    window.write(w)
}

/// Read a multi-user state in any layout, detected from the first 8 bytes
/// (the magic, then flags; anything else is the legacy positional layout).
/// The user-labelled layout is read as written; the component-era layouts
/// convert (`components`), the positional one over `subscriptions`, the
/// table it was written with, since it embeds none.
pub(crate) fn read_multi_state(
    r: &mut dyn Read,
    kind: AlgorithmKind,
    config: &EngineConfig,
    graph: &UndirectedGraph,
    subscriptions: &Subscriptions,
) -> Result<MultiState, SnapshotError> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    if &head != MULTI_STATE_MAGIC {
        return Ok(MultiState {
            churn: ChurnStats::default(),
            subscriptions: subscriptions.clone(),
            window: components::read_positional(head, r, kind, config, graph, subscriptions)?,
        });
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let flags = u32::from_le_bytes(b4);
    if flags & !(FLAG_LEDGER8 | FLAG_LABELLED | FLAG_USER_LABELS) != 0 {
        return Err(SnapshotError::StructureMismatch(
            "unknown multi-state flags",
        ));
    }
    let labelled = flags & FLAG_LABELLED != 0;
    let ledger8 = flags & FLAG_LEDGER8 != 0;
    if (labelled && !ledger8) || (flags & FLAG_USER_LABELS != 0 && !labelled) {
        return Err(SnapshotError::StructureMismatch(
            "inconsistent multi-state flags",
        ));
    }
    let churn = ChurnStats::read(r, ledger8)?;
    let subscriptions = Subscriptions::read_table(r)?;
    let window = if flags & FLAG_USER_LABELS != 0 {
        labelled::read_user_state(r)?
    } else if labelled {
        components::read_component_labelled(r, graph, &subscriptions)?
    } else {
        components::read_per_component(r, kind, config, graph, &subscriptions)?
    };
    Ok(MultiState {
        churn,
        subscriptions,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
