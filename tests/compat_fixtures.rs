//! Backward compatibility against committed binary fixtures.
//!
//! `tests/fixtures/` holds snapshots and checkpoints captured from older
//! code: FHSNAP03 single-engine snapshots for all three kinds and FHCKPT01
//! multi checkpoints (legacy position-ordered blobs, no magic, no
//! subscription table, no churn ledger) from `main` before the FHSNAP04
//! bump, plus `fhsnap04_exact_*` snapshots captured from the pre-approx
//! FHSNAP04 writer (the wire-serving release, before the memory-mode
//! sentinel existed), plus `fhckpt_p_unibin2.bin` and `fhckpt_sh_unibin2.bin`,
//! FHSNAP04 multi checkpoints written by the batch-parallel `P_UniBin(2)`
//! runner and the shard-worker `Sh_UniBin(2)` executor at the last commit
//! that had each. The current readers must restore all of them and
//! continue decision-identically — a format bump must never orphan deployed
//! checkpoint directories — except the per-user `M_UniBin` checkpoint,
//! whose strategy the service no longer runs and which is refused by name;
//! and the pre-approx FHSNAP04 snapshots must
//! restore into [`MemoryMode::Exact`] with byte-identical re-capture, since
//! exact-mode snapshots are declared byte-stable across the approx release.
//!
//! `fhckpt_s_unibin_churned.bin` is an FHSNAP04 `S_UniBin` checkpoint taken
//! mid-churn, with warm-started engines live, by the last release that ran
//! one engine per component; `fhckpt_s_unibin_churned_continuation.tsv` is
//! what that release delivered after the checkpoint. Both restore through
//! the per-component → labelled-window conversion.
//!
//! Fixture recipe (frozen; do NOT regenerate with current code): 6-author
//! graph `[(0,1),(0,5),(3,4)]`, thresholds `(18, 30_000 ms, 0.5)`, posts
//! `id=i, author=i%6, ts=i*5000, text="content group {i%9}"` for `i in
//! 0..60`, first 30 offered before capture; subscriptions
//! `[[0,1,3,5],[0,1,3,4,5],[2]]`; multi checkpoints at generation 5.

use std::path::PathBuf;
use std::sync::Arc;

use firehose::core::checkpoint::restore_multi_from_slice;
use firehose::core::engine::{AlgorithmKind, CliqueBin, Diversifier, NeighborBin, UniBin};
use firehose::core::multi::{ChurnStats, MultiDecision, SharedMulti, Subscriptions};
use firehose::core::snapshot::{
    restore_cliquebin, restore_neighborbin, restore_unibin, snapshot_cliquebin,
    snapshot_neighborbin, snapshot_unibin, SnapshotError,
};
use firehose::core::{EngineConfig, MemoryMode, Thresholds};
use firehose::datagen::{generate_churn_trace, ChurnEvent, ChurnGenConfig, ChurnTraceEntry};
use firehose::graph::{greedy_clique_cover, UndirectedGraph};
use firehose::stream::{AuthorId, Post};

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn graph() -> Arc<UndirectedGraph> {
    Arc::new(UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]))
}

fn config() -> EngineConfig {
    EngineConfig::new(Thresholds::new(18, 30_000, 0.5).unwrap())
}

fn posts() -> Vec<Post> {
    (0..60u64)
        .map(|i| {
            Post::new(
                i,
                (i % 6) as u32,
                i * 5_000,
                format!("content group {}", i % 9),
            )
        })
        .collect()
}

fn subscriptions() -> Subscriptions {
    Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5], vec![2]]).unwrap()
}

/// Every FHSNAP03 engine snapshot restores under the FHSNAP04 reader and
/// continues exactly where the pre-bump engine left off.
#[test]
fn fhsnap03_engine_snapshots_restore_and_continue() {
    let stream = posts();
    for kind in AlgorithmKind::ALL {
        let name = format!("fhsnap03_{}.bin", kind.to_string().to_lowercase());
        let bytes = fixture(&name);
        let mut restored: Box<dyn Diversifier> = match kind {
            AlgorithmKind::UniBin => {
                Box::new(restore_unibin(&mut &bytes[..], graph()).expect("restore FHSNAP03"))
            }
            AlgorithmKind::NeighborBin => {
                Box::new(restore_neighborbin(&mut &bytes[..], graph()).expect("restore FHSNAP03"))
            }
            AlgorithmKind::CliqueBin => {
                let cover = Arc::new(greedy_clique_cover(&graph()));
                Box::new(
                    restore_cliquebin(&mut &bytes[..], graph(), cover).expect("restore FHSNAP03"),
                )
            }
        };
        assert_eq!(restored.metrics().posts_processed, 30, "{name}");

        let mut fresh: Box<dyn Diversifier> = match kind {
            AlgorithmKind::UniBin => Box::new(UniBin::new(config(), graph())),
            AlgorithmKind::NeighborBin => Box::new(NeighborBin::new(config(), graph())),
            AlgorithmKind::CliqueBin => Box::new(CliqueBin::new(config(), graph())),
        };
        for p in &stream[..30] {
            fresh.offer(p);
        }
        for p in &stream[30..] {
            assert_eq!(
                restored.offer(p).is_emitted(),
                fresh.offer(p).is_emitted(),
                "{name}: decision diverged at post {}",
                p.id
            );
        }
        assert_eq!(
            restored.metrics().posts_emitted,
            fresh.metrics().posts_emitted
        );
    }
}

/// Multi checkpoints written by code that no longer exists restore into a
/// freshly built `S_UniBin` and continue decision-identically: the legacy
/// (pre-FHSNAP04) one — position-ordered engine blobs with no embedded
/// subscription table — and the `P_UniBin(2)` and `Sh_UniBin(2)` ones,
/// whose manifests name removed runners of the shared strategy (the only
/// remaining reason `strategy_family` knows `P_` and `Sh_`). The legacy
/// `M_UniBin` one, written when the service could run one engine per user,
/// is refused with an error naming both strategy families.
#[test]
fn old_multi_checkpoints_restore_and_continue() {
    let stream = posts();
    let build = || {
        SharedMulti::new(
            AlgorithmKind::UniBin,
            config(),
            &UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]),
            subscriptions(),
        )
    };
    for (name, writer) in [
        ("fhckpt_legacy_s_unibin.bin", "S_UniBin"),
        ("fhckpt_p_unibin2.bin", "P_UniBin(2)"),
        ("fhckpt_sh_unibin2.bin", "Sh_UniBin(2)"),
    ] {
        let bytes = fixture(name);
        let mut restored = build();
        let manifest = restore_multi_from_slice(&bytes, &mut restored)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(manifest.generation, 5, "{name}");
        assert_eq!(manifest.name, writer, "{name}");
        // Pre-churn checkpoints carry no ledger, and the `P_` and `Sh_` ones
        // saw no churn: everything starts at zero.
        assert_eq!(restored.churn_stats().ops_total(), 0, "{name}");

        let mut fresh = build();
        for p in &stream[..30] {
            fresh.offer(p);
        }
        for p in &stream[30..] {
            assert_eq!(
                restored.offer(p).delivered_to,
                fresh.offer(p).delivered_to,
                "{name}: delivery diverged at post {}",
                p.id
            );
        }
        // Churn still works on the restored strategy.
        restored.subscribe(2, 4).unwrap();
        assert_eq!(restored.churn_stats().subscribes, 1, "{name}");
    }

    let err = restore_multi_from_slice(&fixture("fhckpt_legacy_m_unibin.bin"), &mut build())
        .expect_err("an M_UniBin checkpoint must not restore into S_UniBin");
    assert!(
        matches!(
            &err,
            SnapshotError::WrongStrategy { found, expected }
                if found == "M_UniBin" && expected == "S_UniBin"
        ),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        "checkpoint written by M_UniBin; this service runs S_UniBin"
    );
}

/// FHSNAP04 snapshots captured *before* the approximate-memory release (no
/// memory-mode sentinel in the config header) restore into
/// [`MemoryMode::Exact`] and continue decision-identically — the typed
/// `MemoryMode` API must not orphan any deployed exact snapshot.
#[test]
fn fhsnap04_pre_approx_snapshots_restore_into_exact_mode() {
    let stream = posts();
    for kind in AlgorithmKind::ALL {
        let name = format!("fhsnap04_exact_{}.bin", kind.to_string().to_lowercase());
        let bytes = fixture(&name);
        let mut restored: Box<dyn Diversifier> = match kind {
            AlgorithmKind::UniBin => {
                Box::new(restore_unibin(&mut &bytes[..], graph()).expect("restore FHSNAP04"))
            }
            AlgorithmKind::NeighborBin => {
                Box::new(restore_neighborbin(&mut &bytes[..], graph()).expect("restore FHSNAP04"))
            }
            AlgorithmKind::CliqueBin => {
                let cover = Arc::new(greedy_clique_cover(&graph()));
                Box::new(
                    restore_cliquebin(&mut &bytes[..], graph(), cover).expect("restore FHSNAP04"),
                )
            }
        };
        assert_eq!(
            restored.config().memory,
            MemoryMode::Exact,
            "{name}: pre-approx snapshot must restore as exact mode"
        );
        assert_eq!(restored.metrics().posts_processed, 30, "{name}");

        let mut fresh: Box<dyn Diversifier> = match kind {
            AlgorithmKind::UniBin => Box::new(UniBin::new(config(), graph())),
            AlgorithmKind::NeighborBin => Box::new(NeighborBin::new(config(), graph())),
            AlgorithmKind::CliqueBin => Box::new(CliqueBin::new(config(), graph())),
        };
        for p in &stream[..30] {
            fresh.offer(p);
        }
        for p in &stream[30..] {
            assert_eq!(
                restored.offer(p).is_emitted(),
                fresh.offer(p).is_emitted(),
                "{name}: decision diverged at post {}",
                p.id
            );
        }
    }
}

/// The current exact-mode writer is byte-identical to the pre-approx
/// FHSNAP04 writer: replaying the fixture recipe through today's engines
/// reproduces the committed fixture bytes exactly. This is what lets the
/// memory-mode sentinel claim "exact snapshots unchanged" — any layout
/// drift (sentinel leaking into exact mode, reordered fields) fails here.
#[test]
fn current_exact_writer_matches_pre_approx_fixture_bytes() {
    let stream = posts();
    for kind in AlgorithmKind::ALL {
        let name = format!("fhsnap04_exact_{}.bin", kind.to_string().to_lowercase());
        let expected = fixture(&name);
        let mut buf = Vec::new();
        match kind {
            AlgorithmKind::UniBin => {
                let mut engine = UniBin::new(config(), graph());
                for p in &stream[..30] {
                    engine.offer(p);
                }
                snapshot_unibin(&engine, &mut buf).unwrap();
            }
            AlgorithmKind::NeighborBin => {
                let mut engine = NeighborBin::new(config(), graph());
                for p in &stream[..30] {
                    engine.offer(p);
                }
                snapshot_neighborbin(&engine, &mut buf).unwrap();
            }
            AlgorithmKind::CliqueBin => {
                let mut engine = CliqueBin::new(config(), graph());
                for p in &stream[..30] {
                    engine.offer(p);
                }
                snapshot_cliquebin(&engine, &mut buf).unwrap();
            }
        }
        assert_eq!(
            buf, expected,
            "{name}: exact-mode snapshot bytes drifted from the pre-approx writer"
        );
    }
}

/// The churned-checkpoint recipe (frozen): 12 authors with edges
/// `[(0,1),(1,2),(3,4),(5,6),(6,7),(8,9)]`, thresholds `(18, 30_000 ms,
/// 0.7)`, six users, 160 posts `id=i+1, author=(5i+3)%12, ts=997i`, and a
/// 40-op churn trace (seed `0x5F0A`). The checkpoint (generation 9) was
/// taken after post 80 and the ops due by then.
mod churned {
    use super::*;

    pub(crate) const CHECKPOINT_AFTER: usize = 80;

    pub(crate) fn graph() -> UndirectedGraph {
        UndirectedGraph::from_edges(12, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (8, 9)])
    }

    pub(crate) fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, 30_000, 0.7).unwrap())
    }

    pub(crate) fn initial_sets() -> Vec<Vec<AuthorId>> {
        vec![
            vec![0, 1, 3],
            vec![2, 5],
            vec![4, 8, 9],
            vec![10],
            vec![0, 7, 11],
            vec![6],
        ]
    }

    pub(crate) fn posts() -> Vec<Post> {
        (0..160u64)
            .map(|i| {
                Post::new(
                    i + 1,
                    ((i * 5 + 3) % 12) as AuthorId,
                    i * 997,
                    format!("breaking news item in content group {}", i % 5),
                )
            })
            .collect()
    }

    pub(crate) fn trace() -> Vec<ChurnTraceEntry> {
        generate_churn_trace(
            12,
            &initial_sets(),
            160,
            ChurnGenConfig {
                seed: 0x5F0A,
                ops: 40,
                ..ChurnGenConfig::default()
            },
        )
    }

    pub(crate) fn apply(multi: &mut SharedMulti, event: &ChurnEvent) {
        match event {
            ChurnEvent::Subscribe(u, a) => {
                multi.subscribe(*u as u32, *a).unwrap();
            }
            ChurnEvent::Unsubscribe(u, a) => {
                multi.unsubscribe(*u as u32, *a).unwrap();
            }
            ChurnEvent::AddUser(authors) => {
                multi.add_user(authors as &[AuthorId]).unwrap();
            }
            ChurnEvent::RemoveUser(u) => {
                multi.remove_user(*u as u32).unwrap();
            }
        }
    }

    /// One `id<TAB>users` line (`-` for nobody).
    pub(crate) fn line(post: &Post, decision: &MultiDecision) -> String {
        let users: Vec<String> = decision
            .delivered_to
            .iter()
            .map(|u| u.to_string())
            .collect();
        if users.is_empty() {
            format!("{}\t-", post.id)
        } else {
            format!("{}\t{}", post.id, users.join(","))
        }
    }
}

/// A per-component `S_UniBin` checkpoint taken mid-churn, with
/// warm-started engines live, restores into the labelled window through
/// the blob conversion (into a strategy built from the *initial* table)
/// and continues exactly as the per-component engines did, churn included.
#[test]
fn per_component_churned_checkpoint_converts_and_continues() {
    let bytes = fixture("fhckpt_s_unibin_churned.bin");
    let want = String::from_utf8(fixture("fhckpt_s_unibin_churned_continuation.tsv")).unwrap();
    let posts = churned::posts();
    let trace = churned::trace();
    let mut restored = SharedMulti::new(
        AlgorithmKind::UniBin,
        churned::config(),
        &churned::graph(),
        Subscriptions::new(12, churned::initial_sets()).unwrap(),
    );
    let manifest = restore_multi_from_slice(&bytes, &mut restored).expect("convert and restore");
    assert_eq!(manifest.generation, 9);
    assert_eq!(manifest.name, "S_UniBin");
    assert_eq!(
        restored.churn_stats(),
        ChurnStats {
            subscribes: 9,
            unsubscribes: 9,
            users_added: 1,
            users_removed: 3,
            engines_spawned: 11,
            engines_retired: 15,
            warm_starts: 4,
            initial_engines: 11,
        },
        "the churn ledger is adopted as written"
    );

    let mut next = trace
        .iter()
        .position(|e| e.after_posts >= churned::CHECKPOINT_AFTER as u64)
        .unwrap_or(trace.len());
    let mut got = Vec::new();
    let mut decision = MultiDecision::default();
    for (i, post) in posts.iter().enumerate().skip(churned::CHECKPOINT_AFTER) {
        while next < trace.len() && trace[next].after_posts <= i as u64 {
            churned::apply(&mut restored, &trace[next].event);
            next += 1;
        }
        restored.offer_into(post, &mut decision);
        got.push(churned::line(post, &decision));
    }
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "continuation diverged from the per-component release");
    }
}
