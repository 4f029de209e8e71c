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
//! Fixture recipe (frozen; do NOT regenerate with current code): 6-author
//! graph `[(0,1),(0,5),(3,4)]`, thresholds `(18, 30_000 ms, 0.5)`, posts
//! `id=i, author=i%6, ts=i*5000, text="content group {i%9}"` for `i in
//! 0..60`, first 30 offered before capture; subscriptions
//! `[[0,1,3,5],[0,1,3,4,5],[2]]`; multi checkpoints at generation 5.

use std::path::PathBuf;
use std::sync::Arc;

use firehose::core::checkpoint::restore_multi_from_slice;
use firehose::core::engine::{AlgorithmKind, CliqueBin, Diversifier, NeighborBin, UniBin};
use firehose::core::multi::{SharedMulti, Subscriptions};
use firehose::core::snapshot::{
    restore_cliquebin, restore_neighborbin, restore_unibin, snapshot_cliquebin,
    snapshot_neighborbin, snapshot_unibin, SnapshotError,
};
use firehose::core::{EngineConfig, MemoryMode, Thresholds};
use firehose::graph::{greedy_clique_cover, UndirectedGraph};
use firehose::stream::Post;

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
