//! Crash-recovery integration tests: kill the process at arbitrary points,
//! restore from the newest intact checkpoint, and prove the restored engine
//! makes **byte-identical** future decisions — under torn writes, bit
//! flips, truncation, and hostile (perturbed) input streams.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use firehose_core::checkpoint::{
    checkpoint_engine_to_vec, checkpoint_multi_to_vec, restore_engine_from_slice,
    restore_latest_valid, restore_latest_valid_multi, restore_multi_from_slice, CheckpointManager,
    CheckpointPolicy, RestoreError,
};
use firehose_core::engine::{build_engine, AlgorithmKind, Diversifier};
use firehose_core::multi::{SharedMulti, Subscriptions};
use firehose_core::snapshot::{restore_unibin, snapshot_unibin};
use firehose_core::{Decision, EngineConfig, Thresholds};
use firehose_graph::UndirectedGraph;
use firehose_stream::{
    guard_stream, minutes, ChaosWriter, FaultPlan, GuardConfig, GuardPolicy, Perturbator, Post,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fh-recover-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn graph() -> Arc<UndirectedGraph> {
    // 8 authors: a dense cluster {0..3}, a pair {4,5}, loners {6,7}.
    Arc::new(UndirectedGraph::from_edges(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)],
    ))
}

fn config() -> EngineConfig {
    EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
}

/// Deterministic seeded stream: bursty timestamps, recurring text variants
/// (so some posts are covered and pruned), authors across all clusters.
fn stream(seed: u64, n: usize) -> Vec<Post> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts: u64 = 0;
    (0..n as u64)
        .map(|i| {
            ts += rng.random_range(0..45_000u64);
            let author = rng.random_range(0..8u32);
            let text = format!(
                "variant {} of a recurring report from cluster news desk",
                rng.random_range(0..9u32)
            );
            Post::new(i, author, ts, text)
        })
        .collect()
}

/// ≥ 20 seeded crash offsets per engine: run with a tight checkpoint
/// cadence, "kill" at the offset (drop everything in memory), restore the
/// newest intact generation, replay the tail, and require the decisions to
/// be byte-identical to an uninterrupted reference run.
#[test]
fn kill_at_twenty_seeded_offsets_restores_identical_decisions() {
    let posts = stream(11, 600);
    let mut rng = StdRng::seed_from_u64(4242);
    for kind in AlgorithmKind::ALL {
        let mut reference_engine = build_engine(kind, config(), graph());
        let reference: Vec<Decision> = posts.iter().map(|p| reference_engine.offer(p)).collect();

        for trial in 0..20 {
            let crash_at = rng.random_range(1..posts.len());
            let dir = tempdir(&format!("kill-{kind}-{trial}"));
            let policy = CheckpointPolicy {
                every_offers: 25,
                every_millis: None,
                keep: 2,
            };
            let mut mgr = CheckpointManager::new(&dir, policy).unwrap();
            let mut engine = build_engine(kind, config(), graph());
            for p in &posts[..crash_at] {
                engine.offer(p);
                mgr.maybe_save(&engine).unwrap();
            }
            drop(engine); // the crash
            drop(mgr);

            match restore_latest_valid(&dir, kind, graph(), None) {
                Ok(restored) => {
                    let resumed = restored.manifest.posts_processed as usize;
                    assert!(resumed <= crash_at, "{kind}: cursor past the crash");
                    let mut engine = restored.engine;
                    for (p, want) in posts[resumed..].iter().zip(&reference[resumed..]) {
                        assert_eq!(
                            engine.offer(p),
                            *want,
                            "{kind}: decision diverged after restore at {crash_at}"
                        );
                    }
                }
                Err(RestoreError::NoValidCheckpoint { skipped }) => {
                    // Crashed before the first checkpoint: cold start is the
                    // documented recovery path, and nothing was skipped.
                    assert!(
                        crash_at < 25,
                        "{kind}: no checkpoint after {crash_at} offers"
                    );
                    assert!(skipped.is_empty());
                }
                Err(e) => panic!("{kind}: restore failed: {e}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

fn subscriptions() -> Subscriptions {
    Subscriptions::new(
        8,
        vec![
            vec![0, 1, 2, 3, 6],
            vec![0, 1, 2, 3, 4, 5],
            vec![4, 5, 7],
            vec![6, 7],
        ],
    )
    .unwrap()
}

/// The multi-user counterpart: checkpoint every `k` stream posts, kill at
/// ≥ 20 seeded offsets, restore into a freshly-built strategy, replay.
/// The stream cursor is `generation * k` by construction (the multi
/// manifest's `posts_processed` is the engines' aggregate, not the stream
/// position).
#[test]
fn kill_at_twenty_seeded_offsets_multi_restores_identical_decisions() {
    let posts = stream(23, 400);
    let k = 20usize;
    let mut rng = StdRng::seed_from_u64(77);
    for kind in AlgorithmKind::ALL {
        let mut reference_multi = SharedMulti::new(kind, config(), &graph(), subscriptions());
        let reference: Vec<_> = posts.iter().map(|p| reference_multi.offer(p)).collect();

        for trial in 0..20 {
            let crash_at = rng.random_range(1..posts.len());
            let dir = tempdir(&format!("mkill-{kind}-{trial}"));
            let mut mgr = CheckpointManager::new(
                &dir,
                CheckpointPolicy {
                    every_offers: 1, // cadence driven by the loop below
                    every_millis: None,
                    keep: 2,
                },
            )
            .unwrap();
            let mut multi = SharedMulti::new(kind, config(), &graph(), subscriptions());
            for (i, p) in posts[..crash_at].iter().enumerate() {
                multi.offer(p);
                if (i + 1) % k == 0 {
                    mgr.save_multi(&multi).unwrap();
                }
            }
            drop(multi);

            let mut fresh = SharedMulti::new(kind, config(), &graph(), subscriptions());
            match restore_latest_valid_multi(&dir, &mut fresh) {
                Ok((manifest, _skipped)) => {
                    let resumed = (manifest.generation as usize + 1) * k;
                    assert!(resumed <= crash_at, "{kind}: cursor past the crash");
                    for (p, want) in posts[resumed..].iter().zip(&reference[resumed..]) {
                        assert_eq!(
                            fresh.offer(p),
                            *want,
                            "{kind}: diverged after restore at {crash_at}"
                        );
                    }
                }
                Err(RestoreError::NoValidCheckpoint { .. }) => {
                    assert!(
                        crash_at < k,
                        "{kind}: no checkpoint after {crash_at} offers"
                    );
                }
                Err(e) => panic!("S_{kind}: restore failed: {e}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Torn writes through the chaos writer: whatever prefix reaches disk, the
/// restore path returns a typed error (or a complete write round-trips) —
/// never a panic, never silent corruption.
#[test]
fn torn_writes_yield_typed_errors_never_panics() {
    let posts = stream(5, 120);
    for kind in AlgorithmKind::ALL {
        let mut engine = build_engine(kind, config(), graph());
        for p in &posts {
            engine.offer(p);
        }
        let full = checkpoint_engine_to_vec(&engine, 1).unwrap();
        // 32 seeded tear points + both edges.
        let mut rng = StdRng::seed_from_u64(99);
        let mut cuts: Vec<u64> = (0..32)
            .map(|_| rng.random_range(0..full.len() as u64))
            .collect();
        cuts.push(0);
        cuts.push(full.len() as u64 - 1);
        for cut in cuts {
            let mut w = ChaosWriter::new(Vec::new(), FaultPlan::truncated_at(cut));
            let _ = w.write_all(&full); // the tear may surface as an Err here
            let torn = w.into_inner();
            assert!(torn.len() <= cut as usize + 1);
            match restore_engine_from_slice(&torn, kind, graph(), None) {
                Ok(_) => panic!("{kind}: torn write at {cut} restored successfully"),
                Err(e) => {
                    let _ = e.to_string(); // typed + displayable
                }
            }
        }
        // Seeded bit flips anywhere in the container are detected.
        for (offset, bit) in (0..32).map(|_| {
            (
                rng.random_range(0..full.len() as u64),
                rng.random_range(0..8u32) as u8,
            )
        }) {
            let mut w = ChaosWriter::new(Vec::new(), FaultPlan::bit_flip(offset, bit));
            w.write_all(&full).unwrap();
            let flipped = w.into_inner();
            assert_eq!(flipped.len(), full.len());
            assert!(
                restore_engine_from_slice(&flipped, kind, graph(), None).is_err(),
                "{kind}: bit flip at ({offset}, {bit}) went undetected"
            );
        }
    }
}

/// The multi checkpoint container rejects every truncation and every
/// byte-level flip with a typed error too.
#[test]
fn multi_container_fuzz_truncation_and_flips() {
    let posts = stream(31, 100);
    let mut multi = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph(), subscriptions());
    for p in &posts {
        multi.offer(p);
    }
    let full = checkpoint_multi_to_vec(&multi, 0).unwrap();
    for cut in 0..full.len() {
        let mut fresh =
            SharedMulti::new(AlgorithmKind::UniBin, config(), &graph(), subscriptions());
        assert!(
            restore_multi_from_slice(&full[..cut], &mut fresh).is_err(),
            "multi truncation at {cut} went undetected"
        );
    }
    for i in 0..full.len() {
        let mut bad = full.clone();
        bad[i] ^= 0x10;
        let mut fresh =
            SharedMulti::new(AlgorithmKind::UniBin, config(), &graph(), subscriptions());
        assert!(
            restore_multi_from_slice(&bad, &mut fresh).is_err(),
            "multi bit flip at byte {i} went undetected"
        );
    }
}

/// The FHSNAP03 whole-file snapshot rejects every truncation with a typed
/// error as well (satellite: snapshot round-trip fuzz at every boundary).
#[test]
fn whole_file_snapshot_truncation_fuzz() {
    let posts = stream(17, 80);
    let mut engine = firehose_core::engine::UniBin::new(config(), graph());
    for p in &posts {
        engine.offer(p);
    }
    let mut full = Vec::new();
    snapshot_unibin(&engine, &mut full).unwrap();
    for cut in 0..full.len() {
        let mut r: &[u8] = &full[..cut];
        assert!(
            restore_unibin(&mut r, graph()).is_err(),
            "snapshot truncation at {cut} went undetected"
        );
    }
    let mut r: &[u8] = &full;
    restore_unibin(&mut r, graph()).unwrap();
}

/// Heavily perturbed streams — duplicates, drops, reordering, clock skew —
/// must never panic any guard policy, and whatever the guard admits must be
/// time-ordered and safely consumable by every engine.
#[test]
fn perturbed_streams_never_panic_under_any_guard_policy() {
    let posts = stream(53, 300);
    let policies = [
        GuardPolicy::Strict,
        GuardPolicy::Clamp,
        GuardPolicy::Reorder { bound_ms: 0 },
        GuardPolicy::Reorder { bound_ms: 700 },
        GuardPolicy::Reorder { bound_ms: 120_000 },
    ];
    for seed in 0..6u64 {
        let perturbed = Perturbator::new(seed)
            .with_dup_rate(0.25)
            .with_drop_rate(0.10)
            .with_reorder_ms(90_000)
            .with_skew_ms(60_000)
            .perturb(&posts);
        for policy in policies {
            let cfg = GuardConfig::new(policy).with_author_count(8);
            let (admitted, stats) = guard_stream(cfg, perturbed.clone());
            assert_eq!(
                stats.offered(),
                perturbed.len() as u64,
                "guard lost track of offers"
            );
            for w in admitted.windows(2) {
                assert!(
                    w[0].timestamp <= w[1].timestamp,
                    "guard admitted an out-of-order post under {policy:?}"
                );
            }
            for kind in AlgorithmKind::ALL {
                let mut engine = build_engine(kind, config(), graph());
                for p in &admitted {
                    engine.offer(p);
                }
                assert_eq!(
                    engine.metrics().posts_processed,
                    admitted.len() as u64,
                    "{kind} dropped admitted posts"
                );
            }
        }
    }
}
