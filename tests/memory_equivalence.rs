//! Exact vs approximate memory mode: the differential quality contract.
//!
//! [`MemoryMode::Approx`] is *not* decision-identical to exact mode — its
//! contract is the declared [`DeltaBounds`]: one-sided error (it never
//! prunes a post exact mode would have to deliver, so coverage violations
//! stay zero), delivery ratio and residual redundancy within the published
//! deltas, and a real RAM reduction. These tests hold the approximate
//! engines to that contract on seeded synthetic workloads in the regime
//! the mode is declared for (λc = 12 near-duplicates over a 24 h window),
//! and pin down the property that must stay *exact* even in approximate
//! mode: decision determinism across mid-stream snapshot/restore. The
//! multi-user engine runs exact only (one window stores each in-window post
//! once), so approximate mode is a single-engine contract.

use std::sync::Arc;

use firehose::core::snapshot::{
    restore_cliquebin, restore_neighborbin, restore_unibin, snapshot_cliquebin,
    snapshot_neighborbin, snapshot_unibin,
};
use firehose::core::{evaluate, DeltaBounds, QualityGate};
use firehose::datagen::{SocialGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig};
use firehose::graph::build_similarity_graph;
use firehose::prelude::*;
use firehose::stream::{hours, Post, PostRecord};
use proptest::prelude::*;

/// Full-recall probe count for λc = 12 (`probes − 1 ≥ λc`, the prefix
/// layout's pigeonhole bound).
const PROBES: u32 = 13;
/// Stream size at which the declared bounds are known to hold with margin.
const TARGET_POSTS: usize = 4_000;

fn thresholds() -> Thresholds {
    Thresholds::new(12, hours(24), 0.7).unwrap()
}

/// Per-kind approx tuning and RAM floor: UniBin holds one engine-wide bin
/// and must clear the headline 10×; the per-author / per-clique engines
/// split the same stream over thousands of small bins whose fixed floors cap
/// the reduction, so they gate at 2×.
fn case(kind: AlgorithmKind) -> (ApproxConfig, f64) {
    let declared = DeltaBounds::declared();
    match kind {
        AlgorithmKind::UniBin => (
            ApproxConfig::new(PROBES, 8, 16).unwrap(),
            declared.min_ram_reduction,
        ),
        AlgorithmKind::NeighborBin | AlgorithmKind::CliqueBin => {
            (ApproxConfig::new(PROBES, 4, 16).unwrap(), 2.0)
        }
    }
}

/// A seeded day of synthetic traffic plus the similarity graph it plays
/// against, sized like the bench's smoke row.
fn seeded_workload(seed: u64) -> (Arc<UndirectedGraph>, Vec<Post>) {
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale().with_seed(seed));
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            posts_per_author_per_day: TARGET_POSTS as f64 / social.author_count() as f64,
            ..WorkloadConfig::default()
        }
        .with_seed(seed),
    );
    let graph = Arc::new(build_similarity_graph(&social.graph, 0.7));
    (graph, workload.posts)
}

fn run(
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: &Arc<UndirectedGraph>,
    posts: &[Post],
) -> (Vec<bool>, u64) {
    let mut engine = build_engine(kind, config, Arc::clone(graph));
    let decisions = posts.iter().map(|p| engine.offer(p).is_emitted()).collect();
    (decisions, engine.metrics().peak_memory_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline differential property: on seeded workloads every
    /// approximate engine stays within the declared [`DeltaBounds`] of its
    /// exact twin — zero coverage violations (one-sided error), delivery
    /// and redundancy deltas within bounds, RAM floor cleared.
    #[test]
    fn approx_stays_within_declared_bounds_of_exact(seed in any::<u64>()) {
        let (graph, posts) = seeded_workload(seed);
        let t = thresholds();
        let exact_config = EngineConfig::builder(t).build();
        let records: Vec<PostRecord> =
            posts.iter().map(|p| p.to_record(exact_config.simhash)).collect();

        for kind in AlgorithmKind::ALL {
            let (approx_cfg, min_ram) = case(kind);
            let approx_config = EngineConfig::builder(t)
                .memory(MemoryMode::Approx(approx_cfg))
                .build();

            let (exact_decisions, exact_peak) = run(kind, exact_config, &graph, &posts);
            let (approx_decisions, approx_peak) = run(kind, approx_config, &graph, &posts);

            let exact_report = evaluate(&records, &exact_decisions, &t, &graph);
            let approx_report = evaluate(&records, &approx_decisions, &t, &graph);
            prop_assert_eq!(
                approx_report.coverage_violations, 0,
                "{} (seed {}): approx pruned a post with no genuine cover",
                kind, seed
            );

            let gate = QualityGate::new(DeltaBounds {
                min_ram_reduction: min_ram,
                ..DeltaBounds::declared()
            });
            let verdict = gate.verdict(&exact_report, &approx_report, exact_peak, approx_peak);
            prop_assert!(
                verdict.pass,
                "{} (seed {}) failed the declared gate:\n{}",
                kind, seed, verdict
            );
        }
    }
}

/// Approximate-mode decisions must be *deterministic* across a mid-stream
/// snapshot/restore: the restored engine and the uninterrupted one make
/// identical decisions on the rest of a realistic workload — the tiered
/// store's retention layout (active bucket, decimated closed buckets) is
/// part of snapshotted state, not an artifact of process lifetime.
#[test]
fn approx_snapshot_midstream_is_decision_identical() {
    let (graph, posts) = seeded_workload(0xBEEF);
    let t = thresholds();
    let mid = posts.len() / 2;
    for kind in AlgorithmKind::ALL {
        let (approx_cfg, _) = case(kind);
        let config = EngineConfig::builder(t)
            .memory(MemoryMode::Approx(approx_cfg))
            .build();
        let mut buf = Vec::new();
        let (mut original, mut restored): (Box<dyn Diversifier>, Box<dyn Diversifier>) = match kind
        {
            AlgorithmKind::UniBin => {
                let mut engine = UniBin::new(config, Arc::clone(&graph));
                for p in &posts[..mid] {
                    engine.offer(p);
                }
                snapshot_unibin(&engine, &mut buf).unwrap();
                let restored = restore_unibin(&mut buf.as_slice(), Arc::clone(&graph)).unwrap();
                (Box::new(engine), Box::new(restored))
            }
            AlgorithmKind::NeighborBin => {
                let mut engine = NeighborBin::new(config, Arc::clone(&graph));
                for p in &posts[..mid] {
                    engine.offer(p);
                }
                snapshot_neighborbin(&engine, &mut buf).unwrap();
                let restored =
                    restore_neighborbin(&mut buf.as_slice(), Arc::clone(&graph)).unwrap();
                (Box::new(engine), Box::new(restored))
            }
            AlgorithmKind::CliqueBin => {
                let mut engine = CliqueBin::new(config, Arc::clone(&graph));
                for p in &posts[..mid] {
                    engine.offer(p);
                }
                snapshot_cliquebin(&engine, &mut buf).unwrap();
                let cover = Arc::new(firehose::graph::greedy_clique_cover(&graph));
                let restored =
                    restore_cliquebin(&mut buf.as_slice(), Arc::clone(&graph), cover).unwrap();
                (Box::new(engine), Box::new(restored))
            }
        };
        for p in &posts[mid..] {
            assert_eq!(
                restored.offer(p).is_emitted(),
                original.offer(p).is_emitted(),
                "{kind}: restored approx engine diverged at post {}",
                p.id
            );
        }
        assert_eq!(
            restored.metrics(),
            original.metrics(),
            "{kind}: counters diverged after restore"
        );
    }
}
