//! Exact vs approximate memory mode: the differential quality contract.
//!
//! [`MemoryMode::Approx`] is *not* decision-identical to exact mode — its
//! contract is the declared [`DeltaBounds`]: one-sided error (it never
//! prunes a post exact mode would have to deliver, so coverage violations
//! stay zero), delivery ratio and residual redundancy within the published
//! deltas, and a real RAM reduction. These tests hold the approximate
//! engines to that contract on seeded synthetic workloads in the regime
//! the mode is declared for (λc = 12 near-duplicates over a 24 h window),
//! and pin down the properties that must stay *exact* even in approximate
//! mode: decision determinism across mid-stream snapshot/checkpoint/restore,
//! with and without subscription churn.

use std::sync::Arc;

use firehose::core::checkpoint::{checkpoint_multi_to_vec, restore_multi_from_slice};
use firehose::core::snapshot::{
    restore_cliquebin, restore_neighborbin, restore_unibin, snapshot_cliquebin,
    snapshot_neighborbin, snapshot_unibin,
};
use firehose::core::{evaluate, DeltaBounds, QualityGate};
use firehose::datagen::{SocialGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig};
use firehose::graph::build_similarity_graph;
use firehose::prelude::*;
use firehose::stream::{hours, AuthorId, Post, PostRecord};
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

// ---------------------------------------------------------------------------
// Multi-user strategies: churn + checkpoint in approximate mode.
// ---------------------------------------------------------------------------

const AUTHORS: usize = 12;

fn multi_graph() -> UndirectedGraph {
    UndirectedGraph::from_edges(AUTHORS, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (8, 9)])
}

fn multi_subs() -> Subscriptions {
    Subscriptions::new(
        AUTHORS,
        vec![
            vec![0, 1, 3],
            vec![2, 5],
            vec![4, 8, 9],
            vec![10],
            vec![0, 7, 11],
            vec![6],
        ],
    )
    .unwrap()
}

/// Deterministic multi-user stream in the declared near-duplicate regime:
/// posts every ~20 s across a 24 h window (so the λt = 24 h window never
/// expires and the approximate store's retention actually matters), mostly
/// unique content plus a 25 % rate of short-lag duplicates (4 or 8 minutes
/// back — inside the active bucket's full-fidelity span). The author cycle
/// has period 12, so a lag of 12 or 24 posts lands on the *same author* and
/// the copy is a genuine cover for exact mode too.
fn multi_posts(n: u64) -> Vec<Post> {
    let mut posts: Vec<Post> = Vec::with_capacity(n as usize);
    for i in 0..n {
        // `i % 5` dup condition with lag 12/24 keeps the base itself unique
        // (`i - lag ≢ 0 mod 5`): the cover is a freshly delivered post a few
        // minutes back, not the head of an hours-long duplicate chain.
        let text = if i % 5 == 0 && i >= 24 {
            let lag = if i % 10 == 0 { 24 } else { 12 };
            posts[(i - lag) as usize].text.clone()
        } else {
            // Every token is distinct per post — no shared template words,
            // so distinct posts land ~32 bits apart and only literal copies
            // fall within λc.
            format!(
                "a{}q b{}r c{}s d{}t e{}u",
                i * 7 % 9_973,
                i * 13 % 9_973,
                i * 29 % 9_973,
                i * 37 % 9_973,
                i * 53 % 9_973
            )
        };
        posts.push(Post::new(
            i,
            ((i * 5 + 3) % AUTHORS as u64) as AuthorId,
            i * 19_997,
            text,
        ));
    }
    posts
}

fn multi_config(memory: MemoryMode) -> EngineConfig {
    EngineConfig::builder(thresholds()).memory(memory).build()
}

fn approx_multi(subs: Subscriptions) -> SharedMulti {
    SharedMulti::new(
        AlgorithmKind::UniBin,
        multi_config(MemoryMode::Approx(
            ApproxConfig::new(PROBES, 8, 16).unwrap(),
        )),
        &multi_graph(),
        subs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Churn + mid-stream checkpoint/restore in approximate mode is
    /// deterministic: a checkpoint taken halfway through a churning stream
    /// restores (into a strategy built from the *initial* table) to
    /// delivery-identical decisions on the rest of the stream, including
    /// further churn applied to both sides.
    #[test]
    fn approx_checkpoint_across_churn_is_delivery_identical(
        ops in proptest::collection::vec((0u32..6, 0u32..AUTHORS as u32, any::<bool>()), 0..24),
    ) {
        let posts = multi_posts(600);
        let mid = posts.len() / 2;
        let (first_ops, rest_ops) = ops.split_at(ops.len() / 2);

        let mut original = approx_multi(multi_subs());
        let mut op_stream = first_ops.iter().cycle();
        for (i, p) in posts[..mid].iter().enumerate() {
            if i % 40 == 0 && !first_ops.is_empty() {
                let &(u, a, sub) = op_stream.next().unwrap();
                if sub {
                    let _ = original.subscribe(u, a);
                } else {
                    let _ = original.unsubscribe(u, a);
                }
            }
            original.offer(p);
        }

        let bytes = checkpoint_multi_to_vec(&original, 7).unwrap();
        let mut restored = approx_multi(multi_subs());
        let manifest = restore_multi_from_slice(&bytes, &mut restored).unwrap();
        prop_assert_eq!(manifest.generation, 7);

        let mut op_stream = rest_ops.iter().cycle();
        for (i, p) in posts[mid..].iter().enumerate() {
            if i % 40 == 0 && !rest_ops.is_empty() {
                let &(u, a, sub) = op_stream.next().unwrap();
                if sub {
                    let _ = original.subscribe(u, a);
                    let _ = restored.subscribe(u, a);
                } else {
                    let _ = original.unsubscribe(u, a);
                    let _ = restored.unsubscribe(u, a);
                }
            }
            prop_assert_eq!(
                restored.offer(p).delivered_to,
                original.offer(p).delivered_to,
                "restored approx strategy diverged at post {}",
                p.id
            );
        }
        prop_assert_eq!(original.memory_bytes(), restored.memory_bytes());
    }
}

/// Exact vs approximate through the multi-user strategy under live churn:
/// the total delivered volume stays within the declared delivery-ratio
/// delta, and the approximate side ends the day with strictly less window
/// state — the single-engine bounds survive the subscription-churn algebra
/// (component splits/merges rebuild approximate engines too).
#[test]
fn approx_multi_under_churn_stays_within_delivery_delta() {
    let posts = multi_posts(6_000);
    let churn: [(u32, u32, bool); 6] = [
        (3, 4, true),
        (1, 0, true),
        (0, 1, false),
        (5, 6, false),
        (2, 11, true),
        (4, 0, false),
    ];

    let mut exact = SharedMulti::new(
        AlgorithmKind::UniBin,
        multi_config(MemoryMode::Exact),
        &multi_graph(),
        multi_subs(),
    );
    let mut approx = approx_multi(multi_subs());

    let mut exact_deliveries = 0u64;
    let mut approx_deliveries = 0u64;
    let mut op_stream = churn.iter().cycle();
    for (i, p) in posts.iter().enumerate() {
        if i % 150 == 0 {
            let &(u, a, sub) = op_stream.next().unwrap();
            if sub {
                let _ = exact.subscribe(u, a);
                let _ = approx.subscribe(u, a);
            } else {
                let _ = exact.unsubscribe(u, a);
                let _ = approx.unsubscribe(u, a);
            }
        }
        exact_deliveries += exact.offer(p).delivered_to.len() as u64;
        approx_deliveries += approx.offer(p).delivered_to.len() as u64;
    }

    let delta = (approx_deliveries as f64 - exact_deliveries as f64).abs() / posts.len() as f64;
    let bound = DeltaBounds::declared().max_delivery_ratio_delta;
    assert!(
        delta <= bound,
        "churned delivery delta {delta:.4} exceeds declared bound {bound} \
         (exact {exact_deliveries}, approx {approx_deliveries})"
    );
    assert!(
        approx.memory_bytes() < exact.memory_bytes(),
        "approx mode holds no less window state than exact ({} vs {} bytes)",
        approx.memory_bytes(),
        exact.memory_bytes()
    );
}
