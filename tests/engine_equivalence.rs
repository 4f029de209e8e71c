//! The central correctness property of Section 4: UniBin, NeighborBin and
//! CliqueBin are *exact* index optimizations — all three must emit the same
//! diversified sub-stream, and that sub-stream must match the brute-force
//! SPSD oracle of the coverage semantics.

use std::sync::Arc;

use firehose::prelude::*;
use firehose::stream::PostRecord;
use firehose_reference::oracle;
use proptest::prelude::*;

fn run_engine(
    kind: AlgorithmKind,
    records: &[PostRecord],
    thresholds: Thresholds,
    graph: &Arc<UndirectedGraph>,
) -> Vec<bool> {
    let mut engine = build_engine(kind, EngineConfig::new(thresholds), Arc::clone(graph));
    records
        .iter()
        .map(|&r| engine.offer_record(r).is_emitted())
        .collect()
}

/// A random stream over `m` authors: timestamps increase by 0..gap steps,
/// fingerprints drawn from a small pool so content collisions actually occur.
fn stream_strategy(m: u32) -> impl Strategy<Value = Vec<PostRecord>> {
    proptest::collection::vec(
        (
            0..m,
            0u64..500,
            proptest::sample::select(vec![0u64, 1, 0xFF, 0xFF00, u64::MAX, 0xF0F0F0F0]),
        ),
        0..80,
    )
    .prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .enumerate()
            .map(|(i, (author, gap, fingerprint))| {
                ts += gap;
                PostRecord {
                    id: i as u64,
                    author,
                    timestamp: ts,
                    fingerprint,
                }
            })
            .collect()
    })
}

fn graph_strategy(m: u32) -> impl Strategy<Value = UndirectedGraph> {
    proptest::collection::vec((0..m, 0..m), 0..40)
        .prop_map(move |edges| UndirectedGraph::from_edges(m as usize, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All three engines match the brute-force reference on arbitrary
    /// streams, graphs and thresholds.
    #[test]
    fn engines_match_reference(
        records in stream_strategy(12),
        graph in graph_strategy(12),
        lambda_c in 0u32..24,
        lambda_t in 1u64..2_000,
        ) {
        let thresholds = Thresholds::new(lambda_c, lambda_t, 0.7).unwrap();
        let graph = Arc::new(graph);
        let expected = oracle::spsd(&records, &thresholds, &graph);
        for kind in AlgorithmKind::ALL {
            let got = run_engine(kind, &records, thresholds, &graph);
            prop_assert_eq!(&got, &expected, "{} diverged from reference", kind);
        }
    }

    /// The coverage invariant: every pruned post is covered by an *earlier
    /// emitted* post within the window; no emitted post is covered by an
    /// earlier emitted post. The oracle's decisions are exactly the ones
    /// that satisfy it.
    #[test]
    fn coverage_invariant_holds(
        records in stream_strategy(10),
        graph in graph_strategy(10),
        lambda_t in 1u64..1_000,
    ) {
        let thresholds = Thresholds::new(8, lambda_t, 0.7).unwrap();
        let graph = Arc::new(graph);
        let decisions = run_engine(AlgorithmKind::UniBin, &records, thresholds, &graph);
        for (r, (got, want)) in records
            .iter()
            .zip(decisions.iter().zip(oracle::spsd(&records, &thresholds, &graph)))
        {
            prop_assert_eq!(
                *got,
                want,
                "post {}: the engine's decision breaks the coverage invariant",
                r.id
            );
        }
    }

    /// Engines are deterministic: the same stream twice produces the same
    /// decisions and the same counters.
    ///
    /// (Note: emitted-set *cardinality* is deliberately NOT asserted to be
    /// monotone in the thresholds — greedy online diversification is not
    /// monotone: pruning a post removes it from future comparisons, which
    /// can cascade either way.)
    #[test]
    fn engines_are_deterministic(
        records in stream_strategy(10),
        graph in graph_strategy(10),
        lambda_c in 0u32..24,
        lambda_t in 1u64..1_000,
    ) {
        let thresholds = Thresholds::new(lambda_c, lambda_t, 0.7).unwrap();
        let graph = Arc::new(graph);
        for kind in AlgorithmKind::ALL {
            let a = run_engine(kind, &records, thresholds, &graph);
            let b = run_engine(kind, &records, thresholds, &graph);
            prop_assert_eq!(a, b, "{} is nondeterministic", kind);
        }
    }
}

/// The same property over *realistic* inputs: a seeded synthetic social
/// graph, a generated 1k+-post day of traffic with injected near-duplicates,
/// and fingerprints produced by the real text → SimHash pipeline (rather
/// than the small hand-picked fingerprint pool of the proptest strategies
/// above). All three engines must emit the identical sub-stream, and their
/// memory/eviction accounting must match a from-first-principles count of
/// what each index stores: per emitted post still inside the λt window,
/// UniBin holds 1 copy, NeighborBin `degree+1` copies (self + each graph
/// neighbor), CliqueBin one copy per clique of the author (or 1 in its self
/// bin when isolated).
#[test]
fn randomized_workloads_emit_identical_substreams() {
    use firehose::datagen::{SocialGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig};
    use firehose::graph::{build_similarity_graph, greedy_clique_cover};
    use firehose::stream::hours;

    for seed in [0u64, 0xC0FFEE, 9_2016] {
        let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale().with_seed(seed));
        // Stretch the test-scale stream to a full day so well over 1k posts
        // flow through every engine.
        let config = WorkloadConfig {
            duration: hours(24),
            ..WorkloadConfig::default()
        }
        .with_seed(seed);
        let workload = Workload::generate(&social, config);
        assert!(
            workload.len() >= 1_000,
            "workload too small: {} posts",
            workload.len()
        );

        let graph = Arc::new(build_similarity_graph(&social.graph, 0.7));
        let cover = greedy_clique_cover(&graph);
        let thresholds = Thresholds::new(18, firehose::stream::minutes(30), 0.7).unwrap();
        // Presize from the true stream rate so the capacity-hint path is
        // exercised too — hints must not change any decision or counter.
        let span_s = (workload.posts.last().unwrap().timestamp
            - workload.posts.first().unwrap().timestamp) as f64
            / 1_000.0;
        let config = EngineConfig::builder(thresholds)
            .expected_rate(workload.len() as f64 / span_s.max(1e-9))
            .build();

        let mut engines: Vec<_> = AlgorithmKind::ALL
            .into_iter()
            .map(|kind| build_engine(kind, config, Arc::clone(&graph)))
            .collect();
        let mut emitted = [0u64; 3];
        let mut emitted_posts: Vec<(u32, u64)> = Vec::new(); // (author, ts)
        for post in &workload.posts {
            let decisions: Vec<bool> = engines
                .iter_mut()
                .map(|e| e.offer(post).is_emitted())
                .collect();
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "engines diverged on post {} (seed {seed}): UniBin={} NeighborBin={} CliqueBin={}",
                post.id,
                decisions[0],
                decisions[1],
                decisions[2]
            );
            for (count, &d) in emitted.iter_mut().zip(&decisions) {
                *count += d as u64;
            }
            if decisions[0] {
                emitted_posts.push((post.author, post.timestamp));
            }
        }
        // The run must have exercised both outcomes to mean anything.
        assert!(emitted[0] > 0, "nothing emitted (seed {seed})");
        assert!(
            emitted[0] < workload.len() as u64,
            "nothing pruned (seed {seed}) — duplicate injection is broken"
        );
        for (e, kind) in engines.iter().zip(AlgorithmKind::ALL) {
            assert_eq!(
                e.metrics().posts_emitted,
                emitted[0],
                "{kind} emitted-counter disagrees with its decisions"
            );
        }

        // Memory / eviction accounting. Eviction is lazy (bins not probed
        // since expiry still hold stale records), so flush everything to the
        // last timestamp first; the surviving copies are then exactly the
        // emitted posts whose timestamp is ≥ last − λt, fanned out per index.
        let last_ts = workload.posts.last().unwrap().timestamp;
        let cutoff = last_ts.saturating_sub(thresholds.lambda_t);
        let live: Vec<(u32, u64)> = emitted_posts
            .iter()
            .copied()
            .filter(|&(_, ts)| ts >= cutoff)
            .collect();
        let expected_copies = [
            live.len() as u64,
            live.iter()
                .map(|&(a, _)| graph.degree(a) as u64 + 1)
                .sum::<u64>(),
            live.iter()
                .map(|&(a, _)| (cover.cliques_of(a).len() as u64).max(1))
                .sum::<u64>(),
        ];
        for ((e, kind), expected) in engines
            .iter_mut()
            .zip(AlgorithmKind::ALL)
            .zip(expected_copies)
        {
            e.evict_expired(last_ts);
            let m = *e.metrics();
            assert_eq!(
                m.copies_stored, expected,
                "{kind} live-copy count (seed {seed})"
            );
            assert_eq!(
                e.memory_bytes(),
                expected * PostRecord::SIZE_BYTES as u64,
                "{kind} memory_bytes (seed {seed})"
            );
            assert_eq!(
                m.evictions,
                m.insertions - m.copies_stored,
                "{kind} eviction count must conserve insertions (seed {seed})"
            );
            assert!(
                m.peak_memory_bytes >= e.memory_bytes(),
                "{kind} peak below live memory (seed {seed})"
            );
        }
    }
}

#[test]
fn empty_stream_is_fine() {
    let graph = Arc::new(UndirectedGraph::new(4));
    for kind in AlgorithmKind::ALL {
        let engine = build_engine(kind, EngineConfig::paper_defaults(), Arc::clone(&graph));
        assert_eq!(engine.metrics().posts_processed, 0);
        assert_eq!(engine.memory_bytes(), 0);
    }
}

#[test]
fn single_post_always_emitted() {
    let graph = Arc::new(UndirectedGraph::new(2));
    let record = PostRecord {
        id: 9,
        author: 1,
        timestamp: 42,
        fingerprint: 0xDEAD,
    };
    for kind in AlgorithmKind::ALL {
        let mut engine = build_engine(kind, EngineConfig::paper_defaults(), Arc::clone(&graph));
        assert!(engine.offer_record(record).is_emitted(), "{kind}");
    }
}
