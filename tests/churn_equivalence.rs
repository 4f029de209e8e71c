//! Churn equivalence: live subscription management must converge to exactly
//! what a freshly built strategy over the final subscription table produces.
//!
//! Three levels, from strongest to weakest guarantee:
//!
//! 1. **Structural** — churn applied *before any posts* yields a strategy
//!    whose entire stream is decision-identical to a fresh build from the
//!    final table (the component split/merge algebra is exact).
//! 2. **Post-quiet-gap** — churn interleaved *mid-stream* yields identical
//!    decisions once `λt` of stream time separates the churn from the probe
//!    (stale window records cannot cover across the gap).
//! 3. **Warm-start window** — inside `λt` of a churn op, a warm-started
//!    engine may legitimately diverge from a fresh build: affected users
//!    keep their recently-shown posts as coverage.
//!
//! Plus checkpoint-across-churn: a checkpoint taken mid-churn restores (into
//! a strategy built from the *initial* table) to identical future decisions.
//!
//! Churn runs on `S_*`, the engine the service builds. The paper's M = S
//! identity under churn is kept by comparing the churned `S_*` against a
//! static `M_*` built on the final table.

use firehose::core::checkpoint::{checkpoint_multi_to_vec, restore_multi_from_slice};
use firehose::core::engine::AlgorithmKind;
use firehose::core::multi::{MultiDecision, SharedMulti, Subscriptions};
use firehose::core::{EngineConfig, Thresholds};
use firehose::datagen::{generate_churn_trace, ChurnEvent, ChurnGenConfig, ChurnTraceEntry};
use firehose::graph::UndirectedGraph;
use firehose::stream::{AuthorId, Post};
use firehose_reference::IndependentMulti;
use proptest::prelude::*;

const AUTHORS: usize = 12;
const LAMBDA_T: u64 = 30_000;

fn graph() -> UndirectedGraph {
    UndirectedGraph::from_edges(AUTHORS, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (8, 9)])
}

fn config() -> EngineConfig {
    EngineConfig::new(Thresholds::new(18, LAMBDA_T, 0.7).unwrap())
}

fn initial_sets() -> Vec<Vec<AuthorId>> {
    vec![
        vec![0, 1, 3],
        vec![2, 5],
        vec![4, 8, 9],
        vec![10],
        vec![0, 7, 11],
        vec![6],
    ]
}

fn subs() -> Subscriptions {
    Subscriptions::new(AUTHORS, initial_sets()).unwrap()
}

/// Deterministic stream segment: `n` posts starting at (`first_id`,
/// `start_ts`), cycling authors, five near-duplicate text groups.
fn posts(n: u64, first_id: u64, start_ts: u64) -> Vec<Post> {
    (0..n)
        .map(|i| {
            Post::new(
                first_id + i,
                ((i * 5 + 3) % AUTHORS as u64) as AuthorId,
                start_ts + i * 997,
                format!("breaking news item in content group {}", i % 5),
            )
        })
        .collect()
}

fn build(kind: AlgorithmKind, subscriptions: Subscriptions) -> SharedMulti {
    SharedMulti::new(kind, config(), &graph(), subscriptions)
}

fn apply(multi: &mut SharedMulti, event: &ChurnEvent) {
    match event {
        ChurnEvent::Subscribe(u, a) => {
            multi.subscribe(*u as u32, *a).unwrap();
        }
        ChurnEvent::Unsubscribe(u, a) => {
            multi.unsubscribe(*u as u32, *a).unwrap();
        }
        ChurnEvent::AddUser(authors) => {
            multi.add_user(authors).unwrap();
        }
        ChurnEvent::RemoveUser(u) => {
            multi.remove_user(*u as u32).unwrap();
        }
    }
}

fn offer_all(multi: &mut SharedMulti, posts: &[Post]) -> Vec<MultiDecision> {
    // Exercise the buffer-reusing entry point on one side so both paths are
    // under test.
    let mut out = Vec::with_capacity(posts.len());
    let mut scratch = MultiDecision::default();
    for post in posts {
        multi.offer_into(post, &mut scratch);
        out.push(scratch.clone());
    }
    out
}

/// Level 1: any seeded op sequence applied before the first post is
/// decision-identical to a fresh build from the resulting table — every
/// kind — and to the static per-user `M_*` reference built on that table.
#[test]
fn churn_before_posts_matches_fresh_build() {
    let trace = generate_churn_trace(
        AUTHORS,
        &initial_sets(),
        1,
        ChurnGenConfig {
            ops: 40,
            ..Default::default()
        },
    );
    let stream = posts(150, 1, 0);
    for kind in AlgorithmKind::ALL {
        let mut churned = build(kind, subs());
        for entry in &trace {
            apply(&mut churned, &entry.event);
        }
        assert!(churned.churn_stats().ops_total() > 0);

        let mut fresh = build(kind, churned.subscriptions().clone());
        let mut reference =
            IndependentMulti::new(kind, config(), &graph(), churned.subscriptions().clone());
        let got = offer_all(&mut churned, &stream);
        let want: Vec<MultiDecision> = stream.iter().map(|p| fresh.offer(p)).collect();
        assert_eq!(
            got, want,
            "{kind}: churned-then-stream diverged from fresh build"
        );
        let per_user: Vec<MultiDecision> = stream.iter().map(|p| reference.offer(p)).collect();
        assert_eq!(
            got, per_user,
            "{kind}: churned S_* diverged from M_* on the final table"
        );
    }
}

/// Level 2: churn interleaved mid-stream converges — after a λt quiet gap,
/// the churned strategy's decisions equal a fresh build from the final
/// table (which never saw the pre-gap stream at all).
#[test]
fn churn_mid_stream_matches_fresh_after_quiet_gap() {
    let first_half = posts(100, 1, 0);
    let trace = generate_churn_trace(
        AUTHORS,
        &initial_sets(),
        first_half.len() as u64,
        ChurnGenConfig {
            ops: 30,
            ..Default::default()
        },
    );
    let gap_start = first_half.last().unwrap().timestamp + LAMBDA_T + 1_000;
    let second_half = posts(120, 1_000, gap_start);

    for kind in AlgorithmKind::ALL {
        let mut churned = build(kind, subs());
        let mut next = 0;
        for (i, post) in first_half.iter().enumerate() {
            while next < trace.len() && trace[next].after_posts <= i as u64 {
                apply(&mut churned, &trace[next].event);
                next += 1;
            }
            churned.offer(post);
        }
        for entry in &trace[next..] {
            apply(&mut churned, &entry.event);
        }

        let mut fresh = build(kind, churned.subscriptions().clone());
        let got = offer_all(&mut churned, &second_half);
        let want: Vec<MultiDecision> = second_half.iter().map(|p| fresh.offer(p)).collect();
        assert_eq!(
            got, want,
            "{kind}: post-gap stream diverged from fresh build"
        );
    }
}

/// Level 3: inside λt, warm start is a *feature* — the newly wired engine
/// keeps the user's recently-shown posts as coverage, so a near-duplicate
/// right after a subscribe is suppressed where a fresh build over the
/// churned table, which never saw post 1, re-shows it.
#[test]
fn warm_start_diverges_from_cold_within_lambda_t() {
    let graph = UndirectedGraph::from_edges(2, [(0, 1)]);
    let seen = Post::new(1, 0, 0, "identical breaking story".into());
    // Near-duplicate from the newly-followed, similar author, within λt.
    let probe = Post::new(2, 1, 5_000, "identical breaking story".into());

    let subscriptions = Subscriptions::new(2, [vec![0]]).unwrap();
    let mut churned = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subscriptions);
    assert_eq!(churned.offer(&seen).delivered_to, [0]);
    churned.subscribe(0, 1).unwrap();
    assert_eq!(
        churned.offer(&probe).delivered_to,
        Vec::<u32>::new(),
        "warm start must keep post 1 as coverage"
    );

    let mut fresh = SharedMulti::new(
        AlgorithmKind::UniBin,
        config(),
        &graph,
        churned.subscriptions().clone(),
    );
    assert_eq!(
        fresh.offer(&probe).delivered_to,
        [0],
        "a fresh build has no window and delivers"
    );
}

/// A subscribe that bridges two populated singleton components must gather
/// warm-start seeds from BOTH released engines. Regression test: each
/// engine's `window_records` used to sort the *whole* shared buffer, so the
/// second engine's pass shuffled the first engine's already-globalized
/// records into its own translation range — an out-of-bounds panic (or a
/// silent mistranslation) whenever post ids interleaved across components.
#[test]
fn merge_collects_seeds_from_two_released_engines() {
    let graph = UndirectedGraph::from_edges(6, [(3, 4), (4, 5)]);
    let subscriptions = Subscriptions::new(6, [vec![3, 5]]).unwrap();
    let mut multi = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subscriptions);
    // Components {3} and {5}; ids 1 and 3 land in {3}, id 2 in {5}, so the
    // id-sorted seed buffer interleaves the two engines' records.
    let delivered = [
        multi.offer(&Post::new(
            1,
            3,
            0,
            "quarterly earnings call transcript".into(),
        )),
        multi.offer(&Post::new(
            2,
            5,
            1_000,
            "marathon route closes downtown".into(),
        )),
        multi.offer(&Post::new(
            3,
            3,
            2_000,
            "volcano erupts on remote island".into(),
        )),
    ];
    for d in &delivered {
        assert_eq!(d.delivered_to, [0], "every setup post must enter a window");
    }

    multi.subscribe(0, 4).unwrap();
    let stats = multi.churn_stats();
    assert_eq!(stats.engines_spawned, 1);
    assert_eq!(stats.engines_retired, 2);
    assert_eq!(stats.warm_starts, 1);
    // The merged engine inherited all three records: a near-duplicate of
    // each, posted by the bridging author within λt, is suppressed.
    for (id, text) in [
        (4, "quarterly earnings call transcript"),
        (5, "marathon route closes downtown"),
        (6, "volcano erupts on remote island"),
    ] {
        assert_eq!(
            multi
                .offer(&Post::new(id, 4, 3_000 + id, text.into()))
                .delivered_to,
            Vec::<u32>::new(),
            "post {id} must be covered by an inherited seed"
        );
    }
}

/// Regression: a merge-inducing subscribe against *live window content*
/// must register a warm start — for every kind and through the
/// `FirehoseService` facade. The churn bench reported `warm_starts: 0`
/// across 1,642 spawns for several releases because it replayed churn
/// against an idle service (empty windows yield no seeds, so the warm path
/// never fired); this pins the behavior the bench now measures.
#[test]
fn merge_inducing_subscribe_records_warm_start() {
    let seed_post = || Post::new(1, 0, 1_000, "breaking story everyone reposts".into());
    for kind in AlgorithmKind::ALL {
        let subscriptions = Subscriptions::new(AUTHORS, [vec![0]]).unwrap();
        let mut multi = build(kind, subscriptions);
        assert_eq!(multi.offer(&seed_post()).delivered_to, [0]);
        assert_eq!(multi.churn_stats().warm_starts, 0);
        // Graph edge (0, 1): adding author 1 merges it into user 0's
        // populated component, spawning a seeded replacement engine.
        multi.subscribe(0, 1).unwrap();
        let stats = multi.churn_stats();
        assert!(
            stats.warm_starts > 0,
            "{kind}: spawned {} engines but warm-started none",
            stats.engines_spawned
        );
    }

    // Same scenario through the service facade.
    let mut service = firehose::core::FirehoseService::builder(
        &graph(),
        Subscriptions::new(AUTHORS, [vec![0]]).unwrap(),
    )
    .engine_config(config())
    .build()
    .unwrap();
    service.process(seed_post(), |_, _| {}).unwrap();
    assert_eq!(service.churn_stats().warm_starts, 0);
    service.subscribe(0, 1).unwrap();
    assert!(
        service.churn_stats().warm_starts > 0,
        "service facade must warm-start the merged engine"
    );
}

/// Checkpoint-across-churn: a checkpoint taken after posts + churn restores
/// into a strategy built from the *initial* table (the embedded
/// subscription table wins) and continues decision-identically.
#[test]
fn checkpoint_across_churn_restores_identical_decisions() {
    let first_half = posts(80, 1, 0);
    let second_half = posts(80, 1_000, first_half.last().unwrap().timestamp + 997);
    let trace = generate_churn_trace(
        AUTHORS,
        &initial_sets(),
        1,
        ChurnGenConfig {
            ops: 25,
            ..Default::default()
        },
    );
    let mut original = build(AlgorithmKind::UniBin, subs());
    for post in &first_half {
        original.offer(post);
    }
    for entry in &trace {
        apply(&mut original, &entry.event);
    }
    let buf = checkpoint_multi_to_vec(&original, 7).unwrap();

    // The restore target starts from the INITIAL table; the checkpoint
    // carries the churned one.
    let mut restored = build(AlgorithmKind::UniBin, subs());
    let manifest = restore_multi_from_slice(&buf, &mut restored).unwrap();
    assert_eq!(manifest.generation, 7);
    assert_eq!(
        restored.churn_stats(),
        original.churn_stats(),
        "churn ledger must survive restore"
    );
    assert_eq!(restored.subscriptions(), original.subscriptions());
    for post in &second_half {
        assert_eq!(
            restored.offer(post).delivered_to,
            original.offer(post).delivered_to,
            "post-restore decisions diverged"
        );
    }
}

/// Replay `stream` with `trace` ops interleaved at their recorded
/// positions (trailing ops applied after the stream), collecting every
/// decision.
fn run_interleaved(
    multi: &mut SharedMulti,
    stream: &[Post],
    trace: &[ChurnTraceEntry],
) -> Vec<MultiDecision> {
    let mut decisions = Vec::with_capacity(stream.len());
    let mut next = 0;
    for (i, post) in stream.iter().enumerate() {
        while next < trace.len() && trace[next].after_posts <= i as u64 {
            apply(multi, &trace[next].event);
            next += 1;
        }
        decisions.push(multi.offer(post));
    }
    for entry in &trace[next..] {
        apply(multi, &entry.event);
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint handoff under interleaved churn: for seeded random churn
    /// traces woven into the post stream, a run interrupted by a mid-stream
    /// checkpoint that restores into a *fresh* instance (built from the
    /// initial table), which then finishes the stream, is decision-for-
    /// decision and ledger-identical to an uninterrupted run.
    #[test]
    fn interleaved_churn_survives_checkpoint_handoff(
        seed in 0u64..1_000_000,
        ops in 6usize..24,
        n_posts in 50u64..110,
    ) {
        let stream = posts(n_posts, 1, 0);
        let trace = generate_churn_trace(
            AUTHORS,
            &initial_sets(),
            n_posts,
            ChurnGenConfig { seed, ops, ..Default::default() },
        );
        let checkpoint_at = (n_posts / 2) as usize;

        let mut reference = build(AlgorithmKind::UniBin, subs());
        let expected = run_interleaved(&mut reference, &stream, &trace);
        let mut multi = build(AlgorithmKind::UniBin, subs());
        let mut got = Vec::with_capacity(stream.len());
        let mut next = 0;
        for (i, post) in stream.iter().enumerate() {
            while next < trace.len() && trace[next].after_posts <= i as u64 {
                apply(&mut multi, &trace[next].event);
                next += 1;
            }
            got.push(multi.offer(post));
            if i + 1 == checkpoint_at {
                // Mid-stream handoff: checkpoint, then continue on a
                // freshly built instance restored from those bytes.
                let buf = checkpoint_multi_to_vec(&multi, 1).unwrap();
                let mut restored = build(AlgorithmKind::UniBin, subs());
                restore_multi_from_slice(&buf, &mut restored).unwrap();
                multi = restored;
            }
        }
        for entry in &trace[next..] {
            apply(&mut multi, &entry.event);
        }
        prop_assert_eq!(&got, &expected, "decisions diverged");
        prop_assert_eq!(
            multi.churn_stats(),
            reference.churn_stats(),
            "churn ledger diverged"
        );
        prop_assert_eq!(multi.subscriptions(), reference.subscriptions());
    }
}
