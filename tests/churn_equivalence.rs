//! Churn equivalence: under live subscription churn, every user's stream
//! must be exactly what the per-user churn oracle
//! (`firehose_reference::oracle::mspsd_churn`) delivers — one brute-force
//! window per user, follows changing with each op, a removed user receiving
//! nothing.
//!
//! Beside the oracle itself, three consequences are pinned:
//!
//! 1. **Before posts** — churn applied before the first post is
//!    decision-identical to a fresh build from the final table, and to the
//!    static per-user `M_*` reference built on it.
//! 2. **After a quiet gap** — churn interleaved mid-stream yields identical
//!    decisions to a fresh build once `λt` of stream time separates the
//!    churn from the probe (no record can cover across the gap).
//! 3. **Inside λt** — a user keeps what they were shown as coverage across
//!    their own follows and unfollows, and gains nothing from what other
//!    users were shown; a fresh build, which saw nothing, differs.
//!
//! Plus checkpoint-across-churn: a checkpoint taken mid-churn restores (into
//! an engine built from the *initial* table) to identical future decisions.

use firehose::core::checkpoint::{checkpoint_multi_to_vec, restore_multi_from_slice};
use firehose::core::engine::AlgorithmKind;
use firehose::core::multi::{MultiDecision, SharedMulti, Subscriptions, UserId};
use firehose::core::{ChurnOp, EngineConfig, Thresholds};
use firehose::datagen::{generate_churn_trace, ChurnEvent, ChurnGenConfig, ChurnTraceEntry};
use firehose::graph::UndirectedGraph;
use firehose::stream::{AuthorId, Post};
use firehose_reference::{oracle, IndependentMulti};
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
            "{kind}: churned engine diverged from M_* on the final table"
        );
    }
}

/// Level 2: churn interleaved mid-stream converges — after a λt quiet gap,
/// the churned engine's decisions equal a fresh build from the final
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

/// Every post's `delivered_to` under `trace`, from the per-user churn
/// oracle, over the initial table.
fn oracle_streams(stream: &[Post], trace: &[ChurnTraceEntry]) -> Vec<Vec<UserId>> {
    let records: Vec<_> = stream
        .iter()
        .map(|p| p.to_record(config().simhash))
        .collect();
    let ops: Vec<(usize, ChurnOp)> = trace
        .iter()
        .map(|e| (e.after_posts as usize, e.event.to_string().parse().unwrap()))
        .collect();
    oracle::mspsd_churn(
        &records,
        &initial_sets(),
        &ops,
        &config().thresholds,
        &graph(),
    )
}

/// Every user gets exactly the oracle's stream, for every kind, under
/// seeded churn traces woven into the stream. Seed `0x5F0A` with 40 ops
/// over 160 posts is the recipe of the churned compat fixture, on which the
/// component engine delivered 18 posts differently.
#[test]
fn interleaved_churn_matches_the_per_user_oracle() {
    for (seed, ops, n) in [(0x5F0A, 40, 160), (1, 30, 150), (7, 60, 200), (99, 12, 90)] {
        let stream = posts(n, 1, 0);
        let trace = generate_churn_trace(
            AUTHORS,
            &initial_sets(),
            n,
            ChurnGenConfig {
                seed,
                ops,
                ..Default::default()
            },
        );
        let want = oracle_streams(&stream, &trace);
        for kind in AlgorithmKind::ALL {
            let got = run_interleaved(&mut build(kind, subs()), &stream, &trace);
            let divergent: Vec<u64> = stream
                .iter()
                .zip(got.iter().zip(&want))
                .filter(|(_, (g, w))| &g.delivered_to != *w)
                .map(|(p, _)| p.id)
                .collect();
            assert!(
                divergent.is_empty(),
                "{kind}, seed {seed:#x}: posts {divergent:?} differ from the oracle"
            );
        }
    }
}

/// Inside λt a user keeps what they were shown: after user 0 follows author
/// 1, a near-duplicate from author 1 is covered by the post user 0 already
/// received from similar author 0, where a fresh build over the churned
/// table, which never saw post 1, shows it.
#[test]
fn shown_posts_keep_covering_across_churn_within_lambda_t() {
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
        "user 0 saw post 1, which covers the probe"
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

/// A subscribe that bridges two of a user's populated components keeps
/// both histories as coverage: a near-duplicate of each post, by the
/// bridging author within λt, is covered for the user.
#[test]
fn subscribe_bridging_two_components_keeps_both_histories() {
    let graph = UndirectedGraph::from_edges(6, [(3, 4), (4, 5)]);
    let subscriptions = Subscriptions::new(6, [vec![3, 5]]).unwrap();
    let mut multi = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subscriptions);
    for (id, author, text) in [
        (1, 3, "quarterly earnings call transcript"),
        (2, 5, "marathon route closes downtown"),
        (3, 3, "volcano erupts on remote island"),
    ] {
        let d = multi.offer(&Post::new(id, author, (id - 1) * 1_000, text.into()));
        assert_eq!(d.delivered_to, [0], "post {id} must reach user 0");
    }

    multi.subscribe(0, 4).unwrap();
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
            "post {id} must be covered by what user 0 was shown"
        );
    }
}

/// Both near-identical posts of the regression cases, one second apart.
fn near_duplicates(first: u32, second: u32) -> [Post; 2] {
    [
        Post::new(1, first, 0, "ferry service suspended after storm".into()),
        Post::new(
            2,
            second,
            1_000,
            "ferry service suspended after storm".into(),
        ),
    ]
}

/// Offer `posts[0]`, apply `op`, offer `posts[1]`: the second post's
/// delivery from the engine and from the oracle.
fn around_one_op(
    graph: &UndirectedGraph,
    follows: Vec<Vec<AuthorId>>,
    posts: &[Post; 2],
    op: ChurnOp,
) -> (Vec<UserId>, Vec<UserId>) {
    let subscriptions = Subscriptions::new(graph.node_count(), follows.clone()).unwrap();
    let mut multi = SharedMulti::new(AlgorithmKind::UniBin, config(), graph, subscriptions);
    multi.offer(&posts[0]);
    match &op {
        ChurnOp::Subscribe(u, a) => assert!(multi.subscribe(*u, *a).unwrap()),
        ChurnOp::Unsubscribe(u, a) => assert!(multi.unsubscribe(*u, *a).unwrap()),
        _ => unreachable!("the regression cases edit follows"),
    }
    let got = multi.offer(&posts[1]).delivered_to;
    let records: Vec<_> = posts
        .iter()
        .map(|p| p.to_record(config().simhash))
        .collect();
    let want = oracle::mspsd_churn(&records, &follows, &[(1, op)], &config().thresholds, graph);
    (got, want[1].clone())
}

/// Regression: a user who follows an author a live component already
/// served must not be covered by posts they never received. Authors 0 and
/// 1 are unrelated; user 0 follows {0}, user 1 follows {1}. Post 1 by
/// author 0 reaches user 0 only; user 1 then follows author 0, and a
/// near-duplicate by author 0 is new to user 1. The component engine joined
/// user 1 to user 0's live component {0} and delivered it to nobody.
#[test]
fn new_follower_is_not_covered_by_posts_it_never_received() {
    let graph = UndirectedGraph::from_edges(2, []);
    let (got, want) = around_one_op(
        &graph,
        vec![vec![0], vec![1]],
        &near_duplicates(0, 0),
        ChurnOp::Subscribe(1, 0),
    );
    assert_eq!(want, [1], "the per-user oracle");
    assert_eq!(got, want);
}

/// Regression: unfollowing an author keeps what the user was shown from
/// them as coverage. Authors 0 and 1 are similar; user 0 follows both.
/// Post 1 by author 0 reaches user 0, who then unfollows author 0; a
/// near-duplicate by author 1 is covered by post 1. The component engine
/// split user 0 onto a fresh component {1} and delivered it again.
#[test]
fn unsubscribe_keeps_the_users_history() {
    let graph = UndirectedGraph::from_edges(2, [(0, 1)]);
    let (got, want) = around_one_op(
        &graph,
        vec![vec![0, 1]],
        &near_duplicates(0, 1),
        ChurnOp::Unsubscribe(0, 0),
    );
    assert!(want.is_empty(), "the per-user oracle: {want:?}");
    assert_eq!(got, want);
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
    /// decision and ledger-identical to an uninterrupted run, and both are
    /// the per-user oracle's streams.
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
        let want = oracle_streams(&stream, &trace);
        for (d, w) in expected.iter().zip(&want) {
            prop_assert_eq!(&d.delivered_to, w, "diverged from the oracle");
        }
        prop_assert_eq!(
            multi.churn_stats(),
            reference.churn_stats(),
            "churn ledger diverged"
        );
        prop_assert_eq!(multi.subscriptions(), reference.subscriptions());
    }
}
