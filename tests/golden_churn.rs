//! Golden per-user streams under churn.
//!
//! `tests/fixtures/golden_s_unibin_churn.tsv` holds every post's
//! `delivered_to` list as produced by the per-component `S_UniBin` engines
//! (one `CompactEngine` per distinct component) on a seeded datagen stream
//! with a seeded churn trace interleaved, warm starts on. The trace spawns,
//! retires and recycles component slots. The shared engine now runs one
//! labelled window instead, and must reproduce that file byte for byte, for
//! every algorithm kind.
//!
//! The fixture is frozen: it was captured from the per-component
//! implementation and must not be regenerated with current code. Its
//! header carries that run's final churn ledger; everything except
//! `warm_starts` must match (see `DESIGN.md` §9 for the warm-start counting
//! rule).

use std::fmt::Write as _;
use std::path::PathBuf;

use firehose::core::engine::AlgorithmKind;
use firehose::core::multi::{ChurnStats, MultiDecision, SharedMulti, Subscriptions};
use firehose::core::EngineConfig;
use firehose::datagen::{
    generate_churn_trace, generate_subscriptions, ChurnEvent, ChurnGenConfig, ChurnTraceEntry,
    SocialGenConfig, SubscriptionGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig,
};
use firehose::graph::{build_similarity_graph, UndirectedGraph};
use firehose::stream::{hours, AuthorId, Post};

const FIXTURE: &str = "golden_s_unibin_churn.tsv";

/// The frozen inputs: a test-scale social graph (240 authors), 12 h of
/// posts with viral bursts, 80 users and 150 churn ops.
struct Inputs {
    graph: UndirectedGraph,
    subscriptions: Subscriptions,
    posts: Vec<Post>,
    trace: Vec<ChurnTraceEntry>,
}

fn inputs() -> Inputs {
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale());
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            duration: hours(12),
            events: 4,
            ..WorkloadConfig::default()
        },
    );
    let graph = build_similarity_graph(&social.graph, 0.7);
    let authors = social.author_count();
    let sets = generate_subscriptions(
        authors,
        80,
        SubscriptionGenConfig {
            median: 4.0,
            mean: 8.0,
            ..SubscriptionGenConfig::default()
        },
    );
    let trace = generate_churn_trace(
        authors,
        &sets,
        workload.posts.len() as u64,
        ChurnGenConfig {
            seed: 0x601D,
            ops: 150,
            ..ChurnGenConfig::default()
        },
    );
    Inputs {
        subscriptions: Subscriptions::new(authors, sets).expect("valid subscriptions"),
        graph,
        posts: workload.posts,
        trace,
    }
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
            multi.add_user(authors as &[AuthorId]).unwrap();
        }
        ChurnEvent::RemoveUser(u) => {
            multi.remove_user(*u as u32).unwrap();
        }
    }
}

/// Replay the stream with the trace interleaved at its recorded positions
/// and render the fixture: a churn-ledger header, then one
/// `id<TAB>users` line per post (`-` for nobody).
fn render(kind: AlgorithmKind, inputs: &Inputs) -> (String, ChurnStats) {
    let mut multi = SharedMulti::new(
        kind,
        EngineConfig::paper_defaults(),
        &inputs.graph,
        inputs.subscriptions.clone(),
    );
    let mut body = String::new();
    let mut decision = MultiDecision::default();
    let mut next = 0;
    for (i, post) in inputs.posts.iter().enumerate() {
        while next < inputs.trace.len() && inputs.trace[next].after_posts <= i as u64 {
            apply(&mut multi, &inputs.trace[next].event);
            next += 1;
        }
        multi.offer_into(post, &mut decision);
        let users: Vec<String> = decision
            .delivered_to
            .iter()
            .map(|u| u.to_string())
            .collect();
        let users = if users.is_empty() {
            "-".to_string()
        } else {
            users.join(",")
        };
        writeln!(body, "{}\t{users}", post.id).unwrap();
    }
    for entry in &inputs.trace[next..] {
        apply(&mut multi, &entry.event);
    }
    (body, multi.churn_stats())
}

fn header(c: &ChurnStats) -> String {
    format!(
        "# subscribes={} unsubscribes={} users_added={} users_removed={} \
         engines_spawned={} engines_retired={} warm_starts={} initial_engines={}\n",
        c.subscribes,
        c.unsubscribes,
        c.users_added,
        c.users_removed,
        c.engines_spawned,
        c.engines_retired,
        c.warm_starts,
        c.initial_engines
    )
}

/// The header with `warm_starts` dropped: the one ledger field allowed to
/// differ from the per-component run.
fn without_warm_starts(header: &str) -> String {
    header
        .split_whitespace()
        .filter(|field| !field.starts_with("warm_starts="))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn labelled_engine_reproduces_per_component_streams() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE);
    let fixture = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let (want_header, want_body) = fixture.split_once('\n').expect("header line");
    let inputs = inputs();
    for kind in AlgorithmKind::ALL {
        let (body, churn) = render(kind, &inputs);
        assert!(
            churn.engines_spawned > 0 && churn.engines_retired > 0 && churn.warm_starts > 0,
            "{kind}: the trace must spawn, retire and warm-start engines: {churn:?}"
        );
        assert_eq!(
            without_warm_starts(header(&churn).trim_end()),
            without_warm_starts(want_header),
            "{kind}: churn ledger drifted"
        );
        if body != want_body {
            let line = body
                .lines()
                .zip(want_body.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(body.lines().count().min(want_body.lines().count()));
            panic!(
                "{kind}: stream diverged from the per-component fixture at line {}: got {:?}, want {:?}",
                line + 2,
                body.lines().nth(line),
                want_body.lines().nth(line)
            );
        }
    }
}
