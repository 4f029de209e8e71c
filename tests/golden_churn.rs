//! Golden per-user streams under churn.
//!
//! `tests/fixtures/golden_s_unibin_churn.tsv` holds every post's
//! `delivered_to` list as produced by the per-component `S_UniBin` engines
//! (one `CompactEngine` per distinct component) on a seeded datagen stream
//! with a seeded churn trace interleaved. On these inputs those engines
//! delivered exactly what the per-user churn oracle
//! (`firehose_reference::oracle::mspsd_churn`) delivers, so the file pins
//! both: the user-labelled engine must reproduce it byte for byte, for
//! every algorithm kind, and the oracle must agree with it line for line.
//!
//! The fixture is frozen: it was captured from the per-component
//! implementation and must not be regenerated with current code. Its
//! header carries that run's final churn ledger, of which the four op
//! counts must match; the component counters it also records no longer
//! exist.

use std::fmt::Write as _;
use std::path::PathBuf;

use firehose::core::engine::AlgorithmKind;
use firehose::core::multi::{ChurnStats, MultiDecision, SharedMulti, Subscriptions, UserId};
use firehose::core::{ChurnOp, EngineConfig};
use firehose::datagen::{
    generate_churn_trace, generate_subscriptions, ChurnEvent, ChurnGenConfig, ChurnTraceEntry,
    SocialGenConfig, SubscriptionGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig,
};
use firehose::graph::{build_similarity_graph, UndirectedGraph};
use firehose::stream::{hours, AuthorId, Post};
use firehose_reference::oracle;

const FIXTURE: &str = "golden_s_unibin_churn.tsv";

/// The frozen inputs: a test-scale social graph (240 authors), 12 h of
/// posts with viral bursts, 80 users and 150 churn ops.
struct Inputs {
    graph: UndirectedGraph,
    sets: Vec<Vec<AuthorId>>,
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
        subscriptions: Subscriptions::new(authors, sets.clone()).expect("valid subscriptions"),
        sets,
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

/// The fixture body: one `id<TAB>users` line per post (`-` for nobody).
fn body(posts: &[Post], delivered: &[Vec<UserId>]) -> String {
    let mut body = String::new();
    for (post, users) in posts.iter().zip(delivered) {
        let users: Vec<String> = users.iter().map(|u| u.to_string()).collect();
        let users = if users.is_empty() {
            "-".to_string()
        } else {
            users.join(",")
        };
        writeln!(body, "{}\t{users}", post.id).unwrap();
    }
    body
}

/// Replay the stream with the trace interleaved at its recorded positions
/// and render the fixture body, plus the final churn ledger.
fn render(kind: AlgorithmKind, inputs: &Inputs) -> (String, ChurnStats) {
    let mut multi = SharedMulti::new(
        kind,
        EngineConfig::paper_defaults(),
        &inputs.graph,
        inputs.subscriptions.clone(),
    );
    let mut delivered = Vec::with_capacity(inputs.posts.len());
    let mut decision = MultiDecision::default();
    let mut next = 0;
    for (i, post) in inputs.posts.iter().enumerate() {
        while next < inputs.trace.len() && inputs.trace[next].after_posts <= i as u64 {
            apply(&mut multi, &inputs.trace[next].event);
            next += 1;
        }
        multi.offer_into(post, &mut decision);
        delivered.push(std::mem::take(&mut decision.delivered_to));
    }
    for entry in &inputs.trace[next..] {
        apply(&mut multi, &entry.event);
    }
    let body = body(&inputs.posts, &delivered);
    (body, multi.churn_stats())
}

/// The fixture body as the per-user churn oracle delivers it.
fn render_oracle(inputs: &Inputs) -> String {
    let config = EngineConfig::paper_defaults();
    let records: Vec<_> = inputs
        .posts
        .iter()
        .map(|p| p.to_record(config.simhash))
        .collect();
    let ops: Vec<(usize, ChurnOp)> = inputs
        .trace
        .iter()
        .map(|e| (e.after_posts as usize, e.event.to_string().parse().unwrap()))
        .collect();
    let delivered = oracle::mspsd_churn(
        &records,
        &inputs.sets,
        &ops,
        &config.thresholds,
        &inputs.graph,
    );
    body(&inputs.posts, &delivered)
}

/// The four op counts, as the fixture header spells them.
fn op_counts(c: &ChurnStats) -> String {
    format!(
        "subscribes={} unsubscribes={} users_added={} users_removed={}",
        c.subscribes, c.unsubscribes, c.users_added, c.users_removed
    )
}

/// The first line where `got` and `want` differ, 1-based in the fixture
/// (after its header), with both lines.
fn first_difference(got: &str, want: &str) -> String {
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(got.lines().count().min(want.lines().count()));
    format!(
        "line {}: got {:?}, want {:?}",
        line + 2,
        got.lines().nth(line),
        want.lines().nth(line)
    )
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
    let oracle_body = render_oracle(&inputs);
    assert!(
        oracle_body == want_body,
        "the per-user oracle diverged from the fixture at {}",
        first_difference(&oracle_body, want_body)
    );
    for kind in AlgorithmKind::ALL {
        let (body, churn) = render(kind, &inputs);
        assert!(
            want_header.starts_with(&format!("# {} ", op_counts(&churn))),
            "{kind}: churn op counts drifted: {} against {want_header}",
            op_counts(&churn)
        );
        assert!(
            body == want_body,
            "{kind}: stream diverged from the fixture at {}",
            first_difference(&body, want_body)
        );
    }
}
