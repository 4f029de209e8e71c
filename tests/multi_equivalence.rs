//! M-SPSD correctness: the per-user (`M_*`) and shared-component (`S_*`)
//! strategies must deliver identical per-user streams for every algorithm
//! kind — and each user's stream must equal the brute-force M-SPSD oracle's
//! stream for that user's subscriptions.

use firehose::prelude::*;
use firehose_reference::{oracle, IndependentMulti};
use proptest::prelude::*;

fn posts_strategy(m: u32) -> impl Strategy<Value = Vec<Post>> {
    proptest::collection::vec(
        (
            0..m,
            0u64..300,
            proptest::sample::select(vec![
                "alpha beta gamma delta epsilon zeta",
                "alpha beta gamma delta epsilon eta",
                "one two three four five six seven",
                "completely different content right here now",
            ]),
        ),
        0..60,
    )
    .prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .enumerate()
            .map(|(i, (author, gap, text))| {
                ts += gap;
                Post::new(i as u64, author, ts, text.to_string())
            })
            .collect()
    })
}

fn graph_strategy(m: u32) -> impl Strategy<Value = UndirectedGraph> {
    proptest::collection::vec((0..m, 0..m), 0..30)
        .prop_map(move |edges| UndirectedGraph::from_edges(m as usize, edges))
}

fn subscriptions_strategy(m: u32, users: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::vec(0..m, 1..(m as usize).min(9)),
        1..users,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// M and S agree for every algorithm kind.
    #[test]
    fn strategies_agree(
        posts in posts_strategy(8),
        graph in graph_strategy(8),
        sets in subscriptions_strategy(8, 7),
        lambda_t in 1u64..800,
    ) {
        let config = EngineConfig::new(Thresholds::new(18, lambda_t, 0.7).unwrap());
        let subs = Subscriptions::new(8, sets).unwrap();
        for kind in AlgorithmKind::ALL {
            let mut independent = IndependentMulti::new(kind, config, &graph, subs.clone());
            let mut shared = SharedMulti::new(kind, config, &graph, subs.clone());

            let m_out: Vec<_> = posts.iter().map(|p| independent.offer(p)).collect();
            let s_out: Vec<_> = posts.iter().map(|p| shared.offer(p)).collect();
            prop_assert_eq!(&m_out, &s_out, "M vs S diverged for {}", kind);
        }
    }

    /// Each user's multi-engine stream equals the M-SPSD oracle's stream
    /// over the user's subscriptions.
    #[test]
    fn per_user_streams_match_dedicated_engines(
        posts in posts_strategy(8),
        graph in graph_strategy(8),
        sets in subscriptions_strategy(8, 5),
    ) {
        let config = EngineConfig::paper_defaults();
        let subs = Subscriptions::new(8, sets).unwrap();
        let mut shared =
            SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs.clone());
        let deliveries: Vec<_> = posts.iter().map(|p| shared.offer(p)).collect();

        let records: Vec<_> = posts.iter().map(|p| p.to_record(config.simhash)).collect();
        let users: Vec<u32> = (0..subs.user_count() as u32).collect();
        let follows: Vec<Vec<u32>> = users.iter().map(|&u| subs.authors_of(u).to_vec()).collect();
        let streams = oracle::mspsd(&records, &follows, &users, &config.thresholds, &graph);
        for (u, expected) in users.into_iter().zip(streams) {
            let got: Vec<u64> = posts
                .iter()
                .zip(&deliveries)
                .filter(|(_, d)| d.delivered_to.contains(&u))
                .map(|(p, _)| p.id)
                .collect();
            prop_assert_eq!(got, expected, "user {} stream diverged", u);
        }
    }

    /// Users subscribed to nothing relevant receive nothing; delivery lists
    /// only ever contain subscribers.
    #[test]
    fn deliveries_respect_subscriptions(
        posts in posts_strategy(8),
        graph in graph_strategy(8),
        sets in subscriptions_strategy(8, 6),
    ) {
        let config = EngineConfig::paper_defaults();
        let subs = Subscriptions::new(8, sets).unwrap();
        let mut shared =
            SharedMulti::new(AlgorithmKind::CliqueBin, config, &graph, subs.clone());
        for post in &posts {
            let d = shared.offer(post);
            for &u in &d.delivered_to {
                prop_assert!(
                    subs.is_subscribed(u, post.author),
                    "user {} got a post from unsubscribed author {}",
                    u,
                    post.author
                );
            }
        }
    }
}
