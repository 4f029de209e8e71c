//! M-SPSD: diversifying streams for many users centrally.
//!
//! ```sh
//! cargo run --release --example multi_user
//! ```
//!
//! Builds a synthetic service with hundreds of users, compares the paper's
//! per-user reference (`M_UniBin`) with the engine the service runs (named
//! `S_UniBin` after Section 5's component sharing: one window for every
//! distinct connected component, each post labelled with the components
//! that emitted it), asserting along the way that both deliver identical
//! per-user streams.

use std::time::Instant;

use firehose::datagen::{
    generate_subscriptions, SocialGenConfig, SubscriptionGenConfig, SyntheticSocialGraph, Workload,
    WorkloadConfig,
};
use firehose::graph::build_similarity_graph;
use firehose::prelude::*;

fn main() {
    let social = SyntheticSocialGraph::generate(SocialGenConfig::test_scale().with_authors(600));
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            duration: hours(12),
            ..Default::default()
        },
    );
    let graph = build_similarity_graph(&social.graph, 0.7);

    let users = 400;
    let sets = generate_subscriptions(
        social.author_count(),
        users,
        SubscriptionGenConfig {
            median: 6.0,
            mean: 18.0,
            ..Default::default()
        },
    );
    let subs = Subscriptions::new(social.author_count(), sets).expect("valid");
    println!(
        "{} users over {} authors (mean {:.1} subscriptions), {} posts",
        subs.user_count(),
        subs.author_count(),
        subs.mean_subscriptions(),
        workload.len()
    );

    let config = EngineConfig::new(Thresholds::paper_defaults());

    // Reference: one engine per user.
    let mut independent =
        IndependentMulti::new(AlgorithmKind::UniBin, config, &graph, subs.clone());
    let t0 = Instant::now();
    let m_out: Vec<_> = workload
        .posts
        .iter()
        .map(|p| independent.offer(p))
        .collect();
    let m_time = t0.elapsed();

    // The service engine: one labelled window for every distinct component.
    let mut shared = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs.clone());
    let t0 = Instant::now();
    let s_out: Vec<_> = workload.posts.iter().map(|p| shared.offer(p)).collect();
    let s_time = t0.elapsed();
    assert_eq!(
        m_out, s_out,
        "shared components must not change any user's stream"
    );

    println!("\nboth delivered identical per-user streams\n");
    println!(
        "{:<28} {:>10} {:>14} {:>14}",
        "strategy", "time", "comparisons", "engines/labels"
    );
    println!(
        "{:<28} {:>10.1?} {:>14} {:>14}",
        independent.name(),
        m_time,
        independent.metrics().comparisons,
        subs.user_count()
    );
    println!(
        "{:<28} {:>10.1?} {:>14} {:>14}",
        shared.name(),
        s_time,
        shared.metrics().comparisons,
        shared.component_count()
    );

    let delivered: usize = s_out.iter().map(|d| d.delivered_to.len()).sum();
    let offered: usize = workload
        .posts
        .iter()
        .map(|p| subs.subscribers_of(p.author).len())
        .sum();
    println!(
        "\n{delivered} deliveries out of {offered} subscribed arrivals ({:.1}% pruned)",
        (1.0 - delivered as f64 / offered as f64) * 100.0
    );
}
