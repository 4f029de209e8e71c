//! News RSS reader: a dense author-similarity graph (Table 4's UniBin case).
//!
//! ```sh
//! cargo run --example news_reader
//! ```
//!
//! News agencies cluster by editorial line — "generally, news agents form
//! clusters (e.g., by their political views) such that in each cluster the
//! news agents are similar to each other from a user's perspective". A wire
//! story syndicated across one cluster should surface once; the same story
//! from a different cluster is a genuinely different perspective and stays.

use std::sync::Arc;

use firehose::prelude::*;
use firehose_reference::{recommend, AdvisorInputs, ThroughputClass};

fn main() {
    // Two dense clusters of outlets: {0,1,2} and {3,4}.
    let outlets = [
        "WireOne",
        "MetroDaily",
        "CityHerald",
        "TheContrarian",
        "DailySkeptic",
    ];
    let graph = Arc::new(UndirectedGraph::from_edges(
        5,
        [(0, 1), (0, 2), (1, 2), (3, 4)],
    ));

    // A reader aggregating feeds tolerates large λa (dense G) and reads in
    // batches: λt = 2h.
    let thresholds = Thresholds::new(18, minutes(120), 0.8).expect("valid");
    let choice = recommend(AdvisorInputs {
        lambda_t: thresholds.lambda_t,
        lambda_a: thresholds.lambda_a,
        throughput: ThroughputClass::High,
        ram_critical: false,
    });
    println!("advisor: dense similarity graph -> {choice}\n");

    let mut engine = UniBin::new(EngineConfig::new(thresholds), graph);

    let wire = "Central bank holds rates steady, signals patience on inflation path";
    let feed = [
        Post::new(1, 0, minutes(0), format!("{wire} http://t.co/wire0001")),
        // Syndicated copies inside the same cluster: pruned.
        Post::new(2, 1, minutes(7), format!("{wire} http://t.co/wire0002")),
        Post::new(
            3,
            2,
            minutes(12),
            format!("{wire} - full analysis inside http://t.co/wire0003"),
        ),
        // The other cluster runs the same wire text: different viewpoint, kept.
        Post::new(4, 3, minutes(15), format!("{wire} http://t.co/wire0004")),
        Post::new(5, 4, minutes(21), format!("{wire} http://t.co/wire0005")),
        // Fresh story.
        Post::new(
            6,
            1,
            minutes(30),
            "Port authority approves expansion of the eastern container terminal".into(),
        ),
    ];

    for post in &feed {
        let verdict = engine.offer(post);
        let min = post.timestamp / minutes(1);
        match verdict.covered_by() {
            None => println!(
                "t+{min:>3}m  {:<13} SHOW   {}",
                outlets[post.author as usize], post.text
            ),
            Some(by) => println!(
                "t+{min:>3}m  {:<13} prune  (syndicated copy of post {by})",
                outlets[post.author as usize]
            ),
        }
    }

    let m = engine.metrics();
    println!("\n{} of {} items shown", m.posts_emitted, m.posts_processed);
    assert_eq!(
        m.posts_emitted, 3,
        "one copy per cluster plus the fresh story"
    );
}
