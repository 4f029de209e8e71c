//! Google-Scholar-style publication feed: low throughput, long windows
//! (Table 4's other UniBin case).
//!
//! ```sh
//! cargo run --example scholar_feed
//! ```
//!
//! Posts are new-paper alerts; authors are research groups connected by
//! co-authorship overlap. Throughput is a few items per day, and a reader
//! doesn't want two versions of the same preprint within a month.

use std::sync::Arc;

use firehose::prelude::*;
use firehose::stream::days;
use firehose_reference::{recommend, AdvisorInputs, ThroughputClass};

fn main() {
    // Research groups: 0,1 share most co-authors; 2 is an unrelated lab.
    let groups = ["SystemsLab", "DB-Group", "BioStat"];
    let graph = Arc::new(UndirectedGraph::from_edges(3, [(0, 1)]));

    // λt = 30 days: a re-announced preprint within a month is noise.
    let thresholds = Thresholds::new(18, days(30), 0.7).expect("valid");
    let choice = recommend(AdvisorInputs {
        lambda_t: thresholds.lambda_t,
        lambda_a: thresholds.lambda_a,
        throughput: ThroughputClass::Low,
        ram_critical: false,
    });
    println!("advisor: low-throughput scholarly feed -> {choice}\n");
    let mut engine = UniBin::new(EngineConfig::new(thresholds), graph);

    let title = "Streaming diversification of social post feeds with coverage guarantees";
    let feed = [
        Post::new(1, 0, days(0), format!("New preprint: {title} http://t.co/arxiv001")),
        // The collaborating group announces the same paper two days later.
        Post::new(2, 1, days(2), format!("New preprint: {title} http://t.co/arxiv002")),
        // Camera-ready re-announcement three weeks later, same groups.
        Post::new(3, 0, days(23), format!("New preprint: {title} http://t.co/arxiv003")),
        // The unrelated lab publishes something else entirely.
        Post::new(4, 2, days(24), "New preprint: Bayesian hazard models for longitudinal cohort data http://t.co/arxiv004".into()),
        // Two months later the journal version appears: window expired, shown.
        Post::new(5, 1, days(70), format!("Journal version out: {title} http://t.co/arxiv005")),
    ];

    for post in &feed {
        let verdict = engine.offer(post);
        let day = post.timestamp / hours(24);
        match verdict.covered_by() {
            None => println!(
                "day {day:>2}  {:<11} SHOW   {}",
                groups[post.author as usize], post.text
            ),
            Some(by) => println!(
                "day {day:>2}  {:<11} prune  (same work as post {by})",
                groups[post.author as usize]
            ),
        }
    }

    let m = engine.metrics();
    println!(
        "\n{} of {} alerts shown",
        m.posts_emitted, m.posts_processed
    );
    assert_eq!(m.posts_emitted, 3);
}
