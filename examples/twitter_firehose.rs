//! The headline scenario: a Twitter-scale synthetic day through all three
//! SPSD engines.
//!
//! ```sh
//! cargo run --release --example twitter_firehose
//! ```
//!
//! Generates a community-structured follower graph and a day of posts with
//! injected near-duplicates (see `firehose-datagen`), precomputes the author
//! similarity graph offline (as the paper prescribes), then compares
//! UniBin / NeighborBin / CliqueBin on the same stream and asks the advisor
//! which engine fits this workload.

use std::sync::Arc;
use std::time::Instant;

use firehose::datagen::{SocialGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig};
use firehose::graph::build_similarity_graph;
use firehose::prelude::*;
use firehose_reference::{recommend, AdvisorInputs, ThroughputClass};

fn main() {
    // A scaled-down firehose so the example finishes in seconds; bump
    // `authors` (and run --release) for the full-size experience.
    let social = SyntheticSocialGraph::generate(SocialGenConfig::bench_scale().with_authors(2_000));
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            duration: hours(8),
            ..WorkloadConfig::default()
        },
    );
    println!(
        "generated {} posts from {} authors ({:.1}% near-duplicates injected)",
        workload.len(),
        social.author_count(),
        workload.duplicate_fraction() * 100.0
    );

    // Offline step (the paper recomputes this "once every week").
    let t0 = Instant::now();
    let graph = Arc::new(build_similarity_graph(&social.graph, 0.7));
    println!(
        "author similarity graph: {} edges, avg {:.1} similar authors each ({:.1?})\n",
        graph.edge_count(),
        graph.average_degree(),
        t0.elapsed()
    );

    let thresholds = Thresholds::paper_defaults();
    println!(
        "{:<13} {:>9} {:>12} {:>14} {:>12} {:>8}",
        "engine", "time", "peak RAM", "comparisons", "insertions", "shown"
    );
    for kind in AlgorithmKind::ALL {
        let mut engine = build_engine(kind, EngineConfig::new(thresholds), Arc::clone(&graph));
        let t0 = Instant::now();
        for post in &workload.posts {
            engine.offer(post);
        }
        let elapsed = t0.elapsed();
        let m = engine.metrics();
        println!(
            "{:<13} {:>9.1?} {:>9} KiB {:>14} {:>12} {:>7.1}%",
            kind.to_string(),
            elapsed,
            m.peak_memory_bytes / 1024,
            m.comparisons,
            m.insertions,
            m.emit_ratio() * 100.0
        );
    }

    let choice = recommend(AdvisorInputs {
        lambda_t: thresholds.lambda_t,
        lambda_a: thresholds.lambda_a,
        throughput: ThroughputClass::High,
        ram_critical: false,
    });
    println!("\nadvisor (Table 4): for a Twitter-like workload use {choice}");
}
