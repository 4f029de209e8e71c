//! Ablation A6: SPSD coverage semantics vs the sliding-window MaxMin top-k
//! baseline (Related Work \[7\]).
//!
//! The paper's motivation for strict coverage semantics: *"we define strict
//! coverage constraints to guarantee that not even one uncovered post is
//! missed"*, which top-k diversification cannot promise. We run both over
//! the same stream and measure:
//!
//! * **lost posts** — posts that are neither delivered nor covered (under
//!   the paper's three-dimensional coverage test) by anything delivered in
//!   their λt window. SPSD guarantees zero; MaxMin loses whatever doesn't
//!   fit its k slots.
//! * output sizes and pairwise-comparison costs.

use std::sync::Arc;

use firehose_bench::{f1, Dataset, Report, Scale};
use firehose_core::engine::{AlgorithmKind, Diversifier, UniBin};
use firehose_core::evaluate;
use firehose_core::{EngineConfig, Thresholds};
use firehose_reference::MaxMinDiversifier;
use firehose_simhash::SimHashOptions;
use firehose_stream::PostRecord;

fn main() {
    let data = Dataset::generate(Scale::from_env());
    let graph = data.similarity_graph(0.7);
    let thresholds = Thresholds::paper_defaults();
    let records: Vec<PostRecord> = data
        .workload
        .posts
        .iter()
        .map(|p| p.to_record(SimHashOptions::paper()))
        .collect();

    let mut r = Report::new(
        "ablation_maxmin_baseline",
        &[
            "system",
            "delivered",
            "delivered_pct",
            "lost_posts",
            "lost_pct",
            "comparisons",
        ],
    );
    let total = records.len() as f64;

    // SPSD (UniBin — all engines emit the same stream).
    let mut engine = UniBin::new(EngineConfig::new(thresholds), Arc::clone(&graph));
    let spsd_delivered: Vec<bool> = records
        .iter()
        .map(|&rec| engine.offer_record(rec).is_emitted())
        .collect();
    let spsd_quality = evaluate(&records, &spsd_delivered, &thresholds, &graph);
    let spsd_lost = spsd_quality.coverage_violations;
    let spsd_count = spsd_quality.delivered;
    assert!(spsd_quality.is_valid_diversification(), "{spsd_quality:?}");
    r.row(&[
        format!("SPSD ({})", AlgorithmKind::UniBin),
        spsd_count.to_string(),
        f1(spsd_count as f64 / total * 100.0),
        spsd_lost.to_string(),
        f1(spsd_lost as f64 / total * 100.0),
        engine.metrics().comparisons.to_string(),
    ]);
    assert_eq!(spsd_lost, 0, "SPSD must never lose a post");

    // MaxMin top-k at several k (delivered = entered the representative set
    // at arrival — its real-time push analogue).
    for k in [32usize, 128, 512, 2048] {
        let mut baseline = MaxMinDiversifier::new(k, thresholds.lambda_t);
        let delivered: Vec<bool> = records.iter().map(|&rec| baseline.observe(rec)).collect();
        let q = evaluate(&records, &delivered, &thresholds, &graph);
        let (lost, count) = (q.coverage_violations, q.delivered);
        eprintln!("[a6] maxmin k={k}: delivered {count}, lost {lost}");
        r.row(&[
            format!("MaxMin k={k}"),
            count.to_string(),
            f1(count as f64 / total * 100.0),
            lost.to_string(),
            f1(lost as f64 / total * 100.0),
            baseline.comparisons().to_string(),
        ]);
    }
    r.finish();
    println!("paper claim verified: coverage semantics lose nothing; top-k diversification silently drops uncovered posts");
}
