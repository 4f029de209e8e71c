//! Ablation A2: SimHash vs exact TF-cosine as the engine's content measure.
//!
//! Section 3 chooses SimHash over cosine purely for speed, reporting
//! equivalent detection quality (both achieve P≈0.96/R≈0.95 against the user
//! study). We measure (a) the per-comparison cost gap on this machine, and
//! (b) decision agreement between a Hamming-18 UniBin and a cosine-0.7
//! UniBin over the same stream.

use std::sync::Arc;
use std::time::Instant;

use firehose_bench::{f1, f3, Dataset, Report, Scale};
use firehose_core::coverage::authors_similar;
use firehose_core::Thresholds;
use firehose_graph::UndirectedGraph;
use firehose_simhash::{simhash, within_distance, SimHashOptions};
use firehose_stream::TimeWindowBin;
use firehose_text::TfVector;
use firehose_text::{normalize, NormalizeOptions};

/// A UniBin variant using exact TF-cosine over normalized text as the
/// content test (the "slow but accurate" baseline).
fn run_cosine_unibin(
    thresholds: &Thresholds,
    min_cosine: f64,
    graph: &UndirectedGraph,
    posts: &[firehose_stream::Post],
) -> (Vec<bool>, f64, u64) {
    let mut bin = TimeWindowBin::new();
    let mut vectors: Vec<TfVector> = Vec::new(); // indexed by bin record id
    let mut decisions = Vec::with_capacity(posts.len());
    let mut comparisons = 0u64;
    let t0 = Instant::now();
    for post in posts {
        let vector = TfVector::from_text(&normalize(&post.text, NormalizeOptions::paper()));
        bin.evict_expired(post.timestamp, thresholds.lambda_t);
        let mut covered = false;
        for stored in bin.iter_window(post.timestamp, thresholds.lambda_t) {
            comparisons += 1;
            if authors_similar(graph, stored.author, post.author)
                && vectors[stored.id as usize].cosine(&vector) >= min_cosine
            {
                covered = true;
                break;
            }
        }
        if !covered {
            // Store the vector under a dense id and reference it from the bin.
            let vid = vectors.len() as u64;
            vectors.push(vector);
            bin.push(firehose_stream::PostRecord {
                id: vid,
                author: post.author,
                timestamp: post.timestamp,
                fingerprint: 0,
            });
        }
        decisions.push(!covered);
    }
    (decisions, t0.elapsed().as_secs_f64() * 1_000.0, comparisons)
}

fn main() {
    let scale = Scale::from_env();
    let data = Dataset::generate(scale);
    let graph = data.similarity_graph(0.7);
    let thresholds = Thresholds::paper_defaults();
    // Cosine is orders of magnitude slower per comparison; cap the stream.
    let cap = match scale {
        Scale::Test => data.workload.len(),
        Scale::Bench => 20_000,
        Scale::Paper => 40_000,
    };
    let posts = &data.workload.posts[..data.workload.len().min(cap)];

    // SimHash engine.
    let simhash_stats = firehose_bench::run_spsd(
        firehose_core::AlgorithmKind::UniBin,
        thresholds,
        Arc::clone(&graph),
        posts,
    );
    let mut simhash_engine = firehose_core::engine::UniBin::new(
        firehose_core::EngineConfig::new(thresholds),
        Arc::clone(&graph),
    );
    let simhash_decisions: Vec<bool> = posts
        .iter()
        .map(|p| firehose_core::engine::Diversifier::offer(&mut simhash_engine, p).is_emitted())
        .collect();

    // Cosine engine.
    let (cosine_decisions, cosine_ms, cosine_comparisons) =
        run_cosine_unibin(&thresholds, 0.7, &graph, posts);

    let agree = simhash_decisions
        .iter()
        .zip(&cosine_decisions)
        .filter(|(a, b)| a == b)
        .count();

    // Microbenchmark the primitive comparisons.
    let fp_a = simhash(&posts[0].text, SimHashOptions::paper());
    let fp_b = simhash(&posts[1].text, SimHashOptions::paper());
    let va = TfVector::from_text(&posts[0].text);
    let vb = TfVector::from_text(&posts[1].text);
    let reps = 3_000_000u64;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..reps {
        acc += u64::from(within_distance(fp_a.wrapping_add(i), fp_b, 18));
    }
    let hamming_ns = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;
    let reps2 = 300_000u64;
    let t0 = Instant::now();
    let mut acc2 = 0.0f64;
    for _ in 0..reps2 {
        acc2 += va.cosine(&vb);
    }
    let cosine_ns = t0.elapsed().as_secs_f64() * 1e9 / reps2 as f64;
    std::hint::black_box((acc, acc2));

    let mut r = Report::new(
        "ablation_simhash_vs_cosine",
        &["measure", "simhash", "cosine", "ratio"],
    );
    r.row(&[
        "stream ingest (ms)".into(),
        f1(simhash_stats.elapsed_ms),
        f1(cosine_ms),
        f1(cosine_ms / simhash_stats.elapsed_ms.max(1e-9)),
    ]);
    r.row(&[
        "comparisons".into(),
        simhash_stats.metrics.comparisons.to_string(),
        cosine_comparisons.to_string(),
        "-".into(),
    ]);
    r.row(&[
        "ns per content test".into(),
        f1(hamming_ns),
        f1(cosine_ns),
        f1(cosine_ns / hamming_ns.max(1e-12)),
    ]);
    r.row(&[
        "decision agreement".into(),
        f3(agree as f64 / posts.len() as f64),
        "1.000".into(),
        "-".into(),
    ]);
    r.finish();
}
