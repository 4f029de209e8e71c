//! Ablation A4 (extension beyond the paper): `S_*` on shard workers.
//!
//! Distinct connected components are independent, so the shared-component
//! engine parallelizes embarrassingly. We measure wall-clock scaling of
//! [`SharedMulti`]'s pipelined `offer_batch` on 1 to 8 shards (`Sh_UniBin(n)`)
//! against the inline `S_UniBin`, verifying output equality as we go.

use firehose_bench::{f1, Dataset, Report, Scale};
use firehose_core::engine::AlgorithmKind;
use firehose_core::multi::{MultiDiversifier, SharedMulti, Subscriptions};
use firehose_core::{EngineConfig, Thresholds};
use std::time::Instant;

fn main() {
    let data = Dataset::generate(Scale::from_env());
    let graph = data.similarity_graph(0.7);
    let config = EngineConfig::new(Thresholds::paper_defaults());

    let m = data.social.author_count();
    let ratio = m as f64 / 20_150.0;
    let sub_config = firehose_datagen::SubscriptionGenConfig {
        mean: (130.0 * ratio).max(6.0),
        median: (20.0 * ratio).max(3.0),
        ..Default::default()
    };
    let sets = firehose_datagen::generate_subscriptions(m, m, sub_config);
    let subs = Subscriptions::new(m, sets).expect("valid subscriptions");

    // Sequential baseline.
    eprintln!("[a4] sequential S_UniBin ...");
    let mut sequential = SharedMulti::new(AlgorithmKind::UniBin, config, &graph, subs.clone());
    let t0 = Instant::now();
    let expected: Vec<_> = data
        .workload
        .posts
        .iter()
        .map(|p| sequential.offer(p))
        .collect();
    let seq_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    let mut r = Report::new(
        "ablation_parallel_mspsd",
        &[
            "shards",
            "time_ms",
            "speedup_vs_sequential",
            "output_identical",
        ],
    );
    r.row(&["sequential".into(), f1(seq_ms), "1.0".into(), "-".into()]);

    let largest = sequential.largest_component_size();
    for shards in [1usize, 2, 4, 8] {
        eprintln!("[a4] {shards} shard(s) ...");
        let mut sharded = SharedMulti::builder(AlgorithmKind::UniBin, config, &graph, subs.clone())
            .shards(shards)
            .build()
            .expect("shard count is positive");
        let t0 = Instant::now();
        let got = sharded.offer_batch(&data.workload.posts);
        let par_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let identical = got == expected;
        r.row(&[
            shards.to_string(),
            f1(par_ms),
            f1(seq_ms / par_ms.max(1e-9)),
            identical.to_string(),
        ]);
        assert!(identical, "sharded output diverged at {shards} shards");
    }
    r.finish();
    println!(
        "parallelism ceiling: the largest single component holds {largest} authors and cannot be split across shards (its posts cover each other), so Amdahl's law bounds the speedup by that component's share of the work"
    );
}
