//! Recovery bench: checkpoint cost, restore latency, decisions preserved
//! (`BENCH_recovery.json`).
//!
//! Three measurements per engine over a generated stream:
//!
//! 1. **Checkpoint overhead** — whole-stream throughput with auto
//!    checkpointing at the default cadence versus an unchecked baseline.
//!    The acceptance bar is ≤ 5% overhead.
//! 2. **Checkpoint write cost** — wall-clock per full atomic checkpoint
//!    (serialize + CRC + fsync + rename) at end-of-stream state, and its
//!    size in bytes.
//! 3. **Crash + restore** — run ~65% of the stream with a tight checkpoint
//!    cadence, drop the engine ("kill -9"), `restore_latest_valid`, replay
//!    from the manifest's cursor, and **assert byte-identical decisions** on
//!    the remaining stream versus the uninterrupted baseline. Restore
//!    latency is reported.
//!
//! A fourth pass covers the sharded runtime: `Sh_*` at 1/2/4 shards runs a
//! prefix of the stream with tight multi-checkpointing, crashes, restores
//! via `restore_latest_valid_multi` into a fresh strategy, replays the
//! tail, and asserts the decisions match an uninterrupted `S_*` run —
//! reporting multi-checkpoint write and restore latency per shard count.
//!
//! Flags: `--smoke` (tiny workload, CI), `--posts <n>`, `--out <path>`
//! (default `BENCH_recovery.json`).

use std::sync::Arc;
use std::time::Instant;

use firehose_bench::{flag_value, stream_rate, BenchSummary, EngineRow};
use firehose_core::checkpoint::{
    checkpoint_multi_to_vec, restore_latest_valid, restore_latest_valid_multi,
    run_with_checkpoints, CheckpointManager, CheckpointPolicy,
};
use firehose_core::engine::{build_engine, AlgorithmKind};
use firehose_core::multi::{MultiDiversifier, SharedMulti, Subscriptions};
use firehose_core::{Decision, EngineConfig, Thresholds};
use firehose_datagen::{
    generate_subscriptions, SocialGenConfig, SubscriptionGenConfig, SyntheticSocialGraph, Workload,
    WorkloadConfig,
};
use firehose_graph::build_similarity_graph_parallel;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fh-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let target_posts: usize = flag_value(&args, "--posts")
        .map(|v| v.parse().expect("--posts expects a count"))
        .unwrap_or(if smoke { 4_000 } else { 100_000 });

    let social_config = if smoke {
        SocialGenConfig::test_scale()
    } else {
        SocialGenConfig::bench_scale()
    };
    let social = SyntheticSocialGraph::generate(social_config);
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            posts_per_author_per_day: target_posts as f64 / social.author_count() as f64,
            ..WorkloadConfig::default()
        },
    );
    eprintln!(
        "[recovery] workload: {} posts from {} authors",
        workload.len(),
        social.author_count()
    );
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let graph = Arc::new(build_similarity_graph_parallel(&social.graph, 0.7, threads));
    let config = EngineConfig::builder(Thresholds::paper_defaults())
        .expected_rate(stream_rate(&workload.posts))
        .build();
    let posts = &workload.posts;

    let mut summary = BenchSummary::new(
        "recovery",
        if smoke { "smoke" } else { "bench" },
        posts.len() as u64,
    );

    let reps = if smoke { 5 } else { 3 };
    for kind in AlgorithmKind::ALL {
        // Passes 1+2 — unchecked baseline vs auto-checkpointing at the
        // default cadence, interleaved (baseline, checkpointed, baseline, …)
        // and best-of-N each, so scheduler/thermal drift hits both sides
        // equally instead of masquerading as checkpoint overhead.
        let dir = tempdir(&format!("overhead-{kind}"));
        let mut reference: Vec<Decision> = Vec::new();
        let mut baseline_s = f64::INFINITY;
        let mut ckpt_s = f64::INFINITY;
        let mut generations_written = 0;
        let mut engine = build_engine(kind, config, Arc::clone(&graph));
        for rep in 0..reps {
            let mut baseline = build_engine(kind, config, Arc::clone(&graph));
            let t0 = Instant::now();
            reference = posts.iter().map(|p| baseline.offer(p)).collect();
            baseline_s = baseline_s.min(t0.elapsed().as_secs_f64());

            let mut mgr = CheckpointManager::new(&dir, CheckpointPolicy::default())
                .expect("open checkpoint dir");
            if rep > 0 {
                engine = build_engine(kind, config, Arc::clone(&graph));
            }
            let t0 = Instant::now();
            let decisions =
                run_with_checkpoints(&mut engine, posts, &mut mgr).expect("checkpointed run");
            ckpt_s = ckpt_s.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                decisions, reference,
                "{kind}: checkpointing changed decisions"
            );
            generations_written = mgr.next_generation();
        }
        let baseline_ops = posts.len() as f64 / baseline_s.max(1e-9);
        let ckpt_ops = posts.len() as f64 / ckpt_s.max(1e-9);
        let overhead_pct = (baseline_s / ckpt_s.max(1e-9))
            .mul_add(-100.0, 100.0)
            .max(0.0);

        // Pass 3 — explicit checkpoint write cost at end-of-stream state.
        let bytes = firehose_core::checkpoint::checkpoint_engine_to_vec(&engine, 0)
            .expect("serialize checkpoint");
        let mut mgr =
            CheckpointManager::new(&dir, CheckpointPolicy::default()).expect("open checkpoint dir");
        let write_reps = if smoke { 3 } else { 10 };
        let t0 = Instant::now();
        for _ in 0..write_reps {
            mgr.save(&engine).expect("checkpoint save");
        }
        let write_ms = t0.elapsed().as_secs_f64() * 1_000.0 / write_reps as f64;
        let _ = std::fs::remove_dir_all(&dir);

        // Pass 4 — crash at ~65%, restore the latest valid generation, and
        // replay the tail from the manifest's cursor.
        let dir = tempdir(&format!("crash-{kind}"));
        let tight = CheckpointPolicy {
            every_offers: (posts.len() as u64 / 20).max(1),
            every_millis: None,
            keep: 3,
        };
        let mut mgr = CheckpointManager::new(&dir, tight).expect("open checkpoint dir");
        let crash_at = posts.len() * 13 / 20;
        let mut doomed = build_engine(kind, config, Arc::clone(&graph));
        run_with_checkpoints(&mut doomed, &posts[..crash_at], &mut mgr).expect("run to crash");
        drop(doomed); // the crash: all in-memory state is gone

        let t0 = Instant::now();
        let restored = restore_latest_valid(&dir, kind, Arc::clone(&graph), None).expect("restore");
        let restore_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let resumed_at = restored.manifest.posts_processed as usize;
        assert!(resumed_at <= crash_at, "cursor beyond the crash point");
        let mut engine = restored.engine;
        let replayed: Vec<Decision> = posts[resumed_at..]
            .iter()
            .map(|p| engine.offer(p))
            .collect();
        let preserved = replayed == reference[resumed_at..];
        assert!(
            preserved,
            "{kind}: decisions diverged after restore (resumed at {resumed_at})"
        );
        let _ = std::fs::remove_dir_all(&dir);

        eprintln!(
            "[recovery] {kind}: baseline {baseline_ops:.0} offers/s, checkpointed {ckpt_ops:.0} \
             offers/s ({overhead_pct:.2}% overhead, {generations_written} gens), write \
             {write_ms:.2} ms ({} bytes), restore {restore_ms:.2} ms, resumed at \
             {resumed_at}/{} — decisions preserved",
            bytes.len(),
            posts.len()
        );
        summary.push_engine(
            EngineRow::new(&kind.to_string(), ckpt_ops, 0, 0)
                .with_f64("baseline_offers_per_sec", baseline_ops)
                .with_f64("checkpoint_overhead_pct", overhead_pct)
                .with_u64("generations_written", generations_written)
                .with_u64("checkpoint_bytes", bytes.len() as u64)
                .with_f64("checkpoint_write_ms", write_ms)
                .with_f64("restore_ms", restore_ms)
                .with_u64("resumed_at", resumed_at as u64)
                .with_u64("decisions_preserved", u64::from(preserved)),
        );
    }

    // Pass 5 — the sharded runtime. `Sh_*` at 1/2/4 shards runs ~65% of a
    // stream prefix with periodic multi-checkpoints plus one explicit save
    // at the crash point, is dropped, restored into a fresh strategy via
    // `restore_latest_valid_multi`, and replays the tail — decisions must
    // match an uninterrupted `S_*` run of the same prefix.
    let users = if smoke { 40 } else { 400 };
    let multi_posts = posts.len().min(if smoke { 1_500 } else { 10_000 });
    let sets = generate_subscriptions(
        social.author_count(),
        users,
        SubscriptionGenConfig::default(),
    );
    let subscriptions = Subscriptions::new(social.author_count(), sets).unwrap();
    let stream = &posts[..multi_posts];
    let kind = AlgorithmKind::CliqueBin;
    let mut shared = SharedMulti::builder(kind, config, &graph, subscriptions.clone())
        .build()
        .expect("build S_* reference");
    let multi_reference: Vec<_> = stream.iter().map(|p| shared.offer(p)).collect();
    drop(shared);

    for shards in [1usize, 2, 4] {
        let dir = tempdir(&format!("multi-{shards}"));
        let tight = CheckpointPolicy {
            every_offers: (multi_posts as u64 / 20).max(1),
            every_millis: None,
            keep: 3,
        };
        let mut mgr = CheckpointManager::new(&dir, tight).expect("open checkpoint dir");
        let crash_at = multi_posts * 13 / 20;
        let on_shards = || {
            SharedMulti::builder(kind, config, &graph, subscriptions.clone())
                .shards(shards)
                .build()
                .expect("build Sh_*")
        };
        let mut doomed = on_shards();
        let t0 = Instant::now();
        for post in &stream[..crash_at] {
            doomed.offer(post);
            mgr.maybe_save_multi(&doomed).expect("periodic checkpoint");
        }
        let run_ops = crash_at as f64 / t0.elapsed().as_secs_f64().max(1e-9);

        let bytes = checkpoint_multi_to_vec(&doomed, 0).expect("serialize multi checkpoint");
        let write_reps = if smoke { 3 } else { 10 };
        let t0 = Instant::now();
        for _ in 0..write_reps {
            mgr.save_multi(&doomed).expect("multi checkpoint save");
        }
        let write_ms = t0.elapsed().as_secs_f64() * 1_000.0 / write_reps as f64;
        drop(doomed); // the crash: workers, rings and engines are all gone

        let mut fresh = on_shards();
        let t0 = Instant::now();
        let (manifest, skipped_gens) =
            restore_latest_valid_multi(&dir, &mut fresh).expect("restore multi");
        let restore_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        assert!(
            skipped_gens.is_empty(),
            "sharded:{shards}: restore skipped generations {skipped_gens:?}"
        );
        // The newest generation is the explicit save at the crash point, so
        // the tail replays from exactly `crash_at`.
        let replayed: Vec<_> = stream[crash_at..].iter().map(|p| fresh.offer(p)).collect();
        let preserved = replayed == multi_reference[crash_at..];
        assert!(
            preserved,
            "sharded:{shards}: decisions diverged after restore (generation {})",
            manifest.generation
        );
        let _ = std::fs::remove_dir_all(&dir);

        eprintln!(
            "[recovery] sharded:{shards}: {run_ops:.0} offers/s, write {write_ms:.2} ms \
             ({} bytes), restore {restore_ms:.2} ms, replayed {} posts — decisions preserved",
            bytes.len(),
            multi_posts - crash_at
        );
        summary.push_engine(
            EngineRow::new(&format!("sharded:{shards}"), run_ops, 0, 0)
                .with_u64("shards", shards as u64)
                .with_u64("users", users as u64)
                .with_u64("posts_run", multi_posts as u64)
                .with_u64("checkpoint_bytes", bytes.len() as u64)
                .with_f64("checkpoint_write_ms", write_ms)
                .with_f64("restore_ms", restore_ms)
                .with_u64("resumed_at", crash_at as u64)
                .with_u64("decisions_preserved", u64::from(preserved)),
        );
    }

    let path = std::path::Path::new(&out);
    summary.write(path).expect("write summary");
    // Self-check so --smoke in CI fails loudly on malformed output.
    let written = std::fs::read_to_string(path).expect("read summary back");
    assert!(
        written.starts_with('{') && written.trim_end().ends_with('}'),
        "summary is not a JSON object"
    );
    assert!(
        written.contains("\"decisions_preserved\": 1"),
        "decision preservation missing from summary"
    );
    println!("{written}");
}
