//! The in-process workloads: `spsd_*` (one engine, raw `offer(&Post)`) and
//! `mspsd_churn` (`FirehoseService`, `Shared`, with a churn trace). They
//! link the library through its documented surface only: `build_engine`,
//! `Diversifier::{offer, offer_record, metrics, approx_stats}`,
//! `EngineConfig::builder`, `FirehoseService::{builder, process,
//! process_batch, apply, metrics, churn_stats, checkpoint_now,
//! restore_latest}` and `StrategyKind::Shared`.

use std::sync::Arc;
use std::time::Instant;

use firehose_core::prelude::*;
use firehose_core::DeltaBounds;
use firehose_stream::Post;

use crate::oracle;
use crate::report::Outcome;
use crate::run::{PassKind, Run};
use crate::spec::{Kind, ORACLE_POSTS};
use crate::stats;
use crate::sut;
use crate::trace::NONE;

const US: f64 = 1e6;

/// Compare a pass's decisions with the first pass's: every pass does the
/// same work, so any difference is a divergence in its own right.
fn differing<T: PartialEq>(first: &[T], this: &[T]) -> u64 {
    first.len().abs_diff(this.len()) as u64
        + first.iter().zip(this).filter(|(a, b)| a != b).count() as u64
}

/// The paper's Table 2 columns, per post offered to the workload.
fn set_engine_counters(out: &mut Outcome, m: &EngineMetrics, posts: f64) {
    out.set(
        "engine.comparisons_per_post",
        m.comparisons as f64 / posts,
        1,
    );
    out.set("engine.insertions_per_post", m.insertions as f64 / posts, 1);
    out.set("engine.evictions_per_post", m.evictions as f64 / posts, 1);
    out.set("engine.window_bytes_peak", m.peak_memory_bytes as f64, 1);
}

/// The Approx shape `spsd_approx` runs. Not the default one: at the paper's
/// λc = 18 the default (8 probes, budget 8) delivers 1.9–3.7% more than
/// Exact, over the declared 2% bound on most seeds, and 16 probes with
/// budget 8 still reach 1.5%. With 16 probes and budget 16 the delta stayed
/// under 0.15% on 24 seeds, so the declared bound holds with room.
pub fn approx_config() -> ApproxConfig {
    ApproxConfig::new(16, 16, ApproxConfig::DEFAULT_GRANULARITY)
        .expect("16 probes, budget 16 is a valid Approx shape")
}

pub fn run_spsd(run: &mut Run) -> Result<(), String> {
    let Kind::Spsd {
        neighbor_bin,
        approx,
    } = run.params.kind
    else {
        unreachable!("run_spsd is called for spsd workloads only");
    };
    let algorithm = if neighbor_bin {
        AlgorithmKind::NeighborBin
    } else {
        AlgorithmKind::UniBin
    };
    let mut builder = EngineConfig::builder(run.thresholds()).expected_rate(run.inputs.stream_rate);
    if approx {
        builder = builder.memory(MemoryMode::Approx(approx_config()));
    }
    let config = builder.build();
    let inputs = run.inputs;
    let posts: &[Post] = &inputs.posts[..run.params.pass_posts];
    let batch = run.params.batch;

    let mut offers_per_s = Vec::new();
    let mut traced_per_s = Vec::new();
    let mut decide_us = Vec::new();
    let mut first_flags: Option<Vec<bool>> = None;
    let mut phase = run.phase(true);
    while let Some(kind) = phase.next_pass() {
        let starting = Instant::now();
        let graph = run.load_graph()?;
        let mut engine = build_engine(algorithm, config, Arc::clone(&graph));
        run.start_s.push(starting.elapsed().as_secs_f64());

        let mut flags = Vec::with_capacity(posts.len());
        let started = Instant::now();
        match kind {
            PassKind::Untimed => {
                for post in posts {
                    flags.push(engine.offer(post).is_emitted());
                }
                offers_per_s.push(posts.len() as f64 / started.elapsed().as_secs_f64());
            }
            PassKind::Clocked => {
                decide_us.reserve(posts.len());
                for post in posts {
                    let submitted = Instant::now();
                    let emitted = engine.offer(post).is_emitted();
                    decide_us.push(submitted.elapsed().as_secs_f64() * US);
                    flags.push(emitted);
                }
            }
            PassKind::Traced => {
                // `offer` is `to_record` then `offer_record`; the traced
                // pass makes the two calls itself, a batch at a time.
                let simhash = engine.config().simhash;
                let pass = run.tracer.begin("pass", NONE);
                let mut records = Vec::with_capacity(batch);
                for chunk in posts.chunks(batch) {
                    let span = run.tracer.begin("batch", pass);
                    let fp = run.tracer.begin("simhash.fingerprint", span);
                    records.clear();
                    records.extend(chunk.iter().map(|p| p.to_record(simhash)));
                    run.tracer.end(fp, chunk.len() as u64);
                    let offer = run.tracer.begin("engine.offer_record", span);
                    for record in &records {
                        flags.push(engine.offer_record(*record).is_emitted());
                    }
                    run.tracer.end(offer, chunk.len() as u64);
                    run.tracer.end(span, chunk.len() as u64);
                }
                run.tracer.end(pass, posts.len() as u64);
                traced_per_s.push(posts.len() as f64 / started.elapsed().as_secs_f64());
            }
        }
        run.out.passes += 1;
        run.out.attempted += posts.len() as u64;

        match &first_flags {
            Some(first) => run.out.divergent += differing(first, &flags),
            None => {
                // Counters and memory are read after the first pass, when
                // every run has done exactly the same work.
                run.out.set("sut_rss_mb", sut::peak_rss_mb(None)?, 1);
                let m = *engine.metrics();
                let n = m.posts_processed as f64;
                set_engine_counters(&mut run.out, &m, n);
                run.out
                    .set("engine.emitted_share", m.posts_emitted as f64 / n, 1);
                if let Some(a) = engine.approx_stats() {
                    run.out.set(
                        "approx.candidates_per_probe",
                        a.candidates_probed as f64 / a.probes_run.max(1) as f64,
                        1,
                    );
                    run.out
                        .set("approx.displaced_per_post", a.displaced as f64 / n, 1);
                    run.out.set("approx.retained_records", a.retained as f64, 1);
                }
                first_flags = Some(flags);
            }
        }
    }

    // Output check, against the brute-force oracle.
    let verifying = Instant::now();
    let flags = first_flags.expect("the phase ran at least one pass");
    let checked = posts.len().min(ORACLE_POSTS);
    let records = inputs.records(checked);
    let th = run.thresholds();
    let graph = run.load_graph()?;
    let exact = oracle::spsd(&records, &th, &graph);
    if approx {
        // Not identity: no coverage violation, and at most the declared
        // share of extra deliveries.
        let audit = oracle::audit(&records, &flags[..checked], &th, &graph);
        let exact_emitted = exact.iter().filter(|e| **e).count() as f64;
        let delta = (audit.emitted as f64 - exact_emitted).abs() / checked as f64;
        let bounds = DeltaBounds::declared();
        run.out.set(
            "approx.coverage_violations",
            audit.coverage_violations as f64,
            1,
        );
        run.out.set("approx.delivery_delta", delta, 1);
        run.out.divergent += audit.coverage_violations;
        if delta > bounds.max_delivery_ratio_delta {
            eprintln!(
                "spsd_approx: delivery delta {delta:.4} exceeds the declared {:.4}",
                bounds.max_delivery_ratio_delta
            );
            run.out.divergent += 1;
        }
    } else {
        run.out.divergent += differing(&exact, &flags[..checked]);
    }
    run.out
        .set("loadgen.verify_s", verifying.elapsed().as_secs_f64(), 1);

    let emitted_share = flags.iter().filter(|e| **e).count() as f64 / flags.len() as f64;
    let rate = stats::median(&offers_per_s).expect("an untimed pass ran");
    run.out.set("offers_per_s", rate, offers_per_s.len() as u64);
    run.out.set(
        "deliveries_per_s",
        rate * emitted_share,
        offers_per_s.len() as u64,
    );
    run.out.set_decide(decide_us);
    if let Some(traced) = stats::median(&traced_per_s) {
        run.out.set(
            "trace.overhead_pct",
            (1.0 - traced / rate) * 100.0,
            traced_per_s.len() as u64,
        );
        let fp = run.tracer.ns_per_op("simhash.fingerprint").unwrap_or(0.0);
        let offer = run.tracer.ns_per_op("engine.offer_record").unwrap_or(0.0);
        let (_, n) = run.tracer.total("engine.offer_record");
        run.out.set("simhash.fingerprint_ns_per_post", fp, n);
        run.out.set("engine.offer_record_ns_per_post", offer, n);
        run.out.set("engine.scan_share", offer / (fp + offer), n);
    }
    Ok(())
}

/// What one `mspsd_churn` pass produced, for the cross-pass and oracle
/// checks.
#[derive(PartialEq, Default)]
struct Delivered {
    /// Deliveries per post, in stream order.
    fanout: Vec<u32>,
    /// Post ids delivered to each sample user.
    to_sample: Vec<Vec<u64>>,
}

pub fn run_mspsd(run: &mut Run) -> Result<(), String> {
    let inputs = run.inputs;
    let posts: &[Post] = &inputs.posts[..run.params.pass_posts];
    let batch = run.params.batch;
    let sample = &inputs.sample_users;
    let mut sample_slot = vec![usize::MAX; inputs.follows.len()];
    for (slot, &user) in sample.iter().enumerate() {
        sample_slot[user as usize] = slot;
    }

    let mut offers_per_s = Vec::new();
    let mut traced_per_s = Vec::new();
    let mut deliveries_per_s = Vec::new();
    let mut decide_us = Vec::new();
    let mut churn_us = Vec::new();
    let mut first: Option<Delivered> = None;
    let mut phase = run.phase(true);
    while let Some(kind) = phase.next_pass() {
        let starting = Instant::now();
        let graph = run.load_graph()?;
        let mut service = run
            .service_builder(&graph, StrategyKind::Shared)?
            .build()
            .map_err(|e| format!("cannot build the service: {e}"))?;
        run.start_s.push(starting.elapsed().as_secs_f64());

        let mut got = Delivered {
            fanout: Vec::with_capacity(posts.len()),
            to_sample: vec![Vec::new(); sample.len()],
        };
        let mut sink = |post: &Post, decision: &MultiDecision| {
            got.fanout.push(decision.delivered_to.len() as u32);
            for &user in &decision.delivered_to {
                // Users who signed up during the run are beyond the table.
                if let Some(&slot) = sample_slot.get(user as usize) {
                    if slot != usize::MAX {
                        got.to_sample[slot].push(post.id);
                    }
                }
            }
        };
        let mut failed = 0u64;
        let mut next_op = 0;
        let pass = run.tracer.begin("pass", NONE);
        let started = Instant::now();
        for (i, chunk) in posts.chunks(batch).enumerate() {
            // A post waits for the churn ops due before it, so its clock
            // starts before they are applied.
            let submitted = Instant::now();
            let span = run.tracer.begin("batch", pass);
            let apply = run.tracer.begin("multi.apply", span);
            let ops_before = next_op;
            while next_op < inputs.churn.len() && inputs.churn[next_op].after_posts <= i * batch {
                let applying = Instant::now();
                failed += u64::from(service.apply(&inputs.churn[next_op].op).is_err());
                churn_us.push(applying.elapsed().as_secs_f64() * US);
                next_op += 1;
            }
            run.tracer.end(apply, (next_op - ops_before) as u64);
            if kind == PassKind::Clocked {
                let mut submitted = submitted;
                for post in chunk {
                    failed += u64::from(service.process(post.clone(), &mut sink).is_err());
                    decide_us.push(submitted.elapsed().as_secs_f64() * US);
                    submitted = Instant::now();
                }
            } else {
                let process = run.tracer.begin("service.process_batch", span);
                failed += u64::from(
                    service
                        .process_batch(chunk.iter().cloned(), &mut sink)
                        .is_err(),
                ) * chunk.len() as u64;
                run.tracer.end(process, chunk.len() as u64);
            }
            run.tracer.end(span, chunk.len() as u64);
        }
        let took = started.elapsed().as_secs_f64();
        run.tracer.end(pass, posts.len() as u64);
        let deliveries: u64 = got.fanout.iter().map(|n| u64::from(*n)).sum();
        match kind {
            PassKind::Untimed => {
                offers_per_s.push(posts.len() as f64 / took);
                deliveries_per_s.push(deliveries as f64 / took);
            }
            PassKind::Traced => traced_per_s.push(posts.len() as f64 / took),
            PassKind::Clocked => {}
        }
        run.out.passes += 1;
        run.out.attempted += (posts.len() + next_op) as u64;
        run.out.failed += failed;

        match &first {
            Some(first) => {
                run.out.divergent += differing(&first.fanout, &got.fanout);
                run.out.divergent += u64::from(first.to_sample != got.to_sample);
            }
            None => {
                run.out.set("sut_rss_mb", sut::peak_rss_mb(None)?, 1);
                let m = service.metrics();
                let c = service.churn_stats();
                let n = posts.len() as f64;
                let live = c.initial_engines + c.engines_spawned - c.engines_retired;
                run.out.set("multi.engines_live", live as f64, 1);
                run.out.set(
                    "multi.engine_offers_per_post",
                    m.posts_processed as f64 / n,
                    1,
                );
                run.out
                    .set("multi.deliveries_per_post", deliveries as f64 / n, 1);
                run.out
                    .set("multi.engines_spawned", c.engines_spawned as f64, 1);
                run.out.set("multi.warm_starts", c.warm_starts as f64, 1);
                set_engine_counters(&mut run.out, &m, n);
                first = Some(got);
            }
        }
    }

    // Output check: the sample users no churn op touches must read exactly
    // what brute-force SPSD over their own follows gives.
    let verifying = Instant::now();
    let first = first.expect("the phase ran at least one pass");
    let records = inputs.records(posts.len());
    let graph = run.load_graph()?;
    let expected = oracle::mspsd(&records, &inputs.follows, sample, &run.thresholds(), &graph);
    for (want, got) in expected.iter().zip(&first.to_sample) {
        run.out.divergent += differing(want, got);
    }
    run.out
        .set("loadgen.verify_s", verifying.elapsed().as_secs_f64(), 1);

    let rate = stats::median(&offers_per_s).expect("an untimed pass ran");
    run.out.set("offers_per_s", rate, offers_per_s.len() as u64);
    run.out.set(
        "deliveries_per_s",
        stats::median(&deliveries_per_s).expect("an untimed pass ran"),
        deliveries_per_s.len() as u64,
    );
    run.out.set_decide(decide_us);
    // Churn ops over the time spent inside `apply`, all passes together.
    let churn_s = churn_us.iter().sum::<f64>() / US;
    run.out.set(
        "multi.churn_ops_per_s",
        churn_us.len() as f64 / churn_s,
        churn_us.len() as u64,
    );
    run.out.set_latency(
        churn_us,
        "multi.churn_p50_us",
        &[("multi.churn_p99_us", 0.99)],
    );
    if let Some(traced) = stats::median(&traced_per_s) {
        run.out.set(
            "trace.overhead_pct",
            (1.0 - traced / rate) * 100.0,
            traced_per_s.len() as u64,
        );
        let (_, n) = run.tracer.total("service.process_batch");
        let per_post = run.tracer.ns_per_op("service.process_batch").unwrap_or(0.0);
        run.out.set("multi.process_ns_per_post", per_post, n);
        checkpoint_probe(run)?;
    }
    Ok(())
}

/// State size and snapshot time on the end state of one `mspsd_churn` pass:
/// a service built with a checkpoint directory (and a cadence that never
/// fires) replays the pass, then writes and restores one checkpoint.
fn checkpoint_probe(run: &mut Run) -> Result<(), String> {
    let dir = run.inputs.dir.join("checkpoints");
    let graph = run.load_graph()?;
    let never = CheckpointPolicy {
        every_offers: u64::MAX,
        every_millis: None,
        keep: 1,
    };
    let mut service = run
        .service_builder(&graph, StrategyKind::Shared)?
        .checkpoints(&dir, never)
        .build()
        .map_err(|e| format!("cannot build the checkpointing service: {e}"))?;
    let posts = &run.inputs.posts[..run.params.pass_posts];
    let mut next_op = 0;
    for (i, chunk) in posts.chunks(run.params.batch).enumerate() {
        while next_op < run.inputs.churn.len()
            && run.inputs.churn[next_op].after_posts <= i * run.params.batch
        {
            let _ = service.apply(&run.inputs.churn[next_op].op);
            next_op += 1;
        }
        service
            .process_batch(chunk.iter().cloned(), |_, _| {})
            .map_err(|e| e.to_string())?;
    }
    let writing = Instant::now();
    service
        .checkpoint_now()
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    run.out.set(
        "checkpoint.write_ms",
        writing.elapsed().as_secs_f64() * 1e3,
        1,
    );
    run.out.set("checkpoint.bytes", dir_bytes(&dir) as f64, 1);
    let restoring = Instant::now();
    service
        .restore_latest()
        .map_err(|e| format!("restore failed: {e}"))?;
    run.out.set(
        "checkpoint.restore_ms",
        restoring.elapsed().as_secs_f64() * 1e3,
        1,
    );
    Ok(())
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
