//! Layer probes: each times one public function of one layer on this run's
//! own inputs. Everything the benchmark links *below* the documented facade
//! (`parse_request`, `decision_line`, `delivery_line`, `HammingIndex`,
//! `TimeWindowBin`, the text and SimHash entry points) is named in this
//! file and nowhere else, so a later benchmark-only change can re-point a
//! probe when a layer's internals move.
//!
//! Probes run in traced runs only, after the measured phase, and report the
//! median of [`REPS`] repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use firehose_core::prelude::*;
use firehose_graph::{connected_components, UndirectedGraph};
use firehose_net::http::{parse_request, ParseLimits, ParseOutcome};
use firehose_net::server::{decision_line, delivery_line};
use firehose_simhash::{active_kernel, filter_within_into_using, HammingIndex, SimHashOptions};
use firehose_stream::{corpus, minutes, Post, PostRecord, TimeWindowBin};
use firehose_text::{normalize, tokenize, NormalizeOptions};

use crate::inputs::SplitMix;
use crate::run::Run;
use crate::spec::{Kind, LAMBDA_C, LAMBDA_T_MIN};
use crate::stats;

/// Posts (or operations) one probe repetition covers.
pub const SAMPLE: usize = 2_048;

const REPS: usize = 5;

/// Median nanoseconds per operation of `body`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            body();
            started.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    stats::median(&samples).expect("REPS > 0")
}

pub fn normalize_ns(posts: &[Post]) -> f64 {
    ns_per_op(posts.len(), || {
        for p in posts {
            black_box(normalize(black_box(&p.text), NormalizeOptions::paper()));
        }
    })
}

pub fn tokenize_ns(posts: &[Post]) -> f64 {
    ns_per_op(posts.len(), || {
        for p in posts {
            black_box(tokenize(black_box(&p.text)));
        }
    })
}

pub fn fingerprint_ns(posts: &[Post]) -> f64 {
    ns_per_op(posts.len(), || {
        for p in posts {
            black_box(black_box(p).to_record(SimHashOptions::paper()));
        }
    })
}

fn random_fingerprints(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    (0..n).map(|_| rng.next()).collect()
}

/// The active Hamming kernel over a 50k-fingerprint column, per fingerprint
/// scanned.
pub fn scan_ns_per_fp() -> f64 {
    const COLUMN: usize = 50_000;
    const QUERIES: usize = 64;
    let column = random_fingerprints(COLUMN, 1);
    let queries = random_fingerprints(QUERIES, 2);
    let kernel = active_kernel();
    let mut out = Vec::new();
    ns_per_op(COLUMN * QUERIES, || {
        for &q in &queries {
            filter_within_into_using(kernel, q, black_box(&column), LAMBDA_C, &mut out);
            black_box(out.len());
        }
    })
}

fn window_records(n: usize) -> Vec<PostRecord> {
    let fps = random_fingerprints(n, 3);
    (0..n)
        .map(|i| PostRecord {
            id: i as u64,
            author: (i % 4_096) as u32,
            timestamp: i as u64 * 100,
            fingerprint: fps[i],
        })
        .collect()
}

/// `(push ns, evict ns per record)` of the exact λt window's write side.
pub fn window_push_evict_ns() -> (f64, f64) {
    const RECORDS: usize = 100_000;
    let records = window_records(RECORDS);
    let lambda_t = minutes(LAMBDA_T_MIN);
    let mut push = Vec::new();
    let mut evict = Vec::new();
    for _ in 0..REPS {
        let mut bin = TimeWindowBin::new();
        let started = Instant::now();
        for r in &records {
            bin.push(*r);
        }
        push.push(started.elapsed().as_secs_f64() * 1e9 / RECORDS as f64);
        // Evict in 100 steps, as a stream advancing in time would.
        let end = records[RECORDS - 1].timestamp + lambda_t + 1;
        let started = Instant::now();
        let mut evicted = 0;
        for step in 1..=100u64 {
            evicted += bin.evict_expired(end * step / 100, lambda_t);
        }
        evict.push(started.elapsed().as_secs_f64() * 1e9 / evicted.max(1) as f64);
        assert_eq!(evicted, RECORDS, "the probe must evict what it pushed");
    }
    (
        stats::median(&push).expect("REPS > 0"),
        stats::median(&evict).expect("REPS > 0"),
    )
}

/// `(insert, query, retire)` ns of the permuted-table index, laid out as
/// `spsd_approx`'s `MemoryMode::Approx` lays it out.
pub fn index_ns() -> Result<(f64, f64, f64), String> {
    const ENTRIES: usize = 20_000;
    let probes = crate::inproc::approx_config().probes();
    let k = probes.saturating_sub(1).min(LAMBDA_C);
    let fps = random_fingerprints(ENTRIES, 4);
    let (mut insert, mut query, mut retire) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits = Vec::new();
    for _ in 0..REPS {
        let mut index =
            HammingIndex::with_blocks(k, probes.max(k + 1)).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let ids: Vec<u32> = fps.iter().map(|fp| index.insert(*fp)).collect();
        insert.push(started.elapsed().as_secs_f64() * 1e9 / ENTRIES as f64);
        let started = Instant::now();
        for fp in &fps[..SAMPLE] {
            black_box(index.query_within_into(fp ^ 0b111, LAMBDA_C, &mut hits));
        }
        query.push(started.elapsed().as_secs_f64() * 1e9 / SAMPLE as f64);
        let started = Instant::now();
        for id in ids {
            black_box(index.retire(id));
        }
        retire.push(started.elapsed().as_secs_f64() * 1e9 / ENTRIES as f64);
    }
    let med = |v: &[f64]| stats::median(v).expect("REPS > 0");
    Ok((med(&insert), med(&query), med(&retire)))
}

/// The fixed cost of one engine offer, scan excluded: a UniBin whose
/// window holds a single record at every offer, as most of a service's
/// component engines do. The scan a larger window adds is
/// `simhash.scan_ns_per_fp` per comparison.
pub fn bare_engine_offer_ns(graph: &Arc<UndirectedGraph>, config: EngineConfig) -> f64 {
    let fps = random_fingerprints(SAMPLE * 4, 5);
    let records: Vec<PostRecord> = (0..SAMPLE * 4)
        .map(|i| PostRecord {
            id: i as u64,
            author: 0,
            timestamp: i as u64 * config.thresholds.lambda_t,
            fingerprint: fps[i],
        })
        .collect();
    ns_per_op(records.len(), || {
        let mut engine = build_engine(AlgorithmKind::UniBin, config, Arc::clone(graph));
        for r in &records {
            black_box(engine.offer_record(*r));
        }
    })
}

/// `corpus::read_posts` over the TSV the wire carries, per post.
pub fn corpus_read_ns(posts: &[Post]) -> f64 {
    let mut body = Vec::new();
    corpus::write_posts(posts, &mut body).expect("writing to a Vec cannot fail");
    ns_per_op(posts.len(), || {
        black_box(corpus::read_posts(&mut black_box(&body[..])).expect("own TSV parses"));
    })
}

/// `parse_request` over one `/ingest` request of `batch` posts, per request.
pub fn http_parse_ns(posts: &[Post], batch: usize) -> Result<f64, String> {
    let mut body = Vec::new();
    corpus::write_posts(&posts[..batch.min(posts.len())], &mut body)
        .expect("writing to a Vec cannot fail");
    let mut request = format!(
        "POST /ingest HTTP/1.1\r\nHost: firehose\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    match parse_request(&request, ParseLimits::default()) {
        Ok(ParseOutcome::Complete(_, used)) if used == request.len() => {}
        other => return Err(format!("the probe's own request does not parse: {other:?}")),
    }
    const REQUESTS: usize = 256;
    Ok(ns_per_op(REQUESTS, || {
        for _ in 0..REQUESTS {
            black_box(parse_request(black_box(&request), ParseLimits::default()).is_ok());
        }
    }))
}

/// `decision_line` on real decisions, per post.
pub fn decision_line_ns(posts: &[Post], delivered_to: &[Vec<u32>]) -> f64 {
    ns_per_op(posts.len().max(1), || {
        for (post, users) in posts.iter().zip(delivered_to) {
            black_box(decision_line(post.id, black_box(users)));
        }
    })
}

/// `delivery_line`, per delivery.
pub fn delivery_line_ns(posts: &[Post]) -> f64 {
    ns_per_op(posts.len(), || {
        for (seq, post) in posts.iter().enumerate() {
            black_box(delivery_line(seq as u64, black_box(post)));
        }
    })
}

/// Run the probes of the layers on this workload's path and record them.
pub fn run_all(run: &mut Run) -> Result<(), String> {
    let inputs = run.inputs;
    let sample = &inputs.posts[..inputs.posts.len().min(SAMPLE)];
    let n = sample.len() as u64;
    run.out
        .set("text.normalize_ns_per_post", normalize_ns(sample), n);
    run.out
        .set("text.tokenize_ns_per_post", tokenize_ns(sample), n);
    if run.out.get("simhash.fingerprint_ns_per_post").is_none() {
        // The spsd workloads time fingerprinting in their spans instead.
        run.out
            .set("simhash.fingerprint_ns_per_post", fingerprint_ns(sample), n);
    }

    let graph = run.load_graph()?;
    let started = Instant::now();
    black_box(connected_components(&graph).count());
    run.out
        .set("graph.components_s", started.elapsed().as_secs_f64(), 1);
    run.out.set("graph.edges", graph.edge_count() as f64, 1);

    match run.params.kind {
        Kind::Spsd { approx: true, .. } => {
            let (insert, query, retire) = index_ns()?;
            run.out.set("simhash.index_insert_ns", insert, REPS as u64);
            run.out.set("simhash.index_query_ns", query, REPS as u64);
            run.out.set("simhash.index_retire_ns", retire, REPS as u64);
        }
        Kind::Spsd { approx: false, .. } => {
            run.out
                .set("simhash.scan_ns_per_fp", scan_ns_per_fp(), REPS as u64);
            let (push, evict) = window_push_evict_ns();
            run.out.set("stream.window_push_ns", push, REPS as u64);
            run.out
                .set("stream.window_evict_ns_per_record", evict, REPS as u64);
        }
        Kind::Mspsd | Kind::Wire => {
            let offer = bare_engine_offer_ns(&graph, run.engine_config());
            run.out
                .set("engine.offer_record_ns_per_post", offer, REPS as u64);
            run.out
                .set("simhash.scan_ns_per_fp", scan_ns_per_fp(), REPS as u64);
        }
    }
    if matches!(run.params.kind, Kind::Wire) {
        run.out
            .set("stream.corpus_read_ns_per_post", corpus_read_ns(sample), n);
        run.out.set(
            "net.http_parse_ns_per_request",
            http_parse_ns(sample, run.params.batch)?,
            REPS as u64,
        );
        run.out.set(
            "net.delivery_line_ns_per_delivery",
            delivery_line_ns(sample),
            n,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_time_real_work() {
        let posts: Vec<Post> = (0..64)
            .map(|i| {
                Post::new(
                    i,
                    0,
                    i * 10,
                    format!("Breaking: ferry #{i} sinks off http://t.co/x{i}"),
                )
            })
            .collect();
        for ns in [
            normalize_ns(&posts),
            tokenize_ns(&posts),
            fingerprint_ns(&posts),
            corpus_read_ns(&posts),
            delivery_line_ns(&posts),
            http_parse_ns(&posts, 16).unwrap(),
            decision_line_ns(&posts, &vec![vec![1, 2, 3]; 64]),
        ] {
            assert!(ns > 0.0 && ns < 1e7, "{ns} ns per op");
        }
    }
}
