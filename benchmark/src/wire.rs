//! The wire workloads: a `firehose serve` child on loopback, driven over
//! its wire protocol by a load generator that is a separate process from
//! the system under test. This file pins the protocol surface: `POST
//! /ingest` (corpus TSV in, one line per post out), `GET
//! /stream/<user>?from&max&wait_ms` (`<seq>\t<id>\t...` lines), `/metrics`,
//! `/healthz`, `/shutdown`, through `firehose_net::HttpClient`.
//!
//! At most two generator threads run: the ingest connection and, where the
//! workload has a probe user, one long-poll reader.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose_core::prelude::*;
use firehose_net::HttpClient;
use firehose_stream::{corpus, Post};

use crate::oracle;
use crate::pacer::{self, Clock, WallClock};
use crate::probes;
use crate::run::{shards, PassKind, Run};
use crate::spec::{Params, MAX_LATE_MS};
use crate::stats;
use crate::sut::{self, Server};
use crate::trace::NONE;

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// The `--strategy` value the workload serves with.
pub fn strategy(params: &Params) -> String {
    if params.sharded {
        format!("sharded:{}", shards())
    } else {
        "shared".to_string()
    }
}

/// The probe user's long-poll reader: every delivery line it receives,
/// stamped on arrival.
struct Reader {
    stop: Arc<AtomicBool>,
    received: Arc<AtomicU64>,
    thread: std::thread::JoinHandle<Result<Vec<(u64, Instant)>, String>>,
}

impl Reader {
    fn spawn(addr: SocketAddr, user: u32) -> Result<Self, String> {
        let mut client = HttpClient::connect(addr).map_err(|e| format!("reader connect: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let (stop_flag, count) = (Arc::clone(&stop), Arc::clone(&received));
        let thread = std::thread::spawn(move || {
            let mut arrivals = Vec::new();
            let mut next_seq = 0u64;
            while !stop_flag.load(Ordering::Acquire) {
                let target = format!("/stream/{user}?from={next_seq}&max=500&wait_ms=100");
                let resp = client
                    .stream_chunks(&target, &mut |chunk| {
                        let now = Instant::now();
                        // One chunk is one `<seq>\t<id>\t...` delivery line.
                        let text = String::from_utf8_lossy(chunk);
                        let mut fields = text.splitn(3, '\t');
                        let seq = fields.next().and_then(|s| s.parse::<u64>().ok());
                        let id = fields.next().and_then(|s| s.parse::<u64>().ok());
                        if let (Some(seq), Some(id)) = (seq, id) {
                            next_seq = seq + 1;
                            arrivals.push((id, now));
                            count.fetch_add(1, Ordering::Release);
                        }
                    })
                    .map_err(|e| format!("reader: {e}"))?;
                if resp.status != 200 {
                    return Err(format!("reader: /stream answered {}", resp.status));
                }
            }
            Ok(arrivals)
        });
        Ok(Self {
            stop,
            received,
            thread,
        })
    }

    /// Wait (briefly) until `expected` deliveries arrived, then stop the
    /// reader and collect what it saw.
    fn finish(self, expected: usize) -> Result<Vec<(u64, Instant)>, String> {
        let deadline = Instant::now() + Duration::from_secs(3);
        while (self.received.load(Ordering::Acquire) as usize) < expected
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.stop.store(true, Ordering::Release);
        self.thread
            .join()
            .map_err(|_| "the reader thread panicked".to_string())?
    }
}

/// Sum every sample of metric `name` in a Prometheus text exposition.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// `GET /stream/<user>?from=0` until the ring is drained: `(seq, post id)`
/// of every delivery the server still holds.
fn drain(client: &mut HttpClient, user: u32) -> Result<Vec<(u64, u64)>, String> {
    let mut lines = Vec::new();
    let mut from = 0u64;
    loop {
        let resp = client
            .request(
                "GET",
                &format!("/stream/{user}?from={from}&max=100000&wait_ms=0"),
                b"",
            )
            .map_err(|e| format!("drain user {user}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "drain user {user}: /stream answered {}",
                resp.status
            ));
        }
        let before = lines.len();
        for line in resp.text().lines() {
            let mut fields = line.splitn(3, '\t');
            match (
                fields.next().and_then(|s| s.parse::<u64>().ok()),
                fields.next().and_then(|s| s.parse::<u64>().ok()),
            ) {
                (Some(seq), Some(id)) => lines.push((seq, id)),
                _ => return Err(format!("drain user {user}: bad delivery line {line:?}")),
            }
        }
        match lines.last() {
            Some((seq, _)) if lines.len() > before => from = seq + 1,
            _ => return Ok(lines),
        }
    }
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let params = run.params;
    let inputs = run.inputs;
    // A rate-driven pass sends rate × seconds posts, split over the passes
    // the mode plans; a closed-loop pass sends its fixed count.
    let pass_posts = if params.rate > 0 {
        inputs.posts.len()
    } else {
        params.pass_posts
    };
    let posts: &[Post] = &inputs.posts[..pass_posts];
    let bodies: Vec<Vec<u8>> = posts
        .chunks(params.batch)
        .map(|chunk| {
            let mut body = Vec::new();
            corpus::write_posts(chunk, &mut body).expect("writing to a Vec cannot fail");
            body
        })
        .collect();
    let bytes_in: usize = bodies.iter().map(Vec::len).sum();

    // The oracle's answer for every user, computed before the measured
    // phase: the probe's expected deliveries and the delivery total come
    // from it, never from the user lists on the `/ingest` response.
    let verifying = Instant::now();
    let records = inputs.records(pass_posts);
    let graph = run.load_graph()?;
    let all_users: Vec<u32> = (0..inputs.follows.len() as u32).collect();
    let expected = oracle::mspsd(
        &records,
        &inputs.follows,
        &all_users,
        &run.thresholds(),
        &graph,
    );
    let deliveries: usize = expected.iter().map(Vec::len).sum();
    let expected_probe: &[u64] = inputs.probe_user.map_or(&[], |u| &expected[u as usize]);
    let mut verify_s = verifying.elapsed().as_secs_f64();

    let mut offers_per_s = Vec::new();
    let mut traced_per_s = Vec::new();
    let mut deliveries_per_s = Vec::new();
    let mut decide_us = Vec::new();
    let mut rtt_us = Vec::new();
    let mut late_ms = Vec::new();
    let mut deliver_ms = Vec::new();
    let mut first_pass = true;
    let mut phase = run.phase(false);
    while let Some(kind) = phase.next_pass() {
        let (server, start) = Server::spawn(
            run.firehose,
            &run.graph_path,
            &inputs.subscriptions_path,
            &strategy(&params),
        )?;
        run.start_s.push(start.as_secs_f64());
        let reader = inputs
            .probe_user
            .map(|user| Reader::spawn(server.addr, user))
            .transpose()?;
        let mut client =
            HttpClient::connect(server.addr).map_err(|e| format!("ingest connect: {e}"))?;

        let traced = kind == PassKind::Traced;
        let mut failed = 0u64;
        let mut bytes_out = 0usize;
        // When each batch was due (open loop) or sent (closed loop).
        let mut due_at: Vec<Instant> = Vec::with_capacity(bodies.len());
        let pass = run.tracer.begin("pass", NONE);
        let tracer = &mut run.tracer;
        let mut ingest = |i: usize| -> Duration {
            let span = if traced {
                tracer.begin("net.request", pass)
            } else {
                NONE
            };
            let sent = Instant::now();
            let lines = match client.request("POST", "/ingest", &bodies[i]) {
                Ok(resp) if resp.status == 200 => {
                    bytes_out += resp.body.len();
                    resp.body.iter().filter(|b| **b == b'\n').count()
                }
                Ok(_) | Err(_) => 0,
            };
            let rtt = sent.elapsed();
            let batch_posts = params.batch.min(pass_posts - i * params.batch);
            // One decision line per post; anything else is a failed batch.
            if lines != batch_posts {
                failed += batch_posts as u64;
            }
            tracer.end(span, batch_posts as u64);
            rtt
        };
        let started = Instant::now();
        if params.rate > 0 {
            let interval_ns = (params.batch as f64 / params.rate as f64 * 1e9) as u64;
            let mut clock = WallClock::new();
            let origin = clock.origin();
            let start_ns = clock.now_ns() + 1_000_000;
            let timings = pacer::drive(&mut clock, start_ns, interval_ns, bodies.len(), |_, i| {
                rtt_us.push(ingest(i).as_secs_f64() * US);
            });
            for t in &timings {
                due_at.push(origin + Duration::from_nanos(t.due_ns));
                decide_us.push(t.latency_ns as f64 / 1e3);
                late_ms.push(t.late_ns as f64 / 1e6);
            }
        } else {
            for i in 0..bodies.len() {
                due_at.push(Instant::now());
                let rtt = ingest(i).as_secs_f64() * US;
                rtt_us.push(rtt);
                decide_us.push(rtt);
            }
        }
        let took = started.elapsed().as_secs_f64();
        run.tracer.end(pass, pass_posts as u64);
        if traced {
            traced_per_s.push(pass_posts as f64 / took);
        } else {
            offers_per_s.push(pass_posts as f64 / took);
            deliveries_per_s.push(deliveries as f64 / took);
        }

        // Probe deliveries: each timed from when its post was due.
        let mut missing = 0u64;
        if let Some(reader) = reader {
            let arrivals = reader.finish(expected_probe.len())?;
            let ids: Vec<u64> = arrivals.iter().map(|(id, _)| *id).collect();
            missing = expected_probe.len().saturating_sub(ids.len()) as u64;
            run.out.divergent += u64::from(ids.len() > expected_probe.len())
                + ids
                    .iter()
                    .zip(expected_probe)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
            for (id, at) in arrivals {
                let due = due_at[id as usize / params.batch];
                deliver_ms.push(at.saturating_duration_since(due).as_secs_f64() * MS);
            }
        }
        run.out.passes += 1;
        run.out.attempted += (pass_posts + expected_probe.len()) as u64;
        run.out.failed += failed + missing;

        if first_pass {
            first_pass = false;
            run.out
                .set("sut_rss_mb", sut::peak_rss_mb(Some(server.pid()))?, 1);
            let n = pass_posts as f64;
            run.out.set("net.bytes_in_per_post", bytes_in as f64 / n, 1);
            run.out
                .set("net.bytes_out_per_post", bytes_out as f64 / n, 1);
            let metrics = client
                .request("GET", "/metrics", b"")
                .map_err(|e| format!("/metrics: {e}"))?
                .text();
            let count = |name: &str| scrape(&metrics, name);
            run.out.set(
                "net.deliveries_dropped",
                count("firehose_net_deliveries_dropped_total"),
                1,
            );
            run.out.set(
                "multi.engine_offers_per_post",
                count("firehose_posts_processed_total") / n,
                1,
            );
            run.out.set(
                "engine.comparisons_per_post",
                count("firehose_comparisons_total") / n,
                1,
            );
            run.out.set(
                "engine.insertions_per_post",
                count("firehose_insertions_total") / n,
                1,
            );
            run.out.set(
                "engine.evictions_per_post",
                count("firehose_evictions_total") / n,
                1,
            );
            run.out.set(
                "engine.window_bytes_peak",
                count("firehose_peak_memory_bytes"),
                1,
            );
            run.out
                .set("multi.deliveries_per_post", deliveries as f64 / n, 1);
            if count("firehose_net_posts_ingested_total") != n {
                return Err(format!(
                    "the server counts {} posts ingested, the generator sent {n}",
                    count("firehose_net_posts_ingested_total")
                ));
            }

            // Output check: what the sample users can still read back must
            // be the oracle's sequence, position by position, to its end.
            let verifying = Instant::now();
            for &user in &inputs.sample_users {
                let want = &expected[user as usize];
                let got = drain(&mut client, user)?;
                run.out.divergent += got
                    .iter()
                    .filter(|(seq, id)| want.get(*seq as usize) != Some(id))
                    .count() as u64;
                let end = got.last().map_or(0, |(seq, _)| seq + 1);
                run.out.divergent += u64::from(end != want.len() as u64);
            }
            verify_s += verifying.elapsed().as_secs_f64();
        }
        drop(client);
        server.shutdown()?;
    }
    run.out.set("loadgen.verify_s", verify_s, 1);

    let rate = stats::median(&offers_per_s).expect("an untraced pass ran");
    run.out.set("offers_per_s", rate, offers_per_s.len() as u64);
    run.out.set(
        "deliveries_per_s",
        stats::median(&deliveries_per_s).expect("an untraced pass ran"),
        deliveries_per_s.len() as u64,
    );
    run.out.set_decide(decide_us);
    run.out.set_latency(
        rtt_us,
        "net.request_rtt_p50_us",
        &[("net.request_rtt_p99_us", 0.99)],
    );
    run.out.set_latency(
        deliver_ms,
        "net.deliver_p50_ms",
        &[("net.deliver_p99_ms", 0.99)],
    );
    if params.rate > 0 {
        run.out
            .set("loadgen.achieved_rate", rate, offers_per_s.len() as u64);
        let n = late_ms.len() as u64;
        let late = stats::sorted(late_ms);
        let late_p99 = stats::quantile(&late, 0.99).unwrap_or(0.0);
        let late_p90 = stats::quantile(&late, 0.9).unwrap_or(0.0);
        run.out.set("loadgen.late_p99_ms", late_p99, n);
        if late_p90 > MAX_LATE_MS {
            // Over the sustainable rate: the run has failed, it is not slow.
            eprintln!(
                "{}: the generator ran {late_p90:.3} ms late at p90 (limit {MAX_LATE_MS} ms): \
                 {} posts/s is over the sustainable rate",
                params.name, params.rate
            );
            run.out.failed = run.out.attempted;
        }
    }
    if let Some(traced) = stats::median(&traced_per_s) {
        run.out.set(
            "trace.overhead_pct",
            (1.0 - traced / rate) * 100.0,
            traced_per_s.len() as u64,
        );
        twin(run, posts)?;
    }
    Ok(())
}

/// One pass of the in-process twin: a service of the served configuration
/// under `strategy`, fed the same batches. Returns nanoseconds per post and
/// the service; the first `probes::SAMPLE` decisions are appended to `keep`.
fn twin_pass(
    run: &Run,
    posts: &[Post],
    strategy: StrategyKind,
    keep: &mut Vec<Vec<u32>>,
) -> Result<(f64, FirehoseService), String> {
    let graph = run.load_graph()?;
    let mut service = run
        .service_builder(&graph, strategy)?
        .build()
        .map_err(|e| format!("cannot build the twin: {e}"))?;
    let started = Instant::now();
    for chunk in posts.chunks(run.params.batch) {
        service
            .process_batch(chunk.iter().cloned(), |_, d| {
                if keep.len() < probes::SAMPLE {
                    keep.push(d.delivered_to.clone());
                }
            })
            .map_err(|e| format!("twin: {e}"))?;
    }
    let ns_per_post = started.elapsed().as_secs_f64() * 1e9 / posts.len() as f64;
    Ok((ns_per_post, service))
}

/// The in-process twin of the served configuration, on the same batches:
/// what the service costs with no socket (`multi.process_ns_per_post`), what
/// one shard hop adds, the registry's counters, and the encode probe on the
/// twin's real decisions. Traced runs only.
fn twin(run: &mut Run, posts: &[Post]) -> Result<(), String> {
    let n = posts.len() as u64;
    let mut decisions = Vec::new();
    let (shared_ns, service) = twin_pass(run, posts, StrategyKind::Shared, &mut decisions)?;
    run.out.set("multi.process_ns_per_post", shared_ns, n);
    let engines = service.churn_stats().initial_engines;
    run.out.set("multi.engines_live", engines as f64, 1);
    drop(service);
    if run.params.sharded {
        let sharded = StrategyKind::Sharded { shards: shards() };
        let (sharded_ns, _) = twin_pass(run, posts, sharded, &mut decisions)?;
        run.out
            .set("multi.shard_hop_ns_per_post", sharded_ns - shared_ns, n);
    }
    let sample = &posts[..posts.len().min(probes::SAMPLE)];
    run.out.set(
        "net.decision_line_ns_per_post",
        probes::decision_line_ns(sample, &decisions),
        sample.len() as u64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_a_metric_over_its_label_sets() {
        let text = "# HELP firehose_posts_processed_total x\n\
                    firehose_posts_processed_total{engine=\"a\"} 40\n\
                    firehose_posts_processed_total{engine=\"b\"} 2\n\
                    firehose_posts_processed_total_extra 1000\n\
                    firehose_net_connections 3\n";
        assert_eq!(scrape(text, "firehose_posts_processed_total"), 42.0);
        assert_eq!(scrape(text, "firehose_net_connections"), 3.0);
        assert_eq!(scrape(text, "absent"), 0.0);
    }
}
