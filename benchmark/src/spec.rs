//! The benchmark's frozen definition: workload names and sizes, metric names
//! and units. `BENCHMARK.json` lists the same names (a unit test holds the
//! two together) and carries the regression bounds.

/// Default `--seed`; `0x5EED2` is the second seed every check must pass on.
pub const DEFAULT_SEED: u64 = 0xDA7A;

/// Length of the measured phase of one run (`BENCHMARK.json`'s
/// `run_seconds`), and of one `--smoke` run.
pub const RUN_SECONDS: f64 = 6.0;
pub const SMOKE_SECONDS: f64 = 0.3;

/// Paper thresholds, used by every workload.
pub const LAMBDA_C: u32 = 18;
pub const LAMBDA_T_MIN: u64 = 30;
pub const LAMBDA_A: f64 = 0.7;

/// Posts per `process_batch` / `/ingest` call unless a workload says otherwise.
pub const BATCH: usize = 256;

/// How often `firehose build-graph` is timed in one end-to-end run; the
/// median goes into `setup_s`. A traced run builds the graph once.
pub const GRAPH_BUILDS: usize = 2;

/// Memory a wire run touches and frees before it starts (see
/// `sut::prefault`): more than the largest served process uses.
pub const PREFAULT_MB: usize = 1_024;

/// Users whose delivered streams are compared with the oracle.
pub const SAMPLE_USERS: usize = 32;

/// Posts of each `spsd_*` pass the oracle re-decides.
pub const ORACLE_POSTS: usize = 50_000;

/// The open-loop run fails, rather than reads slow, when the generator
/// itself ran later than this at its 90th percentile. Over the sustainable
/// rate the backlog grows for as long as the run lasts, so every percentile
/// of the lateness shows it; the 99th also trips on a single host stall of
/// 60 ms (8 of 750 requests), which this 2-core sandbox produces in about
/// one run in fifteen. `loadgen.late_p99_ms` is still reported.
pub const MAX_LATE_MS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these, and none is ever zero.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("offers_per_s", "1/s"),
    higher("deliveries_per_s", "1/s"),
    lower("decide_p50_us", "us"),
    lower("sut_rss_mb", "MB"),
];

/// One layer each (`layer.metric`; layer = crate or crate::module). Zero
/// where the layer is not on the workload's path. README.md maps each to
/// the end-to-end metric and workload it should move.
pub const PER_LAYER: &[MetricDef] = &[
    // text / simhash
    lower("text.normalize_ns_per_post", "ns"),
    lower("text.tokenize_ns_per_post", "ns"),
    lower("simhash.fingerprint_ns_per_post", "ns"),
    lower("simhash.scan_ns_per_fp", "ns"),
    lower("simhash.index_insert_ns", "ns"),
    lower("simhash.index_query_ns", "ns"),
    lower("simhash.index_retire_ns", "ns"),
    // stream
    lower("stream.corpus_read_ns_per_post", "ns"),
    lower("stream.window_push_ns", "ns"),
    lower("stream.window_evict_ns_per_record", "ns"),
    // core::engine
    lower("engine.offer_record_ns_per_post", "ns"),
    higher("engine.scan_share", "ratio"),
    lower("engine.comparisons_per_post", "count"),
    lower("engine.insertions_per_post", "count"),
    lower("engine.evictions_per_post", "count"),
    lower("engine.emitted_share", "ratio"),
    lower("engine.window_bytes_peak", "B"),
    lower("approx.candidates_per_probe", "count"),
    lower("approx.displaced_per_post", "count"),
    lower("approx.retained_records", "count"),
    lower("approx.delivery_delta", "ratio"),
    lower("approx.coverage_violations", "count"),
    // core::multi
    lower("multi.engines_live", "count"),
    lower("multi.engine_offers_per_post", "count"),
    lower("multi.deliveries_per_post", "count"),
    lower("multi.process_ns_per_post", "ns"),
    higher("multi.churn_ops_per_s", "1/s"),
    lower("multi.churn_p50_us", "us"),
    lower("multi.churn_p99_us", "us"),
    lower("multi.engines_spawned", "count"),
    higher("multi.warm_starts", "count"),
    lower("multi.shard_hop_ns_per_post", "ns"),
    // core::service / core::checkpoint
    lower("service.build_s", "s"),
    lower("checkpoint.write_ms", "ms"),
    lower("checkpoint.bytes", "B"),
    lower("checkpoint.restore_ms", "ms"),
    // graph
    lower("graph.similarity_build_s", "s"),
    lower("graph.components_s", "s"),
    lower("graph.edges", "count"),
    // net
    lower("net.http_parse_ns_per_request", "ns"),
    lower("net.decision_line_ns_per_post", "ns"),
    lower("net.delivery_line_ns_per_delivery", "ns"),
    lower("net.request_rtt_p50_us", "us"),
    lower("net.request_rtt_p99_us", "us"),
    lower("net.bytes_in_per_post", "B"),
    lower("net.bytes_out_per_post", "B"),
    lower("net.deliveries_dropped", "count"),
    lower("net.other_us_per_post", "us"),
    lower("net.deliver_p50_ms", "ms"),
    lower("net.deliver_p99_ms", "ms"),
    // load generator and tracing
    lower("decide_p90_us", "us"),
    lower("decide_p99_us", "us"),
    lower("loadgen.late_p99_ms", "ms"),
    higher("loadgen.achieved_rate", "1/s"),
    lower("loadgen.gen_s", "s"),
    lower("loadgen.verify_s", "s"),
    lower("trace.overhead_pct", "%"),
];

/// Which generated day a workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// ≈26 posts/author/day: the stream every earlier bench in the
    /// repository used (λt window ≈ 2.4k posts).
    Day108k,
    /// ≈114 posts/author/day: the λt window holds ≈10k posts.
    Day475k,
}

impl Stream {
    pub fn name(self) -> &'static str {
        match self {
            Stream::Day108k => "day-108k",
            Stream::Day475k => "day-475k",
        }
    }

    pub fn posts_per_author_per_day(self) -> f64 {
        match self {
            Stream::Day108k => 26.0,
            Stream::Day475k => 114.5,
        }
    }
}

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process, one engine, raw `offer(&Post)`.
    Spsd { neighbor_bin: bool, approx: bool },
    /// In-process `FirehoseService`, `Shared` strategy, with churn.
    Mspsd,
    /// `firehose serve` child over loopback.
    Wire,
}

/// One workload's frozen parameters at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub name: &'static str,
    pub kind: Kind,
    pub stream: Stream,
    /// Subscribed users (0 for the single-reader workloads). Wire workloads
    /// with a probe add one more user.
    pub users: usize,
    /// Posts per pass. Every pass starts a fresh engine, service or server
    /// at the head of the stream, so every pass does the same work.
    pub pass_posts: usize,
    /// Posts per call into the system.
    pub batch: usize,
    /// One churn op per this many posts (0: none).
    pub churn_every: usize,
    /// Authors the probe user follows (0: no probe reader).
    pub probe_follows: usize,
    /// Open-loop posts per second (0: closed loop).
    pub rate: u32,
    /// Serve with `--strategy sharded:S` (S = cores − 1, at least 1) rather
    /// than the default `shared`.
    pub sharded: bool,
}

pub const WORKLOADS: [&str; 7] = [
    "spsd_scan",
    "spsd_insert",
    "spsd_approx",
    "mspsd_churn",
    "wire_ingest",
    "wire_paced",
    "wire_fanout",
];

/// Parameters of `workload` at bench scale, or at `--smoke` scale
/// (`SocialGenConfig::test_scale()`, a few thousand posts a pass).
pub fn params(workload: &str, smoke: bool) -> Option<Params> {
    let at = |bench: usize, small: usize| if smoke { small } else { bench };
    let base = Params {
        name: "",
        kind: Kind::Wire,
        stream: Stream::Day108k,
        users: 0,
        pass_posts: 0,
        batch: BATCH,
        churn_every: 0,
        probe_follows: 0,
        rate: 0,
        sharded: false,
    };
    let spsd = |neighbor_bin, approx| Kind::Spsd {
        neighbor_bin,
        approx,
    };
    Some(match workload {
        "spsd_scan" => Params {
            name: "spsd_scan",
            kind: spsd(false, false),
            stream: Stream::Day475k,
            pass_posts: at(100_000, 5_000),
            ..base
        },
        "spsd_insert" => Params {
            name: "spsd_insert",
            kind: spsd(true, false),
            pass_posts: at(40_000, 3_000),
            ..base
        },
        "spsd_approx" => Params {
            name: "spsd_approx",
            kind: spsd(true, true),
            pass_posts: at(3_000, 1_500),
            ..base
        },
        "mspsd_churn" => Params {
            name: "mspsd_churn",
            kind: Kind::Mspsd,
            users: at(2_000, 60),
            pass_posts: at(16_000, 3_000),
            churn_every: 100,
            ..base
        },
        "wire_ingest" => Params {
            name: "wire_ingest",
            users: at(300, 40),
            pass_posts: at(50_000, 3_000),
            sharded: true,
            ..base
        },
        // Sized by its rate: one pass lasts the whole measured phase.
        "wire_paced" => Params {
            name: "wire_paced",
            users: at(300, 40),
            batch: 8,
            probe_follows: at(400, 40),
            rate: at(1000, 2_000) as u32,
            sharded: true,
            ..base
        },
        "wire_fanout" => Params {
            name: "wire_fanout",
            users: at(10_000, 400),
            pass_posts: at(4_000, 1_500),
            batch: 32,
            probe_follows: at(400, 40),
            ..base
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_workload_has_parameters_at_both_scales() {
        for w in WORKLOADS {
            for smoke in [false, true] {
                let p = params(w, smoke).unwrap_or_else(|| panic!("{w} smoke={smoke}"));
                assert_eq!(p.name, w);
                assert!(p.batch > 0);
                assert!(
                    p.pass_posts > 0 || p.rate > 0,
                    "{w}: sized by posts or by rate"
                );
            }
        }
        assert!(params("nope", false).is_none());
    }

    /// `BENCHMARK.json` and this file name the same workloads and metrics,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(json::Value::as_str).unwrap_or("");
                    format!("{} {} {}", field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let defs = |defs: &[MetricDef]| -> Vec<String> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    format!("{} {} {better}", d.name, d.unit)
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), defs(END_TO_END));
        assert_eq!(names("per_layer"), defs(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| format!("{w}  ")).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
