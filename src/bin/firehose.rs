//! `firehose` — command-line front end for the diversification pipeline.
//!
//! ```text
//! firehose generate    --authors 2000 --hours 8 --out-posts posts.tsv --out-follower follower.fhf
//! firehose build-graph --follower follower.fhf --lambda-a 0.7 --out similarity.fhg
//! firehose cover       --graph similarity.fhg --out cover.fhc
//! firehose run         --posts posts.tsv --graph similarity.fhg --algorithm cliquebin \
//!                      --lambda-c 18 --lambda-t-mins 30 --out diversified.tsv
//! firehose explain     --posts posts.tsv --graph similarity.fhg --first 12 --second 40
//! ```
//!
//! Files use the formats of `firehose_graph::io` (graphs, covers) and
//! `firehose_stream::corpus` (posts TSV). `run` works on any corpus a user
//! brings, not just generated ones.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use firehose::core::checkpoint::{CheckpointManager, CheckpointPolicy};
use firehose::core::engine::{build_engine, AlgorithmKind, Diversifier};
use firehose::core::evaluate;
use firehose::core::multi::Subscriptions;
use firehose::core::service::{
    read_churn_trace, FirehoseService, FirehoseServiceBuilder, OverloadConfig, OverloadPolicy,
    RateLimitConfig, StrategyKind, TracedOp,
};
use firehose::core::{
    explain, restore_latest_valid, EngineConfig, MemoryMode, RestoreError, Thresholds,
};
use firehose::datagen::{
    generate_churn_trace, generate_subscriptions, ChurnGenConfig, SocialGenConfig,
    SubscriptionGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig,
};
use firehose::graph::io as graph_io;
use firehose::graph::{build_similarity_graph_parallel, greedy_clique_cover, UndirectedGraph};
use firehose::net::{Server, ServerConfig};
use firehose::obs::Registry;
use firehose::simhash::SimHashOptions;
use firehose::stream::{corpus, guard_stream, hours, minutes, GuardConfig, GuardPolicy, Post};

/// Minimal `--flag value` argument map (every flag takes exactly one value).
struct Args {
    command: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(mut argv: std::env::Args) -> Result<Self, String> {
        let _program = argv.next();
        let command = argv.next().ok_or_else(usage)?;
        let rest: Vec<String> = argv.collect();
        if !rest.len().is_multiple_of(2) {
            return Err(format!("flag without value in {rest:?}"));
        }
        let mut flags = Vec::new();
        for pair in rest.chunks_exact(2) {
            let flag = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", pair[0]))?;
            flags.push((flag.to_string(), pair[1].clone()));
        }
        Ok(Self { command, flags })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, flag: &str) -> Result<&str, String> {
        self.get(flag)
            .ok_or_else(|| format!("missing required --{flag}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{flag} {v:?}: {e}")),
        }
    }
}

/// Every subcommand's accepted flags, as printed by `usage()`: `[...]` marks
/// an optional flag. `validate_flags` accepts exactly these names, once each.
const COMMANDS: &[(&str, &[&str])] = &[
    (
        "generate",
        &[
            "--out-posts FILE",
            "--out-follower FILE",
            "[--authors N]",
            "[--hours H]",
            "[--seed S]",
            "[--users N]",
            "[--out-subscriptions FILE]",
            "[--churn-ops N]",
            "[--out-churn FILE]",
        ],
    ),
    (
        "build-graph",
        &[
            "--follower FILE",
            "--out FILE",
            "[--lambda-a F]",
            "[--threads N]",
        ],
    ),
    ("cover", &["--graph FILE", "--out FILE"]),
    (
        "run",
        &[
            "--posts FILE",
            "--graph FILE",
            "[--algorithm unibin|neighborbin|cliquebin]",
            "[--lambda-c N]",
            "[--lambda-t-mins N]",
            "[--lambda-a F]",
            "[--memory exact|approx[:BUDGET]]",
            "[--out FILE]",
            "[--quiet true]",
            "[--checkpoint-dir DIR]",
            "[--checkpoint-every OFFERS]",
            "[--checkpoint-secs S]",
            "[--guard strict|clamp|reorder]",
            "[--reorder-bound-ms N]",
            "[--subscriptions FILE]",
            "[--strategy shared|sharded[:N]]",
            "[--churn-trace FILE]",
            "[--overload block|shed|reject[:CAPACITY]]",
            "[--rate-limit POSTS_PER_SEC]",
        ],
    ),
    (
        "serve",
        &[
            "--graph FILE",
            "--subscriptions FILE",
            "[--listen ADDR:PORT]",
            "[--algorithm unibin|neighborbin|cliquebin]",
            "[--lambda-c N]",
            "[--lambda-t-mins N]",
            "[--lambda-a F]",
            "[--memory exact|approx[:BUDGET]]",
            "[--strategy shared|sharded[:N]]",
            "[--guard strict|clamp|reorder]",
            "[--reorder-bound-ms N]",
            "[--overload block|shed|reject[:CAPACITY]]",
            "[--rate-limit POSTS_PER_SEC]",
            "[--checkpoint-dir DIR]",
            "[--checkpoint-every OFFERS]",
            "[--checkpoint-secs S]",
            "[--max-conns N]",
            "[--stream-buffer N]",
            "[--idle-secs S]",
            "[--allow-shutdown true]",
        ],
    ),
    (
        "explain",
        &[
            "--posts FILE",
            "--graph FILE",
            "--first POST_ID",
            "--second POST_ID",
            "[--lambda-c N]",
            "[--lambda-t-mins N]",
            "[--lambda-a F]",
        ],
    ),
    (
        "quality",
        &[
            "--posts FILE",
            "--delivered FILE",
            "--graph FILE",
            "[--lambda-c N]",
            "[--lambda-t-mins N]",
            "[--lambda-a F]",
        ],
    ),
];

/// The flag name of a `COMMANDS` entry: `"[--lambda-c N]"` → `"lambda-c"`.
fn flag_name(entry: &str) -> &str {
    let entry = entry.trim_start_matches('[').trim_start_matches("--");
    entry.split([' ', ']']).next().unwrap_or(entry)
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    let mut out = format!("usage: firehose <{}> [--flag value]...\n", names.join("|"));
    for (name, flags) in COMMANDS {
        let mut line = format!("\n{name:<12}");
        for flag in *flags {
            if line.len() + 1 + flag.len() > 80 {
                out.push_str(&line);
                line = format!("\n{:<12}", "");
            }
            line.push(' ');
            line.push_str(flag);
        }
        out.push_str(&line);
    }
    out.push_str(
        "\n\nrun: --strategy, --churn-trace, --overload and --rate-limit apply with --subscriptions\
         \n--strategy sharded[:N] runs exactly what shared runs; N must be at least 1 and is \
         otherwise unused",
    );
    out
}

const REMOVED_SHARDING: &str =
    "--shards N and --strategy parallel[:N] were removed; use --strategy sharded[:N]";

const REMOVED_INDEPENDENT: &str = "--strategy independent (and m) was removed: one engine per \
     user is now the paper reference in fig16_mspsd, and --strategy shared delivers the same \
     per-user streams";

/// Reject a flag `command` does not take, and a flag given twice, naming it.
fn validate_flags(command: &str, args: &Args) -> Result<(), String> {
    let Some((_, accepted)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        return Ok(());
    };
    for (i, (flag, _)) in args.flags.iter().enumerate() {
        if flag == "shards" {
            return Err(REMOVED_SHARDING.into());
        }
        if !accepted.iter().any(|entry| flag_name(entry) == flag) {
            return Err(format!(
                "unknown flag --{flag} for `{command}`; see `firehose help`"
            ));
        }
        if args.flags[..i].iter().any(|(seen, _)| seen == flag) {
            return Err(format!("flag --{flag} given more than once"));
        }
    }
    Ok(())
}

fn thresholds_from(args: &Args) -> Result<Thresholds, String> {
    let lambda_c: u32 = args.parse_or("lambda-c", 18)?;
    let lambda_t_mins: u64 = args.parse_or("lambda-t-mins", 30)?;
    let lambda_a: f64 = args.parse_or("lambda-a", 0.7)?;
    Thresholds::new(lambda_c, minutes(lambda_t_mins), lambda_a).map_err(|e| e.to_string())
}

/// Full engine configuration: thresholds plus the coverage memory mode from
/// `--memory exact|approx[:BUDGET]` (default exact).
fn engine_config_from(args: &Args) -> Result<EngineConfig, String> {
    let thresholds = thresholds_from(args)?;
    let memory: MemoryMode = match args.get("memory") {
        Some(spec) => spec.parse().map_err(|e| format!("{e}"))?,
        None => MemoryMode::Exact,
    };
    Ok(EngineConfig::builder(thresholds).memory(memory).build())
}

fn open_reader(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {path}: {e}"))
}

fn create_writer(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let authors: usize = args.parse_or("authors", 2_000)?;
    let hours_n: u64 = args.parse_or("hours", 8)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out_posts = args.require("out-posts")?;
    let out_follower = args.require("out-follower")?;

    // The calibrated windows assume a ring much larger than the wide window;
    // below ~3000 authors switch to the proportionally smaller test-scale
    // geometry so the similarity graph keeps a sane density.
    let social_config = if authors >= 3_000 {
        SocialGenConfig::paper_scale()
    } else {
        SocialGenConfig::test_scale()
    }
    .with_authors(authors)
    .with_seed(seed);
    social_config
        .validate()
        .map_err(|e| format!("bad --authors {authors}: {e}"))?;
    let social = SyntheticSocialGraph::generate(social_config);
    let workload = Workload::generate(
        &social,
        WorkloadConfig {
            duration: hours(hours_n),
            seed,
            ..Default::default()
        },
    );

    corpus::write_posts(&workload.posts, &mut create_writer(out_posts)?)
        .map_err(|e| e.to_string())?;
    graph_io::write_follower(&social.graph, &mut create_writer(out_follower)?)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} posts from {} authors to {out_posts}; follower graph ({} follows) to {out_follower}",
        workload.len(),
        social.author_count(),
        social.graph.edge_count()
    );

    // Optional M-SPSD inputs: a subscription table and a churn trace
    // replayable with `run --subscriptions ... --churn-trace ...`.
    if let Some(out_subs) = args.get("out-subscriptions") {
        let users: usize = args.parse_or("users", authors / 2)?;
        let sets = generate_subscriptions(
            authors,
            users,
            SubscriptionGenConfig {
                seed,
                ..Default::default()
            },
        );
        let mut w = create_writer(out_subs)?;
        write_subscription_sets(&sets, &mut w).map_err(|e| e.to_string())?;
        eprintln!("wrote {users} subscription sets to {out_subs}");

        if let Some(out_churn) = args.get("out-churn") {
            let ops: usize = args.parse_or("churn-ops", 100)?;
            let trace = generate_churn_trace(
                authors,
                &sets,
                workload.len() as u64,
                ChurnGenConfig {
                    seed,
                    ops,
                    ..Default::default()
                },
            );
            let mut w = create_writer(out_churn)?;
            for entry in &trace {
                writeln!(w, "{entry}").map_err(|e| e.to_string())?;
            }
            eprintln!("wrote {ops} churn ops to {out_churn}");
        }
    } else if args.get("out-churn").is_some() {
        return Err("--out-churn requires --out-subscriptions".into());
    }
    Ok(())
}

/// Subscription-sets text format: one user per line, comma-separated author
/// ids (`-` for an empty set); `#` comments and blank lines ignored.
fn write_subscription_sets(
    sets: &[Vec<firehose::stream::AuthorId>],
    w: &mut impl Write,
) -> std::io::Result<()> {
    for set in sets {
        if set.is_empty() {
            writeln!(w, "-")?;
        } else {
            let line: Vec<String> = set.iter().map(|a| a.to_string()).collect();
            writeln!(w, "{}", line.join(","))?;
        }
    }
    Ok(())
}

fn read_subscription_sets(path: &str) -> Result<Vec<Vec<firehose::stream::AuthorId>>, String> {
    use std::io::BufRead;
    let mut sets = Vec::new();
    for (lineno, line) in open_reader(path)?.lines().enumerate() {
        let line = line.map_err(|e| format!("{path} line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "-" {
            sets.push(Vec::new());
            continue;
        }
        let set = line
            .split(',')
            .map(|a| {
                a.trim()
                    .parse()
                    .map_err(|e| format!("{path} line {}: bad author {a:?}: {e}", lineno + 1))
            })
            .collect::<Result<_, _>>()?;
        sets.push(set);
    }
    Ok(sets)
}

fn cmd_build_graph(args: &Args) -> Result<(), String> {
    let follower_path = args.require("follower")?;
    let out = args.require("out")?;
    let lambda_a: f64 = args.parse_or("lambda-a", 0.7)?;
    let threads: usize = args.parse_or(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    )?;

    let follower =
        graph_io::read_follower(&mut open_reader(follower_path)?).map_err(|e| e.to_string())?;
    let graph = build_similarity_graph_parallel(&follower, lambda_a, threads);
    graph_io::write_undirected(&graph, &mut create_writer(out)?).map_err(|e| e.to_string())?;
    eprintln!(
        "similarity graph at λa={lambda_a}: {} authors, {} edges, avg degree {:.1} -> {out}",
        graph.node_count(),
        graph.edge_count(),
        graph.average_degree()
    );
    Ok(())
}

fn cmd_cover(args: &Args) -> Result<(), String> {
    let graph_path = args.require("graph")?;
    let out = args.require("out")?;
    let graph =
        graph_io::read_undirected(&mut open_reader(graph_path)?).map_err(|e| e.to_string())?;
    let cover = greedy_clique_cover(&graph);
    graph_io::write_cover(&cover, graph.node_count(), &mut create_writer(out)?)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "clique edge cover: {} cliques, avg size {:.1}, {:.1} cliques/author -> {out}",
        cover.count(),
        cover.avg_clique_size(),
        cover.avg_cliques_per_member()
    );
    Ok(())
}

fn load_graph_for_posts(graph_path: &str, posts: &[Post]) -> Result<Arc<UndirectedGraph>, String> {
    let graph =
        graph_io::read_undirected(&mut open_reader(graph_path)?).map_err(|e| e.to_string())?;
    if let Some(max_author) = posts.iter().map(|p| p.author).max() {
        if max_author as usize >= graph.node_count() {
            return Err(format!(
                "posts reference author {max_author} but the graph has only {} authors",
                graph.node_count()
            ));
        }
    }
    Ok(Arc::new(graph))
}

fn algorithm_from(args: &Args) -> Result<AlgorithmKind, String> {
    match args.get("algorithm").unwrap_or("unibin") {
        "unibin" => Ok(AlgorithmKind::UniBin),
        "neighborbin" => Ok(AlgorithmKind::NeighborBin),
        "cliquebin" => Ok(AlgorithmKind::CliqueBin),
        other => Err(format!("unknown --algorithm {other:?}")),
    }
}

fn guard_config_from(args: &Args) -> Result<Option<GuardConfig>, String> {
    let Some(policy) = args.get("guard") else {
        return Ok(None);
    };
    let bound_ms: u64 = args.parse_or("reorder-bound-ms", 0)?;
    let policy = match policy {
        "strict" => GuardPolicy::Strict,
        "clamp" => GuardPolicy::Clamp,
        "reorder" => GuardPolicy::Reorder { bound_ms },
        other => return Err(format!("unknown --guard {other:?}")),
    };
    Ok(Some(GuardConfig::new(policy)))
}

/// `--overload block|shed|reject[:CAPACITY]` — admission policy for the
/// service ingest queue, with an optional queue capacity suffix.
fn overload_config_from(args: &Args) -> Result<Option<OverloadConfig>, String> {
    let Some(spec) = args.get("overload") else {
        return Ok(None);
    };
    let (policy, capacity) = match spec.split_once(':') {
        Some((p, cap)) => {
            let capacity: usize = cap
                .parse()
                .map_err(|e| format!("bad --overload capacity {cap:?}: {e}"))?;
            if capacity == 0 {
                return Err("--overload capacity must be at least 1".into());
            }
            (p, capacity)
        }
        None => (spec, OverloadConfig::default().capacity),
    };
    let policy: OverloadPolicy = policy
        .parse()
        .map_err(|e| format!("bad --overload {spec:?}: {e}"))?;
    Ok(Some(OverloadConfig { policy, capacity }))
}

/// `--strategy shared|sharded[:N]` (default `shared`); `sharded[:N]` builds
/// exactly what `shared` builds. The removed `--strategy parallel[:N]` and
/// `--strategy independent` are refused by name rather than reported as an
/// unknown strategy.
fn strategy_from(args: &Args) -> Result<StrategyKind, String> {
    let spec = args.get("strategy").unwrap_or("shared");
    if spec == "parallel" || spec.starts_with("parallel:") {
        return Err(REMOVED_SHARDING.into());
    }
    if spec == "independent" || spec == "m" {
        return Err(REMOVED_INDEPENDENT.into());
    }
    spec.parse()
}

/// The multi-user service as `run --subscriptions ...` and `serve` both
/// configure it: `--algorithm`, thresholds and `--memory`, `--guard`,
/// `--overload`, `--rate-limit`, `--checkpoint-dir`.
fn service_builder_from<'g>(
    args: &Args,
    strategy: StrategyKind,
    graph: &'g UndirectedGraph,
    subscriptions: Subscriptions,
) -> Result<FirehoseServiceBuilder<'g>, String> {
    let mut builder = FirehoseService::builder(graph, subscriptions)
        .strategy(strategy)
        .algorithm(algorithm_from(args)?)
        .engine_config(engine_config_from(args)?);
    if let Some(guard) = guard_config_from(args)? {
        builder = builder.guard(guard);
    }
    if let Some(overload) = overload_config_from(args)? {
        builder = builder.overload(overload);
    }
    if let Some(pps) = args.get("rate-limit") {
        let pps: f64 = pps
            .parse()
            .map_err(|e| format!("bad --rate-limit {pps:?}: {e}"))?;
        if !pps.is_finite() || pps <= 0.0 {
            return Err("--rate-limit must be a positive posts-per-second rate".into());
        }
        builder = builder.rate_limit(RateLimitConfig::per_author(pps));
    }
    if let Some(dir) = args.get("checkpoint-dir") {
        builder = builder.checkpoints(dir, checkpoint_policy_from(args)?);
    }
    Ok(builder)
}

fn checkpoint_policy_from(args: &Args) -> Result<CheckpointPolicy, String> {
    let every_offers: u64 =
        args.parse_or("checkpoint-every", CheckpointPolicy::default().every_offers)?;
    let secs: u64 = args.parse_or("checkpoint-secs", 5)?;
    Ok(CheckpointPolicy {
        every_offers,
        every_millis: (secs > 0).then_some(secs * 1_000),
        keep: 3,
    })
}

/// `run --subscriptions ...`: the multi-user service path. The whole
/// pipeline — guard, strategy, checkpoints, live churn — runs behind one
/// [`FirehoseService`]; `--churn-trace` replays subscription churn at the
/// recorded stream positions (op positions count *input* posts fed to the
/// service).
fn cmd_run_multi(args: &Args) -> Result<(), String> {
    let posts_path = args.require("posts")?;
    let graph_path = args.require("graph")?;
    let subs_path = args.require("subscriptions")?;
    let quiet: bool = args.parse_or("quiet", false)?;
    let strategy = strategy_from(args)?;

    let posts = corpus::read_posts(&mut open_reader(posts_path)?).map_err(|e| e.to_string())?;
    let graph = load_graph_for_posts(graph_path, &posts)?;
    let sets = read_subscription_sets(subs_path)?;
    let user_count = sets.len();
    let subscriptions =
        Subscriptions::new(graph.node_count(), sets).map_err(|e| format!("{subs_path}: {e}"))?;

    let mut service = service_builder_from(args, strategy, &graph, subscriptions)?
        .build()
        .map_err(|e| e.to_string())?;

    let trace: Vec<TracedOp> = match args.get("churn-trace") {
        Some(path) => read_churn_trace(open_reader(path)?).map_err(|e| format!("{path}: {e}"))?,
        None => Vec::new(),
    };
    let mut next_op = 0;

    let started = std::time::Instant::now();
    let mut emitted: Vec<Post> = Vec::new();
    let mut deliveries: u64 = 0;
    for (i, post) in posts.iter().enumerate() {
        while next_op < trace.len() && trace[next_op].after_posts <= i as u64 {
            let op = &trace[next_op].op;
            service
                .apply(op)
                .map_err(|e| format!("churn trace op {}: {e}", trace[next_op]))?;
            next_op += 1;
        }
        service
            .process(post.clone(), |post, decision| {
                if !decision.delivered_to.is_empty() {
                    deliveries += decision.delivered_to.len() as u64;
                    emitted.push(post.clone());
                }
            })
            .map_err(|e| format!("service error: {e}"))?;
    }
    for entry in &trace[next_op..] {
        service
            .apply(&entry.op)
            .map_err(|e| format!("churn trace op {entry}: {e}"))?;
    }
    service
        .flush(|post, decision| {
            if !decision.delivered_to.is_empty() {
                deliveries += decision.delivered_to.len() as u64;
                emitted.push(post.clone());
            }
        })
        .map_err(|e| format!("service error: {e}"))?;
    let elapsed = started.elapsed();

    if let Some(stats) = service.guard_stats() {
        eprintln!(
            "ingest guard: {} admitted, {} quarantined, {} timestamps clamped, {} reordered",
            stats.admitted,
            stats.quarantined_total(),
            stats.clamped_timestamps,
            stats.reordered
        );
    }
    let o = service.overload_stats();
    if o.shed + o.rejected + o.rate_limited > 0 {
        eprintln!(
            "overload: {} shed, {} rejected, {} rate limited",
            o.shed, o.rejected, o.rate_limited
        );
    }
    if let Some(out) = args.get("out") {
        corpus::write_posts(&emitted, &mut create_writer(out)?).map_err(|e| e.to_string())?;
    } else if !quiet {
        let stdout = std::io::stdout();
        let mut lock = BufWriter::new(stdout.lock());
        for post in &emitted {
            writeln!(
                lock,
                "{}\t{}\t{}\t{}",
                post.id, post.author, post.timestamp, post.text
            )
            .map_err(|e| e.to_string())?;
        }
    }

    let c = service.churn_stats();
    if c.ops_total() > 0 {
        eprintln!(
            "churn: {} ops ({} subscribes, {} unsubscribes, {} users added, {} removed); {} engines spawned, {} retired, {} warm starts",
            c.ops_total(),
            c.subscribes,
            c.unsubscribes,
            c.users_added,
            c.users_removed,
            c.engines_spawned,
            c.engines_retired,
            c.warm_starts
        );
    }
    let m = service.metrics();
    eprintln!(
        "{}: {} posts -> {} unique deliveries to {} users ({} total) in {:.1?}; {} engine offers, {} comparisons, peak {} records",
        service.name(),
        posts.len(),
        emitted.len(),
        user_count,
        deliveries,
        elapsed,
        m.posts_processed,
        m.comparisons,
        m.peak_copies
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if args.get("subscriptions").is_some() {
        return cmd_run_multi(args);
    }
    let posts_path = args.require("posts")?;
    let graph_path = args.require("graph")?;
    let algorithm = algorithm_from(args)?;
    let engine_config = engine_config_from(args)?;
    let quiet: bool = args.parse_or("quiet", false)?;

    let mut posts = corpus::read_posts(&mut open_reader(posts_path)?).map_err(|e| e.to_string())?;
    let graph = load_graph_for_posts(graph_path, &posts)?;

    // Hostile-input mode: sanitize through the ingest guard first, so the
    // engine (and any checkpoint/replay) sees the deterministic admitted
    // stream the algorithms assume (time-ordered, unique ids).
    if let Some(cfg) = guard_config_from(args)? {
        let cfg = cfg.with_author_count(graph.node_count() as u32);
        let (admitted, stats) = guard_stream(cfg, posts);
        eprintln!(
            "ingest guard: {} admitted, {} quarantined ({}), {} timestamps clamped, {} reordered",
            stats.admitted,
            stats.quarantined_total(),
            stats
                .counts()
                .map(|(reason, n)| format!("{}: {n}", reason.as_str()))
                .collect::<Vec<_>>()
                .join(", "),
            stats.clamped_timestamps,
            stats.reordered
        );
        posts = admitted;
    }

    // Crash-safe mode: restore the newest intact checkpoint generation (if
    // any), then auto-checkpoint at the configured cadence while running.
    let mut manager = None;
    let mut resume_at = 0usize;
    let mut engine = match args.get("checkpoint-dir") {
        None => build_engine(algorithm, engine_config, graph),
        Some(dir) => {
            let policy = checkpoint_policy_from(args)?;
            let mut mgr = CheckpointManager::new(dir, policy).map_err(|e| e.to_string())?;
            let engine = match restore_latest_valid(
                std::path::Path::new(dir),
                algorithm,
                Arc::clone(&graph),
                None,
            ) {
                Ok(restored) => {
                    for s in &restored.skipped {
                        eprintln!(
                            "warning: skipped corrupt checkpoint generation {}: {}",
                            s.generation, s.error
                        );
                    }
                    resume_at = (restored.manifest.posts_processed as usize).min(posts.len());
                    mgr.note_restored(&restored.manifest);
                    eprintln!(
                        "resumed from checkpoint generation {} ({} posts already processed)",
                        restored.manifest.generation, restored.manifest.posts_processed
                    );
                    restored.engine
                }
                Err(RestoreError::NoValidCheckpoint { skipped }) => {
                    for s in &skipped {
                        eprintln!(
                            "warning: skipped corrupt checkpoint generation {}: {}",
                            s.generation, s.error
                        );
                    }
                    build_engine(algorithm, engine_config, graph)
                }
                Err(RestoreError::Io(e)) => {
                    return Err(format!("cannot read checkpoint directory {dir}: {e}"))
                }
            };
            manager = Some(mgr);
            engine
        }
    };

    let started = std::time::Instant::now();
    let mut emitted: Vec<&Post> = Vec::new();
    for post in &posts[resume_at..] {
        if engine.offer(post).is_emitted() {
            emitted.push(post);
        }
        if let Some(mgr) = &mut manager {
            mgr.maybe_save(engine.as_ref())
                .map_err(|e| format!("checkpoint failed: {e}"))?;
        }
    }
    if let Some(mgr) = &mut manager {
        // Final checkpoint so a re-run resumes at end-of-stream.
        if posts.len() > resume_at {
            mgr.save(engine.as_ref())
                .map_err(|e| format!("checkpoint failed: {e}"))?;
        }
    }
    let elapsed = started.elapsed();

    if let Some(out) = args.get("out") {
        let owned: Vec<Post> = emitted.iter().map(|&p| p.clone()).collect();
        corpus::write_posts(&owned, &mut create_writer(out)?).map_err(|e| e.to_string())?;
    } else if !quiet {
        let stdout = std::io::stdout();
        let mut lock = BufWriter::new(stdout.lock());
        for post in &emitted {
            writeln!(
                lock,
                "{}\t{}\t{}\t{}",
                post.id, post.author, post.timestamp, post.text
            )
            .map_err(|e| e.to_string())?;
        }
    }

    let m = engine.metrics();
    eprintln!(
        "{}: {} of {} posts emitted ({:.1}% pruned) in {:.1?}; {} comparisons, {} insertions, peak {} records",
        engine.name(),
        m.posts_emitted,
        m.posts_processed,
        (1.0 - m.emit_ratio()) * 100.0,
        elapsed,
        m.comparisons,
        m.insertions,
        m.peak_copies
    );
    Ok(())
}

/// `serve`: put the multi-user service behind the TCP/HTTP front end. The
/// service is configured exactly like `run --subscriptions ...` (same
/// strategy/guard/overload/checkpoint flags), so decisions over the wire are
/// byte-identical to the in-process path on the same trace.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let graph_path = args.require("graph")?;
    let subs_path = args.require("subscriptions")?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:7878");
    let strategy = strategy_from(args)?;

    let graph =
        graph_io::read_undirected(&mut open_reader(graph_path)?).map_err(|e| e.to_string())?;
    let graph = Arc::new(graph);
    let sets = read_subscription_sets(subs_path)?;
    let subscriptions =
        Subscriptions::new(graph.node_count(), sets).map_err(|e| format!("{subs_path}: {e}"))?;

    let registry = Arc::new(Registry::new());
    let service = service_builder_from(args, strategy, &graph, subscriptions)?
        .build()
        .map_err(|e| e.to_string())?;

    let config = ServerConfig {
        max_connections: args.parse_or("max-conns", ServerConfig::default().max_connections)?,
        stream_buffer: args.parse_or("stream-buffer", ServerConfig::default().stream_buffer)?,
        idle_timeout: std::time::Duration::from_secs(args.parse_or("idle-secs", 60u64)?),
        allow_shutdown: args.parse_or("allow-shutdown", false)?,
        ..ServerConfig::default()
    };
    let server = Server::bind(listen, config).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} ({} users) on http://{}  endpoints: POST /ingest /churn [/shutdown], GET /stream/<user> /metrics /healthz",
        service.name(),
        service.subscriptions().user_count(),
        server.local_addr()
    );
    let report = server.serve(service, registry).map_err(|e| e.to_string())?;
    eprintln!(
        "served {} requests over {} connections ({} rejected); {} posts in, {} deliveries streamed ({} dropped), {} protocol errors",
        report.requests,
        report.connections_accepted,
        report.connections_rejected,
        report.posts_ingested,
        report.deliveries_streamed,
        report.deliveries_dropped,
        report.protocol_errors
    );
    Ok(())
}

fn cmd_quality(args: &Args) -> Result<(), String> {
    let posts_path = args.require("posts")?;
    let delivered_path = args.require("delivered")?;
    let graph_path = args.require("graph")?;
    let thresholds = thresholds_from(args)?;

    let posts = corpus::read_posts(&mut open_reader(posts_path)?).map_err(|e| e.to_string())?;
    let delivered =
        corpus::read_posts(&mut open_reader(delivered_path)?).map_err(|e| e.to_string())?;
    let graph = load_graph_for_posts(graph_path, &posts)?;

    let delivered_ids: std::collections::HashSet<u64> = delivered.iter().map(|p| p.id).collect();
    for post in &delivered {
        if !posts.iter().any(|p| p.id == post.id) {
            return Err(format!(
                "delivered post {} is not in the original stream",
                post.id
            ));
        }
    }
    let records: Vec<firehose::stream::PostRecord> = posts
        .iter()
        .map(|p| p.to_record(SimHashOptions::paper()))
        .collect();
    let decisions: Vec<bool> = posts
        .iter()
        .map(|p| delivered_ids.contains(&p.id))
        .collect();
    let report = evaluate(&records, &decisions, &thresholds, &graph);

    println!(
        "stream: {} posts; delivered: {} ({:.1}%)",
        report.total,
        report.delivered,
        report.delivery_ratio() * 100.0
    );
    println!(
        "coverage violations (lost posts): {}",
        report.coverage_violations
    );
    println!(
        "residual redundancy (duplicate deliveries): {}",
        report.residual_redundancy
    );
    println!(
        "verdict: {}",
        if report.is_valid_diversification() {
            "VALID diversification (Problem 1 requirements met)"
        } else {
            "NOT a valid diversification"
        }
    );
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let posts_path = args.require("posts")?;
    let graph_path = args.require("graph")?;
    let first: u64 = args
        .require("first")?
        .parse()
        .map_err(|e| format!("bad --first: {e}"))?;
    let second: u64 = args
        .require("second")?
        .parse()
        .map_err(|e| format!("bad --second: {e}"))?;
    let thresholds = thresholds_from(args)?;

    let posts = corpus::read_posts(&mut open_reader(posts_path)?).map_err(|e| e.to_string())?;
    let graph = load_graph_for_posts(graph_path, &posts)?;
    let find = |id: u64| {
        posts
            .iter()
            .find(|p| p.id == id)
            .ok_or_else(|| format!("post id {id} not found in {posts_path}"))
    };
    let (a, b) = (find(first)?, find(second)?);
    let (ra, rb) = (
        a.to_record(SimHashOptions::paper()),
        b.to_record(SimHashOptions::paper()),
    );
    let explanation = explain(&ra, &rb, &thresholds, &graph);

    println!(
        "post {first} (author {} @ {} ms): {}",
        a.author, a.timestamp, a.text
    );
    println!(
        "post {second} (author {} @ {} ms): {}",
        b.author, b.timestamp, b.text
    );
    println!("{explanation}");
    println!(
        "verdict: the posts {} cover each other{}",
        if explanation.covers { "DO" } else { "do NOT" },
        if explanation.covers {
            String::new()
        } else {
            format!(
                " (blocked by: {})",
                explanation.blocking_dimensions().join(", ")
            )
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_flags(&args.command, &args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "build-graph" => cmd_build_graph(&args),
        "cover" => cmd_cover(&args),
        "run" => cmd_run(&args),
        "serve" => cmd_serve(&args),
        "explain" => cmd_explain(&args),
        "quality" => cmd_quality(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
