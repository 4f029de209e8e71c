//! One run of one workload: inputs from the seed, set-up, the measured
//! phase, the output check, and the metrics. This is what the driver's
//! command line executes, and what `benchmark run` starts one child of per
//! workload.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use firehose_core::multi::Subscriptions;
use firehose_core::service::{FirehoseService, FirehoseServiceBuilder, StrategyKind};
use firehose_core::{EngineConfig, Thresholds};
use firehose_graph::io as graph_io;
use firehose_graph::UndirectedGraph;
use firehose_stream::minutes;

use crate::inputs::Inputs;
use crate::report::{self, Outcome, RunInfo};
use crate::spec::{self, Kind, Params};
use crate::trace::Tracer;
use crate::{inproc, ledger, probes, stats, sut, wire};

/// What a pass measures besides doing its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// One clock around the whole pass: the throughput sample.
    Untimed,
    /// One clock per operation: the latency samples.
    Clocked,
    /// Spans around each call into a layer, one per batch.
    Traced,
}

/// The measured phase: passes of fixed size, repeated for `seconds`.
pub struct Phase {
    started: Instant,
    seconds: f64,
    cycle: &'static [PassKind],
    yielded: usize,
}

impl Phase {
    pub fn new(seconds: f64, cycle: &'static [PassKind]) -> Self {
        Self {
            started: Instant::now(),
            seconds,
            cycle,
            yielded: 0,
        }
    }

    /// The kind of the next pass, or `None` when the phase is over. Every
    /// kind of the cycle runs at least once; after that a pass starts only
    /// if half of an average pass still fits the time left.
    pub fn next_pass(&mut self) -> Option<PassKind> {
        let elapsed = self.started.elapsed().as_secs_f64();
        if self.yielded >= self.cycle.len() {
            let mean_pass = elapsed / self.yielded as f64;
            if elapsed + mean_pass / 2.0 >= self.seconds {
                return None;
            }
        }
        let kind = self.cycle[self.yielded % self.cycle.len()];
        self.yielded += 1;
        Some(kind)
    }
}

/// Everything a workload runner needs.
pub struct Run<'a> {
    pub params: Params,
    pub seconds: f64,
    pub traced: bool,
    pub inputs: &'a Inputs,
    pub firehose: &'a Path,
    /// The similarity graph `firehose build-graph` wrote.
    pub graph_path: PathBuf,
    pub tracer: Tracer,
    pub out: Outcome,
    /// Seconds from "input files on disk" to "ready for the first post",
    /// one sample per pass, graph build excluded.
    pub start_s: Vec<f64>,
}

impl Run<'_> {
    pub fn thresholds(&self) -> Thresholds {
        Thresholds::new(spec::LAMBDA_C, minutes(spec::LAMBDA_T_MIN), spec::LAMBDA_A)
            .expect("the paper's thresholds are valid")
    }

    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::builder(self.thresholds())
            .expected_rate(self.inputs.stream_rate)
            .build()
    }

    /// Load the similarity graph file, as an embedder or `firehose serve`
    /// does at start-up.
    pub fn load_graph(&self) -> Result<Arc<UndirectedGraph>, String> {
        let file = std::fs::File::open(&self.graph_path)
            .map_err(|e| format!("cannot open {}: {e}", self.graph_path.display()))?;
        graph_io::read_undirected(&mut std::io::BufReader::new(file))
            .map(Arc::new)
            .map_err(|e| format!("{}: {e}", self.graph_path.display()))
    }

    /// A service builder over `graph` with this run's subscription table
    /// and engine configuration; the caller adds what else it needs.
    pub fn service_builder<'g>(
        &self,
        graph: &'g UndirectedGraph,
        strategy: StrategyKind,
    ) -> Result<FirehoseServiceBuilder<'g>, String> {
        let follows = self.inputs.follows.iter().cloned();
        let subscriptions = Subscriptions::new(self.inputs.author_count, follows)
            .map_err(|e| format!("the generated subscriptions are invalid: {e}"))?;
        Ok(FirehoseService::builder(graph, subscriptions)
            .strategy(strategy)
            .engine_config(self.engine_config()))
    }

    /// The cycle of pass kinds for this mode. `clocked` says whether the
    /// workload needs a pass of its own to clock single operations.
    pub fn phase(&self, clocked: bool) -> Phase {
        let cycle: &'static [PassKind] = match (self.traced, clocked) {
            (true, _) => &[PassKind::Untimed, PassKind::Traced],
            (false, true) => &[PassKind::Untimed, PassKind::Clocked],
            (false, false) => &[PassKind::Untimed],
        };
        Phase::new(self.seconds, cycle)
    }
}

/// Shards of the served strategy: the host's cores less the one the load
/// generator needs, at least one.
pub fn shards() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).max(1)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Run one workload and print its result. `Err` means the run has no
/// result: the caller exits non-zero without a result line.
pub fn execute(args: &Args) -> Result<(), String> {
    let params = spec::params(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; the workloads are {}",
            args.workload,
            spec::WORKLOADS.join(", ")
        )
    })?;
    let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root: run the benchmark from a checkout",
            root.display()
        ));
    }
    let firehose = sut::build_firehose(&root)?;
    if matches!(params.kind, Kind::Wire) && !args.smoke {
        // Only the served workloads: their process under test is a child
        // that starts cold, and this process's own peak is not reported.
        sut::prefault(spec::PREFAULT_MB);
    }

    let dir = root.join(format!(
        "benchmark/out/{}-{:x}-{}",
        params.name,
        args.seed,
        std::process::id()
    ));
    let result = execute_in(args, params, &firehose, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn execute_in(args: &Args, params: Params, firehose: &Path, dir: &Path) -> Result<(), String> {
    let planned_passes = if args.traced { 2.0 } else { 1.0 };
    let open_loop_posts =
        (params.rate as f64 * args.seconds / planned_passes) as usize / params.batch * params.batch;
    let inputs = Inputs::generate(&params, args.seed, args.smoke, open_loop_posts, dir)?;

    // Set-up, part one: the similarity graph, built by the program itself.
    let graph_path = dir.join("similarity.fhg");
    let builds = if args.traced { 1 } else { spec::GRAPH_BUILDS };
    let mut graph_s = Vec::with_capacity(builds);
    for _ in 0..builds {
        let took = sut::build_graph(firehose, &inputs.follower_path, spec::LAMBDA_A, &graph_path)?;
        graph_s.push(took.as_secs_f64());
    }

    let mut run = Run {
        params,
        seconds: args.seconds,
        traced: args.traced,
        inputs: &inputs,
        firehose,
        graph_path,
        tracer: Tracer::new(args.traced),
        out: Outcome::default(),
        start_s: Vec::new(),
    };
    let strategy = match params.kind {
        Kind::Spsd { .. } => {
            inproc::run_spsd(&mut run)?;
            "none".to_string()
        }
        Kind::Mspsd => {
            inproc::run_mspsd(&mut run)?;
            "shared".to_string()
        }
        Kind::Wire => {
            wire::run(&mut run)?;
            wire::strategy(&params)
        }
    };

    let graph_build_s = stats::median(&graph_s).expect("at least one graph build");
    let start_s = stats::median(&run.start_s).ok_or("the workload never started its system")?;
    run.out
        .set("setup_s", graph_build_s + start_s, run.start_s.len() as u64);
    if args.traced {
        run.out.set(
            "graph.similarity_build_s",
            graph_build_s,
            graph_s.len() as u64,
        );
        run.out
            .set("service.build_s", start_s, run.start_s.len() as u64);
        run.out.set("loadgen.gen_s", inputs.gen_s, 1);
        probes::run_all(&mut run)?;
        ledger::check(&mut run)?;
        let path = Path::new("benchmark/out").join(format!("trace-{}.json", params.name));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        run.tracer
            .write(&mut w)
            .and_then(|()| std::io::Write::flush(&mut w))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let info = RunInfo {
        params: &params,
        seed: args.seed,
        smoke: args.smoke,
        traced: args.traced,
        seconds: args.seconds,
        shards: if matches!(params.kind, Kind::Wire) {
            shards()
        } else {
            0
        },
        strategy,
    };
    let defs = if args.traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    report::print_human(&info, &run.out, defs);
    let line = report::driver_line(&run.out, defs, args.traced)?;
    println!("{}", report::row_json(&info, &run.out, defs));
    println!("{line}");
    if run.out.divergent > 0 {
        // The line above says `"correct": false`; the exit code says so too.
        return Err(format!(
            "{}: {} decisions or deliveries differ from the oracle",
            params.name, run.out.divergent
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_runs_every_kind_once_even_with_no_time() {
        let mut phase = Phase::new(0.0, &[PassKind::Untimed, PassKind::Clocked]);
        assert_eq!(phase.next_pass(), Some(PassKind::Untimed));
        assert_eq!(phase.next_pass(), Some(PassKind::Clocked));
        assert_eq!(phase.next_pass(), None);
    }

    #[test]
    fn a_phase_alternates_until_its_time_is_up() {
        let mut phase = Phase::new(0.05, &[PassKind::Untimed, PassKind::Traced]);
        let mut kinds = Vec::new();
        while let Some(kind) = phase.next_pass() {
            kinds.push(kind);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            kinds.len() >= 4 && kinds.len() <= 14,
            "{} passes",
            kinds.len()
        );
        assert!(kinds.chunks(2).all(|c| c[0] == PassKind::Untimed));
        assert!(kinds
            .iter()
            .skip(1)
            .step_by(2)
            .all(|k| *k == PassKind::Traced));
    }

    #[test]
    fn at_least_one_shard() {
        assert!(shards() >= 1);
    }
}
