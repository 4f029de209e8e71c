//! Shared experiment-harness plumbing.
//!
//! Every `src/bin/figNN_*` / `src/bin/tableN_*` binary regenerates one table
//! or figure of the paper (see `DESIGN.md` §4 for the index). They share:
//!
//! * [`Scale`] — experiment sizing, selected with the `FIREHOSE_SCALE`
//!   environment variable (`test` / `bench` (default) / `paper`);
//! * [`Dataset`] — the synthetic social graph + one-day workload, generated
//!   once per process;
//! * [`run_spsd`] — run one single-user engine over a stream, timed, with
//!   the four reported quantities (time / RAM / comparisons / insertions);
//! * [`Report`] — aligned stdout tables plus CSV files under `results/`.
//!
//! Performance claims are not made here: they cite the workloads and
//! metrics of `BENCHMARK.json`, measured by the `benchmark/` package.

use std::sync::Arc;
use std::time::Instant;

use firehose_core::engine::{build_engine, AlgorithmKind};
use firehose_core::{EngineConfig, EngineMetrics, Thresholds};
use firehose_datagen::{SocialGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig};
use firehose_graph::{build_similarity_graph_parallel, UndirectedGraph};
use firehose_stream::Post;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny — smoke-testing the harness itself (CI).
    Test,
    /// Default — ≈1/5 of the paper's author count, minutes per figure.
    Bench,
    /// Full paper scale — 20,150 authors, 213k posts.
    Paper,
}

impl Scale {
    /// Read `FIREHOSE_SCALE` (default [`Scale::Bench`]).
    pub fn from_env() -> Self {
        match std::env::var("FIREHOSE_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            Ok("paper") => Scale::Paper,
            Ok("bench") | Err(_) => Scale::Bench,
            Ok(other) => {
                eprintln!("unknown FIREHOSE_SCALE={other:?}, using bench");
                Scale::Bench
            }
        }
    }

    /// The social-graph generator configuration for this scale.
    pub fn social_config(self) -> SocialGenConfig {
        match self {
            Scale::Test => SocialGenConfig::test_scale(),
            Scale::Bench => SocialGenConfig::bench_scale(),
            Scale::Paper => SocialGenConfig::paper_scale(),
        }
    }

    /// The workload configuration for this scale (the paper's one-day,
    /// ~10.6 posts/author/day stream; `Test` shrinks the day to 2 hours).
    pub fn workload_config(self) -> WorkloadConfig {
        match self {
            Scale::Test => WorkloadConfig {
                duration: firehose_stream::hours(2),
                ..WorkloadConfig::default()
            },
            _ => WorkloadConfig::default(),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        })
    }
}

/// A fully generated experiment input: authors, follower graph, one-day
/// stream.
pub struct Dataset {
    /// The sizing used.
    pub scale: Scale,
    /// The synthetic follower graph with community structure.
    pub social: SyntheticSocialGraph,
    /// The one-day post stream.
    pub workload: Workload,
}

impl Dataset {
    /// Generate the dataset for `scale`, logging progress to stderr.
    pub fn generate(scale: Scale) -> Self {
        let t0 = Instant::now();
        let social = SyntheticSocialGraph::generate(scale.social_config());
        eprintln!(
            "[dataset] social graph: {} authors, {} follows ({:.1?})",
            social.author_count(),
            social.graph.edge_count(),
            t0.elapsed()
        );
        let t1 = Instant::now();
        let workload = Workload::generate(&social, scale.workload_config());
        eprintln!(
            "[dataset] workload: {} posts, {:.1}% generated as near-duplicates ({:.1?})",
            workload.len(),
            workload.duplicate_fraction() * 100.0,
            t1.elapsed()
        );
        Self {
            scale,
            social,
            workload,
        }
    }

    /// Generate for the environment-selected scale.
    pub fn from_env() -> Self {
        Self::generate(Scale::from_env())
    }

    /// Build (and log) the author similarity graph at `lambda_a`.
    pub fn similarity_graph(&self, lambda_a: f64) -> Arc<UndirectedGraph> {
        let t0 = Instant::now();
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        let g = build_similarity_graph_parallel(&self.social.graph, lambda_a, threads);
        eprintln!(
            "[dataset] similarity graph λa={lambda_a}: {} edges, avg degree {:.1} ({:.1?})",
            g.edge_count(),
            g.average_degree(),
            t0.elapsed()
        );
        Arc::new(g)
    }
}

/// One engine run over one stream: the four quantities of Figures 11–16.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Which engine ran.
    pub kind: AlgorithmKind,
    /// Wall-clock ingest time for the whole stream.
    pub elapsed_ms: f64,
    /// Counters (comparisons, insertions, peak RAM, emitted).
    pub metrics: EngineMetrics,
}

impl RunStats {
    /// Peak RAM in MiB (record payload).
    pub fn peak_ram_mib(&self) -> f64 {
        self.metrics.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Mean stream rate of `posts` in posts/second (0 when the stream spans no
/// time), used as the engines' bin-presizing hint.
pub fn stream_rate(posts: &[Post]) -> f64 {
    let (first, last) = match (posts.first(), posts.last()) {
        (Some(f), Some(l)) if l.timestamp > f.timestamp => (f.timestamp, l.timestamp),
        _ => return 0.0,
    };
    posts.len() as f64 / ((last - first) as f64 / 1_000.0)
}

/// Run a fresh engine of `kind` over `posts` under `thresholds`.
pub fn run_spsd(
    kind: AlgorithmKind,
    thresholds: Thresholds,
    graph: Arc<UndirectedGraph>,
    posts: &[Post],
) -> RunStats {
    let config = EngineConfig::builder(thresholds)
        .expected_rate(stream_rate(posts))
        .build();
    let mut engine = build_engine(kind, config, graph);
    let t0 = Instant::now();
    for post in posts {
        engine.offer(post);
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    RunStats {
        kind,
        elapsed_ms,
        metrics: *engine.metrics(),
    }
}

/// Run all three algorithms over the same stream (fresh engines each).
pub fn run_all(
    thresholds: Thresholds,
    graph: &Arc<UndirectedGraph>,
    posts: &[Post],
) -> Vec<RunStats> {
    AlgorithmKind::ALL
        .into_iter()
        .map(|kind| {
            let stats = run_spsd(kind, thresholds, Arc::clone(graph), posts);
            eprintln!(
                "[run] {kind}: {:.0} ms, peak {:.1} MiB, {} comparisons, {} insertions, emitted {}/{}",
                stats.elapsed_ms,
                stats.peak_ram_mib(),
                stats.metrics.comparisons,
                stats.metrics.insertions,
                stats.metrics.posts_emitted,
                stats.metrics.posts_processed,
            );
            stats
        })
        .collect()
}

/// The standard header of the Figure 11–15 sweep tables.
pub const SWEEP_HEADER: [&str; 6] = [
    "setting",
    "algorithm",
    "time_ms",
    "peak_ram_mib",
    "comparisons",
    "insertions",
];

/// Append one sweep row per algorithm run.
pub fn sweep_rows(report: &mut Report, setting: &str, stats: &[RunStats]) {
    for s in stats {
        report.row(&[
            setting.to_string(),
            s.kind.to_string(),
            f1(s.elapsed_ms),
            format!("{:.2}", s.peak_ram_mib()),
            s.metrics.comparisons.to_string(),
            s.metrics.insertions.to_string(),
        ]);
    }
}

/// Aligned-table + CSV reporting.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// New report named after the experiment (used for the CSV filename).
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print the aligned table to stdout and write `results/<name>.csv`.
    pub fn finish(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        println!("== {} ==", self.name);
        print_row(&self.header);
        for row in &self.rows {
            print_row(row);
        }

        if let Err(e) = self.write_csv() {
            eprintln!("[report] could not write CSV: {e}");
        }
    }

    fn write_csv(&self) -> std::io::Result<()> {
        use std::io::Write;
        std::fs::create_dir_all("results")?;
        let path = format!("results/{}.csv", self.name);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()?;
        eprintln!("[report] wrote {path}");
        Ok(())
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_bench() {
        // Note: from_env reads the live environment; only check the default
        // when the variable is absent.
        if std::env::var("FIREHOSE_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Bench);
        }
    }

    #[test]
    fn scale_configs_are_ordered() {
        assert!(Scale::Test.social_config().authors < Scale::Bench.social_config().authors);
        assert!(Scale::Bench.social_config().authors < Scale::Paper.social_config().authors);
    }

    #[test]
    fn stream_rate_is_posts_per_second() {
        let posts: Vec<Post> = (0..11u64)
            .map(|i| Post::new(i, 0, i * 100, "x".into()))
            .collect();
        // 11 posts over 1 s of stream time.
        assert!((stream_rate(&posts) - 11.0).abs() < 1e-9);
        assert_eq!(stream_rate(&[]), 0.0);
        assert_eq!(stream_rate(&posts[..1]), 0.0);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("unit_test_report", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn report_rejects_bad_row() {
        let mut r = Report::new("x", &["a"]);
        r.row(&["1".into(), "2".into()]);
    }
}
