//! End-to-end tests of the `firehose` CLI: generate → build-graph → cover →
//! run → explain over real files in a temp directory.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_firehose");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("firehose_cli_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_ok(args: &[&str]) -> (String, String) {
    let output = Command::new(BIN).args(args).output().expect("spawn CLI");
    assert!(
        output.status.success(),
        "firehose {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn run_err(args: &[&str]) -> String {
    let output = Command::new(BIN).args(args).output().expect("spawn CLI");
    assert_eq!(
        output.status.code(),
        Some(1),
        "firehose {args:?} must fail with exit 1"
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn full_pipeline() {
    let dir = TempDir::new("pipeline");
    let posts = dir.path("posts.tsv");
    let follower = dir.path("follower.fhf");
    let graph = dir.path("sim.fhg");
    let cover = dir.path("cover.fhc");
    let out = dir.path("diversified.tsv");

    let (_, err) = run_ok(&[
        "generate",
        "--authors",
        "300",
        "--hours",
        "3",
        "--seed",
        "7",
        "--out-posts",
        &posts,
        "--out-follower",
        &follower,
    ]);
    assert!(err.contains("300 authors"), "{err}");

    let (_, err) = run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);
    assert!(err.contains("similarity graph"), "{err}");

    let (_, err) = run_ok(&["cover", "--graph", &graph, "--out", &cover]);
    assert!(err.contains("clique edge cover"), "{err}");

    // Run all three algorithms; they must emit identical counts.
    let mut emitted_counts = Vec::new();
    for algorithm in ["unibin", "neighborbin", "cliquebin"] {
        let (_, err) = run_ok(&[
            "run",
            "--posts",
            &posts,
            "--graph",
            &graph,
            "--algorithm",
            algorithm,
            "--out",
            &out,
        ]);
        let line = err.lines().last().unwrap_or_default().to_string();
        let emitted: u64 = line
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(" of").next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable stats line: {line}"));
        emitted_counts.push(emitted);
        let diversified = std::fs::read_to_string(&out).expect("output written");
        assert_eq!(diversified.lines().count() as u64, emitted);
    }
    assert_eq!(emitted_counts[0], emitted_counts[1]);
    assert_eq!(emitted_counts[0], emitted_counts[2]);

    // Quality: the run output must be a valid diversification.
    let (stdout, _) = run_ok(&[
        "quality",
        "--posts",
        &posts,
        "--delivered",
        &out,
        "--graph",
        &graph,
    ]);
    assert!(
        stdout.contains("coverage violations (lost posts): 0"),
        "{stdout}"
    );
    assert!(stdout.contains("VALID diversification"), "{stdout}");

    // Explain a pair.
    let (stdout, _) = run_ok(&[
        "explain", "--posts", &posts, "--graph", &graph, "--first", "0", "--second", "1",
    ]);
    assert!(stdout.contains("verdict:"), "{stdout}");
    assert!(stdout.contains("content"), "{stdout}");
}

#[test]
fn helpful_errors() {
    let err = run_err(&["run", "--graph", "nowhere.fhg"]);
    assert!(err.contains("missing required --posts"), "{err}");

    let err = run_err(&["frobnicate"]);
    assert!(err.contains("unknown command"), "{err}");

    let err = run_err(&["run", "--posts"]);
    assert!(err.contains("flag without value"), "{err}");

    let dir = TempDir::new("errors");
    let missing = dir.path("missing.tsv");
    let err = run_err(&["run", "--posts", &missing, "--graph", &missing]);
    assert!(err.contains("cannot open"), "{err}");

    // The removed `--shards N` and `--strategy parallel[:N]` are refused by
    // name, not ignored or reported as an unknown strategy.
    let multi = ["--graph", &missing, "--subscriptions", &missing];
    let err = run_err(
        &[
            &["run", "--posts", &missing],
            &multi[..],
            &["--strategy", "shared", "--shards", "2"],
        ]
        .concat(),
    );
    assert!(err.contains("use --strategy sharded[:N]"), "{err}");
    let err = run_err(&[&["serve"], &multi[..], &["--strategy", "parallel:2"]].concat());
    assert!(err.contains("use --strategy sharded[:N]"), "{err}");
}

/// One engine per user left the service: `--strategy independent` (and its
/// short form `m`) is refused by name, pointing at the paper reference and
/// at `shared`, which delivers the same per-user streams.
#[test]
fn independent_is_refused_naming_strategy() {
    let dir = TempDir::new("independent");
    let missing = dir.path("missing.tsv");
    let multi = ["--graph", &missing, "--subscriptions", &missing];
    for command in [&["run", "--posts", &missing][..], &["serve"][..]] {
        for spec in ["independent", "m"] {
            let err = run_err(&[command, &multi[..], &["--strategy", spec]].concat());
            assert!(
                err.contains("--strategy independent"),
                "{command:?} {spec}: {err}"
            );
            assert!(err.contains("fig16_mspsd"), "{command:?} {spec}: {err}");
            assert!(
                err.contains("--strategy shared"),
                "{command:?} {spec}: {err}"
            );
        }
    }
}

/// The multi-user engine keeps one exact window: `--memory approx` is
/// refused by `run --subscriptions` and `serve`, naming `--memory`, while
/// single-engine `run` still accepts it.
#[test]
fn approx_memory_is_refused_for_multi_user() {
    let dir = TempDir::new("approx_multi");
    let missing = dir.path("missing.tsv");
    let multi = ["--graph", &missing, "--subscriptions", &missing];
    for command in [&["run", "--posts", &missing][..], &["serve"][..]] {
        for spec in ["approx", "approx:8"] {
            let err = run_err(&[command, &multi[..], &["--memory", spec]].concat());
            assert!(err.contains("--memory"), "{command:?} {spec}: {err}");
            assert!(err.contains("single-engine"), "{command:?} {spec}: {err}");
        }
    }

    let posts = dir.path("posts.tsv");
    let follower = dir.path("follower.fhf");
    let graph = dir.path("sim.fhg");
    let out = dir.path("out.tsv");
    run_ok(&[
        "generate",
        "--authors",
        "100",
        "--hours",
        "1",
        "--out-posts",
        &posts,
        "--out-follower",
        &follower,
    ]);
    run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);
    run_ok(&[
        "run", "--posts", &posts, "--graph", &graph, "--memory", "approx", "--out", &out,
    ]);
}

#[test]
fn sharded_zero_is_refused_naming_strategy() {
    let dir = TempDir::new("sharded_zero");
    let missing = dir.path("missing.tsv");
    let multi = ["--graph", &missing, "--subscriptions", &missing];
    for command in [&["run", "--posts", &missing][..], &["serve"][..]] {
        let err = run_err(&[command, &multi[..], &["--strategy", "sharded:0"]].concat());
        assert!(err.contains("--strategy"), "{command:?}: {err}");
    }
}

/// `--strategy sharded:N` is a spelling of `shared`: the same output file and
/// the same stderr lines, wall time aside.
#[test]
fn sharded_runs_exactly_what_shared_runs() {
    let dir = TempDir::new("sharded_spelling");
    let posts = dir.path("posts.tsv");
    let follower = dir.path("follower.fhf");
    let subs = dir.path("subs.tsv");
    let churn = dir.path("churn.tsv");
    let graph = dir.path("sim.fhg");
    run_ok(&[
        "generate",
        "--authors",
        "300",
        "--hours",
        "1",
        "--users",
        "20",
        "--out-subscriptions",
        &subs,
        "--churn-ops",
        "10",
        "--out-churn",
        &churn,
        "--out-posts",
        &posts,
        "--out-follower",
        &follower,
    ]);
    run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);

    let run = |strategy: &str| {
        let out = dir.path(&format!("out-{strategy}.tsv"));
        let (_, err) = run_ok(&[
            "run",
            "--posts",
            &posts,
            "--graph",
            &graph,
            "--subscriptions",
            &subs,
            "--strategy",
            strategy,
            "--churn-trace",
            &churn,
            "--out",
            &out,
        ]);
        // The summary line reads `... (<n> total) in <wall time>; ...`.
        let err: Vec<String> = err
            .lines()
            .map(|line| match line.split_once(") in ") {
                Some((head, tail)) => format!("{head}){}", &tail[tail.find(';').unwrap()..]),
                None => line.to_string(),
            })
            .collect();
        (std::fs::read(&out).expect("output written"), err)
    };
    let (shared_out, shared_err) = run("shared");
    let (sharded_out, sharded_err) = run("sharded:2");
    assert!(!shared_out.is_empty());
    assert_eq!(sharded_out, shared_out);
    assert!(
        shared_err.iter().any(|l| l.starts_with("churn: ")),
        "{shared_err:?}"
    );
    assert_eq!(sharded_err, shared_err);
}

#[test]
fn run_rejects_mismatched_graph() {
    let dir = TempDir::new("mismatch");
    let posts = dir.path("posts.tsv");
    let follower = dir.path("follower.fhf");
    let graph = dir.path("sim.fhg");
    run_ok(&[
        "generate",
        "--authors",
        "300",
        "--hours",
        "1",
        "--out-posts",
        &posts,
        "--out-follower",
        &follower,
    ]);
    run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);

    // A corpus referencing authors beyond the graph must be rejected.
    std::fs::write(&posts, "1\t9999\t0\tsome text here\n").unwrap();
    let err = run_err(&["run", "--posts", &posts, "--graph", &graph]);
    assert!(err.contains("author 9999"), "{err}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _) = run_ok(&["help"]);
    assert!(stdout.contains("usage: firehose"));
    assert!(stdout.contains("build-graph"));
}

#[test]
fn misspelled_and_repeated_flags_are_refused() {
    let dir = TempDir::new("flags");
    let posts = dir.path("p.tsv");
    let graph = dir.path("g.fhg");
    let base = ["run", "--posts", &posts, "--graph", &graph];

    let err = run_err(&[&base[..], &["--lamda-c", "0"]].concat());
    assert!(err.contains("unknown flag --lamda-c"), "{err}");

    let err = run_err(&[&base[..], &["--lambda-c", "0", "--lambda-c", "30"]].concat());
    assert!(err.contains("--lambda-c given more than once"), "{err}");

    // A flag another subcommand takes is still unknown here.
    let err = run_err(&[
        "cover",
        "--graph",
        &graph,
        "--out",
        &posts,
        "--lambda-a",
        "0.7",
    ]);
    assert!(err.contains("unknown flag --lambda-a for `cover`"), "{err}");
}

#[test]
fn generate_rejects_too_few_authors() {
    let dir = TempDir::new("few_authors");
    let err = run_err(&[
        "generate",
        "--authors",
        "50",
        "--out-posts",
        &dir.path("p.tsv"),
        "--out-follower",
        &dir.path("f.fhf"),
    ]);
    assert!(err.contains("--authors 50"), "{err}");
    assert!(err.contains("at least 79 authors"), "{err}");
}
