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

/// The admission queue is gone: `--overload` is an unknown flag on both
/// multi-user commands.
#[test]
fn overload_is_refused_as_unknown_flag() {
    let dir = TempDir::new("overload");
    let missing = dir.path("missing.tsv");
    let multi = ["--graph", &missing, "--subscriptions", &missing];
    for (command, policy) in [
        (&["run", "--posts", &missing][..], "shed"),
        (&["serve"][..], "reject"),
    ] {
        let err = run_err(&[command, &multi[..], &["--overload", policy]].concat());
        assert!(err.contains("--overload"), "{command:?}: {err}");
    }
}

/// `--rate-limit` takes a positive finite rate; a tripped limit prints
/// `rate limited: N`, and the drops are the same on every run.
#[test]
fn rate_limit_is_validated_and_deterministic() {
    let dir = TempDir::new("rate_limit");
    let posts = dir.path("posts.tsv");
    let follower = dir.path("follower.fhf");
    let subs = dir.path("subs.tsv");
    let graph = dir.path("sim.fhg");
    run_ok(&[
        "generate",
        "--authors",
        "300",
        "--hours",
        "1",
        "--users",
        "10",
        "--out-subscriptions",
        &subs,
        "--out-posts",
        &posts,
        "--out-follower",
        &follower,
    ]);
    run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);
    let multi = [
        "run",
        "--posts",
        &posts,
        "--graph",
        &graph,
        "--subscriptions",
        &subs,
    ];

    for rate in ["0", "nan"] {
        let err = run_err(&[&multi[..], &["--rate-limit", rate]].concat());
        assert!(err.contains("--rate-limit"), "{rate}: {err}");
    }

    let run = |tag: &str| {
        let out = dir.path(&format!("out-{tag}.tsv"));
        let (_, err) = run_ok(&[&multi[..], &["--rate-limit", "0.001", "--out", &out]].concat());
        let limited: u64 = err
            .lines()
            .find_map(|l| l.strip_prefix("rate limited: "))
            .unwrap_or_else(|| panic!("no `rate limited` line in:\n{err}"))
            .parse()
            .expect("a count");
        (std::fs::read(&out).expect("output written"), limited)
    };
    let (first, limited) = run("a");
    assert!(limited > 0);
    assert_eq!(run("b"), (first, limited));
}

/// Every `firehose <cmd> --flag` in a fenced `sh` block of the README and
/// the verify skill names a flag `firehose help` lists for `<cmd>`.
#[test]
fn doc_commands_use_live_flags() {
    let (help, _) = run_ok(&["help"]);
    // After the `usage:` line, one section per command up to the next blank
    // line; continuation lines are indented.
    let mut accepted: Vec<(String, Vec<String>)> = Vec::new();
    let sections = help
        .lines()
        .skip(1)
        .skip_while(|l| l.trim().is_empty())
        .take_while(|l| !l.trim().is_empty());
    for line in sections {
        let mut tokens = line.split_whitespace();
        if !line.starts_with(' ') {
            let name = tokens.next().expect("a command name").to_string();
            accepted.push((name, Vec::new()));
        }
        let flags = &mut accepted.last_mut().expect("a command section").1;
        flags.extend(
            tokens.filter_map(|t| Some(flag_of(t.strip_prefix('[').unwrap_or(t))?.to_string())),
        );
    }
    assert!(accepted.iter().any(|(name, _)| name == "serve"), "{help}");

    let root = env!("CARGO_MANIFEST_DIR");
    let mut checked = 0;
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect("read doc");
        for command in sh_commands(&text) {
            let mut tokens = command.split_whitespace();
            let is_cli = tokens
                .next()
                .is_some_and(|t| t == "firehose" || t.ends_with("/firehose"));
            let Some(cmd) = tokens.next().filter(|_| is_cli) else {
                continue;
            };
            let (_, flags) = accepted
                .iter()
                .find(|(name, _)| name == cmd)
                .unwrap_or_else(|| panic!("{doc}: `firehose {cmd}` is not a command: {command}"));
            for flag in tokens.filter_map(flag_of) {
                assert!(
                    flags.iter().any(|f| f == flag),
                    "{doc}: `firehose {cmd}` takes no --{flag}: {command}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} doc commands found");
}

/// `--name` of a `--name`, `--name=value` or `--name]` token.
fn flag_of(token: &str) -> Option<&str> {
    let name = token.strip_prefix("--")?;
    name.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .next()
        .filter(|n| !n.is_empty())
}

/// The commands of every fenced `sh` block, `\` continuations joined and
/// trailing `#` comments dropped.
fn sh_commands(markdown: &str) -> Vec<String> {
    let mut commands = Vec::new();
    let mut in_sh = false;
    let mut pending = String::new();
    for line in markdown.lines() {
        let fence = line.trim_start();
        if fence.starts_with("```") {
            in_sh = !in_sh && fence == "```sh";
            continue;
        }
        if !in_sh {
            continue;
        }
        let line = line.split(" #").next().unwrap_or(line).trim_end();
        match line.strip_suffix('\\') {
            Some(head) => pending.push_str(head),
            None => {
                pending.push_str(line);
                commands.push(std::mem::take(&mut pending).trim().to_string());
            }
        }
    }
    commands
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

    // The similarity join is single-threaded: `build-graph` dropped `--threads`.
    let err = run_err(&[
        "build-graph",
        "--follower",
        &posts,
        "--out",
        &graph,
        "--threads",
        "2",
    ]);
    assert!(
        err.contains("unknown flag --threads for `build-graph`"),
        "{err}"
    );
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

/// A `firehose serve` child on an ephemeral loopback port, killed on drop
/// if the test did not shut it down.
struct Serving {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl Serving {
    fn start(args: &[&str]) -> Self {
        use std::io::BufRead;
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--allow-shutdown", "true"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).unwrap() == 0 {
                panic!("serve exited before listening:\n{seen}");
            }
            seen.push_str(&line);
            if let Some(rest) = line.split("on http://").nth(1) {
                break rest.split_whitespace().next().unwrap().parse().unwrap();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        Self { child, addr }
    }

    fn client(&self) -> firehose::net::HttpClient {
        firehose::net::HttpClient::connect(self.addr).expect("connect")
    }

    /// `POST /shutdown`, then wait for the process to exit cleanly.
    fn shutdown(mut self) {
        let resp = self.client().request("POST", "/shutdown", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A graph over 100 generated authors and ten users who all follow author
/// 0, for the `serve` tests.
fn serve_inputs(dir: &TempDir) -> (String, String) {
    let follower = dir.path("follower.fhf");
    let graph = dir.path("sim.fhg");
    let subs = dir.path("subs.tsv");
    run_ok(&[
        "generate",
        "--authors",
        "100",
        "--hours",
        "1",
        "--out-posts",
        &dir.path("posts.tsv"),
        "--out-follower",
        &follower,
    ]);
    run_ok(&["build-graph", "--follower", &follower, "--out", &graph]);
    std::fs::write(&subs, "0,1\n".repeat(10)).unwrap();
    (graph, subs)
}

/// `serve --checkpoint-dir` resumes where the last graceful shutdown left
/// off: the final checkpoint holds the window and the churned users, so a
/// near-duplicate of a post ingested before the restart is suppressed, as
/// it is within one process.
#[test]
fn serve_resumes_from_its_final_checkpoint() {
    let dir = TempDir::new("serve_restart");
    let (graph, subs) = serve_inputs(&dir);
    let ckpt = dir.path("ckpt");
    let args = [
        "--graph",
        &graph,
        "--subscriptions",
        &subs,
        "--checkpoint-dir",
        &ckpt,
    ];

    let server = Serving::start(&args);
    let mut client = server.client();
    let q = client
        .request(
            "POST",
            "/ingest",
            b"1\t0\t1000\tthe quick brown fox jumps over the lazy dog\n",
        )
        .unwrap();
    assert_eq!(q.text(), "1\t0,1,2,3,4,5,6,7,8,9\n");
    let churn = client.request("POST", "/churn", b"add-user\t5\n").unwrap();
    assert_eq!(churn.text(), "ok\t10\n");
    drop(client);
    server.shutdown();
    assert!(
        std::path::Path::new(&ckpt).join("gen-00000000").is_dir(),
        "the graceful shutdown wrote a checkpoint"
    );

    let server = Serving::start(&args);
    let mut client = server.client();
    let near_duplicate = client
        .request(
            "POST",
            "/ingest",
            b"2\t0\t2000\tthe quick brown fox jumps over the lazy dog\n",
        )
        .unwrap();
    assert_eq!(near_duplicate.text(), "2\t-\n");
    let health = client.request("GET", "/healthz", b"").unwrap().text();
    assert!(health.contains("\"users\":11,"), "{health}");
    drop(client);
    server.shutdown();
}

/// `serve` refuses the zero values that would leave it unable to serve:
/// no connection slot, no ring slot, or no idle time.
#[test]
fn serve_refuses_zero_limits_naming_the_flag() {
    let dir = TempDir::new("serve_zero");
    let missing = dir.path("missing.tsv");
    for flag in ["--max-conns", "--stream-buffer", "--idle-secs"] {
        let err = run_err(&[
            "serve",
            "--graph",
            &missing,
            "--subscriptions",
            &missing,
            flag,
            "0",
        ]);
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

/// An idle `serve` with one open keep-alive connection blocks in `accept`,
/// `read` and `recv`: it does not wake up to poll.
#[cfg(target_os = "linux")]
#[test]
fn idle_serve_does_not_wake() {
    /// Context switches so far, summed over the process's threads.
    fn context_switches(pid: u32) -> u64 {
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).unwrap();
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
            .map(|status| {
                status
                    .lines()
                    .filter(|l| l.contains("ctxt_switches:"))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .sum::<u64>()
            })
            .sum()
    }

    let dir = TempDir::new("serve_idle");
    let (graph, subs) = serve_inputs(&dir);
    let server = Serving::start(&["--graph", &graph, "--subscriptions", &subs]);
    let mut idle = server.client();
    assert_eq!(idle.request("GET", "/healthz", b"").unwrap().status, 200);
    std::thread::sleep(std::time::Duration::from_millis(100));

    let pid = server.child.id();
    let before = context_switches(pid);
    std::thread::sleep(std::time::Duration::from_secs(1));
    let woke = context_switches(pid) - before;
    assert!(woke < 50, "an idle server woke {woke} times in a second");
    server.shutdown();
}
