//! The firehose benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1     one run, for the driver
//! benchmark run [--seed S] [--workload NAME] [--trace] [--smoke] [--repeat N]
//!               [--seconds S] [--out FILE]                        every workload, for people
//! benchmark compare <a.json> <b.json>                             two result files
//! ```
//!
//! Run it from the repository root; it builds `firehose` from the sources
//! there and keeps its files under `benchmark/out/`.

mod compare;
mod inproc;
mod inputs;
mod json;
mod ledger;
mod oracle;
mod pacer;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
mod sut;
mod trace;
mod wire;

use std::process::{Command, ExitCode, Stdio};

fn usage() -> String {
    format!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke 0|1]\n\
         \x20      benchmark run [--seed S] [--workload NAME] [--trace] [--smoke] [--repeat N] \
         [--seconds S] [--out FILE]\n\
         \x20      benchmark compare <a.json> <b.json>\n\
         workloads: {}",
        spec::WORKLOADS.join(", ")
    )
}

/// `--flag value` pairs; `switches` name the flags that take no value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
            let value = if switches.contains(&name) {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            flags.push((name.to_string(), value));
        }
        Ok(Self(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("seed") else {
            return Ok(spec::DEFAULT_SEED);
        };
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|e| format!("bad --seed {text:?}: {e}"))
    }

    fn seconds(&self, default: f64) -> Result<f64, String> {
        match self.get("seconds") {
            None => Ok(default),
            Some(text) => match text.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
                _ => Err(format!("bad --seconds {text:?}")),
            },
        }
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("bad --{name} {other:?}: want 0 or 1")),
        }
    }
}

/// The driver's form: one workload, one result line.
fn one_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    flags.known(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let run_args = run::Args {
        workload: flags
            .get("workload")
            .ok_or("missing --workload")?
            .to_string(),
        seed: flags.seed()?,
        seconds: flags.seconds(spec::RUN_SECONDS)?,
        traced: flags.switch("trace")?,
        smoke: flags.switch("smoke")?,
    };
    run::execute(&run_args)
}

/// `run`: every workload (or one), each in its own child process, rows
/// collected into one results file.
fn run_all(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["trace", "smoke"])?;
    flags.known(&[
        "seed", "workload", "trace", "smoke", "repeat", "seconds", "out",
    ])?;
    let seed = flags.seed()?;
    let smoke = flags.switch("smoke")?;
    let traced = flags.switch("trace")?;
    let seconds = flags.seconds(if smoke {
        spec::SMOKE_SECONDS
    } else {
        spec::RUN_SECONDS
    })?;
    let repeat: usize = match flags.get("repeat") {
        None => 1,
        Some(text) => text
            .parse()
            .map_err(|e| format!("bad --repeat {text:?}: {e}"))?,
    };
    let workloads: Vec<&str> = match flags.get("workload") {
        Some(name) if spec::WORKLOADS.contains(&name) => vec![name],
        Some(name) => return Err(format!("unknown workload {name:?}\n{}", usage())),
        None => spec::WORKLOADS.to_vec(),
    };
    let out = match flags.get("out") {
        Some(path) => path.to_string(),
        None => format!("benchmark/out/run-{seed:x}.json"),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for round in 0..repeat {
        // Alternate the order, so drift over a session does not always
        // land on the same workload.
        let mut order = workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            for trace in if traced {
                &[false, true][..]
            } else {
                &[false][..]
            } {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if *trace { "1" } else { "0" }])
                    .args(["--smoke", if smoke { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start a child run: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                // A child prints its row, then the driver's line.
                let mut lines = stdout.lines().rev();
                match (output.status.success(), lines.next(), lines.next()) {
                    (true, Some(_), Some(row)) => rows.push(row.to_string()),
                    _ => failures.push(format!("{workload} (trace {trace}): {}", output.status)),
                }
            }
        }
    }

    let mut doc = String::from("{\"runs\": [\n");
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n], \"claim\": null}\n");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{{\"results\": {}, \"rows\": {}, \"failed_runs\": {}, \"claim\": null}}",
        json::quote(&out),
        rows.len(),
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("runs failed: {}", failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b).and_then(|agree| {
                if agree {
                    Ok(())
                } else {
                    Err("the two result sets do not agree".to_string())
                }
            }),
            _ => Err(usage()),
        },
        Some("help" | "--help" | "-h") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(_) => one_run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
