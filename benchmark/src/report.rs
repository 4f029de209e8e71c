//! What one run measured, and its three renderings: the metric list a
//! person reads (stderr), the self-describing row `run` collects, and the
//! one-line result the driver parses (last line of stdout).

use std::collections::BTreeMap;

use crate::json;
use crate::spec::{self, MetricDef, Params};
use crate::stats;

/// Metric values of one run, keyed by the names in `spec`.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, u64)>,
    /// Percentiles taken from fewer samples than their floor asks for. The
    /// driver's line must still name them; rows and people never see them.
    below_floor: BTreeMap<&'static str, f64>,
    /// Posts offered, churn ops applied and probe deliveries expected.
    pub attempted: u64,
    /// Of those: refused, errored, dropped or missing.
    pub failed: u64,
    /// Decisions or deliveries that differ from the oracle (Approx:
    /// violations of the declared bounds). Non-zero fails the run.
    pub divergent: u64,
    pub passes: u64,
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|d| d.name == name)
}

impl Outcome {
    /// Record `name` = `value`, measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            def_of(name).is_some(),
            "{name} is not a metric of this benchmark"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// The decide latencies of a run, in µs: the end-to-end median, and the
    /// per-layer tails where the run has the samples for them.
    pub fn set_decide(&mut self, samples_us: Vec<f64>) {
        self.set_latency(
            samples_us,
            "decide_p50_us",
            &[("decide_p90_us", 0.9), ("decide_p99_us", 0.99)],
        );
    }

    /// Median and the supported percentiles of latency samples, in the unit
    /// the samples are in. A percentile below its sample floor is not set.
    pub fn set_latency(
        &mut self,
        samples: Vec<f64>,
        p50: &'static str,
        tails: &[(&'static str, f64)],
    ) {
        let s = stats::sorted(samples);
        for (name, q) in std::iter::once((p50, 0.5)).chain(tails.iter().copied()) {
            match stats::percentile(&s, q) {
                Some(value) => self.set(name, value, s.len() as u64),
                None => {
                    if let Some(value) = stats::quantile(&s, q) {
                        self.below_floor.insert(name, value);
                    }
                }
            }
        }
    }
}

/// Facts every row carries, so a number can never be read without them.
pub struct RunInfo<'a> {
    pub params: &'a Params,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    pub seconds: f64,
    pub shards: usize,
    pub strategy: String,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print every metric by name with its unit, for a person.
pub fn print_human(info: &RunInfo, outcome: &Outcome, defs: &[MetricDef]) {
    eprintln!(
        "== {} seed={:#x} {} ({} passes, {} attempted, {} failed, {} divergent)",
        info.params.name,
        info.seed,
        if info.traced { "traced" } else { "end-to-end" },
        outcome.passes,
        outcome.attempted,
        outcome.failed,
        outcome.divergent
    );
    for def in defs {
        match outcome.values.get(def.name) {
            Some((value, samples)) => {
                eprintln!(
                    "  {:<36} {:>16.4} {:<6} n={samples}",
                    def.name, value, def.unit
                )
            }
            None => eprintln!("  {:<36} {:>16} {:<6}", def.name, "-", def.unit),
        }
    }
}

/// The self-describing row: workload parameters, host facts and every
/// metric that applies, each with its unit and sample count. Metrics that
/// do not apply, and percentiles below their sample floor, are absent.
pub fn row_json(info: &RunInfo, outcome: &Outcome, defs: &[MetricDef]) -> String {
    let p = info.params;
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", json::quote(p.name)),
        (
            "mode",
            json::quote(if info.traced { "traced" } else { "end_to_end" }),
        ),
        (
            "scale",
            json::quote(if info.smoke { "smoke" } else { "bench" }),
        ),
        ("seed", info.seed.to_string()),
        (
            "commit",
            json::quote(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json::quote(&command_line("rustc", &["--version"]))),
        ("cores", cores().to_string()),
        ("shards", info.shards.to_string()),
        ("strategy", json::quote(&info.strategy)),
        (
            "simhash.kernel",
            json::quote(firehose_simhash::active_kernel().name()),
        ),
        ("lambda_c", spec::LAMBDA_C.to_string()),
        ("lambda_t_min", spec::LAMBDA_T_MIN.to_string()),
        ("lambda_a", json::number(spec::LAMBDA_A)),
        ("users", p.users.to_string()),
        ("stream", json::quote(p.stream.name())),
        ("pass_posts", p.pass_posts.to_string()),
        ("batch", p.batch.to_string()),
        ("churn_every", p.churn_every.to_string()),
        ("probe_follows", p.probe_follows.to_string()),
        ("rate", p.rate.to_string()),
        (
            "loop",
            json::quote(if p.rate > 0 { "open" } else { "closed" }),
        ),
        ("seconds", json::number(info.seconds)),
        ("passes", outcome.passes.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        (
            "failed_share",
            json::number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("divergent_decisions", outcome.divergent.to_string()),
    ];
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|def| {
            let (value, samples) = outcome.values.get(def.name)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {samples}}}",
                json::quote(def.name),
                json::number(*value),
                json::quote(def.unit)
            ))
        })
        .collect();
    fields.push(("metrics", format!("{{{}}}", metrics.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The driver's result line. Its schema is fixed from outside: every metric
/// of the mode must be there, so a per-layer metric whose layer is not on
/// this workload's path reads 0 here (and is absent from the row). An
/// end-to-end metric has no such excuse.
pub fn driver_line(outcome: &Outcome, defs: &[MetricDef], traced: bool) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let measured = outcome
            .get(def.name)
            .or_else(|| outcome.below_floor.get(def.name).copied());
        let value = match measured {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        let positive = value.is_finite() && value > 0.0;
        if !traced && !positive {
            return Err(format!(
                "end-to-end metric {} = {value} is not a positive number",
                def.name
            ));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(def.name),
            json::number(value),
            json::quote(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.divergent == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 1000,
            passes: 3,
            ..Outcome::default()
        };
        for def in spec::END_TO_END {
            o.set(def.name, 1.25, 10);
        }
        o
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&outcome(), spec::END_TO_END, false).unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_is_an_error_not_a_zero() {
        let mut o = outcome();
        o.values.remove("sut_rss_mb");
        assert!(driver_line(&o, spec::END_TO_END, false).is_err());
        o.set("sut_rss_mb", 0.0, 1);
        assert!(driver_line(&o, spec::END_TO_END, false).is_err());
        // A per-layer metric off the workload's path reads 0 for the driver
        // and is absent from the row.
        let line = driver_line(&o, spec::PER_LAYER, true).unwrap();
        let doc = json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        assert_eq!(
            metrics["net.other_us_per_post"]
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn rows_omit_what_was_not_measured_and_always_carry_failed_share() {
        let mut o = outcome();
        o.failed = 5;
        o.divergent = 2;
        o.set_decide(vec![1.0; 150]);
        let params = spec::params("wire_paced", false).unwrap();
        let info = RunInfo {
            params: &params,
            seed: spec::DEFAULT_SEED,
            smoke: false,
            traced: true,
            seconds: 6.0,
            shards: 1,
            strategy: "sharded:1".to_string(),
        };
        let row = json::parse(&row_json(&info, &o, spec::PER_LAYER)).unwrap();
        assert_eq!(row.get("failed_share").unwrap().as_f64(), Some(0.005));
        assert_eq!(row.get("divergent_decisions").unwrap().as_f64(), Some(2.0));
        assert_eq!(row.get("loop").unwrap().as_str(), Some("open"));
        for key in [
            "seed",
            "commit",
            "cores",
            "shards",
            "simhash.kernel",
            "rustc",
            "lambda_c",
            "users",
            "stream",
        ] {
            assert!(row.get(key).is_some(), "row lacks {key}");
        }
        let metrics = row.get("metrics").unwrap().as_object().unwrap();
        assert!(
            !metrics.contains_key("decide_p99_us"),
            "150 samples do not support a p99"
        );
        assert_eq!(
            o.below_floor.get("decide_p99_us"),
            Some(&1.0),
            "kept for the driver only"
        );
        assert!(
            !metrics.contains_key("net.deliver_p50_ms"),
            "never measured, so absent"
        );
        assert_eq!(
            driver_line(&o, spec::END_TO_END, false).map(|l| l.contains("\"correct\": false")),
            Ok(true)
        );
    }
}
