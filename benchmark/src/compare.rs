//! `benchmark compare <a.json> <b.json>`: per workload and end-to-end
//! metric, both sides' medians, quartiles and spread, and a verdict against
//! the bound `BENCHMARK.json` fixes for the metric. Used to show that two
//! sets of runs of one commit agree, and later for parent-versus-change
//! pairs (a = parent, b = change).

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// A side's run-to-run spread is wider than the bound (or it has fewer
    /// than two runs): the data cannot tell.
    Unresolved,
}

/// Median, quartiles and spread (interquartile range over the median) of
/// one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub n: usize,
    pub median: f64,
    pub quartiles: Option<[f64; 3]>,
}

impl Side {
    pub fn of(values: &[f64]) -> Option<Self> {
        Some(Self {
            n: values.len(),
            median: stats::median(values)?,
            quartiles: stats::quartiles(values),
        })
    }

    pub fn spread(&self) -> Option<f64> {
        self.quartiles
            .map(|[q1, _, q3]| (q3 - q1) / self.median.abs())
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    match (a.spread(), b.spread()) {
        (Some(sa), Some(sb)) if sa <= bound && sb <= bound => {
            if worsening(a.median, b.median, better) > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// `values[workload][metric]` of the rows of one mode in a results file.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str, mode: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut table = Table::new();
    for row in runs {
        if row.get("mode").and_then(Value::as_str) != Some(mode) {
            continue;
        }
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a row has no workload"))?;
        let metrics = row
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: a row has no metrics"))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                table
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(table)
}

/// The end-to-end bounds `BENCHMARK.json` (in the current directory) fixes.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()
                })
        })
        .collect()
}

fn show(side: &Side) -> String {
    match side.quartiles {
        Some([q1, _, q3]) => format!(
            "{:>12.4} [{:>12.4} {:>12.4}] {:>5.1}% n={}",
            side.median,
            q1,
            q3,
            side.spread().unwrap_or(0.0) * 100.0,
            side.n
        ),
        None => format!(
            "{:>12.4} [{:>12} {:>12}] {:>6} n={}",
            side.median, "-", "-", "-", side.n
        ),
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (a, b) = (load(path_a, "end_to_end")?, load(path_b, "end_to_end")?);
    let mut counts = [0usize; 3];
    println!("a = {path_a}\nb = {path_b}");
    println!(
        "{:<13} {:<18} {:<50} {:<50} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "a: median [q1 q3] spread",
        "b: median [q1 q3] spread",
        "b vs a",
        "bound"
    );
    for workload in spec::WORKLOADS {
        for def in spec::END_TO_END {
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let side = |t: &Table| t.get(workload)?.get(def.name).and_then(|v| Side::of(v));
            let (Some(sa), Some(sb)) = (side(&a), side(&b)) else {
                continue;
            };
            let v = verdict(&sa, &sb, def.better, bound);
            counts[v as usize] += 1;
            println!(
                "{:<13} {:<18} {:<50} {:<50} {:>+7.1}% {:>5.0}%  {}",
                workload,
                def.name,
                show(&sa),
                show(&sb),
                worsening(sa.median, sb.median, def.better) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved (\"b vs a\" is how much worse b's median is)",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );

    // Counts made by the program must repeat exactly between traced runs.
    let (ta, tb) = (load(path_a, "traced")?, load(path_b, "traced")?);
    let mut differing = 0;
    for (workload, metrics) in &ta {
        for def in spec::PER_LAYER.iter().filter(|d| d.unit == "count") {
            let all: Vec<f64> = metrics
                .get(def.name)
                .into_iter()
                .chain(tb.get(workload).and_then(|m| m.get(def.name)))
                .flatten()
                .copied()
                .collect();
            if all.windows(2).any(|w| w[0] != w[1]) {
                differing += 1;
                println!(
                    "count differs between runs: {workload} {} {all:?}",
                    def.name
                );
            }
        }
    }
    if !ta.is_empty() {
        println!("{differing} exact-count metrics differ between traced runs");
    }
    Ok(counts[Verdict::Regressed as usize] == 0 && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = side(&[111.0, 112.0, 110.0, 111.5, 110.5]);
        // Throughput: higher is better, so the slower side regressed...
        assert_eq!(
            verdict(&slower, &a, Better::Higher, 0.05),
            Verdict::Regressed
        );
        // ...and the other way round it is an improvement, which is ok.
        assert_eq!(verdict(&a, &slower, Better::Higher, 0.05), Verdict::Ok);
        // Latency: lower is better.
        assert_eq!(
            verdict(&a, &slower, Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.15), Verdict::Ok);
        assert!((worsening(100.0, 111.0, Better::Lower) - 0.11).abs() < 1e-12);
        assert!((worsening(100.0, 111.0, Better::Higher) + 0.11).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let steady = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let noisy = side(&[100.0, 130.0, 80.0, 120.0, 90.0]);
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &steady, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // One run has no quartiles, so it cannot resolve anything either.
        assert_eq!(
            verdict(&steady, &side(&[100.0]), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(side(&[100.0]).spread(), None);
    }
}
