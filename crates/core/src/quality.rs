//! Diversification quality evaluation.
//!
//! Given a stream and the delivery decisions some system made, measure how
//! well the output meets the paper's two requirements (Problem 1):
//!
//! * **no coverage violations** — "any post in the whole stream will be
//!   either included or covered by a post in the sub-stream" (evaluated
//!   against *earlier* deliveries, matching the real-time guarantee);
//! * **no residual redundancy** — "all posts [in the sub-stream] are
//!   dissimilar to each other": no delivered post is covered by an earlier
//!   delivered post within the window.
//!
//! The SPSD engines satisfy both by construction (property-tested); this
//! module exists to *measure* arbitrary alternatives — the MaxMin baseline,
//! sampling, a hand-written filter — on equal terms.
//!
//! The [`QualityGate`] builds on [`evaluate`]: it compares an approximate
//! run's [`QualityReport`] (and RAM footprint) against the exact run's and
//! renders a stable PASS/FAIL verdict with per-metric deltas, so benchmarks
//! and CI can assert that the approximate memory mode's savings were not
//! bought with quality loss beyond the declared bounds.

use firehose_graph::UndirectedGraph;
use firehose_stream::{PostRecord, TimeWindowBin};

use crate::config::Thresholds;
use crate::coverage::covers;

/// The quality measurements for one (stream, decisions) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityReport {
    /// Posts in the stream.
    pub total: usize,
    /// Posts delivered.
    pub delivered: usize,
    /// Pruned posts with no covering earlier delivery inside their λt window
    /// — information the user lost.
    pub coverage_violations: usize,
    /// Delivered posts covered by an earlier delivery inside their window —
    /// redundancy the user still saw.
    pub residual_redundancy: usize,
}

impl QualityReport {
    /// Fraction of the stream delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.delivered as f64 / self.total as f64
        }
    }

    /// `true` iff the output satisfies both Problem 1 requirements.
    pub fn is_valid_diversification(&self) -> bool {
        self.coverage_violations == 0 && self.residual_redundancy == 0
    }
}

/// Evaluate `decisions` (`true` = delivered) against the coverage semantics.
///
/// # Panics
/// Panics if `decisions.len() != records.len()` or the records are not in
/// timestamp order.
pub fn evaluate(
    records: &[PostRecord],
    decisions: &[bool],
    thresholds: &Thresholds,
    graph: &UndirectedGraph,
) -> QualityReport {
    assert_eq!(records.len(), decisions.len(), "one decision per record");
    let mut window = TimeWindowBin::new();
    let mut report = QualityReport {
        total: records.len(),
        delivered: 0,
        coverage_violations: 0,
        residual_redundancy: 0,
    };
    for (record, &kept) in records.iter().zip(decisions) {
        let covered = window
            .iter_window(record.timestamp, thresholds.lambda_t)
            .any(|delivered| covers(&delivered, record, thresholds, graph));
        if kept {
            report.delivered += 1;
            if covered {
                report.residual_redundancy += 1;
            }
            window.evict_expired(record.timestamp, thresholds.lambda_t);
            window.push(*record);
        } else if !covered {
            report.coverage_violations += 1;
        }
    }
    report
}

/// Declared tolerances for exact-vs-approximate comparison — the pass
/// criteria a [`QualityGate`] enforces. Published in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaBounds {
    /// Maximum absolute difference in delivery ratio.
    pub max_delivery_ratio_delta: f64,
    /// Maximum coverage-violation rate (violations / stream length) of the
    /// approximate run. The approximate backends prune only with a genuine
    /// in-window cover in hand, so their error is one-sided and this bound
    /// defaults to zero.
    pub max_violation_rate: f64,
    /// Maximum residual-redundancy rate (redundant deliveries / stream
    /// length) of the approximate run.
    pub max_redundancy_rate: f64,
    /// Minimum factor by which approximate mode must shrink engine RAM
    /// (`exact_bytes / approx_bytes`).
    pub min_ram_reduction: f64,
}

impl DeltaBounds {
    /// The repo's declared bounds (see `EXPERIMENTS.md` §memory): approx
    /// may deliver at most 2% more of the stream, must never violate
    /// coverage, may leave at most 2% residual redundancy, and must cut RAM
    /// at least 10×.
    pub fn declared() -> Self {
        Self {
            max_delivery_ratio_delta: 0.02,
            max_violation_rate: 0.0,
            max_redundancy_rate: 0.02,
            min_ram_reduction: 10.0,
        }
    }
}

impl Default for DeltaBounds {
    fn default() -> Self {
        Self::declared()
    }
}

/// One gated metric: its value on both runs, the delta and the declared
/// bound it is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDelta {
    /// Stable metric name (snake_case).
    pub name: &'static str,
    /// Value measured on the exact run.
    pub exact: f64,
    /// Value measured on the approximate run.
    pub approx: f64,
    /// The gated quantity (absolute delta or raw approximate rate).
    pub delta: f64,
    /// The declared bound on `delta`.
    pub bound: f64,
    /// Whether `delta <= bound`.
    pub pass: bool,
}

/// The outcome of gating one exact-vs-approximate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVerdict {
    /// Per-metric deltas, in declaration order.
    pub deltas: Vec<MetricDelta>,
    /// Measured RAM reduction factor (`exact_bytes / approx_bytes`).
    pub ram_reduction: f64,
    /// The declared minimum RAM reduction.
    pub min_ram_reduction: f64,
    /// `true` iff every metric passed *and* the RAM reduction meets the
    /// declared minimum.
    pub pass: bool,
}

impl GateVerdict {
    /// The delta record for `name`, if gated.
    #[cfg(test)]
    pub(crate) fn metric(&self, name: &str) -> Option<&MetricDelta> {
        self.deltas.iter().find(|d| d.name == name)
    }
}

impl std::fmt::Display for GateVerdict {
    /// Stable, line-oriented rendering. The first line is always
    /// `QUALITY GATE: PASS` or `QUALITY GATE: FAIL`, followed
    /// by one line per metric and one for the RAM reduction.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "QUALITY GATE: {}",
            if self.pass { "PASS" } else { "FAIL" }
        )?;
        for d in &self.deltas {
            writeln!(
                f,
                "  {:<26} exact={:.6} approx={:.6} delta={:.6} bound={:.6} {}",
                d.name,
                d.exact,
                d.approx,
                d.delta,
                d.bound,
                if d.pass { "ok" } else { "FAIL" }
            )?;
        }
        write!(
            f,
            "  {:<26} {:.2}x (min {:.2}x) {}",
            "ram_reduction",
            self.ram_reduction,
            self.min_ram_reduction,
            if self.ram_reduction >= self.min_ram_reduction {
                "ok"
            } else {
                "FAIL"
            }
        )
    }
}

/// Gate an approximate run against the exact run it approximates.
///
/// Construct with the declared [`DeltaBounds`], feed it both runs'
/// [`QualityReport`]s and peak RAM figures, and read the [`GateVerdict`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QualityGate {
    bounds: DeltaBounds,
}

impl QualityGate {
    /// A gate enforcing `bounds`.
    pub fn new(bounds: DeltaBounds) -> Self {
        Self { bounds }
    }

    /// Compare the two runs and render the verdict. `exact_bytes` and
    /// `approx_bytes` are the runs' peak engine RAM figures (same
    /// convention on both sides).
    pub fn verdict(
        &self,
        exact: &QualityReport,
        approx: &QualityReport,
        exact_bytes: u64,
        approx_bytes: u64,
    ) -> GateVerdict {
        let total = exact.total.max(1) as f64;
        let rate = |n: usize| n as f64 / total;
        let b = &self.bounds;

        let dr_exact = exact.delivery_ratio();
        let dr_approx = approx.delivery_ratio();
        let dr_delta = (dr_approx - dr_exact).abs();
        let viol_exact = rate(exact.coverage_violations);
        let viol_approx = rate(approx.coverage_violations);
        let red_exact = rate(exact.residual_redundancy);
        let red_approx = rate(approx.residual_redundancy);

        let deltas = vec![
            MetricDelta {
                name: "delivery_ratio",
                exact: dr_exact,
                approx: dr_approx,
                delta: dr_delta,
                bound: b.max_delivery_ratio_delta,
                pass: dr_delta <= b.max_delivery_ratio_delta,
            },
            MetricDelta {
                name: "coverage_violation_rate",
                exact: viol_exact,
                approx: viol_approx,
                delta: viol_approx,
                bound: b.max_violation_rate,
                pass: viol_approx <= b.max_violation_rate,
            },
            MetricDelta {
                name: "residual_redundancy_rate",
                exact: red_exact,
                approx: red_approx,
                delta: red_approx,
                bound: b.max_redundancy_rate,
                pass: red_approx <= b.max_redundancy_rate,
            },
        ];
        let ram_reduction = if approx_bytes == 0 {
            f64::INFINITY
        } else {
            exact_bytes as f64 / approx_bytes as f64
        };
        let pass = deltas.iter().all(|d| d.pass) && ram_reduction >= b.min_ram_reduction;
        GateVerdict {
            deltas,
            ram_reduction,
            min_ram_reduction: b.min_ram_reduction,
            pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Diversifier, UniBin};
    use crate::EngineConfig;
    use firehose_stream::minutes;
    use std::sync::Arc;

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn setup() -> (Thresholds, UndirectedGraph, Vec<PostRecord>) {
        let thresholds = Thresholds::new(3, minutes(10), 0.7).unwrap();
        let graph = UndirectedGraph::from_edges(3, [(0, 1)]);
        let records = vec![
            rec(1, 0, 0, 0),
            rec(2, 1, 60_000, 1),       // covered by 1 (similar author, d=1)
            rec(3, 2, 120_000, 0),      // author 2 dissimilar: not covered
            rec(4, 0, 180_000, 0xFF00), // different content: not covered
        ];
        (thresholds, graph, records)
    }

    #[test]
    fn spsd_output_is_valid() {
        let (thresholds, graph, records) = setup();
        let graph = Arc::new(graph);
        let mut engine = UniBin::new(EngineConfig::new(thresholds), Arc::clone(&graph));
        let decisions: Vec<bool> = records
            .iter()
            .map(|&r| engine.offer_record(r).is_emitted())
            .collect();
        let report = evaluate(&records, &decisions, &thresholds, &graph);
        assert!(report.is_valid_diversification(), "{report:?}");
        assert_eq!(report.delivered, 3);
        assert!((report.delivery_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dropping_an_uncovered_post_is_a_violation() {
        let (thresholds, graph, records) = setup();
        // Drop post 3 (author 2, covered by nobody).
        let decisions = vec![true, false, false, true];
        let report = evaluate(&records, &decisions, &thresholds, &graph);
        assert_eq!(report.coverage_violations, 1);
        assert!(!report.is_valid_diversification());
    }

    #[test]
    fn delivering_a_covered_post_is_residual_redundancy() {
        let (thresholds, graph, records) = setup();
        // Deliver everything: post 2 is redundant with post 1.
        let decisions = vec![true, true, true, true];
        let report = evaluate(&records, &decisions, &thresholds, &graph);
        assert_eq!(report.residual_redundancy, 1);
        assert_eq!(report.coverage_violations, 0);
    }

    #[test]
    fn window_expiry_limits_both_measures() {
        let thresholds = Thresholds::new(3, 1_000, 0.7).unwrap();
        let graph = UndirectedGraph::new(1);
        // Identical posts far apart in time: dropping the second IS a
        // violation (nothing covers it in its window).
        let records = vec![rec(1, 0, 0, 0), rec(2, 0, 10_000, 0)];
        let report = evaluate(&records, &[true, false], &thresholds, &graph);
        assert_eq!(report.coverage_violations, 1);
        // Delivering both is NOT redundant (the first left the window).
        let report = evaluate(&records, &[true, true], &thresholds, &graph);
        assert_eq!(report.residual_redundancy, 0);
    }

    #[test]
    fn empty_stream() {
        let thresholds = Thresholds::paper_defaults();
        let graph = UndirectedGraph::new(0);
        let report = evaluate(&[], &[], &thresholds, &graph);
        assert_eq!(report.total, 0);
        assert_eq!(report.delivery_ratio(), 0.0);
        assert!(report.is_valid_diversification());
    }

    #[test]
    #[should_panic(expected = "one decision per record")]
    fn length_mismatch_panics() {
        let (thresholds, graph, records) = setup();
        evaluate(&records, &[true], &thresholds, &graph);
    }

    fn report(
        total: usize,
        delivered: usize,
        violations: usize,
        redundancy: usize,
    ) -> QualityReport {
        QualityReport {
            total,
            delivered,
            coverage_violations: violations,
            residual_redundancy: redundancy,
        }
    }

    #[test]
    fn gate_passes_within_declared_bounds() {
        let gate = QualityGate::new(DeltaBounds::declared());
        let exact = report(1_000, 400, 0, 0);
        let approx = report(1_000, 410, 0, 5);
        let verdict = gate.verdict(&exact, &approx, 24_000, 2_000);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.metric("delivery_ratio").unwrap().pass);
        assert!((verdict.ram_reduction - 12.0).abs() < 1e-9);
        let text = verdict.to_string();
        assert!(text.starts_with("QUALITY GATE: PASS"), "{text}");
        assert!(text.contains("residual_redundancy_rate"), "{text}");
    }

    #[test]
    fn gate_fails_on_any_exceeded_bound() {
        let gate = QualityGate::new(DeltaBounds::declared());
        let exact = report(1_000, 400, 0, 0);
        // One violation: the zero-violation bound must trip the gate even
        // with perfect RAM savings.
        let verdict = gate.verdict(&exact, &report(1_000, 400, 1, 0), 24_000, 1);
        assert!(!verdict.pass);
        assert!(verdict.to_string().starts_with("QUALITY GATE: FAIL"));
        // Insufficient RAM reduction alone also fails.
        let verdict = gate.verdict(&exact, &report(1_000, 400, 0, 0), 24_000, 12_000);
        assert!(!verdict.pass, "{verdict}");
        assert!(verdict.deltas.iter().all(|d| d.pass));
        // Excess redundancy fails.
        let verdict = gate.verdict(&exact, &report(1_000, 450, 0, 50), 24_000, 1_000);
        assert!(!verdict.metric("residual_redundancy_rate").unwrap().pass);
        assert!(!verdict.pass);
    }

    #[test]
    fn gate_handles_empty_and_zero_ram() {
        let gate = QualityGate::default();
        let verdict = gate.verdict(&report(0, 0, 0, 0), &report(0, 0, 0, 0), 0, 0);
        assert!(verdict.ram_reduction.is_infinite());
        assert!(verdict.pass, "{verdict}");
    }
}
