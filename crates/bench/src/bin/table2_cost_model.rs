//! Table 2: the analytical cost model vs measured engine counters.
//!
//! The model predicts per-λt-window RAM (in records), comparisons and
//! insertions from the workload parameters `(m, n, r)` and graph topology
//! `(d, c, s)`. We measure those parameters from the actual run, evaluate
//! the model, and report predicted vs measured for all three algorithms.
//! The model is a rough estimate (the paper derives it "attempting to
//! capture ... realistic data, rather than the worst-case"), so agreement
//! within a small constant factor validates it.

use firehose_bench::{Dataset, Report, Scale};
use firehose_core::Thresholds;
use firehose_graph::{greedy_clique_cover, GraphTopology};
use firehose_reference::CostInputs;

fn main() {
    let data = Dataset::generate(Scale::from_env());
    let graph = data.similarity_graph(0.7);
    let thresholds = Thresholds::paper_defaults();

    let cover = greedy_clique_cover(&graph);
    let topology = GraphTopology::measure(&graph, &cover);

    // Measure r from a UniBin run, and n from the stream itself.
    let stats = firehose_bench::run_all(thresholds, &graph, &data.workload.posts);
    let posts = data.workload.len() as f64;
    let duration = data
        .workload
        .posts
        .last()
        .map(|p| p.timestamp as f64)
        .unwrap_or(1.0)
        .max(1.0);
    let windows = duration / thresholds.lambda_t as f64;
    let n = posts / windows; // posts per λt window
    let r = stats[0].metrics.emit_ratio();

    let inputs = CostInputs {
        m: data.social.author_count() as f64,
        n,
        r,
        d: topology.d,
        c: topology.c,
        s: topology.s,
    };
    eprintln!(
        "[table2] inputs: m={:.0} n={:.0} r={:.3} d={:.1} c={:.1} s={:.1} (identity err {:.2})",
        inputs.m,
        inputs.n,
        inputs.r,
        inputs.d,
        inputs.c,
        inputs.s,
        topology.identity_relative_error()
    );

    let mut report = Report::new(
        "table2_cost_model",
        &[
            "algorithm",
            "pred_ram_records",
            "meas_peak_records",
            "pred_cmp_per_window",
            "meas_cmp_per_window",
            "pred_ins_per_window",
            "meas_ins_per_window",
        ],
    );
    for stat in &stats {
        let p = inputs.predict(stat.kind);
        report.row(&[
            stat.kind.to_string(),
            format!("{:.0}", p.ram_records),
            stat.metrics.peak_copies.to_string(),
            format!("{:.0}", p.comparisons),
            format!("{:.0}", stat.metrics.comparisons as f64 / windows),
            format!("{:.0}", p.insertions),
            format!("{:.0}", stat.metrics.insertions as f64 / windows),
        ]);
    }
    report.finish();

    println!(
        "model orderings: least RAM = {}, fewest comparisons = {}",
        inputs.least_ram(),
        inputs.fewest_comparisons()
    );
}
