//! Table 4: use-case → algorithm choice, verified empirically.
//!
//! For each regime of the paper's decision matrix we (a) print the advisor's
//! recommendation and (b) actually run all three algorithms in that regime
//! to report the measured runtime winner.
//!
//! | regime | paper's choice |
//! |---|---|
//! | very small λt | UniBin |
//! | low throughput (Google Scholar) | UniBin |
//! | large λa / dense G (News RSS) | UniBin |
//! | large λt, sparse G, high throughput (Twitch) | NeighborBin |
//! | moderate λt, sparse G, high throughput (Twitter) | CliqueBin |

use firehose_bench::{f1, Dataset, Report, Scale};
use firehose_core::Thresholds;
use firehose_reference::{recommend, AdvisorInputs, ThroughputClass};
use firehose_stream::{hours, minutes};

struct Regime {
    name: &'static str,
    lambda_t: u64,
    lambda_a: f64,
    sample_ratio: f64,
    throughput: ThroughputClass,
    paper_choice: &'static str,
}

fn main() {
    let data = Dataset::generate(Scale::from_env());

    let regimes = [
        Regime {
            name: "very small λt",
            lambda_t: minutes(1),
            lambda_a: 0.7,
            sample_ratio: 1.0,
            throughput: ThroughputClass::High,
            paper_choice: "UniBin",
        },
        Regime {
            name: "low throughput (Scholar)",
            lambda_t: minutes(30),
            lambda_a: 0.7,
            sample_ratio: 0.01,
            throughput: ThroughputClass::Low,
            paper_choice: "UniBin",
        },
        Regime {
            name: "dense G (News RSS)",
            lambda_t: minutes(30),
            lambda_a: 0.8,
            sample_ratio: 1.0,
            throughput: ThroughputClass::High,
            paper_choice: "UniBin",
        },
        Regime {
            name: "large λt (Twitch)",
            lambda_t: hours(3),
            lambda_a: 0.7,
            sample_ratio: 1.0,
            throughput: ThroughputClass::High,
            paper_choice: "NeighborBin",
        },
        Regime {
            name: "moderate λt (Twitter)",
            lambda_t: minutes(30),
            lambda_a: 0.7,
            sample_ratio: 1.0,
            throughput: ThroughputClass::High,
            paper_choice: "CliqueBin",
        },
    ];

    let mut r = Report::new(
        "table4_use_cases",
        &[
            "regime",
            "advisor",
            "measured_winner",
            "winner_ms",
            "paper_choice",
        ],
    );
    for regime in &regimes {
        eprintln!("[table4] {}", regime.name);
        let advisor = recommend(AdvisorInputs {
            lambda_t: regime.lambda_t,
            lambda_a: regime.lambda_a,
            throughput: regime.throughput,
            ram_critical: false,
        });

        let graph = data.similarity_graph(regime.lambda_a);
        let posts = if regime.sample_ratio < 1.0 {
            data.workload.sample_posts(regime.sample_ratio, 0x7AB4)
        } else {
            data.workload.posts.clone()
        };
        let thresholds = Thresholds::new(18, regime.lambda_t, regime.lambda_a).expect("valid");
        let stats = firehose_bench::run_all(thresholds, &graph, &posts);
        let winner = stats
            .iter()
            .min_by(|a, b| a.elapsed_ms.partial_cmp(&b.elapsed_ms).expect("finite"))
            .expect("three runs");

        r.row(&[
            regime.name.into(),
            advisor.to_string(),
            winner.kind.to_string(),
            f1(winner.elapsed_ms),
            regime.paper_choice.into(),
        ]);
    }
    r.finish();
}
