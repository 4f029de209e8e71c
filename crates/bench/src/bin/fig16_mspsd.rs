//! Figure 16: M-SPSD — per-user engines (`M_*`) vs shared-component engines
//! (`S_*`).
//!
//! Every author is also a user (paper Section 6.3). Subscription sets follow
//! the paper's reported statistics (mean ≈ 130, median ≈ 20 after
//! restriction to the crawled authors; see
//! `firehose_datagen::generate_subscriptions`). Paper shape to reproduce:
//!
//! * `S_UniBin` ≈ 43% less running time and 27% less memory than `M_UniBin`;
//! * `S_NeighborBin` ≈ 8% and `S_CliqueBin` ≈ 4% faster than their `M_*`
//!   counterparts;
//! * `S_UniBin` is the best overall.

use std::time::Instant;

use firehose_bench::{f1, Dataset, Report, Scale};
use firehose_core::engine::AlgorithmKind;
use firehose_core::multi::{IndependentMulti, MultiDiversifier, SharedMulti, Subscriptions};
use firehose_core::{EngineConfig, Thresholds};

fn main() {
    let scale = Scale::from_env();
    let data = Dataset::generate(scale);
    let graph = data.similarity_graph(0.7);
    let config = EngineConfig::new(Thresholds::paper_defaults());

    let m = data.social.author_count();
    // Subscription sizes scale with the author count so the expected number
    // of similar pairs inside a subscription list (`K·d/m`) matches the
    // paper's: 130·113.7/20150 ≈ 0.73. At smaller scales the similarity
    // graph is relatively denser, and unscaled lists would percolate into
    // giant per-user components that no two users share — an artifact the
    // paper-scale run does not have.
    let ratio = m as f64 / 20_150.0;
    let sub_config = firehose_datagen::SubscriptionGenConfig {
        mean: (130.0 * ratio).max(6.0),
        median: (20.0 * ratio).max(3.0),
        ..Default::default()
    };
    let sets = firehose_datagen::generate_subscriptions(m, m, sub_config);
    let subs = Subscriptions::new(m, sets).expect("valid subscriptions");
    eprintln!(
        "[fig16] {} users, mean {:.1} / median {} subscriptions (paper: 130 / 20)",
        subs.user_count(),
        subs.mean_subscriptions(),
        subs.median_subscriptions()
    );

    let mut r = Report::new(
        "fig16_mspsd",
        &[
            "strategy",
            "time_ms",
            "peak_ram_mib",
            "comparisons",
            "insertions",
        ],
    );
    let mut summary: Vec<(AlgorithmKind, f64, f64)> = Vec::new();

    for kind in AlgorithmKind::ALL {
        // M_*: one engine per user.
        eprintln!("[fig16] building M_{kind} ...");
        let mut m_engine = IndependentMulti::new(kind, config, &graph, subs.clone());
        let t0 = Instant::now();
        for post in &data.workload.posts {
            m_engine.offer(post);
        }
        let m_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let m_metrics = m_engine.metrics();
        let m_ram = m_metrics.peak_memory_bytes as f64 / (1024.0 * 1024.0);
        r.row(&[
            m_engine.name(),
            f1(m_ms),
            format!("{m_ram:.2}"),
            m_metrics.comparisons.to_string(),
            m_metrics.insertions.to_string(),
        ]);
        drop(m_engine);

        // S_*: one engine per distinct connected component.
        eprintln!("[fig16] building S_{kind} ...");
        let mut s_engine = SharedMulti::new(kind, config, &graph, subs.clone());
        eprintln!(
            "[fig16] S_{kind}: {} distinct components",
            s_engine.component_count()
        );
        let t0 = Instant::now();
        for post in &data.workload.posts {
            s_engine.offer(post);
        }
        let s_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let s_metrics = s_engine.metrics();
        let s_ram = s_metrics.peak_memory_bytes as f64 / (1024.0 * 1024.0);
        r.row(&[
            s_engine.name(),
            f1(s_ms),
            format!("{s_ram:.2}"),
            s_metrics.comparisons.to_string(),
            s_metrics.insertions.to_string(),
        ]);

        summary.push((kind, 1.0 - s_ms / m_ms, 1.0 - s_ram / m_ram));
    }
    r.finish();

    let mut s = Report::new(
        "fig16_summary",
        &[
            "algorithm",
            "time_saved_pct",
            "ram_saved_pct",
            "paper_time_saved_pct",
        ],
    );
    for (kind, time_saved, ram_saved) in summary {
        let paper = match kind {
            AlgorithmKind::UniBin => "43",
            AlgorithmKind::NeighborBin => "8",
            AlgorithmKind::CliqueBin => "4",
        };
        s.row(&[
            kind.to_string(),
            f1(time_saved * 100.0),
            f1(ram_saved * 100.0),
            paper.into(),
        ]);
    }
    s.finish();
}
