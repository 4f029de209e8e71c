//! Figure 16: M-SPSD — per-user engines (`M_*`) vs shared-component engines
//! (`S_*`), plus the service's labelled window (`L_*`): one window for
//! every component.
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
//!
//! Section 5's identity is asserted, not just reported: every row folds
//! each `(post id, delivered_to)` pair into a running hash, and the run
//! panics unless `M_*`, `S_*` and `L_*` agree for each algorithm. `L_*` is
//! [`SharedMulti`], which makes the same decisions for every kind through
//! one scan; its row carries the kind only to line up with the paper's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use firehose_bench::{f1, Dataset, Report, Scale};
use firehose_core::engine::AlgorithmKind;
use firehose_core::multi::{IndependentMulti, MultiDecision, SharedMulti, Subscriptions};
use firehose_core::EngineMetrics;
use firehose_core::{EngineConfig, Thresholds};
use firehose_stream::Post;

/// One timed pass over `posts`: the running hash of every
/// `(post id, delivered_to)` pair, and the wall time in milliseconds.
fn pass(posts: &[Post], mut offer: impl FnMut(&Post) -> MultiDecision) -> (u64, f64) {
    let mut streams = DefaultHasher::new();
    let t0 = Instant::now();
    for post in posts {
        (post.id, offer(post).delivered_to).hash(&mut streams);
    }
    (streams.finish(), t0.elapsed().as_secs_f64() * 1_000.0)
}

/// Report one strategy's row; returns its peak RAM in MiB.
fn row(r: &mut Report, name: String, ms: f64, m: &EngineMetrics) -> f64 {
    let ram = m.peak_memory_bytes as f64 / (1024.0 * 1024.0);
    r.row(&[
        name,
        f1(ms),
        format!("{ram:.2}"),
        m.comparisons.to_string(),
        m.insertions.to_string(),
    ]);
    ram
}

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
    let mut summary: Vec<(AlgorithmKind, f64, f64, f64)> = Vec::new();

    for kind in AlgorithmKind::ALL {
        // M_*: one engine per user.
        eprintln!("[fig16] building M_{kind} ...");
        let mut m_engine = IndependentMulti::new(kind, config, &graph, subs.clone());
        let (m_hash, m_ms) = pass(&data.workload.posts, |p| m_engine.offer(p));
        let m_ram = row(&mut r, m_engine.name(), m_ms, &m_engine.metrics());
        drop(m_engine);

        // S_*: one engine per distinct connected component.
        eprintln!("[fig16] building S_{kind} ...");
        let mut s_engine = IndependentMulti::per_component(kind, config, &graph, subs.clone());
        eprintln!(
            "[fig16] S_{kind}: {} distinct components",
            s_engine.engine_count()
        );
        let (s_hash, s_ms) = pass(&data.workload.posts, |p| s_engine.offer(p));
        let s_ram = row(&mut r, s_engine.name(), s_ms, &s_engine.metrics());
        drop(s_engine);

        // L_*: the service's engine, one labelled window for every component.
        eprintln!("[fig16] building L_{kind} ...");
        let mut l_engine = SharedMulti::new(kind, config, &graph, subs.clone());
        let (l_hash, l_ms) = pass(&data.workload.posts, |p| l_engine.offer(p));
        row(&mut r, format!("L_{kind}"), l_ms, &l_engine.metrics());

        assert_eq!(
            m_hash, s_hash,
            "{kind}: M_* and S_* delivered different per-user streams"
        );
        assert_eq!(
            m_hash, l_hash,
            "{kind}: M_* and L_* delivered different per-user streams"
        );
        summary.push((
            kind,
            1.0 - s_ms / m_ms,
            1.0 - s_ram / m_ram,
            1.0 - l_ms / m_ms,
        ));
    }
    r.finish();

    let mut s = Report::new(
        "fig16_summary",
        &[
            "algorithm",
            "time_saved_pct",
            "ram_saved_pct",
            "paper_time_saved_pct",
            "l_time_saved_pct",
        ],
    );
    for (kind, time_saved, ram_saved, l_time_saved) in summary {
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
            f1(l_time_saved * 100.0),
        ]);
    }
    s.finish();
}
