//! Observability hooks for the diversification engines.
//!
//! The engines stay metrics-free by default: instrumentation is attached
//! explicitly via [`EngineObs::register`] /
//! [`Diversifier::attach_obs`](crate::engine::Diversifier::attach_obs), so
//! unobserved hot paths pay only an `Option` branch. All handles come from a
//! [`firehose_obs::Registry`] and are lock-free to update.

use std::sync::Arc;
use std::time::Instant;

use firehose_obs::{labels, Counter, Gauge, Histogram, Registry};

use crate::metrics::EngineMetrics;

/// Per-engine instruments for the single-user engines' hot path.
///
/// `offer_latency_ns` is a wall-clock histogram of one `offer_record` call;
/// `offer_comparisons` is a histogram of how many pairwise coverage tests
/// that call performed (the scan-length distribution, far more informative
/// than the running total in [`EngineMetrics`]).
#[derive(Clone)]
pub struct EngineObs {
    /// Wall-clock nanoseconds per `offer_record` call.
    pub offer_latency: Arc<Histogram>,
    /// Pairwise coverage comparisons per `offer_record` call.
    pub offer_comparisons: Arc<Histogram>,
}

impl EngineObs {
    /// Create (or look up) the instruments for `engine` (e.g. `"UniBin"`)
    /// in `registry`.
    #[cfg(test)]
    pub(crate) fn register(registry: &Registry, engine: &str) -> Self {
        let l = labels(&[("engine", engine)]);
        Self {
            offer_latency: registry.histogram(
                "firehose_offer_latency_ns",
                "Wall-clock latency of one offer_record call, nanoseconds",
                l.clone(),
            ),
            offer_comparisons: registry.histogram(
                "firehose_offer_comparisons",
                "Pairwise coverage comparisons performed by one offer_record call",
                l,
            ),
        }
    }

    /// Record one observed offer.
    #[inline]
    pub(crate) fn record_offer(&self, started: Instant, comparisons: u64) {
        self.offer_latency.record_duration(started.elapsed());
        self.offer_comparisons.record(comparisons);
    }
}

/// Instruments for the multi-user engine
/// ([`SharedMulti`](crate::multi::SharedMulti)): whole-post offer latency,
/// eviction-sweep count, and the live record-copy footprint.
#[derive(Clone)]
pub(crate) struct MultiObs {
    /// Wall-clock nanoseconds per multi-user `offer` call (fingerprint +
    /// every sub-engine consulted).
    pub offer_latency: Arc<Histogram>,
    /// Periodic eviction sweeps performed.
    pub sweeps: Counter,
    /// Record copies currently live across all sub-engines.
    pub live_copies: Gauge,
}

impl MultiObs {
    /// Create (or look up) the instruments for `strategy` (e.g. `"S_UniBin"`)
    /// in `registry`.
    pub(crate) fn register(registry: &Registry, strategy: &str) -> Self {
        let l = labels(&[("strategy", strategy)]);
        Self {
            offer_latency: registry.histogram(
                "firehose_multi_offer_latency_ns",
                "Wall-clock latency of one multi-user offer, nanoseconds",
                l.clone(),
            ),
            sweeps: registry.counter(
                "firehose_sweeps_total",
                "Periodic eviction sweeps performed",
                l.clone(),
            ),
            live_copies: registry.gauge(
                "firehose_live_copies",
                "Record copies currently stored across all sub-engines",
                l,
            ),
        }
    }
}

/// Export an [`EngineMetrics`] snapshot into `registry` as counters labelled
/// `{engine="<name>"}`. Called at snapshot time (not per offer), so the hot
/// path never touches these.
pub fn export_engine_metrics(registry: &Registry, engine: &str, m: &EngineMetrics) {
    let l = labels(&[("engine", engine)]);
    for (name, help, value) in [
        (
            "firehose_posts_processed_total",
            "Posts offered to the engine",
            m.posts_processed,
        ),
        (
            "firehose_posts_emitted_total",
            "Posts emitted into the diversified sub-stream",
            m.posts_emitted,
        ),
        (
            "firehose_comparisons_total",
            "Pairwise coverage comparisons performed",
            m.comparisons,
        ),
        (
            "firehose_insertions_total",
            "Record copies inserted into bins",
            m.insertions,
        ),
        (
            "firehose_evictions_total",
            "Record copies evicted from bins",
            m.evictions,
        ),
        (
            "firehose_peak_copies",
            "Peak record copies stored simultaneously",
            m.peak_copies,
        ),
        (
            "firehose_peak_memory_bytes",
            "Peak record payload in bytes",
            m.peak_memory_bytes,
        ),
    ] {
        registry.counter(name, help, l.clone()).set(value);
    }
}

/// Export the identity of the active Hamming kernel into `registry` as an
/// info-style gauge `firehose_kernel_info{kernel="avx2|neon|scalar"} 1`, so
/// scraped metrics record which code path produced a run's numbers. One gauge per kernel name; re-export is idempotent.
pub fn export_kernel_info(registry: &Registry) -> &'static str {
    let kernel = firehose_simhash::active_kernel().name();
    registry
        .gauge(
            "firehose_kernel_info",
            "Hamming kernel selected at startup (1 = active)",
            labels(&[("kernel", kernel)]),
        )
        .set(1);
    kernel
}

/// Export the engine memory mode into `registry` as an info-style gauge
/// `firehose_memory_mode{mode="exact|approx"} 1`, plus — in approximate
/// mode — the configured knobs and, when `stats` is supplied, the
/// approximate backends' lifetime probe/displacement counters. Called at
/// reporting time, not per post; re-export is idempotent.
pub fn export_memory_mode(
    registry: &Registry,
    mode: &crate::config::MemoryMode,
    stats: Option<firehose_stream::ApproxStats>,
) -> &'static str {
    let name = mode.name();
    registry
        .gauge(
            "firehose_memory_mode",
            "Coverage memory mode selected at startup (1 = active)",
            labels(&[("mode", name)]),
        )
        .set(1);
    if let crate::config::MemoryMode::Approx(approx) = mode {
        for (gauge, help, value) in [
            (
                "firehose_approx_probes",
                "Configured prefix-probe count per approximate lookup",
                u64::from(approx.probes()),
            ),
            (
                "firehose_approx_bucket_budget",
                "Configured retained-record cap per approximate time bucket",
                u64::from(approx.bucket_budget()),
            ),
            (
                "firehose_approx_granularity",
                "Configured time buckets per λt window in approximate mode",
                u64::from(approx.granularity()),
            ),
        ] {
            registry.gauge(gauge, help, labels(&[])).set(value as i64);
        }
    }
    if let Some(s) = stats {
        for (counter, help, value) in [
            (
                "firehose_approx_probes_total",
                "Prefix-table lookups performed by approximate bins",
                s.probes_run,
            ),
            (
                "firehose_approx_candidates_probed_total",
                "Candidate verifications performed across approximate lookups",
                s.candidates_probed,
            ),
            (
                "firehose_approx_displaced_total",
                "Records dropped by approximate bucket retention caps",
                s.displaced,
            ),
            (
                "firehose_approx_retained_records",
                "Records currently retained across approximate bins",
                s.retained,
            ),
        ] {
            registry.counter(counter, help, labels(&[])).set(value);
        }
    }
    name
}

/// Export an ingest-guard [`QuarantineStats`](firehose_stream::QuarantineStats)
/// snapshot into `registry` as counters labelled `{stream="<label>"}` (and
/// `{stream, reason}` for the per-reason quarantine counts). Called at
/// reporting time, not per post.
pub fn export_guard_stats(
    registry: &Registry,
    stream: &str,
    stats: &firehose_stream::QuarantineStats,
) {
    let l = labels(&[("stream", stream)]);
    for (name, help, value) in [
        (
            "firehose_guard_admitted_total",
            "Posts the ingest guard released downstream",
            stats.admitted,
        ),
        (
            "firehose_guard_quarantined_total",
            "Posts the ingest guard quarantined (all reasons)",
            stats.quarantined_total(),
        ),
        (
            "firehose_guard_clamped_timestamps_total",
            "Admitted posts whose timestamp was clamped to the watermark",
            stats.clamped_timestamps,
        ),
        (
            "firehose_guard_truncated_texts_total",
            "Admitted posts whose text was truncated to the size limit",
            stats.truncated_texts,
        ),
        (
            "firehose_guard_reordered_total",
            "Admitted posts re-sorted by the reorder buffer",
            stats.reordered,
        ),
    ] {
        registry.counter(name, help, l.clone()).set(value);
    }
    for (reason, count) in stats.counts() {
        registry
            .counter(
                "firehose_guard_rejects_total",
                "Posts quarantined by the ingest guard, by reason",
                labels(&[("stream", stream), ("reason", reason.as_str())]),
            )
            .set(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_obs_records() {
        let r = Registry::new();
        let obs = EngineObs::register(&r, "UniBin");
        obs.record_offer(Instant::now(), 7);
        assert_eq!(obs.offer_latency.count(), 1);
        assert_eq!(obs.offer_comparisons.count(), 1);
        // Registering again returns handles to the same instruments.
        let again = EngineObs::register(&r, "UniBin");
        assert_eq!(again.offer_comparisons.count(), 1);
    }

    #[test]
    fn export_renders_prometheus_counters() {
        let r = Registry::new();
        let m = EngineMetrics {
            posts_processed: 10,
            posts_emitted: 7,
            comparisons: 42,
            insertions: 7,
            evictions: 2,
            copies_stored: 5,
            peak_copies: 6,
            peak_memory_bytes: 144,
        };
        export_engine_metrics(&r, "CliqueBin", &m);
        let text = r.render_prometheus();
        assert!(text.contains("firehose_posts_processed_total{engine=\"CliqueBin\"} 10"));
        assert!(text.contains("firehose_comparisons_total{engine=\"CliqueBin\"} 42"));
        assert!(text.contains("firehose_peak_memory_bytes{engine=\"CliqueBin\"} 144"));
        // Re-export after progress overwrites, never duplicates.
        let mut m2 = m;
        m2.comparisons = 50;
        export_engine_metrics(&r, "CliqueBin", &m2);
        let text = r.render_prometheus();
        assert!(text.contains("firehose_comparisons_total{engine=\"CliqueBin\"} 50"));
        assert!(!text.contains("firehose_comparisons_total{engine=\"CliqueBin\"} 42"));
    }

    #[test]
    fn guard_stats_export_renders_per_reason_counters() {
        use firehose_stream::{guard_stream, GuardConfig, GuardPolicy, Post};
        let r = Registry::new();
        let posts = vec![
            Post::new(1, 0, 1_000, "fine".into()),
            Post::new(1, 0, 1_500, "duplicate id".into()),
            Post::new(2, 0, 500, "out of order".into()),
        ];
        let (_, stats) = guard_stream(GuardConfig::new(GuardPolicy::Strict), posts);
        export_guard_stats(&r, "calm", &stats);
        let text = r.render_prometheus();
        assert!(
            text.contains("firehose_guard_admitted_total{stream=\"calm\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("firehose_guard_quarantined_total{stream=\"calm\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(
                "firehose_guard_rejects_total{reason=\"duplicate_id\",stream=\"calm\"} 1"
            ) || text.contains(
                "firehose_guard_rejects_total{stream=\"calm\",reason=\"duplicate_id\"} 1"
            ),
            "{text}"
        );
    }

    #[test]
    fn kernel_info_exported_once_per_kernel() {
        let r = Registry::new();
        let kernel = export_kernel_info(&r);
        assert!(["avx2", "neon", "scalar"].contains(&kernel));
        let text = r.render_prometheus();
        assert!(
            text.contains(&format!("firehose_kernel_info{{kernel=\"{kernel}\"}} 1")),
            "{text}"
        );
        // Idempotent re-export.
        assert_eq!(export_kernel_info(&r), kernel);
    }

    #[test]
    fn memory_mode_exported_with_approx_counters() {
        use crate::config::{ApproxConfig, MemoryMode};

        let r = Registry::new();
        assert_eq!(export_memory_mode(&r, &MemoryMode::Exact, None), "exact");
        let text = r.render_prometheus();
        assert!(
            text.contains("firehose_memory_mode{mode=\"exact\"} 1"),
            "{text}"
        );
        assert!(!text.contains("firehose_approx_probes_total"), "{text}");

        let r = Registry::new();
        let mode = MemoryMode::Approx(ApproxConfig::new(4, 16, 8).unwrap());
        let stats = firehose_stream::ApproxStats {
            probes_run: 7,
            candidates_probed: 21,
            displaced: 3,
            retained: 5,
        };
        assert_eq!(export_memory_mode(&r, &mode, Some(stats)), "approx");
        let text = r.render_prometheus();
        assert!(
            text.contains("firehose_memory_mode{mode=\"approx\"} 1"),
            "{text}"
        );
        assert!(text.contains("firehose_approx_bucket_budget 16"), "{text}");
        assert!(text.contains("firehose_approx_probes_total 7"), "{text}");
        assert!(
            text.contains("firehose_approx_candidates_probed_total 21"),
            "{text}"
        );
        assert!(text.contains("firehose_approx_displaced_total 3"), "{text}");
        assert!(
            text.contains("firehose_approx_retained_records 5"),
            "{text}"
        );
    }
}
