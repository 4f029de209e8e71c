//! Single-user SPSD engines (Section 4).
//!
//! All three engines implement [`Diversifier`] and emit the *same*
//! diversified sub-stream `Z` for the same inputs — they differ only in how
//! posts are indexed, trading RAM for comparisons (Table 3):
//!
//! | engine | RAM | comparisons | insertions |
//! |---|---|---|---|
//! | [`UniBin`] | low | high | low |
//! | [`NeighborBin`] | high | low | high |
//! | [`CliqueBin`] | moderate | moderate | moderate |

mod cliquebin;
mod neighborbin;
mod unibin;

pub use cliquebin::CliqueBin;
pub use neighborbin::NeighborBin;
pub use unibin::UniBin;

use std::sync::Arc;

use firehose_graph::{greedy_clique_cover, CliqueCover, UndirectedGraph};
use firehose_stream::{Post, PostRecord};

use crate::config::EngineConfig;
use crate::decision::Decision;
use crate::metrics::EngineMetrics;

/// A real-time stream diversifier: decides for each arriving post whether it
/// joins the diversified sub-stream `Z` or is covered by an earlier emission.
///
/// Posts must be offered in timestamp order (the stream contract of
/// Problem 1) with author ids below the similarity graph's node count.
pub trait Diversifier {
    /// Offer a pre-fingerprinted record. This is the hot entry point: the
    /// multi-user engines fingerprint a post once and feed the record to many
    /// sub-engines.
    fn offer_record(&mut self, record: PostRecord) -> Decision;

    /// Offer a raw post; fingerprints the text with the engine's SimHash
    /// configuration, then delegates to
    /// [`offer_record`](Self::offer_record).
    fn offer(&mut self, post: &Post) -> Decision {
        let record = post.to_record(self.config().simhash);
        self.offer_record(record)
    }

    /// The engine's configuration.
    fn config(&self) -> &EngineConfig;

    /// Performance counters accumulated so far.
    fn metrics(&self) -> &EngineMetrics;

    /// Human-readable algorithm name (`"UniBin"`, ...).
    fn name(&self) -> &'static str;

    /// Evict every record that can no longer cover an arrival at `now`
    /// (timestamp older than `now − λt`) from **all** bins.
    ///
    /// Engines evict lazily on the bins they touch per offer; bins of
    /// inactive authors/cliques would otherwise retain their last window
    /// forever. Single-user deployments rarely care, but the multi-user
    /// engines host thousands of mostly-idle sub-engines and call this
    /// periodically (a timer sweep in a real deployment).
    fn evict_expired(&mut self, now: firehose_stream::Timestamp);

    /// Current record payload across all bins, in bytes.
    fn memory_bytes(&self) -> u64 {
        self.metrics().memory_bytes()
    }

    /// Lifetime counters of the approximate coverage backend, merged across
    /// this engine's bins; `None` when the engine runs exact.
    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        None
    }

    /// Attach hot-path instruments: every subsequent
    /// [`offer_record`](Self::offer_record) records its wall-clock latency
    /// and comparison count into the histograms of `obs`. Unattached engines
    /// pay only an `Option` branch per offer.
    fn attach_obs(&mut self, obs: crate::obs::EngineObs) {
        let _ = obs;
    }

    /// Serialize the engine's mutable state — counters and bins, *not* the
    /// configuration or the graph/cover (large shared artifacts the host
    /// re-supplies on restore). The bytes round-trip through
    /// [`load_state`](Self::load_state) on an engine built with the same
    /// configuration and structure, after which both engines make identical
    /// future decisions. Checkpoints (`crate::snapshot::checkpoint`) wrap
    /// these bytes in a CRC-protected section.
    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;

    /// Replace this engine's mutable state with bytes previously produced
    /// by [`save_state`](Self::save_state). Validates the bytes against the
    /// engine's own graph/cover structure; on error the engine state is
    /// unspecified and the engine must be discarded.
    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError>;

    /// The engine's tag in the snapshot/checkpoint format (stable across
    /// versions; used to reject restoring state into the wrong kind).
    fn snapshot_tag(&self) -> u8;

    /// Append every **distinct** stored record (the emitted posts whose copy
    /// is still held by some bin) to `out`, in `(timestamp, id)` order.
    /// Engines that store multiple copies per emission report each post once.
    /// Used by the multi-user layer to convert per-component checkpoint
    /// state into its labelled window.
    fn window_records(&self, out: &mut Vec<PostRecord>);
}

impl<D: Diversifier + ?Sized> Diversifier for Box<D> {
    fn offer_record(&mut self, record: PostRecord) -> Decision {
        (**self).offer_record(record)
    }

    fn offer(&mut self, post: &Post) -> Decision {
        (**self).offer(post)
    }

    fn config(&self) -> &EngineConfig {
        (**self).config()
    }

    fn metrics(&self) -> &EngineMetrics {
        (**self).metrics()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn evict_expired(&mut self, now: firehose_stream::Timestamp) {
        (**self).evict_expired(now)
    }

    fn memory_bytes(&self) -> u64 {
        (**self).memory_bytes()
    }

    fn approx_stats(&self) -> Option<firehose_stream::ApproxStats> {
        (**self).approx_stats()
    }

    fn attach_obs(&mut self, obs: crate::obs::EngineObs) {
        (**self).attach_obs(obs)
    }

    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        (**self).save_state(w)
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        (**self).load_state(r)
    }

    fn snapshot_tag(&self) -> u8 {
        (**self).snapshot_tag()
    }

    fn window_records(&self, out: &mut Vec<PostRecord>) {
        (**self).window_records(out)
    }
}

/// Canonical order for [`Diversifier::window_records`] output: dedup by post
/// id, then sort by `(timestamp, id)` — the replay order warm-start seeding
/// expects.
pub(crate) fn order_window_records(out: &mut Vec<PostRecord>) {
    order_window_records_from(out, 0);
}

/// [`order_window_records`] restricted to `out[start..]`. Engines append to
/// a caller-owned buffer; ordering only their own tail keeps the appended
/// range contiguous, which multi-engine collectors (translation of local
/// author ids back to global, cross-engine seed gathering) rely on.
pub(crate) fn order_window_records_from(out: &mut Vec<PostRecord>, start: usize) {
    let tail = &mut out[start..];
    tail.sort_unstable_by_key(|r| r.id);
    let mut w = start;
    for i in start..out.len() {
        if i == start || out[i].id != out[w - 1].id {
            out[w] = out[i];
            w += 1;
        }
    }
    out.truncate(w);
    out[start..].sort_unstable_by_key(|r| (r.timestamp, r.id));
}

/// Algorithm selector for factory construction and the advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Single shared bin ([`UniBin`]).
    UniBin,
    /// Per-author bins ([`NeighborBin`]).
    NeighborBin,
    /// Per-clique bins ([`CliqueBin`]).
    CliqueBin,
}

impl AlgorithmKind {
    /// All three algorithms, in paper order.
    pub const ALL: [AlgorithmKind; 3] = [
        AlgorithmKind::UniBin,
        AlgorithmKind::NeighborBin,
        AlgorithmKind::CliqueBin,
    ];
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlgorithmKind::UniBin => "UniBin",
            AlgorithmKind::NeighborBin => "NeighborBin",
            AlgorithmKind::CliqueBin => "CliqueBin",
        })
    }
}

/// Build an engine of the requested kind over the author similarity graph.
///
/// For [`AlgorithmKind::CliqueBin`] the greedy clique edge cover is computed
/// here; use [`CliqueBin::with_cover`] to share a precomputed cover.
pub fn build_engine(
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
) -> Box<dyn Diversifier + Send> {
    match kind {
        AlgorithmKind::UniBin => Box::new(UniBin::new(config, graph)),
        AlgorithmKind::NeighborBin => Box::new(NeighborBin::new(config, graph)),
        AlgorithmKind::CliqueBin => {
            let cover = Arc::new(greedy_clique_cover(&graph));
            Box::new(CliqueBin::with_cover(config, graph, cover))
        }
    }
}

/// Build a [`CliqueBin`] reusing a precomputed cover (M-SPSD setup shares
/// covers across users).
pub(crate) fn build_cliquebin_with_cover(
    config: EngineConfig,
    graph: Arc<UndirectedGraph>,
    cover: Arc<CliqueCover>,
) -> Box<dyn Diversifier + Send> {
    Box::new(CliqueBin::with_cover(config, graph, cover))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    #[test]
    fn order_window_records_from_leaves_prefix_untouched() {
        let rec = |id: u64, author: u32, ts: u64| firehose_stream::PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: 0,
        };
        // Prefix records (already translated by an earlier engine) carry
        // author ids that would be out of range for a later engine; ids
        // interleave so whole-buffer sorting would shuffle them into the
        // tail.
        let mut out = vec![rec(1, 900, 0), rec(5, 901, 10)];
        out.extend([rec(4, 0, 7), rec(2, 1, 3), rec(4, 0, 7)]);
        order_window_records_from(&mut out, 2);
        assert_eq!(&out[..2], &[rec(1, 900, 0), rec(5, 901, 10)]);
        assert_eq!(&out[2..], &[rec(2, 1, 3), rec(4, 0, 7)]);
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmKind::UniBin.to_string(), "UniBin");
        assert_eq!(AlgorithmKind::NeighborBin.to_string(), "NeighborBin");
        assert_eq!(AlgorithmKind::CliqueBin.to_string(), "CliqueBin");
    }

    #[test]
    fn factory_builds_all_kinds() {
        let graph = Arc::new(UndirectedGraph::from_edges(3, [(0, 1)]));
        let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        for kind in AlgorithmKind::ALL {
            let engine = build_engine(kind, config, Arc::clone(&graph));
            assert_eq!(engine.name(), kind.to_string());
            assert_eq!(engine.metrics().posts_processed, 0);
        }
    }
}
