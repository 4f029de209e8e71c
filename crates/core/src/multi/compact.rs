//! `CompactEngine`: a single-user engine over a dense relabeling of an
//! author subset — one per user (`M_*`) or per distinct component (`S_*`)
//! in the static references of the `firehose-reference` crate, and the
//! decoder of per-component checkpoint blobs.

use std::collections::HashMap;
use std::sync::Arc;

use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, PostRecord};

use crate::config::EngineConfig;
use crate::decision::Decision;
use crate::engine::{build_engine, AlgorithmKind, Diversifier};
use crate::metrics::EngineMetrics;

/// A single-user engine over a compact relabeling of a subset of authors.
///
/// Per-user (and per-component) engines must not allocate `m`-sized bin
/// tables for a handful of subscriptions, so the author subset is relabeled
/// to dense local ids `0..k` and the engine runs on the induced subgraph.
pub struct CompactEngine {
    engine: Box<dyn Diversifier + Send>,
    local_id: HashMap<AuthorId, u32>,
    /// Sorted member list; `members[local]` reverses `local_id`.
    members: Vec<AuthorId>,
}

impl CompactEngine {
    /// Build an engine of `kind` over the subgraph of `global` induced by
    /// `members` (sorted, deduplicated author ids).
    pub fn build(
        kind: AlgorithmKind,
        mut config: EngineConfig,
        global: &UndirectedGraph,
        members: &[AuthorId],
    ) -> Self {
        // This engine sees only its members' posts: scale the bin-presizing
        // rate hint to their share of the global stream (assuming uniform
        // posting). Thresholds and decisions are untouched.
        if global.node_count() > 0 {
            config.expected_rate =
                config.expected_rate * members.len() as f64 / global.node_count() as f64;
        }
        let local_id: HashMap<AuthorId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        let mut g = UndirectedGraph::new(members.len());
        for (i, &a) in members.iter().enumerate() {
            for &b in global.neighbors(a) {
                if b > a {
                    if let Some(&j) = local_id.get(&b) {
                        g.add_edge(i as u32, j);
                    }
                }
            }
        }
        Self {
            engine: build_engine(kind, config, Arc::new(g)),
            local_id,
            members: members.to_vec(),
        }
    }

    /// Offer a record whose author is translated to the local id space.
    /// Returns `None` when the author is not a member (not subscribed).
    pub fn offer(&mut self, mut record: PostRecord) -> Option<Decision> {
        let &local = self.local_id.get(&record.author)?;
        record.author = local;
        Some(self.engine.offer_record(record))
    }

    /// The wrapped engine's counters.
    pub fn metrics(&self) -> &EngineMetrics {
        self.engine.metrics()
    }

    /// Sweep all bins of the wrapped engine.
    pub fn evict_expired(&mut self, now: firehose_stream::Timestamp) {
        self.engine.evict_expired(now);
    }

    /// Append the engine's distinct in-window records to `out` with authors
    /// translated back to **global** ids, in `(timestamp, id)` order (see
    /// [`Diversifier::window_records`]).
    pub(crate) fn window_records_into(&self, out: &mut Vec<PostRecord>) {
        let start = out.len();
        self.engine.window_records(out);
        for r in &mut out[start..] {
            r.author = self.members[r.author as usize];
        }
    }

    /// Restore the wrapped engine's mutable state (see
    /// [`Diversifier::load_state`]).
    pub(crate) fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.engine.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use firehose_stream::minutes;

    #[test]
    fn compact_engine_relabels_authors() {
        let graph = UndirectedGraph::from_edges(5, [(2, 4)]);
        let mut ce = CompactEngine::build(
            AlgorithmKind::NeighborBin,
            EngineConfig::new(Thresholds::new(2, minutes(30), 0.7).unwrap()),
            &graph,
            &[2, 4],
        );
        let rec = |id, author, ts, fp| PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        };
        assert!(ce.offer(rec(1, 2, 0, 0)).unwrap().is_emitted());
        // Author 4 is similar to author 2 in the induced subgraph.
        assert_eq!(ce.offer(rec(2, 4, 1_000, 1)).unwrap().covered_by(), Some(1));
        // Author 3 is not a member.
        assert!(ce.offer(rec(3, 3, 2_000, 0)).is_none());
        // Window records come back with global author ids.
        let mut out = Vec::new();
        ce.window_records_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].author, 2);
    }
}
