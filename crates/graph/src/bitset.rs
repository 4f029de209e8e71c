//! Lazily-built adjacency bitsets: the O(1) author-similarity fast path.
//!
//! The engines' coverage scan asks "is stored author `v` similar to incoming
//! author `u`?" once per examined record — with sorted adjacency lists that
//! is a binary search, `O(log degree)` with data-dependent branches on every
//! probe. [`AdjacencyBitsets`] trades that for one dense bit-test: the first
//! time an author `u` is probed, their neighbor list is scattered into a
//! `⌈n/64⌉`-word bitmask (`O(degree + n/64)`, once), and every subsequent
//! probe is a shift+AND.
//!
//! Rows are built **lazily** because the engines probe a heavily skewed slice
//! of authors (only those whose posts collide on content inside a λt window),
//! and because multi-user strategies build many small per-component engines
//! where an eager `n × n/64` table would dwarf the bins it serves. Each
//! engine owns its own `AdjacencyBitsets` (the graph itself is shared behind
//! an `Arc` and stays immutable).

use crate::undirected::UndirectedGraph;
use crate::NodeId;

const WORD_BITS: usize = u64::BITS as usize;

/// Per-node adjacency rows as dense bitmasks, built on first probe.
///
/// ```
/// use firehose_graph::{AdjacencyBitsets, UndirectedGraph};
///
/// let g = UndirectedGraph::from_edges(70, [(0, 1), (0, 69)]);
/// let mut bits = AdjacencyBitsets::new(g.node_count());
/// let row = bits.row(&g, 0);
/// assert!(AdjacencyBitsets::test(row, 69)); // edge
/// assert!(!AdjacencyBitsets::test(row, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdjacencyBitsets {
    words_per_row: usize,
    rows: Vec<Option<Box<[u64]>>>,
}

impl AdjacencyBitsets {
    /// Empty cache for a graph of `node_count` nodes. Allocates one `Option`
    /// per node; row storage is deferred until [`row`](Self::row).
    pub fn new(node_count: usize) -> Self {
        Self {
            words_per_row: node_count.div_ceil(WORD_BITS),
            rows: vec![None; node_count],
        }
    }

    /// The bitmask row for `u`, built from `graph.neighbors(u)` on first use.
    ///
    /// `graph` must be the graph this cache was sized for (asserted via node
    /// count in debug builds) and must not change between calls.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn row(&mut self, graph: &UndirectedGraph, u: NodeId) -> &[u64] {
        debug_assert_eq!(self.rows.len(), graph.node_count(), "cache/graph mismatch");
        let slot = &mut self.rows[u as usize];
        if slot.is_none() {
            let mut bits = vec![0u64; self.words_per_row].into_boxed_slice();
            for &v in graph.neighbors(u) {
                bits[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
            }
            *slot = Some(bits);
        }
        slot.as_deref().expect("row just built")
    }

    /// One probe against a row returned by [`row`](Self::row): `true` iff bit
    /// `v` is set. Split out so callers can hoist the row lookup out of a
    /// scan loop and pay only the shift+AND per candidate.
    #[inline]
    pub fn test(row: &[u64], v: NodeId) -> bool {
        row[v as usize / WORD_BITS] & (1u64 << (v as usize % WORD_BITS)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl AdjacencyBitsets {
        /// The engines' author-dimension predicate: same author, or an edge
        /// in the similarity graph. Decision-equivalent to
        /// `u == v || graph.has_edge(u, v)` with the binary search replaced
        /// by a bit-test.
        fn similar(&mut self, graph: &UndirectedGraph, u: NodeId, v: NodeId) -> bool {
            u == v || Self::test(self.row(graph, u), v)
        }

        /// Rows materialized so far.
        fn built_rows(&self) -> usize {
            self.rows.iter().filter(|r| r.is_some()).count()
        }
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new(0);
        let bits = AdjacencyBitsets::new(g.node_count());
        assert_eq!(bits.rows.len(), 0);
        assert_eq!(bits.built_rows(), 0);
    }

    #[test]
    fn rows_are_lazy_and_counted() {
        let g = UndirectedGraph::from_edges(130, [(0, 1), (64, 128)]);
        let mut bits = AdjacencyBitsets::new(g.node_count());
        assert!(bits.similar(&g, 64, 128));
        assert!(bits.similar(&g, 64, 128), "second probe hits the cache");
        assert_eq!(bits.built_rows(), 1);
    }

    #[test]
    fn word_boundary_nodes() {
        // Nodes 63/64/65 straddle the first word boundary.
        let g = UndirectedGraph::from_edges(66, [(63, 64), (0, 65)]);
        let mut bits = AdjacencyBitsets::new(g.node_count());
        assert!(bits.similar(&g, 63, 64));
        assert!(bits.similar(&g, 64, 63));
        assert!(bits.similar(&g, 65, 0));
        assert!(!bits.similar(&g, 63, 65));
    }

    proptest! {
        /// The bitset probe agrees with the sorted-adjacency binary search on
        /// arbitrary graphs, for every ordered node pair (including u == v,
        /// where `similar` must not consult the graph at all).
        #[test]
        fn bitset_matches_binary_search(
            n in 1usize..140,
            edges in proptest::collection::vec((0u32..140, 0u32..140), 0..80),
        ) {
            let edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as NodeId, v % n as NodeId))
                .collect();
            let g = UndirectedGraph::from_edges(n, edges);
            let mut bits = AdjacencyBitsets::new(g.node_count());
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    let reference = u == v || g.has_edge(u, v);
                    prop_assert_eq!(
                        bits.similar(&g, u, v),
                        reference,
                        "({}, {}) diverged", u, v
                    );
                }
            }
            prop_assert!(bits.built_rows() <= g.node_count());
        }
    }
}
