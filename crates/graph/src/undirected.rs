//! Undirected graph with sorted adjacency lists.
//!
//! This is the representation of the author similarity graph `G` (and of each
//! user's subgraph `Gi`). Neighbor lists are sorted so `has_edge` is a binary
//! search and set operations (clique extension, induced subgraphs) are linear
//! merges.

use crate::NodeId;

/// An undirected graph over nodes `0..n` with sorted, deduplicated adjacency
/// lists. Self-loops are rejected at construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndirectedGraph {
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl UndirectedGraph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Build from an edge list. Duplicate edges are collapsed; self-loops are
    /// ignored (an author is always "similar" to herself — the engines handle
    /// that case without graph support).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The complete graph `K_n`: every pair of nodes adjacent. Used to
    /// *disable* the author diversity dimension (all authors similar), e.g.
    /// in the Figure 10 ablation. Memory is `O(n²)` — fine for tens of
    /// thousands of nodes, ruinous beyond.
    pub fn complete(n: usize) -> Self {
        let mut adj = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            let mut ns: Vec<NodeId> = Vec::with_capacity(n.saturating_sub(1));
            ns.extend(0..u);
            ns.extend((u + 1)..n as NodeId);
            adj.push(ns);
        }
        Self {
            adj,
            edges: n * n.saturating_sub(1) / 2,
        }
    }

    /// Insert edge `{u, v}`. Returns `true` if the edge was new.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.adj.len(), "node {u} out of range");
        assert!((v as usize) < self.adj.len(), "node {v} out of range");
        if u == v {
            return false;
        }
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.adj[u as usize].insert(pos, v);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.adj[v as usize].insert(pos, u);
        self.edges += 1;
        true
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// `true` iff `{u, v}` is an edge. `O(log degree)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|ns| ns.binary_search(&v).is_ok())
    }

    /// Iterate all edges as `(u, v)` with `u < v`.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            let u = u as NodeId;
            ns.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Average degree (`2·|E| / |V|`); 0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.adj.len() as f64
        }
    }

    /// The subgraph induced by `nodes` (which need not be sorted), expressed
    /// over the *original* node ids. Nodes outside `nodes` keep empty
    /// adjacency. This mirrors the paper's `Gi` — "the subgraph of G that
    /// contains all the \[subscribed\] authors and the edges among them".
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> UndirectedGraph {
        let mut member = vec![false; self.adj.len()];
        for &u in nodes {
            member[u as usize] = true;
        }
        let mut g = UndirectedGraph::new(self.adj.len());
        for &u in nodes {
            for &v in self.neighbors(u) {
                if u < v && member[v as usize] {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle_plus_tail() -> UndirectedGraph {
        // 0-1, 1-2, 0-2 (triangle), 2-3 (tail), 4 isolated
        UndirectedGraph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = UndirectedGraph::from_edges(6, [(3, 5), (3, 1), (3, 4), (3, 0)]);
        assert_eq!(g.neighbors(3), &[0, 1, 4, 5]);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3) && !g.has_edge(3, 0));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = UndirectedGraph::from_edges(2, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_ignored() {
        let g = UndirectedGraph::from_edges(2, [(0, 0), (1, 1)]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edges_iterator_ordered_pairs() {
        let g = triangle_plus_tail();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn complete_graph() {
        let g = UndirectedGraph::complete(5);
        assert_eq!(g.edge_count(), 10);
        for u in 0..5 {
            assert_eq!(g.degree(u), 4);
            for v in 0..5 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
        assert_eq!(UndirectedGraph::complete(0).edge_count(), 0);
        assert_eq!(UndirectedGraph::complete(1).edge_count(), 0);
    }

    #[test]
    fn average_degree() {
        let g = triangle_plus_tail();
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(UndirectedGraph::new(0).average_degree(), 0.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle_plus_tail();
        let sub = g.induced_subgraph(&[0, 1, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(0, 2)); // 2 not in subset
        assert!(!sub.has_edge(2, 3));
        assert_eq!(sub.edge_count(), 1);
    }

    proptest! {
        #[test]
        fn edge_count_matches_degree_sum(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)
        ) {
            let g = UndirectedGraph::from_edges(20, edges);
            let degree_sum: usize = (0..20).map(|u| g.degree(u)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }

        #[test]
        fn edges_iterator_roundtrip(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)
        ) {
            let g = UndirectedGraph::from_edges(20, edges);
            let rebuilt = UndirectedGraph::from_edges(20, g.edges());
            prop_assert_eq!(g, rebuilt);
        }

        #[test]
        fn induced_subgraph_is_subset(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..40),
            subset in proptest::collection::vec(0u32..15, 0..15),
        ) {
            let g = UndirectedGraph::from_edges(15, edges);
            let sub = g.induced_subgraph(&subset);
            for (u, v) in sub.edges() {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(subset.contains(&u) && subset.contains(&v));
            }
        }
    }
}
