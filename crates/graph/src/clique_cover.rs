//! Greedy clique edge cover (Section 4.3).
//!
//! CliqueBin assigns one post bin per clique of a *clique edge cover* of the
//! author similarity graph: a collection of cliques whose union contains all
//! edges. Minimizing the sum of clique sizes is NP-hard, so the paper uses a
//! greedy heuristic:
//!
//! > It starts by picking an edge in `Gi` to form an initial clique. Then it
//! > extends the clique by adding nodes that are neighbors to all the nodes
//! > in the clique. When there is no such node, the clique is saved and the
//! > algorithm picks another edge not yet included in any found cliques and
//! > repeats the above process. We stop when all edges are covered.
//!
//! [`CliqueCover`] also materializes the `Author2Cliques` hashmap the engine
//! probes on every arriving post.

use std::collections::HashSet;

use crate::undirected::UndirectedGraph;
use crate::NodeId;

/// A clique edge cover plus the author → clique-ids index.
#[derive(Debug, Clone)]
pub struct CliqueCover {
    /// Each clique as a sorted node list (always ≥ 2 nodes).
    cliques: Vec<Vec<NodeId>>,
    /// `Author2Cliques`: for each node, the ids of the cliques containing it.
    /// Isolated nodes (degree 0) belong to no clique.
    cliques_of: Vec<Vec<u32>>,
}

impl CliqueCover {
    /// Rebuild a cover from sorted clique node lists (deserialization; see
    /// `crate::io`). The caller asserts the lists are sorted — membership
    /// indexes are rebuilt here.
    pub(crate) fn from_sorted_cliques(n: usize, cliques: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(cliques.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        Self::from_cliques(n, cliques)
    }

    fn from_cliques(n: usize, cliques: Vec<Vec<NodeId>>) -> Self {
        let mut cliques_of = vec![Vec::new(); n];
        for (id, clique) in cliques.iter().enumerate() {
            for &u in clique {
                cliques_of[u as usize].push(id as u32);
            }
        }
        Self {
            cliques,
            cliques_of,
        }
    }

    /// All cliques (sorted node lists).
    pub fn cliques(&self) -> &[Vec<NodeId>] {
        &self.cliques
    }

    /// Ids of the cliques containing `u` (the `Author2Cliques` lookup).
    pub fn cliques_of(&self, u: NodeId) -> &[u32] {
        &self.cliques_of[u as usize]
    }

    /// Nodes of clique `id`.
    pub fn members(&self, id: u32) -> &[NodeId] {
        &self.cliques[id as usize]
    }

    /// Number of cliques.
    pub fn count(&self) -> usize {
        self.cliques.len()
    }

    /// Sum of clique sizes — the space-cost objective the heuristic minimizes
    /// (number of post-copies stored per non-redundant post, aggregated over
    /// authors).
    pub fn total_size(&self) -> usize {
        self.cliques.iter().map(Vec::len).sum()
    }

    /// Average number of cliques per node that belongs to at least one clique
    /// (the paper's `c`). 0 for an edgeless graph.
    pub fn avg_cliques_per_member(&self) -> f64 {
        let members = self.cliques_of.iter().filter(|c| !c.is_empty()).count();
        if members == 0 {
            0.0
        } else {
            self.total_size() as f64 / members as f64
        }
    }

    /// Average clique size (the paper's `s`). 0 when there are no cliques.
    pub fn avg_clique_size(&self) -> f64 {
        if self.cliques.is_empty() {
            0.0
        } else {
            self.total_size() as f64 / self.cliques.len() as f64
        }
    }

    /// Verify the cover against `g`: every clique must be a clique of `g` and
    /// every edge of `g` must lie inside some clique. Used by tests and debug
    /// assertions.
    pub fn validate(&self, g: &UndirectedGraph) -> Result<(), String> {
        for (id, clique) in self.cliques.iter().enumerate() {
            if clique.len() < 2 {
                return Err(format!("clique {id} has fewer than 2 nodes"));
            }
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    if !g.has_edge(u, v) {
                        return Err(format!("clique {id} contains non-edge ({u},{v})"));
                    }
                }
            }
        }
        let mut covered: HashSet<(NodeId, NodeId)> = HashSet::new();
        for clique in &self.cliques {
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    covered.insert((u.min(v), u.max(v)));
                }
            }
        }
        for (u, v) in g.edges() {
            if !covered.contains(&(u, v)) {
                return Err(format!("edge ({u},{v}) uncovered"));
            }
        }
        Ok(())
    }
}

/// Pack an edge `{u, v}` into a set key with `u < v`.
#[inline]
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

/// The paper's greedy clique edge cover heuristic.
///
/// Seed edges are visited in `(u, v)` order and cliques are extended with the
/// smallest-id common neighbor first, so the result is deterministic.
pub fn greedy_clique_cover(g: &UndirectedGraph) -> CliqueCover {
    let mut covered: HashSet<u64> = HashSet::new();
    let mut cliques: Vec<Vec<NodeId>> = Vec::new();

    for (u, v) in g.edges() {
        if covered.contains(&edge_key(u, v)) {
            continue;
        }
        // Seed clique {u, v}; candidates = common neighbors of the clique.
        let mut clique = vec![u, v];
        let mut candidates: Vec<NodeId> = intersect_sorted(g.neighbors(u), g.neighbors(v));
        candidates.retain(|&w| w != u && w != v);
        while let Some(&w) = candidates.first() {
            clique.push(w);
            let keep = intersect_sorted(&candidates, g.neighbors(w));
            candidates = keep;
        }
        clique.sort_unstable();
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                covered.insert(edge_key(a, b));
            }
        }
        cliques.push(clique);
    }

    CliqueCover::from_cliques(g.node_count(), cliques)
}

/// The trivial cover: every edge is its own 2-clique. Used as the baseline in
/// the `ablation_clique_cover` benchmark — it maximizes per-author clique
/// counts and therefore CliqueBin's RAM.
pub fn naive_edge_cover(g: &UndirectedGraph) -> CliqueCover {
    let cliques: Vec<Vec<NodeId>> = g.edges().map(|(u, v)| vec![u, v]).collect();
    CliqueCover::from_cliques(g.node_count(), cliques)
}

/// Intersection of two sorted slices.
fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn triangle_covered_by_one_clique() {
        let g = UndirectedGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.count(), 1);
        assert_eq!(cover.members(0), &[0, 1, 2]);
        cover.validate(&g).unwrap();
    }

    #[test]
    fn paper_figure5_topology() {
        // Figure 5a: a1-a2, a1-a3, a2-a3 (triangle) and a3-a4.
        let g = UndirectedGraph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
        let cover = greedy_clique_cover(&g);
        cover.validate(&g).unwrap();
        // Two cliques: {a1,a2,a3} (C0) and {a3,a4} (C1), as in Figure 6c.
        assert_eq!(cover.count(), 2);
        assert_eq!(cover.members(0), &[0, 1, 2]);
        assert_eq!(cover.members(1), &[2, 3]);
        assert_eq!(cover.cliques_of(2), &[0, 1]); // a3 in both
        assert_eq!(cover.cliques_of(3), &[1]); // a4 only in C1
    }

    #[test]
    fn path_graph_becomes_edge_cliques() {
        let g = UndirectedGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.count(), 3);
        cover.validate(&g).unwrap();
    }

    #[test]
    fn isolated_nodes_have_no_cliques() {
        let g = UndirectedGraph::from_edges(3, [(0, 1)]);
        let cover = greedy_clique_cover(&g);
        assert!(cover.cliques_of(2).is_empty());
    }

    #[test]
    fn empty_graph_empty_cover() {
        let g = UndirectedGraph::new(5);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.count(), 0);
        assert_eq!(cover.total_size(), 0);
        assert_eq!(cover.avg_clique_size(), 0.0);
        assert_eq!(cover.avg_cliques_per_member(), 0.0);
        cover.validate(&g).unwrap();
    }

    #[test]
    fn greedy_beats_naive_on_dense_graphs() {
        // K5: greedy = one clique of 5 (size 5); naive = 10 edge cliques (size 20).
        let edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|u| ((u + 1)..5).map(move |v| (u, v)))
            .collect();
        let g = UndirectedGraph::from_edges(5, edges);
        let greedy = greedy_clique_cover(&g);
        let naive = naive_edge_cover(&g);
        assert_eq!(greedy.total_size(), 5);
        assert_eq!(naive.total_size(), 20);
        greedy.validate(&g).unwrap();
        naive.validate(&g).unwrap();
    }

    #[test]
    fn stats_on_k4() {
        let edges: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| ((u + 1)..4).map(move |v| (u, v)))
            .collect();
        let g = UndirectedGraph::from_edges(4, edges);
        let cover = greedy_clique_cover(&g);
        assert_eq!(cover.count(), 1);
        assert_eq!(cover.avg_clique_size(), 4.0);
        assert_eq!(cover.avg_cliques_per_member(), 1.0);
    }

    proptest! {
        /// Any graph: the greedy cover is valid (cliques are cliques; all
        /// edges covered).
        #[test]
        fn greedy_cover_is_valid(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 0..70)
        ) {
            let g = UndirectedGraph::from_edges(16, edges);
            let cover = greedy_clique_cover(&g);
            prop_assert!(cover.validate(&g).is_ok());
        }

        /// The naive cover is always valid too.
        #[test]
        fn naive_cover_is_valid(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 0..70)
        ) {
            let g = UndirectedGraph::from_edges(16, edges);
            prop_assert!(naive_edge_cover(&g).validate(&g).is_ok());
        }

        /// Greedy never stores more copies than naive.
        #[test]
        fn greedy_no_worse_than_naive(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 0..70)
        ) {
            let g = UndirectedGraph::from_edges(16, edges);
            prop_assert!(
                greedy_clique_cover(&g).total_size() <= naive_edge_cover(&g).total_size()
            );
        }

        /// Author2Cliques inverts the clique membership relation.
        #[test]
        fn author2cliques_consistent(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 0..70)
        ) {
            let g = UndirectedGraph::from_edges(16, edges);
            let cover = greedy_clique_cover(&g);
            for u in 0..16u32 {
                for &cid in cover.cliques_of(u) {
                    prop_assert!(cover.members(cid).contains(&u));
                }
            }
            for (cid, clique) in cover.cliques().iter().enumerate() {
                for &u in clique {
                    prop_assert!(cover.cliques_of(u).contains(&(cid as u32)));
                }
            }
        }
    }
}
