//! Union-find and connected components.
//!
//! Section 5 of the paper shares diversification state across users whose
//! subscriptions contain the *same connected component* of the author
//! similarity graph: posts from a component can only be covered by posts from
//! the same component, so per-component engines are exact. [`connected_components`]
//! and [`ComponentMap`] provide that decomposition.

use crate::undirected::UndirectedGraph;
use crate::NodeId;

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<NodeId>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as NodeId).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: NodeId) -> NodeId {
        while self.parent[x as usize] != x {
            // Path halving.
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// The connected components of a graph.
#[derive(Debug, Clone)]
pub struct ComponentMap {
    /// Nodes of each component, ascending.
    members: Vec<Vec<NodeId>>,
}

impl ComponentMap {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.members.len()
    }
}

/// Connected components of `g`. Isolated nodes form singleton components.
/// Component indices are ordered by their smallest member, so the result is
/// deterministic.
pub fn connected_components(g: &UndirectedGraph) -> ComponentMap {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut root_to_component: Vec<u32> = vec![u32::MAX; n];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..n as NodeId {
        let root = uf.find(u);
        let c = if root_to_component[root as usize] == u32::MAX {
            let c = members.len() as u32;
            root_to_component[root as usize] = c;
            members.push(Vec::new());
            c
        } else {
            root_to_component[root as usize]
        };
        members[c as usize].push(u);
    }
    ComponentMap { members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ComponentMap {
        /// Component index of `u`.
        fn component_of(&self, u: NodeId) -> u32 {
            self.members
                .iter()
                .position(|m| m.contains(&u))
                .expect("every node has a component") as u32
        }

        /// Sorted members of component `c`.
        fn members(&self, c: u32) -> &[NodeId] {
            &self.members[c as usize]
        }

        /// `true` iff `a` and `b` are in the same component.
        fn same_component(&self, a: NodeId, b: NodeId) -> bool {
            self.component_of(a) == self.component_of(b)
        }
    }

    #[test]
    fn singletons_without_edges() {
        let g = UndirectedGraph::new(4);
        let cm = connected_components(&g);
        assert_eq!(cm.count(), 4);
        for u in 0..4 {
            assert_eq!(cm.members(cm.component_of(u)), &[u]);
        }
    }

    #[test]
    fn two_components() {
        let g = UndirectedGraph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let cm = connected_components(&g);
        assert_eq!(cm.count(), 3);
        assert!(cm.same_component(0, 2));
        assert!(!cm.same_component(0, 3));
        assert!(cm.same_component(4, 5));
        assert_eq!(cm.members(cm.component_of(0)), &[0, 1, 2]);
    }

    #[test]
    fn component_indices_ordered_by_smallest_member() {
        let g = UndirectedGraph::from_edges(5, [(3, 4), (0, 1)]);
        let cm = connected_components(&g);
        assert_eq!(cm.component_of(0), 0);
        assert_eq!(cm.component_of(2), 1);
        assert_eq!(cm.component_of(3), 2);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn union_find_transitive() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(3));
    }

    proptest! {
        /// Components agree with BFS reachability.
        #[test]
        fn matches_bfs_reachability(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30)
        ) {
            let g = UndirectedGraph::from_edges(12, edges);
            let cm = connected_components(&g);
            // BFS from every node.
            for start in 0..12u32 {
                let mut seen = [false; 12];
                let mut stack = vec![start];
                seen[start as usize] = true;
                while let Some(u) = stack.pop() {
                    for &v in g.neighbors(u) {
                        if !seen[v as usize] {
                            seen[v as usize] = true;
                            stack.push(v);
                        }
                    }
                }
                for v in 0..12u32 {
                    prop_assert_eq!(seen[v as usize], cm.same_component(start, v));
                }
            }
        }

        /// Members partition the node set.
        #[test]
        fn members_partition_nodes(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30)
        ) {
            let g = UndirectedGraph::from_edges(12, edges);
            let cm = connected_components(&g);
            let mut all: Vec<u32> = cm.members.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..12u32).collect::<Vec<_>>());
        }
    }
}
