//! Directed follower/followee graph.
//!
//! In Twitter terms, `u` *follows* `v` means `v ∈ followees(u)`. The paper's
//! author-similarity measure compares the *followee* vectors of two authors
//! (the accounts they follow — their "friends" in Twitter API terminology),
//! as in Goel et al. and Tao et al. [21, 9].

use crate::NodeId;

/// A directed graph stored as sorted followee lists plus (lazily usable)
/// follower lists. Both directions are materialized because the similarity
/// builder needs the inverted (follower) direction.
#[derive(Debug, Clone, Default)]
pub struct FollowerGraph {
    followees: Vec<Vec<NodeId>>, // out-edges: who u follows
    followers: Vec<Vec<NodeId>>, // in-edges: who follows u
    edges: usize,
}

impl FollowerGraph {
    /// An empty graph with `n` accounts.
    pub fn new(n: usize) -> Self {
        Self {
            followees: vec![Vec::new(); n],
            followers: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Build from `(follower, followee)` pairs.
    #[cfg(test)]
    pub(crate) fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_follow(u, v);
        }
        g
    }

    /// Record that `u` follows `v`. Self-follows are ignored. Returns `true`
    /// if the relation was new.
    pub fn add_follow(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.followees.len(), "node {u} out of range");
        assert!((v as usize) < self.followees.len(), "node {v} out of range");
        if u == v {
            return false;
        }
        let pos = match self.followees[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.followees[u as usize].insert(pos, v);
        let pos = self.followers[v as usize]
            .binary_search(&u)
            .expect_err("edge directions out of sync");
        self.followers[v as usize].insert(pos, u);
        self.edges += 1;
        true
    }

    /// Number of accounts.
    pub fn node_count(&self) -> usize {
        self.followees.len()
    }

    /// Number of follow relations.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted list of accounts `u` follows (the friend vector).
    pub fn followees(&self, u: NodeId) -> &[NodeId] {
        &self.followees[u as usize]
    }

    /// Sorted list of accounts following `u`.
    pub(crate) fn followers(&self, u: NodeId) -> &[NodeId] {
        &self.followers[u as usize]
    }

    /// Breadth-first sample of `target` accounts reachable from `seed` over
    /// the *undirected* follower relation — exactly how the paper carves its
    /// 20,150-author subgraph out of the 660k-account dataset of \[22\].
    ///
    /// Returns the visited node ids in BFS order (may be shorter than
    /// `target` if the component is small).
    pub fn bfs_sample(&self, seed: NodeId, target: usize) -> Vec<NodeId> {
        let n = self.node_count();
        assert!((seed as usize) < n, "seed {seed} out of range");
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(target.min(n));
        let mut queue = std::collections::VecDeque::new();
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            if order.len() >= target {
                break;
            }
            // Neighbors in either direction, ascending id for determinism.
            let (mut i, mut j) = (0usize, 0usize);
            let (fe, fr) = (&self.followees[u as usize], &self.followers[u as usize]);
            while i < fe.len() || j < fr.len() {
                let next = match (fe.get(i), fr.get(j)) {
                    (Some(&a), Some(&b)) if a == b => {
                        i += 1;
                        j += 1;
                        a
                    }
                    (Some(&a), Some(&b)) if a < b => {
                        i += 1;
                        a
                    }
                    (Some(_), Some(&b)) => {
                        j += 1;
                        b
                    }
                    (Some(&a), None) => {
                        i += 1;
                        a
                    }
                    (None, Some(&b)) => {
                        j += 1;
                        b
                    }
                    (None, None) => unreachable!(),
                };
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    queue.push_back(next);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follow_directionality() {
        let g = FollowerGraph::from_edges(3, [(0, 1), (0, 2)]);
        assert_eq!(g.followees(0), &[1, 2]);
        assert!(g.followees(1).is_empty());
        assert_eq!(g.followers(1), &[0]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_follow_ignored() {
        let mut g = FollowerGraph::new(1);
        assert!(!g.add_follow(0, 0));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn duplicate_follow_ignored() {
        let mut g = FollowerGraph::new(2);
        assert!(g.add_follow(0, 1));
        assert!(!g.add_follow(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bfs_sample_respects_target() {
        // path 0 -> 1 -> 2 -> 3 -> 4
        let g = FollowerGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.bfs_sample(0, 3), vec![0, 1, 2]);
        assert_eq!(g.bfs_sample(0, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_sample_traverses_both_directions() {
        // 1 follows 0; starting from 0 must still reach 1.
        let g = FollowerGraph::from_edges(2, [(1, 0)]);
        assert_eq!(g.bfs_sample(0, 2), vec![0, 1]);
    }

    #[test]
    fn bfs_sample_stops_at_component_boundary() {
        let g = FollowerGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(g.bfs_sample(0, 4), vec![0, 1]);
    }

    #[test]
    fn bfs_order_deterministic_ascending() {
        let g = FollowerGraph::from_edges(4, [(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.bfs_sample(0, 4), vec![0, 1, 2, 3]);
    }
}
