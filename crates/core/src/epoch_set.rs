//! An index set that empties in O(1): each slot holds the epoch it was
//! last inserted in, and a slot is present iff that epoch is the current
//! one. The scanners use one to mark the arriving author's neighbourhood in
//! `G` and one to track the users a post is still open for.

use firehose_graph::{NodeId, UndirectedGraph};

/// A set over `0..len` whose [`reset`](Self::reset) bumps an epoch instead
/// of clearing the array.
pub(crate) struct EpochSet {
    /// `marks[i] == epoch` iff `i` is in the set; 0 is never a live epoch.
    marks: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    /// An empty set over `0..len`.
    pub(crate) fn with_len(len: usize) -> Self {
        Self {
            marks: vec![0; len],
            epoch: 1,
        }
    }

    /// Empty the set. When the epoch wraps, every mark is cleared once, so
    /// a mark left from an earlier cycle never reads as present.
    pub(crate) fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Extend the range to `0..len` if it is shorter.
    pub(crate) fn grow(&mut self, len: usize) {
        if len > self.marks.len() {
            self.marks.resize(len, 0);
        }
    }

    /// Add `i`, which must lie in range.
    #[inline]
    pub(crate) fn insert(&mut self, i: u32) {
        self.marks[i as usize] = self.epoch;
    }

    /// `true` iff `i` is in the set (`false` out of range).
    #[inline]
    pub(crate) fn contains(&self, i: u32) -> bool {
        self.marks.get(i as usize) == Some(&self.epoch)
    }

    /// Take `i` out; `true` iff it was in the set.
    #[inline]
    pub(crate) fn remove(&mut self, i: u32) -> bool {
        match self.marks.get_mut(i as usize) {
            Some(mark) if *mark == self.epoch => {
                *mark = 0;
                true
            }
            _ => false,
        }
    }

    /// Make the set `u` plus its neighbours in `graph`, so that
    /// `contains(v)` answers `coverage::authors_similar(graph, u, v)` with
    /// one load. The set must span `graph`'s nodes.
    pub(crate) fn open_neighbourhood(&mut self, graph: &UndirectedGraph, u: NodeId) {
        self.reset();
        self.insert(u);
        for &v in graph.neighbors(u) {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::authors_similar;
    use proptest::prelude::*;

    impl EpochSet {
        /// A set with the given marks, at `epoch`.
        fn at_epoch(marks: Vec<u32>, epoch: u32) -> Self {
            Self { marks, epoch }
        }
    }

    #[test]
    fn insert_remove_reset() {
        let mut s = EpochSet::with_len(3);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(2);
        assert!(s.contains(0) && !s.contains(1) && s.contains(2));
        assert!(s.remove(2));
        assert!(!s.remove(2), "already removed");
        assert!(!s.remove(7) && !s.contains(7), "out of range");
        s.reset();
        assert!(!s.contains(0));
        s.grow(8);
        s.insert(7);
        assert!(s.contains(7) && !s.contains(0));
    }

    #[test]
    fn marks_from_before_the_wrap_read_as_absent() {
        // Slot 0 was marked in an earlier cycle's epoch 1, slot 1 in the
        // last epoch before the wrap; after it the live epoch is 1 again.
        let mut s = EpochSet::at_epoch(vec![1, u32::MAX, 0], u32::MAX);
        assert!(s.contains(1) && !s.contains(0));
        s.reset();
        for i in 0..3 {
            assert!(!s.contains(i), "slot {i} survived the wrap");
        }
        s.insert(2);
        assert!(s.contains(2) && !s.contains(0));
    }

    proptest! {
        /// Opening authors one after another, the set is exactly each
        /// author's similar set: marks of the previous author never leak.
        #[test]
        fn open_neighbourhood_matches_authors_similar(
            n in 1usize..140,
            edges in proptest::collection::vec((0u32..140, 0u32..140), 0..80),
            opened in proptest::collection::vec(0u32..140, 1..12),
        ) {
            let edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as NodeId, v % n as NodeId))
                .collect();
            let g = UndirectedGraph::from_edges(n, edges);
            let mut set = EpochSet::with_len(n);
            for u in opened.into_iter().map(|u| u % n as NodeId) {
                set.open_neighbourhood(&g, u);
                for v in 0..n as NodeId {
                    prop_assert_eq!(
                        set.contains(v),
                        authors_similar(&g, u, v),
                        "({}, {}) diverged", u, v
                    );
                }
            }
        }
    }
}
