//! Author similarity from followee vectors.
//!
//! The paper (Section 2) defines author similarity as the cosine similarity
//! of two authors' friend (followee) vectors and the author distance as
//! `1 − similarity`. Over *binary* followee vectors the cosine reduces to
//! `|F(a) ∩ F(b)| / √(|F(a)|·|F(b)|)`.
//!
//! Building the full similarity graph naively costs `O(m²)` set
//! intersections; we instead run the exact all-pairs self-join one row at a
//! time: only author pairs that co-follow at least one account can have
//! nonzero similarity, so row `a` walks the followers of each account `a`
//! follows and counts the intersections into a dense accumulator. This is
//! the "computing all pairwise author similarity" step the paper performs
//! offline for its 20,150 authors.

use crate::follower::FollowerGraph;
use crate::undirected::UndirectedGraph;
use crate::NodeId;

/// `|A ∩ B| / √(|A|·|B|)` from the intersection size and the two set
/// sizes — the paper's measure \[21, 9\]; 0 when either set is empty.
#[inline]
fn cosine(intersection: u32, size_a: usize, size_b: usize) -> f64 {
    if size_a == 0 || size_b == 0 {
        return 0.0;
    }
    f64::from(intersection) / ((size_a as f64) * (size_b as f64)).sqrt()
}

/// Cosine similarity of the followee sets of `a` and `b` in `[0, 1]`.
///
/// Authors who follow nobody have similarity 0 with everyone.
pub fn followee_cosine(graph: &FollowerGraph, a: NodeId, b: NodeId) -> f64 {
    let (fa, fb) = (graph.followees(a), graph.followees(b));
    if fa.is_empty() || fb.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < fa.len() && j < fb.len() {
        match fa[i].cmp(&fb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / ((fa.len() as f64) * (fb.len() as f64)).sqrt()
}

/// The similarity self-join's row kernel: a sparse `A·Aᵀ` one row at a
/// time. For each author `a` in ascending order it calls
/// `emit(a, b, |F(a) ∩ F(b)|)` for every `b > a` sharing ≥1 followee, in
/// ascending `b`.
///
/// Row `a` walks the follower list of each followee of `a` past `a` and
/// counts into a dense accumulator; the touched list names the non-zero
/// slots, so a row costs its co-follow pairs and never `O(n)`.
fn for_each_co_follow(graph: &FollowerGraph, mut emit: impl FnMut(NodeId, NodeId, u32)) {
    let mut counts = vec![0u32; graph.node_count()];
    let mut touched: Vec<NodeId> = Vec::new();
    for a in 0..graph.node_count() as NodeId {
        for &f in graph.followees(a) {
            let followers = graph.followers(f);
            for &b in &followers[followers.partition_point(|&b| b <= a)..] {
                let slot = &mut counts[b as usize];
                if *slot == 0 {
                    touched.push(b);
                }
                *slot += 1;
            }
        }
        touched.sort_unstable();
        for &b in &touched {
            emit(a, b, std::mem::take(&mut counts[b as usize]));
        }
        touched.clear();
    }
}

/// Build the author similarity graph `G`: an edge joins authors whose
/// distance `1 − cosine` is at most `lambda_a` (equivalently whose cosine
/// similarity is at least `1 − lambda_a`).
///
/// With the paper's default `λa = 0.7`, "two authors are similar if the
/// cosine similarity between their followee vectors is ≥ 0.3".
pub fn build_similarity_graph(graph: &FollowerGraph, lambda_a: f64) -> UndirectedGraph {
    let min_sim = 1.0 - lambda_a;
    // Rows arrive in ascending `a` with ascending `b > a`, so appending
    // keeps every adjacency list sorted.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); graph.node_count()];
    for_each_co_follow(graph, |a, b, inter| {
        let sim = cosine(inter, graph.followees(a).len(), graph.followees(b).len());
        if sim >= min_sim && sim > 0.0 {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
    });
    UndirectedGraph::from_sorted_adjacency(adj)
}

/// Complementary CDF of pairwise author similarity (Figure 9): for each
/// threshold `t` in `thresholds`, the fraction of *all* `C(m,2)` author pairs
/// whose similarity is `≥ t`.
///
/// Pairs sharing no followee have similarity 0 and are counted only by
/// thresholds `≤ 0`.
pub fn similarity_ccdf(graph: &FollowerGraph, thresholds: &[f64]) -> Vec<(f64, f64)> {
    let m = graph.node_count() as f64;
    let total_pairs = m * (m - 1.0) / 2.0;
    if total_pairs <= 0.0 {
        return thresholds.iter().map(|&t| (t, 0.0)).collect();
    }

    // All nonzero similarities.
    let mut sims: Vec<f64> = Vec::new();
    for_each_co_follow(graph, |a, b, inter| {
        sims.push(cosine(
            inter,
            graph.followees(a).len(),
            graph.followees(b).len(),
        ));
    });
    sims.sort_unstable_by(|x, y| x.partial_cmp(y).expect("similarities are finite"));

    thresholds
        .iter()
        .map(|&t| {
            if t <= 0.0 {
                return (t, 1.0);
            }
            // Count sims >= t via partition point on the sorted array.
            let idx = sims.partition_point(|&s| s < t);
            ((t), (sims.len() - idx) as f64 / total_pairs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Star topology: authors 0 and 1 both follow {2, 3}; author 4 follows {5}.
    fn sample() -> FollowerGraph {
        FollowerGraph::from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 5)])
    }

    #[test]
    fn identical_followees_cosine_one() {
        let g = sample();
        assert!((followee_cosine(&g, 0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_followees_cosine_zero() {
        let g = sample();
        assert_eq!(followee_cosine(&g, 0, 4), 0.0);
    }

    #[test]
    fn empty_followees_cosine_zero() {
        let g = sample();
        // Node 2 follows nobody.
        assert_eq!(followee_cosine(&g, 2, 0), 0.0);
        assert_eq!(followee_cosine(&g, 2, 3), 0.0);
    }

    #[test]
    fn partial_overlap_value() {
        // a follows {1,2}, b follows {2,3}: cosine = 1/2.
        let g = FollowerGraph::from_edges(4, [(0, 1), (0, 2), (3, 2), (3, 1)]);
        assert!((followee_cosine(&g, 0, 3) - 1.0).abs() < 1e-12);
        let g = FollowerGraph::from_edges(5, [(0, 1), (0, 2), (3, 2), (3, 4)]);
        assert!((followee_cosine(&g, 0, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosine_symmetric() {
        let g = sample();
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(followee_cosine(&g, a, b), followee_cosine(&g, b, a));
            }
        }
    }

    #[test]
    fn similarity_graph_thresholding() {
        let g = sample();
        // λa = 0.7 → similar iff cosine ≥ 0.3: only pair (0,1).
        let sim = build_similarity_graph(&g, 0.7);
        assert!(sim.has_edge(0, 1));
        assert_eq!(sim.edge_count(), 1);
        // λa = 1.0 → similar iff cosine ≥ 0: still requires a shared followee.
        let sim = build_similarity_graph(&g, 1.0);
        assert_eq!(sim.edge_count(), 1);
    }

    #[test]
    fn similarity_graph_matches_pairwise_cosine() {
        let g = FollowerGraph::from_edges(
            8,
            [
                (0, 4),
                (0, 5),
                (1, 4),
                (1, 6),
                (2, 5),
                (2, 6),
                (3, 4),
                (3, 5),
                (3, 6),
            ],
        );
        for lambda_a in [0.5, 0.7, 0.9] {
            let sim = build_similarity_graph(&g, lambda_a);
            for a in 0..8u32 {
                for b in (a + 1)..8u32 {
                    let expected = followee_cosine(&g, a, b) >= 1.0 - lambda_a
                        && followee_cosine(&g, a, b) > 0.0;
                    assert_eq!(
                        sim.has_edge(a, b),
                        expected,
                        "λa={lambda_a} pair=({a},{b}) cos={}",
                        followee_cosine(&g, a, b)
                    );
                }
            }
        }
    }

    #[test]
    fn cosine_scores() {
        // |A∩B| = 2, |A| = 4, |B| = 2.
        assert!((cosine(2, 4, 2) - 2.0 / 8.0f64.sqrt()).abs() < 1e-12);
        // Empty sets score 0.
        assert_eq!(cosine(0, 0, 5), 0.0);
        assert_eq!(cosine(0, 5, 0), 0.0);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let g = sample();
        let ccdf = similarity_ccdf(&g, &[0.0, 0.1, 0.3, 0.5, 0.9, 1.0]);
        for w in ccdf.windows(2) {
            assert!(w[0].1 >= w[1].1, "CCDF must be non-increasing: {ccdf:?}");
        }
        // threshold 0 covers all pairs.
        assert_eq!(ccdf[0].1, 1.0);
    }

    #[test]
    fn ccdf_counts_exact_fractions() {
        let g = sample(); // 6 authors → 15 pairs; exactly one pair (0,1) with sim 1.
        let ccdf = similarity_ccdf(&g, &[0.5]);
        assert!((ccdf[0].1 - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn ccdf_empty_graph() {
        let g = FollowerGraph::new(0);
        let ccdf = similarity_ccdf(&g, &[0.2]);
        assert_eq!(ccdf[0].1, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The row kernel against brute force over every pair: random
        /// follows among the first `n − isolated` nodes (so some follow
        /// nobody and the rest are isolated), plus a hub everyone follows
        /// when `hub < n − isolated`.
        #[test]
        fn join_matches_brute_force(
            n in 1u32..41,
            isolated in 0u32..4,
            follows in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
            hub in 0u32..80,
        ) {
            let active = n.saturating_sub(isolated).max(1);
            let mut g = FollowerGraph::new(n as usize);
            for (u, v) in follows {
                g.add_follow(u % active, v % active);
            }
            if hub < active {
                for u in 0..active {
                    g.add_follow(u, hub);
                }
            }
            let pairs: Vec<(NodeId, NodeId, f64)> = (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .map(|(a, b)| (a, b, followee_cosine(&g, a, b)))
                .collect();

            let lambdas = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
            for lambda_a in lambdas {
                let expected = UndirectedGraph::from_edges(
                    n as usize,
                    pairs
                        .iter()
                        .filter(|&&(_, _, s)| s >= 1.0 - lambda_a && s > 0.0)
                        .map(|&(a, b, _)| (a, b)),
                );
                prop_assert_eq!(build_similarity_graph(&g, lambda_a), expected);
            }

            let thresholds: Vec<f64> = lambdas.iter().map(|l| 1.0 - l).chain([1.0]).collect();
            let expected: Vec<(f64, f64)> = thresholds
                .iter()
                .map(|&t| {
                    let hits = pairs.iter().filter(|&&(_, _, s)| s >= t).count();
                    let fraction = if pairs.is_empty() {
                        0.0
                    } else {
                        hits as f64 / pairs.len() as f64
                    };
                    (t, fraction)
                })
                .collect();
            prop_assert_eq!(similarity_ccdf(&g, &thresholds), expected);
        }
    }
}
