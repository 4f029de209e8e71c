//! Author similarity from followee vectors.
//!
//! The paper (Section 2) defines author similarity as the cosine similarity
//! of two authors' friend (followee) vectors and the author distance as
//! `1 − similarity`. Over *binary* followee vectors the cosine reduces to
//! `|F(a) ∩ F(b)| / √(|F(a)|·|F(b)|)`.
//!
//! Building the full similarity graph naively costs `O(m²)` set
//! intersections; we instead sweep an inverted index: only author pairs that
//! co-follow at least one account can have nonzero similarity, so for every
//! account `f` we enumerate the pairs of its followers and accumulate the
//! intersection counts. This is the standard "computing all pairwise author
//! similarity" step the paper performs offline for its 20,150 authors.

use std::collections::HashMap;

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

/// Accumulate `|F(a) ∩ F(b)|` for every author pair sharing ≥1 followee.
///
/// Keys are packed `(min << 32) | max`. This is the quadratic-in-popularity
/// inverted sweep; it is exact.
fn co_follow_counts(graph: &FollowerGraph) -> HashMap<u64, u32> {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for f in 0..graph.node_count() as NodeId {
        let followers = graph.followers(f);
        for (i, &a) in followers.iter().enumerate() {
            for &b in &followers[i + 1..] {
                // followers lists are sorted ascending, so a < b.
                let key = (u64::from(a) << 32) | u64::from(b);
                *counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Build the author similarity graph `G`: an edge joins authors whose
/// distance `1 − cosine` is at most `lambda_a` (equivalently whose cosine
/// similarity is at least `1 − lambda_a`).
///
/// With the paper's default `λa = 0.7`, "two authors are similar if the
/// cosine similarity between their followee vectors is ≥ 0.3".
pub fn build_similarity_graph(graph: &FollowerGraph, lambda_a: f64) -> UndirectedGraph {
    let min_sim = 1.0 - lambda_a;
    let mut g = UndirectedGraph::new(graph.node_count());
    for (key, inter) in co_follow_counts(graph) {
        let a = (key >> 32) as NodeId;
        let b = (key & 0xFFFF_FFFF) as NodeId;
        let sim = cosine(inter, graph.followees(a).len(), graph.followees(b).len());
        if sim >= min_sim && sim > 0.0 {
            g.add_edge(a, b);
        }
    }
    g
}

/// Multi-threaded [`build_similarity_graph`]: the inverted co-follow sweep
/// partitions the *followee* accounts across `threads` workers (each pair's
/// intersection count is summed across workers during the merge), then
/// thresholds exactly like the sequential build. Produces the identical
/// graph; worth it because the offline all-pairs step dominates setup time
/// at paper scale.
pub fn build_similarity_graph_parallel(
    graph: &FollowerGraph,
    lambda_a: f64,
    threads: usize,
) -> UndirectedGraph {
    let threads = threads.max(1);
    if threads == 1 || graph.node_count() < 2 * threads {
        return build_similarity_graph(graph, lambda_a);
    }

    let n = graph.node_count();
    let chunk = n.div_ceil(threads);
    let partials: Vec<HashMap<u64, u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    let mut counts: HashMap<u64, u32> = HashMap::new();
                    for f in lo as NodeId..hi as NodeId {
                        let followers = graph.followers(f);
                        for (i, &a) in followers.iter().enumerate() {
                            for &b in &followers[i + 1..] {
                                let key = (u64::from(a) << 32) | u64::from(b);
                                *counts.entry(key).or_insert(0) += 1;
                            }
                        }
                    }
                    counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Merge into the largest partial to avoid one full rehash.
    let mut iter = partials.into_iter();
    let mut counts = iter.next().unwrap_or_default();
    for partial in iter {
        if partial.len() > counts.len() {
            // Swap so we always extend the bigger map.
            let smaller = std::mem::replace(&mut counts, partial);
            for (k, v) in smaller {
                *counts.entry(k).or_insert(0) += v;
            }
        } else {
            for (k, v) in partial {
                *counts.entry(k).or_insert(0) += v;
            }
        }
    }

    let min_sim = 1.0 - lambda_a;
    let mut g = UndirectedGraph::new(n);
    for (key, inter) in counts {
        let a = (key >> 32) as NodeId;
        let b = (key & 0xFFFF_FFFF) as NodeId;
        let sim = cosine(inter, graph.followees(a).len(), graph.followees(b).len());
        if sim >= min_sim && sim > 0.0 {
            g.add_edge(a, b);
        }
    }
    g
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
    let counts = co_follow_counts(graph);
    let mut sims: Vec<f64> = counts
        .into_iter()
        .map(|(key, inter)| {
            let a = (key >> 32) as NodeId;
            let b = (key & 0xFFFF_FFFF) as NodeId;
            cosine(inter, graph.followees(a).len(), graph.followees(b).len())
        })
        .collect();
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
    fn parallel_build_matches_sequential() {
        let g = FollowerGraph::from_edges(
            40,
            (0u32..40).flat_map(|u| {
                // Each account follows the next 6 on a ring.
                (1..=6u32).map(move |k| (u, (u + k) % 40))
            }),
        );
        for lambda_a in [0.5, 0.7, 0.9] {
            let seq = build_similarity_graph(&g, lambda_a);
            for threads in [1, 2, 3, 8, 64] {
                let par = build_similarity_graph_parallel(&g, lambda_a, threads);
                assert_eq!(par, seq, "λa={lambda_a} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_build_handles_tiny_graphs() {
        let g = FollowerGraph::from_edges(2, [(0, 1)]);
        let seq = build_similarity_graph(&g, 0.7);
        assert_eq!(build_similarity_graph_parallel(&g, 0.7, 8), seq);
        let empty = FollowerGraph::new(0);
        assert_eq!(
            build_similarity_graph_parallel(&empty, 0.7, 4).node_count(),
            0
        );
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
}
