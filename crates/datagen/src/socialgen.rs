//! Ring-metric synthetic follower graph.
//!
//! ## Why a ring
//!
//! The engines' relative performance depends on the *author similarity
//! graph*'s topology, which the paper characterizes precisely:
//!
//! * Figure 9: ≈2.3% of author pairs have followee-cosine ≥ 0.2 and ≈0.6%
//!   have ≥ 0.3 (over 20,150 authors);
//! * Section 6.2.1: at `λa = 0.7` (cosine ≥ 0.3) the graph has `d ≈ 113.7`
//!   neighbors/author and its greedy clique cover has `c ≈ 29` cliques per
//!   author of average size `s ≈ 20`; at `λa = 0.8` these jump to
//!   `d ≈ 437.3`, `c ≈ 106`, `s ≈ 38`.
//!
//! Real followee-cosine similarity has *metric* structure — authors sit in a
//! latent interest space and similarity decays with distance — which is what
//! keeps real clique covers compact (overlapping balls). An i.i.d. "random
//! edges inside communities" model matches `d` but produces pathological
//! covers (thousands of cliques per author), so we embed authors on a ring:
//!
//! * every author **follows all** accounts within ring distance
//!   [`SocialGenConfig::near_window`] (a dense local neighborhood);
//! * plus every account of a *globally selected* pseudo-random subset
//!   (density [`SocialGenConfig::wide_density`]) within ring distance
//!   [`SocialGenConfig::wide_window`];
//! * plus a global celebrity pool and uniform noise follows.
//!
//! Expected shared followees between authors at ring distance `δ` then decay
//! piecewise-linearly, so the cosine crosses 0.3 at `δ ≈ 57` (giving
//! `d(λa=0.7) ≈ 114`) and 0.2 at `δ ≈ 250` (giving `d(λa=0.8) ≈ 480−500`),
//! and every thresholded graph is a noisy ring-ball graph whose greedy cover
//! is a family of overlapping intervals — `c` and `s` in the paper's regime.
//! The `calibrate` binary in `firehose-bench` prints measured vs paper
//! values.
//!
//! ## Communities
//!
//! Contiguous ring blocks of [`SocialGenConfig::community_size`] accounts
//! are exposed as *communities*. They play no role in edge generation; the
//! workload generator uses them as the locality unit for near-duplicate
//! injection (same-block authors are ring-close, hence author-similar).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use firehose_graph::{FollowerGraph, NodeId};

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialGenConfig {
    /// Number of author accounts (ring size).
    pub authors: usize,
    /// Follow *all* accounts within this ring distance (both directions).
    pub near_window: usize,
    /// Follow *selected* accounts within this ring distance (both
    /// directions). Selection is a global pseudo-random subset of all
    /// accounts with density [`SocialGenConfig::wide_density`]; because the
    /// subset is shared by every follower, two nearby authors follow the
    /// *same* selected accounts and pairwise similarity is a deterministic
    /// function of ring distance (up to the tiny celebrity/noise terms).
    /// That keeps every thresholded similarity graph an exact interval graph
    /// over the ring, which is what makes greedy clique covers compact.
    pub wide_window: usize,
    /// Fraction of accounts in the global selected subset.
    pub wide_density: f64,
    /// Followees drawn from the global celebrity pool.
    pub follows_celeb: usize,
    /// Followees drawn uniformly from all accounts (similarity noise floor).
    pub follows_random: usize,
    /// Size of the global celebrity pool (the first ids of the graph).
    pub celeb_pool: usize,
    /// Community block size for workload locality (no effect on edges).
    pub community_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SocialGenConfig {
    /// Paper scale: 20,150 authors.
    ///
    /// Derivation sketch: the followee count is `F ≈ 44 + 0.05·502 + 13 ≈
    /// 82`. Authors at ring distance `δ` share `max(0, 44 − δ)` near-window
    /// follows plus `≈ 0.05·(546 − δ)` selected wide-window follows, so the
    /// cosine `≈ [(44 − δ)⁺ + 0.05·(546 − δ)]/82` crosses 0.3 at `δ ≈ 57`
    /// (→ `d(0.3) ≈ 114`, CCDF ≈ 0.57%) and 0.2 at `δ ≈ 218`
    /// (→ `d(0.2) ≈ 437`, CCDF ≈ 2.2%) — the paper's Figure 9 / Section
    /// 6.2.1 anchors. Thanks to the global selection the crossing points are
    /// (nearly) deterministic, so the thresholded graphs are interval graphs
    /// with compact greedy covers.
    pub fn paper_scale() -> Self {
        Self {
            authors: 20_150,
            near_window: 22,
            wide_window: 273,
            wide_density: 0.05,
            follows_celeb: 4,
            follows_random: 19,
            celeb_pool: 100,
            community_size: 60,
            seed: 0x0F1E_E05E,
        }
    }

    /// A ~5× smaller graph with identical window geometry (so `d`, `c`, `s`
    /// are unchanged and only pair *fractions* scale) for fast experiment
    /// iterations.
    pub fn bench_scale() -> Self {
        Self {
            authors: 4_147,
            ..Self::paper_scale()
        }
    }

    /// A tiny graph for unit tests (windows scaled down ~6×).
    pub fn test_scale() -> Self {
        Self {
            authors: 240,
            near_window: 8,
            wide_window: 39,
            wide_density: 0.25,
            follows_celeb: 2,
            follows_random: 1,
            celeb_pool: 10,
            community_size: 12,
            seed: 7,
        }
    }

    /// Scale `authors` while keeping the window geometry.
    pub fn with_authors(self, authors: usize) -> Self {
        Self { authors, ..self }
    }

    /// Replace the seed.
    pub fn with_seed(self, seed: u64) -> Self {
        Self { seed, ..self }
    }

    /// Check the geometry [`SyntheticSocialGraph::generate`] needs: a ring
    /// of more than `2 × wide_window` authors, a wide window containing the
    /// near window, and non-empty communities.
    pub fn validate(&self) -> Result<(), String> {
        let min_authors = 2 * self.wide_window + 1;
        if self.authors < min_authors.max(2) {
            return Err(format!(
                "{} authors is too few: this scale's wide window ({}) needs at least {} authors",
                self.authors,
                self.wide_window,
                min_authors.max(2)
            ));
        }
        if self.wide_window < self.near_window {
            return Err("wide window must contain the near window".into());
        }
        if self.community_size == 0 {
            return Err("community size must be positive".into());
        }
        Ok(())
    }
}

/// The generated graph plus its community blocks (used by the workload
/// generator to bias near-duplicates toward similar authors).
#[derive(Debug, Clone)]
pub struct SyntheticSocialGraph {
    /// The follower/followee relation.
    pub graph: FollowerGraph,
    /// Community index of each author.
    pub community_of: Vec<u32>,
    /// Members of each community (contiguous ring blocks).
    pub communities: Vec<Vec<NodeId>>,
    /// The configuration that produced this graph.
    pub config: SocialGenConfig,
}

impl SyntheticSocialGraph {
    /// Generate a graph from `config`. Deterministic in `config.seed`.
    ///
    /// # Panics
    /// Panics if [`SocialGenConfig::validate`] rejects `config`.
    pub fn generate(config: SocialGenConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SocialGenConfig: {e}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        let n = config.authors;
        let csize = config.community_size;
        let n_communities = n.div_ceil(csize);
        let mut community_of = vec![0u32; n];
        let mut communities: Vec<Vec<NodeId>> = vec![Vec::new(); n_communities];
        for (a, slot) in community_of.iter_mut().enumerate() {
            let c = a / csize;
            *slot = c as u32;
            communities[c].push(a as NodeId);
        }

        let mut graph = FollowerGraph::new(n);
        let celeb_pool = config.celeb_pool.min(n);
        let ni = n as i64;

        // The global selected subset: account x is "wide-followable" iff a
        // seed-keyed hash of x falls below wide_density. Shared by all
        // authors, so wide-follow overlap is a deterministic function of
        // window overlap.
        let select_seed = config.seed ^ 0x9E37_79B9_7F4A_7C15;
        let threshold = (config.wide_density.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let selected = |x: i64| -> bool {
            let mut h = (x as u64) ^ select_seed;
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (h ^ (h >> 31)) < threshold
        };

        for a in 0..n as NodeId {
            let ai = i64::from(a);

            // Dense near neighborhood: follow everyone within ±near_window.
            for off in 1..=config.near_window as i64 {
                let fwd = ((ai + off).rem_euclid(ni)) as NodeId;
                let back = ((ai - off).rem_euclid(ni)) as NodeId;
                graph.add_follow(a, fwd);
                graph.add_follow(a, back);
            }

            // Wide window: follow every globally-selected account in range.
            let w1 = config.near_window as i64;
            for off in (w1 + 1)..=config.wide_window as i64 {
                for target in [ai + off, ai - off] {
                    let f = (target.rem_euclid(ni)) as NodeId;
                    if selected(i64::from(f)) && f != a {
                        graph.add_follow(a, f);
                    }
                }
            }

            // Global celebrities (the first `celeb_pool` ids).
            for _ in 0..config.follows_celeb {
                let f = rng.random_range(0..celeb_pool) as NodeId;
                if f != a {
                    graph.add_follow(a, f);
                }
            }

            // Uniform global noise.
            for _ in 0..config.follows_random {
                let f = rng.random_range(0..n) as NodeId;
                if f != a {
                    graph.add_follow(a, f);
                }
            }
        }

        Self {
            graph,
            community_of,
            communities,
            config,
        }
    }

    /// Number of authors.
    pub fn author_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The community members of author `a` (including `a`).
    #[cfg(test)]
    pub(crate) fn community_members(&self, a: NodeId) -> &[NodeId] {
        &self.communities[self.community_of[a as usize] as usize]
    }

    /// Ring distance between two authors.
    #[cfg(test)]
    pub(crate) fn ring_distance(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.author_count();
        let d = (a as i64 - i64::from(b)).unsigned_abs() as usize;
        d.min(n - d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_graph::{followee_cosine, similarity_ccdf};

    fn small() -> SyntheticSocialGraph {
        SyntheticSocialGraph::generate(SocialGenConfig::test_scale())
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        for u in 0..a.author_count() as NodeId {
            assert_eq!(a.graph.followees(u), b.graph.followees(u));
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let a = SyntheticSocialGraph::generate(SocialGenConfig::test_scale());
        let b = SyntheticSocialGraph::generate(SocialGenConfig::test_scale().with_seed(99));
        let differs =
            (0..a.author_count() as NodeId).any(|u| a.graph.followees(u) != b.graph.followees(u));
        assert!(differs);
    }

    #[test]
    fn community_assignment_is_block_contiguous() {
        let g = small();
        assert_eq!(g.community_of[0], 0);
        assert_eq!(g.community_of[11], 0);
        assert_eq!(g.community_of[12], 1);
        assert_eq!(g.community_members(5).len(), 12);
    }

    #[test]
    fn similarity_decays_with_ring_distance() {
        let g = small();
        let n = g.author_count() as u32;
        let avg = |delta: u32| {
            let pairs = [20u32, 60, 100, 140].map(|a| (a, (a + delta) % n));
            pairs
                .iter()
                .map(|&(a, b)| followee_cosine(&g.graph, a, b))
                .sum::<f64>()
                / 4.0
        };
        let near = avg(2);
        let mid = avg(15);
        let far = avg(100);
        assert!(
            near > mid && mid > far,
            "similarity must decay: near {near:.3} mid {mid:.3} far {far:.3}"
        );
        assert!(
            near > 0.35,
            "ring-adjacent authors must be similar: {near:.3}"
        );
        assert!(
            far < 0.2,
            "ring-distant authors must be dissimilar: {far:.3}"
        );
    }

    #[test]
    fn ccdf_is_decreasing_and_smooth() {
        let g = small();
        let ccdf = similarity_ccdf(&g.graph, &[0.1, 0.2, 0.3, 0.4]);
        for w in ccdf.windows(2) {
            assert!(w[0].1 >= w[1].1, "CCDF must be non-increasing: {ccdf:?}");
        }
        assert!(ccdf[1].1 > 0.0, "some pairs above 0.2");
        assert!(ccdf[2].1 > 0.0, "some pairs above 0.3");
        assert!(ccdf[1].1 > ccdf[2].1, "strictly more pairs at 0.2 than 0.3");
    }

    #[test]
    fn near_window_is_deterministically_followed() {
        let g = small();
        let cfg = g.config;
        for a in [0u32, 100, 239] {
            for off in 1..=cfg.near_window as i64 {
                let n = g.author_count() as i64;
                let fwd = ((i64::from(a) + off).rem_euclid(n)) as NodeId;
                assert!(
                    g.graph.followees(a).contains(&fwd),
                    "author {a} must follow {fwd}"
                );
            }
        }
    }

    #[test]
    fn follow_counts_bounded() {
        let g = small();
        let cfg = g.config;
        let max =
            2 * cfg.near_window + 2 * cfg.wide_window + cfg.follows_celeb + cfg.follows_random;
        for a in 0..g.author_count() as NodeId {
            let k = g.graph.followees(a).len();
            assert!(k <= max, "author {a} follows {k} > {max}");
            assert!(k >= 2 * cfg.near_window, "author {a} follows only {k}");
        }
    }

    #[test]
    fn graph_is_bfs_connected() {
        let g = small();
        let reach = g.graph.bfs_sample(0, g.author_count());
        assert_eq!(reach.len(), g.author_count());
    }

    #[test]
    fn ring_distance_wraps() {
        let g = small();
        assert_eq!(g.ring_distance(0, 1), 1);
        assert_eq!(g.ring_distance(0, 239), 1);
        assert_eq!(g.ring_distance(0, 120), 120);
        assert_eq!(g.ring_distance(10, 10), 0);
    }

    #[test]
    fn partial_last_community_supported() {
        let cfg = SocialGenConfig {
            authors: 230,
            ..SocialGenConfig::test_scale()
        };
        let g = SyntheticSocialGraph::generate(cfg);
        assert_eq!(g.author_count(), 230);
        // Last community has only 230 − 19*12 = 2 members.
        assert_eq!(g.community_members(229).len(), 2);
    }

    #[test]
    #[should_panic(expected = "needs at least 79 authors")]
    fn oversized_window_rejected() {
        SyntheticSocialGraph::generate(SocialGenConfig {
            authors: 50,
            ..SocialGenConfig::test_scale()
        });
    }
}
