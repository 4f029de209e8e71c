#![warn(missing_docs)]

//! Social-graph substrate for stream diversification.
//!
//! The author dimension of *Slowing the Firehose* (EDBT 2016) is driven by an
//! **author similarity graph** `G`: nodes are authors, and an edge connects
//! two authors whose distance `1 − cosine(followee-vector_a, followee-vector_b)`
//! is at most the threshold `λa`. The paper precomputes `G` offline (author
//! similarity "changes slowly over time"); this crate provides everything
//! required:
//!
//! * [`FollowerGraph`] — the directed follower/followee graph from which
//!   friend vectors are read;
//! * [`build_similarity_graph`] — cosine similarity over followee sets
//!   ([`followee_cosine`]), all-pairs similarity-graph construction as an
//!   exact row-at-a-time self-join, and the similarity CCDF of Figure 9
//!   ([`similarity_ccdf`]);
//! * [`UndirectedGraph`] — the adjacency representation of `G` itself;
//! * [`AdjacencyBitsets`] — lazily-built per-node adjacency bitmasks, the
//!   O(1) similarity probe on the engines' coverage hot path;
//! * [`connected_components`] / [`UnionFind`] — union-find connected
//!   components (Section 5's sharing criterion for M-SPSD);
//! * [`greedy_clique_cover`] — the greedy clique edge cover heuristic behind
//!   CliqueBin (Section 4.3), plus the `Author2Cliques` map of
//!   [`CliqueCover`];
//! * [`GraphTopology`] — the topology parameters `d`, `c`, `s`, `q` of the
//!   Table 2 cost model;
//! * [`io`] — binary persistence for the precomputed artifacts (the paper's
//!   offline weekly pipeline writes them; the online engines load them).

mod bitset;
mod clique_cover;
mod components;
mod follower;
pub mod io;
mod similarity;
mod stats;
mod undirected;

pub use bitset::AdjacencyBitsets;
pub use clique_cover::{greedy_clique_cover, naive_edge_cover, CliqueCover};
pub use components::{connected_components, ComponentMap, UnionFind};
pub use follower::FollowerGraph;
pub use io::IoError;
pub use similarity::{build_similarity_graph, followee_cosine, similarity_ccdf};
pub use stats::GraphTopology;
pub use undirected::UndirectedGraph;

/// Dense author identifier. The paper's datasets hold tens of thousands of
/// authors; `u32` keeps adjacency lists and bins compact.
pub type NodeId = u32;
