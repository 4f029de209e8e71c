#![warn(missing_docs)]

//! # firehose
//!
//! A Rust reproduction of *Slowing the Firehose: Multi-Dimensional Diversity
//! on Social Post Streams* (Cheng, Chrobak, Hristidis — EDBT 2016): real-time
//! diversification of social post streams under simultaneous **content**
//! (SimHash), **time** (sliding window) and **author** (social-graph
//! similarity) coverage semantics.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! * [`core`] — the SPSD/M-SPSD engines (UniBin, NeighborBin, CliqueBin and
//!   the shared multi-user engine), the service facade and checkpoints;
//! * [`text`] — normalization, tokenization, TF-cosine;
//! * [`simhash`] — 64-bit fingerprints, Hamming utilities, the Manku
//!   permuted-table index;
//! * [`graph`] — follower graphs, author similarity, connected components,
//!   greedy clique edge covers;
//! * [`stream`] — the post model, λt-window bins and the ingest guard;
//! * [`datagen`] — synthetic Twitter-like workloads and the surrogate user
//!   study;
//! * [`net`] — the zero-dependency TCP/HTTP front end serving ingest,
//!   per-user streams, churn, `/metrics` and `/healthz` over real sockets
//!   (`firehose serve`);
//! * [`obs`] — the dependency-free metrics registry behind `/metrics`.
//!
//! The paper's references — brute-force oracles, the static `M_*`/`S_*`
//! strategies, the Table 2 cost model, the Table 4 advisor, the MaxMin
//! baseline and fault injection — are the `firehose-reference` crate, which
//! the tests, examples and experiment binaries use and this crate does not
//! re-export.
//!
//! See `README.md` for a walkthrough, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use firehose::core::{EngineConfig, Thresholds};
//! use firehose::core::engine::{Diversifier, UniBin};
//! use firehose::graph::UndirectedGraph;
//! use firehose::stream::{minutes, Post};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(UndirectedGraph::from_edges(2, [(0, 1)]));
//! let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
//! let mut engine = UniBin::new(config, graph);
//!
//! let decision = engine.offer(&Post::new(1, 0, 0, "hello stream".into()));
//! assert!(decision.is_emitted());
//! ```

pub use firehose_core as core;
pub use firehose_datagen as datagen;
pub use firehose_graph as graph;
pub use firehose_net as net;
pub use firehose_obs as obs;
pub use firehose_simhash as simhash;
pub use firehose_stream as stream;
pub use firehose_text as text;

/// One-import surface for the common pipeline: everything in
/// [`firehose_core::prelude`] (engines, multi-user strategies, the
/// [`core::service::FirehoseService`] facade, checkpoints) plus the graph,
/// post and ingest-guard types they operate on.
///
/// ```
/// use firehose::prelude::*;
///
/// let graph = UndirectedGraph::from_edges(2, [(0, 1)]);
/// let subscriptions = Subscriptions::new(2, [vec![0, 1]]).unwrap();
/// let mut service = FirehoseService::builder(&graph, subscriptions)
///     .build()
///     .unwrap();
/// let mut delivered = Vec::new();
/// service
///     .process(Post::new(1, 0, 0, "hello stream".into()), |_, decision| {
///         delivered = decision.delivered_to.clone();
///     })
///     .unwrap();
/// assert_eq!(delivered, [0]);
/// ```
pub mod prelude {
    pub use firehose_core::prelude::*;
    pub use firehose_graph::UndirectedGraph;
    pub use firehose_stream::{
        hours, minutes, AuthorId, GuardConfig, GuardPolicy, IngestGuard, Post, PostId, Timestamp,
    };
}
