#![warn(missing_docs)]

//! Social Post Stream Diversification (SPSD / M-SPSD) engines.
//!
//! This crate is the primary contribution of *Slowing the Firehose:
//! Multi-Dimensional Diversity on Social Post Streams* (Cheng, Chrobak,
//! Hristidis — EDBT 2016): real-time algorithms that ingest a social post
//! stream and emit a diversified sub-stream `Z` such that every pruned post
//! is **covered** — simultaneously similar in content (SimHash Hamming
//! distance ≤ `λc`), time (timestamp distance ≤ `λt`) and author (author
//! distance ≤ `λa`) — by an already-emitted post.
//!
//! # Single user (SPSD)
//!
//! Three exact algorithms differing only in indexing (Section 4):
//!
//! * [`UniBin`](engine::UniBin) — one time-ordered bin, scanned newest-first.
//!   Least RAM, most comparisons.
//! * [`NeighborBin`](engine::NeighborBin) — a bin per author holding her own
//!   and her similar authors' emitted posts. Fewest comparisons, most RAM.
//! * [`CliqueBin`](engine::CliqueBin) — a bin per clique of a greedy clique
//!   edge cover. The middle ground.
//!
//! All three emit the **same** sub-stream; the choice is purely a
//! performance trade-off (Table 3 / Table 4 of the paper; the
//! `firehose-reference` crate encodes Table 4's advisor).
//!
//! # Many users (M-SPSD)
//!
//! [`multi`] scales the model to a whole service: the `S_*` engine decides
//! every user with one scan of one window, whose records carry the users
//! they were delivered to (Section 5's sharing, taken to the post). The
//! paper's static `M_*` and `S_*` references it is checked against live in
//! the `firehose-reference` crate.
//!
//! # Modules
//!
//! The crate root re-exports the configuration, decision, metrics and
//! quality types. The modules callers name by path are [`engine`] (the
//! three SPSD engines), [`multi`] (the M-SPSD engine and the subscription
//! table), [`service`] (the [`FirehoseService`] facade and its churn trace
//! format), [`checkpoint`] and [`snapshot`] (crash-safe state), [`coverage`]
//! (the coverage predicate the engines implement) and [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use firehose_core::{EngineConfig, Thresholds, engine::{Diversifier, UniBin}};
//! use firehose_graph::UndirectedGraph;
//! use firehose_stream::{minutes, Post};
//! use std::sync::Arc;
//!
//! // Authors 0 and 1 are similar; author 2 is unrelated.
//! let graph = Arc::new(UndirectedGraph::from_edges(3, [(0, 1)]));
//! let config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
//! let mut engine = UniBin::new(config, graph);
//!
//! let p1 = Post::new(1, 0, 0, "breaking: ferry sinks off the coast".into());
//! let p2 = Post::new(2, 1, 60_000, "breaking: ferry sinks off the coast".into());
//! let p3 = Post::new(3, 2, 61_000, "breaking: ferry sinks off the coast".into());
//!
//! assert!(engine.offer(&p1).is_emitted());       // first of its kind
//! assert!(!engine.offer(&p2).is_emitted());      // covered: similar author, text, time
//! assert!(engine.offer(&p3).is_emitted());       // author 2 is NOT similar -> emitted
//! ```

mod backend;
pub mod checkpoint;
mod config;
pub mod coverage;
mod decision;
pub mod engine;
mod metrics;
pub mod multi;
mod obs;
mod quality;
pub mod service;
pub mod snapshot;

/// One-stop imports for the common engine/strategy/service surface.
///
/// ```
/// use firehose_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::checkpoint::CheckpointPolicy;
    pub use crate::config::{ApproxConfig, EngineConfig, MemoryMode, Thresholds};
    pub use crate::decision::Decision;
    pub use crate::engine::{
        build_engine, AlgorithmKind, CliqueBin, Diversifier, NeighborBin, UniBin,
    };
    pub use crate::metrics::EngineMetrics;
    pub use crate::multi::{MultiDecision, SharedMulti, Subscriptions};
    pub use crate::service::{FirehoseService, StrategyKind};
}

pub use checkpoint::{
    restore_latest_valid, restore_latest_valid_multi, CheckpointManager, CheckpointPolicy,
    RestoreError, RestoredEngine,
};
pub use config::{
    ApproxConfig, ConfigError, EngineConfig, EngineConfigBuilder, MemoryMode, Thresholds,
};
pub use coverage::{covers, explain, CoverageExplanation};
pub use decision::Decision;
pub use engine::{build_engine, AlgorithmKind, Diversifier};
pub use metrics::EngineMetrics;
pub use obs::{export_engine_metrics, export_guard_stats, export_kernel_info, export_memory_mode};
pub use quality::{evaluate, DeltaBounds, GateVerdict, MetricDelta, QualityGate, QualityReport};
pub use service::{ChurnOp, FirehoseService, ServiceError, StrategyKind};
