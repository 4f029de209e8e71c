//! Zero-dependency observability for the firehose workspace.
//!
//! Three instruments and a registry, built entirely on `std`:
//!
//! - [`Histogram`] — fixed-bucket log-linear latency histogram (496
//!   buckets, ≤12.5% relative error) with lock-free concurrent recording,
//!   rendered as cumulative `le` buckets.
//! - [`Counter`] — monotonic `u64` counter.
//! - [`Gauge`] — signed value that can move both ways (channel depths,
//!   live-copy watermarks).
//! - [`Registry`] — named, labelled families of the above, rendered as
//!   Prometheus text exposition format ([`Registry::render_prometheus`]).
//!
//! Handles returned by the registry are `Arc`-backed: fetch them once at
//! setup, then update from hot paths without touching the registry lock.
//!
//! ```
//! use firehose_obs::{labels, Registry};
//!
//! let registry = Registry::new();
//! let offers = registry.counter("offer_total", "posts offered", labels(&[("engine", "UniBin")]));
//! let latency = registry.histogram("offer_latency_ns", "per-offer latency", labels(&[("engine", "UniBin")]));
//!
//! offers.inc();
//! latency.record(420);
//!
//! let text = registry.render_prometheus();
//! assert!(text.contains("offer_total{engine=\"UniBin\"} 1"));
//! assert!(text.contains("# TYPE offer_latency_ns histogram"));
//! ```

mod histogram;
mod registry;

pub use histogram::Histogram;
pub use registry::{labels, Counter, Gauge, Labels, Registry};
