#![warn(missing_docs)]

//! The references the firehose product is checked against. None of this
//! serves a post: the bench binaries, the examples and the tests use it,
//! and no product crate depends on it.
//!
//! * [`oracle`] — brute-force SPSD and M-SPSD over the coverage predicate,
//!   and M-SPSD under subscription churn.
//! * [`IndependentMulti`] — the paper's static multi-user strategies: `M_*`
//!   (one engine per user) and `S_*` (one engine per distinct component),
//!   which Figure 16 and the M = S = L tests compare the service against.
//! * [`CostInputs`] / [`CostPrediction`] — the Table 2 cost model.
//! * [`recommend`] — the Table 4 use-case advisor.
//! * [`MaxMinDiversifier`] — the sliding-window MaxMin baseline of the
//!   related work.
//! * [`ChaosWriter`], [`FaultPlan`] and [`Perturbator`] — deterministic
//!   storage and stream fault injection for the recovery tests.

mod advisor;
mod baseline;
mod costmodel;
mod fault;
mod independent;
pub mod oracle;

pub use advisor::{recommend, AdvisorInputs, ThroughputClass};
pub use baseline::MaxMinDiversifier;
pub use costmodel::{CostInputs, CostPrediction};
pub use fault::{ChaosWriter, FaultPlan, Perturbator};
pub use independent::IndependentMulti;
