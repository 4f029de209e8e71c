#![warn(missing_docs)]

//! Synthetic Twitter-like workloads.
//!
//! The paper evaluates on (i) a 20,150-author BFS sample of a published
//! Twitter follower graph and (ii) one day of those authors' tweets
//! (213,175 posts after cleaning), plus (iii) a 12-student user study of
//! 2,000 tweet pairs. None of these are redistributable, so this crate
//! generates faithful synthetic stand-ins (see `DESIGN.md` §3 for the
//! substitution rationale):
//!
//! * [`SyntheticSocialGraph`] — a community-structured follower graph calibrated so the
//!   author-similarity CCDF and the `d`/`c`/`s` topology parameters match the
//!   paper's measurements (Figure 9; Section 6.2.1);
//! * [`TextGen`] — Zipfian tweet text plus the near-duplicate mutation
//!   classes visible in the paper's Table 1 (re-shortened URLs, punctuation
//!   and casing edits, attribution suffixes, truncation);
//! * [`Workload`] — a day of Poisson-arrival posts with near-duplicate
//!   injection biased toward similar authors at short time lags, tuned so the
//!   full three-dimensional model prunes ≈10% of posts at the paper's
//!   default thresholds (Figure 10);
//! * [`UserStudy`] — a surrogate for the user study: the paper found that
//!   cosine ≥ 0.7 on normalized text reproduces the human majority labels,
//!   so that rule (plus simulated annotator noise and majority voting)
//!   regenerates the precision/recall curves of Figures 3–4;
//! * in-tree Zipf and exponential samplers (no external distribution
//!   crates) behind them;
//! * M-SPSD inputs: [`generate_subscriptions`] and [`generate_churn_trace`].
//!
//! Everything is deterministic under a caller-supplied seed.

mod churn;
mod labels;
mod samplers;
mod socialgen;
mod subscriptions;
mod textgen;
mod urls;
mod workload;

pub use churn::{generate_churn_trace, ChurnEvent, ChurnGenConfig, ChurnTraceEntry};
pub use labels::{LabeledPair, PrecisionRecall, UserStudy, UserStudyConfig};
pub use socialgen::{SocialGenConfig, SyntheticSocialGraph};
pub use subscriptions::{generate_subscriptions, SubscriptionGenConfig};
pub use textgen::{MutationClass, TextGen, TextGenConfig};
pub use urls::UrlRegistry;
pub use workload::{Workload, WorkloadConfig};
