#![warn(missing_docs)]

//! 64-bit SimHash fingerprints for social posts.
//!
//! Section 3 of *Slowing the Firehose* (EDBT 2016) defines the content
//! distance between two posts as the Hamming distance between their 64-bit
//! SimHash fingerprints, computed over (optionally normalized) tweet text.
//! This crate provides:
//!
//! * [`simhash()`] — the SimHash construction (Charikar-style random
//!   hyperplane rounding realized via per-token hashing, as in Manku et al.,
//!   WWW'07) with configurable text normalization and token weighting
//!   ([`SimHashOptions`]);
//! * [`hamming_distance`] and the batched window scans
//!   ([`filter_within_into_using`] and friends), dispatched to the
//!   [`active_kernel`];
//! * [`HammingIndex`] — the permuted-table near-duplicate index of Manku et al.
//!   The paper argues this index is infeasible at its default threshold
//!   `λc = 18`; we implement it anyway so the claim can be measured
//!   (`ablation_manku_index` in `firehose-bench`).
//!
//! # Example
//!
//! ```
//! use firehose_simhash::{simhash, hamming_distance, SimHashOptions};
//!
//! let a = simhash("Over 300 people missing after ferry sinks", SimHashOptions::paper());
//! let b = simhash("Over 300 people missing after ferry sinks!", SimHashOptions::paper());
//! let c = simhash("Alibaba growth accelerates, IPO filing expected", SimHashOptions::paper());
//! assert!(hamming_distance(a, b) <= 3);
//! assert!(hamming_distance(a, c) > 18);
//! ```

mod fingerprint;
mod hamming;
mod index;
mod kernels;

pub use fingerprint::{empty_text_fingerprint, simhash, Fingerprint, SimHashOptions};
pub use hamming::{
    filter_within, filter_within_append_using, filter_within_into, filter_within_into_using,
    filter_within_pruned_append_using, hamming_distance, rfind_within, rfind_within_pruned_using,
    rfind_within_using, within_distance,
};
pub use index::{HammingIndex, IndexError, IndexPlan};
pub use kernels::{active_kernel, supported_kernels, KernelKind};
