#![warn(missing_docs)]

//! Text processing primitives for short social posts.
//!
//! This crate implements the content-dimension substrate of the paper
//! *Slowing the Firehose: Multi-Dimensional Diversity on Social Post Streams*
//! (EDBT 2016), Section 3:
//!
//! * [`normalize()`] — the normalization pipeline the paper found to improve
//!   SimHash precision/recall on tweets (Figure 4): lowercasing, whitespace
//!   collapsing and removal of non-alphanumeric characters.
//! * [`tokenize()`] / [`tokens`] — whitespace tokenization with
//!   social-media-aware token classification (hashtags, mentions, URLs),
//!   plus optional token weighting (the paper experimented with boosting
//!   hashtags/mentions by creating artificial copies).
//! * [`TfVector`] / [`cosine_similarity`] — sparse term-frequency vectors and
//!   exact cosine similarity, the "slow but accurate" baseline that SimHash
//!   approximates;
//! * [`expand_abbreviations`] — token-exact abbreviation expansion (one of
//!   the Section 3 preprocessing variants; the paper found it does not move
//!   precision/recall, which `ablation_preprocessing` re-checks).
//!
//! The crate has no dependencies and performs no allocation beyond the output
//! containers.

mod abbrev;
mod normalize;
mod tf;
mod tokenize;

pub use abbrev::expand_abbreviations;
pub use normalize::{normalize, NormalizeOptions};
pub use tf::{cosine_similarity, fnv1a_64, TfVector};
pub use tokenize::{tokenize, tokens, Token, TokenKind, TokenWeights};
