#![warn(missing_docs)]

//! Social post model and time-window storage.
//!
//! A *social post stream* (Section 2 of the paper) is a timestamp-ordered
//! sequence of posts, each with a unique id, an author and textual content.
//! This crate defines:
//!
//! * the post model: [`Post`] carries text; [`PostRecord`] is the compact
//!   fingerprinted form the engines store in bins;
//! * [`TimeWindowBin`], the circular-buffer "post bin" of Section 4
//!   ("Handling Time Diversity"): only posts from the last `λt` time units
//!   can cover a new arrival, so bins evict from the front and scan from the
//!   back (most recent first);
//! * [`ApproxWindowBin`], the tiered bounded-memory window (per-time-bucket
//!   retention caps + multi-probe SimHash prefix lookup) behind the engines'
//!   approximate coverage mode;
//! * millisecond timestamp helpers ([`minutes`], [`hours`], ...);
//! * [`corpus`] — the TSV interchange format the CLI and generators use to
//!   exchange post streams;
//! * [`IngestGuard`], the hostile-stream admission filter (ordering,
//!   duplicates, author range, text bounds) with per-reason quarantine
//!   counters.

mod approx;
pub mod corpus;
mod guard;
mod post;
mod time;
mod window;

pub use approx::{ApproxCandidate, ApproxParams, ApproxStats, ApproxWindowBin, StoreOutcome};
pub use corpus::{read_posts, write_posts, CorpusError};
pub use guard::{
    guard_stream, GuardConfig, GuardPolicy, IngestGuard, QuarantineStats, RejectReason,
};
pub use post::{AuthorId, Post, PostId, PostRecord, Timestamp};
pub use time::{days, hours, minutes, seconds};
pub use window::{TimeWindowBin, WindowView};

/// Check that `posts` is sorted by timestamp (ties allowed). The SPSD
/// problem's real-time semantics presuppose arrival order = time order.
pub fn is_time_ordered(posts: &[Post]) -> bool {
    posts.windows(2).all(|w| w[0].timestamp <= w[1].timestamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_check() {
        let mk = |ts| Post::new(0, 0, ts, String::new());
        assert!(is_time_ordered(&[]));
        assert!(is_time_ordered(&[mk(5)]));
        assert!(is_time_ordered(&[mk(1), mk(1), mk(2)]));
        assert!(!is_time_ordered(&[mk(2), mk(1)]));
    }
}
