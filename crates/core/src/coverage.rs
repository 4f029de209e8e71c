//! The coverage predicate (Definition 1).

use firehose_graph::UndirectedGraph;
use firehose_simhash::within_distance;
use firehose_stream::PostRecord;

use crate::config::Thresholds;

/// `true` iff two authors are within author distance `λa`.
///
/// The similarity graph `G` already encodes the thresholding (an edge joins
/// authors with distance ≤ `λa`), and an author always covers herself
/// (`dist_a(x, x) = 1 − cos(F, F) = 0`).
#[inline]
pub fn authors_similar(graph: &UndirectedGraph, a: u32, b: u32) -> bool {
    a == b || graph.has_edge(a, b)
}

/// Definition 1: `a` and `b` cover each other iff they are within all three
/// thresholds. Symmetric by construction.
///
/// Dimension order is cheapest-first: time (the caller usually guarantees it
/// via the window scan, but the predicate re-checks so it is safe on its
/// own), then content (XOR+POPCNT), then author (binary search in `G`). This
/// is the paper's third challenge — "use the results of the one dimension to
/// prune the work needed for the other dimension".
#[inline]
pub fn covers(
    a: &PostRecord,
    b: &PostRecord,
    thresholds: &Thresholds,
    graph: &UndirectedGraph,
) -> bool {
    a.timestamp.abs_diff(b.timestamp) <= thresholds.lambda_t
        && within_distance(a.fingerprint, b.fingerprint, thresholds.lambda_c)
        && authors_similar(graph, a.author, b.author)
}

/// Per-dimension breakdown of one coverage test — the "why was this post
/// pruned / kept" evidence for debugging, UIs and log lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageExplanation {
    /// Hamming distance between the fingerprints.
    pub content_distance: u32,
    /// The content threshold it was compared against.
    pub lambda_c: u32,
    /// Absolute timestamp distance in milliseconds.
    pub time_distance: u64,
    /// The time threshold.
    pub lambda_t: u64,
    /// Whether the authors are identical or adjacent in `G`.
    pub authors_similar: bool,
    /// The conjunction: does `b` cover `a`?
    pub covers: bool,
}

impl CoverageExplanation {
    /// `true` iff the content dimension passed.
    pub(crate) fn content_ok(&self) -> bool {
        self.content_distance <= self.lambda_c
    }

    /// `true` iff the time dimension passed.
    pub(crate) fn time_ok(&self) -> bool {
        self.time_distance <= self.lambda_t
    }

    /// The dimensions that blocked coverage (empty when `covers`).
    pub fn blocking_dimensions(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.content_ok() {
            out.push("content");
        }
        if !self.time_ok() {
            out.push("time");
        }
        if !self.authors_similar {
            out.push("author");
        }
        out
    }
}

impl std::fmt::Display for CoverageExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "content {} (d={} λc={}), time {} (Δ={}ms λt={}ms), author {}",
            if self.content_ok() { "✓" } else { "✗" },
            self.content_distance,
            self.lambda_c,
            if self.time_ok() { "✓" } else { "✗" },
            self.time_distance,
            self.lambda_t,
            if self.authors_similar {
                "similar ✓"
            } else {
                "dissimilar ✗"
            },
        )
    }
}

/// Evaluate all three dimensions (no short-circuiting) and report each —
/// the diagnostic sibling of [`covers`].
pub fn explain(
    a: &PostRecord,
    b: &PostRecord,
    thresholds: &Thresholds,
    graph: &UndirectedGraph,
) -> CoverageExplanation {
    let content_distance = firehose_simhash::hamming_distance(a.fingerprint, b.fingerprint);
    let time_distance = a.timestamp.abs_diff(b.timestamp);
    let similar = authors_similar(graph, a.author, b.author);
    CoverageExplanation {
        content_distance,
        lambda_c: thresholds.lambda_c,
        time_distance,
        lambda_t: thresholds.lambda_t,
        authors_similar: similar,
        covers: content_distance <= thresholds.lambda_c
            && time_distance <= thresholds.lambda_t
            && similar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firehose_stream::minutes;

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn setup() -> (Thresholds, UndirectedGraph) {
        (
            Thresholds::new(3, minutes(10), 0.7).unwrap(),
            UndirectedGraph::from_edges(4, [(0, 1), (2, 3)]),
        )
    }

    #[test]
    fn covers_when_all_three_close() {
        let (t, g) = setup();
        let a = rec(1, 0, 0, 0b0000);
        let b = rec(2, 1, minutes(5), 0b0111); // distance 3 = λc
        assert!(covers(&a, &b, &t, &g));
        assert!(covers(&b, &a, &t, &g), "coverage must be symmetric");
    }

    #[test]
    fn same_author_always_similar() {
        let (t, g) = setup();
        let a = rec(1, 2, 0, 0);
        let b = rec(2, 2, 1, 0);
        assert!(covers(&a, &b, &t, &g));
        assert!(authors_similar(&g, 2, 2));
    }

    #[test]
    fn content_dimension_blocks_coverage() {
        let (t, g) = setup();
        let a = rec(1, 0, 0, 0);
        let b = rec(2, 1, 1, 0b1111); // distance 4 > λc = 3
        assert!(!covers(&a, &b, &t, &g));
    }

    #[test]
    fn time_dimension_blocks_coverage() {
        let (t, g) = setup();
        let a = rec(1, 0, 0, 0);
        let b = rec(2, 1, minutes(10) + 1, 0);
        assert!(!covers(&a, &b, &t, &g));
        // Exactly λt apart still covers.
        let c = rec(3, 1, minutes(10), 0);
        assert!(covers(&a, &c, &t, &g));
    }

    #[test]
    fn author_dimension_blocks_coverage() {
        let (t, g) = setup();
        let a = rec(1, 0, 0, 0);
        let b = rec(2, 2, 1, 0); // authors 0 and 2 not adjacent
        assert!(!covers(&a, &b, &t, &g));
    }

    #[test]
    fn explanation_matches_covers_and_names_blockers() {
        let (t, g) = setup();
        let a = rec(1, 0, 0, 0);
        // Far in content (4 > 3) and time; similar authors.
        let b = rec(2, 1, minutes(20), 0b1111);
        let e = explain(&a, &b, &t, &g);
        assert!(!e.covers);
        assert_eq!(e.covers, covers(&a, &b, &t, &g));
        assert_eq!(e.blocking_dimensions(), vec!["content", "time"]);
        assert_eq!(e.content_distance, 4);
        assert_eq!(e.time_distance, minutes(20));
        assert!(e.authors_similar);

        // A covering pair explains with no blockers.
        let c = rec(3, 1, minutes(1), 0b1);
        let e = explain(&a, &c, &t, &g);
        assert!(e.covers);
        assert!(e.blocking_dimensions().is_empty());
        let rendered = e.to_string();
        assert!(rendered.contains("content ✓"), "{rendered}");
        assert!(rendered.contains("similar ✓"), "{rendered}");
    }

    #[test]
    fn explanation_flags_dissimilar_authors() {
        let (t, g) = setup();
        let e = explain(&rec(1, 0, 0, 0), &rec(2, 2, 0, 0), &t, &g);
        assert_eq!(e.blocking_dimensions(), vec!["author"]);
        assert!(e.to_string().contains("dissimilar ✗"));
    }

    #[test]
    fn timestamp_extremes_never_panic_or_wrap() {
        // Regression: the time dimension must use absolute-difference
        // semantics even at the u64 boundaries. A wrapping subtraction would
        // make MAX and 0 look 0ms apart (silent false coverage) or panic in
        // debug builds.
        let (_, g) = setup();
        let t = Thresholds::new(3, minutes(10), 0.7).unwrap();
        let old = rec(1, 0, 0, 0);
        let new = rec(2, 1, u64::MAX, 0);
        assert!(
            !covers(&old, &new, &t, &g),
            "u64::MAX ms apart is not time-close"
        );
        assert!(!covers(&new, &old, &t, &g), "order must not matter");
        assert_eq!(explain(&old, &new, &t, &g).time_distance, u64::MAX);

        // With λt = u64::MAX every pair is time-close, including the extremes.
        let forever = Thresholds::new(3, u64::MAX, 0.7).unwrap();
        assert!(covers(&old, &new, &forever, &g));

        // Two posts at the far end of the clock still compare exactly.
        let a = rec(3, 0, u64::MAX - 1, 0);
        let b = rec(4, 1, u64::MAX, 0);
        assert!(covers(&a, &b, &t, &g));
    }

    #[test]
    fn all_three_must_hold_simultaneously() {
        let (t, g) = setup();
        let base = rec(1, 0, minutes(60), 0);
        // close content+author, far time
        assert!(!covers(&base, &rec(2, 1, 0, 0), &t, &g));
        // close time+author, far content
        assert!(!covers(&base, &rec(3, 1, minutes(60), u64::MAX), &t, &g));
        // close time+content, far author
        assert!(!covers(&base, &rec(4, 3, minutes(60), 0), &t, &g));
        // everything close
        assert!(covers(&base, &rec(5, 1, minutes(60), 1), &t, &g));
    }
}
