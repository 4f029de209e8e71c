//! Brute-force references the system's outputs are checked against.
//!
//! Everything here is O(n × window) over `core::coverage::covers`, with no
//! bins, no kernels and no component sharing: a post is suppressed iff an
//! earlier *emitted* post of the same reader covers it on content, time and
//! author at once. Oracle time is excluded from every metric.

use std::collections::VecDeque;

use firehose_core::coverage::covers;
use firehose_core::Thresholds;
use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, PostId, PostRecord};

/// The emitted posts still inside λt of the newest arrival.
#[derive(Default)]
struct Window(VecDeque<PostRecord>);

impl Window {
    /// Whether an emitted post still inside λt covers `record`.
    fn covers(&mut self, record: &PostRecord, th: &Thresholds, graph: &UndirectedGraph) -> bool {
        while self
            .0
            .front()
            .is_some_and(|old| old.timestamp + th.lambda_t < record.timestamp)
        {
            self.0.pop_front();
        }
        self.0.iter().rev().any(|q| covers(record, q, th, graph))
    }

    /// Decide `record` against this window and remember it if emitted.
    fn offer(&mut self, record: &PostRecord, th: &Thresholds, graph: &UndirectedGraph) -> bool {
        let emitted = !self.covers(record, th, graph);
        if emitted {
            self.0.push_back(*record);
        }
        emitted
    }
}

/// SPSD: for each record in stream order, whether it is emitted.
pub fn spsd(records: &[PostRecord], th: &Thresholds, graph: &UndirectedGraph) -> Vec<bool> {
    let mut window = Window::default();
    records.iter().map(|r| window.offer(r, th, graph)).collect()
}

/// M-SPSD: the post ids delivered to each of `users`, in stream order. A
/// user's stream is SPSD over the posts of the authors they follow.
pub fn mspsd(
    records: &[PostRecord],
    follows: &[Vec<AuthorId>],
    users: &[u32],
    th: &Thresholds,
    graph: &UndirectedGraph,
) -> Vec<Vec<PostId>> {
    let mut readers_of: Vec<Vec<usize>> = vec![Vec::new(); graph.node_count()];
    for (slot, &user) in users.iter().enumerate() {
        for &author in &follows[user as usize] {
            readers_of[author as usize].push(slot);
        }
    }
    let mut windows: Vec<Window> = users.iter().map(|_| Window::default()).collect();
    let mut delivered: Vec<Vec<PostId>> = vec![Vec::new(); users.len()];
    for record in records {
        for &slot in &readers_of[record.author as usize] {
            if windows[slot].offer(record, th, graph) {
                delivered[slot].push(record.id);
            }
        }
    }
    delivered
}

/// What an approximate engine may and may not do, counted over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Suppressed posts that no earlier emitted post covers. Approx mode
    /// prunes only with a genuine cover in hand, so this must be zero.
    pub coverage_violations: u64,
    /// Posts the run emitted.
    pub emitted: u64,
}

/// Audit a run's own decisions: every suppressed post must have a cover
/// among the posts *that run* emitted.
pub fn audit(
    records: &[PostRecord],
    emitted: &[bool],
    th: &Thresholds,
    graph: &UndirectedGraph,
) -> Audit {
    let mut window = Window::default();
    let mut out = Audit {
        coverage_violations: 0,
        emitted: 0,
    };
    for (record, &was_emitted) in records.iter().zip(emitted) {
        let covered = window.covers(record, th, graph);
        if was_emitted {
            window.0.push_back(*record);
            out.emitted += 1;
        } else if !covered {
            out.coverage_violations += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six posts, three authors, authors 0 and 1 similar; λc = 3 bits,
    /// λt = 100 ms.
    fn trace() -> (Vec<PostRecord>, Thresholds, UndirectedGraph) {
        let rec = |id, author, timestamp, fingerprint| PostRecord {
            id,
            author,
            timestamp,
            fingerprint,
        };
        let records = vec![
            rec(1, 0, 0, 0b0000),   // first of its kind
            rec(2, 1, 10, 0b0001),  // covered by 1: similar author, 1 bit, 10 ms
            rec(3, 2, 20, 0b0000),  // author 2 is similar to nobody
            rec(4, 0, 50, 0xFF),    // 8 bits from post 1
            rec(5, 1, 105, 0b0011), // post 1 is 105 ms old; post 2 was never emitted
            rec(6, 0, 150, 0b0111), // covered by 5: 1 bit, 45 ms, similar author
        ];
        let th = Thresholds::new(3, 100, 0.7).unwrap();
        (records, th, UndirectedGraph::from_edges(3, [(0, 1)]))
    }

    #[test]
    fn spsd_on_the_six_post_trace() {
        let (records, th, graph) = trace();
        assert_eq!(
            spsd(&records, &th, &graph),
            [true, false, true, true, true, false]
        );
    }

    #[test]
    fn mspsd_streams_depend_on_what_each_user_follows() {
        let (records, th, graph) = trace();
        let follows = vec![vec![0, 1], vec![1, 2], vec![0], vec![]];
        let got = mspsd(&records, &follows, &[0, 1, 2, 3], &th, &graph);
        assert_eq!(got[0], [1, 4, 5], "same as SPSD without author 2");
        assert_eq!(got[1], [2, 3], "post 2 leads here, and then covers post 5");
        assert_eq!(got[2], [1, 4, 6], "without author 1 nothing covers post 6");
        assert!(got[3].is_empty());
        // A subset of users gives the same streams for those users.
        assert_eq!(
            mspsd(&records, &follows, &[2], &th, &graph),
            [vec![1, 4, 6]]
        );
    }

    #[test]
    fn audit_counts_unjustified_suppressions_only() {
        let (records, th, graph) = trace();
        let exact = spsd(&records, &th, &graph);
        assert_eq!(
            audit(&records, &exact, &th, &graph),
            Audit {
                coverage_violations: 0,
                emitted: 4
            }
        );
        // Emitting more than the exact run is allowed (one-sided error)...
        let extra = [true, true, true, true, true, false];
        assert_eq!(audit(&records, &extra, &th, &graph).coverage_violations, 0);
        assert_eq!(audit(&records, &extra, &th, &graph).emitted, 5);
        // ...suppressing a post nothing emitted covers is not.
        let lossy = [true, false, false, true, true, false];
        assert_eq!(audit(&records, &lossy, &th, &graph).coverage_violations, 1);
    }
}
