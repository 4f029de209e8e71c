//! Brute-force SPSD and M-SPSD: the semantics every engine must reproduce.
//!
//! Both are O(n × window) over [`covers`], with no bins, no kernels and no
//! component sharing: a post is suppressed iff an earlier *emitted* post of
//! the same reader, still within λt, covers it on content, time and author
//! at once.

use std::collections::VecDeque;

use firehose_core::coverage::covers;
use firehose_core::Thresholds;
use firehose_graph::UndirectedGraph;
use firehose_stream::{AuthorId, PostId, PostRecord};

/// One reader's emitted posts still inside λt of the newest arrival.
#[derive(Default)]
struct Window(VecDeque<PostRecord>);

impl Window {
    /// Decide `record` and remember it if emitted.
    fn offer(&mut self, record: &PostRecord, th: &Thresholds, graph: &UndirectedGraph) -> bool {
        while self
            .0
            .front()
            .is_some_and(|old| old.timestamp + th.lambda_t < record.timestamp)
        {
            self.0.pop_front();
        }
        let emitted = !self.0.iter().rev().any(|q| covers(record, q, th, graph));
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
/// user's stream is SPSD over the posts of the authors they follow
/// (`follows[user]`), with coverage judged on the whole graph.
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
}
