//! Brute-force SPSD and M-SPSD: the semantics every engine must reproduce.
//!
//! All three are O(n × window) over [`covers`], with no bins, no kernels and
//! no sharing between readers: a post is suppressed iff an earlier *emitted*
//! post of the same reader, still within λt, covers it on content, time and
//! author at once. [`mspsd_churn`] adds live subscription churn: a reader's
//! follows change with each op, and its window is what it was shown.

use std::collections::{BTreeSet, VecDeque};

use firehose_core::coverage::covers;
use firehose_core::{ChurnOp, Thresholds};
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

/// M-SPSD under churn: for each record, the users it is delivered to,
/// ascending. Users start with `follows` (user `u` follows `follows[u]`);
/// each `(before, op)` in `ops` is applied once `before` records have been
/// offered, in order, and ops due after the last record change nothing
/// delivered. A user's window keeps what it was shown whatever it follows
/// later; `AddUser` appends a user with an empty window; a removed user
/// receives nothing. An op the service would refuse (on a removed user)
/// changes nothing here either.
pub fn mspsd_churn(
    records: &[PostRecord],
    follows: &[Vec<AuthorId>],
    ops: &[(usize, ChurnOp)],
    th: &Thresholds,
    graph: &UndirectedGraph,
) -> Vec<Vec<u32>> {
    // `None` = removed.
    let mut users: Vec<Option<BTreeSet<AuthorId>>> = follows
        .iter()
        .map(|f| Some(f.iter().copied().collect()))
        .collect();
    let mut windows: Vec<Window> = users.iter().map(|_| Window::default()).collect();
    let mut ops = ops.iter().peekable();
    let mut delivered = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        while let Some((_, op)) = ops.next_if(|(before, _)| *before <= i) {
            match op {
                ChurnOp::Subscribe(u, a) => {
                    if let Some(Some(f)) = users.get_mut(*u as usize) {
                        f.insert(*a);
                    }
                }
                ChurnOp::Unsubscribe(u, a) => {
                    if let Some(Some(f)) = users.get_mut(*u as usize) {
                        f.remove(a);
                    }
                }
                ChurnOp::AddUser(authors) => {
                    users.push(Some(authors.iter().copied().collect()));
                    windows.push(Window::default());
                }
                ChurnOp::RemoveUser(u) => {
                    if let Some(f) = users.get_mut(*u as usize) {
                        *f = None;
                    }
                }
            }
        }
        let to: Vec<u32> = (0..users.len())
            .filter(|&u| {
                users[u]
                    .as_ref()
                    .is_some_and(|f| f.contains(&record.author))
                    && windows[u].offer(record, th, graph)
            })
            .map(|u| u as u32)
            .collect();
        delivered.push(to);
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

    /// Authors 0 and 1 are unrelated; two near-identical posts by author
    /// 0, one second apart.
    fn unrelated() -> (Vec<PostRecord>, Thresholds, UndirectedGraph) {
        let rec = |id, timestamp| PostRecord {
            id,
            author: 0,
            timestamp,
            fingerprint: id,
        };
        let th = Thresholds::new(3, 100_000, 0.7).unwrap();
        (
            vec![rec(1, 0), rec(2, 1_000)],
            th,
            UndirectedGraph::from_edges(2, []),
        )
    }

    #[test]
    fn mspsd_churn_without_ops_is_mspsd() {
        let (records, th, graph) = trace();
        let follows = vec![vec![0, 1], vec![1, 2], vec![0], vec![]];
        let per_user = mspsd(&records, &follows, &[0, 1, 2, 3], &th, &graph);
        let per_post = mspsd_churn(&records, &follows, &[], &th, &graph);
        for (record, to) in records.iter().zip(&per_post) {
            let want: Vec<u32> = (0..4u32)
                .filter(|&u| per_user[u as usize].contains(&record.id))
                .collect();
            assert_eq!(to, &want, "post {}", record.id);
        }
    }

    /// A user who follows an author starts from what they were shown, not
    /// from what the author's other followers were shown.
    #[test]
    fn mspsd_churn_new_follower_has_seen_nothing() {
        let (records, th, graph) = unrelated();
        let follows = vec![vec![0], vec![1]];
        let ops = [(1, ChurnOp::Subscribe(1, 0))];
        let got = mspsd_churn(&records, &follows, &ops, &th, &graph);
        assert_eq!(got, [vec![0], vec![1]]);
    }

    /// Unfollowing keeps what the user was shown as coverage.
    #[test]
    fn mspsd_churn_unfollow_keeps_the_window() {
        let (mut records, th, _) = unrelated();
        records[1].author = 1;
        let graph = UndirectedGraph::from_edges(2, [(0, 1)]);
        let follows = vec![vec![0, 1]];
        let ops = [(1, ChurnOp::Unsubscribe(0, 0))];
        let got = mspsd_churn(&records, &follows, &ops, &th, &graph);
        assert_eq!(got, [vec![0], vec![]]);
    }

    /// A removed user receives nothing and ops on them change nothing; an
    /// added user gets the next id and an empty window; ops due after the
    /// stream are ignored.
    #[test]
    fn mspsd_churn_add_and_remove() {
        let (records, th, graph) = unrelated();
        let follows = vec![vec![0], vec![0]];
        let ops = [
            (0, ChurnOp::RemoveUser(0)),
            (0, ChurnOp::Subscribe(0, 1)),
            (1, ChurnOp::AddUser(vec![0])),
            (9, ChurnOp::RemoveUser(1)),
        ];
        let got = mspsd_churn(&records, &follows, &ops, &th, &graph);
        assert_eq!(got, [vec![1], vec![2]]);
    }
}
