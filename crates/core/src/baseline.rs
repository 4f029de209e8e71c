//! Sliding-window MaxMin k-diversity — the related-work baseline.
//!
//! The closest prior system the paper discusses (Related Work, Drosou &
//! Pitoura \[7\]) maintains "the k most diverse results in a sliding window
//! over a stream" under MaxMin semantics — maximize the minimum pairwise
//! distance among k representatives. The paper rejects this family for its
//! problem because (i) it cannot express simultaneous three-dimensional
//! coverage, and (ii) top-k selection gives no *coverage guarantee*: posts
//! outside the k representatives may be similar to none of them and are
//! simply lost.
//!
//! [`MaxMinDiversifier`] implements the standard streaming greedy-swap
//! heuristic for that baseline (the cover-tree of \[7\] is an index over the
//! same semantics), so the `ablation_maxmin_baseline` benchmark can measure
//! both claims: the coverage violations it incurs, and how its costs compare
//! with the SPSD engines.
//!
//! Distance is SimHash Hamming distance over the content dimension — the
//! dimension \[7\] diversifies on.

use std::collections::VecDeque;

use firehose_simhash::hamming_distance;
use firehose_stream::{PostRecord, Timestamp};

/// Streaming MaxMin top-k selector over a λt sliding window.
#[derive(Debug, Clone)]
pub struct MaxMinDiversifier {
    k: usize,
    lambda_t: Timestamp,
    /// Current representatives, in arrival order (front = oldest).
    selected: VecDeque<PostRecord>,
    /// Pairwise distance computations performed (cost metric).
    comparisons: u64,
}

impl MaxMinDiversifier {
    /// A selector holding at most `k` representatives within a `lambda_t`
    /// window.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, lambda_t: Timestamp) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            lambda_t,
            selected: VecDeque::new(),
            comparisons: 0,
        }
    }

    /// Current representatives (arrival order).
    #[cfg(test)]
    pub(crate) fn selected(&self) -> impl Iterator<Item = &PostRecord> {
        self.selected.iter()
    }

    /// Number of current representatives.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.selected.len()
    }

    /// Total pairwise distance computations so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// The MaxMin objective: minimum pairwise distance among the current
    /// representatives (`None` with fewer than two).
    #[cfg(test)]
    pub(crate) fn min_pairwise(&mut self) -> Option<u32> {
        if self.selected.len() < 2 {
            return None;
        }
        let mut min = u32::MAX;
        let records = self.selected.make_contiguous();
        for (i, a) in records.iter().enumerate() {
            for b in &records[i + 1..] {
                min = min.min(hamming_distance(a.fingerprint, b.fingerprint));
            }
        }
        self.comparisons += (self.selected.len() * (self.selected.len() - 1) / 2) as u64;
        Some(min)
    }

    /// Observe an arriving post. Returns `true` when the post enters the
    /// representative set (either filling a free slot or replacing a member
    /// via the greedy swap that improves the MaxMin objective).
    pub fn observe(&mut self, record: PostRecord) -> bool {
        // Expire representatives that left the window.
        let cutoff = record.timestamp.saturating_sub(self.lambda_t);
        while let Some(front) = self.selected.front() {
            if front.timestamp < cutoff {
                self.selected.pop_front();
            } else {
                break;
            }
        }

        if self.selected.len() < self.k {
            self.selected.push_back(record);
            return true;
        }

        // Greedy swap: find the current closest pair; if the newcomer's
        // minimum distance to the rest beats the current objective after
        // evicting one endpoint of that pair, swap it in.
        let records = self.selected.make_contiguous();
        let (mut min, mut min_i, mut min_j) = (u32::MAX, 0usize, 1usize);
        for (i, a) in records.iter().enumerate() {
            for (off, b) in records[i + 1..].iter().enumerate() {
                let d = hamming_distance(a.fingerprint, b.fingerprint);
                self.comparisons += 1;
                if d < min {
                    (min, min_i, min_j) = (d, i, i + 1 + off);
                }
            }
        }

        let mut best: Option<(usize, u32)> = None;
        for &evict in &[min_i, min_j] {
            let mut new_min = u32::MAX;
            for (i, a) in self.selected.iter().enumerate() {
                if i == evict {
                    continue;
                }
                new_min = new_min.min(hamming_distance(a.fingerprint, record.fingerprint));
                self.comparisons += 1;
            }
            if new_min > min && best.is_none_or(|(_, b)| new_min > b) {
                best = Some((evict, new_min));
            }
        }

        match best {
            Some((evict, _)) => {
                self.selected.remove(evict);
                self.selected.push_back(record);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, ts: Timestamp, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author: 0,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    #[test]
    fn fills_free_slots_first() {
        let mut d = MaxMinDiversifier::new(3, 1_000);
        assert!(d.observe(rec(1, 0, 0)));
        assert!(d.observe(rec(2, 1, 0xFF)));
        assert!(d.observe(rec(3, 2, 0xFF00)));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn swap_improves_objective() {
        let mut d = MaxMinDiversifier::new(3, 1_000_000);
        // Two far-apart plus one clone of the first: min pairwise = 0.
        d.observe(rec(1, 0, 0));
        d.observe(rec(2, 1, 0));
        d.observe(rec(3, 2, u64::MAX));
        assert_eq!(d.min_pairwise(), Some(0));
        // A post far from everything should replace one of the clones.
        let far = 0x0000_FFFF_0000_FFFF;
        assert!(d.observe(rec(4, 3, far)));
        assert!(d.min_pairwise().unwrap() > 0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn rejects_posts_that_do_not_improve() {
        let mut d = MaxMinDiversifier::new(2, 1_000_000);
        d.observe(rec(1, 0, 0));
        d.observe(rec(2, 1, u64::MAX)); // objective = 64, unbeatable
        assert!(!d.observe(rec(3, 2, 0xFF)));
        assert_eq!(d.len(), 2);
        let ids: Vec<u64> = d.selected().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn expiry_frees_slots() {
        let mut d = MaxMinDiversifier::new(2, 100);
        d.observe(rec(1, 0, 0));
        d.observe(rec(2, 10, u64::MAX));
        // Far in the future: both expired, newcomer takes a free slot.
        assert!(d.observe(rec(3, 10_000, 0xF0)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn objective_never_decreases_on_swap_within_static_window() {
        let mut d = MaxMinDiversifier::new(4, u64::MAX / 2);
        let mut previous = None;
        for i in 0..200u64 {
            let fp = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Only *swaps* (set already full) must be monotone; filling a
            // free slot legitimately lowers the min pairwise distance.
            let was_full = d.len() == d.k;
            let accepted = d.observe(rec(i, i, fp));
            let objective = d.min_pairwise();
            if let (Some(prev), Some(cur)) = (previous, objective) {
                if accepted && was_full {
                    assert!(cur >= prev, "swap decreased the objective: {prev} -> {cur}");
                }
            }
            previous = objective;
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        MaxMinDiversifier::new(0, 1_000);
    }

    #[test]
    fn no_coverage_guarantee_demonstration() {
        // The structural weakness the paper calls out: with k slots full of
        // mutually-far posts, a *novel* post can be rejected outright — it is
        // neither selected nor similar to anything selected, i.e. lost.
        let mut d = MaxMinDiversifier::new(2, 1_000_000);
        d.observe(rec(1, 0, 0));
        d.observe(rec(2, 1, u64::MAX));
        let novel = 0xAAAA_AAAA_AAAA_AAAA; // distance 32 from both
        assert!(!d.observe(rec(3, 2, novel)));
        let min_dist_to_selected = d
            .selected()
            .map(|r| hamming_distance(r.fingerprint, novel))
            .min()
            .unwrap();
        assert!(min_dist_to_selected > 18, "the lost post was not redundant");
    }
}
