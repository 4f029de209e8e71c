//! The coverage backend: one window store per bin, exact or approximate.
//!
//! Engines used to hold [`TimeWindowBin`]s directly; the [`CoverageBackend`]
//! enum is the seam that lets the same engine logic run either the exact SoA
//! window scan (byte-identical decisions and counters to every prior
//! release) or the tiered approximate store of
//! [`ApproxWindowBin`] (bounded retention + multi-probe prefix lookup),
//! selected by [`MemoryMode`] on the engine config.
//!
//! Two lookup shapes cover the three engines:
//!
//! * [`scan_into`](CoverageBackend::scan_into) — UniBin's shape: collect
//!   *all* content candidates so the engine can run its own author
//!   admission check over them (marking the arriving author's neighbours
//!   once, then one load per candidate).
//! * [`find_newest_within`](CoverageBackend::find_newest_within) —
//!   NeighborBin/CliqueBin's shape: bins are author-homogeneous, so the
//!   newest content match *is* the covering post; the exact arm keeps the
//!   early-stopping reverse kernel scan.
//!
//! Comparison accounting: the exact arm reconstructs the scalar scan's
//! count (records examined newest-first down to the hit, or the whole
//! window); the approximate arm charges the candidate verifications its
//! prefix probes performed — the honest cost of the bucketed lookup.

use firehose_simhash::KernelKind;
use firehose_stream::{
    ApproxCandidate, ApproxParams, ApproxStats, ApproxWindowBin, PostRecord, TimeWindowBin,
    Timestamp,
};

use crate::config::{EngineConfig, MemoryMode, Thresholds};

/// A λt-window store behind one engine bin: exact or approximate.
pub(crate) enum CoverageBackend {
    /// The exact SoA sliding window (the paper's semantics, bit for bit).
    Exact(TimeWindowBin),
    /// The tiered approximate window (bounded retention, prefix probes).
    Approx(ApproxWindowBin),
}

impl CoverageBackend {
    /// Build the backend the config asks for. `capacity_hint` pre-sizes the
    /// exact columns; the approximate store is bounded by its own caps and
    /// ignores it.
    pub(crate) fn for_config(config: &EngineConfig, capacity_hint: usize) -> Self {
        match config.memory {
            MemoryMode::Exact => Self::Exact(TimeWindowBin::with_capacity(capacity_hint)),
            MemoryMode::Approx(approx) => Self::Approx(ApproxWindowBin::new(
                ApproxParams {
                    probes: approx.probes(),
                    bucket_budget: approx.bucket_budget(),
                    granularity: approx.granularity(),
                },
                config.thresholds.lambda_c,
                config.thresholds.lambda_t,
            )),
        }
    }

    /// Records currently retained.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Exact(bin) => bin.len(),
            Self::Approx(bin) => bin.len(),
        }
    }

    /// The approximate arm's lifetime counters, `None` on the exact arm.
    pub(crate) fn approx_stats(&self) -> Option<ApproxStats> {
        match self {
            Self::Exact(_) => None,
            Self::Approx(bin) => Some(bin.stats()),
        }
    }

    /// The exact window, when this backend is exact (the engines'
    /// exact-only debug assertions).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn as_exact(&self) -> Option<&TimeWindowBin> {
        match self {
            Self::Exact(bin) => Some(bin),
            Self::Approx(_) => None,
        }
    }

    /// Drop records that can no longer cover an arrival at `now`.
    pub(crate) fn evict_expired(&mut self, now: Timestamp, lambda_t: Timestamp) -> usize {
        match self {
            Self::Exact(bin) => bin.evict_expired(now, lambda_t),
            Self::Approx(bin) => bin.evict_expired(now, lambda_t),
        }
    }

    /// Store a record. Returns how many retained records the store dropped
    /// to make room (always 0 on the exact arm) so the engine can keep its
    /// copy accounting truthful.
    pub(crate) fn push(&mut self, record: PostRecord) -> u64 {
        match self {
            Self::Exact(bin) => {
                bin.push(record);
                0
            }
            Self::Approx(bin) => u64::from(bin.insert(record).displaced),
        }
    }

    /// Visit every retained record in insertion (= non-decreasing time)
    /// order — the snapshot serialization order.
    pub(crate) fn for_each_record(&self, mut f: impl FnMut(PostRecord)) {
        match self {
            Self::Exact(bin) => {
                for r in bin.iter() {
                    f(r);
                }
            }
            Self::Approx(bin) => bin.for_each_record(f),
        }
    }

    /// UniBin's lookup shape: collect every in-window content candidate for
    /// `record` into `scan`, newest-first, for the engine's own author
    /// admission loop. See [`ScanBuffer::comparisons`] for cost accounting.
    pub(crate) fn scan_into(
        &mut self,
        kernel: KernelKind,
        record: &PostRecord,
        t: &Thresholds,
        scan: &mut ScanBuffer,
    ) {
        scan.ids.clear();
        scan.authors.clear();
        scan.positions.clear();
        match self {
            Self::Exact(bin) => {
                let view = bin.window(record.timestamp, t.lambda_t);
                view.filter_within_into(
                    kernel,
                    record.fingerprint,
                    t.lambda_c,
                    &mut scan.positions,
                );
                for &pos in &scan.positions {
                    scan.ids.push(view.ids[pos as usize]);
                    scan.authors.push(view.authors[pos as usize]);
                }
                scan.window_len = view.len();
                scan.probed = 0;
                scan.exact = true;
            }
            Self::Approx(bin) => {
                scan.probed = bin.probe(
                    record.fingerprint,
                    record.timestamp,
                    t.lambda_t,
                    &mut scan.candidates,
                );
                for c in &scan.candidates {
                    scan.ids.push(c.id);
                    scan.authors.push(c.author);
                }
                scan.window_len = 0;
                scan.exact = false;
            }
        }
    }

    /// NeighborBin/CliqueBin's lookup shape: the newest in-window record
    /// within λc of `record`'s fingerprint, plus the comparisons charged.
    /// Author admission is the *caller's* invariant (bins are
    /// author-homogeneous by construction).
    pub(crate) fn find_newest_within(
        &mut self,
        kernel: KernelKind,
        record: &PostRecord,
        t: &Thresholds,
        scratch: &mut Vec<ApproxCandidate>,
    ) -> (Option<u64>, u64) {
        match self {
            Self::Exact(bin) => {
                let view = bin.window(record.timestamp, t.lambda_t);
                let found = view.rfind_within(kernel, record.fingerprint, t.lambda_c);
                let comparisons = match found {
                    Some(pos) => (view.len() - pos) as u64,
                    None => view.len() as u64,
                };
                (found.map(|pos| view.ids[pos]), comparisons)
            }
            Self::Approx(bin) => {
                let probed =
                    bin.probe(record.fingerprint, record.timestamp, t.lambda_t, scratch) as u64;
                // Candidates are newest-first; the head is the covering post.
                (scratch.first().map(|c| c.id), probed)
            }
        }
    }
}

/// Reusable candidate buffer for [`CoverageBackend::scan_into`] — the
/// engine-facing view of one lookup's results, allocation-free across
/// offers. Candidates are indexed `0..len()`, newest-first.
#[derive(Default)]
pub(crate) struct ScanBuffer {
    ids: Vec<u64>,
    authors: Vec<u32>,
    /// Exact arm: view positions of the candidates (for stop-position cost
    /// reconstruction).
    positions: Vec<u32>,
    /// Exact arm: total in-window records scanned.
    window_len: usize,
    /// Approx arm: candidate verifications performed by the probes.
    probed: usize,
    exact: bool,
    /// Approx arm scratch.
    candidates: Vec<ApproxCandidate>,
}

impl ScanBuffer {
    /// New empty buffer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of content candidates found.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the lookup found no content candidates.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Post id of candidate `i`.
    pub(crate) fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Author of candidate `i`.
    pub(crate) fn author(&self, i: usize) -> u32 {
        self.authors[i]
    }

    /// Comparisons to charge for this lookup given where the engine's
    /// admission loop stopped (`hit` = index of the accepted candidate,
    /// `None` = none accepted). Exact: the scalar newest-first count —
    /// records down to and including the covering one, or the whole window.
    /// Approx: the probes' verification count, independent of the stop.
    pub(crate) fn comparisons(&self, hit: Option<usize>) -> u64 {
        if self.exact {
            match hit {
                Some(i) => (self.window_len - self.positions[i] as usize) as u64,
                None => self.window_len as u64,
            }
        } else {
            self.probed as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproxConfig;
    use firehose_simhash::active_kernel;
    use firehose_stream::minutes;

    fn rec(id: u64, author: u32, ts: u64, fp: u64) -> PostRecord {
        PostRecord {
            id,
            author,
            timestamp: ts,
            fingerprint: fp,
        }
    }

    fn approx_config() -> EngineConfig {
        let mut config = EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap());
        config.memory = MemoryMode::Approx(ApproxConfig::default());
        config
    }

    #[test]
    fn exact_scan_matches_window_semantics() {
        let config = EngineConfig::paper_defaults();
        let mut backend = CoverageBackend::for_config(&config, 0);
        assert!(backend.as_exact().is_some());
        backend.push(rec(1, 0, 0, 0));
        backend.push(rec(2, 1, 1_000, 0xFFFF_FFFF));
        let mut scan = ScanBuffer::new();
        let probe = rec(3, 2, 2_000, 0b11);
        backend.scan_into(active_kernel(), &probe, &config.thresholds, &mut scan);
        assert_eq!(scan.len(), 1);
        assert_eq!(scan.id(0), 1);
        assert_eq!(scan.author(0), 0);
        // Scalar accounting: stopping at the (older) candidate costs the
        // whole window; not stopping costs the same here.
        assert_eq!(scan.comparisons(Some(0)), 2);
        assert_eq!(scan.comparisons(None), 2);
    }

    #[test]
    fn approx_backend_probes_and_counts() {
        let config = approx_config();
        let mut backend = CoverageBackend::for_config(&config, 0);
        assert!(backend.as_exact().is_none());
        assert_eq!(backend.push(rec(1, 0, 0, 0xAB)), 0);
        let mut scan = ScanBuffer::new();
        let probe = rec(2, 1, 1_000, 0xAB);
        backend.scan_into(active_kernel(), &probe, &config.thresholds, &mut scan);
        assert_eq!(scan.len(), 1);
        assert_eq!(scan.id(0), 1);
        let stats = backend.approx_stats().unwrap();
        assert_eq!(stats.probes_run, 1);
        assert!(stats.candidates_probed >= 1);
        assert_eq!(scan.comparisons(None), stats.candidates_probed);
    }

    #[test]
    fn find_newest_within_agrees_across_arms() {
        let exact_cfg = EngineConfig::paper_defaults();
        let approx_cfg = approx_config();
        let mut scratch = Vec::new();
        for config in [exact_cfg, approx_cfg] {
            let mut backend = CoverageBackend::for_config(&config, 0);
            backend.push(rec(1, 0, 0, 0xAB));
            backend.push(rec(2, 0, 1_000, 0xAB));
            let probe = rec(3, 0, 2_000, 0xAB);
            let (found, comparisons) = backend.find_newest_within(
                active_kernel(),
                &probe,
                &config.thresholds,
                &mut scratch,
            );
            assert_eq!(found, Some(2), "newest match wins on both arms");
            assert!(comparisons >= 1);
        }
    }

    #[test]
    fn displacement_reported_through_push() {
        let mut config = approx_config();
        config.memory = MemoryMode::Approx(ApproxConfig::new(8, 1, 1).unwrap());
        let mut backend = CoverageBackend::for_config(&config, 0);
        assert_eq!(backend.push(rec(1, 0, 0, 1)), 0);
        assert_eq!(backend.push(rec(2, 0, 1, 1 << 20)), 1, "budget 1 displaces");
        assert_eq!(backend.len(), 1);
    }
}
