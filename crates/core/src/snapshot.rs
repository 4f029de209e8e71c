//! Engine state snapshot / restore.
//!
//! A diversification engine is a long-running stateful stream processor;
//! restarting one cold silently re-emits every post the previous incarnation
//! already showed (nothing is in the window). These functions serialize an
//! engine's bins, counters and configuration so a restarted process resumes
//! with exactly the same future decisions.
//!
//! The similarity graph / clique cover are *not* embedded — they are large
//! shared artifacts with their own persistence (`firehose_graph::io`); the
//! caller supplies them on restore, and structural mismatches are rejected.
//!
//! Format (little-endian): magic `FHSNAP04`, engine tag, the full
//! [`EngineConfig`], the [`EngineMetrics`] counters, then the bins — a
//! deduplicated unique-record table plus per-bin index lists for the
//! multi-bin engines (a record lives in ~`degree` bins, so this shrinks
//! state by that factor). The magic doubles as the format version
//! (`FHSNAP01` lacked `expected_rate`, `FHSNAP02` duplicated records per
//! bin), so old snapshots are rejected rather than misparsed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use firehose_graph::{CliqueCover, UndirectedGraph};
use firehose_simhash::SimHashOptions;
use firehose_stream::{AuthorId, PostRecord};
use firehose_text::NormalizeOptions;
use firehose_text::TokenWeights;

use crate::backend::CoverageBackend;
use crate::config::{ApproxConfig, EngineConfig, MemoryMode, Thresholds};
use crate::engine::{CliqueBin, Diversifier, NeighborBin, UniBin};
use crate::metrics::EngineMetrics;

const MAGIC: &[u8; 8] = b"FHSNAP04";
/// The previous single-engine format: identical wire layout, older magic.
/// Readers accept both so snapshots taken before the churn release restore.
const MAGIC_V3: &[u8; 8] = b"FHSNAP03";
pub(crate) const TAG_UNIBIN: u8 = 1;
pub(crate) const TAG_NEIGHBORBIN: u8 = 2;
pub(crate) const TAG_CLIQUEBIN: u8 = 3;

/// Marker prefixing an optional memory-mode section in the config header.
/// It occupies the `λc` position and can never collide with a real `λc`
/// (validated ≤ 64), so exact-mode snapshots stay byte-identical to the
/// pre-approx format and legacy readers' configs parse unchanged.
const MEMORY_MODE_SENTINEL: u32 = 0xFFFF_FFFF;

/// Snapshot/checkpoint tag identifying an [`AlgorithmKind`].
pub(crate) fn tag_for(kind: crate::engine::AlgorithmKind) -> u8 {
    match kind {
        crate::engine::AlgorithmKind::UniBin => TAG_UNIBIN,
        crate::engine::AlgorithmKind::NeighborBin => TAG_NEIGHBORBIN,
        crate::engine::AlgorithmKind::CliqueBin => TAG_CLIQUEBIN,
    }
}

/// Cap on length-prefix-driven pre-allocation while deserializing. A corrupt
/// or hostile length field must cost at most ~tens of MB of reservation, not
/// an abort inside the allocator; genuine larger collections still load —
/// they just grow by doubling past the reservation.
pub(crate) const MAX_PREALLOC: usize = 1 << 20;

/// Errors from the `restore_*` functions.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a snapshot file.
    BadMagic,
    /// The snapshot holds a different engine kind than requested.
    WrongEngine {
        /// Tag found in the snapshot.
        found: u8,
        /// Tag the caller asked to restore.
        expected: u8,
    },
    /// The checkpoint was written by a different multi-user strategy family
    /// than the one asked to restore it.
    WrongStrategy {
        /// Strategy family named in the checkpoint's manifest.
        found: String,
        /// Strategy of the restore target.
        expected: String,
    },
    /// The supplied graph/cover does not match the snapshot's structure.
    StructureMismatch(&'static str),
    /// The stored configuration fails validation.
    BadConfig(crate::config::ConfigError),
    /// The bytes are structurally invalid — detected corruption (CRC
    /// mismatch, impossible length, trailing garbage) rather than a clean
    /// version/kind mismatch.
    Corrupt {
        /// Which section / structure the corruption was found in.
        section: &'static str,
        /// Byte offset of the corrupt structure within its container.
        offset: u64,
    },
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a firehose snapshot"),
            SnapshotError::WrongEngine { found, expected } => {
                write!(f, "snapshot holds engine tag {found}, expected {expected}")
            }
            SnapshotError::WrongStrategy { found, expected } => {
                write!(
                    f,
                    "checkpoint written by {found}; this service runs {expected}"
                )
            }
            SnapshotError::StructureMismatch(what) => {
                write!(f, "snapshot does not match supplied structure: {what}")
            }
            SnapshotError::BadConfig(e) => write!(f, "invalid stored config: {e}"),
            SnapshotError::Corrupt { section, offset } => {
                write!(f, "corrupt {section} section at byte {offset}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

pub(crate) fn w_u32<W: Write + ?Sized>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}
pub(crate) fn w_u64<W: Write + ?Sized>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}
fn w_f64<W: Write + ?Sized>(w: &mut W, x: f64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}
pub(crate) fn r_u32<R: Read + ?Sized>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
pub(crate) fn r_u64<R: Read + ?Sized>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_f64<R: Read + ?Sized>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}
fn w_bool<W: Write + ?Sized>(w: &mut W, x: bool) -> io::Result<()> {
    w.write_all(&[u8::from(x)])
}
fn r_bool<R: Read + ?Sized>(r: &mut R) -> io::Result<bool> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0] != 0)
}

pub(crate) fn write_config<W: Write + ?Sized>(w: &mut W, c: &EngineConfig) -> io::Result<()> {
    if let MemoryMode::Approx(approx) = c.memory {
        w_u32(w, MEMORY_MODE_SENTINEL)?;
        w_u32(w, approx.probes())?;
        w_u32(w, approx.bucket_budget())?;
        w_u32(w, approx.granularity())?;
    }
    w_u32(w, c.thresholds.lambda_c)?;
    w_u64(w, c.thresholds.lambda_t)?;
    w_f64(w, c.thresholds.lambda_a)?;
    let n = c.simhash.normalize;
    w_bool(w, n.lowercase)?;
    w_bool(w, n.collapse_whitespace)?;
    w_bool(w, n.strip_non_alphanumeric)?;
    w_bool(w, n.keep_social_sigils)?;
    let weights = c.simhash.weights;
    w_f64(w, weights.word)?;
    w_f64(w, weights.hashtag)?;
    w_f64(w, weights.mention)?;
    w_f64(w, weights.url)?;
    w_u32(w, c.simhash.ngram as u32)?;
    w_f64(w, c.expected_rate)
}

pub(crate) fn read_config<R: Read + ?Sized>(r: &mut R) -> Result<EngineConfig, SnapshotError> {
    let first = r_u32(r)?;
    let (memory, lambda_c) = if first == MEMORY_MODE_SENTINEL {
        let probes = r_u32(r)?;
        let bucket_budget = r_u32(r)?;
        let granularity = r_u32(r)?;
        let approx = ApproxConfig::new(probes, bucket_budget, granularity)
            .map_err(SnapshotError::BadConfig)?;
        (MemoryMode::Approx(approx), r_u32(r)?)
    } else {
        (MemoryMode::Exact, first)
    };
    let lambda_t = r_u64(r)?;
    let lambda_a = r_f64(r)?;
    let thresholds =
        Thresholds::new(lambda_c, lambda_t, lambda_a).map_err(SnapshotError::BadConfig)?;
    let normalize = NormalizeOptions {
        lowercase: r_bool(r)?,
        collapse_whitespace: r_bool(r)?,
        strip_non_alphanumeric: r_bool(r)?,
        keep_social_sigils: r_bool(r)?,
    };
    let weights = TokenWeights {
        word: r_f64(r)?,
        hashtag: r_f64(r)?,
        mention: r_f64(r)?,
        url: r_f64(r)?,
    };
    let ngram = r_u32(r)? as usize;
    let expected_rate = r_f64(r)?;
    Ok(EngineConfig {
        thresholds,
        simhash: SimHashOptions {
            normalize,
            weights,
            ngram,
        },
        expected_rate,
        memory,
    })
}

pub(crate) fn write_metrics<W: Write + ?Sized>(w: &mut W, m: &EngineMetrics) -> io::Result<()> {
    for x in [
        m.posts_processed,
        m.posts_emitted,
        m.comparisons,
        m.insertions,
        m.evictions,
        m.copies_stored,
        m.peak_copies,
        m.peak_memory_bytes,
    ] {
        w_u64(w, x)?;
    }
    Ok(())
}

pub(crate) fn read_metrics<R: Read + ?Sized>(r: &mut R) -> io::Result<EngineMetrics> {
    Ok(EngineMetrics {
        posts_processed: r_u64(r)?,
        posts_emitted: r_u64(r)?,
        comparisons: r_u64(r)?,
        insertions: r_u64(r)?,
        evictions: r_u64(r)?,
        copies_stored: r_u64(r)?,
        peak_copies: r_u64(r)?,
        peak_memory_bytes: r_u64(r)?,
    })
}

fn write_bin<W: Write + ?Sized>(w: &mut W, bin: &CoverageBackend) -> io::Result<()> {
    w_u32(w, bin.len() as u32)?;
    let mut err = None;
    bin.for_each_record(|record| {
        if err.is_some() {
            return;
        }
        err = [
            w_u64(w, record.id),
            w_u32(w, record.author),
            w_u64(w, record.timestamp),
            w_u64(w, record.fingerprint),
        ]
        .into_iter()
        .find_map(Result::err);
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn read_bin<R: Read + ?Sized>(
    r: &mut R,
    config: &EngineConfig,
) -> Result<CoverageBackend, SnapshotError> {
    let len = r_u32(r)?;
    // Reserve at most MAX_PREALLOC records up front: `len` is untrusted
    // (a flipped bit in a length field must not become a multi-GB
    // allocation); a lying length fails the per-record reads instead.
    let mut bin = CoverageBackend::for_config(config, (len as usize).min(MAX_PREALLOC));
    let mut prev = 0u64;
    for _ in 0..len {
        let record = PostRecord {
            id: r_u64(r)?,
            author: r_u32(r)?,
            timestamp: r_u64(r)?,
            fingerprint: r_u64(r)?,
        };
        if record.timestamp < prev {
            return Err(SnapshotError::StructureMismatch(
                "bin records out of time order",
            ));
        }
        prev = record.timestamp;
        // Re-inserting the saved suffix cannot displace: the saved contents
        // already satisfied the retention caps they are restored under.
        bin.push(record);
    }
    Ok(bin)
}

/// Serialize a family of bins that share record copies (NeighborBin stores
/// each record once per similar-author bin, CliqueBin once per covering
/// clique — on average `degree`-many copies). The wire format stores each
/// unique record once (first-seen order, keyed by post id) followed by one
/// `u32` index list per bin, shrinking the state by roughly the average
/// degree — which is what makes the default checkpoint cadence cheap.
fn write_bins_dedup<W: Write + ?Sized>(w: &mut W, bins: &[&CoverageBackend]) -> io::Result<()> {
    let mut index_of: HashMap<u64, u32> = HashMap::new();
    let mut uniques: Vec<PostRecord> = Vec::new();
    for bin in bins {
        bin.for_each_record(|record| {
            index_of.entry(record.id).or_insert_with(|| {
                uniques.push(record);
                (uniques.len() - 1) as u32
            });
        });
    }
    w_u32(w, uniques.len() as u32)?;
    for record in &uniques {
        w_u64(w, record.id)?;
        w_u32(w, record.author)?;
        w_u64(w, record.timestamp)?;
        w_u64(w, record.fingerprint)?;
    }
    for bin in bins {
        w_u32(w, bin.len() as u32)?;
        let mut err = None;
        bin.for_each_record(|record| {
            if err.is_none() {
                err = w_u32(w, index_of[&record.id]).err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

/// Inverse of [`write_bins_dedup`]: rebuild `bin_count` bins. Every length,
/// index and record field is untrusted — out-of-range indices, authors
/// beyond `author_count` and out-of-time-order bins are rejected.
fn read_bins_dedup<R: Read + ?Sized>(
    r: &mut R,
    config: &EngineConfig,
    bin_count: usize,
    author_count: usize,
) -> Result<Vec<CoverageBackend>, SnapshotError> {
    let unique_count = r_u32(r)? as usize;
    let mut uniques = Vec::with_capacity(unique_count.min(MAX_PREALLOC));
    for _ in 0..unique_count {
        let record = PostRecord {
            id: r_u64(r)?,
            author: r_u32(r)?,
            timestamp: r_u64(r)?,
            fingerprint: r_u64(r)?,
        };
        if record.author as usize >= author_count {
            return Err(SnapshotError::StructureMismatch(
                "record author outside graph",
            ));
        }
        uniques.push(record);
    }
    let mut bins = Vec::with_capacity(bin_count.min(MAX_PREALLOC));
    for _ in 0..bin_count {
        let len = r_u32(r)? as usize;
        let mut bin = CoverageBackend::for_config(config, len.min(MAX_PREALLOC));
        let mut prev = 0u64;
        for _ in 0..len {
            let idx = r_u32(r)? as usize;
            let record = *uniques.get(idx).ok_or(SnapshotError::StructureMismatch(
                "bin references a record outside the unique table",
            ))?;
            if record.timestamp < prev {
                return Err(SnapshotError::StructureMismatch(
                    "bin records out of time order",
                ));
            }
            prev = record.timestamp;
            bin.push(record);
        }
        bins.push(bin);
    }
    Ok(bins)
}

fn read_header<R: Read + ?Sized>(
    r: &mut R,
    expected_tag: u8,
) -> Result<EngineConfig, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC && &magic != MAGIC_V3 {
        return Err(SnapshotError::BadMagic);
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    if tag[0] != expected_tag {
        return Err(SnapshotError::WrongEngine {
            found: tag[0],
            expected: expected_tag,
        });
    }
    read_config(r)
}

// ---------------------------------------------------------------------
// Engine *state* (metrics + bins, no header/config): the payload shared by
// whole-file snapshots below and the sectioned checkpoints in
// `crate::checkpoint`, via `Diversifier::{save_state, load_state}`.
// ---------------------------------------------------------------------

pub(crate) fn write_state_unibin<W: Write + ?Sized>(
    w: &mut W,
    bin: &CoverageBackend,
    metrics: &EngineMetrics,
) -> io::Result<()> {
    write_metrics(w, metrics)?;
    write_bin(w, bin)
}

pub(crate) fn read_state_unibin<R: Read + ?Sized>(
    r: &mut R,
    config: &EngineConfig,
    graph: &UndirectedGraph,
) -> Result<(CoverageBackend, EngineMetrics), SnapshotError> {
    let metrics = read_metrics(r)?;
    let bin = read_bin(r, config)?;
    let mut bad_author = false;
    bin.for_each_record(|record| {
        bad_author |= record.author as usize >= graph.node_count();
    });
    if bad_author {
        return Err(SnapshotError::StructureMismatch(
            "record author outside graph",
        ));
    }
    Ok((bin, metrics))
}

pub(crate) fn write_state_neighborbin<W: Write + ?Sized>(
    w: &mut W,
    bins: &[CoverageBackend],
    metrics: &EngineMetrics,
) -> io::Result<()> {
    write_metrics(w, metrics)?;
    w_u32(w, bins.len() as u32)?;
    let refs: Vec<&CoverageBackend> = bins.iter().collect();
    write_bins_dedup(w, &refs)
}

pub(crate) fn read_state_neighborbin<R: Read + ?Sized>(
    r: &mut R,
    config: &EngineConfig,
    graph: &UndirectedGraph,
) -> Result<(Vec<CoverageBackend>, EngineMetrics), SnapshotError> {
    let metrics = read_metrics(r)?;
    let count = r_u32(r)? as usize;
    if count != graph.node_count() {
        return Err(SnapshotError::StructureMismatch(
            "bin count != author count",
        ));
    }
    let bins = read_bins_dedup(r, config, count, graph.node_count())?;
    Ok((bins, metrics))
}

#[allow(clippy::type_complexity)]
pub(crate) fn write_state_cliquebin<W: Write + ?Sized>(
    w: &mut W,
    clique_bins: &[CoverageBackend],
    self_bins: &HashMap<AuthorId, CoverageBackend>,
    metrics: &EngineMetrics,
) -> io::Result<()> {
    write_metrics(w, metrics)?;
    w_u32(w, clique_bins.len() as u32)?;
    w_u32(w, self_bins.len() as u32)?;
    let mut authors: Vec<AuthorId> = self_bins.keys().copied().collect();
    authors.sort_unstable();
    for &author in &authors {
        w_u32(w, author)?;
    }
    // One unique table shared by clique bins and self bins: a record lives
    // in every covering clique *and* its author's self bin.
    let mut refs: Vec<&CoverageBackend> = clique_bins.iter().collect();
    refs.extend(authors.iter().map(|a| &self_bins[a]));
    write_bins_dedup(w, &refs)
}

#[allow(clippy::type_complexity)]
pub(crate) fn read_state_cliquebin<R: Read + ?Sized>(
    r: &mut R,
    config: &EngineConfig,
    author_count: usize,
    cover: &CliqueCover,
) -> Result<
    (
        Vec<CoverageBackend>,
        HashMap<AuthorId, CoverageBackend>,
        EngineMetrics,
    ),
    SnapshotError,
> {
    let metrics = read_metrics(r)?;
    let clique_count = r_u32(r)? as usize;
    if clique_count != cover.count() {
        return Err(SnapshotError::StructureMismatch(
            "clique bin count != cover cliques",
        ));
    }
    let self_count = r_u32(r)? as usize;
    let mut authors = Vec::with_capacity(self_count.min(MAX_PREALLOC));
    let mut prev: Option<AuthorId> = None;
    for _ in 0..self_count {
        let author = r_u32(r)?;
        if author as usize >= author_count {
            return Err(SnapshotError::StructureMismatch(
                "self-bin author outside graph",
            ));
        }
        if prev.is_some_and(|p| p >= author) {
            return Err(SnapshotError::StructureMismatch(
                "self-bin authors not strictly ascending",
            ));
        }
        prev = Some(author);
        authors.push(author);
    }
    let mut bins = read_bins_dedup(r, config, clique_count + self_count, author_count)?;
    let self_bins: HashMap<AuthorId, CoverageBackend> = authors
        .into_iter()
        .zip(bins.drain(clique_count..))
        .collect();
    Ok((bins, self_bins, metrics))
}

// ---------------------------------------------------------------------
// Whole-file snapshots: magic + tag + config header, then the state.
// ---------------------------------------------------------------------

/// Snapshot a [`UniBin`].
pub fn snapshot_unibin<W: Write>(engine: &UniBin, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[TAG_UNIBIN])?;
    write_config(w, engine.config())?;
    let (bin, metrics) = engine.parts();
    write_state_unibin(w, bin, metrics)
}

/// Restore a [`UniBin`] over the (externally persisted) similarity graph.
pub fn restore_unibin<R: Read>(
    r: &mut R,
    graph: Arc<UndirectedGraph>,
) -> Result<UniBin, SnapshotError> {
    let config = read_header(r, TAG_UNIBIN)?;
    let (bin, metrics) = read_state_unibin(r, &config, &graph)?;
    Ok(UniBin::from_parts(config, graph, bin, metrics))
}

/// Snapshot a [`NeighborBin`].
pub fn snapshot_neighborbin<W: Write>(engine: &NeighborBin, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[TAG_NEIGHBORBIN])?;
    write_config(w, engine.config())?;
    let (bins, metrics) = engine.parts();
    write_state_neighborbin(w, bins, metrics)
}

/// Restore a [`NeighborBin`]; `graph` must have the same author count the
/// snapshot was taken with.
pub fn restore_neighborbin<R: Read>(
    r: &mut R,
    graph: Arc<UndirectedGraph>,
) -> Result<NeighborBin, SnapshotError> {
    let config = read_header(r, TAG_NEIGHBORBIN)?;
    let (bins, metrics) = read_state_neighborbin(r, &config, &graph)?;
    Ok(NeighborBin::from_parts(config, graph, bins, metrics))
}

/// Snapshot a [`CliqueBin`].
pub fn snapshot_cliquebin<W: Write>(engine: &CliqueBin, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[TAG_CLIQUEBIN])?;
    write_config(w, engine.config())?;
    let (clique_bins, self_bins, metrics) = engine.parts();
    write_state_cliquebin(w, clique_bins, self_bins, metrics)
}

/// Restore a [`CliqueBin`]; `graph` and `cover` must structurally match the
/// snapshot (same author count and clique count).
pub fn restore_cliquebin<R: Read>(
    r: &mut R,
    graph: Arc<UndirectedGraph>,
    cover: Arc<CliqueCover>,
) -> Result<CliqueBin, SnapshotError> {
    let config = read_header(r, TAG_CLIQUEBIN)?;
    let (clique_bins, self_bins, metrics) =
        read_state_cliquebin(r, &config, graph.node_count(), &cover)?;
    Ok(CliqueBin::from_parts(
        config,
        graph,
        cover,
        clique_bins,
        self_bins,
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Diversifier;
    use firehose_graph::greedy_clique_cover;
    use firehose_stream::{minutes, Post};

    fn graph() -> Arc<UndirectedGraph> {
        Arc::new(UndirectedGraph::from_edges(
            4,
            [(0, 1), (0, 2), (1, 2), (2, 3)],
        ))
    }

    fn posts(range: std::ops::Range<u64>) -> Vec<Post> {
        range
            .map(|i| {
                Post::new(
                    i,
                    (i % 4) as u32,
                    i * 30_000,
                    format!("post body variant number {}", i % 6),
                )
            })
            .collect()
    }

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    /// Snapshot after the first half of the stream; the restored engine and
    /// the original must make identical decisions (and counters) on the rest.
    #[test]
    fn unibin_roundtrip_preserves_future_decisions() {
        let mut original = UniBin::new(config(), graph());
        for p in posts(0..40) {
            original.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_unibin(&original, &mut buf).unwrap();
        let mut restored = restore_unibin(&mut buf.as_slice(), graph()).unwrap();
        assert_eq!(restored.metrics(), original.metrics());

        for p in posts(40..80) {
            assert_eq!(restored.offer(&p), original.offer(&p), "post {}", p.id);
        }
        assert_eq!(restored.metrics(), original.metrics());
    }

    #[test]
    fn neighborbin_roundtrip() {
        let mut original = NeighborBin::new(config(), graph());
        for p in posts(0..40) {
            original.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_neighborbin(&original, &mut buf).unwrap();
        let mut restored = restore_neighborbin(&mut buf.as_slice(), graph()).unwrap();
        for p in posts(40..80) {
            assert_eq!(restored.offer(&p), original.offer(&p), "post {}", p.id);
        }
    }

    #[test]
    fn cliquebin_roundtrip_including_self_bins() {
        // Author 4 is isolated: exercises the self-bin path.
        let g = Arc::new(UndirectedGraph::from_edges(
            5,
            [(0, 1), (0, 2), (1, 2), (2, 3)],
        ));
        let cover = Arc::new(greedy_clique_cover(&g));
        let mut original = CliqueBin::with_cover(config(), Arc::clone(&g), Arc::clone(&cover));
        for i in 0..40u64 {
            let p = Post::new(i, (i % 5) as u32, i * 30_000, format!("text {}", i % 6));
            original.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_cliquebin(&original, &mut buf).unwrap();
        let mut restored = restore_cliquebin(&mut buf.as_slice(), Arc::clone(&g), cover).unwrap();
        for i in 40..80u64 {
            let p = Post::new(i, (i % 5) as u32, i * 30_000, format!("text {}", i % 6));
            assert_eq!(restored.offer(&p), original.offer(&p), "post {i}");
        }
    }

    #[test]
    fn config_survives_roundtrip() {
        let custom = EngineConfig {
            thresholds: Thresholds::new(9, minutes(7), 0.55).unwrap(),
            simhash: SimHashOptions {
                normalize: NormalizeOptions::raw(),
                weights: TokenWeights {
                    hashtag: 2.5,
                    ..TokenWeights::uniform()
                },
                ngram: 2,
            },
            expected_rate: 12.5,
            memory: MemoryMode::Exact,
        };
        let engine = UniBin::new(custom, graph());
        let mut buf = Vec::new();
        snapshot_unibin(&engine, &mut buf).unwrap();
        let restored = restore_unibin(&mut buf.as_slice(), graph()).unwrap();
        assert_eq!(restored.config(), &custom);
    }

    #[test]
    fn approx_config_survives_roundtrip_via_sentinel() {
        let mut custom = config();
        custom.memory = MemoryMode::Approx(crate::config::ApproxConfig::new(6, 32, 12).unwrap());
        let engine = UniBin::new(custom, graph());
        let mut buf = Vec::new();
        snapshot_unibin(&engine, &mut buf).unwrap();
        let restored = restore_unibin(&mut buf.as_slice(), graph()).unwrap();
        assert_eq!(restored.config(), &custom);
    }

    #[test]
    fn exact_snapshot_layout_has_no_sentinel() {
        // Exact-mode snapshots must stay byte-identical to the pre-approx
        // format: the first config word is the real λc, not the marker.
        let engine = UniBin::new(config(), graph());
        let mut buf = Vec::new();
        snapshot_unibin(&engine, &mut buf).unwrap();
        // magic (8) + tag (1), then λc as LE u32.
        assert_eq!(u32::from_le_bytes(buf[9..13].try_into().unwrap()), 18);
    }

    #[test]
    fn approx_engines_roundtrip_preserves_future_decisions() {
        let mut cfg = config();
        cfg.memory = MemoryMode::Approx(crate::config::ApproxConfig::default());
        let mut original = UniBin::new(cfg, graph());
        for p in posts(0..40) {
            original.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_unibin(&original, &mut buf).unwrap();
        let mut restored = restore_unibin(&mut buf.as_slice(), graph()).unwrap();
        assert_eq!(restored.metrics(), original.metrics());
        for p in posts(40..80) {
            assert_eq!(restored.offer(&p), original.offer(&p), "post {}", p.id);
        }
        assert_eq!(restored.metrics(), original.metrics());

        let mut original = NeighborBin::new(cfg, graph());
        for p in posts(0..40) {
            original.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_neighborbin(&original, &mut buf).unwrap();
        let mut restored = restore_neighborbin(&mut buf.as_slice(), graph()).unwrap();
        for p in posts(40..80) {
            assert_eq!(restored.offer(&p), original.offer(&p), "post {}", p.id);
        }
    }

    #[test]
    fn wrong_engine_tag_rejected() {
        let engine = UniBin::new(config(), graph());
        let mut buf = Vec::new();
        snapshot_unibin(&engine, &mut buf).unwrap();
        assert!(matches!(
            restore_neighborbin(&mut buf.as_slice(), graph()),
            Err(SnapshotError::WrongEngine {
                found: TAG_UNIBIN,
                expected: TAG_NEIGHBORBIN
            })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOT_SNAP_AT_ALL".to_vec();
        assert!(matches!(
            restore_unibin(&mut buf.as_slice(), graph()),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn structure_mismatch_rejected() {
        let mut engine = NeighborBin::new(config(), graph());
        engine.offer(&Post::new(1, 0, 0, "anything at all".into()));
        let mut buf = Vec::new();
        snapshot_neighborbin(&engine, &mut buf).unwrap();
        // A graph with a different author count must be rejected.
        let other = Arc::new(UndirectedGraph::new(9));
        assert!(matches!(
            restore_neighborbin(&mut buf.as_slice(), other),
            Err(SnapshotError::StructureMismatch(_))
        ));
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut engine = UniBin::new(config(), graph());
        for p in posts(0..10) {
            engine.offer(&p);
        }
        let mut buf = Vec::new();
        snapshot_unibin(&engine, &mut buf).unwrap();
        let cut = buf.len() - 5;
        assert!(restore_unibin(&mut &buf[..cut], graph()).is_err());
    }
}
