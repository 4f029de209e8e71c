//! Crash-safe checkpoints: CRC-protected sections, atomic generation
//! directories, restore-latest-valid recovery.
//!
//! The whole-file snapshots in [`crate::snapshot`] assume the bytes on disk
//! are exactly the bytes that were written. A process killed mid-write (or a
//! disk flipping bits) violates that: a torn whole-file snapshot may parse as a
//! *valid but wrong* engine state and silently change future decisions. This
//! module closes that hole:
//!
//! * **Sectioned container** (`FHCKPT01`): a manifest, the engine
//!   configuration and the engine state are stored as separate sections,
//!   each guarded by its own CRC32. Corruption is detected and reported as
//!   [`SnapshotError::Corrupt`] with the section name and byte offset —
//!   never a panic, never a wrong-but-valid restore.
//! * **Atomic generations**: each checkpoint is written to a temp directory
//!   (`.tmp-gen-XXXXXXXX`), fsynced, then atomically renamed to
//!   `gen-XXXXXXXX/`. A crash mid-checkpoint leaves only an ignored temp
//!   directory; visible generations are always complete files.
//! * **Restore-latest-valid**: [`restore_latest_valid`] walks generations
//!   newest-first, skips any that fail validation (recording *why*), and
//!   restores the newest intact one.
//!
//! Cadence is policy-driven ([`CheckpointPolicy`]): every N offers and/or
//! every T milliseconds of wall-clock (only if the engine advanced). Both
//! the single engine and the multi-user engine count one offer per post, so
//! N is a number of posts.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use firehose_graph::{CliqueCover, UndirectedGraph};

use crate::engine::{build_cliquebin_with_cover, build_engine, AlgorithmKind, Diversifier};
use crate::multi::SharedMulti;
use crate::snapshot::{self, SnapshotError};

const MAGIC: &[u8; 8] = b"FHCKPT01";
const MANIFEST_VERSION: u32 = 1;
const SEC_MANIFEST: u8 = 1;
const SEC_CONFIG: u8 = 2;
const SEC_STATE: u8 = 3;
/// Per-section header: id (1) + payload length (8) + CRC32 (4).
const SECTION_HEADER: usize = 13;
/// Sanity cap on the manifest's strategy-name length.
const MAX_NAME_LEN: usize = 4096;

/// Checkpoint tag for the multi-user strategies (single-user engines use
/// their snapshot tags, see [`Diversifier::snapshot_tag`]).
pub(crate) const TAG_MULTI: u8 = 9;

/// File name of the checkpoint inside each generation directory.
pub(crate) const CHECKPOINT_FILE: &str = "engine.fhckpt";

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320) — in-tree, zero-dep.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the checksum `cksum`/zlib compute).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Container format.
// ---------------------------------------------------------------------

/// The identity section of a checkpoint: what was checkpointed, and when in
/// stream terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Engine tag (`Diversifier::snapshot_tag`, or the multi-user tag 9).
    pub tag: u8,
    /// Monotonic checkpoint generation number.
    pub generation: u64,
    /// The engine's `posts_processed` counter at checkpoint time. Doubles as
    /// the resume cursor: a deterministic re-run of the input can skip this
    /// many admitted posts.
    pub posts_processed: u64,
    /// Strategy name (`"UniBin"`, `"S_CliqueBin"`, ...), cross-checked on
    /// restore for multi-user strategies.
    pub name: String,
}

fn write_manifest(out: &mut Vec<u8>, m: &Manifest) {
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.push(m.tag);
    out.extend_from_slice(&m.generation.to_le_bytes());
    out.extend_from_slice(&m.posts_processed.to_le_bytes());
    out.extend_from_slice(&(m.name.len() as u32).to_le_bytes());
    out.extend_from_slice(m.name.as_bytes());
}

fn parse_manifest(section: &RawSection<'_>) -> Result<Manifest, SnapshotError> {
    let offset = section.offset;
    let corrupt = || SnapshotError::Corrupt {
        section: "manifest",
        offset,
    };
    let p = section.payload;
    const FIXED: usize = 4 + 1 + 8 + 8 + 4;
    if p.len() < FIXED {
        return Err(corrupt());
    }
    let version = u32::from_le_bytes(p[0..4].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return Err(corrupt());
    }
    let tag = p[4];
    let generation = u64::from_le_bytes(p[5..13].try_into().unwrap());
    let posts_processed = u64::from_le_bytes(p[13..21].try_into().unwrap());
    let name_len = u32::from_le_bytes(p[21..25].try_into().unwrap()) as usize;
    if name_len > MAX_NAME_LEN || p.len() != FIXED + name_len {
        return Err(corrupt());
    }
    let name = std::str::from_utf8(&p[FIXED..])
        .map_err(|_| corrupt())?
        .to_string();
    Ok(Manifest {
        tag,
        generation,
        posts_processed,
        name,
    })
}

fn section_name(id: u8) -> &'static str {
    match id {
        SEC_MANIFEST => "manifest",
        SEC_CONFIG => "config",
        SEC_STATE => "state",
        _ => "unknown",
    }
}

fn write_section(out: &mut Vec<u8>, id: u8, payload: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

struct RawSection<'a> {
    id: u8,
    /// Byte offset of the section header within the container.
    offset: u64,
    payload: &'a [u8],
}

/// Split a checkpoint buffer into CRC-verified sections. Every length is
/// untrusted: the section count and payload lengths are bounds-checked
/// against the buffer (no length-driven allocation), payload CRCs must
/// match, and the buffer must be exactly consumed.
fn parse_sections(buf: &[u8]) -> Result<Vec<RawSection<'_>>, SnapshotError> {
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if buf.len() < MAGIC.len() + 4 {
        return Err(SnapshotError::Corrupt {
            section: "container",
            offset: buf.len() as u64,
        });
    }
    let count = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let mut pos = 12usize;
    // `count` is untrusted: grow the list as sections actually parse rather
    // than pre-allocating `count` entries.
    let mut sections = Vec::new();
    for _ in 0..count {
        let header_end = pos
            .checked_add(SECTION_HEADER)
            .filter(|&e| e <= buf.len())
            .ok_or(SnapshotError::Corrupt {
                section: "container",
                offset: pos as u64,
            })?;
        let id = buf[pos];
        let len = u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(buf[pos + 9..pos + 13].try_into().unwrap());
        let payload_end = usize::try_from(len)
            .ok()
            .and_then(|len| header_end.checked_add(len))
            .filter(|&e| e <= buf.len())
            .ok_or(SnapshotError::Corrupt {
                section: section_name(id),
                offset: pos as u64,
            })?;
        let payload = &buf[header_end..payload_end];
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::Corrupt {
                section: section_name(id),
                offset: pos as u64,
            });
        }
        sections.push(RawSection {
            id,
            offset: pos as u64,
            payload,
        });
        pos = payload_end;
    }
    if pos != buf.len() {
        return Err(SnapshotError::Corrupt {
            section: "container",
            offset: pos as u64,
        });
    }
    Ok(sections)
}

fn find_section<'a, 'b>(
    sections: &'b [RawSection<'a>],
    id: u8,
) -> Result<&'b RawSection<'a>, SnapshotError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .ok_or(SnapshotError::StructureMismatch(match id {
            SEC_MANIFEST => "checkpoint missing manifest section",
            SEC_CONFIG => "checkpoint missing config section",
            _ => "checkpoint missing state section",
        }))
}

// ---------------------------------------------------------------------
// Encode / decode.
// ---------------------------------------------------------------------

/// Serialize a single-user engine into a sectioned, CRC-protected
/// checkpoint buffer tagged with `generation`.
pub fn checkpoint_engine_to_vec<D: Diversifier + ?Sized>(
    engine: &D,
    generation: u64,
) -> io::Result<Vec<u8>> {
    let manifest = Manifest {
        tag: engine.snapshot_tag(),
        generation,
        posts_processed: engine.metrics().posts_processed,
        name: engine.name().to_string(),
    };
    let mut mbuf = Vec::new();
    write_manifest(&mut mbuf, &manifest);
    let mut cbuf = Vec::new();
    snapshot::write_config(&mut cbuf, engine.config())?;
    let mut sbuf = Vec::new();
    engine.save_state(&mut sbuf)?;
    Ok(assemble(&[
        (SEC_MANIFEST, &mbuf),
        (SEC_CONFIG, &cbuf),
        (SEC_STATE, &sbuf),
    ]))
}

/// Serialize the multi-user engine into a checkpoint buffer. The manifest
/// records the strategy name; restore cross-checks it so an `S_UniBin`
/// checkpoint cannot be loaded into an `S_CliqueBin`.
pub fn checkpoint_multi_to_vec(multi: &SharedMulti, generation: u64) -> io::Result<Vec<u8>> {
    let manifest = Manifest {
        tag: TAG_MULTI,
        generation,
        posts_processed: multi.metrics().posts_processed,
        name: multi.name(),
    };
    let mut mbuf = Vec::new();
    write_manifest(&mut mbuf, &manifest);
    let mut sbuf = Vec::new();
    multi.save_state(&mut sbuf)?;
    Ok(assemble(&[(SEC_MANIFEST, &mbuf), (SEC_STATE, &sbuf)]))
}

fn assemble(sections: &[(u8, &Vec<u8>)]) -> Vec<u8> {
    let payload: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(12 + sections.len() * SECTION_HEADER + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for &(id, payload) in sections {
        write_section(&mut out, id, payload);
    }
    out
}

/// Rebuild a single-user engine from a checkpoint buffer.
///
/// The caller supplies the externally-persisted structure the checkpoint
/// does not embed: the similarity graph, and (for
/// [`AlgorithmKind::CliqueBin`]) optionally a precomputed clique cover —
/// when `None`, the greedy cover is recomputed from `graph`, which yields
/// the identical cover for the identical graph.
///
/// Every byte is validated: CRCs per section, config validation, state
/// structure checks against the supplied graph, exact-consumption checks,
/// and a manifest/state `posts_processed` cross-check. Corruption surfaces
/// as a typed [`SnapshotError`] — never a panic.
pub fn restore_engine_from_slice(
    buf: &[u8],
    kind: AlgorithmKind,
    graph: Arc<UndirectedGraph>,
    cover: Option<Arc<CliqueCover>>,
) -> Result<(Box<dyn Diversifier + Send>, Manifest), SnapshotError> {
    let sections = parse_sections(buf)?;
    let manifest = parse_manifest(find_section(&sections, SEC_MANIFEST)?)?;
    let expected = snapshot::tag_for(kind);
    if manifest.tag != expected {
        return Err(SnapshotError::WrongEngine {
            found: manifest.tag,
            expected,
        });
    }
    let config_sec = find_section(&sections, SEC_CONFIG)?;
    let mut cr: &[u8] = config_sec.payload;
    let config = snapshot::read_config(&mut cr)?;
    if !cr.is_empty() {
        return Err(SnapshotError::Corrupt {
            section: "config",
            offset: config_sec.offset,
        });
    }
    let mut engine = match (kind, cover) {
        (AlgorithmKind::CliqueBin, Some(cover)) => build_cliquebin_with_cover(config, graph, cover),
        _ => build_engine(kind, config, graph),
    };
    let state_sec = find_section(&sections, SEC_STATE)?;
    let mut sr: &[u8] = state_sec.payload;
    engine.load_state(&mut sr)?;
    if !sr.is_empty() {
        return Err(SnapshotError::Corrupt {
            section: "state",
            offset: state_sec.offset,
        });
    }
    if engine.metrics().posts_processed != manifest.posts_processed {
        return Err(SnapshotError::Corrupt {
            section: "manifest",
            offset: 12,
        });
    }
    Ok((engine, manifest))
}

/// The restore-compatibility family of a multi-strategy name. `P_X(n)` and
/// `Sh_X(n)` are the names two removed runners of the shared strategy wrote
/// into their manifests (batch-parallel and shard workers); their
/// checkpoints carry the same FHSNAP04 state as `S_X` and still restore into
/// it. `M_X` checkpoints, written when the service could run one engine per
/// user, hold per-user state and stay their own family, so restoring one is
/// refused with [`SnapshotError::WrongStrategy`].
fn strategy_family(name: &str) -> String {
    for prefix in ["P_", "Sh_"] {
        if let Some(rest) = name.strip_prefix(prefix) {
            let base = rest.split('(').next().unwrap_or(rest);
            return format!("S_{base}");
        }
    }
    name.to_string()
}

/// Load a multi-user checkpoint into an already-constructed engine of the
/// same shape (same kind, graph and subscriptions; see `strategy_family` for
/// the older names that restore into `S_X`). Cross-checks the manifest's
/// strategy family and `posts_processed` against the target.
///
/// On error the engine's state is unspecified and it must be rebuilt or
/// re-restored before use.
pub fn restore_multi_from_slice(
    buf: &[u8],
    multi: &mut SharedMulti,
) -> Result<Manifest, SnapshotError> {
    let sections = parse_sections(buf)?;
    let manifest = parse_manifest(find_section(&sections, SEC_MANIFEST)?)?;
    if manifest.tag != TAG_MULTI {
        return Err(SnapshotError::WrongEngine {
            found: manifest.tag,
            expected: TAG_MULTI,
        });
    }
    let found = strategy_family(&manifest.name);
    let expected = multi.name();
    if found != expected {
        return Err(SnapshotError::WrongStrategy { found, expected });
    }
    let state_sec = find_section(&sections, SEC_STATE)?;
    let mut sr: &[u8] = state_sec.payload;
    multi.load_state(&mut sr)?;
    if !sr.is_empty() {
        return Err(SnapshotError::Corrupt {
            section: "state",
            offset: state_sec.offset,
        });
    }
    if multi.metrics().posts_processed != manifest.posts_processed {
        return Err(SnapshotError::Corrupt {
            section: "manifest",
            offset: 12,
        });
    }
    Ok(manifest)
}

// ---------------------------------------------------------------------
// On-disk generations.
// ---------------------------------------------------------------------

/// When to take checkpoints, and how many to retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many new offers (posts) since the last
    /// checkpoint.
    pub every_offers: u64,
    /// Also checkpoint after this much wall-clock time — but only if the
    /// engine actually advanced (an idle engine is never re-checkpointed).
    /// `None` disables the timer.
    pub every_millis: Option<u64>,
    /// Retain at most this many generations (oldest pruned first). Clamped
    /// to at least 1.
    pub keep: usize,
}

impl Default for CheckpointPolicy {
    /// Every 100k posts or 5 s, keeping 3 generations. The post cadence is
    /// sized so that even the largest engine state (NeighborBin duplicates
    /// records per author bin) costs < 5% throughput at firehose rates; the
    /// wall-clock timer bounds staleness on slow streams.
    fn default() -> Self {
        Self {
            every_offers: 100_000,
            every_millis: Some(5_000),
            keep: 3,
        }
    }
}

/// List the complete checkpoint generations under `dir`, ascending by
/// generation number. Temp directories from interrupted writes
/// (`.tmp-gen-*`) and anything else are ignored.
pub(crate) fn list_generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name.strip_prefix("gen-") else {
            continue;
        };
        let Ok(g) = num.parse::<u64>() else { continue };
        if entry.file_type()?.is_dir() {
            gens.push((g, entry.path()));
        }
    }
    gens.sort_unstable_by_key(|&(g, _)| g);
    Ok(gens)
}

/// Writes generation-numbered checkpoints atomically and prunes old ones.
pub struct CheckpointManager {
    dir: PathBuf,
    policy: CheckpointPolicy,
    next_generation: u64,
    /// `posts_processed` at the last checkpoint (cadence baseline).
    last_offers: u64,
    last_save: Instant,
}

impl CheckpointManager {
    /// Open (creating if needed) a checkpoint directory. Existing
    /// generations are respected: new checkpoints continue the numbering.
    pub fn new(dir: impl Into<PathBuf>, policy: CheckpointPolicy) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_generation = list_generations(&dir)?
            .last()
            .map(|&(g, _)| g + 1)
            .unwrap_or(0);
        Ok(Self {
            dir,
            policy,
            next_generation,
            last_offers: 0,
            last_save: Instant::now(),
        })
    }

    /// The checkpoint directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generation number the next checkpoint will get.
    #[cfg(test)]
    pub(crate) fn next_generation(&self) -> u64 {
        self.next_generation
    }

    /// After restoring from a checkpoint, align the cadence baseline so the
    /// next `maybe_save` measures offers since *that* checkpoint, and ensure
    /// generation numbers keep increasing past the restored one.
    pub fn note_restored(&mut self, manifest: &Manifest) {
        self.last_offers = manifest.posts_processed;
        self.next_generation = self.next_generation.max(manifest.generation + 1);
        self.last_save = Instant::now();
    }

    /// Atomically persist pre-built checkpoint bytes as the next generation:
    /// write to a temp directory, fsync the file, rename the directory into
    /// place, fsync the parent. Returns the generation written.
    pub(crate) fn save_bytes(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let generation = self.next_generation;
        let final_dir = self.dir.join(format!("gen-{generation:08}"));
        let tmp_dir = self.dir.join(format!(".tmp-gen-{generation:08}"));
        if tmp_dir.exists() {
            fs::remove_dir_all(&tmp_dir)?;
        }
        fs::create_dir_all(&tmp_dir)?;
        let path = tmp_dir.join(CHECKPOINT_FILE);
        let mut file = File::create(&path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp_dir, &final_dir)?;
        // Make the rename itself durable. Directory fsync is not supported
        // everywhere (it fails on some filesystems/platforms); the rename is
        // still atomic without it, so best-effort.
        if let Ok(parent) = File::open(&self.dir) {
            let _ = parent.sync_all();
        }
        self.next_generation = generation + 1;
        self.last_save = Instant::now();
        self.prune()?;
        Ok(generation)
    }

    fn prune(&self) -> io::Result<()> {
        let gens = list_generations(&self.dir)?;
        let keep = self.policy.keep.max(1);
        if gens.len() > keep {
            for (_, path) in &gens[..gens.len() - keep] {
                // Best-effort: a prune failure must not fail the checkpoint.
                let _ = fs::remove_dir_all(path);
            }
        }
        Ok(())
    }

    /// Unconditionally checkpoint a single-user engine now.
    pub fn save<D: Diversifier + ?Sized>(&mut self, engine: &D) -> io::Result<u64> {
        let bytes = checkpoint_engine_to_vec(engine, self.next_generation)?;
        let generation = self.save_bytes(&bytes)?;
        self.last_offers = engine.metrics().posts_processed;
        Ok(generation)
    }

    /// Checkpoint the engine if the policy says one is due; returns the
    /// generation written, if any.
    pub fn maybe_save<D: Diversifier + ?Sized>(&mut self, engine: &D) -> io::Result<Option<u64>> {
        if self.due(engine.metrics().posts_processed) {
            self.save(engine).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Unconditionally checkpoint the multi-user engine now.
    pub fn save_multi(&mut self, multi: &SharedMulti) -> io::Result<u64> {
        let bytes = checkpoint_multi_to_vec(multi, self.next_generation)?;
        let generation = self.save_bytes(&bytes)?;
        self.last_offers = multi.metrics().posts_processed;
        Ok(generation)
    }

    /// Checkpoint the multi-user engine if the policy says one is due.
    pub(crate) fn maybe_save_multi(&mut self, multi: &SharedMulti) -> io::Result<Option<u64>> {
        if self.due(multi.metrics().posts_processed) {
            self.save_multi(multi).map(Some)
        } else {
            Ok(None)
        }
    }

    fn due(&self, posts_processed: u64) -> bool {
        let advanced = posts_processed.saturating_sub(self.last_offers);
        if advanced == 0 {
            return false;
        }
        if advanced >= self.policy.every_offers {
            return true;
        }
        // Consult the wall clock only every 64 offers: `maybe_save` sits on
        // the per-offer hot path, and an unconditional clock read there is
        // measurable overhead for a timer whose resolution is seconds.
        if advanced & 63 != 0 {
            return false;
        }
        match self.policy.every_millis {
            Some(ms) => self.last_save.elapsed().as_millis() as u64 >= ms,
            None => false,
        }
    }
}

// ---------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------

/// A checkpoint generation that failed validation during recovery, and why.
#[derive(Debug)]
pub struct SkippedGeneration {
    /// The generation number.
    pub generation: u64,
    /// Path of the rejected checkpoint file.
    pub path: PathBuf,
    /// What was wrong with it.
    pub error: SnapshotError,
}

/// Errors from [`restore_latest_valid`] / [`restore_latest_valid_multi`].
#[derive(Debug)]
pub enum RestoreError {
    /// The checkpoint directory could not be listed.
    Io(io::Error),
    /// Every present generation failed validation (or none exist). The
    /// rejects — newest first — say what was wrong with each.
    NoValidCheckpoint {
        /// Generations examined and rejected, newest first.
        skipped: Vec<SkippedGeneration>,
    },
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "cannot list checkpoint directory: {e}"),
            RestoreError::NoValidCheckpoint { skipped } => {
                write!(f, "no valid checkpoint ({} rejected", skipped.len())?;
                for s in skipped {
                    write!(f, "; gen {}: {}", s.generation, s.error)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A successful recovery: the rebuilt engine, its manifest, and any newer
/// generations that had to be skipped (corrupt/truncated) to reach it.
pub struct RestoredEngine {
    /// The engine, in the exact state of the restored checkpoint.
    pub engine: Box<dyn Diversifier + Send>,
    /// The restored checkpoint's manifest.
    pub manifest: Manifest,
    /// Newer generations rejected on the way, newest first.
    pub skipped: Vec<SkippedGeneration>,
}

/// Restore the newest intact checkpoint generation under `dir`, skipping —
/// and reporting — corrupt or truncated ones.
pub fn restore_latest_valid(
    dir: &Path,
    kind: AlgorithmKind,
    graph: Arc<UndirectedGraph>,
    cover: Option<Arc<CliqueCover>>,
) -> Result<RestoredEngine, RestoreError> {
    let mut skipped = Vec::new();
    for (generation, path) in list_generations(dir)?.into_iter().rev() {
        let file = path.join(CHECKPOINT_FILE);
        let attempt = fs::read(&file)
            .map_err(SnapshotError::Io)
            .and_then(|bytes| {
                restore_engine_from_slice(&bytes, kind, Arc::clone(&graph), cover.clone())
            });
        match attempt {
            Ok((engine, manifest)) => {
                return Ok(RestoredEngine {
                    engine,
                    manifest,
                    skipped,
                })
            }
            Err(error) => skipped.push(SkippedGeneration {
                generation,
                path: file,
                error,
            }),
        }
    }
    Err(RestoreError::NoValidCheckpoint { skipped })
}

/// Multi-user counterpart of [`restore_latest_valid`]: loads the newest
/// intact generation into `multi` (which must be freshly constructed with
/// the same kind, graph and subscriptions). Returns the restored manifest
/// and the skipped generations.
///
/// A failed attempt may leave `multi` partially written, but a subsequent
/// successful attempt overwrites every engine's state wholesale, so the
/// returned state is always exactly the restored checkpoint's.
pub fn restore_latest_valid_multi(
    dir: &Path,
    multi: &mut SharedMulti,
) -> Result<(Manifest, Vec<SkippedGeneration>), RestoreError> {
    let mut skipped = Vec::new();
    for (generation, path) in list_generations(dir)?.into_iter().rev() {
        let file = path.join(CHECKPOINT_FILE);
        let attempt = fs::read(&file)
            .map_err(SnapshotError::Io)
            .and_then(|bytes| restore_multi_from_slice(&bytes, multi));
        match attempt {
            Ok(manifest) => return Ok((manifest, skipped)),
            Err(error) => skipped.push(SkippedGeneration {
                generation,
                path: file,
                error,
            }),
        }
    }
    Err(RestoreError::NoValidCheckpoint { skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::multi::{SharedMulti, Subscriptions};
    use crate::EngineConfig;
    use firehose_stream::{minutes, Post};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fhckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn graph() -> Arc<UndirectedGraph> {
        Arc::new(UndirectedGraph::from_edges(
            4,
            [(0, 1), (0, 2), (1, 2), (2, 3)],
        ))
    }

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
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

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn engine_checkpoint_roundtrip_preserves_future_decisions() {
        for kind in AlgorithmKind::ALL {
            let mut original = build_engine(kind, config(), graph());
            for p in posts(0..40) {
                original.offer(&p);
            }
            let buf = checkpoint_engine_to_vec(&original, 7).unwrap();
            let (mut restored, manifest) =
                restore_engine_from_slice(&buf, kind, graph(), None).unwrap();
            assert_eq!(manifest.generation, 7);
            assert_eq!(manifest.name, kind.to_string());
            assert_eq!(restored.metrics(), original.metrics(), "{kind}");
            for p in posts(40..80) {
                assert_eq!(
                    restored.offer(&p),
                    original.offer(&p),
                    "{kind} post {}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn wrong_kind_rejected() {
        let engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        let buf = checkpoint_engine_to_vec(&engine, 0).unwrap();
        assert!(matches!(
            restore_engine_from_slice(&buf, AlgorithmKind::NeighborBin, graph(), None),
            Err(SnapshotError::WrongEngine { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_equivalent() {
        // Flip each byte of a checkpoint (one at a time); restore must
        // either fail with a typed error or — never — succeed with different
        // future behavior. With CRCs on every section, success is impossible
        // except for flips in dead bytes, of which this format has none.
        let mut engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        for p in posts(0..12) {
            engine.offer(&p);
        }
        let buf = checkpoint_engine_to_vec(&engine, 3).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                restore_engine_from_slice(&bad, AlgorithmKind::UniBin, graph(), None).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut engine = build_engine(AlgorithmKind::CliqueBin, config(), graph());
        for p in posts(0..12) {
            engine.offer(&p);
        }
        let buf = checkpoint_engine_to_vec(&engine, 0).unwrap();
        for cut in 0..buf.len() {
            assert!(
                restore_engine_from_slice(&buf[..cut], AlgorithmKind::CliqueBin, graph(), None)
                    .is_err(),
                "truncation at byte {cut} went undetected"
            );
        }
    }

    #[test]
    fn manager_writes_generations_and_prunes() {
        let dir = tempdir("prune");
        let policy = CheckpointPolicy {
            every_offers: 1,
            every_millis: None,
            keep: 2,
        };
        let mut mgr = CheckpointManager::new(&dir, policy).unwrap();
        let mut engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        for (i, p) in posts(0..5).iter().enumerate() {
            engine.offer(p);
            assert_eq!(mgr.maybe_save(&engine).unwrap(), Some(i as u64));
        }
        let gens = list_generations(&dir).unwrap();
        assert_eq!(
            gens.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
            vec![3, 4],
            "only the newest `keep` generations remain"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The multi-user engine counts one offer per post, whatever its
    /// fan-out: a cadence of N checkpoints after N posts.
    #[test]
    fn multi_cadence_counts_posts() {
        let dir = tempdir("multi_cadence");
        let policy = CheckpointPolicy {
            every_offers: 10,
            every_millis: None,
            keep: 1,
        };
        let mut mgr = CheckpointManager::new(&dir, policy).unwrap();
        // Every author is followed by three users in three components.
        let g = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(
            6,
            vec![vec![0, 1, 3, 5], vec![0, 3, 4], vec![0, 1, 2, 3, 4, 5]],
        )
        .unwrap();
        let mut multi = SharedMulti::new(AlgorithmKind::UniBin, config(), &g, subs);
        let stream = posts(0..25);
        for (i, p) in stream.iter().enumerate() {
            multi.offer(p);
            let due = (i + 1) % 10 == 0;
            assert_eq!(
                mgr.maybe_save_multi(&multi).unwrap().is_some(),
                due,
                "post {}",
                i + 1
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_resumes_numbering_and_idle_engines_are_not_resaved() {
        let dir = tempdir("resume");
        let policy = CheckpointPolicy {
            every_offers: 1,
            every_millis: None,
            keep: 10,
        };
        let mut engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        {
            let mut mgr = CheckpointManager::new(&dir, policy).unwrap();
            engine.offer(&posts(0..1)[0]);
            mgr.save(&engine).unwrap();
        }
        let mut mgr = CheckpointManager::new(&dir, policy).unwrap();
        assert_eq!(mgr.next_generation(), 1);
        // Same posts_processed as the manager's baseline of 0? No — a fresh
        // manager has baseline 0 and the engine has advanced, so a save is
        // due; after noting the restore point, the idle engine is not.
        mgr.note_restored(&Manifest {
            tag: snapshot::tag_for(AlgorithmKind::UniBin),
            generation: 0,
            posts_processed: engine.metrics().posts_processed,
            name: "UniBin".into(),
        });
        assert_eq!(mgr.maybe_save(&engine).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_latest_valid_skips_corrupt_generations() {
        let dir = tempdir("skip");
        let mut mgr = CheckpointManager::new(&dir, CheckpointPolicy::default()).unwrap();
        let mut engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        for p in posts(0..10) {
            engine.offer(&p);
        }
        mgr.save(&engine).unwrap(); // gen 0: good
        for p in posts(10..20) {
            engine.offer(&p);
        }
        let gen1 = mgr.save(&engine).unwrap(); // gen 1: will be corrupted
        let victim = dir.join(format!("gen-{gen1:08}")).join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&victim).unwrap();
        // Flip the final byte: always inside the state payload, so the
        // state section's CRC must catch it.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        let restored = restore_latest_valid(&dir, AlgorithmKind::UniBin, graph(), None).unwrap();
        assert_eq!(restored.manifest.generation, 0);
        assert_eq!(restored.manifest.posts_processed, 10);
        assert_eq!(restored.skipped.len(), 1);
        assert_eq!(restored.skipped[0].generation, gen1);
        assert!(matches!(
            restored.skipped[0].error,
            SnapshotError::Corrupt { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_all_corrupt_directory_reports_no_valid_checkpoint() {
        let dir = tempdir("none");
        assert!(matches!(
            restore_latest_valid(&dir, AlgorithmKind::UniBin, graph(), None),
            Err(RestoreError::NoValidCheckpoint { skipped }) if skipped.is_empty()
        ));
        // A lone torn generation: rejected, reported.
        fs::create_dir_all(dir.join("gen-00000000")).unwrap();
        fs::write(
            dir.join("gen-00000000").join(CHECKPOINT_FILE),
            b"FHCKPT01 torn garbage",
        )
        .unwrap();
        assert!(matches!(
            restore_latest_valid(&dir, AlgorithmKind::UniBin, graph(), None),
            Err(RestoreError::NoValidCheckpoint { skipped }) if skipped.len() == 1
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_dirs_are_ignored() {
        let dir = tempdir("tmp");
        let mut mgr = CheckpointManager::new(&dir, CheckpointPolicy::default()).unwrap();
        let engine = build_engine(AlgorithmKind::UniBin, config(), graph());
        mgr.save_bytes(&checkpoint_engine_to_vec(&engine, 0).unwrap())
            .unwrap();
        // Simulate a crash mid-write: a stale temp dir with garbage.
        let stale = dir.join(".tmp-gen-00000007");
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join(CHECKPOINT_FILE), b"half a checkpoint").unwrap();
        assert_eq!(list_generations(&dir).unwrap().len(), 1);
        assert!(restore_latest_valid(&dir, AlgorithmKind::UniBin, graph(), None).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_checkpoint_roundtrip() {
        let g = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        let stream: Vec<Post> = (0..60u64)
            .map(|i| {
                Post::new(
                    i,
                    (i % 6) as u32,
                    i * 5_000,
                    format!("content group {}", i % 9),
                )
            })
            .collect();
        let mut original = SharedMulti::new(AlgorithmKind::UniBin, config(), &g, subs.clone());
        for p in &stream[..30] {
            original.offer(p);
        }
        let buf = checkpoint_multi_to_vec(&original, 2).unwrap();
        let mut restored = SharedMulti::new(AlgorithmKind::UniBin, config(), &g, subs.clone());
        let manifest = restore_multi_from_slice(&buf, &mut restored).unwrap();
        assert_eq!(manifest.name, "S_UniBin");
        assert_eq!(restored.metrics(), original.metrics());
        for p in &stream[30..] {
            assert_eq!(restored.offer(p), original.offer(p), "post {}", p.id);
        }

        // Restoring into a different strategy is refused naming both.
        let mut wrong = SharedMulti::new(AlgorithmKind::CliqueBin, config(), &g, subs);
        let err = restore_multi_from_slice(&buf, &mut wrong).unwrap_err();
        assert!(
            matches!(
                &err,
                SnapshotError::WrongStrategy { found, expected }
                    if found == "S_UniBin" && expected == "S_CliqueBin"
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "checkpoint written by S_UniBin; this service runs S_CliqueBin"
        );
    }

    #[test]
    fn strategy_families_group_shared_runners() {
        assert_eq!(strategy_family("S_UniBin"), "S_UniBin");
        assert_eq!(strategy_family("P_UniBin(4)"), "S_UniBin");
        assert_eq!(strategy_family("Sh_UniBin(2)"), "S_UniBin");
        assert_eq!(strategy_family("Sh_CliqueBin(8)"), "S_CliqueBin");
        assert_eq!(strategy_family("M_UniBin"), "M_UniBin");
        assert_ne!(
            strategy_family("Sh_UniBin(2)"),
            strategy_family("S_CliqueBin")
        );
    }
}
