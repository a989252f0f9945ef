//! Collection persistence: a versioned, deterministic binary codec for
//! [`Collection`] plus evaluation-only replay.
//!
//! The expensive phase of every experiment is *collection* (simulate each
//! probe on each design with each bug, train stage-1 models); the cheap
//! phase is *evaluation*. The paper reuses one collected corpus across
//! many models and thresholds (Figs. 8–13, Tables IV–VII), so this module
//! lets a collection be saved once and replayed by any number of
//! evaluation-only runs without touching the simulator.
//!
//! The codec is hand-rolled (the build environment is offline — no serde):
//! little-endian fixed-width integers, `f64::to_bits` for floats, and
//! length-prefixed sequences, which makes encoding byte-deterministic for
//! a given collection. The byte-level layout is specified in
//! `docs/FORMAT.md`; every file carries
//!
//! * a magic tag and a [`FORMAT_VERSION`] — files from an older codec are
//!   rejected with [`PersistError::Version`], never reinterpreted;
//! * the [`CORPUS_REVISION`] and [`ExperimentKind`] of the producing pass,
//!   so cache tooling (`pbcol`) can triage files without recomputing
//!   fingerprints;
//! * the **config fingerprint** of the producing collection pass — loading
//!   under a different experiment configuration fails with
//!   [`PersistError::Fingerprint`], so a stale cache is rejected rather
//!   than silently reused;
//! * a [`ShardManifest`] — which contiguous probe range of the full pass
//!   this file covers. Full single-process files cover `0..total` in one
//!   shard; a sharded pass ([`collect_shard_or_resume`] on `count`
//!   processes) writes `count` shard files that [`merge_shard_files`]
//!   reassembles into the single-process collection after validating
//!   disjoint, complete coverage, matching identity fields and every
//!   shard's checksums;
//! * a trailing FNV-1a checksum over the whole header + payload —
//!   truncated or corrupted files fail with [`PersistError::Corrupt`].
//!
//! [`collect_or_load`] is the front door for every experiment (anything
//! implementing [`Experiment`], core or memory): it replays a saved
//! collection when the cache file exists, assembles it from a complete
//! set of shard files in the same directory when one is not, and collects
//! (then saves) otherwise. Shard workers use [`collect_shard_or_resume`].
//! Pair them with [`cache_file_name`] / [`shard_file_name`], which embed
//! the experiment kind and the fingerprint in the file name so distinct
//! configurations — and the core and memory experiments sharing one cache
//! directory — can never collide on one path. `collect_memory_or_load`
//! and `mem_config_fingerprint` are the same functions under the older
//! memory-experiment names existing callers use.
//!
//! Framing lives in three private pieces. `ChunkWriter` frames and seals
//! every file: the in-memory encode, [`ShardStreamWriter`] and the merge
//! all write through it. `read_index` validates header, fingerprint,
//! trailer, footer and chunk table, over a borrowed slice or a seeked
//! file. `ChunkWalk` checks and decodes every chunk in order and compares
//! the folded whole-file checksum with the trailer. The full decode
//! ([`decode_collection_with`]), [`verify_stream`] and
//! [`merge_shard_files`] all walk a file with it, so they run the same
//! per-file checks. [`ProbeReader`] reads the index and then single
//! chunks; [`scan_part`] recovers a part file, which has no index yet.

// pblint: allow-file(slice-index) -- decode keeps raw-byte indexing for the
// fixed-width frame fields; every site is behind an explicit length guard
// (dec_* readers, Source::read, scan_part, parse_chunk) and the whole
// decode surface is proptested against truncation/corruption in the
// roundtrip suite.
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use perfbug_uarch::{ArchSet, BugSpec};
use perfbug_workloads::{Opcode, ALL_OPCODES};

use crate::bugs::BugCatalog;
use crate::exec::ShardSpec;
use crate::experiment::{
    CapturedSeries, Collection, EngineResult, Experiment, PreparedPass, ProbeMeta, RunKey,
};

/// Version of the on-disk format. Bump on any layout change; readers
/// reject every other version with [`PersistError::Version`].
///
/// * v1 — magic, version, fingerprint, payload, checksum.
/// * v2 — adds the corpus revision, the experiment kind and the shard
///   manifest to the header (see `docs/FORMAT.md`).
/// * v3 — replaces the monolithic payload with self-delimiting,
///   individually-checksummed chunks (a meta chunk, then one chunk per
///   probe), a footer carrying the chunk/offset index and the engine
///   timing totals, and a 16-byte trailer locating the footer. Enables
///   O(chunk) streaming verification ([`verify_stream`]), single-probe
///   random access ([`ProbeReader`]), streaming shard concatenation
///   ([`merge_shard_files`]) and crash-recoverable resumable shard
///   writes ([`ShardStreamWriter`], [`scan_part`]).
pub const FORMAT_VERSION: u32 = 3;

/// Version of the *corpus semantics*: what the collection pipeline would
/// produce for a given configuration. Folded into every config
/// fingerprint, so bumping it invalidates caches without changing the
/// codec. Bump whenever a change makes collection output numerically
/// different under an unchanged config (simulator timing fixes, counter
/// or feature semantics, engine training/inference numerics, Eq.-(1)
/// changes) — otherwise an old cache would silently replay data the
/// current code no longer produces.
pub const CORPUS_REVISION: u32 = 1;

/// FNV-1a of the encoded corpus (timings zeroed) of the fixed tiny core
/// collection in `crates/core/tests/golden.rs`. The golden digests and
/// [`CORPUS_REVISION`] move together: a change that alters collection
/// output bumps the revision and re-pins both digests in the same commit.
pub const GOLDEN_CORE_DIGEST: u64 = 0x067d_287e_6439_bcc7;

/// FNV-1a of the encoded corpus (timings zeroed) of the fixed tiny memory
/// collection in `crates/core/tests/golden.rs`; moves with
/// [`CORPUS_REVISION`] exactly as [`GOLDEN_CORE_DIGEST`] does.
pub const GOLDEN_MEM_DIGEST: u64 = 0x1fa0_5a12_9662_97cc;

/// Magic tag opening every serialised collection.
const MAGIC: [u8; 4] = *b"PBCL";

/// Canonical file extension of serialised collections.
pub const FILE_EXTENSION: &str = "pbcol";

/// Which experiment produced a collection ([`Experiment::kind`]). Part
/// of the file header, of the fingerprint canon and of every cache file
/// name, so the core and memory experiments can share one
/// `PERFBUG_CACHE_DIR` without colliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// The out-of-order core experiment
    /// ([`CollectionConfig`](crate::experiment::CollectionConfig)).
    Core,
    /// The cache-hierarchy experiment
    /// ([`MemCollectionConfig`](crate::memory::MemCollectionConfig)).
    Memory,
}

impl ExperimentKind {
    /// The name segment embedded in cache file names.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExperimentKind::Core => "core",
            ExperimentKind::Memory => "mem",
        }
    }

    /// Parses a file-name segment produced by [`ExperimentKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "core" => Some(ExperimentKind::Core),
            "mem" => Some(ExperimentKind::Memory),
            _ => None,
        }
    }

    fn wire(&self) -> u8 {
        match self {
            ExperimentKind::Core => 0,
            ExperimentKind::Memory => 1,
        }
    }

    fn from_wire(tag: u8) -> Result<Self, PersistError> {
        match tag {
            0 => Ok(ExperimentKind::Core),
            1 => Ok(ExperimentKind::Memory),
            t => Err(PersistError::Corrupt(format!(
                "invalid experiment kind tag {t}"
            ))),
        }
    }
}

impl fmt::Display for ExperimentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which slice of the full collection pass a file covers.
///
/// A full single-process file is shard `0 of 1` covering
/// `0..total_probes`; a sharded pass writes one file per shard, each
/// covering its [`crate::exec::ShardSpec::probe_range`]. The run-key axis
/// is always complete — only the probe axis is sliced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard index, `0 <= index < count`.
    pub index: u32,
    /// Total shard count of the producing pass.
    pub count: u32,
    /// First probe (absolute index of the full pass) this file covers.
    pub probe_start: u64,
    /// One past the last probe this file covers.
    pub probe_end: u64,
    /// Total probe count of the full pass.
    pub total_probes: u64,
}

impl ShardManifest {
    /// The manifest of an unsharded file covering all `total` probes.
    pub fn full(total: usize) -> Self {
        ShardManifest {
            index: 0,
            count: 1,
            probe_start: 0,
            probe_end: total as u64,
            total_probes: total as u64,
        }
    }

    /// Builds the manifest of one shard of a `total`-probe pass.
    ///
    /// # Panics
    ///
    /// Panics if the spec's index is out of range (via
    /// [`crate::exec::ShardSpec::new`] semantics).
    pub fn of(shard: ShardSpec, total: usize) -> Self {
        let range = shard.probe_range(total);
        ShardManifest {
            index: shard.index as u32,
            count: shard.count as u32,
            probe_start: range.start as u64,
            probe_end: range.end as u64,
            total_probes: total as u64,
        }
    }

    /// Whether this file alone covers the whole pass.
    pub fn is_full(&self) -> bool {
        self.count == 1 && self.probe_start == 0 && self.probe_end == self.total_probes
    }

    /// Number of probes the file covers.
    pub fn probes(&self) -> u64 {
        self.probe_end - self.probe_start
    }

    /// Internal consistency: index in range, ordered bounds within the
    /// total, and a full manifest whenever the count is 1.
    fn validate(&self) -> Result<(), PersistError> {
        if self.count == 0
            || self.index >= self.count
            || self.probe_start > self.probe_end
            || self.probe_end > self.total_probes
            || (self.count == 1 && !self.is_full())
        {
            return Err(PersistError::Corrupt(format!(
                "invalid shard manifest: shard {} of {}, probes {}..{} of {}",
                self.index, self.count, self.probe_start, self.probe_end, self.total_probes
            )));
        }
        Ok(())
    }
}

impl fmt::Display for ShardManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}/{} (probes {}..{} of {})",
            self.index, self.count, self.probe_start, self.probe_end, self.total_probes
        )
    }
}

/// Everything the fixed-size file header records (see `docs/FORMAT.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Experiment kind of the producing pass.
    pub kind: ExperimentKind,
    /// [`CORPUS_REVISION`] the file was written under.
    pub corpus_revision: u32,
    /// Config fingerprint of the producing pass.
    pub fingerprint: u64,
    /// Probe coverage of this file.
    pub manifest: ShardManifest,
}

// --------------------------------------------------------------------------
// Errors
// --------------------------------------------------------------------------

/// Why a collection could not be saved or loaded.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The bytes are not a well-formed collection file (bad magic, failed
    /// checksum, truncation, or an invalid enum tag).
    Corrupt(String),
    /// The file was written by a different codec version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The file was collected under a different configuration.
    Fingerprint {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the requesting configuration.
        expected: u64,
    },
    /// A shard-coverage violation: a full load hit a shard file, or a
    /// merge found overlapping, missing or mismatched shards. The message
    /// names the offending shards and probe ranges.
    Shard(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt collection file: {why}"),
            PersistError::Version { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            PersistError::Fingerprint { found, expected } => write!(
                f,
                "stale cache: collected under config {found:016x}, requested {expected:016x}"
            ),
            PersistError::Shard(why) => write!(f, "shard coverage error: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

// --------------------------------------------------------------------------
// Fingerprints
// --------------------------------------------------------------------------

/// FNV-1a 64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a hash. Seed with
/// [`FNV_BASIS`]; feeding a file's bytes in any split produces the same
/// hash as one pass, which is what lets the streaming writer and
/// verifier maintain the whole-file checksum incrementally.
fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit FNV-1a over a byte slice — the checksum primitive of both the
/// cache file format and the remote worker protocol's wire frames
/// (`docs/FORMAT.md` §8), so supervisors can cross-check daemon-reported
/// shard checksums against local bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_BASIS, bytes)
}

/// Version token frozen into the fingerprint canon. This is *not*
/// [`FORMAT_VERSION`]: fingerprints identify what the collection pipeline
/// would produce, not the container it is stored in. The value is frozen:
/// changing it would move every fingerprint, every cache file name derived
/// from one and every pinned digest keyed by one. Bump
/// [`CORPUS_REVISION`] — not this — when collection *output* changes.
const FINGERPRINT_VERSION: u32 = 2;

/// Fingerprint of everything in an experiment's configuration that shapes
/// the collected data: FNV-1a of `<kind>/v<FINGERPRINT_VERSION>/c<CORPUS_REVISION>|`
/// followed by [`Experiment::fingerprint_canon`]. `threads` is deliberately
/// excluded: the engine is deterministic for any worker count, so
/// parallelism is an execution detail, not part of the corpus identity.
pub fn config_fingerprint(config: &dyn Experiment) -> u64 {
    let canon = format!(
        "{}/v{FINGERPRINT_VERSION}/c{CORPUS_REVISION}|{}",
        config.kind().as_str(),
        config.fingerprint_canon()
    );
    fnv1a(canon.as_bytes())
}

/// [`config_fingerprint`] under its memory-experiment name.
pub use self::config_fingerprint as mem_config_fingerprint;

/// The canonical cache file name for a full fingerprinted collection:
/// `<prefix>-<kind>-<fingerprint hex>.pbcol`. Because the experiment kind
/// and the fingerprint are part of the name, a configuration change maps
/// to a fresh file instead of a stale-cache error, and core and memory
/// experiments sharing a prefix and a cache directory never collide.
pub fn cache_file_name(prefix: &str, kind: ExperimentKind, fingerprint: u64) -> String {
    format!("{prefix}-{kind}-{fingerprint:016x}.{FILE_EXTENSION}")
}

/// The canonical file name of one shard of a sharded collection pass:
/// `<prefix>-<kind>-<fingerprint hex>-s<index>of<count>.pbcol`.
pub fn shard_file_name(
    prefix: &str,
    kind: ExperimentKind,
    fingerprint: u64,
    index: usize,
    count: usize,
) -> String {
    format!("{prefix}-{kind}-{fingerprint:016x}-s{index:04}of{count:04}.{FILE_EXTENSION}")
}

/// Whether `name` follows the in-flight temp-file grammar of
/// [`save_collection`]'s atomic write path
/// (`<target>.pbcol.<pid>-<seq>.tmp`). Such a file is invisible to every
/// reader (loads, shard assembly, `pbcol verify` all select on the
/// `.pbcol` extension); one left behind by a killed worker is garbage
/// that `pbcol prune` evicts.
pub fn is_temp_file_name(name: &str) -> bool {
    name.ends_with(".tmp") && name.contains(&format!(".{FILE_EXTENSION}."))
}

/// The deterministic in-progress ("part") file of a streaming shard
/// write: `<target>.pbcol.part.tmp` beside the target. Deterministic —
/// unlike [`save_collection`]'s pid-sequenced temp names — because a
/// *later attempt in a different process* must find the file a killed
/// worker left behind and resume it ([`ShardStreamWriter`]). The name
/// still matches [`is_temp_file_name`], so part files stay invisible to
/// every reader and assembly path.
pub fn part_path_for(target: &Path) -> std::path::PathBuf {
    target.with_extension(format!("{FILE_EXTENSION}.part.tmp"))
}

/// Whether `name` is a resumable part file ([`part_path_for`] grammar).
/// Part files are a subset of [`is_temp_file_name`]: cache tooling
/// (`pbcol prune`, `pbcol inspect`) distinguishes them from the
/// anonymous in-flight temps of the atomic-save path because a part file
/// with a valid chunk prefix represents recoverable work.
pub fn is_part_file_name(name: &str) -> bool {
    name.ends_with(&format!(".{FILE_EXTENSION}.part.tmp"))
}

/// A cache file name decomposed by [`parse_cache_file_name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedCacheName {
    /// The experiment prefix (e.g. `fig08`); may itself contain dashes.
    pub prefix: String,
    /// Experiment kind segment.
    pub kind: ExperimentKind,
    /// Fingerprint embedded in the name.
    pub fingerprint: u64,
    /// `Some((index, count))` for shard files, `None` for full files.
    pub shard: Option<(u32, u32)>,
}

/// Parses a file name produced by [`cache_file_name`] or
/// [`shard_file_name`]; returns `None` for anything else (including
/// pre-kind v1-era names), so cache tooling can tell this crate's files
/// from stray `.pbcol` files.
pub fn parse_cache_file_name(name: &str) -> Option<ParsedCacheName> {
    let stem = name.strip_suffix(&format!(".{FILE_EXTENSION}"))?;
    // Grammar (right to left): [-sNNNNofNNNN] then -<16 hex> then -<kind>,
    // leaving the prefix, which may itself contain dashes.
    let (stem, shard) = match stem.rfind("-s") {
        Some(pos) => {
            let tail = &stem[pos + 2..];
            match tail.split_once("of") {
                Some((i, c)) if !i.is_empty() && !c.is_empty() => {
                    match (i.parse::<u32>(), c.parse::<u32>()) {
                        (Ok(i), Ok(c)) => (&stem[..pos], Some((i, c))),
                        _ => (stem, None),
                    }
                }
                _ => (stem, None),
            }
        }
        None => (stem, None),
    };
    let (stem, fp_hex) = stem.rsplit_once('-')?;
    if fp_hex.len() != 16 {
        return None;
    }
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    let (prefix, kind_str) = stem.rsplit_once('-')?;
    let kind = ExperimentKind::parse(kind_str)?;
    if prefix.is_empty() {
        return None;
    }
    Some(ParsedCacheName {
        prefix: prefix.to_string(),
        kind,
        fingerprint,
        shard,
    })
}

// --------------------------------------------------------------------------
// Primitive codec
// --------------------------------------------------------------------------

/// Append-only encoder over a growable byte buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.u8(0),
            Some(i) => {
                self.u8(1);
                self.usize(i);
            }
        }
    }

    fn duration(&mut self, d: Duration) {
        self.u64(d.as_secs());
        self.u32(d.subsec_nanos());
    }
}

/// Cursor-based decoder; every read is bounds-checked so truncated input
/// surfaces as [`PersistError::Corrupt`] instead of a panic.
struct Dec<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Dec<'b> {
    fn new(bytes: &'b [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| PersistError::Corrupt(format!("truncated at byte {}", self.pos)))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("length {v} overflows")))
    }

    /// A length prefix that is about to drive an allocation; bounded by
    /// the remaining payload so corrupt lengths cannot exhaust memory.
    fn len(&mut self) -> Result<usize, PersistError> {
        let v = self.usize()?;
        if v > self.bytes.len().saturating_sub(self.pos) {
            return Err(PersistError::Corrupt(format!(
                "length {v} exceeds remaining {} bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(PersistError::Corrupt(format!("invalid bool tag {t}"))),
        }
    }

    fn str(&mut self) -> Result<String, PersistError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("invalid utf-8 string".into()))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            t => Err(PersistError::Corrupt(format!("invalid option tag {t}"))),
        }
    }

    fn duration(&mut self) -> Result<Duration, PersistError> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(PersistError::Corrupt(format!(
                "invalid subsecond nanos {nanos}"
            )));
        }
        Ok(Duration::new(secs, nanos))
    }
}

// --------------------------------------------------------------------------
// Domain codec
// --------------------------------------------------------------------------

/// An [`Opcode`]'s wire code is its index in the append-only
/// [`ALL_OPCODES`] table.
fn enc_opcode(enc: &mut Enc, op: Opcode) {
    let code = ALL_OPCODES
        .iter()
        .position(|&o| o == op)
        // pblint: allow(panic-policy) -- encode-side invariant: ALL_OPCODES is
        // the exhaustive opcode roster; a missing variant is a
        // compile-time-shaped bug, not a recoverable input condition.
        .expect("every opcode has a wire code");
    enc.u8(code as u8);
}

fn dec_opcode(dec: &mut Dec) -> Result<Opcode, PersistError> {
    let code = dec.u8()?;
    ALL_OPCODES
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| PersistError::Corrupt(format!("invalid opcode code {code}")))
}

fn enc_arch_set(enc: &mut Enc, set: ArchSet) {
    enc.u8(match set {
        ArchSet::I => 0,
        ArchSet::II => 1,
        ArchSet::III => 2,
        ArchSet::IV => 3,
    });
}

fn dec_arch_set(dec: &mut Dec) -> Result<ArchSet, PersistError> {
    match dec.u8()? {
        0 => Ok(ArchSet::I),
        1 => Ok(ArchSet::II),
        2 => Ok(ArchSet::III),
        3 => Ok(ArchSet::IV),
        t => Err(PersistError::Corrupt(format!("invalid arch set tag {t}"))),
    }
}

/// Bug specs are tagged with their type id (1–14 paper, 15–16
/// extensions), then their parameters in declaration order.
fn enc_bug(enc: &mut Enc, bug: &BugSpec) {
    enc.u8(bug.type_id() as u8);
    match *bug {
        BugSpec::SerializeOpcode { x }
        | BugSpec::IssueOnlyIfOldest { x }
        | BugSpec::IfOldestIssueOnlyX { x } => enc_opcode(enc, x),
        BugSpec::DelayIfDependsOn { x, y, t } => {
            enc_opcode(enc, x);
            enc_opcode(enc, y);
            enc.u32(t);
        }
        BugSpec::IqBelowDelay { n, t }
        | BugSpec::RobBelowDelay { n, t }
        | BugSpec::StoresToLineDelay { n, t } => {
            enc.u32(n);
            enc.u32(t);
        }
        BugSpec::MispredictExtraDelay { t } | BugSpec::L2ExtraLatency { t } => enc.u32(t),
        BugSpec::WritesToRegDelay { n, t, periodic } => {
            enc.u32(n);
            enc.u32(t);
            enc.bool(periodic);
        }
        BugSpec::FewerPhysRegs { n } => enc.u32(n),
        BugSpec::LongBranchDelay { bytes, t } => {
            enc.u8(bytes);
            enc.u32(t);
        }
        BugSpec::OpcodeUsesRegDelay { x, r, t } => {
            enc_opcode(enc, x);
            enc.u8(r);
            enc.u32(t);
        }
        BugSpec::BtbIndexMask { lost_bits } => enc.u32(lost_bits),
        BugSpec::TlbPageWalkDelay { entries, t } => {
            enc.u32(entries);
            enc.u32(t);
        }
        BugSpec::IssueReplayEveryN { n, t } => {
            enc.u32(n);
            enc.u32(t);
        }
    }
}

fn dec_bug(dec: &mut Dec) -> Result<BugSpec, PersistError> {
    Ok(match dec.u8()? {
        1 => BugSpec::SerializeOpcode {
            x: dec_opcode(dec)?,
        },
        2 => BugSpec::IssueOnlyIfOldest {
            x: dec_opcode(dec)?,
        },
        3 => BugSpec::IfOldestIssueOnlyX {
            x: dec_opcode(dec)?,
        },
        4 => BugSpec::DelayIfDependsOn {
            x: dec_opcode(dec)?,
            y: dec_opcode(dec)?,
            t: dec.u32()?,
        },
        5 => BugSpec::IqBelowDelay {
            n: dec.u32()?,
            t: dec.u32()?,
        },
        6 => BugSpec::RobBelowDelay {
            n: dec.u32()?,
            t: dec.u32()?,
        },
        7 => BugSpec::MispredictExtraDelay { t: dec.u32()? },
        8 => BugSpec::StoresToLineDelay {
            n: dec.u32()?,
            t: dec.u32()?,
        },
        9 => BugSpec::WritesToRegDelay {
            n: dec.u32()?,
            t: dec.u32()?,
            periodic: dec.bool()?,
        },
        10 => BugSpec::L2ExtraLatency { t: dec.u32()? },
        11 => BugSpec::FewerPhysRegs { n: dec.u32()? },
        12 => BugSpec::LongBranchDelay {
            bytes: dec.u8()?,
            t: dec.u32()?,
        },
        13 => BugSpec::OpcodeUsesRegDelay {
            x: dec_opcode(dec)?,
            r: dec.u8()?,
            t: dec.u32()?,
        },
        14 => BugSpec::BtbIndexMask {
            lost_bits: dec.u32()?,
        },
        15 => BugSpec::TlbPageWalkDelay {
            entries: dec.u32()?,
            t: dec.u32()?,
        },
        16 => BugSpec::IssueReplayEveryN {
            n: dec.u32()?,
            t: dec.u32()?,
        },
        t => return Err(PersistError::Corrupt(format!("invalid bug type tag {t}"))),
    })
}

// --------------------------------------------------------------------------
// v3 chunk codec
// --------------------------------------------------------------------------

/// Chunk kind: the single meta chunk (keys, engine roster, catalogue).
const CHUNK_META: u8 = 0;
/// Chunk kind: a probe chunk holding `n_probes >= 1` probe records.
const CHUNK_PROBES: u8 = 1;
/// Bytes of a chunk's frame header:
/// `kind u8 | first_probe u64 | n_probes u32 | payload_len u64`.
const CHUNK_FRAME_LEN: usize = 1 + 8 + 4 + 8;
/// Total framing overhead of one chunk: frame header plus the trailing
/// per-chunk FNV-1a checksum.
const CHUNK_OVERHEAD: usize = CHUNK_FRAME_LEN + 8;
/// Probes per probe chunk emitted by this build's writers. The format
/// itself allows any `n_probes >= 1` per chunk; one probe per chunk
/// gives probe-granular crash recovery and random access, which is what
/// the resume path and [`ProbeReader`] are for.
const PROBES_PER_CHUNK: u32 = 1;
/// Bytes of the fixed v3 trailer: `footer_offset u64 | file fnv64`.
const TRAILER_LEN: usize = 16;

/// One row of the v3 footer's chunk index, locating and identifying a
/// chunk without touching its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk's frame header in the file.
    pub offset: u64,
    /// Total chunk length in bytes (frame + payload + checksum).
    pub len: u64,
    /// Chunk kind (`0` = meta, `1` = probes).
    pub kind: u8,
    /// Absolute index of the first probe in the chunk (0 for meta).
    pub first_probe: u64,
    /// Number of probe records in the chunk (0 for meta).
    pub n_probes: u32,
    /// FNV-1a checksum over the chunk's frame header and payload, as
    /// also stored at the end of the chunk itself.
    pub checksum: u64,
}

impl ChunkEntry {
    /// Whether this entry describes the meta chunk.
    pub fn is_meta(&self) -> bool {
        self.kind == CHUNK_META
    }

    /// One past the last probe the chunk covers.
    pub fn probe_end(&self) -> u64 {
        self.first_probe + u64::from(self.n_probes)
    }
}

/// The decoded meta chunk: the probe-independent identity of a
/// collection, written once at the front of every v3 file so a resumed
/// or streaming reader knows the axes before any probe is decoded.
#[derive(Debug, Clone, PartialEq)]
struct MetaSection {
    keys: Vec<RunKey>,
    engine_names: Vec<String>,
    catalog: BugCatalog,
}

/// Everything one probe contributes to a collection, as stored inside a
/// v3 probe chunk: metadata, per-key overall metric, baseline aggregate
/// rows, one delta row per engine (in meta-chunk roster order) and any
/// captured series. Engine wall-clock timings are *not* per-probe on
/// disk — totals live in the footer.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// Probe metadata.
    pub meta: ProbeMeta,
    /// Overall target metric, one per run key.
    pub overall: Vec<f64>,
    /// Aggregated baseline feature rows, one per run key.
    pub agg: Vec<Vec<f64>>,
    /// Eq.-(1) inference errors, `[engine][run key]` in roster order.
    pub deltas: Vec<Vec<f64>>,
    /// Captured series of this probe, in (engine, key) capture order.
    pub captures: Vec<CapturedSeries>,
}

fn enc_meta_section(enc: &mut Enc, meta: &MetaSection) {
    enc.usize(meta.keys.len());
    for key in &meta.keys {
        enc.str(&key.arch);
        enc_arch_set(enc, key.set);
        enc.opt_usize(key.bug);
    }
    enc.usize(meta.engine_names.len());
    for name in &meta.engine_names {
        enc.str(name);
    }
    enc.usize(meta.catalog.len());
    for bug in meta.catalog.variants() {
        enc_bug(enc, bug);
    }
}

fn dec_meta_section(dec: &mut Dec) -> Result<MetaSection, PersistError> {
    let n_keys = dec.len()?;
    let mut keys = Vec::with_capacity(n_keys);
    for _ in 0..n_keys {
        keys.push(RunKey {
            arch: dec.str()?,
            set: dec_arch_set(dec)?,
            bug: dec.opt_usize()?,
        });
    }
    let n_engines = dec.len()?;
    let mut engine_names = Vec::with_capacity(n_engines);
    for _ in 0..n_engines {
        engine_names.push(dec.str()?);
    }
    let n_bugs = dec.len()?;
    if n_bugs == 0 {
        return Err(PersistError::Corrupt("empty bug catalogue".into()));
    }
    let mut variants = Vec::with_capacity(n_bugs);
    for _ in 0..n_bugs {
        variants.push(dec_bug(dec)?);
    }
    Ok(MetaSection {
        keys,
        engine_names,
        catalog: BugCatalog::new(variants),
    })
}

fn enc_probe_record(enc: &mut Enc, rec: &ProbeRecord) {
    enc.str(&rec.meta.id);
    enc.str(&rec.meta.benchmark);
    enc.f64(rec.meta.weight);
    enc.f64s(&rec.overall);
    enc.usize(rec.agg.len());
    for row in &rec.agg {
        enc.f64s(row);
    }
    // One delta row per engine, count fixed by the meta-chunk roster.
    for row in &rec.deltas {
        enc.f64s(row);
    }
    enc.usize(rec.captures.len());
    for c in &rec.captures {
        enc.str(&c.probe_id);
        enc.str(&c.arch);
        enc.opt_usize(c.bug);
        enc.str(&c.engine);
        enc.f64s(&c.simulated);
        enc.f64s(&c.inferred);
    }
}

fn dec_probe_record(dec: &mut Dec, n_engines: usize) -> Result<ProbeRecord, PersistError> {
    let meta = ProbeMeta {
        id: dec.str()?,
        benchmark: dec.str()?,
        weight: dec.f64()?,
    };
    let overall = dec.f64s()?;
    let n_agg = dec.len()?;
    let mut agg = Vec::with_capacity(n_agg);
    for _ in 0..n_agg {
        agg.push(dec.f64s()?);
    }
    let mut deltas = Vec::with_capacity(n_engines);
    for _ in 0..n_engines {
        deltas.push(dec.f64s()?);
    }
    let n_caps = dec.len()?;
    let mut captures = Vec::with_capacity(n_caps);
    for _ in 0..n_caps {
        captures.push(CapturedSeries {
            probe_id: dec.str()?,
            arch: dec.str()?,
            bug: dec.opt_usize()?,
            engine: dec.str()?,
            simulated: dec.f64s()?,
            inferred: dec.f64s()?,
        });
    }
    Ok(ProbeRecord {
        meta,
        overall,
        agg,
        deltas,
        captures,
    })
}

/// A chunk parsed (and checksum-validated) out of a byte buffer: the
/// index entry it has at its offset, and its payload.
struct ParsedChunk<'b> {
    entry: ChunkEntry,
    payload: &'b [u8],
}

/// Parses the chunk starting at `bytes[0]`, which sits at byte `offset`
/// of its file, validating the frame header, the payload bounds and the
/// per-chunk checksum.
fn parse_chunk(bytes: &[u8], offset: usize) -> Result<ParsedChunk<'_>, PersistError> {
    let at = |why: &str| PersistError::Corrupt(format!("chunk at byte {offset}: {why}"));
    let mut dec = Dec::new(bytes);
    let frame =
        (|| -> Result<_, PersistError> { Ok((dec.u8()?, dec.u64()?, dec.u32()?, dec.len()?)) })();
    let Ok((kind, first_probe, n_probes, payload_len)) = frame else {
        return Err(at("frame or payload runs past the end"));
    };
    if kind != CHUNK_META && kind != CHUNK_PROBES {
        return Err(at(&format!("invalid chunk kind {kind}")));
    }
    let payload = &bytes[CHUNK_FRAME_LEN..CHUNK_FRAME_LEN + payload_len];
    let checksum = fnv1a_update(fnv1a(&bytes[..CHUNK_FRAME_LEN]), payload);
    dec.pos += payload_len;
    if dec.u64().ok() != Some(checksum) {
        return Err(at("chunk checksum mismatch"));
    }
    let entry = ChunkEntry {
        offset: offset as u64,
        len: dec.pos as u64,
        kind,
        first_probe,
        n_probes,
        checksum,
    };
    Ok(ParsedChunk { entry, payload })
}

/// [`parse_chunk`] over the bytes of the chunk `entry` indexes, which must
/// also agree with that footer entry field for field.
fn parse_indexed_chunk<'b>(
    bytes: &'b [u8],
    entry: &ChunkEntry,
) -> Result<ParsedChunk<'b>, PersistError> {
    let parsed = parse_chunk(bytes, entry.offset as usize)?;
    if parsed.entry != *entry {
        return Err(PersistError::Corrupt(format!(
            "chunk at byte {} disagrees with its footer index entry",
            entry.offset
        )));
    }
    Ok(parsed)
}

/// Runs `f` over `bytes` — the `what` of a file — which it must consume
/// exactly.
fn dec_exact<'b, T>(
    bytes: &'b [u8],
    what: &str,
    f: impl FnOnce(&mut Dec<'b>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let mut dec = Dec::new(bytes);
    let value = f(&mut dec)?;
    match bytes.len() - dec.pos {
        0 => Ok(value),
        n => Err(PersistError::Corrupt(format!(
            "{n} trailing bytes after {what}"
        ))),
    }
}

/// Decodes a meta chunk's payload, which must be consumed exactly.
fn dec_meta_chunk(payload: &[u8]) -> Result<MetaSection, PersistError> {
    dec_exact(payload, "the meta chunk", dec_meta_section)
}

/// Decodes every probe record of a probe chunk, handing each to `each`;
/// the payload must be consumed exactly.
fn dec_probe_chunk(
    chunk: &ParsedChunk,
    n_engines: usize,
    mut each: impl FnMut(ProbeRecord),
) -> Result<(), PersistError> {
    dec_exact(chunk.payload, "a probe chunk", |dec| {
        for _ in 0..chunk.entry.n_probes {
            each(dec_probe_record(dec, n_engines)?);
        }
        Ok(())
    })
}

/// Checks that chunk `i` of a file, `c`, continues the chunk sequence
/// that so far ends at byte `end` and probe `next_probe`: the meta chunk
/// first, then probe chunks, contiguous in bytes and in probes. Returns
/// the sequence's new end byte and next probe.
fn follow_chunk(
    i: usize,
    c: &ChunkEntry,
    end: u64,
    next_probe: u64,
) -> Result<(u64, u64), PersistError> {
    let fits = if i == 0 {
        c.is_meta() && c.first_probe == 0 && c.n_probes == 0
    } else {
        c.kind == CHUNK_PROBES && c.first_probe == next_probe && c.n_probes > 0
    };
    match c.offset.checked_add(c.len) {
        Some(new_end) if fits && c.offset == end && c.len >= CHUNK_OVERHEAD as u64 => {
            Ok((new_end, next_probe.saturating_add(u64::from(c.n_probes))))
        }
        _ => Err(PersistError::Corrupt(format!(
            "chunk {i} (kind {}, {} probes from {}, {} bytes at byte {}) does not \
             continue the file at byte {end}, probe {next_probe}",
            c.kind, c.n_probes, c.first_probe, c.len, c.offset
        ))),
    }
}

/// Validates a v3 chunk table against the header: every chunk follows
/// its predecessor ([`follow_chunk`]) from the fixed header boundary,
/// the chunks end exactly at the footer, and the probe chunks cover
/// exactly the manifest's probe range.
fn validate_chunk_table(
    chunks: &[ChunkEntry],
    footer_offset: u64,
    header: &FileHeader,
) -> Result<(), PersistError> {
    let m = &header.manifest;
    let mut at = (HEADER_LEN as u64, m.probe_start);
    for (i, c) in chunks.iter().enumerate() {
        at = follow_chunk(i, c, at.0, at.1)?;
    }
    if chunks.is_empty() || at != (footer_offset, m.probe_end) {
        return Err(PersistError::Corrupt(format!(
            "{} chunks end at byte {} and probe {}, but the footer starts at byte \
             {footer_offset} and the manifest ends at probe {}",
            chunks.len(),
            at.0,
            at.1,
            m.probe_end
        )));
    }
    Ok(())
}

// --------------------------------------------------------------------------
// File format
// --------------------------------------------------------------------------

/// Size of the fixed file header: magic, version, corpus revision, kind,
/// fingerprint and the five shard-manifest fields (see `docs/FORMAT.md`).
const HEADER_LEN: usize = 4 + 4 + 4 + 1 + 8 + (4 + 4 + 8 + 8 + 8);

fn enc_header(enc: &mut Enc, header: &FileHeader) {
    enc.buf.extend_from_slice(&MAGIC);
    enc.u32(FORMAT_VERSION);
    enc.u32(header.corpus_revision);
    enc.u8(header.kind.wire());
    enc.u64(header.fingerprint);
    enc.u32(header.manifest.index);
    enc.u32(header.manifest.count);
    enc.u64(header.manifest.probe_start);
    enc.u64(header.manifest.probe_end);
    enc.u64(header.manifest.total_probes);
}

fn dec_header(dec: &mut Dec) -> Result<FileHeader, PersistError> {
    if dec.take(4)? != MAGIC {
        return Err(PersistError::Corrupt("bad magic".into()));
    }
    let version = dec.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let corpus_revision = dec.u32()?;
    let kind = ExperimentKind::from_wire(dec.u8()?)?;
    let fingerprint = dec.u64()?;
    let manifest = ShardManifest {
        index: dec.u32()?,
        count: dec.u32()?,
        probe_start: dec.u64()?,
        probe_end: dec.u64()?,
        total_probes: dec.u64()?,
    };
    manifest.validate()?;
    Ok(FileHeader {
        kind,
        corpus_revision,
        fingerprint,
        manifest,
    })
}

/// Splits a collection into per-probe [`ProbeRecord`]s, bucketing the
/// flat capture list by probe id.
///
/// # Panics
///
/// Panics if a capture names a probe id absent from `col.probes` — such
/// a collection is internally inconsistent and must never reach disk.
fn collection_to_records(col: &Collection) -> Vec<ProbeRecord> {
    let index: BTreeMap<&str, usize> = col
        .probes
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id.as_str(), i))
        .collect();
    let mut captures: Vec<Vec<CapturedSeries>> = vec![Vec::new(); col.probes.len()];
    for c in &col.captures {
        let i = *index
            .get(c.probe_id.as_str())
            // pblint: allow(panic-policy) -- encode-side, documented under
            // `# Panics`: an internally inconsistent collection must never
            // reach disk, and callers construct probes/captures together.
            .unwrap_or_else(|| panic!("capture names unknown probe id {:?}", c.probe_id));
        captures[i].push(c.clone());
    }
    let mut captures = captures.into_iter();
    col.probes
        .iter()
        .enumerate()
        .map(|(i, p)| ProbeRecord {
            meta: p.clone(),
            overall: col.overall_ipc[i].clone(),
            agg: col.agg_features[i].clone(),
            deltas: col.engines.iter().map(|e| e.deltas[i].clone()).collect(),
            // pblint: allow(panic-policy) -- encode-side: the bucket vec is
            // built with exactly `col.probes.len()` entries four lines up.
            captures: captures.next().expect("one bucket per probe"),
        })
        .collect()
}

// --------------------------------------------------------------------------
// The chunk writer, the index reader and the chunk walker
// --------------------------------------------------------------------------

/// The one PBCL writer. It owns the write offset, the running whole-file
/// hash, the chunk index and the per-engine timing totals of a file
/// streamed into `out`: [`encode_collection_with`] writes into a
/// `Vec<u8>`, [`ShardStreamWriter`] into its part file (fresh or
/// resumed) and [`merge_shard_files`] into the merged temp file.
struct ChunkWriter<W: Write> {
    out: W,
    offset: u64,
    hash: u64,
    chunks: Vec<ChunkEntry>,
    times: Vec<(Duration, Duration)>,
}

impl<W: Write> ChunkWriter<W> {
    /// Writes the header and the meta chunk; the timing totals start at
    /// zero for each engine of the meta chunk's roster.
    fn start(out: W, header: &FileHeader, meta: &MetaSection) -> io::Result<Self> {
        let mut w = ChunkWriter {
            out,
            offset: 0,
            hash: FNV_BASIS,
            chunks: Vec::new(),
            times: vec![(Duration::ZERO, Duration::ZERO); meta.engine_names.len()],
        };
        let mut head = Enc::new();
        enc_header(&mut head, header);
        w.write(&head.buf)?;
        let mut payload = Enc::new();
        enc_meta_section(&mut payload, meta);
        w.push(CHUNK_META, 0, 0, &payload.buf)?;
        Ok(w)
    }

    /// Writes `bytes` and folds them into the whole-file hash.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        self.hash = fnv1a_update(self.hash, bytes);
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Frames `payload` as one chunk — frame header, payload, then the
    /// FNV-1a checksum over frame + payload — and appends it.
    fn push(
        &mut self,
        kind: u8,
        first_probe: u64,
        n_probes: u32,
        payload: &[u8],
    ) -> io::Result<()> {
        let mut frame = Enc::new();
        frame.u8(kind);
        frame.u64(first_probe);
        frame.u32(n_probes);
        frame.usize(payload.len());
        let checksum = fnv1a_update(fnv1a(&frame.buf), payload);
        self.chunks.push(ChunkEntry {
            offset: self.offset,
            len: (CHUNK_OVERHEAD + payload.len()) as u64,
            kind,
            first_probe,
            n_probes,
            checksum,
        });
        self.write(&frame.buf)?;
        self.write(payload)?;
        self.write(&checksum.to_le_bytes())
    }

    /// Appends probe `probe`'s record as one probe chunk.
    fn push_probe(&mut self, probe: u64, rec: &ProbeRecord) -> io::Result<()> {
        let mut payload = Enc::new();
        enc_probe_record(&mut payload, rec);
        self.push(CHUNK_PROBES, probe, PROBES_PER_CHUNK, &payload.buf)
    }

    /// Appends the already framed chunk `bytes` that `entry` indexes
    /// elsewhere. Chunk checksums do not depend on position, so only the
    /// index entry's offset changes.
    fn copy(&mut self, entry: &ChunkEntry, bytes: &[u8]) -> io::Result<()> {
        self.chunks.push(ChunkEntry {
            offset: self.offset,
            ..*entry
        });
        self.write(bytes)
    }

    /// Adds per-engine `(train, infer)` wall-clock times to the totals.
    fn add_times(&mut self, times: impl IntoIterator<Item = (Duration, Duration)>) {
        for ((train, infer), (t, i)) in self.times.iter_mut().zip(times) {
            *train += t;
            *infer += i;
        }
    }

    /// Seals the file: the footer (chunk index, then the timing totals),
    /// the footer offset, and the whole-file checksum over every byte
    /// before it. Returns the sink, unflushed.
    ///
    /// Timings live in the footer, not in probe chunks, because a whole
    /// collection's per-engine times cannot be attributed to individual
    /// probes after the fact, and because a resumed write loses the
    /// crashed attempt's measurements anyway (bit-identity comparisons
    /// run after `Collection::zero_timings`).
    fn seal(mut self) -> io::Result<W> {
        let mut tail = Enc::new();
        tail.usize(self.chunks.len());
        for c in &self.chunks {
            tail.u64(c.offset);
            tail.u64(c.len);
            tail.u8(c.kind);
            tail.u64(c.first_probe);
            tail.u32(c.n_probes);
            tail.u64(c.checksum);
        }
        tail.usize(self.times.len());
        for &(train, infer) in &self.times {
            tail.duration(train);
            tail.duration(infer);
        }
        tail.u64(self.offset);
        self.write(&tail.buf)?;
        self.out.write_all(&self.hash.to_le_bytes())?;
        Ok(self.out)
    }
}

/// Serialises a collection (full or one shard) under its header in the
/// v3 chunked layout.
///
/// Layout: fixed header, one meta chunk, one probe chunk per probe, the
/// footer (chunk index + per-engine timing totals), then the trailer
/// `footer_offset u64 | fnv64` whose checksum covers every preceding
/// byte (see `docs/FORMAT.md`).
///
/// # Panics
///
/// Panics if the manifest's probe range does not match the collection's
/// probe count, or a capture names an unknown probe id — the manifest
/// and payload describe each other; an inconsistent pair must never
/// reach disk.
pub fn encode_collection_with(col: &Collection, header: &FileHeader) -> Vec<u8> {
    assert_eq!(
        header.manifest.probes(),
        col.probes.len() as u64,
        "shard manifest must cover exactly the collection's probes"
    );
    let meta = MetaSection {
        keys: col.keys.clone(),
        engine_names: col.engines.iter().map(|e| e.name.clone()).collect(),
        catalog: col.catalog.clone(),
    };
    let encode = || -> io::Result<Vec<u8>> {
        let mut w = ChunkWriter::start(Vec::new(), header, &meta)?;
        for (i, rec) in collection_to_records(col).iter().enumerate() {
            w.push_probe(header.manifest.probe_start + i as u64, rec)?;
        }
        w.add_times(col.engines.iter().map(|e| (e.train_time, e.infer_time)));
        w.seal()
    };
    // pblint: allow(panic-policy) -- `Write for Vec<u8>` never fails.
    encode().expect("writing into a Vec cannot fail")
}

/// Serialises a full (unsharded) core-experiment collection under a
/// config fingerprint; the general form is [`encode_collection_with`].
pub fn encode_collection(col: &Collection, fingerprint: u64) -> Vec<u8> {
    encode_collection_with(
        col,
        &FileHeader {
            kind: ExperimentKind::Core,
            corpus_revision: CORPUS_REVISION,
            fingerprint,
            manifest: ShardManifest::full(col.probes.len()),
        },
    )
}

/// Where the index reader and the chunk walker read from: a borrowed byte
/// slice (the in-memory decode, which copies nothing), or an open file
/// read by seeking into one reused buffer.
enum Source<'b> {
    Bytes(&'b [u8]),
    File {
        file: fs::File,
        len: u64,
        buf: Vec<u8>,
    },
}

impl Source<'_> {
    fn open(path: &Path) -> Result<Source<'static>, PersistError> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        let buf = Vec::new();
        Ok(Source::File { file, len, buf })
    }

    fn len(&self) -> u64 {
        match self {
            Source::Bytes(bytes) => bytes.len() as u64,
            Source::File { len, .. } => *len,
        }
    }

    /// The `n` bytes at `offset`; running past the end is `Corrupt`.
    fn read(&mut self, offset: u64, n: u64) -> Result<&[u8], PersistError> {
        let len = self.len();
        let Some(end) = offset.checked_add(n).filter(|&end| end <= len) else {
            let why = format!("{n} bytes at byte {offset} run past the {len}-byte file");
            return Err(PersistError::Corrupt(why));
        };
        match self {
            Source::Bytes(bytes) => Ok(&bytes[offset as usize..end as usize]),
            Source::File { file, buf, .. } => {
                buf.resize(n as usize, 0);
                file.seek(SeekFrom::Start(offset))?;
                file.read_exact(buf)?;
                Ok(buf)
            }
        }
    }

    /// Reads and validates the fixed header: magic, version, manifest. A
    /// file too short to hold it fails at the first missing field.
    fn header(&mut self) -> Result<FileHeader, PersistError> {
        let n = self.len().min(HEADER_LEN as u64);
        dec_header(&mut Dec::new(self.read(0, n)?))
    }
}

/// `Fingerprint` unless `header` carries the `expected` fingerprint.
fn check_fingerprint(header: &FileHeader, expected: Option<u64>) -> Result<(), PersistError> {
    match expected {
        Some(expected) if header.fingerprint != expected => Err(PersistError::Fingerprint {
            found: header.fingerprint,
            expected,
        }),
        _ => Ok(()),
    }
}

/// A file's validated index: its header, the footer's chunk table and
/// timing totals, and the trailer's footer offset and stored checksum.
struct Index {
    header: FileHeader,
    chunks: Vec<ChunkEntry>,
    times: Vec<(Duration, Duration)>,
    footer_offset: u64,
    checksum: u64,
}

/// The one index reader. It validates, in order, the header (magic,
/// version, manifest), the fingerprint when `expected` is given, the
/// trailer's footer offset, the footer's exact decode and the chunk
/// table. It reads no chunk.
fn read_index(src: &mut Source<'_>, expected: Option<u64>) -> Result<Index, PersistError> {
    let header = src.header()?;
    check_fingerprint(&header, expected)?;
    // A file too short for a trailer fails this read; one too short for
    // a footer and a meta chunk fails the bounds and chunk-table checks.
    let footer_end = src.len().saturating_sub(TRAILER_LEN as u64);
    let mut trailer = Dec::new(src.read(footer_end, TRAILER_LEN as u64)?);
    let (footer_offset, checksum) = (trailer.u64()?, trailer.u64()?);
    if footer_offset < HEADER_LEN as u64 || footer_offset > footer_end {
        return Err(PersistError::Corrupt(format!(
            "footer offset {footer_offset} is out of bounds"
        )));
    }
    let footer = src.read(footer_offset, footer_end - footer_offset)?;
    let (chunks, times) = dec_exact(footer, "the footer", |dec| {
        let n_chunks = dec.usize()?;
        if n_chunks > footer.len() / 37 {
            // 37 = bytes per chunk entry; bounds the allocation below.
            return Err(PersistError::Corrupt(format!(
                "footer chunk count {n_chunks} exceeds footer size"
            )));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            chunks.push(ChunkEntry {
                offset: dec.u64()?,
                len: dec.u64()?,
                kind: dec.u8()?,
                first_probe: dec.u64()?,
                n_probes: dec.u32()?,
                checksum: dec.u64()?,
            });
        }
        let n_engines = dec.len()?;
        let mut times = Vec::with_capacity(n_engines);
        for _ in 0..n_engines {
            times.push((dec.duration()?, dec.duration()?));
        }
        Ok((chunks, times))
    })?;
    validate_chunk_table(&chunks, footer_offset, &header)?;
    Ok(Index {
        header,
        chunks,
        times,
        footer_offset,
        checksum,
    })
}

/// Reads, checks and decodes the meta chunk `index` points at, whose
/// roster must match the footer's timing totals. Returns it with the
/// chunk's raw bytes.
fn read_meta<'a>(
    src: &'a mut Source<'_>,
    index: &Index,
) -> Result<(MetaSection, &'a [u8]), PersistError> {
    let entry = &index.chunks[0];
    let bytes = src.read(entry.offset, entry.len)?;
    let meta = dec_meta_chunk(parse_indexed_chunk(bytes, entry)?.payload)?;
    if index.times.len() != meta.engine_names.len() {
        return Err(PersistError::Corrupt(format!(
            "footer times {} engines but the roster has {}",
            index.times.len(),
            meta.engine_names.len()
        )));
    }
    Ok((meta, bytes))
}

/// The one sequential chunk walker. It visits an indexed file's chunks
/// in order, checks each against its index entry, decodes its payload
/// and folds the whole-file checksum, which it compares with the
/// trailer's after the last chunk.
struct ChunkWalk<'s, 'b> {
    src: &'s mut Source<'b>,
    index: &'s Index,
    n_engines: usize,
    next: usize,
    hash: u64,
}

impl<'s, 'b> ChunkWalk<'s, 'b> {
    /// Starts a walk over `src`; returns it with the decoded meta chunk.
    fn start(
        src: &'s mut Source<'b>,
        index: &'s Index,
    ) -> Result<(Self, MetaSection), PersistError> {
        let hash = fnv1a(src.read(0, HEADER_LEN as u64)?);
        let (meta, bytes) = read_meta(src, index)?;
        let hash = fnv1a_update(hash, bytes);
        let walk = ChunkWalk {
            src,
            index,
            n_engines: meta.engine_names.len(),
            next: 1,
            hash,
        };
        Ok((walk, meta))
    }

    /// Checks and decodes the next probe chunk, handing each of its
    /// records to `each`, and returns its entry and raw bytes. After the
    /// last chunk it folds the footer and the footer offset, and returns
    /// `None` only if the whole-file checksum matches the trailer's.
    fn next(
        &mut self,
        each: impl FnMut(ProbeRecord),
    ) -> Result<Option<(ChunkEntry, &[u8])>, PersistError> {
        let Some(&entry) = self.index.chunks.get(self.next) else {
            let (start, len) = (self.index.footer_offset, self.src.len());
            let tail = self.src.read(start, len - 8 - start)?;
            if fnv1a_update(self.hash, tail) != self.index.checksum {
                return Err(PersistError::Corrupt("checksum mismatch".into()));
            }
            return Ok(None);
        };
        self.next += 1;
        let bytes = self.src.read(entry.offset, entry.len)?;
        dec_probe_chunk(&parse_indexed_chunk(bytes, &entry)?, self.n_engines, each)?;
        self.hash = fnv1a_update(self.hash, bytes);
        Ok(Some((entry, bytes)))
    }
}

/// Reads and validates only the fixed-size header of a serialised
/// collection: magic, version and manifest sanity — **not** the trailing
/// checksum, so corruption inside the payload goes undetected here. Cache
/// tooling uses this to triage files cheaply; anything that consumes the
/// payload must go through [`decode_collection_with`].
pub fn read_header(bytes: &[u8]) -> Result<FileHeader, PersistError> {
    dec_header(&mut Dec::new(bytes))
}

/// Decodes a serialised collection, full or shard, in one walk over its
/// chunks. It validates magic and version first, then the index, every
/// chunk and the whole-file checksum, and only then (when `expected` is
/// given) the config fingerprint, so a damaged file reports its damage
/// rather than a stale configuration. The returned header says which
/// shard this was.
pub fn decode_collection_with(
    bytes: &[u8],
    expected: Option<u64>,
) -> Result<(Collection, FileHeader), PersistError> {
    let mut src = Source::Bytes(bytes);
    let index = read_index(&mut src, None)?;
    let (mut walk, meta) = ChunkWalk::start(&mut src, &index)?;
    let mut col = Collection {
        keys: meta.keys,
        probes: Vec::new(),
        engines: meta
            .engine_names
            .into_iter()
            .zip(&index.times)
            .map(|(name, &(train_time, infer_time))| EngineResult {
                name,
                deltas: Vec::new(),
                train_time,
                infer_time,
            })
            .collect(),
        overall_ipc: Vec::new(),
        agg_features: Vec::new(),
        captures: Vec::new(),
        catalog: meta.catalog,
    };
    let push = |col: &mut Collection, rec: ProbeRecord| {
        col.probes.push(rec.meta);
        col.overall_ipc.push(rec.overall);
        col.agg_features.push(rec.agg);
        for (engine, row) in col.engines.iter_mut().zip(rec.deltas) {
            engine.deltas.push(row);
        }
        col.captures.extend(rec.captures);
    };
    while walk.next(|rec| push(&mut col, rec))?.is_some() {}
    check_fingerprint(&index.header, expected)?;
    Ok((col, index.header))
}

/// Decodes a *full* serialised collection, validating magic, version,
/// checksum and the config fingerprint (in that order). A shard file is
/// rejected with [`PersistError::Shard`] — partial corpora must go
/// through [`merge_shard_files`].
pub fn decode_collection(bytes: &[u8], expected: u64) -> Result<Collection, PersistError> {
    let (col, header) = decode_collection_with(bytes, Some(expected))?;
    if !header.manifest.is_full() {
        return Err(PersistError::Shard(format!(
            "expected a full collection, found {}",
            header.manifest
        )));
    }
    Ok(col)
}

// --------------------------------------------------------------------------
// Crash recovery: part-file scanning and the resumable shard writer
// --------------------------------------------------------------------------

/// The durable prefix recovered from a half-written v3 part file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredPrefix {
    /// The header the crashed writer was writing under.
    pub header: FileHeader,
    /// Number of probes whose chunks are fully durable (checksum-valid,
    /// payload-decodable, contiguous from the manifest's first probe).
    pub probes: u64,
    /// Byte length of the durable prefix (header + meta chunk + the
    /// durable probe chunks). Truncating the file here yields a clean
    /// resume point.
    pub durable_len: u64,
    /// Bytes of torn tail after the durable prefix (0 when the writer
    /// died exactly on a chunk boundary).
    pub torn_bytes: u64,
    /// Index entries of the durable chunks (meta chunk first).
    pub chunks: Vec<ChunkEntry>,
}

/// Scans the bytes of a half-written v3 part file and recovers its
/// durable chunk prefix.
///
/// The scan validates the fixed header, then requires a fully valid meta
/// chunk (checksum *and* payload decode) — a part without one carries no
/// recoverable work and is rejected with [`PersistError::Corrupt`].
/// Probe chunks are then walked in order; each must checksum-validate,
/// payload-decode and be contiguous with the previous one. The walk
/// stops at the first violation: everything before it is the durable
/// prefix, everything after is the torn tail. A *finished* file also
/// scans cleanly — its footer bytes simply fail to parse as a chunk and
/// count as torn tail, so callers should try a normal load first.
///
/// A part of any other format version is rejected with
/// [`PersistError::Version`].
pub fn scan_part(bytes: &[u8]) -> Result<RecoveredPrefix, PersistError> {
    let header = dec_header(&mut Dec::new(bytes))?;
    let meta_chunk = parse_chunk(&bytes[HEADER_LEN..], HEADER_LEN)
        .map_err(|e| PersistError::Corrupt(format!("part file has no valid meta chunk: {e}")))?;
    let m = header.manifest;
    let first = meta_chunk.entry;
    follow_chunk(0, &first, HEADER_LEN as u64, m.probe_start)?;
    let meta = dec_meta_chunk(meta_chunk.payload).map_err(|e| {
        PersistError::Corrupt(format!("part file's meta chunk does not decode: {e}"))
    })?;
    let n_engines = meta.engine_names.len();
    let mut chunks = vec![first];
    let mut offset = HEADER_LEN + first.len as usize;
    let mut next_probe = m.probe_start;
    while offset < bytes.len() && next_probe < m.probe_end {
        // The durable prefix ends at the torn tail — a partially flushed
        // chunk, or (for a finished file) the footer — at a chunk out of
        // sequence, or at a checksum-valid chunk whose payload does not
        // decode: never resume on top of undecodable probe data.
        let Ok(chunk) = parse_chunk(&bytes[offset..], offset) else {
            break;
        };
        let next = match follow_chunk(chunks.len(), &chunk.entry, offset as u64, next_probe) {
            Ok((_, next)) if next <= m.probe_end => next,
            _ => break,
        };
        if dec_probe_chunk(&chunk, n_engines, drop).is_err() {
            break;
        }
        chunks.push(chunk.entry);
        next_probe = next;
        offset += chunk.entry.len as usize;
    }
    Ok(RecoveredPrefix {
        probes: next_probe - m.probe_start,
        durable_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
        chunks,
        header,
    })
}
/// [`scan_part`] over a file on disk.
pub fn scan_part_file(path: &Path) -> Result<RecoveredPrefix, PersistError> {
    let bytes = fs::read(path)?;
    scan_part(&bytes)
}

/// Incremental writer of one v3 shard file with crash recovery.
///
/// The writer appends to a deterministic sibling part file
/// ([`part_path_for`]) — invisible to every reader and to cache
/// assembly — and atomically renames it over the target on
/// [`finish`](Self::finish). Each probe goes to disk as one
/// self-checksummed chunk the moment it is collected, so a killed
/// process loses at most the chunk it was mid-write on. A later
/// [`create_or_resume`](Self::create_or_resume) for the same target
/// finds the part, recovers its durable chunk prefix ([`scan_part`]),
/// truncates the torn tail and continues from the first missing probe.
///
/// Consistency model: process kill, not power loss — chunks are not
/// fsynced (matching [`save_collection`]'s temp-file + rename discipline).
/// Engine wall-clock timings accumulate in memory and land in the
/// footer; a resumed attempt restarts them at zero, so recovered files
/// compare bit-identical to uninterrupted ones only after
/// `Collection::zero_timings`.
///
/// Dropping an unfinished writer intentionally leaves the part file on
/// disk — that *is* the resumable artifact.
pub struct ShardStreamWriter {
    target: PathBuf,
    part: PathBuf,
    w: ChunkWriter<io::BufWriter<fs::File>>,
    header: FileHeader,
    next_probe: u64,
    resumed: u64,
}

impl ShardStreamWriter {
    /// Opens a writer for `target`, resuming from a durable part-file
    /// prefix when one exists and matches this pass's identity
    /// (byte-identical header + meta chunk), and starting fresh
    /// otherwise. `keys`, `engine_names` and `catalog` are the
    /// probe-independent identity the meta chunk records.
    pub fn create_or_resume(
        target: &Path,
        header: &FileHeader,
        keys: &[RunKey],
        engine_names: &[String],
        catalog: &BugCatalog,
    ) -> Result<Self, PersistError> {
        let meta = MetaSection {
            keys: keys.to_vec(),
            engine_names: engine_names.to_vec(),
            catalog: catalog.clone(),
        };
        // The header and meta chunk this pass writes, built in memory
        // first so a part file's prefix can be compared against them.
        let head = ChunkWriter::start(Vec::new(), header, &meta)?;
        let part = part_path_for(target);

        // A durable prefix is only worth resuming when its header and
        // meta chunk are byte-identical to what this pass would write —
        // anything else (other config, other shard, stale identity)
        // starts fresh.
        let recovered = match fs::read(&part) {
            Ok(bytes) => scan_part(&bytes).ok().and_then(|p| {
                let durable = usize::try_from(p.durable_len).ok()?;
                (durable >= head.out.len() && bytes[..head.out.len()] == head.out[..])
                    .then(|| (p, fnv1a(&bytes[..durable])))
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let (w, resumed) = match recovered {
            Some((prefix, hash)) => {
                let file = fs::OpenOptions::new().write(true).open(&part)?;
                file.set_len(prefix.durable_len)?;
                let mut out = io::BufWriter::new(file);
                out.seek(SeekFrom::End(0))?;
                let w = ChunkWriter {
                    out,
                    offset: prefix.durable_len,
                    hash,
                    chunks: prefix.chunks,
                    times: head.times,
                };
                (w, prefix.probes)
            }
            None => {
                let out = io::BufWriter::new(fs::File::create(&part)?);
                (ChunkWriter::start(out, header, &meta)?, 0)
            }
        };
        Ok(ShardStreamWriter {
            target: target.to_path_buf(),
            part,
            w,
            header: *header,
            next_probe: header.manifest.probe_start + resumed,
            resumed,
        })
    }

    /// Probes already durable when this writer opened — the caller
    /// should skip exactly this many and collect the rest.
    pub fn resumed_probes(&self) -> u64 {
        self.resumed
    }

    /// Absolute index of the next probe this writer expects.
    pub fn next_probe(&self) -> u64 {
        self.next_probe
    }

    /// The header this writer writes under.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Appends one probe as one chunk and flushes it to the OS, making
    /// it durable against a process kill. `times` are this probe's
    /// per-engine `(train, infer)` wall-clock contributions, accumulated
    /// into the footer totals.
    ///
    /// # Panics
    ///
    /// Panics if the record's delta-row or `times` count disagrees with
    /// the engine roster, or on an append past the manifest's probe end
    /// — both are caller bugs, never disk states.
    pub fn append_probe(
        &mut self,
        rec: &ProbeRecord,
        times: &[(Duration, Duration)],
    ) -> Result<(), PersistError> {
        assert!(
            self.next_probe < self.header.manifest.probe_end,
            "append past the manifest's probe range"
        );
        let n_engines = self.w.times.len();
        assert_eq!(rec.deltas.len(), n_engines, "one delta row per engine");
        assert_eq!(times.len(), n_engines, "one time pair per engine");
        self.w.push_probe(self.next_probe, rec)?;
        self.w.out.flush()?;
        self.w.add_times(times.iter().copied());
        self.next_probe += 1;
        Ok(())
    }

    /// Seals the file — footer, trailer, whole-file checksum — and
    /// atomically renames the part over the target. Consumes the writer.
    ///
    /// # Panics
    ///
    /// Panics if the manifest's probe range has not been fully appended:
    /// a partial shard must stay a part file, never become a target.
    pub fn finish(self) -> Result<FileHeader, PersistError> {
        assert_eq!(
            self.next_probe, self.header.manifest.probe_end,
            "finish before the manifest's probe range is complete"
        );
        self.w.seal()?.flush()?;
        fs::rename(&self.part, &self.target)?;
        Ok(self.header)
    }
}
// --------------------------------------------------------------------------
// Streaming readers: random access, verification, shard concatenation
// --------------------------------------------------------------------------

/// Random-access reader over one v3 collection file: opening touches only
/// the header, trailer, footer and meta chunk, and
/// [`read_probe`](Self::read_probe) then decodes exactly one chunk — so
/// replaying a single probe from a full-size corpus costs O(chunk)
/// memory, not O(corpus).
///
/// Integrity model: every probe record and every meta-chunk field this
/// reader returns comes from a chunk whose checksum validated and whose
/// frame agreed with its footer index entry. The header, footer and
/// trailer are only checked for consistency, not against a checksum:
/// the whole-file checksum is *not* recomputed (that would cost a full
/// sequential read — use [`verify_stream`] for that).
pub struct ProbeReader {
    src: Source<'static>,
    header: FileHeader,
    chunks: Vec<ChunkEntry>,
    meta: MetaSection,
}

impl ProbeReader {
    /// Opens `path`, validating header, footer, chunk table and the meta
    /// chunk — but no probe chunk. When `expected` is given, the config
    /// fingerprint must match.
    pub fn open(path: &Path, expected: Option<u64>) -> Result<Self, PersistError> {
        let mut src = Source::open(path)?;
        let index = read_index(&mut src, expected)?;
        let (meta, _) = read_meta(&mut src, &index)?;
        Ok(ProbeReader {
            src,
            header: index.header,
            chunks: index.chunks,
            meta,
        })
    }

    /// The file's header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// The footer's chunk index (meta chunk first).
    pub fn chunk_index(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// The run-key axis recorded in the meta chunk.
    pub fn keys(&self) -> &[RunKey] {
        &self.meta.keys
    }

    /// The engine roster recorded in the meta chunk.
    pub fn engine_names(&self) -> &[String] {
        &self.meta.engine_names
    }

    /// The bug catalogue recorded in the meta chunk.
    pub fn catalog(&self) -> &BugCatalog {
        &self.meta.catalog
    }

    /// Reads and decodes the single probe `probe` (absolute index of the
    /// producing pass), touching only its chunk.
    pub fn read_probe(&mut self, probe: u64) -> Result<ProbeRecord, PersistError> {
        let m = &self.header.manifest;
        if probe < m.probe_start || probe >= m.probe_end {
            return Err(PersistError::Shard(format!(
                "probe {probe} is outside this file's {m}"
            )));
        }
        // Probe chunks are sorted by first_probe (validate_chunk_table):
        // the containing chunk is the last one starting at or before it.
        let probes = &self.chunks[1..];
        let i = probes.partition_point(|c| c.first_probe <= probe) - 1;
        let entry = probes[i];
        debug_assert!(probe >= entry.first_probe && probe < entry.probe_end());
        let n_engines = self.meta.engine_names.len();
        let chunk = parse_indexed_chunk(self.src.read(entry.offset, entry.len)?, &entry)?;
        let mut dec = Dec::new(chunk.payload);
        for _ in entry.first_probe..probe {
            dec_probe_record(&mut dec, n_engines)?;
        }
        dec_probe_record(&mut dec, n_engines)
    }
}

/// Verifies a v3 file chunk-by-chunk in O(chunk) memory: header, footer
/// bounds and chunk-table consistency first, then one sequential pass
/// that revalidates every chunk's checksum *and* payload decode against
/// the footer index while folding the whole-file checksum incrementally,
/// finally compared against the stored trailer value. `on_chunk` fires
/// after each chunk validates — tooling uses it for per-chunk status.
/// Returns the header on success.
pub fn verify_stream(
    path: &Path,
    expected: Option<u64>,
    mut on_chunk: impl FnMut(&ChunkEntry),
) -> Result<FileHeader, PersistError> {
    let mut src = Source::open(path)?;
    let index = read_index(&mut src, expected)?;
    let (mut walk, _) = ChunkWalk::start(&mut src, &index)?;
    on_chunk(&index.chunks[0]);
    while let Some((entry, _)) = walk.next(drop)? {
        on_chunk(&entry);
    }
    Ok(index.header)
}

/// One opened shard file of a shard set, with its validated index and
/// decoded meta chunk.
struct OpenShard {
    path: PathBuf,
    src: Source<'static>,
    index: Index,
    meta: MetaSection,
}

/// Names the shard file `path` in the message of a `Corrupt` error.
fn in_shard(path: &Path) -> impl Fn(PersistError) -> PersistError + '_ {
    move |e| match e {
        PersistError::Corrupt(why) => {
            PersistError::Corrupt(format!("shard file {}: {why}", path.display()))
        }
        e => e,
    }
}

/// Opens every shard file of `parts` and validates that together they
/// form one complete pass: matching fingerprint, kind, corpus revision,
/// partition width and identical meta chunks, and probe ranges that are
/// disjoint and cover `0..total_probes`. Any violation is a
/// [`PersistError::Shard`] naming the offending shards and ranges. Input
/// order is irrelevant — the shards come back sorted by probe range.
fn open_shard_set(parts: &[PathBuf]) -> Result<Vec<OpenShard>, PersistError> {
    if parts.is_empty() {
        return Err(PersistError::Shard("no shards to merge".into()));
    }
    let mut opened = Vec::with_capacity(parts.len());
    for path in parts {
        let mut src = Source::open(path)?;
        let index = read_index(&mut src, None).map_err(in_shard(path))?;
        let (meta, _) = read_meta(&mut src, &index).map_err(in_shard(path))?;
        let path = path.clone();
        opened.push(OpenShard {
            path,
            src,
            index,
            meta,
        });
    }
    opened.sort_by_key(|p| {
        let m = p.index.header.manifest;
        (m.probe_start, m.index)
    });
    let (h0, meta0) = (opened[0].index.header, &opened[0].meta);
    let describe = |h: &FileHeader| {
        let (kind, fp, rev) = (h.kind, h.fingerprint, h.corpus_revision);
        format!("{kind} {fp:016x} rev {rev}, {}", h.manifest)
    };
    let partition = |h: &FileHeader| (h.manifest.count, h.manifest.total_probes);
    for p in &opened[1..] {
        let h = &p.index.header;
        let checks = [
            ("fingerprint", h.fingerprint != h0.fingerprint),
            ("experiment kind", h.kind != h0.kind),
            ("corpus revision", h.corpus_revision != h0.corpus_revision),
            ("partition", partition(h) != partition(&h0)),
            ("meta chunk (keys, engines, bugs)", p.meta != *meta0),
        ];
        if let Some((what, _)) = checks.into_iter().find(|&(_, differs)| differs) {
            let why = format!("{what} mismatch: {} vs {}", describe(&h0), describe(h));
            return Err(PersistError::Shard(why));
        }
    }
    let expected_shards = h0.manifest.count as usize;
    if opened.len() != expected_shards {
        let have: Vec<u32> = opened
            .iter()
            .map(|p| p.index.header.manifest.index)
            .collect();
        return Err(PersistError::Shard(format!(
            "expected {expected_shards} shards, got {} (indices {have:?})",
            opened.len()
        )));
    }
    let mut cursor = 0u64;
    for p in &opened {
        let m = &p.index.header.manifest;
        if m.probe_start < cursor {
            let why = format!(
                "shard {} overlaps probes {}..{cursor}",
                m.index, m.probe_start
            );
            return Err(PersistError::Shard(why));
        } else if m.probe_start > cursor {
            let why = format!(
                "probes {cursor}..{} missing (next is shard {})",
                m.probe_start, m.index
            );
            return Err(PersistError::Shard(why));
        }
        cursor = m.probe_end;
    }
    if cursor != h0.manifest.total_probes {
        return Err(PersistError::Shard(format!(
            "probes {cursor}..{} missing at the end of the partition",
            h0.manifest.total_probes
        )));
    }
    Ok(opened)
}

/// The header of the full file a validated shard set merges into.
fn merged_header(opened: &[OpenShard]) -> FileHeader {
    let first = opened[0].index.header;
    FileHeader {
        manifest: ShardManifest::full(first.manifest.total_probes as usize),
        ..first
    }
}

/// The validation half of [`merge_shard_files`]: checks that `parts` form
/// one complete, consistent shard set — the same identity and coverage
/// checks the merge runs before it writes a byte — and returns the header
/// the merged file would carry. Reads only headers, footers and meta
/// chunks; pair it with [`verify_stream`] per file to cover every chunk.
pub fn check_shard_set(parts: &[PathBuf]) -> Result<FileHeader, PersistError> {
    open_shard_set(parts).map(|opened| merged_header(&opened))
}

/// Reassembles a full collection file at `out` by **streaming
/// concatenation** of shard files — probe chunks are copied verbatim
/// (their frames carry absolute probe indices and their checksums do not
/// depend on position), with only the footer and trailer rewritten. Each
/// shard is walked like [`verify_stream`] walks it — every chunk checked
/// and decoded, the shard's whole-file checksum compared with its
/// trailer — so a damaged shard fails the merge before anything is
/// published. Peak memory is O(chunk), never O(corpus), and the output
/// is byte-identical to encoding the merged collection directly (engine
/// times sum over shards).
///
/// Because every probe's collection pipeline is deterministic and
/// independent, the merged corpus is identical to the one a
/// single-process pass produces, except for the per-engine wall-clock
/// times. The shard set is validated first ([`check_shard_set`]);
/// publication is atomic (temp + rename).
pub fn merge_shard_files(parts: &[PathBuf], out: &Path) -> Result<FileHeader, PersistError> {
    let mut opened = open_shard_set(parts)?;
    let out_header = merged_header(&opened);
    write_atomically(out, |tmp| {
        let dst = io::BufWriter::new(fs::File::create(tmp)?);
        let mut w = ChunkWriter::start(dst, &out_header, &opened[0].meta)?;
        for p in &mut opened {
            let (mut walk, _) =
                ChunkWalk::start(&mut p.src, &p.index).map_err(in_shard(&p.path))?;
            while let Some((entry, bytes)) = walk.next(drop).map_err(in_shard(&p.path))? {
                w.copy(&entry, bytes)?;
            }
            w.add_times(p.index.times.iter().copied());
        }
        Ok(w.seal()?.flush()?)
    })?;
    Ok(out_header)
}

// --------------------------------------------------------------------------
// Files and front doors
// --------------------------------------------------------------------------

/// A sibling temp path unique per process and call, for atomic
/// write-then-rename publication ([`is_temp_file_name`] grammar).
fn temp_sibling(path: &Path) -> PathBuf {
    // Unique per process and call: concurrent savers of the same path must
    // not clobber each other's in-flight temp file — last rename wins with
    // a complete file.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    path.with_extension(format!("{FILE_EXTENSION}.{}-{seq}.tmp", std::process::id()))
}

/// Publishes `path` atomically: `write` fills a sibling temp file, which
/// is then renamed over `path`. On any failure the temp file is removed,
/// so readers see the old file or the complete new one, never a part.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let tmp = temp_sibling(path);
    let result = write(&tmp).and_then(|()| Ok(fs::rename(&tmp, path)?));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Saves an encoded collection to `path` (atomically: write to a sibling
/// temp file, then rename).
fn save_bytes(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    write_atomically(path, |tmp| Ok(fs::write(tmp, bytes)?))
}

/// Saves a full core-experiment collection to `path` (atomically), tagged
/// with `fingerprint`.
pub fn save_collection(
    path: &Path,
    col: &Collection,
    fingerprint: u64,
) -> Result<(), PersistError> {
    save_bytes(path, &encode_collection(col, fingerprint))
}

/// Loads a full collection from `path`, rejecting version, checksum and
/// fingerprint mismatches, and shard files.
pub fn load_collection(path: &Path, fingerprint: u64) -> Result<Collection, PersistError> {
    let bytes = fs::read(path)?;
    decode_collection(&bytes, fingerprint)
}

/// How [`collect_or_load`] obtained its collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The cache file existed and was replayed without simulating.
    Replayed,
    /// The collection was assembled from a complete set of shard files
    /// (and the merged result saved) without simulating.
    Assembled,
    /// The collection was freshly simulated and saved to the cache file.
    Collected,
}

/// Scans `dir` for shard files of the pass identified by `(prefix, kind,
/// fingerprint)` and returns the first complete partition's paths in
/// shard-index order. `Ok(None)` when no group is complete — other worker
/// processes may still be collecting.
///
/// Candidates are selected **by file name** ([`shard_file_name`]
/// grammar): only names whose prefix (when `prefix` is given), kind and
/// fingerprint segments match are even opened, and then only their fixed
/// header is read, so foreign `.pbcol` files — including other targets'
/// shards under a shared directory and large full corpora — cost nothing.
/// A candidate whose header fails to decode, or disagrees with its name,
/// is an error — like a stale cache, never silently ignored.
///
/// Shards are grouped by their partition's shard count (a crashed
/// `n`-way pass may leave stale shards beside a complete `m`-way one);
/// a group is complete when it holds every shard index once.
fn complete_shard_group(
    dir: &Path,
    prefix: Option<&str>,
    kind: ExperimentKind,
    fingerprint: u64,
) -> Result<Option<Vec<PathBuf>>, PersistError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut groups: BTreeMap<u32, BTreeMap<u32, PathBuf>> = BTreeMap::new();
    for entry in entries {
        let path = entry?.path();
        let parsed = match path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_cache_file_name)
        {
            Some(parsed) => parsed,
            None => continue,
        };
        if parsed.kind != kind
            || parsed.fingerprint != fingerprint
            || parsed.shard.is_none()
            || prefix.is_some_and(|p| parsed.prefix != p)
        {
            continue;
        }
        let mut src = match Source::open(&path) {
            Ok(src) => src,
            // Pruned or still being renamed into place: not ours to judge.
            Err(PersistError::Io(e)) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let corrupt =
            |e: PersistError| PersistError::Corrupt(format!("shard file {}: {e}", path.display()));
        let header = src.header().map_err(corrupt)?;
        if header.fingerprint != fingerprint {
            return Err(corrupt(PersistError::Fingerprint {
                found: header.fingerprint,
                expected: fingerprint,
            }));
        }
        if header.kind != kind
            || parsed.shard != Some((header.manifest.index, header.manifest.count))
        {
            return Err(PersistError::Shard(format!(
                "{} is named for a different shard than its header ({})",
                path.display(),
                header.manifest
            )));
        }
        groups
            .entry(header.manifest.count)
            .or_default()
            .insert(header.manifest.index, path);
    }
    // An incomplete group's workers may still be running; try the next
    // partition width.
    Ok(groups
        .into_iter()
        .find(|(count, members)| members.len() == *count as usize)
        .map(|(_, members)| members.into_values().collect()))
}

/// Replays `path` when it exists, otherwise tries to assemble the corpus
/// from shard files beside it (saving the merged result to `path`).
/// When `path`'s file name follows the [`cache_file_name`] grammar, only
/// shards sharing its prefix are considered, so targets with identical
/// configurations never cross-assemble in a shared directory. Returns
/// `Ok(None)` on a genuine cache miss — a stale or corrupt cache is
/// still an error.
///
/// A complete shard set assembles by [`merge_shard_files`] — streaming
/// concatenation in O(chunk) memory — and the merged file is then decoded
/// once as its validation pass.
pub fn load_or_assemble(
    path: &Path,
    kind: ExperimentKind,
    fingerprint: u64,
) -> Result<Option<(Collection, CacheStatus)>, PersistError> {
    // Attempt the load directly rather than probing `exists()` first: a
    // file pruned between probe and read must fall back to assembling,
    // not surface as an i/o error.
    match load_collection(path, fingerprint) {
        Ok(col) => return Ok(Some((col, CacheStatus::Replayed))),
        Err(PersistError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let parsed = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_cache_file_name);
    let prefix = parsed.as_ref().map(|p| p.prefix.as_str());
    let Some(paths) = complete_shard_group(dir, prefix, kind, fingerprint)? else {
        return Ok(None);
    };
    merge_shard_files(&paths, path)?;
    // The full decode of the merged file is its validation pass; on
    // failure, remove the output so a bad merge is never replayed.
    match load_collection(path, fingerprint) {
        Ok(col) => Ok(Some((col, CacheStatus::Assembled))),
        Err(e) => {
            let _ = fs::remove_file(path);
            Err(e)
        }
    }
}

/// Front door for cached collections of any experiment: replays `path`
/// when it exists (validating its fingerprint against `config` — a stale
/// file is an error, never silently re-collected), assembles it from a
/// complete set of sibling shard files when it does not, and otherwise
/// collects the pass and saves the result.
pub fn collect_or_load(
    path: &Path,
    config: &dyn Experiment,
) -> Result<(Collection, CacheStatus), PersistError> {
    let fingerprint = config_fingerprint(config);
    if let Some(hit) = load_or_assemble(path, config.kind(), fingerprint)? {
        return Ok(hit);
    }
    // Collect through the resumable streaming writer even for a full
    // pass: an interrupted single-process collection leaves a part file
    // a later run continues from instead of starting over.
    let outcome = collect_shard_or_resume(path, config, ShardSpec::full())?;
    Ok((outcome.collection, outcome.status))
}

/// [`collect_or_load`] under its memory-experiment name.
pub use self::collect_or_load as collect_memory_or_load;

/// How a shard-worker front door obtained its collection, plus how much
/// previously collected work a resumed attempt salvaged.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard's collection.
    pub collection: Collection,
    /// Replayed from the finished file, or freshly collected.
    pub status: CacheStatus,
    /// Probes recovered from a crashed attempt's part file and *not*
    /// re-collected (0 for a fresh or replayed pass).
    pub resumed_probes: u64,
}

/// Shard-worker front door: replays the shard file for `shard` when it
/// exists (validating fingerprint and manifest); otherwise collects the
/// shard through a [`ShardStreamWriter`] — resuming from a crashed
/// attempt's durable part-file prefix when one exists — and finally
/// replays the finished file as its validation pass. `path` is the shard
/// file itself (see [`shard_file_name`]).
pub fn collect_shard_or_resume(
    path: &Path,
    config: &dyn Experiment,
    shard: ShardSpec,
) -> Result<ShardOutcome, PersistError> {
    let fingerprint = config_fingerprint(config);
    let (status, resumed_probes, bytes) = match fs::read(path) {
        Ok(bytes) => (CacheStatus::Replayed, 0, bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let pass = PreparedPass::new(config);
            let identity = &pass.identity;
            let header = FileHeader {
                kind: config.kind(),
                corpus_revision: CORPUS_REVISION,
                fingerprint,
                manifest: ShardManifest::of(shard, identity.total_probes),
            };
            let mut writer = ShardStreamWriter::create_or_resume(
                path,
                &header,
                &identity.keys,
                &identity.engine_names,
                &identity.catalog,
            )?;
            let resumed = writer.resumed_probes();
            pass.stream(shard, resumed as usize, |meta, output| {
                append_probe_output(&mut writer, meta, output)
            })?;
            writer.finish()?;
            (CacheStatus::Collected, resumed, fs::read(path)?)
        }
        Err(e) => return Err(e.into()),
    };
    // Replaying the file is also the validation pass of a fresh one:
    // every chunk — recovered or new — decodes under a reader's checks.
    let (collection, header) = decode_collection_with(&bytes, Some(fingerprint))?;
    let m = header.manifest;
    if m.index as usize != shard.index || m.count as usize != shard.count {
        return Err(PersistError::Shard(format!(
            "{} holds {m}, expected shard {}/{}",
            path.display(),
            shard.index,
            shard.count
        )));
    }
    Ok(ShardOutcome {
        collection,
        status,
        resumed_probes,
    })
}

/// Appends one streamed probe result to a shard writer: flattens the
/// per-engine outputs into a [`ProbeRecord`] (delta rows and captures in
/// roster order) and accumulates the per-engine timings.
pub fn append_probe_output(
    writer: &mut ShardStreamWriter,
    meta: ProbeMeta,
    output: crate::exec::ProbeOutput,
) -> Result<(), PersistError> {
    let times: Vec<(Duration, Duration)> = output
        .engines
        .iter()
        .map(|e| (e.train_time, e.infer_time))
        .collect();
    let mut deltas = Vec::with_capacity(output.engines.len());
    let mut captures = Vec::new();
    for engine in output.engines {
        deltas.push(engine.deltas);
        captures.extend(engine.captures);
    }
    let rec = ProbeRecord {
        meta,
        overall: output.overall,
        agg: output.agg,
        deltas,
        captures,
    };
    writer.append_probe(&rec, &times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::CollectionConfig;

    fn sample_collection() -> Collection {
        Collection {
            keys: vec![
                RunKey {
                    arch: "Skylake".into(),
                    set: ArchSet::IV,
                    bug: None,
                },
                RunKey {
                    arch: "Skylake".into(),
                    set: ArchSet::IV,
                    bug: Some(1),
                },
            ],
            probes: vec![ProbeMeta {
                id: "458.sjeng#0".into(),
                benchmark: "458.sjeng".into(),
                weight: 0.625,
            }],
            engines: vec![EngineResult {
                name: "GBT-250".into(),
                deltas: vec![vec![0.25, 17.5]],
                train_time: Duration::new(3, 250_000_000),
                infer_time: Duration::from_millis(42),
            }],
            overall_ipc: vec![vec![1.75, 1.5]],
            agg_features: vec![vec![vec![0.5, -1.0], vec![0.25, f64::MIN_POSITIVE]]],
            captures: vec![CapturedSeries {
                probe_id: "458.sjeng#0".into(),
                arch: "Skylake".into(),
                bug: Some(1),
                engine: "GBT-250".into(),
                simulated: vec![1.0, 2.0],
                inferred: vec![1.0, 1.75],
            }],
            catalog: BugCatalog::core_small(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let col = sample_collection();
        let bytes = encode_collection(&col, 7);
        let back = decode_collection(&bytes, 7).expect("round trip");
        assert_eq!(back, col);
    }

    #[test]
    fn encoding_is_deterministic() {
        let col = sample_collection();
        assert_eq!(encode_collection(&col, 9), encode_collection(&col, 9));
    }

    #[test]
    fn full_catalogue_round_trips() {
        let mut col = sample_collection();
        col.catalog = BugCatalog::core_full();
        let bytes = encode_collection(&col, 0);
        assert_eq!(decode_collection(&bytes, 0).unwrap().catalog, col.catalog);
    }

    #[test]
    fn every_opcode_round_trips() {
        for (code, op) in ALL_OPCODES.into_iter().enumerate() {
            let mut enc = Enc::new();
            enc_opcode(&mut enc, op);
            assert_eq!(
                enc.buf,
                [code as u8],
                "{op:?} must encode as its table index"
            );
            assert_eq!(dec_opcode(&mut Dec::new(&enc.buf)).unwrap(), op);
        }
        let past_end = [ALL_OPCODES.len() as u8];
        assert!(matches!(
            dec_opcode(&mut Dec::new(&past_end)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let bytes = encode_collection(&sample_collection(), 7);
        match decode_collection(&bytes, 8) {
            Err(PersistError::Fingerprint {
                found: 7,
                expected: 8,
            }) => {}
            other => panic!("expected fingerprint error, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode_collection(&sample_collection(), 7);
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Re-seal the checksum so only the version differs.
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        match decode_collection(&bytes, 7) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let col = sample_collection();
        let bytes = encode_collection(&col, 7);
        // Flipping any single byte must fail decoding (magic, version,
        // checksum or fingerprint mismatch — never a silent wrong read).
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_collection(&bad, 7).is_err(), "byte {i} undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_collection(&sample_collection(), 7);
        for n in (0..bytes.len()).step_by(9) {
            assert!(decode_collection(&bytes[..n], 7).is_err(), "len {n}");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode_collection(&sample_collection(), 7);
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(decode_collection(&bytes, 7).is_err());
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_shape() {
        let base = CollectionConfig::new(
            vec![crate::stage1::EngineSpec::gbt250()],
            BugCatalog::core_small(),
        );
        let mut other_threads = base.clone();
        other_threads.threads = base.threads + 3;
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&other_threads)
        );

        let mut other_window = base.clone();
        other_window.window = base.window + 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_window));

        let mut other_probes = base.clone();
        other_probes.max_probes = Some(3);
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_probes));
    }

    #[test]
    fn cache_file_name_embeds_kind_and_fingerprint() {
        assert_eq!(
            cache_file_name("fig08", ExperimentKind::Core, 0xdead_beef),
            "fig08-core-00000000deadbeef.pbcol"
        );
        assert_eq!(
            cache_file_name("fig08", ExperimentKind::Memory, 0xdead_beef),
            "fig08-mem-00000000deadbeef.pbcol"
        );
    }

    #[test]
    fn shard_file_name_round_trips_through_parse() {
        let name = shard_file_name("table07-x", ExperimentKind::Memory, 0xfeed, 3, 16);
        assert_eq!(name, "table07-x-mem-000000000000feed-s0003of0016.pbcol");
        let parsed = parse_cache_file_name(&name).expect("parse");
        assert_eq!(parsed.prefix, "table07-x");
        assert_eq!(parsed.kind, ExperimentKind::Memory);
        assert_eq!(parsed.fingerprint, 0xfeed);
        assert_eq!(parsed.shard, Some((3, 16)));

        let full = cache_file_name("speed-test", ExperimentKind::Core, 1);
        let parsed = parse_cache_file_name(&full).expect("parse");
        assert_eq!(parsed.prefix, "speed-test");
        assert_eq!(parsed.kind, ExperimentKind::Core);
        assert_eq!(parsed.shard, None);
    }

    #[test]
    fn parse_rejects_foreign_names() {
        for name in [
            "fig08-00000000deadbeef.pbcol",     // v1-era: no kind segment
            "fig08-core-deadbeef.pbcol",        // short fingerprint
            "fig08-cpu-00000000deadbeef.pbcol", // unknown kind
            "notes.txt",
            "-core-00000000deadbeef.pbcol", // empty prefix
        ] {
            assert!(parse_cache_file_name(name).is_none(), "{name}");
        }
    }

    fn shard_header(index: u32, count: u32, start: u64, end: u64, total: u64) -> FileHeader {
        FileHeader {
            kind: ExperimentKind::Core,
            corpus_revision: CORPUS_REVISION,
            fingerprint: 7,
            manifest: ShardManifest {
                index,
                count,
                probe_start: start,
                probe_end: end,
                total_probes: total,
            },
        }
    }

    /// A one-probe collection whose probe id embeds `tag`, suitable as one
    /// shard of a two-probe pass.
    fn shard_part(tag: usize) -> Collection {
        let mut col = sample_collection();
        col.probes[0].id = format!("458.sjeng#{tag}");
        col.captures.clear();
        col
    }

    #[test]
    fn shard_encode_decode_round_trips() {
        let col = shard_part(1);
        let header = shard_header(1, 2, 1, 2, 2);
        let bytes = encode_collection_with(&col, &header);
        assert_eq!(read_header(&bytes).expect("header"), header);
        let (back, back_header) = decode_collection_with(&bytes, Some(7)).expect("decode");
        assert_eq!(back, col);
        assert_eq!(back_header, header);
        // The full-load path must refuse the shard.
        assert!(matches!(
            decode_collection(&bytes, 7),
            Err(PersistError::Shard(_))
        ));
    }

    /// A scratch directory unique to this test process and `tag`.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbug-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Saves `col` under `header` as a shard file named for `prefix` in
    /// `dir` and returns its path.
    fn save_shard(dir: &Path, prefix: &str, col: &Collection, header: &FileHeader) -> PathBuf {
        let m = &header.manifest;
        let path = dir.join(shard_file_name(
            prefix,
            header.kind,
            header.fingerprint,
            m.index as usize,
            m.count as usize,
        ));
        save_bytes(&path, &encode_collection_with(col, header)).expect("save shard");
        path
    }

    #[test]
    fn merge_reassembles_partition_in_any_order() {
        let dir = scratch("merge-order");
        let parts = vec![
            save_shard(&dir, "a", &shard_part(1), &shard_header(1, 2, 1, 2, 2)),
            save_shard(&dir, "a", &shard_part(0), &shard_header(0, 2, 0, 1, 2)),
        ];
        let out = dir.join("merged.pbcol");
        let header = merge_shard_files(&parts, &out).expect("merge");
        assert!(header.manifest.is_full());
        assert_eq!(check_shard_set(&parts).expect("check"), header);
        let merged = load_collection(&out, 7).expect("merged file loads");
        assert_eq!(merged.probes.len(), 2);
        assert_eq!(merged.probes[0].id, "458.sjeng#0");
        assert_eq!(merged.probes[1].id, "458.sjeng#1");
        assert_eq!(merged.engines[0].deltas.len(), 2);
        assert_eq!(merged.overall_ipc.len(), 2);
        assert_eq!(
            merged.engines[0].train_time,
            sample_collection().engines[0].train_time * 2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_missing_and_overlapping_shards() {
        let dir = scratch("merge-coverage");
        let out = dir.join("merged.pbcol");
        let first = save_shard(&dir, "a", &shard_part(0), &shard_header(0, 2, 0, 1, 2));
        match merge_shard_files(std::slice::from_ref(&first), &out) {
            Err(PersistError::Shard(msg)) => assert!(msg.contains("expected 2 shards"), "{msg}"),
            other => panic!("expected shard error, got {other:?}"),
        }

        let two = Collection {
            probes: vec![
                shard_part(0).probes[0].clone(),
                shard_part(1).probes[0].clone(),
            ],
            overall_ipc: vec![vec![1.75, 1.5]; 2],
            agg_features: vec![vec![vec![0.5, -1.0]]; 2],
            engines: vec![EngineResult {
                deltas: vec![vec![0.25, 17.5]; 2],
                ..sample_collection().engines[0].clone()
            }],
            ..shard_part(0)
        };
        let wide = save_shard(&dir, "b", &two, &shard_header(0, 2, 0, 2, 2));
        let second = save_shard(&dir, "b", &shard_part(1), &shard_header(1, 2, 1, 2, 2));
        match merge_shard_files(&[wide, second], &out) {
            Err(PersistError::Shard(msg)) => assert!(msg.contains("overlaps"), "{msg}"),
            other => panic!("expected overlap error, got {other:?}"),
        }
        assert!(!out.exists(), "a rejected merge must write nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_identity_mismatches() {
        let dir = scratch("merge-identity");
        let first = save_shard(&dir, "a", &shard_part(0), &shard_header(0, 2, 0, 1, 2));
        let mut other_fp = shard_header(1, 2, 1, 2, 2);
        other_fp.fingerprint = 8;
        let mut other_kind = shard_header(1, 2, 1, 2, 2);
        other_kind.kind = ExperimentKind::Memory;
        let mut other_keys = shard_part(1);
        other_keys.keys[0].arch = "Zen".into();
        let mismatches = [
            save_shard(&dir, "fp", &shard_part(1), &other_fp),
            save_shard(&dir, "kind", &shard_part(1), &other_kind),
            save_shard(&dir, "keys", &other_keys, &shard_header(1, 2, 1, 2, 2)),
        ];
        for (second, why) in mismatches
            .into_iter()
            .zip(["fingerprint", "kind", "meta chunk"])
        {
            let parts = [first.clone(), second];
            match check_shard_set(&parts) {
                Err(PersistError::Shard(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a {why} mismatch, got {other:?}"),
            }
            let out = dir.join("merged.pbcol");
            assert!(matches!(
                merge_shard_files(&parts, &out),
                Err(PersistError::Shard(_))
            ));
            assert!(!out.exists(), "a rejected merge must write nothing");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_a_shard_whose_seal_fails() {
        let dir = scratch("merge-seal");
        let kind = ExperimentKind::Core;
        let first = save_shard(&dir, "a", &shard_part(0), &shard_header(0, 2, 0, 1, 2));
        let second = save_shard(&dir, "a", &shard_part(1), &shard_header(1, 2, 1, 2, 2));
        // Flip the top byte of the last engine's footer `train` seconds:
        // no chunk checksum covers the footer, only the whole-file seal.
        let mut bytes = fs::read(&first).expect("read shard");
        let at = bytes.len() - TRAILER_LEN - 24 + 7;
        bytes[at] ^= 0x01;
        fs::write(&first, &bytes).expect("write shard");

        let out = dir.join("merged.pbcol");
        match merge_shard_files(&[first, second], &out) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected a corrupt-shard error, got {other:?}"),
        }
        assert!(!out.exists(), "a rejected merge must write nothing");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| is_temp_file_name(name))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        let target = dir.join(cache_file_name("a", kind, 7));
        assert!(
            load_or_assemble(&target, kind, 7).is_err(),
            "assembly must not accept a shard whose seal fails"
        );
        assert!(!target.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn assembly_honours_prefix_and_partition_groups() {
        let dir = scratch("assemble");
        let kind = ExperimentKind::Core;
        let target =
            |prefix: &str, fingerprint| dir.join(cache_file_name(prefix, kind, fingerprint));
        // A complete 2-way partition under prefix "a" ...
        save_shard(&dir, "a", &shard_part(0), &shard_header(0, 2, 0, 1, 2));
        save_shard(&dir, "a", &shard_part(1), &shard_header(1, 2, 1, 2, 2));
        // ... plus a stale leftover of an abandoned 4-way pass of the same
        // prefix and fingerprint: it must not block assembly.
        save_shard(&dir, "a", &shard_part(0), &shard_header(0, 4, 0, 1, 2));

        // Another prefix sees none of these shards.
        assert!(load_or_assemble(&target("b", 7), kind, 7)
            .expect("scan")
            .is_none());
        // A wrong fingerprint matches nothing.
        assert!(load_or_assemble(&target("a", 8), kind, 8)
            .expect("scan")
            .is_none());
        // Prefix "a" assembles the complete 2-way group and saves it.
        let (col, status) = load_or_assemble(&target("a", 7), kind, 7)
            .expect("assemble")
            .expect("complete group");
        assert_eq!(status, CacheStatus::Assembled);
        assert_eq!(col.probes.len(), 2);
        let (replayed, status) = load_or_assemble(&target("a", 7), kind, 7)
            .expect("replay")
            .expect("saved");
        assert_eq!(status, CacheStatus::Replayed);
        assert_eq!(replayed, col);

        // A shard file whose name disagrees with its header is an error,
        // never silently used.
        let misnamed = dir.join(shard_file_name("c", kind, 7, 0, 2));
        let bytes = encode_collection_with(&shard_part(1), &shard_header(1, 2, 1, 2, 2));
        save_bytes(&misnamed, &bytes).expect("save");
        assert!(matches!(
            load_or_assemble(&target("c", 7), kind, 7),
            Err(PersistError::Shard(_))
        ));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_read_does_not_validate_checksum() {
        let col = sample_collection();
        let mut bytes = encode_collection(&col, 7);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // corrupt the checksum itself
        assert!(read_header(&bytes).is_ok());
        assert!(decode_collection(&bytes, 7).is_err());
    }
}
