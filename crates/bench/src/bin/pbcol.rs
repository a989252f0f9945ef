//! `pbcol` — offline maintenance CLI for `.pbcol` collection cache files.
//!
//! The collection cache (`PERFBUG_CACHE_DIR`, written by the bench
//! targets through `perfbug_core::persist`) accumulates full and shard
//! files across configurations and code revisions; this tool inspects,
//! verifies, merges and prunes them without ever touching the simulator.
//!
//! ```text
//! pbcol inspect <file>...            dump header + payload shapes + chunk
//!                                    index (for a part file: the durably
//!                                    recoverable prefix)
//! pbcol verify  <file-or-dir>...      chunk-by-chunk validation in O(chunk)
//!                                    memory, then shard-set completeness
//!                                    and mergeability
//! pbcol merge   -o <out> <file>...   merge a shard set into one full file
//! pbcol prune   <dir> [--dry-run]    evict stale cache files + dead temps
//! ```
//!
//! `inspect` also prints the orchestrator's shard-attempt provenance
//! (the `.orchrun.json` run report `pborch` writes beside the cache
//! file) when one is present. `prune` evicts the `*.pbcol.*.tmp`
//! atomic-write temp files a killed writer leaves behind, but keeps
//! `*.pbcol.part.tmp` shard part files whose chunk prefix is still
//! resumable — those are crash-recovery state the shard's next attempt
//! continues from (see `docs/FORMAT.md`).
//!
//! The on-disk format is specified byte-by-byte in `docs/FORMAT.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use perfbug_core::experiment::Collection;
use perfbug_core::orchestrate::{report_path_for, REPORT_EXTENSION};
use perfbug_core::persist::{
    check_shard_set, decode_collection_with, is_part_file_name, is_temp_file_name,
    merge_shard_files, parse_cache_file_name, read_header, scan_part_file, verify_stream,
    ChunkEntry, FileHeader, PersistError, ProbeReader, CORPUS_REVISION, FILE_EXTENSION,
    FORMAT_VERSION,
};
use perfbug_core::serve::is_tenant_dir_name;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "inspect" => inspect(rest),
        "verify" => verify(rest),
        "merge" => merge(rest),
        "prune" => prune(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pbcol: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "pbcol — perfbug collection cache maintenance

USAGE:
    pbcol inspect <file>...            dump header + payload shapes + chunk
                                       index (for a `.part.tmp`: the durably
                                       recoverable prefix), and the
                                       orchestrator run report when present
    pbcol verify  <file-or-dir>...      chunk-by-chunk validation in O(chunk)
                                       memory, then shard-set completeness
                                       and mergeability
    pbcol merge   -o <out> <file>...   merge a shard set into one full file
    pbcol prune   <dir> [--dry-run]    evict stale cache files and dead temp
                                       files; resumable shard parts are kept

The on-disk format is documented in docs/FORMAT.md.";

/// All `.pbcol` files under `path` (or `path` itself when it is a file),
/// sorted for deterministic output.
fn pbcol_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read directory {}: {e}", path.display()))?;
        let mut files = Vec::new();
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().and_then(|e| e.to_str()) == Some(FILE_EXTENSION) {
                files.push(p);
            }
        }
        files.sort();
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

fn read_bytes(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn print_header(header: &FileHeader) {
    println!("  format version:  {FORMAT_VERSION}");
    println!(
        "  corpus revision: {}{}",
        header.corpus_revision,
        if header.corpus_revision == CORPUS_REVISION {
            ""
        } else {
            "  (stale: this build collects under a different revision)"
        }
    );
    println!("  experiment kind: {}", header.kind);
    println!("  fingerprint:     {:016x}", header.fingerprint);
    println!("  coverage:        {}", header.manifest);
}

fn print_shapes(col: &Collection) {
    println!(
        "  payload:         {} probes x {} run keys, {} engines, {} captures, {} bug variants",
        col.probes.len(),
        col.keys.len(),
        col.engines.len(),
        col.captures.len(),
        col.catalog.len()
    );
    for engine in &col.engines {
        println!(
            "    engine {:<12} deltas {}x{}  train {:.2?}  infer {:.2?}",
            engine.name,
            engine.deltas.len(),
            engine.deltas.first().map_or(0, Vec::len),
            engine.train_time,
            engine.infer_time
        );
    }
}

fn inspect(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("inspect needs at least one file".into());
    }
    let mut failed = false;
    for arg in args {
        let path = Path::new(arg);
        println!("{}:", path.display());
        // A `*.pbcol.part.tmp` is a crash-recovery artifact, not a
        // finished file: report its durably recoverable chunk prefix.
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(is_part_file_name)
        {
            match scan_part_file(path) {
                Ok(prefix) => {
                    print_header(&prefix.header);
                    println!(
                        "  in-flight part:  {} probe(s) durably recoverable, {} torn tail byte(s)",
                        prefix.probes, prefix.torn_bytes
                    );
                    print_chunk_index(&prefix.chunks);
                }
                Err(e) => {
                    println!("  in-flight part:  nothing recoverable ({e})");
                    failed = true;
                }
            }
            continue;
        }
        let bytes = read_bytes(path)?;
        let header = match read_header(&bytes) {
            Ok(header) => header,
            Err(e) => {
                println!("  unreadable header: {e}");
                failed = true;
                continue;
            }
        };
        print_header(&header);
        match decode_collection_with(&bytes, None) {
            Ok((col, _)) => print_shapes(&col),
            Err(e) => {
                println!("  payload:         INVALID ({e})");
                failed = true;
            }
        }
        // The chunk/offset index enables O(chunk) random access; surface
        // it so a human can see what `read_probe` would seek to.
        match ProbeReader::open(path, None) {
            Ok(reader) => print_chunk_index(reader.chunk_index()),
            Err(e) => {
                println!("  chunk index:     INVALID ({e})");
                failed = true;
            }
        }
        print_provenance(path);
    }
    if failed {
        Err("one or more files were unreadable".into())
    } else {
        Ok(())
    }
}

/// Prints the chunk/offset index (footer) of a file or part prefix.
fn print_chunk_index(chunks: &[ChunkEntry]) {
    println!("  chunk index:     {} chunk(s)", chunks.len());
    for (i, c) in chunks.iter().enumerate() {
        if c.is_meta() {
            println!(
                "    [{i:>3}] meta    offset {:>8}  len {:>8}  fnv {:016x}",
                c.offset, c.len, c.checksum
            );
        } else {
            println!(
                "    [{i:>3}] probes  offset {:>8}  len {:>8}  fnv {:016x}  probes {}..{}",
                c.offset,
                c.len,
                c.checksum,
                c.first_probe,
                c.probe_end()
            );
        }
    }
}

/// Prints the shard-attempt provenance of an orchestrated pass — the
/// `.orchrun.json` run report `pborch` (or an orchestrated bench target)
/// wrote beside the full cache file — when one is present.
fn print_provenance(path: &Path) {
    let report = report_path_for(path);
    let Ok(json) = std::fs::read_to_string(&report) else {
        return;
    };
    println!(
        "  provenance:      orchestrated pass ({})",
        report.display()
    );
    for line in json.lines() {
        println!("    {line}");
    }
}

/// The shard set a shard file belongs to, keyed exactly as
/// `persist::load_or_assemble` groups its candidates: same directory,
/// name prefix, experiment kind, fingerprint and partition width.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SetKey {
    dir: PathBuf,
    prefix: String,
    kind: &'static str,
    fingerprint: u64,
    count: u32,
}

impl std::fmt::Display for SetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {:016x} in {} ({}-way)",
            self.prefix,
            self.kind,
            self.fingerprint,
            self.dir.display(),
            self.count
        )
    }
}

/// What `verify` concluded about one shard set.
#[derive(Debug)]
enum SetVerdict {
    /// Every shard index is present and the set merges under this header.
    Merges(FileHeader),
    /// Shard indices are missing; these are the ones present.
    Incomplete(Vec<u32>),
    /// Every shard index is present but the set does not merge.
    Fails(String),
}

fn verify(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("verify needs at least one file or directory".into());
    }
    let mut files = Vec::new();
    for arg in args {
        files.extend(pbcol_files(Path::new(arg))?);
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        return Err("no .pbcol files found".into());
    }
    let (errors, _) = verify_files(&files);
    if errors > 0 {
        Err(format!("{errors} file(s)/shard set(s) failed verification"))
    } else {
        Ok(())
    }
}

/// Validates every file chunk-by-chunk with `verify_stream` (O(chunk)
/// memory), checks that its name agrees with its header, then checks
/// each shard set: a set whose every shard index is present must pass
/// `check_shard_set`, the validation `merge_shard_files` runs before it
/// writes. Returns the failure count and the verdict on each shard set.
fn verify_files(files: &[PathBuf]) -> (usize, BTreeMap<SetKey, SetVerdict>) {
    let mut errors = 0usize;
    let mut sets: BTreeMap<SetKey, BTreeMap<u32, PathBuf>> = BTreeMap::new();
    for path in files {
        let mut chunks = 0usize;
        let header = match verify_stream(path, None, |_| chunks += 1) {
            Ok(header) => header,
            Err(e) => {
                println!("FAIL {}: {e}", path.display());
                errors += 1;
                continue;
            }
        };
        // The name must agree with the header — a renamed or hand-copied
        // file would otherwise serve the wrong configuration or shard.
        let parsed = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_cache_file_name);
        let header_shard =
            (!header.manifest.is_full()).then_some((header.manifest.index, header.manifest.count));
        if let Some(parsed) = &parsed {
            if parsed.fingerprint != header.fingerprint
                || parsed.kind != header.kind
                || parsed.shard != header_shard
            {
                println!(
                    "FAIL {}: file name says {} {:016x} shard {:?}, header says {} {:016x} {}",
                    path.display(),
                    parsed.kind,
                    parsed.fingerprint,
                    parsed.shard,
                    header.kind,
                    header.fingerprint,
                    header.manifest
                );
                errors += 1;
                continue;
            }
        }
        if header.manifest.is_full() {
            println!(
                "ok   {}: full, {}, {chunks} chunks",
                path.display(),
                header.manifest
            );
            continue;
        }
        println!(
            "ok   {}: {}, {chunks} chunks",
            path.display(),
            header.manifest
        );
        match parsed {
            Some(parsed) => {
                let key = SetKey {
                    dir: path.parent().map(Path::to_path_buf).unwrap_or_default(),
                    prefix: parsed.prefix,
                    kind: header.kind.as_str(),
                    fingerprint: header.fingerprint,
                    count: header.manifest.count,
                };
                sets.entry(key)
                    .or_default()
                    .insert(header.manifest.index, path.clone());
            }
            None => println!(
                "note {}: not named as a shard file, so no cache load assembles it",
                path.display()
            ),
        }
    }
    let verdicts = sets
        .into_iter()
        .map(|(key, members)| {
            let verdict = if members.len() < key.count as usize {
                SetVerdict::Incomplete(members.into_keys().collect())
            } else {
                let paths: Vec<PathBuf> = members.into_values().collect();
                match check_shard_set(&paths) {
                    Ok(header) => SetVerdict::Merges(header),
                    Err(e) => SetVerdict::Fails(e.to_string()),
                }
            };
            match &verdict {
                SetVerdict::Merges(header) => println!(
                    "ok   {key}: all {} shards merge into {}",
                    key.count, header.manifest
                ),
                SetVerdict::Incomplete(have) => println!(
                    "note {key}: {}/{} shards present (have {have:?}) — corpus not yet assemblable",
                    have.len(),
                    key.count
                ),
                SetVerdict::Fails(why) => {
                    println!("FAIL {key}: shard set does not merge: {why}");
                    errors += 1;
                }
            }
            (key, verdict)
        })
        .collect();
    (errors, verdicts)
}

fn merge(args: &[String]) -> Result<(), String> {
    let mut out: Option<PathBuf> = None;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => {
                let value = it.next().ok_or("-o needs a path")?;
                out = Some(PathBuf::from(value));
            }
            _ => inputs.push(PathBuf::from(arg)),
        }
    }
    let out = out.ok_or("merge needs -o <out-file>")?;
    if inputs.len() < 2 {
        return Err("merge needs at least two shard files".into());
    }
    let header = merge_shard_files(&inputs, &out).map_err(|e| e.to_string())?;
    println!(
        "merged {} shards into {} ({} probes, fingerprint {:016x})",
        inputs.len(),
        out.display(),
        header.manifest.total_probes,
        header.fingerprint
    );
    Ok(())
}

/// Why `prune` evicts a file; `None` means the file is kept.
fn stale_reason(path: &Path, bytes: &[u8]) -> Option<String> {
    let header = match read_header(bytes) {
        Ok(h) => h,
        Err(PersistError::Version { found, expected }) => {
            return Some(format!(
                "format version {found} (this build reads {expected})"
            ));
        }
        Err(e) => return Some(format!("unreadable header: {e}")),
    };
    if header.corpus_revision != CORPUS_REVISION {
        return Some(format!(
            "corpus revision {} (this build collects under {CORPUS_REVISION})",
            header.corpus_revision
        ));
    }
    if let Err(e) = decode_collection_with(bytes, None) {
        return Some(format!("corrupt payload: {e}"));
    }
    if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
        if let Some(parsed) = parse_cache_file_name(name) {
            if parsed.fingerprint != header.fingerprint || parsed.kind != header.kind {
                return Some(format!(
                    "stale fingerprint: name says {} {:016x}, header says {} {:016x}",
                    parsed.kind, parsed.fingerprint, header.kind, header.fingerprint
                ));
            }
            let header_shard = (!header.manifest.is_full())
                .then_some((header.manifest.index, header.manifest.count));
            if parsed.shard != header_shard {
                return Some(format!(
                    "stale shard name: name says shard {:?}, header says {}",
                    parsed.shard, header.manifest
                ));
            }
        }
    }
    None
}

/// A `*.pbcol.*.tmp` in-flight temp file this old is orphaned: writers
/// produce one with a single `fs::write` immediately followed by a
/// rename, so no healthy writer holds one open for minutes — only a
/// worker that was killed (or crashed) mid-write leaves one behind.
const ORPHAN_TEMP_AGE: Duration = Duration::from_secs(15 * 60);

/// The atomic-write temp files under `dir` (see
/// `persist::is_temp_file_name`), sorted for deterministic output.
fn temp_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let p = entry.map_err(|e| e.to_string())?.path();
        if p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(is_temp_file_name)
        {
            files.push(p);
        }
    }
    files.sort();
    Ok(files)
}

/// The orchestrator run reports (`*.orchrun.json`) under `dir`, sorted
/// for deterministic output.
fn report_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let p = entry.map_err(|e| e.to_string())?.path();
        if p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(&format!(".{REPORT_EXTENSION}")))
        {
            files.push(p);
        }
    }
    files.sort();
    Ok(files)
}

/// Whether a temp file is old enough to be orphaned. A file whose mtime
/// is unreadable or in the future is treated as fresh (kept) — a live
/// writer must never lose its in-flight file.
fn orphaned_temp(path: &Path, min_age: Duration) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        // pblint: allow(wall-clock) -- mtime-age pruning is inherently
        // wall-clock; the result gates file deletion only and never feeds
        // corpus bytes or report state.
        .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
        .is_some_and(|age| age >= min_age)
}

fn prune(args: &[String]) -> Result<(), String> {
    let mut dir: Option<PathBuf> = None;
    let mut dry_run = false;
    for arg in args {
        match arg.as_str() {
            "--dry-run" | "-n" => dry_run = true,
            _ if dir.is_none() => dir = Some(PathBuf::from(arg)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let dir = dir.ok_or("prune needs a cache directory")?;
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    prune_tree(&dir, dry_run, ORPHAN_TEMP_AGE)
}

/// Prunes `dir` itself, then every per-fingerprint tenant subdirectory
/// (`<16 hex digits>/`, the multi-tenant store layout `pbserve` keeps).
/// Each tenant is pruned *independently* — mtime gating and orphan
/// reasoning never mix files across tenant boundaries, so one tenant's
/// stale leftovers can never strand (or take down) another tenant's
/// complete shard set. Non-tenant subdirectories are left alone.
fn prune_tree(dir: &Path, dry_run: bool, temp_age: Duration) -> Result<(), String> {
    prune_dir(dir, dry_run, temp_age)?;
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut tenants = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() && entry.file_name().to_str().is_some_and(is_tenant_dir_name) {
            tenants.push(path);
        }
    }
    tenants.sort();
    for tenant in tenants {
        println!("tenant {}:", tenant.display());
        prune_dir(&tenant, dry_run, temp_age)?;
    }
    Ok(())
}

fn prune_dir(dir: &Path, dry_run: bool, temp_age: Duration) -> Result<(), String> {
    let mut kept = 0usize;
    let mut evicted = 0usize;
    let mut evict = |path: &Path, reason: &str| -> Result<(), String> {
        evicted += 1;
        if dry_run {
            println!("would evict {}: {reason}", path.display());
        } else {
            std::fs::remove_file(path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            println!("evicted {}: {reason}", path.display());
        }
        Ok(())
    };
    for path in pbcol_files(dir)? {
        let bytes = read_bytes(&path)?;
        match stale_reason(&path, &bytes) {
            None => kept += 1,
            Some(reason) => evict(&path, &reason)?,
        }
    }
    for path in temp_files(dir)? {
        // A shard part file (`*.pbcol.part.tmp`) with a valid chunk
        // prefix is crash-recovery state, not garbage: the next attempt
        // of its shard resumes from it instead of re-collecting. Only a
        // part with nothing durably recoverable is a dead orphan.
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(is_part_file_name)
        {
            if let Ok(prefix) = scan_part_file(&path) {
                if prefix.probes > 0 {
                    kept += 1;
                    println!(
                        "kept {}: resumable part ({} probe(s) durable; the shard's next \
                         attempt resumes from it)",
                        path.display(),
                        prefix.probes
                    );
                    continue;
                }
            }
            if orphaned_temp(&path, temp_age) {
                evict(
                    &path,
                    "dead part file (no durably recoverable probes, writer gone)",
                )?;
            } else {
                kept += 1;
            }
            continue;
        }
        if orphaned_temp(&path, temp_age) {
            evict(&path, "orphaned in-flight temp file (writer died mid-save)")?;
        } else {
            kept += 1;
        }
    }
    // Run reports whose corpus is gone (evicted above, or pruned in an
    // earlier pass) are stale provenance: without this, `pbcol inspect`
    // could attribute a later re-collected corpus to the old pass.
    for path in report_files(dir)? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let stem = name
            .strip_suffix(&format!(".{REPORT_EXTENSION}"))
            .unwrap_or(name);
        if path
            .with_file_name(format!("{stem}.{FILE_EXTENSION}"))
            .exists()
        {
            kept += 1;
        } else {
            evict(&path, "orphaned run report (its corpus is gone)")?;
        }
    }
    println!(
        "{} file(s) kept, {} {}",
        kept,
        evicted,
        if dry_run {
            "would be evicted"
        } else {
            "evicted"
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbug_core::experiment::{ProbeMeta, RunKey};
    use perfbug_core::persist::{
        cache_file_name, fnv1a, load_or_assemble, part_path_for, shard_file_name, ProbeRecord,
        ShardManifest, ShardStreamWriter,
    };
    use perfbug_core::{ExperimentKind, ShardSpec};

    /// A scratch directory unique to this test process.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbcol-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn prune_evicts_only_orphaned_temps() {
        let dir = scratch("prune-temps");
        let old = dir.join("demo-core-00ff.pbcol.123-0.tmp");
        let fresh = dir.join("demo-core-00ff.pbcol.123-1.tmp");
        let unrelated = dir.join("notes.tmp"); // not our grammar: kept
        for p in [&old, &fresh, &unrelated] {
            std::fs::write(p, b"junk").expect("write");
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&old)
            .expect("open");
        file.set_modified(std::time::SystemTime::UNIX_EPOCH)
            .expect("set mtime");
        drop(file);

        prune_dir(&dir, false, ORPHAN_TEMP_AGE).expect("prune");
        assert!(!old.exists(), "orphaned temp must be evicted");
        assert!(
            fresh.exists(),
            "fresh temp must survive (writer may be live)"
        );
        assert!(
            unrelated.exists(),
            "foreign .tmp files are not ours to touch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_recurses_into_tenant_subdirectories_independently() {
        let root = scratch("prune-tenants");
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        let age = |p: &Path| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(p)
                .expect("open")
                .set_modified(epoch)
                .expect("set mtime");
        };
        // Tenant A: an ancient orphaned temp and an orphaned run report.
        let tenant_a = root.join("00000000deadbeef");
        std::fs::create_dir_all(&tenant_a).expect("tenant a");
        let a_temp = tenant_a.join("demo-core-00ff.pbcol.123-0.tmp");
        std::fs::write(&a_temp, b"junk").expect("write");
        age(&a_temp);
        let a_report = tenant_a.join("demo-core-00ff.orchrun.json");
        std::fs::write(&a_report, b"{}").expect("write");
        // Tenant B: a fresh temp (live writer) that must survive A's rot.
        let tenant_b = root.join("00000000feedc0de");
        std::fs::create_dir_all(&tenant_b).expect("tenant b");
        let b_temp = tenant_b.join("demo-core-00aa.pbcol.456-0.tmp");
        std::fs::write(&b_temp, b"junk").expect("write");
        // Root level: an old orphan of its own, plus a non-tenant subdir
        // prune must not descend into.
        let root_temp = root.join("demo-core-0011.pbcol.789-0.tmp");
        std::fs::write(&root_temp, b"junk").expect("write");
        age(&root_temp);
        let foreign = root.join("not-a-tenant");
        std::fs::create_dir_all(&foreign).expect("foreign dir");
        let foreign_temp = foreign.join("demo-core-0022.pbcol.999-0.tmp");
        std::fs::write(&foreign_temp, b"junk").expect("write");
        age(&foreign_temp);

        prune_tree(&root, true, ORPHAN_TEMP_AGE).expect("dry run");
        assert!(
            a_temp.exists() && a_report.exists(),
            "dry run deletes nothing"
        );

        prune_tree(&root, false, ORPHAN_TEMP_AGE).expect("prune");
        assert!(!a_temp.exists(), "tenant A's orphaned temp must be evicted");
        assert!(
            !a_report.exists(),
            "tenant A's orphaned report must be evicted"
        );
        assert!(b_temp.exists(), "tenant B's fresh temp must survive");
        assert!(!root_temp.exists(), "root-level orphan must be evicted");
        assert!(
            foreign_temp.exists(),
            "non-tenant subdirectories are not ours to touch"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn prune_evicts_reports_whose_corpus_is_gone() {
        let dir = scratch("prune-reports");
        // Orphaned outright: no sibling corpus.
        let orphan = dir.join("old-core-00ff.orchrun.json");
        // Orphaned by cascade: its sibling corpus is corrupt (empty), so
        // the corpus is evicted first and the report follows in the same
        // pass.
        let cascade = dir.join("demo-core-00aa.orchrun.json");
        let corrupt_corpus = dir.join("demo-core-00aa.pbcol");
        for p in [&orphan, &cascade] {
            std::fs::write(p, b"{}").expect("write report");
        }
        std::fs::write(&corrupt_corpus, b"").expect("write corrupt corpus");

        prune_dir(&dir, true, ORPHAN_TEMP_AGE).expect("prune dry run");
        assert!(
            orphan.exists() && cascade.exists(),
            "dry run deletes nothing"
        );

        prune_dir(&dir, false, ORPHAN_TEMP_AGE).expect("prune");
        assert!(!orphan.exists(), "orphaned report must be evicted");
        assert!(!corrupt_corpus.exists(), "corrupt corpus must be evicted");
        assert!(
            !cascade.exists(),
            "a report orphaned by its corpus's eviction goes with it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_resumable_parts_and_evicts_dead_ones() {
        let dir = scratch("prune-parts");
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        let age = |p: &Path| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(p)
                .expect("open")
                .set_modified(epoch)
                .expect("set mtime");
        };

        // A part with no recoverable chunk prefix is a dead orphan.
        let dead = dir.join("demo-core-00ff.pbcol.part.tmp");
        std::fs::write(&dead, b"junk").expect("write");
        age(&dead);

        // A part with one durable probe chunk is resumable and must
        // survive prune no matter how old it is.
        let target = dir.join("live-core-00aa.pbcol");
        let mut writer = open_writer(&target, ShardManifest::full(2), "Skylake");
        writer
            .append_probe(&probe_record(0), &[(Duration::ZERO, Duration::ZERO)])
            .expect("append");
        drop(writer); // unfinished on purpose: the part IS the artifact
        let resumable = part_path_for(&target);
        assert!(resumable.exists());
        age(&resumable);

        prune_dir(&dir, false, ORPHAN_TEMP_AGE).expect("prune");
        assert!(!dead.exists(), "dead part must be evicted");
        assert!(resumable.exists(), "resumable part must be kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fingerprint of the hand-built test corpora.
    const FP: u64 = 0xaa;

    /// A shard writer for `target` whose single run key names `arch`, so
    /// two writers differing only in `arch` disagree on the meta chunk.
    fn open_writer(target: &Path, manifest: ShardManifest, arch: &str) -> ShardStreamWriter {
        let header = FileHeader {
            kind: ExperimentKind::Core,
            corpus_revision: CORPUS_REVISION,
            fingerprint: FP,
            manifest,
        };
        let keys = [RunKey {
            arch: arch.into(),
            set: perfbug_uarch::ArchSet::IV,
            bug: None,
        }];
        let catalog = perfbug_core::BugCatalog::core_small();
        ShardStreamWriter::create_or_resume(target, &header, &keys, &["GBT-0".into()], &catalog)
            .expect("writer")
    }

    /// The one-key, one-engine record of probe `i`.
    fn probe_record(i: u64) -> ProbeRecord {
        ProbeRecord {
            meta: ProbeMeta {
                id: format!("bench#{i}"),
                benchmark: "bench".into(),
                weight: 1.0,
            },
            overall: vec![1.0],
            agg: vec![vec![0.5]],
            deltas: vec![vec![0.25]],
            captures: Vec::new(),
        }
    }

    /// Writes shard `index` of a `count`-way, `count`-probe pass (one
    /// probe per shard) as `<prefix>-core-<FP>-s<index>of<count>.pbcol`.
    fn write_shard(dir: &Path, prefix: &str, index: usize, count: usize, arch: &str) -> PathBuf {
        let path = dir.join(shard_file_name(
            prefix,
            ExperimentKind::Core,
            FP,
            index,
            count,
        ));
        let manifest = ShardManifest::of(ShardSpec::new(index, count), count);
        let mut writer = open_writer(&path, manifest, arch);
        writer
            .append_probe(
                &probe_record(index as u64),
                &[(Duration::ZERO, Duration::ZERO)],
            )
            .expect("append");
        writer.finish().expect("finish");
        path
    }

    #[test]
    fn verify_counts_shard_indices_per_prefix() {
        // Shard 0 of a 2-way pass, plus the same file copied under another
        // prefix: two files, but shard 1 is missing from both sets.
        let dir = scratch("verify-incomplete");
        let shard = write_shard(&dir, "replay-demo", 0, 2, "Skylake");
        let copy = dir.join(shard_file_name("other", ExperimentKind::Core, FP, 0, 2));
        std::fs::copy(&shard, &copy).expect("copy");

        let (errors, sets) = verify_files(&pbcol_files(&dir).expect("list"));
        assert_eq!(errors, 0, "an incomplete set is a note, not a failure");
        assert_eq!(sets.len(), 2, "each prefix is its own shard set");
        for (key, verdict) in &sets {
            assert!(
                matches!(verdict, SetVerdict::Incomplete(have) if have == &[0]),
                "{key} must not be reported complete: {verdict:?}"
            );
        }
        let target = dir.join(cache_file_name("replay-demo", ExperimentKind::Core, FP));
        assert!(
            load_or_assemble(&target, ExperimentKind::Core, FP)
                .expect("scan")
                .is_none(),
            "the cache load agrees: nothing to assemble"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_passes_a_complete_shard_set() {
        let dir = scratch("verify-complete");
        for index in 0..2 {
            write_shard(&dir, "demo", index, 2, "Skylake");
        }
        let (errors, sets) = verify_files(&pbcol_files(&dir).expect("list"));
        assert_eq!(errors, 0);
        let verdicts: Vec<_> = sets.values().collect();
        match verdicts.as_slice() {
            [SetVerdict::Merges(header)] => {
                assert!(header.manifest.is_full());
                assert_eq!(header.manifest.total_probes, 2);
            }
            other => panic!("expected one mergeable set, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_fails_a_shard_set_whose_meta_chunks_disagree() {
        let dir = scratch("verify-meta");
        write_shard(&dir, "demo", 0, 2, "Skylake");
        write_shard(&dir, "demo", 1, 2, "Zen");
        let (errors, sets) = verify_files(&pbcol_files(&dir).expect("list"));
        assert_eq!(errors, 1, "both files verify alone; only the set fails");
        let verdicts: Vec<_> = sets.values().collect();
        match verdicts.as_slice() {
            [SetVerdict::Fails(why)] => assert!(why.contains("meta chunk"), "{why}"),
            other => panic!("expected one failing set, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_files_are_rejected_by_version_and_pruned() {
        let dir = scratch("v2");
        let path = dir.join(cache_file_name("old", ExperimentKind::Core, FP));
        let mut writer = open_writer(&path, ShardManifest::full(1), "Skylake");
        writer
            .append_probe(&probe_record(0), &[(Duration::ZERO, Duration::ZERO)])
            .expect("append");
        writer.finish().expect("finish");
        // Rewrite the header's version field to 2 and re-seal the
        // whole-file checksum, so only the version is wrong.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let body = bytes.len() - 8;
        let seal = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&seal.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");

        let is_v2 = |r: Result<(), PersistError>| {
            matches!(
                r,
                Err(PersistError::Version {
                    found: 2,
                    expected: FORMAT_VERSION
                })
            )
        };
        assert!(is_v2(decode_collection_with(&bytes, None).map(drop)));
        assert!(is_v2(verify_stream(&path, None, |_| {}).map(drop)));
        assert!(is_v2(
            load_or_assemble(&path, ExperimentKind::Core, FP).map(drop)
        ));
        assert_eq!(
            stale_reason(&path, &bytes).as_deref(),
            Some("format version 2 (this build reads 3)")
        );
        prune_dir(&dir, false, ORPHAN_TEMP_AGE).expect("prune");
        assert!(!path.exists(), "prune must evict the v2 file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_dry_run_keeps_orphans() {
        let dir = scratch("prune-dry");
        let old = dir.join("demo-mem-00ff.pbcol.9-9.tmp");
        std::fs::write(&old, b"junk").expect("write");
        std::fs::OpenOptions::new()
            .write(true)
            .open(&old)
            .expect("open")
            .set_modified(std::time::SystemTime::UNIX_EPOCH)
            .expect("set mtime");
        prune_dir(&dir, true, ORPHAN_TEMP_AGE).expect("prune");
        assert!(old.exists(), "--dry-run must not delete");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
