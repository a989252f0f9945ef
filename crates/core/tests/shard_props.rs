//! Shard determinism: any shard partition of the (probe × unit) grid,
//! written as shard files and merged in any order, reassembles the
//! single-process collection bit-identically (wall-clock timings aside,
//! which sum over shards), and overlapping or missing shard sets are
//! rejected with precise errors.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, CaptureSpec, Collection, CollectionConfig, ProbeScale};
use perfbug_core::persist::{
    collect_shard_or_resume, config_fingerprint, encode_collection, load_collection,
    merge_shard_files, shard_file_name, CacheStatus, ExperimentKind, FileHeader, PersistError,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};
use proptest::prelude::*;

/// Shard counts the property test draws from: an even split, an uneven
/// split, and more shards than probes (so some shards are empty).
const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

fn tiny_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 25,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite"),
        benchmark("462.libquantum").expect("suite"),
    ];
    config.max_probes = Some(5);
    config.threads = 2;
    // A captured series on a middle probe, so the merge path is exercised
    // on captures too (they concatenate in probe order).
    config.captures = vec![CaptureSpec {
        probe_id: "458.sjeng#1".into(),
        arch: "Skylake".into(),
        bug: Some(1),
    }];
    config
}

/// The single-process reference collection, collected once.
fn full_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&tiny_config()))
}

/// A scratch directory unique to one test case, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "perfbug-shard-props-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        Scratch(dir)
    }

    /// Writes the shard files of a `count`-way pass into this directory
    /// and returns their paths in shard-index order.
    fn shard_files(&self, count: usize) -> Vec<PathBuf> {
        shard_file_bytes(count)
            .into_iter()
            .map(|(name, bytes)| {
                let path = self.0.join(name);
                std::fs::write(&path, bytes).expect("write shard file");
                path
            })
            .collect()
    }

    /// Merges `parts` with `merge_shard_files` and loads the merged file.
    fn merge(&self, parts: &[PathBuf]) -> Result<(Collection, FileHeader), PersistError> {
        let out = self.0.join("merged.pbcol");
        let header = merge_shard_files(parts, &out)?;
        Ok((
            load_collection(&out, config_fingerprint(&tiny_config()))?,
            header,
        ))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One shard file as `(file name, bytes)`.
type ShardFile = (String, Vec<u8>);

/// The shard files of a `count`-way pass, written once per count by
/// `collect_shard_or_resume` and shared across property cases (each count
/// costs one full collection pass).
fn shard_file_bytes(count: usize) -> Vec<ShardFile> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Vec<ShardFile>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("shard cache lock");
    cache
        .entry(count)
        .or_insert_with(|| {
            let config = tiny_config();
            let fingerprint = config_fingerprint(&config);
            let dir = Scratch::new();
            (0..count)
                .map(|index| {
                    let name = shard_file_name(
                        "shard-props",
                        ExperimentKind::Core,
                        fingerprint,
                        index,
                        count,
                    );
                    let path = dir.0.join(&name);
                    collect_shard_or_resume(&path, &config, ShardSpec::new(index, count))
                        .expect("shard collects");
                    (name, std::fs::read(&path).expect("read shard file"))
                })
                .collect()
        })
        .clone()
}

/// Deterministic Fisher–Yates driven by a seed, so "merged in any order"
/// is exercised without `rand` in the test.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_partition_merged_in_any_order_is_bit_identical(
        count_idx in 0usize..SHARD_COUNTS.len(),
        order_seed in any::<u64>(),
    ) {
        let count = SHARD_COUNTS[count_idx];
        let dir = Scratch::new();
        let mut parts = dir.shard_files(count);
        shuffle(&mut parts, order_seed);

        let (mut merged, header) = dir.merge(&parts).expect("complete partition merges");
        prop_assert!(header.manifest.is_full());

        let mut full = full_collection().clone();
        merged.zero_timings();
        full.zero_timings();
        // Bit-identical: the canonical encodings must match byte for byte.
        let fingerprint = config_fingerprint(&tiny_config());
        prop_assert!(
            encode_collection(&merged, fingerprint) == encode_collection(&full, fingerprint),
            "merge of {count} shards (order seed {order_seed}) diverged from the full pass"
        );
    }

    #[test]
    fn missing_shards_are_rejected_with_the_missing_range(
        count_idx in 0usize..SHARD_COUNTS.len(),
        drop_seed in any::<u64>(),
    ) {
        let count = SHARD_COUNTS[count_idx];
        let dir = Scratch::new();
        let mut parts = dir.shard_files(count);
        let dropped = (drop_seed as usize) % parts.len();
        parts.remove(dropped);
        match dir.merge(&parts) {
            Err(PersistError::Shard(msg)) => prop_assert!(
                msg.contains(&format!("expected {count} shards")),
                "error must name the expected shard count: {msg}"
            ),
            other => prop_assert!(false, "expected shard error, merged: {:?}", other.is_ok()),
        }
    }
}

#[test]
fn overlapping_shards_are_rejected_with_the_overlap() {
    // Shard 0's file presented twice: the same probes appear twice under
    // a consistent-looking count.
    let dir = Scratch::new();
    let parts = dir.shard_files(2);
    let dup = vec![parts[0].clone(), parts[0].clone()];
    match dir.merge(&dup) {
        // Same index twice with identical ranges: caught as overlap.
        Err(PersistError::Shard(msg)) => {
            assert!(msg.contains("overlap"), "imprecise error: {msg}")
        }
        other => panic!("expected overlap rejection, got ok={}", other.is_ok()),
    }
}

#[test]
fn partition_mismatch_is_rejected() {
    // A shard from a 2-way split cannot complete a 3-way split.
    let dir = Scratch::new();
    let two = dir.shard_files(2);
    let three = dir.shard_files(3);
    let mixed = vec![two[0].clone(), three[1].clone(), three[2].clone()];
    match dir.merge(&mixed) {
        Err(PersistError::Shard(msg)) => {
            assert!(msg.contains("partition mismatch"), "imprecise error: {msg}")
        }
        other => panic!("expected partition mismatch, got ok={}", other.is_ok()),
    }
}

#[test]
fn empty_shards_round_trip_through_files() {
    // 7 shards over 5 probes: shards 5 and 6 own zero probes; their files
    // must still save, replay and participate in assembly.
    let config = tiny_config();
    let dir = std::env::temp_dir().join(format!("perfbug-shard-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shard = ShardSpec::new(6, 7);
    let path = dir.join("empty-shard.pbcol");
    let _ = std::fs::remove_file(&path);
    let saved = collect_shard_or_resume(&path, &config, shard).expect("save empty shard");
    assert_eq!(saved.status, CacheStatus::Collected);
    assert!(saved.collection.probes.is_empty());
    let back = collect_shard_or_resume(&path, &config, shard).expect("replay empty shard");
    assert_eq!(back.status, CacheStatus::Replayed);
    assert_eq!(back.collection, saved.collection);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
