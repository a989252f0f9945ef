//! Property and integration tests for collection persistence: round-trip
//! identity, corrupt/truncated-file rejection, version and fingerprint
//! validation, and the `collect_or_load` replay front door on real core
//! and memory corpora.

use std::time::Duration;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{
    collect, CapturedSeries, Collection, CollectionConfig, EngineResult, Experiment, ProbeMeta,
    ProbeScale, RunKey,
};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{
    cache_file_name, collect_or_load, config_fingerprint, decode_collection, encode_collection,
    load_collection, parse_cache_file_name, save_collection, shard_file_name, verify_stream,
    CacheStatus, ExperimentKind, PersistError, ProbeReader, FORMAT_VERSION,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::{ArchSet, BugSpec};
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};
use proptest::prelude::*;

/// Builds a structurally valid collection from fuzzed dimensions and
/// payload floats. `floats` seeds every numeric field (cycled), so the
/// round trip exercises arbitrary bit patterns including subnormals.
fn synth_collection(
    n_probes: usize,
    n_engines: usize,
    n_captures: usize,
    floats: &[f64],
    with_bug_keys: bool,
) -> Collection {
    let mut next = {
        let mut i = 0;
        move || {
            let v = floats[i % floats.len()];
            i += 1;
            v
        }
    };
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::FpMul },
        BugSpec::WritesToRegDelay {
            n: 32,
            t: 6,
            periodic: true,
        },
        BugSpec::OpcodeUsesRegDelay {
            x: Opcode::Load,
            r: 3,
            t: 8,
        },
        // Post-paper extension types (ids 15/16): fuzzed corpora put
        // these in cache files, so every persistence property must hold
        // for them too.
        BugSpec::TlbPageWalkDelay { entries: 64, t: 40 },
        BugSpec::IssueReplayEveryN { n: 8, t: 12 },
    ]);
    let mut keys = vec![RunKey {
        arch: "Skylake".into(),
        set: ArchSet::IV,
        bug: None,
    }];
    if with_bug_keys {
        for b in 0..catalog.len() {
            keys.push(RunKey {
                arch: "Skylake".into(),
                set: ArchSet::II,
                bug: Some(b),
            });
        }
    }
    let probes: Vec<ProbeMeta> = (0..n_probes)
        .map(|p| ProbeMeta {
            id: format!("bench#{p}"),
            benchmark: "bench".into(),
            weight: next(),
        })
        .collect();
    let engines: Vec<EngineResult> = (0..n_engines)
        .map(|e| EngineResult {
            name: format!("GBT-{e}"),
            deltas: (0..n_probes)
                .map(|_| keys.iter().map(|_| next()).collect())
                .collect(),
            train_time: Duration::new(e as u64, 123_456_789),
            infer_time: Duration::from_micros(e as u64 * 7 + 1),
        })
        .collect();
    Collection {
        overall_ipc: (0..n_probes)
            .map(|_| keys.iter().map(|_| next()).collect())
            .collect(),
        agg_features: (0..n_probes)
            .map(|_| keys.iter().map(|_| vec![next(), next(), next()]).collect())
            .collect(),
        captures: (0..n_captures)
            .map(|c| CapturedSeries {
                // Non-decreasing valid probe ids: the v3 codec stores
                // captures inside their probe's chunk, so a capture must
                // name a real probe and the flat list is probe-ordered.
                probe_id: format!("bench#{}", c * n_probes / n_captures.max(1)),
                arch: "IvyBridge".into(),
                bug: (c % 2 == 0).then_some(c % 3),
                engine: "GBT-0".into(),
                simulated: vec![next(), next()],
                inferred: vec![next(), next()],
            })
            .collect(),
        keys,
        probes,
        engines,
        catalog,
    }
}

/// Saves `bad` — a corrupted or truncated encoding of `col` under
/// `fingerprint` — to a file named `tag` and checks the file readers
/// against it: `verify_stream` must reject it, and `ProbeReader` must
/// either fail or hand back exactly `col`'s meta and probe records.
fn file_readers_reject_or_agree(tag: &str, col: &Collection, fingerprint: u64, bad: &[u8]) {
    let dir = std::env::temp_dir().join(format!("perfbug-parity-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pristine = dir.join(format!("{tag}-pristine.pbcol"));
    save_collection(&pristine, col, fingerprint).expect("save");
    let mut reader = ProbeReader::open(&pristine, Some(fingerprint)).expect("pristine opens");
    let originals: Vec<_> = (0..col.probes.len() as u64)
        .map(|p| reader.read_probe(p).expect("pristine probe reads"))
        .collect();

    let path = dir.join(format!("{tag}.pbcol"));
    std::fs::write(&path, bad).expect("write");
    assert!(
        verify_stream(&path, None, |_| {}).is_err(),
        "{tag}: verify_stream accepted a damaged file"
    );
    if let Ok(mut reader) = ProbeReader::open(&path, Some(fingerprint)) {
        assert_eq!(reader.keys(), &col.keys[..], "{tag}: keys differ");
        assert_eq!(reader.catalog(), &col.catalog, "{tag}: catalogue differs");
        let names: Vec<_> = col.engines.iter().map(|e| e.name.clone()).collect();
        assert_eq!(reader.engine_names(), &names[..], "{tag}: roster differs");
        for (p, original) in originals.iter().enumerate() {
            if let Ok(rec) = reader.read_probe(p as u64) {
                assert!(rec == *original, "{tag}: probe {p} reads back altered");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_is_identity(
        n_probes in 1usize..5,
        n_engines in 1usize..4,
        n_captures in 0usize..3,
        floats in prop::collection::vec(-1e9..1e9f64, 8..24),
        with_bug_keys in any::<bool>(),
        fingerprint in any::<u64>(),
    ) {
        let col = synth_collection(n_probes, n_engines, n_captures, &floats, with_bug_keys);
        let bytes = encode_collection(&col, fingerprint);
        let back = decode_collection(&bytes, fingerprint)
            .expect("round trip must decode");
        prop_assert!(back == col, "decoded collection differs");
    }

    #[test]
    fn corrupt_bytes_are_rejected(
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
        fingerprint in any::<u64>(),
    ) {
        let col = synth_collection(2, 1, 1, &[0.5, -3.25, 1e-300], true);
        let mut bytes = encode_collection(&col, fingerprint);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            decode_collection(&bytes, fingerprint).is_err(),
            "flipping byte {pos} with {flip:#x} went undetected"
        );
        file_readers_reject_or_agree("corrupt", &col, fingerprint, &bytes);
    }

    #[test]
    fn truncated_bytes_are_rejected(cut_seed in any::<u64>(), fingerprint in any::<u64>()) {
        let col = synth_collection(2, 2, 0, &[42.0, 0.125], false);
        let bytes = encode_collection(&col, fingerprint);
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(decode_collection(&bytes[..cut], fingerprint).is_err());
        file_readers_reject_or_agree("truncated", &col, fingerprint, &bytes[..cut]);
    }

    #[test]
    fn wrong_fingerprint_is_rejected(fp in any::<u64>(), other in any::<u64>()) {
        prop_assume!(fp != other);
        let col = synth_collection(1, 1, 0, &[1.5], false);
        let bytes = encode_collection(&col, fp);
        match decode_collection(&bytes, other) {
            Err(PersistError::Fingerprint { found, expected }) => {
                prop_assert_eq!(found, fp);
                prop_assert_eq!(expected, other);
            }
            r => prop_assert!(false, "expected fingerprint rejection, got {:?}", r.is_ok()),
        }
    }

    #[test]
    fn wrong_version_is_rejected(version in any::<u32>()) {
        // Every other version — older ones included — is a typed
        // version error, never a reinterpretation of the bytes.
        prop_assume!(version != FORMAT_VERSION);
        let col = synth_collection(1, 1, 0, &[2.5], false);
        let mut bytes = encode_collection(&col, 1);
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        // Reject even with a re-sealed checksum: the version gate is
        // independent of integrity.
        let body = bytes.len() - 8;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &bytes[..body] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes[body..].copy_from_slice(&hash.to_le_bytes());
        match decode_collection(&bytes, 1) {
            Err(PersistError::Version { found, expected }) => {
                prop_assert_eq!(found, version);
                prop_assert_eq!(expected, FORMAT_VERSION);
            }
            r => prop_assert!(false, "expected version rejection, got {:?}", r.is_ok()),
        }
    }

    #[test]
    fn file_names_round_trip_through_parse(
        fingerprint in any::<u64>(),
        index in 0u32..512,
        extra in 1u32..512,
        mem in any::<bool>(),
    ) {
        let count = index + extra;
        let kind = if mem { ExperimentKind::Memory } else { ExperimentKind::Core };
        // Prefixes with dashes (even a trailing `-s`) must survive.
        for prefix in ["fig08", "speed-test", "tbl-s"] {
            let full = cache_file_name(prefix, kind, fingerprint);
            let parsed = parse_cache_file_name(&full).expect("full name parses");
            prop_assert_eq!(&parsed.prefix, prefix);
            prop_assert_eq!(parsed.kind, kind);
            prop_assert_eq!(parsed.fingerprint, fingerprint);
            prop_assert_eq!(parsed.shard, None);

            let shard = shard_file_name(prefix, kind, fingerprint, index as usize, count as usize);
            let parsed = parse_cache_file_name(&shard).expect("shard name parses");
            prop_assert_eq!(&parsed.prefix, prefix);
            prop_assert_eq!(parsed.fingerprint, fingerprint);
            prop_assert_eq!(parsed.shard, Some((index, count)));
        }
    }
}

/// A minimal structurally-valid collection around `catalog`: one probe,
/// one engine, one bugged key per variant. No simulation involved — the
/// point is pushing the *catalogue* through the codec.
fn collection_with_catalog(catalog: BugCatalog) -> Collection {
    let mut keys = vec![RunKey {
        arch: "Skylake".into(),
        set: ArchSet::IV,
        bug: None,
    }];
    for b in 0..catalog.len() {
        keys.push(RunKey {
            arch: "Skylake".into(),
            set: ArchSet::II,
            bug: Some(b),
        });
    }
    Collection {
        probes: vec![ProbeMeta {
            id: "bench#0".into(),
            benchmark: "bench".into(),
            weight: 1.0,
        }],
        engines: vec![EngineResult {
            name: "GBT-0".into(),
            deltas: vec![keys.iter().enumerate().map(|(i, _)| i as f64).collect()],
            train_time: Duration::from_millis(1),
            infer_time: Duration::from_micros(1),
        }],
        overall_ipc: vec![keys.iter().map(|_| 1.5).collect()],
        agg_features: vec![keys.iter().map(|_| vec![0.25, -0.5]).collect()],
        captures: Vec::new(),
        keys,
        catalog,
    }
}

/// Every extended-catalogue variant — the post-paper core types and the
/// memory types via their same-id core placeholder — survives the PBCL
/// codec and the streaming verifier (`pbcol verify`'s engine).
#[test]
fn extended_catalogs_round_trip_and_verify() {
    use perfbug_core::bugs::MemBugCatalog;
    use perfbug_core::memory::mem_catalog_as_core;
    use perfbug_core::persist::{save_collection, verify_stream};

    let dir = std::env::temp_dir().join(format!("perfbug-extcat-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let catalogs = [
        BugCatalog::core_extended(),
        mem_catalog_as_core(&MemBugCatalog::extended()),
    ];
    for (i, catalog) in catalogs.into_iter().enumerate() {
        let col = collection_with_catalog(catalog);
        let fp = 0xE0 + i as u64;

        let bytes = encode_collection(&col, fp);
        let back = decode_collection(&bytes, fp).expect("extended catalogue must decode");
        assert_eq!(back, col, "catalogue {i} diverged through the codec");

        let path = dir.join(format!("extcat-{i}.pbcol"));
        save_collection(&path, &col, fp).expect("save");
        let mut chunks = 0;
        let header = verify_stream(&path, Some(fp), |_| chunks += 1)
            .expect("extended catalogue must stream-verify");
        assert_eq!(header.fingerprint, fp);
        assert!(chunks > 0, "verifier must visit the probe chunks");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
}

// --------------------------------------------------------------------------
// Integration: a real collected corpus through the file front door
// --------------------------------------------------------------------------

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
    config.benchmarks = vec![benchmark("462.libquantum").expect("suite")];
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

fn tiny_mem_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 25,
            ..GbtParams::default()
        })],
        TargetMetric::Amat,
    );
    config.workload = WorkloadScale::tiny();
    config.step_cycles = 300;
    config.max_probes = Some(2);
    config.threads = 2;
    config
}

// One test (not two) on purpose: the replay assertion samples the
// process-global `exec::simulations_run()` counter, and a sibling test
// collecting concurrently in the same binary would move it inside the
// assertion window.
#[test]
fn real_collection_round_trips_and_replays_without_simulating() {
    let config = tiny_config();
    let fp = config_fingerprint(&config);
    let dir = std::env::temp_dir().join(format!("perfbug-persist-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // save -> load is the identity on a real collected corpus.
    let col = collect(&config);
    let path = dir.join(cache_file_name("round-trip", ExperimentKind::Core, fp));
    save_collection(&path, &col, fp).expect("save");
    let loaded = load_collection(&path, fp).expect("load");
    assert_eq!(loaded, col, "collection must replay byte-identically");

    // A changed configuration fingerprint must reject the cache.
    let mut stale = config.clone();
    stale.arch_features = !config.arch_features;
    let stale_fp = config_fingerprint(&stale);
    assert_ne!(stale_fp, fp);
    assert!(matches!(
        load_collection(&path, stale_fp),
        Err(PersistError::Fingerprint { .. })
    ));

    // The collect_or_load front door, for a core and a memory experiment
    // alike: the cold pass collects and saves, the warm pass replays
    // without touching the simulator, and a changed configuration at the
    // same path is rejected rather than silently re-collected.
    let mem = tiny_mem_config();
    let mut stale_mem = mem.clone();
    stale_mem.metric = TargetMetric::Ipc;
    let experiments: [(&dyn Experiment, &dyn Experiment); 2] =
        [(&config, &stale), (&mem, &stale_mem)];
    for (exp, stale) in experiments {
        let front = dir.join(cache_file_name(
            "front-door",
            exp.kind(),
            config_fingerprint(exp),
        ));
        let _ = std::fs::remove_file(&front);
        let (cold, status) = collect_or_load(&front, exp).expect("cold pass");
        assert_eq!(status, CacheStatus::Collected, "{:?}", exp.kind());
        assert!(front.exists());

        let sims_before = perfbug_core::exec::simulations_run();
        let (warm, status) = collect_or_load(&front, exp).expect("warm pass");
        assert_eq!(status, CacheStatus::Replayed, "{:?}", exp.kind());
        assert_eq!(
            perfbug_core::exec::simulations_run(),
            sims_before,
            "replay must not simulate"
        );
        assert_eq!(warm, cold);

        assert!(
            matches!(
                collect_or_load(&front, stale),
                Err(PersistError::Fingerprint { .. })
            ),
            "{:?}: a changed config must not replay the cache",
            exp.kind()
        );
        let _ = std::fs::remove_file(&front);
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
