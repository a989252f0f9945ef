//! Fuzzer determinism and severity-calibration properties.
//!
//! The fuzzer's contract is that a [`FuzzSpec`] *is* the corpus: the same
//! spec must generate the same catalogue bit for bit, the resulting
//! collection configuration must fingerprint identically no matter how
//! the config object was built or how many threads collect it, and a
//! sharded collection over a fuzzed catalogue must reassemble the
//! single-process pass exactly — otherwise fuzzed corpora could not be
//! cached, sharded or compared across machines. Severity calibration
//! must be order-sane too: cranking a delay knob up never grades a
//! variant *milder* on the calibration workload.

use std::sync::OnceLock;

use perfbug_core::bugs::Severity;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::fuzz::{core_impact, mem_impact, Family, FuzzSpec};
use perfbug_core::persist::{
    cache_file_name, collect_shard_or_resume, config_fingerprint, encode_collection,
    load_or_assemble, shard_file_name, CacheStatus, ExperimentKind,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_memsim::MemBugSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::benchmark;
use proptest::prelude::*;

/// Parameterised families the determinism property draws subsets from —
/// a mix of paper types and the post-paper extensions, both simulators.
const FAMILY_POOL: [Family; 6] = [
    Family::Core(7),  // MispredictExtraDelayT
    Family::Core(10), // L2ExtraLatencyT
    Family::Core(15), // TlbPageWalkDelayT
    Family::Core(16), // ReplayEveryNDelayT
    Family::Mem(7),   // SppDegreeStride
    Family::Mem(8),   // DramPageCloseDelayT
];

/// The fixed spec the collection-level invariance tests fuzz with: both
/// new core families, two variants each.
fn fuzzed_core_spec() -> FuzzSpec {
    FuzzSpec {
        seed: 0xF0CC,
        families: vec![Family::Core(15), Family::Core(16)],
        count: 2,
        severity_band: None,
    }
}

/// A tiny collection config over the fuzzed catalogue.
fn fuzz_config(threads: usize) -> CollectionConfig {
    let catalog = fuzzed_core_spec()
        .generate()
        .core_catalog()
        .expect("core families were requested");
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
    config.threads = threads;
    config
}

/// The single-thread reference collection, collected once.
fn reference_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&fuzz_config(1)))
}

/// Same spec, same catalogue — including the calibrated severities and
/// impacts — and same PBCL config fingerprint, no matter that the spec
/// and config objects were built twice from scratch. The thread count
/// must not leak into the fingerprint (workers are an execution detail).
fn check_same_spec_identity(seed: u64, mask: u32) -> Result<(), TestCaseError> {
    let families: Vec<Family> = FAMILY_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &f)| f)
        .collect();
    let spec = || FuzzSpec {
        seed,
        families: families.clone(),
        count: 1,
        severity_band: None,
    };
    let a = spec().generate();
    let b = spec().generate();
    prop_assert_eq!(&a, &b, "one spec, two catalogues");

    if let (Some(cat_a), Some(cat_b)) = (a.core_catalog(), b.core_catalog()) {
        let mk = |catalog, threads| {
            let mut config =
                CollectionConfig::new(vec![EngineSpec::Gbt(GbtParams::default())], catalog);
            config.scale = ProbeScale::tiny();
            config.threads = threads;
            config
        };
        prop_assert_eq!(
            config_fingerprint(&mk(cat_a, 1)),
            config_fingerprint(&mk(cat_b, 4)),
            "fingerprint must depend on the fuzzed catalogue only"
        );
    }
    Ok(())
}

/// Larger delay knobs never grade *milder*: the calibrated severity of
/// every delay-parameterised family is monotone in `t` along a doubling
/// sequence.
fn check_severity_monotone(base: u32) -> Result<(), TestCaseError> {
    let ts = [base, base * 2, base * 4, base * 8];
    let ladders: [&dyn Fn(u32) -> f64; 4] = [
        &|t| core_impact(BugSpec::MispredictExtraDelay { t }),
        &|t| core_impact(BugSpec::L2ExtraLatency { t }),
        &|t| core_impact(BugSpec::TlbPageWalkDelay { entries: 8, t }),
        &|t| mem_impact(MemBugSpec::DramPageCloseDelay { t }),
    ];
    for (which, impact_of) in ladders.iter().enumerate() {
        let grades: Vec<Severity> = ts.iter().map(|&t| Severity::grade(impact_of(t))).collect();
        for pair in grades.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "ladder {which}: grades {grades:?} not monotone over t = {ts:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_spec_generates_identical_catalog_and_fingerprint(
        seed in any::<u64>(),
        mask in 1u32..(1 << FAMILY_POOL.len()),
    ) {
        check_same_spec_identity(seed, mask)?;
    }

    #[test]
    fn severity_calibration_is_monotone_in_delay(base in 2u32..=12) {
        check_severity_monotone(base)?;
    }
}

/// Thread-count invariance at the collection level: a fuzzed catalogue
/// collected with 1 worker and with 3 encodes byte-identically (timings
/// aside — the only sanctioned nondeterminism).
#[test]
fn fuzzed_collection_is_worker_count_invariant() {
    let mut one = reference_collection().clone();
    let mut three = collect(&fuzz_config(3));
    one.zero_timings();
    three.zero_timings();
    let fp = config_fingerprint(&fuzz_config(1));
    assert_eq!(
        fp,
        config_fingerprint(&fuzz_config(3)),
        "thread count must not change the fingerprint"
    );
    assert!(
        encode_collection(&one, fp) == encode_collection(&three, fp),
        "worker count changed the collected corpus"
    );
}

/// Shard-partition invariance: collecting the fuzzed corpus as 3 shard
/// files and assembling them reassembles the single-process pass bit for
/// bit.
#[test]
fn fuzzed_collection_is_shard_partition_invariant() {
    let config = fuzz_config(2);
    let fp = config_fingerprint(&config);
    let kind = ExperimentKind::Core;
    let dir = std::env::temp_dir().join(format!("perfbug-fuzz-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for index in 0..3 {
        let path = dir.join(shard_file_name("fuzz", kind, fp, index, 3));
        collect_shard_or_resume(&path, &config, ShardSpec::new(index, 3)).expect("shard collects");
    }
    let (mut merged, status) =
        load_or_assemble(&dir.join(cache_file_name("fuzz", kind, fp)), kind, fp)
            .expect("assemble")
            .expect("complete partition merges");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status, CacheStatus::Assembled);
    let mut full = reference_collection().clone();
    merged.zero_timings();
    full.zero_timings();
    assert!(
        encode_collection(&merged, fp) == encode_collection(&full, fp),
        "shard partition changed the fuzzed corpus"
    );
}
