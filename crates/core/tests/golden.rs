//! Golden corpus digests: one fixed tiny core collection and one fixed
//! tiny memory collection must encode to exactly the bytes pinned by
//! [`GOLDEN_CORE_DIGEST`] and [`GOLDEN_MEM_DIGEST`].
//!
//! This is the machine check behind "the corpus is unchanged": any change
//! to simulation, counter selection, stage-1 numerics or the PBCL codec
//! that moves a single output byte fails here. A deliberate change bumps
//! [`CORPUS_REVISION`] and re-pins both digests in the same commit.

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::memory::{collect_memory, MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{
    config_fingerprint, encode_collection, fnv1a, mem_config_fingerprint, CORPUS_REVISION,
    GOLDEN_CORE_DIGEST, GOLDEN_MEM_DIGEST,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};

fn gbt10() -> EngineSpec {
    EngineSpec::Gbt(GbtParams {
        n_trees: 10,
        ..GbtParams::default()
    })
}

/// One serialisation bug over `Opcode::Logic`, so the digest also covers
/// the PBCL opcode codes, plus one L2 latency bug.
fn tiny_core_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(vec![gbt10()], catalog);
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![benchmark("462.libquantum").expect("suite")];
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

fn tiny_mem_config() -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(vec![gbt10()], TargetMetric::Amat);
    config.workload = WorkloadScale::tiny();
    config.max_probes = Some(3);
    config.threads = 2;
    config
}

/// FNV-1a of the encoded corpus with its wall-clock timings zeroed.
fn digest(mut col: Collection, fingerprint: u64) -> u64 {
    col.zero_timings();
    fnv1a(&encode_collection(&col, fingerprint))
}

#[test]
fn corpus_digests_match_the_pinned_revision() {
    let core = tiny_core_config();
    let mem = tiny_mem_config();
    let core_digest = digest(collect(&core), config_fingerprint(&core));
    let mem_digest = digest(collect_memory(&mem), mem_config_fingerprint(&mem));
    assert_eq!(
        (core_digest, mem_digest),
        (GOLDEN_CORE_DIGEST, GOLDEN_MEM_DIGEST),
        "corpus output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_CORE_DIGEST = {core_digest:#018x}, \
         GOLDEN_MEM_DIGEST = {mem_digest:#018x}"
    );
}
