//! Golden corpus digests: one fixed tiny core collection and one fixed
//! tiny memory collection must encode to exactly the bytes pinned by
//! [`GOLDEN_CORE_DIGEST`] and [`GOLDEN_MEM_DIGEST`], and the core
//! simulator's raw output over every extended-catalogue bug must hash to
//! [`GOLDEN_SIM_DIGEST`].
//!
//! This is the machine check behind "the corpus is unchanged": any change
//! to simulation, counter selection, stage-1 numerics or the PBCL codec
//! that moves a single output byte fails here. A deliberate change bumps
//! [`CORPUS_REVISION`] and re-pins both digests in the same commit.

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{
    config_fingerprint, encode_collection, fnv1a, CORPUS_REVISION, GOLDEN_CORE_DIGEST,
    GOLDEN_MEM_DIGEST,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::{presets, simulate, BugSpec};
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
    let mem_digest = digest(collect(&mem), config_fingerprint(&mem));
    assert_eq!(
        (core_digest, mem_digest),
        (GOLDEN_CORE_DIGEST, GOLDEN_MEM_DIGEST),
        "corpus output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_CORE_DIGEST = {core_digest:#018x}, \
         GOLDEN_MEM_DIGEST = {mem_digest:#018x}"
    );
}

/// FNV-1a over the raw output of the core simulator: `None` plus every
/// [`BugCatalog::core_extended`] variant, on Skylake and K8, over the first
/// tiny-scale 426.mcf probe, sampled every 97 and every 500 cycles. Each
/// run contributes its `total_cycles`, `total_insts`, every counter-row
/// value's bits and every per-step IPC's bits, little-endian.
///
/// Unlike the corpus digests this covers all 16 bug types and every
/// counter column, so a simulator speed-up that moves any cycle count or
/// counter fails here. The digest moves only together with a
/// [`CORPUS_REVISION`] bump.
const GOLDEN_SIM_DIGEST: u64 = 0xbb11_a2f4_cdcc_f50e;

#[test]
fn simulator_digest_matches_the_pinned_revision() {
    let scale = WorkloadScale::tiny();
    let spec = benchmark("426.mcf").expect("suite");
    let program = spec.program(&scale);
    let trace = spec.probes(&scale)[0].trace(&program);
    let bugs: Vec<Option<BugSpec>> = std::iter::once(None)
        .chain(
            BugCatalog::core_extended()
                .variants()
                .iter()
                .copied()
                .map(Some),
        )
        .collect();
    let mut bytes = Vec::new();
    for cfg in [presets::skylake(), presets::k8()] {
        for &bug in &bugs {
            for step in [97, 500] {
                let run = simulate(&cfg, bug, &trace, step);
                bytes.extend_from_slice(&run.total_cycles.to_le_bytes());
                bytes.extend_from_slice(&run.total_insts.to_le_bytes());
                for row in &run.counter_rows {
                    for v in row {
                        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
                for v in &run.ipc {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    let sim_digest = fnv1a(&bytes);
    assert_eq!(
        sim_digest, GOLDEN_SIM_DIGEST,
        "simulator output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_SIM_DIGEST = {sim_digest:#018x}"
    );
}
