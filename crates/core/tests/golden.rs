//! Golden corpus digests: one fixed tiny core collection and one fixed
//! tiny memory collection must encode to exactly the bytes pinned by
//! [`GOLDEN_CORE_DIGEST`] and [`GOLDEN_MEM_DIGEST`], and the core
//! simulator's raw output over every extended-catalogue bug must hash to
//! [`GOLDEN_SIM_DIGEST`] on Skylake and K8 and to
//! [`GOLDEN_SIM_ALL_DESIGNS_DIGEST`] on all twenty presets; over bugs
//! whose delays run past 512 cycles it must hash to
//! [`GOLDEN_SIM_LONG_DELAY_DIGEST`]. The memory simulator's raw output
//! over every design and extended-catalogue memory bug must hash to
//! [`GOLDEN_MEMSIM_DIGEST`]. The single-stage baseline's decisions over
//! the tiny core corpus must hash to [`GOLDEN_BASELINE_DIGEST`], and the
//! same corpus collected with the Lasso and neural engines must hash to
//! [`GOLDEN_ENGINES_DIGEST`]. Every probe and probe trace of the whole
//! suite, at tiny and default scale, must hash to [`GOLDEN_PROBES_DIGEST`].
//!
//! This is the machine check behind "the corpus is unchanged": any change
//! to simulation, counter selection, stage-1 numerics or the PBCL codec
//! that moves a single output byte fails here. A deliberate change bumps
//! [`CORPUS_REVISION`] and re-pins both digests in the same commit.

use perfbug_core::baseline::BaselineParams;
use perfbug_core::bugs::{BugCatalog, MemBugCatalog};
use perfbug_core::experiment::{
    collect, evaluate_baseline, Collection, CollectionConfig, ProbeScale,
};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{
    config_fingerprint, encode_collection, fnv1a, CORPUS_REVISION, GOLDEN_CORE_DIGEST,
    GOLDEN_MEM_DIGEST,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_memsim::{memory_suite, simulate_memory};
use perfbug_ml::{CnnParams, GbtParams, LassoParams, LstmParams, MlpParams};
use perfbug_uarch::{presets, simulate, BugSpec};
use perfbug_workloads::{benchmark, extract_probes, spec2006, Opcode, WorkloadScale};

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

/// FNV-1a over the raw simulator output for every design in `designs`,
/// `None` plus every [`BugCatalog::core_extended`] variant, and steps 97
/// and 500, on the first tiny-scale 426.mcf probe.
fn simulator_digest(designs: &[perfbug_uarch::MicroarchConfig]) -> u64 {
    let bugs: Vec<Option<BugSpec>> = std::iter::once(None)
        .chain(
            BugCatalog::core_extended()
                .variants()
                .iter()
                .copied()
                .map(Some),
        )
        .collect();
    runs_digest(designs, &["426.mcf"], &bugs)
}

/// FNV-1a over the raw simulator output for every design in `designs`,
/// the first tiny-scale probe of every benchmark in `benches`, every
/// setting in `bugs`, and steps 97 and 500, in that nesting order.
fn runs_digest(
    designs: &[perfbug_uarch::MicroarchConfig],
    benches: &[&str],
    bugs: &[Option<BugSpec>],
) -> u64 {
    let scale = WorkloadScale::tiny();
    let traces: Vec<_> = benches
        .iter()
        .map(|&name| {
            let spec = benchmark(name).expect("suite");
            let program = spec.program(&scale);
            spec.probes(&scale)[0].trace(&program)
        })
        .collect();
    let mut bytes = Vec::new();
    for cfg in designs {
        for trace in &traces {
            for &bug in bugs {
                for step in [97, 500] {
                    let run = simulate(cfg, bug, trace, step);
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
    }
    fnv1a(&bytes)
}

#[test]
fn simulator_digest_matches_the_pinned_revision() {
    let sim_digest = simulator_digest(&[presets::skylake(), presets::k8()]);
    assert_eq!(
        sim_digest, GOLDEN_SIM_DIGEST,
        "simulator output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_SIM_DIGEST = {sim_digest:#018x}"
    );
}

/// [`GOLDEN_SIM_DIGEST`]'s hash over all twenty [`presets::all`] designs,
/// in table order.
///
/// Skylake and K8 alone never exercise a 64 MiB L3, a 2-way L1, a 32-way
/// L3 or a ROB whose size is not a power of two; this covers every cache
/// geometry and window size the presets have.
const GOLDEN_SIM_ALL_DESIGNS_DIGEST: u64 = 0xd0c9_93e5_974a_dd00;

#[test]
fn all_designs_simulator_digest_matches_the_pinned_revision() {
    let sim_digest = simulator_digest(&presets::all());
    assert_eq!(
        sim_digest, GOLDEN_SIM_ALL_DESIGNS_DIGEST,
        "simulator output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_SIM_ALL_DESIGNS_DIGEST = {sim_digest:#018x}"
    );
}

/// [`runs_digest`] on Skylake and K8, over the first tiny-scale 426.mcf
/// and 400.perlbench probes, for bugs whose delays run past 512 cycles,
/// longer than any catalogue variant's: replays 515 and 1,500 cycles out,
/// a 700-cycle penalty on adds that consume a load, and a 600-cycle L2
/// tax, so loads that reach L2 complete that far ahead too.
///
/// The catalogue's delays all land within a few hundred cycles, so this is
/// the only digest whose wakeups are scheduled more than 512 cycles ahead
/// of the cycle that schedules them: past the span of the core
/// simulator's wait calendar, where an entry waits out whole laps in its
/// slot. Each setting stays well inside the simulator's watchdog of 400
/// cycles per instruction. The digest moves only together with a
/// [`CORPUS_REVISION`] bump.
const GOLDEN_SIM_LONG_DELAY_DIGEST: u64 = 0xe376_1e58_2aea_4d83;

/// Bug settings whose delays exceed 512 cycles (see
/// [`GOLDEN_SIM_LONG_DELAY_DIGEST`]).
fn long_delay_bugs() -> Vec<Option<BugSpec>> {
    vec![
        Some(BugSpec::IssueReplayEveryN { n: 97, t: 515 }),
        Some(BugSpec::IssueReplayEveryN { n: 31, t: 1_500 }),
        Some(BugSpec::DelayIfDependsOn {
            x: Opcode::Add,
            y: Opcode::Load,
            t: 700,
        }),
        Some(BugSpec::L2ExtraLatency { t: 600 }),
    ]
}

#[test]
fn long_delay_simulator_digest_matches_the_pinned_revision() {
    let sim_digest = runs_digest(
        &[presets::skylake(), presets::k8()],
        &["426.mcf", "400.perlbench"],
        &long_delay_bugs(),
    );
    assert_eq!(
        sim_digest, GOLDEN_SIM_LONG_DELAY_DIGEST,
        "long-delay simulator output changed under CORPUS_REVISION {CORPUS_REVISION}: if \
         intended, bump CORPUS_REVISION and re-pin GOLDEN_SIM_LONG_DELAY_DIGEST = \
         {sim_digest:#018x}"
    );
}

/// FNV-1a over the raw output of the memory simulator: every
/// [`perfbug_memsim::config::all`] design, `None` plus every
/// [`MemBugCatalog::extended`] variant, and steps 97 and 500, on the first
/// tiny-scale probe of each [`memory_suite`] benchmark. Each run
/// contributes its `total_cycles`, `total_insts`, and the bits of every
/// counter-row value, every per-step IPC and every per-step AMAT,
/// little-endian.
///
/// [`GOLDEN_MEM_DIGEST`] covers only [`MemBugCatalog::full`] over three
/// probes; this covers bug types 7 and 8 and every cache geometry the
/// twelve designs have.
const GOLDEN_MEMSIM_DIGEST: u64 = 0x3fcc_a975_a15d_0095;

#[test]
fn memory_simulator_digest_matches_the_pinned_revision() {
    let scale = WorkloadScale::tiny();
    let designs = perfbug_memsim::config::all();
    let bugs: Vec<_> = std::iter::once(None)
        .chain(
            MemBugCatalog::extended()
                .variants()
                .iter()
                .copied()
                .map(Some),
        )
        .collect();
    let mut bytes = Vec::new();
    for spec in memory_suite() {
        let program = spec.program(&scale);
        let trace = spec.probes(&scale)[0].trace(&program);
        for cfg in &designs {
            for &bug in &bugs {
                for step in [97, 500] {
                    let run = simulate_memory(cfg, bug, &trace, step);
                    bytes.extend_from_slice(&run.total_cycles.to_le_bytes());
                    bytes.extend_from_slice(&run.total_insts.to_le_bytes());
                    for row in &run.counter_rows {
                        for v in row {
                            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                    }
                    for v in run.ipc.iter().chain(&run.amat) {
                        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    let memsim_digest = fnv1a(&bytes);
    assert_eq!(
        memsim_digest, GOLDEN_MEMSIM_DIGEST,
        "memory simulator output changed under CORPUS_REVISION {CORPUS_REVISION}: if \
         intended, bump CORPUS_REVISION and re-pin GOLDEN_MEMSIM_DIGEST = {memsim_digest:#018x}"
    );
}

/// FNV-1a over every leave-one-type-out fold of [`evaluate_baseline`] with
/// default [`BaselineParams`] on the tiny core corpus: each fold's type id
/// and decision count, then per decision its score bits, flag, label and
/// severity (0 for bug-free, else 1 + the grade's ordinal), little-endian.
///
/// The corpus digest pins the baseline's input; this pins its output, so
/// a change to baseline training, θ selection or fold scheduling that
/// moves a single score fails here.
const GOLDEN_BASELINE_DIGEST: u64 = 0xd89a_1b13_b8b5_6e98;

#[test]
fn baseline_digest_matches_the_pinned_revision() {
    let eval = evaluate_baseline(&collect(&tiny_core_config()), &BaselineParams::default());
    let mut bytes = Vec::new();
    for fold in &eval.folds {
        bytes.extend_from_slice(&fold.type_id.to_le_bytes());
        bytes.extend_from_slice(&(fold.decisions.len() as u64).to_le_bytes());
        for d in &fold.decisions {
            bytes.extend_from_slice(&d.score.to_bits().to_le_bytes());
            bytes.push(u8::from(d.flagged));
            bytes.push(u8::from(d.has_bug));
            bytes.push(d.severity.map_or(0, |s| s as u8 + 1));
        }
    }
    let baseline_digest = fnv1a(&bytes);
    assert_eq!(
        baseline_digest, GOLDEN_BASELINE_DIGEST,
        "baseline decisions changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         re-pin GOLDEN_BASELINE_DIGEST = {baseline_digest:#018x}"
    );
}

/// FNV-1a of the tiny core corpus collected with Lasso, `1-MLP-8`, a
/// 2-block CNN and `1-LSTM-8` instead of GBT, timings zeroed.
///
/// [`GOLDEN_CORE_DIGEST`] only exercises the GBT engine; this pins every
/// other stage-1 engine's training and inference, so a refactor of the
/// neural training loops that moves a single prediction fails here. The
/// epoch caps keep the collection to a few seconds.
const GOLDEN_ENGINES_DIGEST: u64 = 0x53b0_b20e_360e_bd0f;

#[test]
fn engines_digest_matches_the_pinned_revision() {
    let mut config = tiny_core_config();
    config.engines = vec![
        EngineSpec::Lasso(LassoParams::default()),
        EngineSpec::Mlp(MlpParams {
            hidden: vec![8],
            max_epochs: 20,
            patience: 5,
            ..MlpParams::default()
        }),
        EngineSpec::Cnn(CnnParams {
            conv_blocks: 2,
            filters: 4,
            hidden: 8,
            max_epochs: 20,
            patience: 5,
            ..CnnParams::default()
        }),
        EngineSpec::Lstm(LstmParams {
            layers: 1,
            hidden: 8,
            max_epochs: 20,
            patience: 5,
            ..LstmParams::default()
        }),
    ];
    let engines_digest = digest(collect(&config), config_fingerprint(&config));
    assert_eq!(
        engines_digest, GOLDEN_ENGINES_DIGEST,
        "stage-1 engine output changed under CORPUS_REVISION {CORPUS_REVISION}: if intended, \
         bump CORPUS_REVISION and re-pin GOLDEN_ENGINES_DIGEST = {engines_digest:#018x}"
    );
}

/// FNV-1a over every probe of every [`spec2006`] and [`memory_suite`]
/// benchmark, at [`WorkloadScale::tiny`] and then the default scale: per
/// probe its `interval` and `weight` bits, then every field of every
/// instruction of its [`Probe::trace`](perfbug_workloads::Probe::trace),
/// little-endian.
///
/// The other digests see only tiny-scale probes, and only the first few;
/// this pins BBV profiling, SimPoint selection and the program walker at
/// the scale every default pass runs, so a walker speed-up that moves one
/// probe or one trace field fails here. The digest moves only together
/// with a [`CORPUS_REVISION`] bump.
const GOLDEN_PROBES_DIGEST: u64 = 0xed02_c4cf_e499_0742;

/// Feeds `bytes` into a running FNV-1a hash, so that hashing in pieces
/// from `fnv1a(&[])` equals [`fnv1a`] over the concatenation.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn probes_digest_matches_the_pinned_revision() {
    let mut hash = fnv1a(&[]);
    for scale in [WorkloadScale::tiny(), WorkloadScale::default()] {
        for spec in spec2006().into_iter().chain(memory_suite()) {
            let program = spec.program(&scale);
            for probe in extract_probes(&program, &spec.simpoint_config(&scale)) {
                hash = fnv1a_extend(hash, &(probe.interval as u64).to_le_bytes());
                hash = fnv1a_extend(hash, &probe.weight.to_bits().to_le_bytes());
                for inst in probe.trace(&program) {
                    hash = fnv1a_extend(hash, &inst.pc.to_le_bytes());
                    hash = fnv1a_extend(hash, &inst.mem_addr.to_le_bytes());
                    hash = fnv1a_extend(hash, &inst.target.to_le_bytes());
                    hash = fnv1a_extend(
                        hash,
                        &[
                            inst.opcode as u8,
                            inst.size,
                            inst.src1,
                            inst.src2,
                            inst.dst,
                            u8::from(inst.taken),
                        ],
                    );
                }
            }
        }
    }
    assert_eq!(
        hash, GOLDEN_PROBES_DIGEST,
        "probes or probe traces changed under CORPUS_REVISION {CORPUS_REVISION}: if \
         intended, bump CORPUS_REVISION and re-pin GOLDEN_PROBES_DIGEST = {hash:#018x}"
    );
}
