//! The memory-system variant of the methodology (§IV-D, Table VII).
//!
//! Identical two-stage pipeline, but probes run on the ChampSim-like cache
//! hierarchy simulator and the stage-1 target can be either IPC or AMAT.
//! Results feed the same [`Collection`] / evaluation machinery as the core
//! experiment.

use perfbug_memsim::{self as memsim, simulate_memory, MemArchConfig, MemBugSpec};
use perfbug_uarch::ArchSet;
use perfbug_workloads::{Probe, Program, RowMatrix, WorkloadScale};

use crate::bugs::{BugCatalog, MemBugCatalog};
use crate::counter_select::{select_counters, CounterMode, SelectionThresholds};
use crate::exec;
use crate::experiment::{collect_in_memory, Collection, PassIdentity, ProbeMeta, RunKey};
use crate::stage1::{EngineSpec, FeatureSpec, RunSeries};
use perfbug_memsim::mem_counter_names;

/// Which per-step series the stage-1 models learn to infer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMetric {
    /// Committed instructions per cycle.
    Ipc,
    /// Average memory access time (the paper's memory-focused target).
    Amat,
}

impl TargetMetric {
    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            TargetMetric::Ipc => "IPC",
            TargetMetric::Amat => "AMAT",
        }
    }
}

/// Configuration of a memory-experiment collection pass.
#[derive(Debug, Clone)]
pub struct MemCollectionConfig {
    /// Workload scale (instructions per probe).
    pub workload: WorkloadScale,
    /// Counter sampling period in cycles.
    pub step_cycles: u64,
    /// Stage-1 engines.
    pub engines: Vec<EngineSpec>,
    /// Target metric (Table VII evaluates both IPC and AMAT).
    pub metric: TargetMetric,
    /// Counter selection mode.
    pub counter_mode: CounterMode,
    /// Memory bug catalogue.
    pub catalog: MemBugCatalog,
    /// Optional probe cap.
    pub max_probes: Option<usize>,
    /// Worker threads.
    pub threads: usize,
}

impl MemCollectionConfig {
    /// Default configuration for the Table VII experiment.
    pub fn new(engines: Vec<EngineSpec>, metric: TargetMetric) -> Self {
        MemCollectionConfig {
            workload: WorkloadScale::default(),
            step_cycles: 500,
            engines,
            metric,
            counter_mode: CounterMode::Automatic(SelectionThresholds {
                // AMAT correlates with fewer counters than IPC; keep the
                // paper's thresholds but let the fallback fill to 4.
                ..SelectionThresholds::default()
            }),
            catalog: MemBugCatalog::full(),
            max_probes: None,
            threads: exec::default_threads(),
        }
    }
}

fn mem_set(set: memsim::ArchSet) -> ArchSet {
    match set {
        memsim::ArchSet::I => ArchSet::I,
        memsim::ArchSet::II => ArchSet::II,
        memsim::ArchSet::III => ArchSet::III,
        memsim::ArchSet::IV => ArchSet::IV,
    }
}

/// Runs the memory-system collection pass. The returned [`Collection`]
/// reuses the core experiment's structure (and thus its evaluation
/// functions); the `catalog` field inside it is a placeholder mirroring
/// the memory catalogue's shape, exposed through
/// [`mem_catalog_as_core`].
///
/// # Panics
///
/// Panics if no engines are configured.
pub fn collect_memory(config: &MemCollectionConfig) -> Collection {
    collect_in_memory(mem_pass_identity(config), |sink| {
        collect_memory_sharded_streaming(config, exec::ShardSpec::full(), 0, sink)
    })
}

/// Everything [`collect_memory_sharded_streaming`] derives from the
/// configuration before any simulation runs. Units reference designs by
/// index into `archs` so the struct owns all of its data.
struct MemPreparedPass {
    archs: Vec<MemArchConfig>,
    units: Vec<(usize, Option<usize>)>,
    train_units: Vec<usize>,
    val_units: Vec<usize>,
    key_units: Vec<usize>,
    keys: Vec<RunKey>,
    programs: Vec<Program>,
    probes: Vec<(usize, Probe)>,
}

/// Builds the memory experiment's unit grid and probe list, validating
/// the configuration.
fn prepare_mem_pass(config: &MemCollectionConfig) -> MemPreparedPass {
    assert!(
        !config.engines.is_empty(),
        "collection needs at least one engine"
    );
    let archs = memsim::config::all();
    let train: Vec<usize> = (0..archs.len())
        .filter(|&i| archs[i].set == memsim::ArchSet::I)
        .collect();
    let eval: Vec<usize> = (0..archs.len())
        .filter(|&i| archs[i].set != memsim::ArchSet::I)
        .collect();

    // The simulation-unit grid: Set-I bug-free runs first, then per
    // evaluation design its bug-free reference run (shared between
    // stage-1 validation and the bug-free key — the previous
    // implementation simulated Set-II designs twice) and its bug runs.
    let mut units: Vec<(usize, Option<usize>)> = Vec::new();
    let mut train_units = Vec::new();
    for &ai in &train {
        train_units.push(units.len());
        units.push((ai, None));
    }
    let mut val_units = Vec::new();
    let mut key_units = Vec::new();
    let mut keys = Vec::new();
    for &ai in &eval {
        let arch = &archs[ai];
        let bugfree_unit = units.len();
        units.push((ai, None));
        if arch.set == memsim::ArchSet::II {
            val_units.push(bugfree_unit);
        }
        key_units.push(bugfree_unit);
        keys.push(RunKey {
            arch: arch.name.clone(),
            set: mem_set(arch.set),
            bug: None,
        });
        for i in 0..config.catalog.len() {
            key_units.push(units.len());
            units.push((ai, Some(i)));
            keys.push(RunKey {
                arch: arch.name.clone(),
                set: mem_set(arch.set),
                bug: Some(i),
            });
        }
    }

    // Probes from the 22-SimPoint memory suite.
    let suite = memsim::memory_suite();
    let programs: Vec<Program> = suite.iter().map(|b| b.program(&config.workload)).collect();
    let mut probes: Vec<(usize, Probe)> = Vec::new();
    for (bi, bench) in suite.iter().enumerate() {
        for p in bench.probes(&config.workload) {
            probes.push((bi, p));
        }
    }
    if let Some(max) = config.max_probes {
        probes.truncate(max);
    }
    assert!(!probes.is_empty(), "no memory probes extracted");

    MemPreparedPass {
        archs,
        units,
        train_units,
        val_units,
        key_units,
        keys,
        programs,
        probes,
    }
}

/// Derives the [`PassIdentity`] of a memory configuration without
/// simulating anything (the memory sibling of
/// [`crate::experiment::pass_identity`]). The identity's catalogue is the
/// core-shaped mirror ([`mem_catalog_as_core`]), matching what
/// [`collect_memory`] stores in its collections.
///
/// # Panics
///
/// As [`collect_memory`].
pub fn mem_pass_identity(config: &MemCollectionConfig) -> PassIdentity {
    let pass = prepare_mem_pass(config);
    PassIdentity {
        keys: pass.keys.clone(),
        engine_names: config.engines.iter().map(|e| e.name()).collect(),
        catalog: mem_catalog_as_core(&config.catalog),
        total_probes: pass.probes.len(),
    }
}

/// The streaming heart of sharded memory collection (the memory sibling
/// of [`crate::experiment::collect_sharded_streaming`]): runs the probes
/// of `shard`, skipping the first `skip`, and hands each probe's
/// metadata and output to `sink` in strictly increasing probe order.
/// Returns the total probe count of the full pass.
///
/// # Panics
///
/// As [`collect_memory`]; a shard may own zero probes.
pub fn collect_memory_sharded_streaming<E>(
    config: &MemCollectionConfig,
    shard: exec::ShardSpec,
    skip: usize,
    mut sink: impl FnMut(ProbeMeta, exec::ProbeOutput) -> Result<(), E>,
) -> Result<usize, E> {
    let pass = prepare_mem_pass(config);

    // The shared unit-grid driver runs the same three-phase pipeline as
    // the core experiment; only the simulator and the counter-selection
    // policy differ, and the memory experiment captures no series.
    let unit_grid = exec::UnitGrid {
        n_units: pass.units.len(),
        train_units: pass.train_units.clone(),
        val_units: pass.val_units.clone(),
        key_units: pass.key_units.clone(),
    };
    exec::collect_unit_grid_streaming(
        pass.probes.len(),
        config.threads,
        shard,
        skip,
        &unit_grid,
        &config.engines,
        |pi| {
            let (bi, probe) = &pass.probes[pi];
            probe.trace(&pass.programs[*bi])
        },
        |trace: &Vec<perfbug_workloads::Inst>, u| {
            let (ai, bug_idx) = pass.units[u];
            let bug = bug_idx.map(|i| config.catalog.variants()[i]);
            mem_run(config, &pass.archs[ai], bug, trace)
        },
        |_pi, sims| FeatureSpec {
            selected: select_mem_counters(config, sims, &pass.train_units),
            arch_features: true,
            window: 1,
        },
        |_, _, _, _, _| None,
        |pi, output| {
            let (_, probe) = &pass.probes[pi];
            sink(
                ProbeMeta {
                    id: probe.id(),
                    benchmark: probe.benchmark.clone(),
                    weight: probe.weight,
                },
                output,
            )
        },
    )?;
    Ok(pass.probes.len())
}

/// Simulates one memory run and shapes it for stage 1.
fn mem_run(
    config: &MemCollectionConfig,
    arch: &MemArchConfig,
    bug: Option<MemBugSpec>,
    trace: &[perfbug_workloads::Inst],
) -> (RunSeries, f64) {
    let mr = simulate_memory(arch, bug, trace, config.step_cycles);
    let (target, overall) = match config.metric {
        TargetMetric::Ipc => (mr.ipc.clone(), mr.overall_ipc()),
        TargetMetric::Amat => (mr.amat.clone(), mr.overall_amat()),
    };
    (
        RunSeries {
            rows: mr.counter_rows,
            target,
            arch_features: arch.feature_vector(),
        },
        overall,
    )
}

/// Counter selection over the pooled Set-I runs of one probe.
fn select_mem_counters(
    config: &MemCollectionConfig,
    sims: &[(RunSeries, f64)],
    train_units: &[usize],
) -> Vec<usize> {
    match &config.counter_mode {
        CounterMode::Automatic(thresholds) => {
            let mut rows = RowMatrix::new(0);
            let mut target = Vec::new();
            for &u in train_units {
                rows.extend_from(&sims[u].0.rows);
                target.extend_from_slice(&sims[u].0.target);
            }
            // Same feature policy as the core experiment (see
            // `leakage_banned_counters`): only composition/rate columns
            // are candidates. "amat" is additionally the literal target
            // when TargetMetric::Amat is selected.
            let allowed = [
                "l1d_miss_rate",
                "l2_miss_rate",
                "llc_miss_rate",
                "pf_accuracy",
                "mpki",
            ];
            let banned: Vec<usize> = mem_counter_names()
                .iter()
                .enumerate()
                .filter(|(_, n)| !allowed.contains(&n.to_string().as_str()))
                .map(|(i, _)| i)
                .collect();
            select_counters(&rows, &target, thresholds, &banned)
        }
        CounterMode::Manual(cols) => cols.clone(),
    }
}

/// Mirrors a memory catalogue into core-bug placeholders so the shared
/// [`Collection`] evaluation (which consults type ids and names) works
/// unchanged. The mapping preserves type ids (1–8) and variant order.
pub fn mem_catalog_as_core(catalog: &MemBugCatalog) -> BugCatalog {
    use perfbug_uarch::BugSpec;
    // Type ids must match the memory catalogue's variant-to-type mapping;
    // the concrete parameters of these placeholder specs are never used by
    // the evaluation (only `type_id`/`type_name` are consulted), but the
    // ids must line up 1:1.
    let placeholder = |type_id: u32| -> BugSpec {
        match type_id {
            1 => BugSpec::SerializeOpcode {
                x: perfbug_workloads::Opcode::Xor,
            },
            2 => BugSpec::IssueOnlyIfOldest {
                x: perfbug_workloads::Opcode::Xor,
            },
            3 => BugSpec::IfOldestIssueOnlyX {
                x: perfbug_workloads::Opcode::Xor,
            },
            4 => BugSpec::DelayIfDependsOn {
                x: perfbug_workloads::Opcode::Add,
                y: perfbug_workloads::Opcode::Load,
                t: 1,
            },
            5 => BugSpec::IqBelowDelay { n: 1, t: 1 },
            6 => BugSpec::RobBelowDelay { n: 1, t: 1 },
            7 => BugSpec::MispredictExtraDelay { t: 1 },
            _ => BugSpec::StoresToLineDelay { n: 1, t: 1 },
        }
    };
    BugCatalog::new(
        catalog
            .variants()
            .iter()
            .map(|m| placeholder(m.type_id()))
            .collect(),
    )
}

/// Human-readable names of the memory bug variants, aligned with the
/// collection's catalogue order.
pub fn mem_variant_names(catalog: &MemBugCatalog) -> Vec<String> {
    catalog.variants().iter().map(|v| v.describe()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::evaluate_two_stage;
    use crate::stage2::Stage2Params;
    use perfbug_ml::GbtParams;

    fn tiny_mem_config() -> MemCollectionConfig {
        let mut config = MemCollectionConfig::new(
            vec![EngineSpec::Gbt(GbtParams {
                n_trees: 30,
                ..GbtParams::default()
            })],
            TargetMetric::Amat,
        );
        config.workload = WorkloadScale::tiny();
        config.step_cycles = 300;
        config.max_probes = Some(5);
        config.catalog = MemBugCatalog::full();
        config
    }

    #[test]
    fn memory_collection_shapes() {
        let config = tiny_mem_config();
        let col = collect_memory(&config);
        assert_eq!(col.probes.len(), 5);
        // 7 non-Set-I designs x (1 + 10 bugs).
        assert_eq!(col.keys.len(), 7 * 11);
        assert_eq!(col.engines[0].deltas.len(), 5);
    }

    #[test]
    fn memory_detection_runs_end_to_end() {
        let config = tiny_mem_config();
        let col = collect_memory(&config);
        let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
        assert!(eval.metrics.roc_auc >= 0.0);
        assert_eq!(eval.folds.len(), 6); // six memory bug types
    }

    #[test]
    fn sharded_memory_collection_merges_to_the_full_one() {
        use crate::persist::{
            cache_file_name, collect_memory_shard_or_resume, load_or_assemble,
            mem_config_fingerprint, shard_file_name, CacheStatus, ExperimentKind,
        };
        let config = tiny_mem_config();
        let mut full = collect_memory(&config);
        let fingerprint = mem_config_fingerprint(&config);
        let kind = ExperimentKind::Memory;
        let dir = std::env::temp_dir().join(format!("perfbug-mem-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        for index in 0..2 {
            let path = dir.join(shard_file_name("mem-test", kind, fingerprint, index, 2));
            collect_memory_shard_or_resume(&path, &config, exec::ShardSpec::new(index, 2))
                .expect("shard collects");
        }
        let path = dir.join(cache_file_name("mem-test", kind, fingerprint));
        let (mut merged, status) = load_or_assemble(&path, kind, fingerprint)
            .expect("assemble")
            .expect("complete shard set");
        assert_eq!(status, CacheStatus::Assembled);
        // Wall-clock timings are the only nondeterministic fields.
        merged.zero_timings();
        full.zero_timings();
        assert_eq!(merged, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_mirror_preserves_types() {
        let mem = MemBugCatalog::full();
        let core = mem_catalog_as_core(&mem);
        assert_eq!(core.len(), mem.len());
        assert_eq!(core.type_ids(), mem.type_ids());
        for t in mem.type_ids() {
            assert_eq!(core.variants_of_type(t), mem.variants_of_type(t));
        }
    }
}
