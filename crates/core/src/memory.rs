//! The memory-system variant of the methodology (§IV-D, Table VII).
//!
//! Identical two-stage pipeline, but probes run on the ChampSim-like cache
//! hierarchy simulator and the stage-1 target can be either IPC or AMAT.
//! [`MemCollectionConfig`] implements the [`Experiment`] trait, so the
//! memory experiment is collected, fingerprinted and cached by the same
//! functions as the core experiment, and its
//! [`Collection`](crate::experiment::Collection) feeds the same
//! evaluation. [`collect_memory`] and [`mem_pass_identity`] are two of
//! those functions under the older memory names existing callers use.

use perfbug_memsim::{self as memsim, mem_counter_names, simulate_memory, ArchSet, MemArchConfig};
use perfbug_workloads::{BenchmarkSpec, Probe, WorkloadScale};

use crate::bugs::{BugCatalog, MemBugCatalog};
use crate::counter_select::{CounterMode, SelectionThresholds};
use crate::exec;
use crate::experiment::{
    CaptureSpec, CounterPolicy, Design, DesignRole, Experiment, UnitSimulator,
};
use crate::persist::ExperimentKind;
use crate::stage1::{EngineSpec, RunSeries};

/// [`crate::experiment::collect`] under its memory-experiment name.
pub use crate::experiment::collect as collect_memory;
/// [`crate::experiment::pass_identity`] under its memory-experiment name.
pub use crate::experiment::pass_identity as mem_pass_identity;

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

/// The cache-hierarchy designs in unit-grid order: Set I first, then the
/// evaluated designs, each group in catalogue order.
fn grid_archs() -> Vec<MemArchConfig> {
    let (mut archs, eval): (Vec<_>, Vec<_>) = memsim::config::all()
        .into_iter()
        .partition(|a| a.set == ArchSet::I);
    archs.extend(eval);
    archs
}

impl Experiment for MemCollectionConfig {
    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Memory
    }

    fn fingerprint_canon(&self) -> String {
        format!(
            "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.workload,
            self.step_cycles,
            self.engines,
            self.metric,
            self.counter_mode,
            self.catalog.variants(),
            self.max_probes,
        )
    }

    fn engines(&self) -> &[EngineSpec] {
        &self.engines
    }

    fn threads(&self) -> usize {
        self.threads
    }

    /// Set-II designs validate stage 1.
    fn designs(&self) -> Vec<Design> {
        grid_archs()
            .into_iter()
            .map(|a| Design {
                role: match a.set {
                    ArchSet::I => DesignRole::Train,
                    ArchSet::II => DesignRole::Validate,
                    _ => DesignRole::Evaluate,
                },
                set: a.set,
                name: a.name,
            })
            .collect()
    }

    /// The core-shaped mirror of the memory catalogue
    /// ([`mem_catalog_as_core`]).
    fn catalog(&self) -> BugCatalog {
        mem_catalog_as_core(&self.catalog)
    }

    /// The 22-SimPoint memory suite.
    fn benchmarks(&self) -> Vec<BenchmarkSpec> {
        memsim::memory_suite()
    }

    fn workload(&self) -> WorkloadScale {
        self.workload
    }

    /// Every SimPoint in suite order, truncated to `max_probes`.
    fn pick_probes(&self, per_benchmark: Vec<Vec<Probe>>) -> Vec<(usize, Probe)> {
        let mut probes: Vec<(usize, Probe)> = per_benchmark
            .into_iter()
            .enumerate()
            .flat_map(|(b, probes)| probes.into_iter().map(move |p| (b, p)))
            .collect();
        if let Some(max) = self.max_probes {
            probes.truncate(max);
        }
        probes
    }

    fn simulator(&self) -> UnitSimulator<'_> {
        let archs = grid_archs();
        Box::new(move |d, bug, trace| {
            let arch = &archs[d];
            let bug = bug.map(|i| self.catalog.variants()[i]);
            let mr = simulate_memory(arch, bug, trace, self.step_cycles);
            let (overall, target) = match self.metric {
                TargetMetric::Ipc => (mr.overall_ipc(), mr.ipc),
                TargetMetric::Amat => (mr.overall_amat(), mr.amat),
            };
            (
                RunSeries {
                    rows: mr.counter_rows,
                    target,
                    arch_features: arch.feature_vector(),
                },
                overall,
            )
        })
    }

    /// Same feature policy as the core experiment (see
    /// [`crate::counter_select::leakage_banned_counters`]): only
    /// composition/rate columns are candidates. "amat" is additionally
    /// the literal target when [`TargetMetric::Amat`] is selected.
    fn counter_policy(&self) -> CounterPolicy<'_> {
        let allowed = [
            "l1d_miss_rate",
            "l2_miss_rate",
            "llc_miss_rate",
            "pf_accuracy",
            "mpki",
        ];
        CounterPolicy {
            mode: &self.counter_mode,
            banned: mem_counter_names()
                .iter()
                .enumerate()
                .filter(|(_, n)| !allowed.contains(n))
                .map(|(i, _)| i)
                .collect(),
            arch_features: true,
            window: 1,
        }
    }

    /// The memory experiment captures no series.
    fn captures(&self) -> &[CaptureSpec] {
        &[]
    }
}

/// Mirrors a memory catalogue into core-bug placeholders so the shared
/// [`Collection`](crate::experiment::Collection) evaluation (which
/// consults type ids and names) works unchanged. The mapping preserves
/// type ids (1–8) and variant order.
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
    use crate::experiment::{collect, evaluate_two_stage};
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
        let col = collect(&config);
        assert_eq!(col.probes.len(), 5);
        // 7 non-Set-I designs x (1 + 10 bugs).
        assert_eq!(col.keys.len(), 7 * 11);
        assert_eq!(col.engines[0].deltas.len(), 5);
    }

    #[test]
    fn memory_detection_runs_end_to_end() {
        let config = tiny_mem_config();
        let col = collect(&config);
        let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
        assert!(eval.metrics.roc_auc >= 0.0);
        assert_eq!(eval.folds.len(), 6); // six memory bug types
    }

    #[test]
    fn sharded_memory_collection_merges_to_the_full_one() {
        use crate::persist::{
            cache_file_name, collect_shard_or_resume, config_fingerprint, load_or_assemble,
            shard_file_name, CacheStatus,
        };
        let config = tiny_mem_config();
        let mut full = collect(&config);
        let fingerprint = config_fingerprint(&config);
        let kind = ExperimentKind::Memory;
        let dir = std::env::temp_dir().join(format!("perfbug-mem-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        for index in 0..2 {
            let path = dir.join(shard_file_name("mem-test", kind, fingerprint, index, 2));
            collect_shard_or_resume(&path, &config, exec::ShardSpec::new(index, 2))
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
