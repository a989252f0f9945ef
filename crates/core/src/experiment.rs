//! End-to-end experiment orchestration: probe simulation, stage-1 model
//! training, error collection, and the leave-one-bug-type-out evaluation
//! protocol of §V-B (Fig. 7).
//!
//! The expensive phase is *collection*: every probe is simulated on every
//! design of the experiment partition, bug-free and with every catalogue
//! bug, and one stage-1 model per (probe, engine) is trained to produce the
//! per-run inference errors. The cheap phase is *evaluation*: stage-2
//! classifiers (or the baseline) are re-fit per held-out bug type from the
//! collected error matrix.
//!
//! Collection is written once, over the [`Experiment`] trait: the core
//! experiment ([`CollectionConfig`]) and the memory-system experiment
//! (`memory::MemCollectionConfig`) answer only what differs between them
//! — designs, probes, the simulator, the counter policy — and share the
//! unit grid, [`pass_identity`], the streaming pass and [`collect`].

use std::convert::Infallible;
use std::time::Duration;

use perfbug_uarch::{presets, simulate, ArchSet, BugSpec, MicroarchConfig};
use perfbug_workloads::{
    extract_probes, spec2006, BenchmarkSpec, Inst, Probe, Program, RowMatrix, WorkloadScale,
};

use crate::exec;
use crate::persist::ExperimentKind;

use crate::baseline::{BaselineClassifier, BaselineParams, BaselineSample};
use crate::bugs::{BugCatalog, Severity};
use crate::counter_select::{leakage_banned_counters, select_counters, CounterMode};
use crate::detmetrics::{Decision, DetectionMetrics};
use crate::stage1::{EngineSpec, FeatureSpec, RunSeries};
use crate::stage2::{Stage2Classifier, Stage2Params};

/// Ceiling applied to stage-1 inference errors so that non-convergent
/// models (the paper's LSTM outliers) cannot poison stage-2 statistics —
/// the paper likewise drops "LSTM results with huge errors".
pub(crate) const DELTA_CEILING: f64 = 1e6;

/// Simulation scale knobs shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeScale {
    /// Workload scale (instructions per probe interval).
    pub workload: WorkloadScale,
    /// Counter sampling period in cycles (stands in for the paper's 500 k).
    pub step_cycles: u64,
}

impl Default for ProbeScale {
    fn default() -> Self {
        ProbeScale {
            workload: WorkloadScale::default(),
            step_cycles: 1000,
        }
    }
}

impl ProbeScale {
    /// Reduced scale for tests.
    pub fn tiny() -> Self {
        ProbeScale {
            workload: WorkloadScale::tiny(),
            step_cycles: 400,
        }
    }
}

/// The disjoint design sets of the experiment (Table II roles).
#[derive(Debug, Clone)]
pub struct ArchPartition {
    /// Set I — trains stage-1 models.
    pub train: Vec<MicroarchConfig>,
    /// Set II — validates stage-1 training; labels stage 2.
    pub val: Vec<MicroarchConfig>,
    /// Set III — additional stage-2 labels.
    pub stage2_extra: Vec<MicroarchConfig>,
    /// Set IV — held-out test designs.
    pub test: Vec<MicroarchConfig>,
}

impl ArchPartition {
    /// The paper's partition (Table II).
    pub fn paper() -> Self {
        ArchPartition {
            train: presets::by_set(ArchSet::I),
            val: presets::by_set(ArchSet::II),
            stage2_extra: presets::by_set(ArchSet::III),
            test: presets::by_set(ArchSet::IV),
        }
    }

    /// The reduced partition of §V-H (Fig. 13): training sets shrink and
    /// prefer real designs; the test set is unchanged.
    pub fn reduced() -> Self {
        let keep = |set: ArchSet, n: usize| -> Vec<MicroarchConfig> {
            let mut designs = presets::by_set(set);
            designs.sort_by_key(|a| !a.real); // real designs first
            designs.truncate(n);
            designs
        };
        ArchPartition {
            train: keep(ArchSet::I, 5),
            val: keep(ArchSet::II, 2),
            stage2_extra: keep(ArchSet::III, 2),
            test: presets::by_set(ArchSet::IV),
        }
    }

    /// Designs whose runs are evaluated by stage 2 (sets II, III and IV).
    pub fn eval_archs(&self) -> Vec<&MicroarchConfig> {
        self.val
            .iter()
            .chain(&self.stage2_extra)
            .chain(&self.test)
            .collect()
    }

    /// Every design with its role, in unit-grid order: Set I, then
    /// [`eval_archs`](Self::eval_archs). Validation runs are the members
    /// of `val`, not whichever designs carry a Set-II tag — custom
    /// partitions may deliberately mix tags and vectors.
    fn roles(&self) -> impl Iterator<Item = (&MicroarchConfig, DesignRole)> {
        [
            (&self.train, DesignRole::Train),
            (&self.val, DesignRole::Validate),
            (&self.stage2_extra, DesignRole::Evaluate),
            (&self.test, DesignRole::Evaluate),
        ]
        .into_iter()
        .flat_map(|(archs, role)| archs.iter().map(move |a| (a, role)))
    }
}

/// Identifies one simulated run: a design and an optional catalogue bug.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// Design name.
    pub arch: String,
    /// The design's experiment set.
    pub set: ArchSet,
    /// Index into the bug catalogue (`None` = bug-free).
    pub bug: Option<usize>,
}

/// Metadata of one collected probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMeta {
    /// Probe identifier (`benchmark#ordinal`).
    pub id: String,
    /// Source benchmark.
    pub benchmark: String,
    /// SimPoint weight within its benchmark.
    pub weight: f64,
}

/// A captured (simulated, inferred) series for figure regeneration.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedSeries {
    /// Probe identifier.
    pub probe_id: String,
    /// Design name.
    pub arch: String,
    /// Catalogue bug index (`None` = bug-free).
    pub bug: Option<usize>,
    /// Engine name.
    pub engine: String,
    /// Simulated per-step target.
    pub simulated: Vec<f64>,
    /// Model-inferred per-step target.
    pub inferred: Vec<f64>,
}

/// Request to capture series for one (probe, design, bug) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureSpec {
    /// Probe identifier to capture.
    pub probe_id: String,
    /// Design name.
    pub arch: String,
    /// Catalogue bug index (`None` = bug-free).
    pub bug: Option<usize>,
}

/// Per-engine collection output.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Engine display name.
    pub name: String,
    /// Eq.-(1) inference errors, `[probe][run key]`.
    pub deltas: Vec<Vec<f64>>,
    /// Total stage-1 training time across probes.
    pub train_time: Duration,
    /// Total stage-1 inference time across probes and runs.
    pub infer_time: Duration,
}

/// Everything the evaluation phase needs, collected in one pass.
///
/// Collections are the unit of persistence: [`crate::persist`] serialises
/// them with a versioned binary codec so evaluation-only experiments can
/// replay a saved corpus instead of re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// Run keys, shared by all per-probe vectors.
    pub keys: Vec<RunKey>,
    /// Probe metadata in probe order.
    pub probes: Vec<ProbeMeta>,
    /// Per-engine inference errors.
    pub engines: Vec<EngineResult>,
    /// Overall target metric (IPC) per `[probe][key]`.
    pub overall_ipc: Vec<Vec<f64>>,
    /// Aggregated per-run features for the baseline, `[probe][key]`.
    pub agg_features: Vec<Vec<Vec<f64>>>,
    /// Captured series for figures.
    pub captures: Vec<CapturedSeries>,
    /// The bug catalogue used.
    pub catalog: BugCatalog,
}

impl Collection {
    /// Zeroes the per-engine wall-clock timing fields — the only
    /// legitimately nondeterministic part of a collection (shard times
    /// sum, single-process times are measured in one go). Bit-identity
    /// checks (the replay/orchestrate guards, the shard property suites)
    /// call this on both sides before comparing encodings.
    pub fn zero_timings(&mut self) {
        for engine in &mut self.engines {
            engine.train_time = std::time::Duration::ZERO;
            engine.infer_time = std::time::Duration::ZERO;
        }
    }
}

/// Configuration of one collection pass.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Simulation scale.
    pub scale: ProbeScale,
    /// Stage-1 engines to train (sharing the simulations).
    pub engines: Vec<EngineSpec>,
    /// Counter selection mode.
    pub counter_mode: CounterMode,
    /// Stage-1 feature window size.
    pub window: usize,
    /// Whether design-parameter features are used (§V-G).
    pub arch_features: bool,
    /// Bug catalogue to inject.
    pub catalog: BugCatalog,
    /// Benchmarks providing probes.
    pub benchmarks: Vec<BenchmarkSpec>,
    /// Optional cap on the number of probes (round-robin across
    /// benchmarks, preserving coverage).
    pub max_probes: Option<usize>,
    /// Design partition.
    pub partition: ArchPartition,
    /// A bug silently injected into every presumed-bug-free design
    /// (Table V's "bugs in presumed bug-free training" rows).
    pub presumed_bugfree_bug: Option<BugSpec>,
    /// Series to capture for figure regeneration.
    pub captures: Vec<CaptureSpec>,
    /// Worker threads for run-level parallelism (defaults to the machine's
    /// available parallelism; clamped below at 1).
    pub threads: usize,
}

impl CollectionConfig {
    /// A reasonable default configuration at reproduction scale: the full
    /// Table II partition, the supplied engines and catalogue, automatic
    /// counter selection, window 1 and design features on.
    pub fn new(engines: Vec<EngineSpec>, catalog: BugCatalog) -> Self {
        CollectionConfig {
            scale: ProbeScale::default(),
            engines,
            counter_mode: CounterMode::default(),
            window: 1,
            arch_features: true,
            catalog,
            benchmarks: spec2006(),
            max_probes: None,
            partition: ArchPartition::paper(),
            presumed_bugfree_bug: None,
            captures: Vec::new(),
            threads: exec::default_threads(),
        }
    }
}

// --------------------------------------------------------------------------
// The experiment abstraction and the one collection pass over it
// --------------------------------------------------------------------------

/// How the method uses one design of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignRole {
    /// A presumed-bug-free legacy design whose bug-free run trains stage 1
    /// (Set I). Training designs have no run keys.
    Train,
    /// An evaluated design whose bug-free run also validates stage 1
    /// (Set II).
    Validate,
    /// An evaluated design (Sets III and IV).
    Evaluate,
}

/// One design of an experiment, as the unit grid sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name (the `arch` of its run keys).
    pub name: String,
    /// The design's experiment set.
    pub set: ArchSet,
    /// How the method uses the design.
    pub role: DesignRole,
}

/// An experiment's stage-1 counter-selection policy.
#[derive(Debug, Clone)]
pub struct CounterPolicy<'a> {
    /// Automatic selection thresholds or a manual column list.
    pub mode: &'a CounterMode,
    /// Counter columns automatic selection must never pick.
    pub banned: Vec<usize>,
    /// Whether design-parameter features are appended (§V-G).
    pub arch_features: bool,
    /// Stage-1 feature window size (at least 1).
    pub window: usize,
}

impl CounterPolicy<'_> {
    /// Per-probe counter selection over the pooled training (Set I) runs
    /// of one probe; `sims` holds the probe's units in grid order.
    fn features(&self, train_units: &[usize], sims: &[(RunSeries, f64)]) -> FeatureSpec {
        let selected = match self.mode {
            CounterMode::Automatic(thresholds) => {
                let mut rows = RowMatrix::new(0);
                let mut target = Vec::new();
                for &u in train_units {
                    rows.extend_from(&sims[u].0.rows);
                    target.extend_from_slice(&sims[u].0.target);
                }
                select_counters(&rows, &target, thresholds, &self.banned)
            }
            CounterMode::Manual(cols) => cols.clone(),
        };
        FeatureSpec {
            selected,
            arch_features: self.arch_features,
            window: self.window,
        }
    }
}

/// Simulates design `d` (an index into [`Experiment::designs`]) with
/// catalogue bug `bug` (`None` = bug-free) on one probe trace, returning
/// the stage-1 series and the overall target metric.
pub type UnitSimulator<'a> =
    Box<dyn Fn(usize, Option<usize>, &[Inst]) -> (RunSeries, f64) + Sync + 'a>;

/// One kind of collection experiment: the out-of-order core experiment
/// ([`CollectionConfig`]) or the cache-hierarchy one
/// ([`crate::memory::MemCollectionConfig`]).
///
/// The paper runs one unchanged two-stage method on both (§IV-D), so the
/// trait answers only what differs between them. Everything else — the
/// unit grid, [`pass_identity`], the streaming pass, [`collect`], the
/// fingerprint ([`crate::persist::config_fingerprint`]) and the cache
/// front doors ([`crate::persist::collect_or_load`],
/// [`crate::persist::collect_shard_or_resume`]) — is written once over
/// `&dyn Experiment`.
pub trait Experiment: Sync {
    /// The wire tag of the corpora this experiment produces.
    fn kind(&self) -> ExperimentKind;

    /// Everything in the configuration that shapes the collected data, as
    /// the `|`-separated text the config fingerprint hashes after its
    /// kind and version prefix. Worker threads are left out: the pass is
    /// deterministic for any worker count.
    fn fingerprint_canon(&self) -> String;

    /// Stage-1 engines, trained on shared simulations.
    fn engines(&self) -> &[EngineSpec];

    /// Worker threads (clamped below at 1).
    fn threads(&self) -> usize;

    /// The designs in unit-grid order.
    fn designs(&self) -> Vec<Design>;

    /// The bug catalogue stored in the collection; the bug index of a
    /// unit or run key indexes it.
    fn catalog(&self) -> BugCatalog;

    /// Benchmarks providing probes.
    fn benchmarks(&self) -> Vec<BenchmarkSpec>;

    /// Workload scale of the benchmarks' programs and probes.
    fn workload(&self) -> WorkloadScale;

    /// Picks the pass's probes, as `(benchmark index, probe)`, from every
    /// benchmark's SimPoint probes (`per_benchmark`, in benchmark order).
    fn pick_probes(&self, per_benchmark: Vec<Vec<Probe>>) -> Vec<(usize, Probe)>;

    /// The simulator of one (design, bug) unit.
    fn simulator(&self) -> UnitSimulator<'_>;

    /// How counters are selected for stage 1.
    fn counter_policy(&self) -> CounterPolicy<'_>;

    /// Series to capture for figure regeneration.
    fn captures(&self) -> &[CaptureSpec];
}

/// One simulation unit: a (design index, catalogue bug index) pair, the
/// bug `None` for the design's bug-free run.
type Unit = (usize, Option<usize>);

/// Builds the simulation-unit grid of a pass and its aligned run-key
/// list.
///
/// Units are distinct: per probe, each unit is simulated exactly once and
/// its result is shared by every consumer — stage-1 training, stage-1
/// validation and every evaluation key. In particular the bug-free run of
/// a validation design is both its validation run and its bug-free key.
fn unit_grid(designs: &[Design], n_bugs: usize) -> (Vec<Unit>, exec::UnitGrid, Vec<RunKey>) {
    let mut units = Vec::new();
    let mut grid = exec::UnitGrid {
        n_units: 0,
        train_units: Vec::new(),
        val_units: Vec::new(),
        key_units: Vec::new(),
    };
    let mut keys = Vec::new();
    for (d, design) in designs.iter().enumerate() {
        let bugfree = units.len();
        units.push((d, None));
        match design.role {
            DesignRole::Train => {
                grid.train_units.push(bugfree);
                continue;
            }
            DesignRole::Validate => grid.val_units.push(bugfree),
            DesignRole::Evaluate => {}
        }
        grid.key_units.push(bugfree);
        keys.push(RunKey {
            arch: design.name.clone(),
            set: design.set,
            bug: None,
        });
        for i in 0..n_bugs {
            grid.key_units.push(units.len());
            units.push((d, Some(i)));
            keys.push(RunKey {
                arch: design.name.clone(),
                set: design.set,
                bug: Some(i),
            });
        }
    }
    grid.n_units = units.len();
    (units, grid, keys)
}

/// Number of distinct simulation units — (design, bug) combinations —
/// every probe of a collection pass runs. [`collect`] simulates exactly
/// `probes x this` runs; throughput tooling uses it to turn wall time
/// into runs/sec without re-deriving the grid shape.
pub fn simulation_units_per_probe(exp: &dyn Experiment) -> usize {
    unit_grid(&exp.designs(), exp.catalog().len()).0.len()
}

/// Selects up to `max` probes round-robin across benchmarks, tagging each
/// with its benchmark index.
fn subsample_probes(per_benchmark: Vec<Vec<Probe>>, max: Option<usize>) -> Vec<(usize, Probe)> {
    let total: usize = per_benchmark.iter().map(Vec::len).sum();
    let budget = max.unwrap_or(total).min(total);
    let mut taken = Vec::with_capacity(budget);
    let mut cursors = vec![0usize; per_benchmark.len()];
    while taken.len() < budget {
        let mut advanced = false;
        for (b, probes) in per_benchmark.iter().enumerate() {
            if taken.len() >= budget {
                break;
            }
            if cursors[b] < probes.len() {
                taken.push((b, probes[cursors[b]].clone()));
                cursors[b] += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    taken
}

/// Runs the full collection pass: simulate, select counters, train stage-1
/// models and gather inference errors for every (probe, run key).
///
/// # Panics
///
/// Panics if the experiment has no engines, no benchmarks, no training
/// designs or no probes (the core experiment also needs Set IV designs).
pub fn collect(exp: &dyn Experiment) -> Collection {
    let pass = PreparedPass::new(exp);
    let mut out = exec::GridOutput::new(&pass.identity.engine_names);
    let mut probes = Vec::with_capacity(pass.identity.total_probes);
    let Ok(()) = pass.stream::<Infallible>(exec::ShardSpec::full(), 0, |meta, po| {
        probes.push(meta);
        out.push(po);
        Ok(())
    });
    let PassIdentity { keys, catalog, .. } = pass.identity;
    Collection {
        keys,
        probes,
        engines: out.engines,
        overall_ipc: out.overall,
        agg_features: out.agg_features,
        captures: out.captures,
        catalog,
    }
}

/// The simulation-independent shape of a collection pass, derivable from
/// the configuration alone (no probe is simulated).
///
/// It carries everything a persistence layer needs to lay out an output
/// file *before* the first probe finishes — the run-key axis, the engine
/// roster, the catalogue and the total probe count — which is what makes
/// crash-recoverable streaming collection
/// ([`crate::persist::collect_shard_or_resume`]) possible.
#[derive(Debug, Clone)]
pub struct PassIdentity {
    /// Run keys of the pass, shared by all per-probe vectors.
    pub keys: Vec<RunKey>,
    /// Engine display names, in configured engine order.
    pub engine_names: Vec<String>,
    /// The bug catalogue of the pass.
    pub catalog: BugCatalog,
    /// Total probe count of the full (unsharded) pass.
    pub total_probes: usize,
}

/// Derives the [`PassIdentity`] of an experiment without simulating
/// anything: it builds only the programs, the probes and the unit grid.
///
/// # Panics
///
/// As [`collect`].
pub fn pass_identity(exp: &dyn Experiment) -> PassIdentity {
    PreparedPass::new(exp).identity
}

/// Everything a pass derives from its experiment before any simulation
/// runs: the unit grid, the pass identity, the programs and the probes.
pub(crate) struct PreparedPass<'e> {
    exp: &'e dyn Experiment,
    /// Every unit of the grid, in unit order.
    units: Vec<Unit>,
    grid: exec::UnitGrid,
    pub(crate) identity: PassIdentity,
    /// One program per benchmark, in benchmark order.
    programs: Vec<Program>,
    /// The pass's probes with their benchmark index.
    probes: Vec<(usize, Probe)>,
}

impl<'e> PreparedPass<'e> {
    /// Builds the unit grid and probe list, validating the experiment.
    ///
    /// # Panics
    ///
    /// As [`collect`].
    pub(crate) fn new(exp: &'e dyn Experiment) -> Self {
        assert!(
            !exp.engines().is_empty(),
            "collection needs at least one engine"
        );
        let designs = exp.designs();
        assert!(
            designs.iter().any(|d| d.role == DesignRole::Train),
            "Set I must not be empty"
        );
        let catalog = exp.catalog();
        let (units, grid, keys) = unit_grid(&designs, catalog.len());

        let workload = exp.workload();
        let benchmarks = exp.benchmarks();
        assert!(!benchmarks.is_empty(), "collection needs benchmarks");
        let programs: Vec<Program> = benchmarks.iter().map(|b| b.program(&workload)).collect();
        let per_benchmark = benchmarks
            .iter()
            .zip(&programs)
            .map(|(b, program)| extract_probes(program, &b.simpoint_config(&workload)))
            .collect();
        let probes = exp.pick_probes(per_benchmark);
        assert!(!probes.is_empty(), "no probes extracted");

        PreparedPass {
            exp,
            units,
            grid,
            identity: PassIdentity {
                keys,
                engine_names: exp.engines().iter().map(EngineSpec::name).collect(),
                catalog,
                total_probes: probes.len(),
            },
            programs,
            probes,
        }
    }

    /// The streaming heart of collection: runs the probes of `shard`,
    /// skipping the first `skip` (already-durable probes of a resumed
    /// attempt), and hands each probe's metadata and complete output to
    /// `sink` in strictly increasing probe order as soon as it is
    /// assembled.
    ///
    /// A `sink` error aborts the pass (the error is returned verbatim);
    /// nothing is retried. Every probe's pipeline depends only on its own
    /// trace, so the streamed outputs are bit-identical to the
    /// corresponding slice of a full [`collect`] for any `shard` and
    /// `skip`; merging a disjoint covering set of shard files
    /// ([`crate::persist::merge_shard_files`]) therefore reassembles the
    /// single-process collection exactly (wall-clock timings aside, which
    /// sum over shards). A shard may own zero probes.
    pub(crate) fn stream<E>(
        &self,
        shard: exec::ShardSpec,
        skip: usize,
        mut sink: impl FnMut(ProbeMeta, exec::ProbeOutput) -> Result<(), E>,
    ) -> Result<(), E> {
        let exp = self.exp;
        let simulate = exp.simulator();
        let policy = exp.counter_policy();
        let captures = exp.captures();
        let keys = &self.identity.keys;
        // Run-level parallel collection through the shared unit-grid
        // driver: trace generation, the (probe x unit) simulation grid,
        // per-probe counter selection and the (probe x engine) training
        // grid all run on the work-stealing pool, with deterministic
        // assembly for any worker count.
        exec::collect_unit_grid_streaming(
            self.probes.len(),
            exp.threads(),
            shard,
            skip,
            &self.grid,
            exp.engines(),
            |pi| {
                let (b, probe) = &self.probes[pi];
                probe.trace(&self.programs[*b])
            },
            |trace: &Vec<Inst>, u| {
                let (d, bug) = self.units[u];
                simulate(d, bug, trace)
            },
            |_pi, sims| policy.features(&self.grid.train_units, sims),
            |pi, pos, engine, series, inferred| {
                let key = &keys[pos];
                let probe = &self.probes[pi].1;
                let wanted = captures
                    .iter()
                    .any(|c| c.probe_id == probe.id() && c.arch == key.arch && c.bug == key.bug);
                wanted.then(|| CapturedSeries {
                    probe_id: probe.id(),
                    arch: key.arch.clone(),
                    bug: key.bug,
                    engine: engine.name(),
                    simulated: series.target.clone(),
                    inferred: inferred.to_vec(),
                })
            },
            |pi, output| {
                let probe = &self.probes[pi].1;
                sink(
                    ProbeMeta {
                        id: probe.id(),
                        benchmark: probe.benchmark.clone(),
                        weight: probe.weight,
                    },
                    output,
                )
            },
        )
    }
}

impl Experiment for CollectionConfig {
    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Core
    }

    fn fingerprint_canon(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.scale,
            self.engines,
            self.counter_mode,
            self.window,
            self.arch_features,
            self.catalog.variants(),
            // The whole benchmark specs, not just their names: k, seed and
            // phase structure all shape the probe set and traces.
            self.benchmarks,
            self.max_probes,
            self.partition,
            self.presumed_bugfree_bug,
            self.captures,
        )
    }

    fn engines(&self) -> &[EngineSpec] {
        &self.engines
    }

    fn threads(&self) -> usize {
        self.threads
    }

    /// Set I, then the evaluated designs of [`ArchPartition::eval_archs`].
    fn designs(&self) -> Vec<Design> {
        assert!(!self.partition.test.is_empty(), "Set IV must not be empty");
        self.partition
            .roles()
            .map(|(a, role)| Design {
                name: a.name.clone(),
                set: a.set,
                role,
            })
            .collect()
    }

    fn catalog(&self) -> BugCatalog {
        self.catalog.clone()
    }

    fn benchmarks(&self) -> Vec<BenchmarkSpec> {
        self.benchmarks.clone()
    }

    fn workload(&self) -> WorkloadScale {
        self.scale.workload
    }

    fn pick_probes(&self, per_benchmark: Vec<Vec<Probe>>) -> Vec<(usize, Probe)> {
        subsample_probes(per_benchmark, self.max_probes)
    }

    fn simulator(&self) -> UnitSimulator<'_> {
        let archs: Vec<&MicroarchConfig> = self.partition.roles().map(|(a, _)| a).collect();
        Box::new(move |d, bug, trace| {
            let arch = archs[d];
            // The presumed-bug-free defect contaminates every run: it is
            // part of the "design" for this experiment.
            let bug = bug
                .map(|i| self.catalog.variants()[i])
                .or(self.presumed_bugfree_bug);
            let pr = simulate(arch, bug, trace, self.scale.step_cycles);
            let overall = pr.overall_ipc();
            (
                RunSeries {
                    rows: pr.counter_rows,
                    target: pr.ipc,
                    arch_features: arch.feature_vector(),
                },
                overall,
            )
        })
    }

    fn counter_policy(&self) -> CounterPolicy<'_> {
        CounterPolicy {
            mode: &self.counter_mode,
            banned: leakage_banned_counters(),
            arch_features: self.arch_features,
            window: self.window.max(1),
        }
    }

    fn captures(&self) -> &[CaptureSpec] {
        &self.captures
    }
}

// --------------------------------------------------------------------------
// Evaluation
// --------------------------------------------------------------------------

/// Per-variant average relative IPC impact, measured on the held-out test
/// designs: SimPoint-weighted per benchmark, averaged over benchmarks (the
/// paper's "average IPC impact across the studied applications"), averaged
/// over the Set-IV designs.
pub fn severity_impacts(col: &Collection) -> Vec<f64> {
    let n_variants = col.catalog.len();
    let mut impacts = vec![0.0; n_variants];
    let benchmarks: Vec<String> = {
        let mut names: Vec<String> = col.probes.iter().map(|p| p.benchmark.clone()).collect();
        names.dedup();
        names.sort();
        names.dedup();
        names
    };
    let test_archs: Vec<&RunKey> = col
        .keys
        .iter()
        .filter(|k| k.set == ArchSet::IV && k.bug.is_none())
        .collect();
    for (v, impact) in impacts.iter_mut().enumerate() {
        let mut arch_sum = 0.0;
        for base_key in &test_archs {
            let bug_idx = col
                .keys
                .iter()
                .position(|k| k.arch == base_key.arch && k.bug == Some(v))
                .expect("bug key exists for every design");
            let base_idx = col
                .keys
                .iter()
                .position(|k| k.arch == base_key.arch && k.bug.is_none())
                .expect("bug-free key exists");
            let mut bench_sum = 0.0;
            let mut bench_count = 0.0;
            for bench in &benchmarks {
                let mut base_ipc = 0.0;
                let mut bug_ipc = 0.0;
                let mut weight_total = 0.0;
                for (p, meta) in col.probes.iter().enumerate() {
                    if &meta.benchmark != bench {
                        continue;
                    }
                    base_ipc += meta.weight * col.overall_ipc[p][base_idx];
                    bug_ipc += meta.weight * col.overall_ipc[p][bug_idx];
                    weight_total += meta.weight;
                }
                if weight_total > 0.0 && base_ipc > 0.0 {
                    bench_sum += (base_ipc - bug_ipc) / base_ipc;
                    bench_count += 1.0;
                }
            }
            if bench_count > 0.0 {
                arch_sum += bench_sum / bench_count;
            }
        }
        *impact = (arch_sum / test_archs.len().max(1) as f64).max(0.0);
    }
    impacts
}

/// The decisions of one leave-one-type-out fold.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// The held-out bug type.
    pub type_id: u32,
    /// Name of the held-out type.
    pub type_name: String,
    /// Test-time decisions of this fold.
    pub decisions: Vec<Decision>,
}

/// Full evaluation outcome.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Metrics pooled over all folds.
    pub metrics: DetectionMetrics,
    /// Per-fold decisions (for per-type ROC curves, Fig. 8).
    pub folds: Vec<FoldResult>,
    /// Measured per-variant impact (severity source).
    pub impacts: Vec<f64>,
}

fn sample_vector(deltas: &[Vec<f64>], probe_subset: &[usize], key_idx: usize) -> Vec<f64> {
    probe_subset.iter().map(|&p| deltas[p][key_idx]).collect()
}

/// Evaluates the two-stage methodology with the leave-one-bug-type-out
/// protocol, using `engine_idx` of the collection's engines and only the
/// probes in `probe_subset` (pass `0..n` for all probes; Fig. 9 passes
/// reduced subsets).
///
/// # Panics
///
/// Panics if indices are out of range or the subset is empty.
pub fn evaluate_two_stage_subset(
    col: &Collection,
    engine_idx: usize,
    params: Stage2Params,
    probe_subset: &[usize],
) -> Evaluation {
    assert!(!probe_subset.is_empty(), "need at least one probe");
    let deltas = &col.engines[engine_idx].deltas;
    let impacts = severity_impacts(col);
    let mut folds = Vec::new();

    for type_id in col.catalog.type_ids() {
        let held_out = col.catalog.variants_of_type(type_id);
        // Training samples from sets II and III.
        let mut train_pos = Vec::new();
        let mut train_neg = Vec::new();
        for (k, key) in col.keys.iter().enumerate() {
            if !matches!(key.set, ArchSet::II | ArchSet::III) {
                continue;
            }
            match key.bug {
                None => train_neg.push(sample_vector(deltas, probe_subset, k)),
                Some(v) if !held_out.contains(&v) => {
                    train_pos.push(sample_vector(deltas, probe_subset, k))
                }
                Some(_) => {}
            }
        }
        let clf = Stage2Classifier::fit(params, &train_pos, &train_neg);

        // Test on Set IV: the held-out type's variants plus bug-free runs.
        let mut decisions = Vec::new();
        for (k, key) in col.keys.iter().enumerate() {
            if key.set != ArchSet::IV {
                continue;
            }
            let (has_bug, severity) = match key.bug {
                None => (false, None),
                Some(v) if held_out.contains(&v) => (true, Some(Severity::grade(impacts[v]))),
                Some(_) => continue,
            };
            let sample = sample_vector(deltas, probe_subset, k);
            decisions.push(Decision {
                score: clf.score(&sample),
                flagged: clf.classify(&sample),
                has_bug,
                severity,
            });
        }
        let type_name = held_out
            .first()
            .map(|&v| col.catalog.variants()[v].type_name().to_string())
            .unwrap_or_default();
        folds.push(FoldResult {
            type_id,
            type_name,
            decisions,
        });
    }

    let pooled: Vec<Decision> = folds.iter().flat_map(|f| f.decisions.clone()).collect();
    Evaluation {
        metrics: DetectionMetrics::from_decisions(&pooled),
        folds,
        impacts,
    }
}

/// Evaluates the two-stage methodology over all probes.
pub fn evaluate_two_stage(col: &Collection, engine_idx: usize, params: Stage2Params) -> Evaluation {
    let all: Vec<usize> = (0..col.probes.len()).collect();
    evaluate_two_stage_subset(col, engine_idx, params, &all)
}

/// Evaluates the single-stage voting baseline (§II) under the same
/// leave-one-type-out protocol, using the collection's aggregated
/// features.
pub fn evaluate_baseline(col: &Collection, params: &BaselineParams) -> Evaluation {
    let impacts = severity_impacts(col);
    let mut folds = Vec::new();
    for type_id in col.catalog.type_ids() {
        let held_out = col.catalog.variants_of_type(type_id);
        // Per-probe training samples over sets II and III.
        let train_keys: Vec<usize> = col
            .keys
            .iter()
            .enumerate()
            .filter(|(_, key)| {
                matches!(key.set, ArchSet::II | ArchSet::III)
                    && key.bug.is_none_or(|v| !held_out.contains(&v))
            })
            .map(|(k, _)| k)
            .collect();
        let per_probe: Vec<Vec<BaselineSample>> = (0..col.probes.len())
            .map(|p| {
                train_keys
                    .iter()
                    .map(|&k| BaselineSample {
                        features: col.agg_features[p][k].clone(),
                        has_bug: col.keys[k].bug.is_some(),
                    })
                    .collect()
            })
            .collect();
        let clf = BaselineClassifier::fit(params, &per_probe);

        let mut decisions = Vec::new();
        for (k, key) in col.keys.iter().enumerate() {
            if key.set != ArchSet::IV {
                continue;
            }
            let (has_bug, severity) = match key.bug {
                None => (false, None),
                Some(v) if held_out.contains(&v) => (true, Some(Severity::grade(impacts[v]))),
                Some(_) => continue,
            };
            let features: Vec<&[f64]> = (0..col.probes.len())
                .map(|p| col.agg_features[p][k].as_slice())
                .collect();
            decisions.push(Decision {
                score: clf.score(&features),
                flagged: clf.classify(&features),
                has_bug,
                severity,
            });
        }
        let type_name = held_out
            .first()
            .map(|&v| col.catalog.variants()[v].type_name().to_string())
            .unwrap_or_default();
        folds.push(FoldResult {
            type_id,
            type_name,
            decisions,
        });
    }
    let pooled: Vec<Decision> = folds.iter().flat_map(|f| f.decisions.clone()).collect();
    Evaluation {
        metrics: DetectionMetrics::from_decisions(&pooled),
        folds,
        impacts,
    }
}

/// Pools the Eq.-(1) errors of bug-free Set-IV runs for one engine — the
/// population whose statistics Table IV reports.
pub fn bugfree_test_errors(col: &Collection, engine_idx: usize) -> Vec<f64> {
    let deltas = &col.engines[engine_idx].deltas;
    let mut out = Vec::new();
    for (k, key) in col.keys.iter().enumerate() {
        if key.set == ArchSet::IV && key.bug.is_none() {
            for probe_deltas in deltas {
                out.push(probe_deltas[k]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbug_ml::{GbtParams, SplitStrategy};
    use perfbug_workloads::benchmark;

    /// A deliberately tiny configuration exercising the full pipeline.
    /// Engine 0 is the default histogram-split GBT; engine 1 is the same
    /// forest under the exact splitter, so every test doubles as a check
    /// that both split strategies coexist in one collection with distinct
    /// persisted catalog names.
    fn tiny_config() -> CollectionConfig {
        let catalog = BugCatalog::new(vec![
            BugSpec::SerializeOpcode {
                x: perfbug_workloads::Opcode::Logic,
            },
            BugSpec::L2ExtraLatency { t: 30 },
            BugSpec::MispredictExtraDelay { t: 25 },
        ]);
        let mut config = CollectionConfig::new(
            vec![
                EngineSpec::Gbt(GbtParams {
                    n_trees: 40,
                    ..GbtParams::default()
                }),
                EngineSpec::Gbt(GbtParams {
                    n_trees: 40,
                    split_strategy: SplitStrategy::Exact,
                    ..GbtParams::default()
                }),
            ],
            catalog,
        );
        config.scale = ProbeScale::tiny();
        config.benchmarks = vec![
            benchmark("458.sjeng").expect("suite"),
            benchmark("462.libquantum").expect("suite"),
        ];
        config.max_probes = Some(6);
        config.threads = 2;
        config
    }

    #[test]
    fn collection_shapes_are_consistent() {
        let config = tiny_config();
        let col = collect(&config);
        assert_eq!(col.probes.len(), 6);
        // 10 eval designs x (1 + 3 bugs) keys.
        assert_eq!(col.keys.len(), 10 * 4);
        // The persisted catalog tells the split strategies apart.
        let names: Vec<&str> = col.engines.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["GBT-40", "GBT-40-exact"]);
        for engine in &col.engines {
            assert_eq!(engine.deltas.len(), col.probes.len());
            for d in &engine.deltas {
                assert_eq!(d.len(), col.keys.len());
                assert!(d.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
        assert_eq!(col.overall_ipc.len(), col.probes.len());
        assert_eq!(col.agg_features[0].len(), col.keys.len());
    }

    #[test]
    fn end_to_end_detection_beats_chance() {
        let config = tiny_config();
        let col = collect(&config);
        let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
        // With severe injected bugs the detector must do better than a
        // coin flip on this tiny setup.
        assert!(eval.metrics.roc_auc > 0.5, "AUC {}", eval.metrics.roc_auc);
        assert_eq!(eval.folds.len(), 3);
        // Pooled decisions: 3 folds x (4 test designs x (1 neg + 1 pos)).
        assert_eq!(eval.metrics.positives + eval.metrics.negatives, 24);
        // The exact-splitter engine detects on the same corpus too.
        let exact = evaluate_two_stage(&col, 1, Stage2Params::default());
        assert!(exact.metrics.roc_auc > 0.5, "AUC {}", exact.metrics.roc_auc);
    }

    #[test]
    fn severity_impacts_nonnegative() {
        let config = tiny_config();
        let col = collect(&config);
        let impacts = severity_impacts(&col);
        assert_eq!(impacts.len(), 3);
        assert!(impacts.iter().all(|i| *i >= 0.0));
    }

    #[test]
    fn probe_subsetting_reduces_columns() {
        let config = tiny_config();
        let col = collect(&config);
        let full = evaluate_two_stage(&col, 0, Stage2Params::default());
        let subset = evaluate_two_stage_subset(&col, 0, Stage2Params::default(), &[0, 1, 2]);
        assert_eq!(full.folds.len(), subset.folds.len());
    }

    #[test]
    fn subsample_round_robins() {
        let config = tiny_config();
        let col = collect(&config);
        // Both benchmarks must be represented in the 6 probes.
        let benches: std::collections::HashSet<&str> =
            col.probes.iter().map(|p| p.benchmark.as_str()).collect();
        assert_eq!(benches.len(), 2);
    }

    #[test]
    fn same_named_benchmarks_trace_their_own_programs() {
        // Two specs may share a name; each probe must still be traced
        // against its own benchmark's program, not the first namesake's.
        let mut config = tiny_config();
        config.engines.truncate(1);
        let base = benchmark("462.libquantum").expect("suite");
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        config.benchmarks = vec![base, reseeded.clone()];
        config.max_probes = Some(2);
        let both = collect(&config);
        config.benchmarks = vec![reseeded];
        config.max_probes = Some(1);
        let alone = collect(&config);
        assert_eq!(both.overall_ipc[1], alone.overall_ipc[0]);
    }

    #[test]
    fn bugfree_errors_are_per_probe_per_test_arch() {
        let config = tiny_config();
        let col = collect(&config);
        let errors = bugfree_test_errors(&col, 0);
        assert_eq!(errors.len(), 4 * col.probes.len());
    }
}
