//! The collection-pass workloads: `core-membound`, `core-compute` and
//! `mem-pass`.
//!
//! The untraced run makes one cold pass through the public front door
//! (`persist::collect_or_load` / `persist::collect_memory_or_load`, so the
//! streaming PBCL writer is on the path), then repeats short operations
//! until the run ends: the pass's set-up, a fixed slice of its simulator
//! calls, evaluations of the corpus and replays of its cache file. The
//! traced run runs the same pass
//! through the program's own scheduler, `exec::collect_unit_grid`, handing it
//! closures that call the layers' public functions — `Probe::trace`, the
//! two simulators, `select_counters` — inside spans; the scheduler times
//! `ProbeModel::train` / `infer` itself. Its corpus must digest
//! identically to the untraced pass, or it measured a different program.

use std::path::{Path, PathBuf};
use std::time::Instant;

use perfbug_core::bugs::{BugCatalog, MemBugCatalog};
use perfbug_core::counter_select::{leakage_banned_counters, select_counters, CounterMode};
use perfbug_core::exec;
use perfbug_core::experiment::{self, Collection, CollectionConfig, ProbeMeta, RunKey};
use perfbug_core::memory::{self, MemCollectionConfig, TargetMetric};
use perfbug_core::persist::{self, CacheStatus, ExperimentKind, PersistError};
use perfbug_core::stage1::{EngineSpec, FeatureSpec, RunSeries};
use perfbug_memsim::{self as memsim, mem_counter_names, simulate_memory, MemArchConfig, MemRun};
use perfbug_uarch::{ArchSet, MicroarchConfig, ProbeRun};
use perfbug_workloads::{benchmark, Inst, Probe, Program, RowMatrix};

use crate::eval;
use crate::spans::{self, Recorder, Span};
use crate::{
    best_of, digest, median, percentile, Ledger, Metrics, Oracle, Outcome, SplitMix, CORE_BENCHES,
};

/// Rounds run however long the cold pass took.
const MIN_ROUNDS: usize = 4;

/// Set-ups timed per round: a set-up is short, so several are.
const SETUPS: usize = 3;

/// Cache replays timed per round.
const REPLAYS: usize = 8;

pub enum Experiment {
    Core(CollectionConfig),
    Mem(MemCollectionConfig),
}

/// A core pass over `benches` capped at `probes` probes. A nonzero `seed`
/// shuffles the benchmark order (the probe axis of the corpus); a nonzero
/// `program_seed` is XORed into every benchmark's generation seed.
pub fn core(benches: &[&str], probes: usize, seed: u64, program_seed: u64) -> Experiment {
    let mut config = CollectionConfig::new(vec![EngineSpec::gbt250()], BugCatalog::core_small());
    config.benchmarks = benches
        .iter()
        .map(|name| {
            let mut spec = benchmark(name).expect("suite benchmark");
            spec.seed ^= program_seed;
            spec
        })
        .collect();
    if seed != 0 {
        let mut rng = SplitMix::new(seed);
        for i in (1..config.benchmarks.len()).rev() {
            config
                .benchmarks
                .swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
    }
    config.max_probes = Some(probes);
    config.threads = exec::default_threads();
    Experiment::Core(config)
}

/// The memory pass: AMAT target, the extended catalogue and all 22
/// memory SimPoints. The memory suite has no per-benchmark seed knob, so
/// every seed runs the same inputs.
pub fn mem() -> Experiment {
    let mut config = MemCollectionConfig::new(vec![EngineSpec::gbt250()], TargetMetric::Amat);
    config.catalog = MemBugCatalog::extended();
    config.max_probes = None;
    config.threads = exec::default_threads();
    Experiment::Mem(config)
}

impl Experiment {
    fn kind(&self) -> ExperimentKind {
        match self {
            Experiment::Core(_) => ExperimentKind::Core,
            Experiment::Mem(_) => ExperimentKind::Memory,
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            Experiment::Core(c) => persist::config_fingerprint(c),
            Experiment::Mem(c) => persist::mem_config_fingerprint(c),
        }
    }

    fn threads(&self) -> usize {
        match self {
            Experiment::Core(c) => c.threads.max(1),
            Experiment::Mem(c) => c.threads.max(1),
        }
    }

    fn engines(&self) -> &[EngineSpec] {
        match self {
            Experiment::Core(c) => &c.engines,
            Experiment::Mem(c) => &c.engines,
        }
    }

    /// Units per probe in the simulation slice: about a quarter of a second
    /// of simulation per round on each workload.
    fn slice_units(&self) -> usize {
        match self {
            Experiment::Core(_) => 4,
            Experiment::Mem(_) => 10,
        }
    }

    fn collect_or_load(&self, path: &Path) -> Result<(Collection, CacheStatus), PersistError> {
        match self {
            Experiment::Core(c) => persist::collect_or_load(path, c),
            Experiment::Mem(c) => persist::collect_memory_or_load(path, c),
        }
    }

    /// The set-up work of a pass: the configuration's identity (programs,
    /// SimPoint probes and run-key grid) and its fingerprint.
    fn identify(&self) -> (usize, u64) {
        let identity = match self {
            Experiment::Core(c) => experiment::pass_identity(c),
            Experiment::Mem(c) => memory::mem_pass_identity(c),
        };
        (
            identity.total_probes * identity.keys.len(),
            self.fingerprint(),
        )
    }
}

/// Runs one pass workload.
pub fn run(exp: &Experiment, work: &Path, seconds: f64, trace: bool, oracle: Oracle) -> Outcome {
    let mut ledger = Ledger::new(oracle);
    let mut m = Metrics::new();
    let spans = if trace {
        traced(exp, work, &mut ledger, &mut m)
    } else {
        untraced(exp, work, seconds, &mut ledger, &mut m);
        None
    };
    Outcome {
        ledger,
        metrics: m,
        spans,
    }
}

struct Pass {
    col: Collection,
    secs: f64,
    sims: u64,
    path: PathBuf,
}

/// One cold pass into a fresh directory; checks the corpus digest.
fn cold_pass(exp: &Experiment, dir: &Path, ledger: &mut Ledger) -> Option<Pass> {
    let path = dir.join(persist::cache_file_name(
        "perfbench",
        exp.kind(),
        exp.fingerprint(),
    ));
    let pass = ledger.attempt("cold pass", |_| {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let sims0 = exec::simulations_run();
        let t0 = Instant::now();
        let (col, status) = exp.collect_or_load(&path).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        let sims = exec::simulations_run() - sims0;
        if status != CacheStatus::Collected {
            return Err(format!("cold pass reported {status:?}"));
        }
        Ok(Pass {
            col,
            secs,
            sims,
            path: path.clone(),
        })
    })?;
    ledger.verify("cold pass", |oracle| {
        oracle.check_corpus(digest::corpus(&pass.col))
    });
    Some(pass)
}

/// The simulator calls timed in every round: `n` units of each probe,
/// evenly spaced over the probe's units (the Set-I designs, then each
/// evaluation design bug-free and with every catalogue bug). A seed only
/// reorders the probes, so every seed times the same calls.
fn slice(grid: &Grid, n: usize) -> Vec<(usize, usize)> {
    let units = grid.units.len();
    (0..grid.probes.len())
        .flat_map(|p| (0..n).map(move |k| (p, k * units / n)))
        .collect()
}

/// One cold pass, checked against the oracle, then rounds until the run
/// ends. A round times the host's reference kernel, `SETUPS` set-ups, the
/// simulation slice, one evaluation of the corpus, and `REPLAYS` replays
/// of its cache file.
///
/// A cold pass takes seconds, and on a shared host its wall time follows
/// the other tenants: on a 2-vCPU Xeon VM single simulations switched
/// between two speeds 1.7x apart every fraction of a second, with slow
/// stretches of up to half a minute, so even the median of whole runs
/// moved by a third. The pass time is printed but kept out of the result;
/// the timings in the result are of short operations repeated throughout
/// the run, and report the fastest repeat, which the host's slow spells
/// cannot reach while any fast spell falls in the run.
fn untraced(exp: &Experiment, work: &Path, seconds: f64, ledger: &mut Ledger, m: &mut Metrics) {
    let start = Instant::now();
    let Some(pass) = cold_pass(exp, &work.join("pass"), ledger) else {
        return;
    };
    m.set("pass_s", pass.secs);
    let expected = digest::corpus(&pass.col);

    let grid = exp.grid();
    let traces: Vec<Vec<Inst>> = grid
        .probes
        .iter()
        .map(|(b, probe)| probe.trace(&grid.programs[*b]))
        .collect();
    let slots = slice(&grid, exp.slice_units());
    let mut best = vec![f64::INFINITY; slots.len()];
    let mut cycles: Vec<Option<u64>> = vec![None; slots.len()];
    let mut setups = Vec::new();
    let mut eval_s = Vec::new();
    let mut hits_ms = Vec::new();
    for round in 0.. {
        if round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        m.sample_host();
        for _ in 0..SETUPS {
            ledger.attempt("setup", |_| {
                let t0 = Instant::now();
                let (cells, _) = exp.identify();
                setups.push(t0.elapsed().as_secs_f64());
                (cells > 0).then_some(()).ok_or("empty pass".to_string())
            });
        }

        for (i, &(p, u)) in slots.iter().enumerate() {
            ledger.attempt("simulation", |_| {
                let t0 = Instant::now();
                let seen = exp.run_unit(&grid, &traces[p], u).cycles();
                best[i] = best[i].min(t0.elapsed().as_secs_f64());
                match cycles[i] {
                    Some(first) if first != seen => Err(format!(
                        "probe {p} unit {u} simulated {seen} cycles, earlier {first}"
                    )),
                    _ => {
                        cycles[i] = Some(seen);
                        Ok(())
                    }
                }
            });
        }

        let evaluated = ledger.attempt("evaluation", |_| {
            let t0 = Instant::now();
            let out = eval::run(&pass.col, None);
            eval_s.push(t0.elapsed().as_secs_f64());
            Ok(out)
        });
        if let Some(out) = evaluated {
            ledger.verify("evaluation", |oracle| oracle.check_report(out.report));
            m.set("det_auc", out.pooled.roc_auc);
            m.set("det_tpr", out.pooled.tpr);
            m.set("det_fpr", out.pooled.fpr);
        }

        for _ in 0..REPLAYS {
            ledger.attempt("replay", |_| {
                let sims0 = exec::simulations_run();
                let t0 = Instant::now();
                let (col, status) = exp.collect_or_load(&pass.path).map_err(|e| e.to_string())?;
                hits_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if status != CacheStatus::Replayed || exec::simulations_run() != sims0 {
                    return Err(format!("replay reported {status:?}"));
                }
                if digest::corpus(&col) != expected {
                    return Err("replayed corpus differs from the collected one".into());
                }
                Ok(())
            });
        }
    }
    let _ = std::fs::remove_dir_all(work.join("pass"));
    m.set_best("setup_s", &setups);
    m.set_best("eval_s", &eval_s);
    let insts: usize = slots.iter().map(|&(p, _)| traces[p].len()).sum();
    println!(
        "simulation slice: {} calls, best of {} rounds each",
        slots.len(),
        setups.len()
    );
    m.set(
        "sim_minst_per_s",
        insts as f64 / best.iter().sum::<f64>() / 1e6,
    );
    m.set("verdict_s", pass.secs + best_of(&eval_s));
    m.set_median("hit_p50_ms", &hits_ms);
    m.set("hit_p95_ms", percentile(&hits_ms, 0.95));
    // One closed-loop caller: throughput is the inverse mean latency.
    m.set(
        "hits_per_s",
        hits_ms.len() as f64 * 1e3 / hits_ms.iter().sum::<f64>(),
    );
}

/// Untraced pass, traced pass, traced evaluation and codec timings.
fn traced(exp: &Experiment, work: &Path, ledger: &mut Ledger, m: &mut Metrics) -> Option<Recorder> {
    let base = cold_pass(exp, &work.join("untraced"), ledger)?;
    let base_report = eval::run(&base.col, None).report;
    let rec = Recorder::new();
    let traced = ledger.attempt("traced pass", |_| {
        let t0 = Instant::now();
        let traced = traced_pass(exp, &rec);
        let secs = t0.elapsed().as_secs_f64();
        if digest::corpus(&traced.col) != digest::corpus(&base.col) {
            return Err("traced pass digests differently from the untraced pass".into());
        }
        let report = eval::run(&traced.col, Some(&rec)).report;
        if report != base_report {
            return Err("traced evaluation digests differently from the untraced one".into());
        }
        Ok((traced, secs))
    });
    let (traced, traced_secs) = traced?;
    let grid = &traced.grid;
    let spans = rec.snapshot();
    let threads = exp.threads() as f64;
    let capacity = traced_secs * threads;

    // Simulation layers: host time, share and exact simulated cycles.
    let sim_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == "uarch.sim" || s.layer == "memsim.sim")
        .collect();
    if traced.sims != base.sims || sim_spans.len() as u64 != base.sims {
        ledger.fail(
            "traced pass",
            &format!(
                "{} traced simulations ({} spans) against {} untraced",
                traced.sims,
                sim_spans.len(),
                base.sims
            ),
        );
    }
    let uarch_s = spans::total_secs(&spans, "uarch.sim");
    let memsim_s = spans::total_secs(&spans, "memsim.sim");
    m.set("uarch.sim_s", uarch_s);
    m.set("uarch.sim_share", uarch_s / capacity);
    for name in CORE_BENCHES {
        let (secs, cycles) = sim_spans
            .iter()
            .filter(|s| s.layer == "uarch.sim" && grid.bench_names[s.tag] == name)
            .fold((0.0, 0u64), |(t, c), s| (t + s.secs(), c + s.count));
        m.set(format!("uarch.cycles.{name}"), cycles as f64);
        m.set(
            format!("uarch.mcycles_per_s.{name}"),
            mcycles_per_s(cycles, secs),
        );
    }
    let mem_cycles: u64 = sim_spans
        .iter()
        .filter(|s| s.layer == "memsim.sim")
        .map(|s| s.count)
        .sum();
    m.set("memsim.sim_s", memsim_s);
    m.set("memsim.sim_share", memsim_s / capacity);
    m.set("memsim.cycles", mem_cycles as f64);
    m.set("memsim.mcycles_per_s", mcycles_per_s(mem_cycles, memsim_s));

    // Stage 1 runs inside the scheduler, which times it per (probe, engine).
    let (train_s, infer_s) = traced.col.engines.iter().fold((0.0, 0.0), |(t, i), e| {
        (
            t + e.train_time.as_secs_f64(),
            i + e.infer_time.as_secs_f64(),
        )
    });
    m.set("stage1.train_s", train_s);
    m.set("stage1.infer_s", infer_s);
    m.set("stage1.share", (train_s + infer_s) / capacity);
    let trace_s = spans::total_secs(&spans, "workloads.trace");
    m.set("workloads.trace_s", trace_s);
    m.set("workloads.trace_share", trace_s / capacity);
    let select_s = spans::total_secs(&spans, "select");
    m.set("select.s", select_s);
    m.set("exec.sims", traced.sims as f64);
    // Time inside the scheduler's tasks: the closures it ran, plus the
    // stage-1 tasks it timed itself.
    let task_s = spans::total_secs(&spans, "exec.task") + train_s + infer_s;
    m.set("exec.busy_frac", task_s / capacity);
    let stage2_s = spans::total_secs(&spans, "stage2.eval");
    let sweep_s = spans::total_secs(&spans, "stage2.sweep");
    let baseline_s = spans::total_secs(&spans, "baseline.eval");
    m.set("stage2.eval_s", stage2_s);
    m.set("stage2.sweep_s", sweep_s);
    m.set("baseline.eval_s", baseline_s);

    codec(exp.fingerprint(), &base.col, &base.path, ledger, m);
    m.set("serve.accepted_ms", 0.0);
    m.set("serve.hit_ms", 0.0);
    m.set("serve.done_ms", 0.0);

    m.set("trace.overhead_s", traced_secs - base.secs);
    // Thread-seconds of the traced pass inside no layer call: the scheduler's
    // own work (aggregates, assembly), the closures' glue and idle workers.
    let named_pass = uarch_s + memsim_s + train_s + infer_s + trace_s + select_s;
    m.set("trace.unattributed_s", capacity - named_pass);

    let eval_s = stage2_s + sweep_s + baseline_s;
    let total = capacity + eval_s;
    println!(
        "phase split (share of {total:.3} thread-seconds: traced pass {traced_secs:.3} s x {threads} \
         threads + evaluation {eval_s:.3} s):"
    );
    for (phase, secs) in [
        ("simulate", uarch_s + memsim_s),
        ("stage-1 train", train_s),
        ("stage-1 infer", infer_s),
        ("trace generation", trace_s),
        ("counter selection", select_s),
        ("evaluation", eval_s),
    ] {
        println!(
            "  {phase:<18} {secs:>9.4} s  {:>7.3} %",
            100.0 * secs / total
        );
    }
    let named = named_pass + eval_s;
    println!(
        "  {:<18} {:>9.4} s  {:>7.3} %",
        "other and idle",
        total - named,
        100.0 * (total - named) / total
    );
    Some(rec)
}

/// Simulated cycles per host second, in millions (0 for a layer that did
/// not run).
fn mcycles_per_s(cycles: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        cycles as f64 / secs / 1e6
    } else {
        0.0
    }
}

/// PBCL encode, decode and load timings on one corpus.
pub fn codec(
    fingerprint: u64,
    col: &Collection,
    path: &Path,
    ledger: &mut Ledger,
    m: &mut Metrics,
) {
    const REPS: usize = 9;
    let result = ledger.attempt("codec", |_| {
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut load = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            bytes = persist::encode_collection(col, fingerprint);
            encode.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let decoded =
                persist::decode_collection(&bytes, fingerprint).map_err(|e| e.to_string())?;
            decode.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let loaded = persist::load_collection(path, fingerprint).map_err(|e| e.to_string())?;
            load.push(t0.elapsed().as_secs_f64());
            if digest::corpus(&decoded) != digest::corpus(col)
                || digest::corpus(&loaded) != digest::corpus(col)
            {
                return Err("codec round trip changed the corpus".into());
            }
        }
        Ok((bytes.len(), median(&encode), median(&decode), median(&load)))
    });
    let file_bytes = std::fs::metadata(path).map_or(0, |md| md.len());
    if let Some((len, encode, decode, load)) = result {
        let mb = len as f64 / 1e6;
        m.set("persist.encode_mb_per_s", mb / encode);
        m.set("persist.decode_mb_per_s", mb / decode);
        m.set("persist.load_ms", load * 1e3);
        m.set("persist.corpus_bytes", file_bytes as f64);
    }
}

// --------------------------------------------------------------------------
// The traced pass: the program's collection scheduler with traced closures
// --------------------------------------------------------------------------

enum Designs {
    Core(Vec<MicroarchConfig>),
    Mem(Vec<MemArchConfig>),
}

/// What one simulator call returns.
enum SimRun {
    Core(ProbeRun),
    Mem(MemRun),
}

impl SimRun {
    /// Simulated cycles: exact, identical on every host.
    fn cycles(&self) -> u64 {
        match self {
            SimRun::Core(run) => run.total_cycles,
            SimRun::Mem(run) => run.total_cycles,
        }
    }
}

/// The (probe x unit) grid of a pass, built the way the collection front
/// doors build it (their grid types are private to the program).
pub struct Grid {
    bench_names: Vec<&'static str>,
    programs: Vec<Program>,
    /// `(benchmark index, probe)` in pass order.
    probes: Vec<(usize, Probe)>,
    designs: Designs,
    /// `(design index, catalogue bug index)` of every simulation unit.
    units: Vec<(usize, Option<usize>)>,
    train_units: Vec<usize>,
    val_units: Vec<usize>,
    key_units: Vec<usize>,
    keys: Vec<RunKey>,
}

/// Appends one evaluation design's bug-free unit and bug units.
fn push_eval_design(grid: &mut Grid, design: usize, key: RunKey, n_bugs: usize) {
    grid.key_units.push(grid.units.len());
    grid.units.push((design, None));
    grid.keys.push(key.clone());
    for bug in 0..n_bugs {
        grid.key_units.push(grid.units.len());
        grid.units.push((design, Some(bug)));
        grid.keys.push(RunKey {
            bug: Some(bug),
            ..key.clone()
        });
    }
}

fn empty_grid(designs: Designs) -> Grid {
    Grid {
        bench_names: Vec::new(),
        programs: Vec::new(),
        probes: Vec::new(),
        designs,
        units: Vec::new(),
        train_units: Vec::new(),
        val_units: Vec::new(),
        key_units: Vec::new(),
        keys: Vec::new(),
    }
}

fn core_grid(c: &CollectionConfig) -> Grid {
    let p = &c.partition;
    let mut archs: Vec<MicroarchConfig> = p.train.clone();
    let mut grid = empty_grid(Designs::Core(Vec::new()));
    for a in 0..archs.len() {
        grid.train_units.push(grid.units.len());
        grid.units.push((a, None));
    }
    for (e, arch) in p.eval_archs().into_iter().enumerate() {
        if e < p.val.len() {
            grid.val_units.push(grid.units.len());
        }
        let key = RunKey {
            arch: arch.name.clone(),
            set: arch.set,
            bug: None,
        };
        push_eval_design(&mut grid, archs.len(), key, c.catalog.len());
        archs.push(arch.clone());
    }
    grid.designs = Designs::Core(archs);
    grid.bench_names = c.benchmarks.iter().map(|b| b.name).collect();
    grid.programs = c
        .benchmarks
        .iter()
        .map(|b| b.program(&c.scale.workload))
        .collect();
    // Round-robin across benchmarks up to the probe cap.
    let per_bench: Vec<Vec<Probe>> = c
        .benchmarks
        .iter()
        .map(|b| b.probes(&c.scale.workload))
        .collect();
    let total: usize = per_bench.iter().map(Vec::len).sum();
    let budget = c.max_probes.unwrap_or(total).min(total);
    for round in 0.. {
        if grid.probes.len() >= budget || per_bench.iter().all(|b| round >= b.len()) {
            break;
        }
        for (b, probes) in per_bench.iter().enumerate() {
            if grid.probes.len() < budget && round < probes.len() {
                grid.probes.push((b, probes[round].clone()));
            }
        }
    }
    grid
}

fn mem_set(set: memsim::ArchSet) -> ArchSet {
    match set {
        memsim::ArchSet::I => ArchSet::I,
        memsim::ArchSet::II => ArchSet::II,
        memsim::ArchSet::III => ArchSet::III,
        memsim::ArchSet::IV => ArchSet::IV,
    }
}

fn mem_grid(c: &MemCollectionConfig) -> Grid {
    let archs = memsim::config::all();
    let mut grid = empty_grid(Designs::Mem(Vec::new()));
    for (a, arch) in archs.iter().enumerate() {
        if arch.set == memsim::ArchSet::I {
            grid.train_units.push(grid.units.len());
            grid.units.push((a, None));
        }
    }
    for (a, arch) in archs.iter().enumerate() {
        if arch.set == memsim::ArchSet::I {
            continue;
        }
        if arch.set == memsim::ArchSet::II {
            grid.val_units.push(grid.units.len());
        }
        let key = RunKey {
            arch: arch.name.clone(),
            set: mem_set(arch.set),
            bug: None,
        };
        push_eval_design(&mut grid, a, key, c.catalog.len());
    }
    grid.designs = Designs::Mem(archs);
    let suite = memsim::memory_suite();
    grid.bench_names = suite.iter().map(|b| b.name).collect();
    grid.programs = suite.iter().map(|b| b.program(&c.workload)).collect();
    for (b, bench) in suite.iter().enumerate() {
        grid.probes
            .extend(bench.probes(&c.workload).into_iter().map(|p| (b, p)));
    }
    if let Some(max) = c.max_probes {
        grid.probes.truncate(max);
    }
    grid
}

impl Experiment {
    fn grid(&self) -> Grid {
        match self {
            Experiment::Core(c) => core_grid(c),
            Experiment::Mem(c) => mem_grid(c),
        }
    }

    fn catalog(&self) -> BugCatalog {
        match self {
            Experiment::Core(c) => c.catalog.clone(),
            Experiment::Mem(c) => memory::mem_catalog_as_core(&c.catalog),
        }
    }

    /// Runs the simulator on unit `u` of one probe: the one call into the
    /// simulator layer a pass makes per unit.
    fn run_unit(&self, grid: &Grid, trace: &[Inst], u: usize) -> SimRun {
        let (design, bug) = grid.units[u];
        match (self, &grid.designs) {
            (Experiment::Core(c), Designs::Core(archs)) => {
                let bug = bug
                    .map(|i| c.catalog.variants()[i])
                    .or(c.presumed_bugfree_bug);
                SimRun::Core(perfbug_uarch::simulate(
                    &archs[design],
                    bug,
                    trace,
                    c.scale.step_cycles,
                ))
            }
            (Experiment::Mem(c), Designs::Mem(archs)) => {
                let bug = bug.map(|i| c.catalog.variants()[i]);
                SimRun::Mem(simulate_memory(&archs[design], bug, trace, c.step_cycles))
            }
            _ => unreachable!("grid built for the other experiment kind"),
        }
    }

    /// Simulates unit `u` of one probe inside a `uarch.sim` or
    /// `memsim.sim` span tagged with the probe's benchmark.
    fn simulate(
        &self,
        grid: &Grid,
        trace: &[Inst],
        u: usize,
        bench: usize,
        rec: &Recorder,
        parent: usize,
    ) -> (RunSeries, f64) {
        let layer = match self {
            Experiment::Core(_) => "uarch.sim",
            Experiment::Mem(_) => "memsim.sim",
        };
        let run = rec.time_counted(layer, Some(parent), bench, || {
            let run = self.run_unit(grid, trace, u);
            let cycles = run.cycles();
            (run, cycles)
        });
        let design = grid.units[u].0;
        match (self, &grid.designs, run) {
            (Experiment::Core(_), Designs::Core(archs), SimRun::Core(run)) => {
                let overall = run.overall_ipc();
                let series = RunSeries {
                    rows: run.counter_rows,
                    target: run.ipc,
                    arch_features: archs[design].feature_vector(),
                };
                (series, overall)
            }
            (Experiment::Mem(c), Designs::Mem(archs), SimRun::Mem(run)) => {
                let arch = &archs[design];
                let (target, overall) = match c.metric {
                    TargetMetric::Ipc => (run.ipc.clone(), run.overall_ipc()),
                    TargetMetric::Amat => (run.amat.clone(), run.overall_amat()),
                };
                let series = RunSeries {
                    rows: run.counter_rows,
                    target,
                    arch_features: arch.feature_vector(),
                };
                (series, overall)
            }
            _ => unreachable!("grid built for the other experiment kind"),
        }
    }

    /// Per-probe counter selection over the pooled Set-I runs, inside a
    /// `select` span. The memory experiment's candidate counters are
    /// private to the program and listed here again; if they drift apart,
    /// the traced corpus fails its digest check.
    fn features(
        &self,
        grid: &Grid,
        sims: &[(RunSeries, f64)],
        rec: &Recorder,
        parent: usize,
    ) -> FeatureSpec {
        let (mode, banned, arch_features, window) = match self {
            Experiment::Core(c) => (
                &c.counter_mode,
                leakage_banned_counters(),
                c.arch_features,
                c.window.max(1),
            ),
            Experiment::Mem(c) => {
                let allowed = [
                    "l1d_miss_rate",
                    "l2_miss_rate",
                    "llc_miss_rate",
                    "pf_accuracy",
                    "mpki",
                ];
                let banned = mem_counter_names()
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| !allowed.contains(n))
                    .map(|(i, _)| i)
                    .collect();
                (&c.counter_mode, banned, true, 1)
            }
        };
        let selected = match mode {
            CounterMode::Automatic(thresholds) => {
                let mut rows = RowMatrix::new(0);
                let mut target = Vec::new();
                for &u in &grid.train_units {
                    rows.extend_from(&sims[u].0.rows);
                    target.extend_from_slice(&sims[u].0.target);
                }
                rec.time("select", Some(parent), || {
                    select_counters(&rows, &target, thresholds, &banned)
                })
            }
            CounterMode::Manual(cols) => cols.clone(),
        };
        FeatureSpec {
            selected,
            arch_features,
            window,
        }
    }
}

/// Runs `f` inside an `exec.task` span under `pass`; `f` gets the task
/// span as the parent of its layer spans.
fn task<T>(rec: &Recorder, pass: usize, f: impl FnOnce(usize) -> T) -> T {
    let id = rec.open("exec.task", Some(pass));
    let value = f(id);
    rec.close(id);
    value
}

/// What the traced pass produced besides its spans.
struct TracedPass {
    col: Collection,
    grid: Grid,
    /// Simulations the scheduler counted during the pass.
    sims: u64,
}

/// The whole pass through the program's own scheduler,
/// `exec::collect_unit_grid`. Each closure the scheduler runs is an
/// `exec.task` span holding the span of the layer call it makes; the
/// scheduler trains and infers stage 1 itself and reports those times in the
/// corpus.
fn traced_pass(exp: &Experiment, rec: &Recorder) -> TracedPass {
    let pass = rec.open("pass", None);
    let grid = exp.grid();
    let unit_grid = exec::UnitGrid {
        n_units: grid.units.len(),
        train_units: grid.train_units.clone(),
        val_units: grid.val_units.clone(),
        key_units: grid.key_units.clone(),
    };
    let sims0 = exec::simulations_run();
    let out = exec::collect_unit_grid(
        grid.probes.len(),
        exp.threads(),
        exec::ShardSpec::full(),
        &unit_grid,
        exp.engines(),
        |pi| {
            task(rec, pass, |parent| {
                let (b, probe) = &grid.probes[pi];
                let trace = rec.time("workloads.trace", Some(parent), || {
                    probe.trace(&grid.programs[*b])
                });
                (*b, trace)
            })
        },
        |(b, trace): &(usize, Vec<Inst>), u| {
            task(rec, pass, |parent| {
                exp.simulate(&grid, trace, u, *b, rec, parent)
            })
        },
        |_pi, sims| task(rec, pass, |parent| exp.features(&grid, sims, rec, parent)),
        |_, _, _, _, _| None,
    );
    let sims = exec::simulations_run() - sims0;
    rec.close(pass);
    let col = Collection {
        keys: grid.keys.clone(),
        probes: grid
            .probes
            .iter()
            .map(|(_, probe)| ProbeMeta {
                id: probe.id(),
                benchmark: probe.benchmark.clone(),
                weight: probe.weight,
            })
            .collect(),
        engines: out.engines,
        overall_ipc: out.overall,
        agg_features: out.agg_features,
        captures: out.captures,
        catalog: exp.catalog(),
    };
    TracedPass { col, grid, sims }
}
