//! Run-level parallel execution engine.
//!
//! Collection is embarrassingly parallel at *run* granularity — every
//! (probe, design, bug) simulation and every (probe, engine) stage-1 job is
//! independent — but run costs are heavily skewed: buggy runs stall for
//! many more cycles than healthy ones, and neural engines train far longer
//! than boosted trees. This module provides:
//!
//! * [`collect_unit_grid_streaming`] — the collection driver over a
//!   (probe × unit) grid: one worker pool per pass runs a job queue driven
//!   by dependencies, so no job waits on another probe, and hands probes
//!   on in order, so output is byte-identical for any worker count. The
//!   core and memory collection passes (`experiment`'s) run through it;
//!   [`collect_unit_grid`] is its in-memory form;
//! * [`parallel_map`] — an order-preserving scoped-thread map over
//!   independent tasks, used by the evaluation's leave-one-type-out folds;
//! * [`ShardSpec`] — multi-process scale-out. A shard restricts the driver
//!   to a deterministic contiguous probe range of the grid; because every
//!   probe's pipeline is independent and deterministic, the union of any
//!   shard partition's outputs is identical to a single-process run. The
//!   persistence layer (`crate::persist`) gives shards an on-disk merge
//!   format (see `docs/FORMAT.md` and `docs/ARCHITECTURE.md`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::experiment::{CapturedSeries, EngineResult, DELTA_CEILING};
use crate::stage1::{inference_error, EngineSpec, FeatureSpec, ProbeModel, RunSeries};

/// The number of worker threads to use when the caller does not override
/// it: the machine's available parallelism (1 when that cannot be
/// determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `task(index)` for every index in `0..n_tasks` on `threads` scoped
/// workers, the calling thread among them, and returns the results in
/// index order for any worker count. Workers claim indices from one shared
/// counter and publish each result into its own write-once slot.
pub fn parallel_map<T, F>(n_tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n_tasks).map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        assert!(slot.set(task(i)).is_ok(), "task {i} claimed twice");
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(n_tasks) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task ran"))
        .collect()
}

// --------------------------------------------------------------------------
// Shared unit-grid collection driver
// --------------------------------------------------------------------------

/// Process-wide count of (probe, unit) simulations run by
/// [`collect_unit_grid_streaming`]. The replay tooling (`examples/replay.rs`
/// and the CI replay guard) samples it around a cache load to prove that
/// an evaluation-only replay performed zero simulations.
static SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of simulation units run by this process so far.
pub fn simulations_run() -> u64 {
    SIMULATIONS.load(Ordering::Relaxed)
}

/// One process's slice of a sharded collection pass.
///
/// A shard owns a deterministic contiguous range of the probe axis of the
/// (probe × unit) grid — the same near-equal partition for every process,
/// so `count` cooperating processes cover every probe exactly once. Shard
/// 0 of 1 ([`ShardSpec::full`]) is the unsharded single-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the probe axis is split into.
    pub count: usize,
}

impl ShardSpec {
    /// Builds a shard spec, validating `index < count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(count > 0, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// The unsharded spec: one shard covering everything.
    pub fn full() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Parses the canonical `<index>/<count>` notation (e.g. `0/4`) used
    /// by `PERFBUG_SHARD` and the orchestrator CLIs.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (index, count) = raw
            .split_once('/')
            .ok_or_else(|| format!("shard spec must be <index>/<count> (e.g. 0/4), got {raw:?}"))?;
        let parse = |n: &str, what| {
            (n.trim().parse::<usize>()).map_err(|_| format!("bad shard {what} in {raw:?}"))
        };
        let (index, count) = (parse(index, "index")?, parse(count, "count")?);
        if count == 0 {
            return Err(format!("shard count must be at least 1 in {raw:?}"));
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this spec covers the whole probe range by itself.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// The contiguous probe range this shard owns out of `n_probes`.
    ///
    /// Near-equal partition: the first `n_probes % count` shards take one
    /// extra probe. Shards beyond the probe count own an empty range.
    pub fn probe_range(&self, n_probes: usize) -> std::ops::Range<usize> {
        let base = n_probes / self.count;
        let extra = n_probes % self.count;
        let start = self.index * base + self.index.min(extra);
        let len = base + usize::from(self.index < extra);
        start..start + len
    }
}

/// The index structure of one collection pass's simulation-unit grid.
///
/// A *unit* is one distinct (design, bug) combination; every probe
/// simulates each unit exactly once and the result is shared by all its
/// consumers. The vectors index into `0..n_units`.
#[derive(Debug, Clone)]
pub struct UnitGrid {
    /// Number of distinct units per probe.
    pub n_units: usize,
    /// Units providing stage-1 training runs (Set-I bug-free designs).
    pub train_units: Vec<usize>,
    /// Units providing stage-1 validation runs (Set-II bug-free designs).
    pub val_units: Vec<usize>,
    /// Unit of each evaluation run key, in key order.
    pub key_units: Vec<usize>,
}

/// Everything [`collect_unit_grid`] produces, in probe order.
#[derive(Debug)]
pub struct GridOutput {
    /// Per-engine inference errors and stage-1 timings.
    pub engines: Vec<EngineResult>,
    /// Overall target metric per `[probe][key]`.
    pub overall: Vec<Vec<f64>>,
    /// Aggregated per-run baseline features per `[probe][key]`.
    pub agg_features: Vec<Vec<Vec<f64>>>,
    /// Captured (simulated, inferred) series, in (probe, engine) order.
    pub captures: Vec<CapturedSeries>,
}

impl GridOutput {
    /// An output with no probes for the named engines.
    pub(crate) fn new(engine_names: &[String]) -> Self {
        GridOutput {
            engines: engine_names
                .iter()
                .map(|name| EngineResult {
                    name: name.clone(),
                    deltas: Vec::new(),
                    train_time: Duration::ZERO,
                    infer_time: Duration::ZERO,
                })
                .collect(),
            overall: Vec::new(),
            agg_features: Vec::new(),
            captures: Vec::new(),
        }
    }

    /// Appends one probe's output; engine timings sum over probes.
    pub(crate) fn push(&mut self, po: ProbeOutput) {
        self.overall.push(po.overall);
        self.agg_features.push(po.agg);
        for (engine, o) in self.engines.iter_mut().zip(po.engines) {
            engine.deltas.push(o.deltas);
            engine.train_time += o.train_time;
            engine.infer_time += o.infer_time;
            self.captures.extend(o.captures);
        }
    }
}

/// Output of one (probe, engine) stage-1 training task, as surfaced per
/// probe by [`collect_unit_grid_streaming`].
#[derive(Debug)]
pub struct EngineProbeOutput {
    /// Eq.-(1) inference errors for this probe, one per run key.
    pub deltas: Vec<f64>,
    /// Wall-clock stage-1 training time of this (probe, engine) task.
    pub train_time: Duration,
    /// Wall-clock stage-1 inference time of this (probe, engine) task.
    pub infer_time: Duration,
    /// Captured (simulated, inferred) series, in key order.
    pub captures: Vec<CapturedSeries>,
}

/// Everything one probe's pipeline produced, handed to the
/// [`collect_unit_grid_streaming`] completion callback once it and every
/// earlier probe have finished.
#[derive(Debug)]
pub struct ProbeOutput {
    /// Overall target metric, one per run key.
    pub overall: Vec<f64>,
    /// Aggregated per-run baseline features, one row per run key.
    pub agg: Vec<Vec<f64>>,
    /// Per-engine stage-1 outputs, in configured engine order.
    pub engines: Vec<EngineProbeOutput>,
}

/// [`collect_unit_grid_streaming`] over a whole shard, with no skip,
/// folding every probe's output into one [`GridOutput`].
// One parameter per pipeline customisation point; bundling them into a
// struct of closures would only move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn collect_unit_grid<T, MkTrace, Sim, Prep, Cap>(
    n_probes: usize,
    threads: usize,
    shard: ShardSpec,
    grid: &UnitGrid,
    engines: &[EngineSpec],
    make_trace: MkTrace,
    simulate: Sim,
    prepare: Prep,
    capture: Cap,
) -> GridOutput
where
    T: Send + Sync,
    MkTrace: Fn(usize) -> T + Sync,
    Sim: Fn(&T, usize) -> (RunSeries, f64) + Sync,
    Prep: Fn(usize, &[(RunSeries, f64)]) -> FeatureSpec + Sync,
    Cap: Fn(usize, usize, &EngineSpec, &RunSeries, &[f64]) -> Option<CapturedSeries> + Sync,
{
    let names: Vec<String> = engines.iter().map(EngineSpec::name).collect();
    let mut out = GridOutput::new(&names);
    let Ok(()) = collect_unit_grid_streaming::<_, _, _, _, _, std::convert::Infallible>(
        n_probes,
        threads,
        shard,
        0,
        grid,
        engines,
        make_trace,
        simulate,
        prepare,
        capture,
        |_probe, po| {
            out.push(po);
            Ok(())
        },
    );
    out
}

/// Runs the shared collection pipeline over a (probe × unit) grid on one
/// pool of `threads` workers (at least 1) that lives for the whole pass.
/// Each probe's **trace** job (`make_trace`) queues one **simulate** job
/// per unit (`simulate`); its last simulation queues its **prepare** job —
/// counter selection (`prepare`) plus the baseline's aggregated mean-row
/// features and overall-metric vector; prepare queues one **stage-1** job
/// per engine, which trains the probe's model and infers every key unit,
/// producing Eq.-(1) inference errors (ceiling-clamped at
/// `experiment::DELTA_CEILING`) and optional captured series (`capture`).
/// Ready jobs run stage first, the oldest probe first within a stage.
///
/// The calling thread admits at most `2 × threads` probes at a time, which
/// bounds peak memory, and hands each finished probe's output to
/// `on_probe(absolute probe index, output)` in strictly increasing probe
/// order. An `Err` from it ends the pass (running jobs finish, no new job
/// starts) and is returned; a panic in any callback ends the pass and
/// propagates out of this call.
///
/// `shard` restricts the pass to [`ShardSpec::probe_range`], and `skip`
/// drops the first `skip` probes of that range without simulating them —
/// the resume path of a crashed worker whose durable prefix already holds
/// them. Callbacks get absolute grid indices, and every probe's pipeline
/// depends only on its own trace, so its output is bit-identical for any
/// shard, `skip` and worker count.
// One parameter per pipeline customisation point; bundling them into a
// struct of closures would only move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn collect_unit_grid_streaming<T, MkTrace, Sim, Prep, Cap, E>(
    n_probes: usize,
    threads: usize,
    shard: ShardSpec,
    skip: usize,
    grid: &UnitGrid,
    engines: &[EngineSpec],
    make_trace: MkTrace,
    simulate: Sim,
    prepare: Prep,
    capture: Cap,
    mut on_probe: impl FnMut(usize, ProbeOutput) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send + Sync,
    MkTrace: Fn(usize) -> T + Sync,
    Sim: Fn(&T, usize) -> (RunSeries, f64) + Sync,
    Prep: Fn(usize, &[(RunSeries, f64)]) -> FeatureSpec + Sync,
    Cap: Fn(usize, usize, &EngineSpec, &RunSeries, &[f64]) -> Option<CapturedSeries> + Sync,
{
    let threads = threads.max(1);
    let (n_units, n_engines) = (grid.n_units, engines.len());
    let range = shard.probe_range(n_probes);
    let probes = range.start + skip.min(range.len())..range.end;
    let pool = Pool {
        queue: Mutex::new(Queue {
            ready: BTreeSet::new(),
            slots: BTreeMap::new(),
            closed: false,
        }),
        changed: Condvar::new(),
    };

    // Runs one job on inputs cloned out of its probe's slot, then records
    // the result and queues the jobs it unblocks.
    let run = |job: Job| match job {
        Job::Trace(p) => {
            let trace = Arc::new(make_trace(p));
            pool.slot(p, |slot, ready| {
                slot.trace = Some(trace);
                slot.sims.resize_with(n_units, || None);
                ready.extend((0..n_units).map(|u| Job::Simulate(p, u)));
                if n_units == 0 {
                    ready.insert(Job::Prepare(p));
                }
            });
        }
        Job::Simulate(p, u) => {
            let trace = pool.slot(p, |slot, _| slot.trace.clone().expect("traced"));
            SIMULATIONS.fetch_add(1, Ordering::Relaxed);
            let sim = simulate(&trace, u);
            pool.slot(p, |slot, ready| {
                slot.sims[u] = Some(sim);
                if slot.sims.iter().all(Option::is_some) {
                    slot.trace = None;
                    let sims = slot.sims.drain(..).flatten().collect();
                    slot.runs = Some(Arc::new(sims));
                    ready.insert(Job::Prepare(p));
                }
            });
        }
        Job::Prepare(p) => {
            let runs = pool.slot(p, |slot, _| slot.runs.clone().expect("simulated"));
            let features = prepare(p, &runs);
            // Baseline rows: mean counter row, design features, overall.
            let mut agg = Vec::with_capacity(grid.key_units.len());
            for &u in &grid.key_units {
                let (series, overall) = &runs[u];
                let n = series.rows.len().max(1) as f64;
                let mut mean = vec![0.0; series.rows.width()];
                for row in &series.rows {
                    mean.iter_mut().zip(row).for_each(|(m, v)| *m += v);
                }
                mean.iter_mut().for_each(|m| *m /= n);
                mean.extend_from_slice(&series.arch_features);
                mean.push(*overall);
                agg.push(mean);
            }
            let overall = grid.key_units.iter().map(|&u| runs[u].1).collect();
            pool.slot(p, |slot, ready| {
                slot.prepared = Some((features, agg, overall));
                slot.engines.resize_with(n_engines, || None);
                ready.extend((0..n_engines).map(|e| Job::Train(p, e)));
            });
        }
        Job::Train(p, e) => {
            let (runs, features) = pool.slot(p, |slot, _| {
                let prepared = slot.prepared.as_ref().expect("prepared");
                (slot.runs.clone().expect("simulated"), prepared.0.clone())
            });
            let engine = &engines[e];
            let train_refs: Vec<&RunSeries> =
                grid.train_units.iter().map(|&u| &runs[u].0).collect();
            let val_refs: Vec<&RunSeries> = grid.val_units.iter().map(|&u| &runs[u].0).collect();
            let t0 = Instant::now();
            let model = ProbeModel::train(engine, features, &train_refs, &val_refs);
            let train_time = t0.elapsed();
            let t1 = Instant::now();
            let (mut deltas, mut captures) = (Vec::new(), Vec::new());
            for (pos, &u) in grid.key_units.iter().enumerate() {
                let series = &runs[u].0;
                let inferred = model.infer(series);
                // The error is never negative, so `min` also clamps NaN.
                deltas.push(inference_error(&series.target, &inferred).min(DELTA_CEILING));
                captures.extend(capture(p, pos, engine, series, &inferred));
            }
            let output = EngineProbeOutput {
                deltas,
                train_time,
                infer_time: t1.elapsed(),
                captures,
            };
            pool.slot(p, |slot, _| slot.engines[e] = Some(output));
        }
    };

    // The scope joins every worker, and panics in turn if one panicked.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| pool.work(run));
        }
        pool.hand_on(probes, 2 * threads, &mut on_probe)
    })
}

/// A job of a pass; the derived order (stage, then probe) is the run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Job {
    Trace(usize),
    Simulate(usize, usize), // (probe, unit)
    Prepare(usize),
    Train(usize, usize), // (probe, engine)
}

/// An admitted probe's progress; the trace lives until its last simulation.
struct Slot<T> {
    trace: Option<Arc<T>>,
    sims: Vec<Option<(RunSeries, f64)>>,
    runs: Option<Arc<Vec<(RunSeries, f64)>>>,
    /// Selected features, baseline aggregates and overall metrics.
    prepared: Option<(FeatureSpec, Vec<Vec<f64>>, Vec<f64>)>,
    engines: Vec<Option<EngineProbeOutput>>,
}

impl<T> Slot<T> {
    fn done(&self) -> bool {
        self.prepared.is_some() && self.engines.iter().all(Option::is_some)
    }
}

/// The job queue and the admitted probes, behind [`Pool`]'s lock.
struct Queue<T> {
    ready: BTreeSet<Job>,
    /// Admitted probes not yet handed on, by probe index.
    slots: BTreeMap<usize, Slot<T>>,
    /// Set when the pass ends, fails or panics; every thread then stops.
    closed: bool,
}

/// The state a pass's workers and its calling thread share.
struct Pool<T> {
    queue: Mutex<Queue<T>>,
    changed: Condvar,
}

/// Closes the pool when dropped, so that a thread leaving the pass — by
/// returning, by an error or by a panic — releases every other one.
struct CloseOnDrop<'a, T>(&'a Pool<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.changed.notify_all();
    }
}

impl<T> Pool<T> {
    /// Ignores poisoning: no callback runs under the lock.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads or updates a probe's slot, waking the other threads only for
    /// new jobs or a finished probe.
    fn slot<R>(&self, probe: usize, f: impl FnOnce(&mut Slot<T>, &mut BTreeSet<Job>) -> R) -> R {
        let mut guard = self.lock();
        let queue = &mut *guard;
        let slot = queue.slots.get_mut(&probe).expect("an admitted probe");
        let queued = queue.ready.len();
        let out = f(slot, &mut queue.ready);
        let wake = queue.ready.len() > queued || slot.done();
        drop(guard);
        if wake {
            self.changed.notify_all();
        }
        out
    }

    /// A worker: runs ready jobs until the pool closes.
    fn work(&self, run: impl Fn(Job)) {
        let _close = CloseOnDrop(self);
        loop {
            let queue = self
                .changed
                .wait_while(self.lock(), |q| !q.closed && q.ready.is_empty());
            let mut queue = queue.unwrap_or_else(PoisonError::into_inner);
            if queue.closed {
                return;
            }
            let job = queue.ready.pop_first().expect("woken for a job");
            drop(queue);
            run(job);
        }
    }

    /// The calling thread: keeps up to `window` probes admitted and hands
    /// each finished probe to `on_probe` in order.
    fn hand_on<E>(
        &self,
        probes: std::ops::Range<usize>,
        window: usize,
        on_probe: &mut impl FnMut(usize, ProbeOutput) -> Result<(), E>,
    ) -> Result<(), E> {
        let _close = CloseOnDrop(self);
        let mut admitted = probes.start;
        for p in probes.clone() {
            let mut queue = self.lock();
            // Admit before waiting: once every admitted probe is handed
            // on, nothing else would refill the queue.
            while admitted < probes.end && admitted - p < window {
                let slot = Slot {
                    trace: None,
                    sims: Vec::new(),
                    runs: None,
                    prepared: None,
                    engines: Vec::new(),
                };
                queue.slots.insert(admitted, slot);
                queue.ready.insert(Job::Trace(admitted));
                admitted += 1;
            }
            self.changed.notify_all();
            let queue = self
                .changed
                .wait_while(queue, |q| !q.closed && !q.slots[&p].done());
            let mut queue = queue.unwrap_or_else(PoisonError::into_inner);
            if queue.closed {
                // Only a worker's panic closes the pool early.
                return Ok(());
            }
            let slot = queue.slots.remove(&p).expect("an admitted probe");
            drop(queue);
            let (_, agg, overall) = slot.prepared.expect("a finished probe");
            let engines = slot.engines.into_iter().flatten().collect();
            on_probe(
                p,
                ProbeOutput {
                    overall,
                    agg,
                    engines,
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbug_ml::LassoParams;
    use perfbug_workloads::RowMatrix;
    use std::convert::Infallible;
    use std::sync::mpsc::{self, RecvTimeoutError};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_serial() {
        let serial = parallel_map(257, 1, |i| (i as u64).wrapping_mul(0x9e3779b9));
        let parallel = parallel_map(257, 8, |i| (i as u64).wrapping_mul(0x9e3779b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_task_set() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    /// What a synthetic pass hands on per probe, timings left out.
    type Emitted = (usize, Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>);

    const N_PROBES: usize = 13;

    /// Runs `pass` on a helper thread and returns its result, or its
    /// panic's payload. A hang fails the test after a bounded wait instead
    /// of stalling it.
    fn bounded<R: Send + 'static>(
        pass: impl FnOnce() -> R + Send + 'static,
    ) -> std::thread::Result<R> {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(pass());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(out) => handle.join().map(|()| out),
            Err(RecvTimeoutError::Timeout) => panic!("the pass did not finish within 60 s"),
            Err(RecvTimeoutError::Disconnected) => Err(handle.join().expect_err("it panicked")),
        }
    }

    /// A synthetic pass over [`N_PROBES`] probes and four units with cheap
    /// closures and a Lasso engine. `prepare` sleeps on every sixth probe,
    /// so the oldest probe of each window finishes last; `simulate` panics
    /// on `panic_at` (probe, unit).
    fn synthetic_pass<E>(
        threads: usize,
        skip: usize,
        panic_at: Option<(usize, usize)>,
        on_probe: impl FnMut(usize, ProbeOutput) -> Result<(), E>,
    ) -> Result<(), E> {
        let grid = UnitGrid {
            n_units: 4,
            train_units: vec![0, 1],
            val_units: vec![2],
            key_units: vec![0, 1, 2, 3],
        };
        let engines = [EngineSpec::Lasso(LassoParams::default())];
        collect_unit_grid_streaming(
            N_PROBES,
            threads,
            ShardSpec::full(),
            skip,
            &grid,
            &engines,
            |p| (p, p as f64 * 0.37),
            |&(p, seed): &(usize, f64), u| {
                assert!(panic_at != Some((p, u)), "simulator stalled");
                let rows: Vec<Vec<f64>> = (0..12)
                    .map(|t| {
                        let x = (t as f64 * 0.5 + seed + u as f64).sin();
                        vec![x, x * x + u as f64 * 0.1, seed]
                    })
                    .collect();
                let target = rows.iter().map(|r| 1.0 + 0.5 * r[0] + 0.2 * r[1]).collect();
                let series = RunSeries {
                    rows: RowMatrix::from_rows(&rows),
                    target,
                    arch_features: vec![u as f64],
                };
                (series, seed + u as f64)
            },
            |p, _| {
                if p % 6 == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                FeatureSpec {
                    selected: vec![0, 1],
                    arch_features: false,
                    window: 1,
                }
            },
            |_, _, _, _, _| None,
            on_probe,
        )
    }

    fn emitted(threads: usize, skip: usize) -> Vec<Emitted> {
        bounded(move || {
            let mut out = Vec::new();
            let Ok(()) = synthetic_pass::<Infallible>(threads, skip, None, |p, po| {
                let deltas = po.engines.into_iter().map(|e| e.deltas).collect();
                out.push((p, po.overall, po.agg, deltas));
                Ok(())
            });
            out
        })
        .expect("the pass must not panic")
    }

    #[test]
    fn window_hands_on_the_serial_output_in_order() {
        let serial = emitted(1, 0);
        let order: Vec<usize> = serial.iter().map(|e| e.0).collect();
        assert_eq!(order, (0..N_PROBES).collect::<Vec<_>>());
        for threads in [2, 3, 5] {
            assert_eq!(emitted(threads, 0), serial, "threads={threads}");
            assert_eq!(emitted(threads, 4), serial[4..], "threads={threads} skip=4");
        }
        assert!(emitted(2, N_PROBES + 1).is_empty());
    }

    #[test]
    fn sink_error_ends_the_pass() {
        let (result, seen) = bounded(|| {
            let mut seen = Vec::new();
            let result = synthetic_pass(2, 0, None, |p, _| {
                seen.push(p);
                if p == 2 {
                    Err("disk full")
                } else {
                    Ok(())
                }
            });
            (result, seen)
        })
        .expect("the pass must not panic");
        assert_eq!(result, Err("disk full"));
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn simulator_panic_propagates() {
        // A worker's panic must close the queue and leave the call instead
        // of hanging the calling thread or the other worker.
        let result = bounded(|| synthetic_pass::<Infallible>(2, 0, Some((5, 1)), |_, _| Ok(())));
        assert!(result.is_err(), "the simulator's panic must propagate");
    }

    #[test]
    fn shard_ranges_partition_every_probe_count() {
        for n_probes in [0usize, 1, 5, 7, 16, 100] {
            for count in [1usize, 2, 3, 5, 8, 13] {
                let mut covered = vec![0u32; n_probes];
                let mut prev_end = 0;
                for index in 0..count {
                    let range = ShardSpec::new(index, count).probe_range(n_probes);
                    assert_eq!(range.start, prev_end, "shards must be contiguous");
                    prev_end = range.end;
                    for p in range {
                        covered[p] += 1;
                    }
                }
                assert_eq!(prev_end, n_probes);
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "n={n_probes} count={count}: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn shard_full_covers_everything() {
        assert!(ShardSpec::full().is_full());
        assert_eq!(ShardSpec::full().probe_range(9), 0..9);
    }

    #[test]
    fn shard_index_out_of_range_panics() {
        let result = std::panic::catch_unwind(|| ShardSpec::new(3, 3));
        assert!(result.is_err());
    }
}
