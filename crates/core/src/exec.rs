//! Run-level parallel execution engine.
//!
//! The collection phase of the methodology is embarrassingly parallel at
//! *run* granularity — every (probe, design, bug) simulation and every
//! (probe, engine) stage-1 training job is independent — but the work is
//! heavily skewed: buggy runs stall pipelines for many more cycles than
//! healthy ones, and neural engines train orders of magnitude longer than
//! boosted trees. This module provides the scheduler the collection pass
//! (`experiment::collect` and the cache front doors of `persist`, for the
//! core and memory experiments alike) is built on:
//!
//! * a sharded **work-stealing index scheduler** ([`Scheduler`]) — each
//!   worker owns a contiguous shard of the task range and claims indices
//!   with a single atomic `fetch_add`; once its shard is drained it steals
//!   from the shard with the most remaining work, so skewed run costs
//!   cannot idle a core;
//! * **lock-free per-slot result writes** ([`SlotVec`]) — every task
//!   publishes its result through its own `OnceLock`, eliminating the
//!   global results mutex of the previous probe-granular loop;
//! * [`parallel_map`] / [`parallel_map_with`] — scoped-thread drivers that
//!   tie the two together and preserve index order, so results are
//!   byte-identical regardless of worker count;
//! * [`collect_unit_grid_streaming`] — the three-phase collection driver
//!   over a (probe × unit) simulation grid, parameterised by a trace
//!   builder, a simulator and a counter-selection policy. The one
//!   collection pass (`experiment`'s, over its `Experiment` trait) runs
//!   through it; [`collect_unit_grid`] is its in-memory form;
//! * [`ShardSpec`] — multi-process scale-out. A shard restricts the driver
//!   to a deterministic contiguous probe range of the grid; because every
//!   probe's pipeline is independent and deterministic, the union of any
//!   shard partition's outputs is identical to a single-process run. The
//!   persistence layer (`crate::persist`) gives shards an on-disk merge
//!   format (see `docs/FORMAT.md` and `docs/ARCHITECTURE.md`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
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

/// One worker's contiguous slice of the task range.
#[derive(Debug)]
struct Shard {
    /// Next unclaimed task index; may legitimately run past `end` when
    /// thieves race, which simply means the shard is drained.
    next: AtomicUsize,
    /// One past the last task index of the shard.
    end: usize,
}

impl Shard {
    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claims the next index of this shard, if any is left.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }
}

/// Work-stealing scheduler over the task indices `0..n_tasks`.
///
/// Claiming is wait-free in the common case (one `fetch_add` on the
/// worker's own shard) and lock-free when stealing.
#[derive(Debug)]
pub struct Scheduler {
    shards: Vec<Shard>,
}

impl Scheduler {
    /// Partitions `0..n_tasks` into `workers` near-equal contiguous shards.
    pub fn new(n_tasks: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let base = n_tasks / workers;
        let extra = n_tasks % workers;
        let mut shards = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            shards.push(Shard {
                next: AtomicUsize::new(start),
                end: start + len,
            });
            start += len;
        }
        Scheduler { shards }
    }

    /// Claims the next task for `worker`: from its own shard while it
    /// lasts, then by stealing from the fullest other shard. Returns
    /// `None` only once every task index has been claimed.
    pub fn claim(&self, worker: usize) -> Option<usize> {
        if let Some(i) = self.shards[worker % self.shards.len()].claim() {
            return Some(i);
        }
        loop {
            let victim = self
                .shards
                .iter()
                .max_by_key(|s| s.remaining())
                .filter(|s| s.remaining() > 0)?;
            if let Some(i) = victim.claim() {
                return Some(i);
            }
            // Lost the race for the victim's last tasks; rescan.
        }
    }
}

/// A fixed-size vector of write-once result slots.
///
/// Each parallel task publishes into its own slot, so no lock is shared
/// between workers and results keep task order.
#[derive(Debug)]
pub struct SlotVec<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> SlotVec<T> {
    /// Creates `n` empty slots.
    pub fn new(n: usize) -> Self {
        SlotVec {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Publishes the result of task `i`.
    ///
    /// # Panics
    ///
    /// Panics if slot `i` was already filled — every task index must be
    /// claimed exactly once.
    pub fn set(&self, i: usize, value: T) {
        if self.slots[i].set(value).is_err() {
            panic!("slot {i} filled twice");
        }
    }

    /// Reads the result of task `i`, if published.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.slots[i].get()
    }

    /// Unwraps all slots into a plain vector, preserving task order.
    ///
    /// # Panics
    ///
    /// Panics if any slot is still empty.
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("slot {i} never filled"))
            })
            .collect()
    }
}

/// Runs `task(worker_state, index)` for every index in `0..n_tasks` on
/// `threads` scoped workers (clamped to at least 1) and returns the
/// results in index order. `init` builds one reusable state per worker
/// (scratch buffers, pools); the single-threaded path runs inline without
/// spawning.
pub fn parallel_map_with<T, S, I, F>(n_tasks: usize, threads: usize, init: I, task: F) -> Vec<T>
where
    T: Send + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n_tasks.max(1));
    if threads == 1 {
        let mut state = init();
        return (0..n_tasks).map(|i| task(&mut state, i)).collect();
    }
    let scheduler = Scheduler::new(n_tasks, threads);
    let slots = SlotVec::new(n_tasks);
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let scheduler = &scheduler;
            let slots = &slots;
            let init = &init;
            let task = &task;
            scope.spawn(move || {
                let mut state = init();
                while let Some(i) = scheduler.claim(worker) {
                    slots.set(i, task(&mut state, i));
                }
            });
        }
    });
    slots.into_vec()
}

/// [`parallel_map_with`] without per-worker state.
pub fn parallel_map<T, F>(n_tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n_tasks, threads, || (), |(), i| task(i))
}

// --------------------------------------------------------------------------
// Shared unit-grid collection driver
// --------------------------------------------------------------------------

/// Process-wide count of simulation units run by
/// [`collect_unit_grid_streaming`].
///
/// Incremented once per (probe, unit) simulation task. The replay tooling
/// (`examples/replay.rs` and the CI replay guard) samples it around a
/// cache load to prove that an evaluation-only replay performed zero
/// simulations.
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
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {raw:?}"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {raw:?}"))?;
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
    /// Near-equal partition, identical to the scheduler's: the first
    /// `n_probes % count` shards take one extra probe. Shards beyond the
    /// probe count legitimately own an empty range.
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
/// [`collect_unit_grid_streaming`] completion callback as soon as the
/// probe's block finishes.
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

/// Runs the shared three-phase collection pipeline over a (probe × unit)
/// grid on the work-stealing pool:
///
/// * **Phase A** — the (probe × unit) simulation grid (`simulate`), fed by
///   one trace per probe (`make_trace`);
/// * **Phase B** — per-probe counter selection (`prepare`) plus the
///   baseline's aggregated mean-row features and overall-metric vector;
/// * **Phase C** — the (probe × engine) stage-1 training grid, producing
///   Eq.-(1) inference errors (ceiling-clamped at
///   `experiment::DELTA_CEILING`) and optional captured series
///   (`capture`).
///
/// `shard` restricts the driver to that shard's probe range
/// ([`ShardSpec::probe_range`]); probe indices handed to the callbacks are
/// always absolute grid indices, so a probe's pipeline is bit-identical
/// whether it runs in a full pass or inside any shard.
///
/// Probes are processed in blocks of `max(threads, 2)` to bound peak
/// memory; results are published into per-task slots and assembled in
/// deterministic index order, so the output is identical for any worker
/// count and any block size.
///
/// Each probe's complete output is handed to `on_probe(absolute probe
/// index, output)` as soon as its block's deterministic assembly reaches
/// it, instead of being accumulated in memory. The callback runs on the
/// calling thread, in strictly increasing probe order, and may fail — a
/// `Err` aborts the pass immediately (work already queued in the current
/// block is finished first).
///
/// `skip` drops the first `skip` probes of the shard's range without
/// simulating them — the resume path: a crashed worker whose durable
/// prefix already holds `skip` probes continues from the first missing
/// one. Because every probe's pipeline depends only on its own trace,
/// the probes that *are* run produce bit-identical output regardless of
/// `skip` (block boundaries shift, which affects nothing but batching).
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
    let n_units = grid.n_units;
    let n_engines = engines.len();
    let block = threads.max(2);
    let range = shard.probe_range(n_probes);
    let start = range.start + skip.min(range.len());

    for block_start in (start..range.end).step_by(block) {
        let block_len = (range.end - block_start).min(block);

        // Trace generation, one task per probe.
        let traces: Vec<T> = parallel_map(block_len, threads, |i| make_trace(block_start + i));

        // Phase A: the (probe x unit) simulation grid.
        let sims: Vec<(RunSeries, f64)> = parallel_map(block_len * n_units, threads, |t| {
            let (pi, u) = (t / n_units, t % n_units);
            SIMULATIONS.fetch_add(1, Ordering::Relaxed);
            simulate(&traces[pi], u)
        });
        let sims_of = |pi: usize| &sims[pi * n_units..(pi + 1) * n_units];

        // Phase B: per-probe counter selection and baseline aggregates
        // (mean counter row + design features + the overall metric).
        type Prepped = (FeatureSpec, Vec<Vec<f64>>, Vec<f64>);
        let preps: Vec<Prepped> = parallel_map(block_len, threads, |pi| {
            let units = sims_of(pi);
            let features = prepare(block_start + pi, units);
            let agg: Vec<Vec<f64>> = grid
                .key_units
                .iter()
                .map(|&u| {
                    let (series, overall) = &units[u];
                    let n = series.rows.len().max(1) as f64;
                    let mut mean = vec![0.0; series.rows.width()];
                    for row in &series.rows {
                        for (m, v) in mean.iter_mut().zip(row) {
                            *m += v;
                        }
                    }
                    mean.iter_mut().for_each(|m| *m /= n);
                    mean.extend_from_slice(&series.arch_features);
                    mean.push(*overall);
                    mean
                })
                .collect();
            let overall = grid.key_units.iter().map(|&u| units[u].1).collect();
            (features, agg, overall)
        });

        // Phase C: the (probe x engine) stage-1 training grid.
        let outputs: Vec<EngineProbeOutput> = parallel_map(block_len * n_engines, threads, |t| {
            let (pi, e) = (t / n_engines, t % n_engines);
            let units = sims_of(pi);
            let engine = &engines[e];
            let train_refs: Vec<&RunSeries> =
                grid.train_units.iter().map(|&u| &units[u].0).collect();
            let val_refs: Vec<&RunSeries> = grid.val_units.iter().map(|&u| &units[u].0).collect();
            let t0 = Instant::now();
            let model = ProbeModel::train(engine, preps[pi].0.clone(), &train_refs, &val_refs);
            let train_time = t0.elapsed();
            let t1 = Instant::now();
            let mut deltas = Vec::with_capacity(grid.key_units.len());
            let mut captures = Vec::new();
            for (pos, &u) in grid.key_units.iter().enumerate() {
                let series = &units[u].0;
                let inferred = model.infer(series);
                let mut delta = inference_error(&series.target, &inferred);
                if !delta.is_finite() || delta > DELTA_CEILING {
                    delta = DELTA_CEILING;
                }
                deltas.push(delta);
                if let Some(c) = capture(block_start + pi, pos, engine, series, &inferred) {
                    captures.push(c);
                }
            }
            EngineProbeOutput {
                deltas,
                train_time,
                infer_time: t1.elapsed(),
                captures,
            }
        });

        // Deterministic assembly in (probe, engine) order, consuming the
        // task outputs so deltas and captures move instead of cloning.
        let mut outputs = outputs.into_iter();
        for (pi, (_, agg, overall)) in preps.into_iter().enumerate() {
            let probe_engines: Vec<EngineProbeOutput> = (0..n_engines)
                .map(|_| outputs.next().expect("one output per (probe, engine)"))
                .collect();
            on_probe(
                block_start + pi,
                ProbeOutput {
                    overall,
                    agg,
                    engines: probe_engines,
                },
            )?;
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scheduler_claims_every_task_exactly_once() {
        for (n, workers) in [(0, 3), (1, 4), (7, 2), (100, 8), (5, 16)] {
            let scheduler = Scheduler::new(n, workers);
            let mut seen = vec![0u32; n];
            for w in 0..workers {
                while let Some(i) = scheduler.claim(w) {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "n={n} workers={workers}: {seen:?}"
            );
        }
    }

    #[test]
    fn stealing_drains_skewed_shards() {
        // Worker 1 never claims; worker 0 must steal worker 1's shard dry.
        let scheduler = Scheduler::new(10, 2);
        let mut count = 0;
        while scheduler.claim(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 10);
    }

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
    fn worker_state_is_reused() {
        // Each worker counts its claims in local state; the total across
        // workers must equal the task count.
        let total = AtomicU64::new(0);
        let out = parallel_map_with(
            64,
            4,
            || 0u64,
            |claims, i| {
                *claims += 1;
                total.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_task_set() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
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

    #[test]
    fn slotvec_rejects_double_set() {
        let slots = SlotVec::new(2);
        slots.set(0, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slots.set(0, 2)));
        assert!(result.is_err());
    }
}
