//! `perfbench` — the repository benchmark.
//!
//! From the repository root (see `BENCHMARK.json`):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--program-seed <n>]
//! ```
//!
//! Workloads (each runs as one process, with at most `nproc` worker
//! threads or client connections):
//!
//! * `core-membound` — a cold core collection pass (`core_small`
//!   catalogue, GBT-250, default probe scale, paper partition) over
//!   `426.mcf` + `444.namd`, 2 probes, plus its evaluation. The
//!   lowest-IPC benchmarks: the reorder-buffer head waits on long misses
//!   for most cycles.
//! * `core-compute` — the same pass over `400.perlbench` + `433.milc`,
//!   4 probes: the highest-IPC benchmarks, with few idle cycles.
//! * `mem-pass` — a cold memory-experiment pass (AMAT, GBT-250, the
//!   extended catalogue, all 22 memory SimPoints) plus its evaluation:
//!   the cache-hierarchy simulator does the work, the core simulator none.
//! * `serve-hit` — cache hits on an in-process `pbserve` from a closed
//!   loop of 2 clients: zero simulations.
//!
//! Seed 0 is the suite as shipped and is checked against the digests
//! pinned in `oracle.txt`. A nonzero `--seed` shuffles the probe axis of
//! the core passes (the order of their benchmarks) and serve-hit's request
//! order; the simulated work is the same, so timings compare across
//! seeds. `mem-pass` has no seedable input. A nonzero `--program-seed` is
//! XORed into each core benchmark's generation seed instead: a fresh
//! program instance with the same phase mix, for re-checking a claim on
//! programs not used while writing it. It changes the simulated work
//! several-fold (on a 2-vCPU Xeon VM, core-membound's pass ranged from
//! 4.2 s to 34.7 s over program seeds 1 to 5), so the timed suite keeps it
//! at 0. Runs at any
//! nonzero seed check only that their outputs agree with each other.
//!
//! With `--trace 0` the run measures the end-to-end metrics: short
//! operations repeated throughout the run, each reported as its fastest
//! repeat, and all timings scaled to a nominal host speed by a reference
//! kernel timed beside them (see `kernel`). With
//! `--trace 1` it repeats the work with spans around every call into a
//! layer (see `spans.rs`) and reports the per-layer metrics and the phase
//! split. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Not exercised: the orchestrator (process pool and TCP fan-out) and the
//! workload-trace cache. `PERFBUG_TRACE_DIR` is removed from the
//! environment, and the service collects in-process (`workers: 0`).

mod digest;
mod eval;
mod pass;
mod serve_hit;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::Recorder;

/// Scratch space, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";

/// Digests pinned for seed 0: `<workload> <corpus> <report>` per line.
const ORACLE: &str = include_str!("../oracle.txt");

/// End-to-end metrics in the JSON result, with their units.
///
/// * `setup_s` — the fastest of the run's set-ups;
/// * `sim_minst_per_s` — simulated instructions per host second over the
///   fastest repeat of each simulator call of the run;
/// * `eval_s` — the fastest evaluation of the corpus;
/// * `det_auc`, `det_tpr` — pooled detection quality (deterministic);
/// * `hit_p50_ms`, `hits_per_s` — cache hits: replays of the cache file on
///   the pass workloads, served requests on `serve-hit`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("eval_s", "s"),
    ("det_auc", "ratio"),
    ("det_tpr", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hits_per_s", "1/s"),
];

/// End-to-end metrics printed but kept out of the JSON result:
///
/// * `pass_s`, the wall time of one cold pass, and `verdict_s`, that plus
///   the fastest evaluation: a pass takes seconds, and over ten identical
///   runs on a shared 2-vCPU Xeon VM the middle half of its times spread
///   by 20 to 45 % of their median, following the host's other tenants
///   (see `pass::untraced`);
/// * `det_fpr` and `fail_frac` can legitimately read 0 (`fail_frac` is
///   also carried by the `attempted` and `failed` fields);
/// * `hit_p95_ms` on `serve-hit` ranged from 2.6 to 7.7 ms over ten
///   identical runs: the tail follows the host's other tenants;
/// * the peak resident set varied by up to a third between identical
///   runs with the allocator's per-thread arenas.
const PRINTED_ONLY: [(&str, &str); 6] = [
    ("pass_s", "s"),
    ("verdict_s", "s"),
    ("hit_p95_ms", "ms"),
    ("det_fpr", "ratio"),
    ("fail_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Timings scaled to the nominal host speed (see `kernel`).
const SCALED_TIMES: [&str; 6] = [
    "setup_s",
    "eval_s",
    "hit_p50_ms",
    "pass_s",
    "verdict_s",
    "hit_p95_ms",
];
const SCALED_RATES: [&str; 2] = ["sim_minst_per_s", "hits_per_s"];

/// Core benchmarks with per-benchmark simulator metrics.
pub const CORE_BENCHES: [&str; 4] = ["426.mcf", "444.namd", "400.perlbench", "433.milc"];

/// Per-layer metrics of the layers that run no work on `serve-hit`.
pub const SIMULATION_LAYER_METRICS: [&str; 13] = [
    "uarch.sim_s",
    "uarch.sim_share",
    "memsim.sim_s",
    "memsim.sim_share",
    "memsim.mcycles_per_s",
    "memsim.cycles",
    "stage1.train_s",
    "stage1.infer_s",
    "stage1.share",
    "workloads.trace_s",
    "workloads.trace_share",
    "select.s",
    "exec.busy_frac",
];

/// Per-layer metrics in the JSON result, with their units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = vec![
        ("uarch.sim_s".into(), "s"),
        ("uarch.sim_share".into(), "ratio"),
    ];
    for bench in CORE_BENCHES {
        out.push((format!("uarch.mcycles_per_s.{bench}"), "Mcycles/s"));
        out.push((format!("uarch.cycles.{bench}"), "count"));
    }
    let fixed: [(&str, &str); 24] = [
        ("memsim.sim_s", "s"),
        ("memsim.sim_share", "ratio"),
        ("memsim.mcycles_per_s", "Mcycles/s"),
        ("memsim.cycles", "count"),
        ("stage1.train_s", "s"),
        ("stage1.infer_s", "s"),
        ("stage1.share", "ratio"),
        ("workloads.trace_s", "s"),
        ("workloads.trace_share", "ratio"),
        ("select.s", "s"),
        ("exec.sims", "count"),
        ("exec.busy_frac", "ratio"),
        ("stage2.eval_s", "s"),
        ("stage2.sweep_s", "s"),
        ("baseline.eval_s", "s"),
        ("persist.encode_mb_per_s", "MB/s"),
        ("persist.decode_mb_per_s", "MB/s"),
        ("persist.load_ms", "ms"),
        ("persist.corpus_bytes", "bytes"),
        ("serve.accepted_ms", "ms"),
        ("serve.hit_ms", "ms"),
        ("serve.done_ms", "ms"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

// --------------------------------------------------------------------------
// Shared plumbing of the workloads
// --------------------------------------------------------------------------

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The fastest of repeated timings of the same work (infinite when empty).
pub fn best_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of a sample (0 when empty); the median of an
/// even-sized sample is the mean of its two middle values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if p == 0.5 && n % 2 == 0 => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        n => v[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Expected output digests. At seed 0 they are the pinned ones; at any
/// other seed the first value seen becomes the reference for the rest of
/// the run.
pub struct Oracle {
    pinned: bool,
    corpus: Option<u64>,
    report: Option<u64>,
}

impl Oracle {
    fn new(workload: &str, pinned: bool) -> Self {
        let mut oracle = Oracle {
            pinned,
            corpus: None,
            report: None,
        };
        if pinned {
            let line = ORACLE
                .lines()
                .map(str::split_whitespace)
                .find_map(|mut f| (f.next() == Some(workload)).then(|| (f.next(), f.next())));
            if let Some((Some(corpus), Some(report))) = line {
                oracle.corpus = u64::from_str_radix(corpus, 16).ok();
                oracle.report = u64::from_str_radix(report, 16).ok();
            }
        }
        oracle
    }

    fn check(slot: &mut Option<u64>, pinned: bool, what: &str, seen: u64) -> Result<(), String> {
        println!("digest {what} {seen:016x}");
        match *slot {
            Some(expected) if expected == seen => Ok(()),
            Some(expected) => Err(format!(
                "{what} digest {seen:016x}, expected {expected:016x}"
            )),
            None if pinned => Err(format!("no pinned {what} digest (seen {seen:016x})")),
            None => {
                *slot = Some(seen);
                Ok(())
            }
        }
    }

    pub fn check_corpus(&mut self, seen: u64) -> Result<(), String> {
        Self::check(&mut self.corpus, self.pinned, "corpus", seen)
    }

    pub fn check_report(&mut self, seen: u64) -> Result<(), String> {
        Self::check(&mut self.report, self.pinned, "report", seen)
    }
}

/// Counts attempted and failed operations. An operation fails when it
/// returns an error (a wrong digest, a wrong reply) or panics.
pub struct Ledger {
    attempted: u64,
    failed: u64,
    oracle: Oracle,
}

impl Ledger {
    pub fn new(oracle: Oracle) -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            oracle,
        }
    }

    pub fn attempt<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Oracle) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let oracle = &mut self.oracle;
        match catch_unwind(AssertUnwindSafe(|| f(oracle))) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(why)) => {
                self.fail(what, &why);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Checks the output of an operation already counted as attempted;
    /// a wrong output marks it failed while its timing still counts.
    pub fn verify(&mut self, what: &str, check: impl FnOnce(&mut Oracle) -> Result<(), String>) {
        if let Err(why) = check(&mut self.oracle) {
            self.fail(what, &why);
        }
    }

    /// Marks an operation already counted as attempted as failed.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {why}");
    }

    /// Adds operations counted elsewhere (client threads).
    pub fn record(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Best time of the reference kernel on the host the benchmark was written
/// on (a 2-vCPU Xeon VM); see `kernel`.
const NOMINAL_KERNEL_S: f64 = 0.0024;

/// Steps of the reference kernel per timing.
const KERNEL_STEPS: u64 = 1_000_000;

/// A fixed integer kernel that stands in for the host's speed. On a shared
/// VM the fastest time of the same work drifts by up to a fifth between
/// runs minutes apart, and by about as much for every operation the
/// benchmark times (set-up, simulation, evaluation, cache hits) at once;
/// the kernel's fastest time drifts with them. Timed throughout the run
/// beside the workload, it gives the factor that scales the run's
/// end-to-end timings to the nominal host speed. The kernel is the
/// benchmark's own code, so no change to the program moves it. (Timing it
/// on every vCPU at once, for the operations that use every vCPU, tracked
/// them no better.)
fn kernel(steps: u64) -> u64 {
    // 8 KiB: stays in the first-level cache, so the kernel measures the
    // core's speed and not the memory system's contention.
    let mut table = [0u64; 1024];
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 1023) as usize;
        acc = acc.wrapping_add(table[j] ^ i);
        table[j] = acc.rotate_left(7);
    }
    acc
}

#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    /// Reference kernel timings of the run.
    kernel_s: Vec<f64>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times the reference kernel a few times; workloads call this
    /// throughout their run.
    pub fn sample_host(&mut self) {
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(KERNEL_STEPS)));
            self.kernel_s.push(t0.elapsed().as_secs_f64());
        }
    }

    /// Scales the end-to-end timings to the nominal host speed: times by
    /// the host's speed against the nominal host, rates by its inverse.
    fn scale_to_nominal_host(&mut self) {
        if self.kernel_s.is_empty() {
            return;
        }
        let best = best_of(&self.kernel_s);
        let speed = NOMINAL_KERNEL_S / best;
        println!(
            "host speed {speed:.4} of nominal: reference kernel best {:.4} ms of {} timings \
             (nominal {:.4} ms); the timings below are scaled by it",
            best * 1e3,
            self.kernel_s.len(),
            NOMINAL_KERNEL_S * 1e3
        );
        for (name, value) in self.values.iter_mut() {
            if SCALED_TIMES.contains(&name.as_str()) {
                *value *= speed;
            } else if SCALED_RATES.contains(&name.as_str()) {
                *value /= speed;
            }
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Sets `name` to the median of `samples` and prints the sample.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        show(name, samples);
        self.set(name, median(samples));
    }

    /// Sets `name` to the fastest of `samples` and prints the sample.
    pub fn set_best(&mut self, name: &str, samples: &[f64]) {
        show(name, samples);
        self.set(name, best_of(samples));
    }
}

fn show(name: &str, samples: &[f64]) {
    let shown: Vec<String> = samples.iter().take(12).map(|v| format!("{v:.4}")).collect();
    let more = if samples.len() > 12 { " ..." } else { "" };
    println!(
        "samples {name} n={}: {}{more}",
        samples.len(),
        shown.join(" ")
    );
}

pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Metrics,
    pub spans: Option<Recorder>,
}

// --------------------------------------------------------------------------
// Command line and result
// --------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    program_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut program_seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--program-seed" => program_seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        program_seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The workload-trace cache is not part of what this benchmark measures.
    std::env::remove_var(perfbug_core::tracecache::TRACE_DIR_ENV);
    let root = PathBuf::from(WORK_DIR);
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let oracle = Oracle::new(&args.workload, args.seed == 0 && args.program_seed == 0);
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "core-membound" => {
            let exp = pass::core(&["426.mcf", "444.namd"], 2, seed, args.program_seed);
            pass::run(&exp, &work, secs, trace, oracle)
        }
        "core-compute" => {
            let exp = pass::core(&["400.perlbench", "433.milc"], 4, seed, args.program_seed);
            pass::run(&exp, &work, secs, trace, oracle)
        }
        "mem-pass" => pass::run(&pass::mem(), &work, secs, trace, oracle),
        "serve-hit" => serve_hit::run(&work, seed, secs, trace, oracle),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let Outcome {
        mut ledger,
        mut metrics,
        spans,
    } = outcome;
    if let Some(rec) = spans {
        let path = root.join(format!("spans-{}-seed{seed}.tsv", args.workload));
        match rec.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    match peak_rss_mb() {
        Some(mb) => metrics.set("peak_rss_mb", mb),
        None => ledger.fail("peak memory", "no VmHWM in /proc/self/status"),
    }
    let fail_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    metrics.set("fail_frac", fail_frac);
    if !trace {
        metrics.scale_to_nominal_host();
    }

    let listed: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let printed = if trace { &[][..] } else { &PRINTED_ONLY[..] };
    let mut json = Vec::new();
    let mut correct = ledger.failed == 0 && ledger.attempted > 0;
    for (name, unit) in listed
        .iter()
        .map(|(n, u)| (n.as_str(), *u))
        .chain(printed.iter().copied())
    {
        let value = match metrics.values.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        println!("{name:<32} {value:>16.6} {unit}");
        if !printed.iter().any(|(n, _)| *n == name) {
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
