//! Shard orchestration: a fault-tolerant process-pool driver for sharded
//! collection passes.
//!
//! Collection is shardable (`exec::ShardSpec`, one `.pbcol` shard file
//! per worker, `persist::merge_shard_files` reassembly), but without a
//! driver shards must be launched and babysat by hand — one
//! `PERFBUG_SHARD=<i>/<n>` invocation per terminal. This module is the
//! *driver* for that workflow:
//!
//! * the probe axis is partitioned into **more shards than workers** and
//!   fed through a work queue (not static assignment), so a slow or lost
//!   worker only delays its current shard, never a fixed fraction of the
//!   pass;
//! * shard workers run as **child processes** (re-invocations of the
//!   current binary with `PERFBUG_SHARD`-style arguments — see
//!   [`ProcessLauncher`] and the `pborch` binary in `crates/bench`);
//! * the supervisor monitors exit status, verifies each claimed success
//!   by decoding the shard file it should have produced (the shard file
//!   *is* the heartbeat — a worker that exits 0 without its file on disk
//!   failed), and enforces an optional per-shard timeout on hung workers;
//! * failed, hung or killed shards are **requeued onto surviving
//!   workers** with a bounded per-shard retry budget; a shard that
//!   exhausts its budget lands on the exclusion list and the run is
//!   reported as failed (never silently partial);
//! * the finished pass is assembled through
//!   [`load_or_assemble`](crate::persist::load_or_assemble), which
//!   streams the shard files through
//!   [`merge_shard_files`](crate::persist::merge_shard_files), so the
//!   result is bit-identical (wall-clock timings aside) to a
//!   single-process collection **for any schedule of worker losses** —
//!   shard workers write atomically (temp file + rename, see
//!   `docs/FORMAT.md`), so a killed worker can never leave a partial
//!   `.pbcol` visible to assembly;
//! * every run emits a machine-readable JSON **run report** (per-shard
//!   attempts, outcomes, worker assignments, timings) next to the cache
//!   file; `pbcol inspect` prints it as shard-attempt provenance.
//!
//! Supervision is deliberately split from process management: the state
//! machine ([`run_orchestrator`]) drives any [`Launcher`], and the unit
//! and property suites script launchers with deterministic failures,
//! while production uses [`ProcessLauncher`] over `std::process`.
//!
//! # Fault injection
//!
//! `PERFBUG_ORCH_FAULT=<op>:<shard>[@<attempt>][,...]` ([`Fault`]) faults
//! the named shard's worker on the named attempt (default: first). The
//! supervisor fires `kill` itself, right after launch. `killmid` and
//! `torn` travel with the launch to the worker ([`WorkerFault`]), which
//! stops itself mid-shard and exits with [`FAULT_EXIT_CODE`]. CI's
//! orchestrate, torn-write and service guards use this to prove, on every
//! push, that losing a worker mid-pass still converges to the
//! bit-identical corpus.

pub mod remote;

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use crate::exec::ShardSpec;
use crate::experiment::Collection;
use crate::persist::{
    self, cache_file_name, shard_file_name, CacheStatus, ExperimentKind, PersistError,
    ShardManifest, WriteFault,
};
use crate::report::json_str;

/// Environment variable holding injected orchestrator faults.
pub const FAULT_ENV: &str = "PERFBUG_ORCH_FAULT";

/// Exit code a worker reserves for "stopped by its injected mid-write
/// fault". The supervisor labels an attempt `fault-killed` only when the
/// attempt carried such a fault and exited with exactly this code.
pub const FAULT_EXIT_CODE: i32 = 86;

/// Extension of the JSON run report written beside the cache file
/// (`<prefix>-<kind>-<fingerprint>.orchrun.json`).
pub const REPORT_EXTENSION: &str = "orchrun.json";

/// The run-report path belonging to a full cache file path.
pub fn report_path_for(cache_file: &Path) -> PathBuf {
    cache_file.with_extension(REPORT_EXTENSION)
}

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

/// An injected fault, parsed from [`FAULT_ENV`]: `kill`, `killmid` or
/// `torn` on one attempt of one shard. The supervisor fires `kill`. The
/// write-sensitive faults are fired by the worker that writes the chunks,
/// the one component that sees them become durable: the worker gets only
/// its own fault, as an argument ([`Launcher::launch`]); the env var is
/// still stripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Shard whose worker is faulted.
    pub shard: usize,
    /// Attempt (0-based) on which the fault fires.
    pub attempt: u32,
    /// The fault the worker fires on itself; `None` for `kill`, which the
    /// supervisor fires right after launch, simulating worker loss (OOM
    /// kill, host failure, operator ctrl-C).
    pub worker: Option<WorkerFault>,
}

impl Fault {
    /// Parses a comma-separated fault list: `<op>:<shard>` (first
    /// attempt) or `<op>:<shard>@<attempt>`, with ops `kill`, `killmid`
    /// and `torn`.
    pub fn parse_list(raw: &str) -> Result<Vec<Fault>, String> {
        let mut faults = Vec::new();
        for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (op, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault {part:?} is not <op>:<shard>[@<attempt>]"))?;
            let (shard, attempt) = match rest.split_once('@') {
                Some((s, a)) => (
                    s,
                    a.parse().map_err(|_| format!("bad attempt in {part:?}"))?,
                ),
                None => (rest, 0),
            };
            let shard = shard
                .parse()
                .map_err(|_| format!("bad shard index in {part:?}"))?;
            let worker = match op {
                "kill" => None,
                _ => Some(WorkerFault::parse(op).ok_or_else(|| {
                    format!("unknown fault op {op:?} (supported: kill, killmid, torn)")
                })?),
            };
            faults.push(Fault {
                shard,
                attempt,
                worker,
            });
        }
        Ok(faults)
    }

    /// Whether this fault targets the given (shard, attempt).
    pub fn matches(&self, shard: usize, attempt: u32) -> bool {
        (self.shard, self.attempt) == (shard, attempt)
    }

    /// Checks that this fault can fire on a pass of `shards` shards over
    /// `probes` probes with `max_attempts` attempts per shard.
    pub fn check(&self, shards: usize, max_attempts: u32, probes: usize) -> Result<(), FaultError> {
        let fault = *self;
        if self.shard >= shards {
            return Err(FaultError::NoSuchShard { fault, shards });
        }
        if self.attempt >= max_attempts {
            return Err(FaultError::NoSuchAttempt {
                fault,
                max_attempts,
            });
        }
        let held = ShardManifest::of(ShardSpec::new(self.shard, shards), probes).probes();
        match self.worker.map(|w| w.write_fault().chunks) {
            Some(chunks) if held < chunks => Err(FaultError::ShardTooSmall {
                fault,
                probes: held,
                chunks,
            }),
            _ => Ok(()),
        }
    }

    /// Reads [`FAULT_ENV`]; empty when unset.
    ///
    /// A malformed value is an error the caller must surface — a typo'd
    /// fault must not silently run a fault-free pass that then looks
    /// like a passing guard.
    pub fn from_env() -> Result<Vec<Fault>, String> {
        match std::env::var(FAULT_ENV) {
            Ok(raw) => Self::parse_list(&raw)
                .map_err(|e| format!("{FAULT_ENV} must be <op>:<shard>[@<attempt>],...: {e}")),
            Err(_) => Ok(Vec::new()),
        }
    }
}

impl fmt::Display for Fault {
    /// The [`FAULT_ENV`] spelling, attempt included.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = self.worker.map_or("kill", WorkerFault::as_str);
        write!(f, "{op}:{}@{}", self.shard, self.attempt)
    }
}

/// A fault the worker fires on itself, as it receives it: the internal
/// `--fault killmid|torn` argument of the `worker` subcommand, or the
/// fault field of a remote launch frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// `killmid`: stop the worker *mid-shard*. Right after its first
    /// durable probe chunk it exits with [`FAULT_EXIT_CODE`], and the
    /// retry resumes that probe instead of re-collecting it.
    KillMid,
    /// `torn`: `killmid` one chunk later, after a tear. Right after its
    /// second durable chunk the worker cuts that chunk's checksum off its
    /// part file, then exits. Recovery must truncate a *torn* chunk — not
    /// just pick up a cleanly cut prefix — and resumes the first probe.
    Torn,
}

impl WorkerFault {
    /// The op's spelling, on the command line and in [`FAULT_ENV`].
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerFault::KillMid => "killmid",
            WorkerFault::Torn => "torn",
        }
    }

    /// Parses [`as_str`](Self::as_str)'s spelling.
    pub fn parse(raw: &str) -> Option<Self> {
        [WorkerFault::KillMid, WorkerFault::Torn]
            .into_iter()
            .find(|f| f.as_str() == raw)
    }

    /// The shard-writer hook this fault arms.
    pub fn write_fault(self) -> WriteFault {
        match self {
            WorkerFault::KillMid => WriteFault {
                chunks: 1,
                tear: false,
            },
            WorkerFault::Torn => WriteFault {
                chunks: 2,
                tear: true,
            },
        }
    }
}

/// Why an injected [`Fault`] can never fire on a pass. Such a fault is
/// rejected before anything launches, so a guard cannot pass as a clean
/// run of a fault that never fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The fault names a shard the pass does not have.
    NoSuchShard {
        /// The fault.
        fault: Fault,
        /// Shard count of the pass.
        shards: usize,
    },
    /// The fault names an attempt beyond the per-shard budget.
    NoSuchAttempt {
        /// The fault.
        fault: Fault,
        /// Per-shard attempt budget of the pass.
        max_attempts: u32,
    },
    /// A mid-write fault's shard holds fewer probes than the durable
    /// chunks its worker waits for.
    ShardTooSmall {
        /// The fault.
        fault: Fault,
        /// Probes the shard holds.
        probes: u64,
        /// Durable chunks the fault waits for.
        chunks: u64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoSuchShard { fault, shards } => {
                write!(f, "fault {fault} cannot fire: the pass has {shards} shards")
            }
            FaultError::NoSuchAttempt {
                fault,
                max_attempts,
            } => write!(
                f,
                "fault {fault} cannot fire: each shard gets {max_attempts} attempts"
            ),
            FaultError::ShardTooSmall {
                fault,
                probes,
                chunks,
            } => write!(
                f,
                "fault {fault} cannot fire: it waits for {chunks} durable probe chunks, \
                 but its shard holds {probes} probes"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

// --------------------------------------------------------------------------
// Configuration
// --------------------------------------------------------------------------

/// Supervision parameters of one orchestrated pass.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Concurrent worker processes (pool size).
    pub workers: usize,
    /// Shard count the probe axis is split into. Should exceed `workers`
    /// (work queue, not static assignment) so requeued shards land on
    /// surviving workers instead of serialising the tail.
    pub shards: usize,
    /// Per-shard attempt budget (>= 1). A shard failing this many times
    /// is excluded and the run reports failure.
    pub max_attempts: u32,
    /// Optional per-shard wall-clock timeout; a worker exceeding it is
    /// killed and its shard requeued.
    pub shard_timeout: Option<Duration>,
    /// Supervisor poll interval.
    pub poll_interval: Duration,
    /// Minimum delay before a failed shard's next attempt launches, so a
    /// transient condition (spawn pressure, a filesystem hiccup) cannot
    /// burn the whole retry budget within its own few milliseconds.
    pub retry_delay: Duration,
    /// Injected faults (see [`Fault`]); empty in production.
    pub faults: Vec<Fault>,
}

impl OrchestratorConfig {
    /// A configuration with `workers` workers over `shards` shards and
    /// default supervision knobs (3 attempts, no timeout, 20 ms poll,
    /// 100 ms retry delay, no faults).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `shards` is zero.
    pub fn new(workers: usize, shards: usize) -> Self {
        assert!(workers >= 1, "orchestrator needs at least one worker");
        assert!(shards >= 1, "orchestrator needs at least one shard");
        OrchestratorConfig {
            workers,
            shards,
            max_attempts: 3,
            shard_timeout: None,
            poll_interval: Duration::from_millis(20),
            retry_delay: Duration::from_millis(100),
            faults: Vec::new(),
        }
    }
}

// --------------------------------------------------------------------------
// Worker abstraction
// --------------------------------------------------------------------------

/// How a finished worker exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Clean zero exit.
    Success,
    /// Nonzero exit, or termination by signal (`code: None`).
    Failure {
        /// The process exit code, when one exists.
        code: Option<i32>,
    },
}

/// A launched worker the supervisor can poll and kill.
pub trait WorkerHandle {
    /// Non-blocking completion check: `Ok(None)` while running.
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>>;

    /// Terminates the worker and reaps it. Killing an already-finished
    /// worker is a no-op.
    fn kill(&mut self);
}

/// Launches shard workers and verifies their output. Implementations are
/// the seam between the supervision state machine and the outside world:
/// production launches child processes ([`ProcessLauncher`]), tests script
/// deterministic outcomes.
pub trait Launcher {
    /// Handle type of launched workers.
    type Handle: WorkerHandle;

    /// Starts a worker for `shard` (attempt `attempt`, pool slot
    /// `worker`). `fault` is the mid-write fault the worker fires on
    /// itself, when the attempt carries one.
    fn launch(
        &mut self,
        shard: ShardSpec,
        attempt: u32,
        worker: usize,
        fault: Option<WorkerFault>,
    ) -> io::Result<Self::Handle>;

    /// Confirms a zero-exit worker actually produced its shard — for
    /// collection workers, that the shard file exists and decodes. The
    /// error message names what was wrong.
    fn verify(&mut self, shard: ShardSpec) -> Result<(), String>;

    /// How many probes of `shard` are already durable in its part file
    /// ([`CollectPlan::durable_probes`]), sampled once before a retry
    /// launches for the report's `resumed_probes` accounting. `None` when
    /// the launcher cannot tell — the default for launchers without
    /// access to the collection plan.
    fn durable_probes(&mut self, _shard: ShardSpec) -> Option<u64> {
        None
    }
}

/// [`Launcher`] over real child processes.
///
/// `build` constructs the `Command` re-invoking the current binary (or
/// any worker binary) with the shard's arguments and its mid-write fault;
/// `verify` typically decodes the shard file the worker should have
/// written. When `plan` is set, the launcher reads a retry's part file
/// for the `resumed_probes` accounting in the run report.
pub struct ProcessLauncher<B, V> {
    /// Builds the worker command for a (shard, attempt, fault).
    pub build: B,
    /// Post-exit output verification.
    pub verify: V,
    /// The collection plan whose part files this launcher may read;
    /// `None` leaves resume unreported.
    pub plan: Option<CollectPlan>,
}

impl<B, V> Launcher for ProcessLauncher<B, V>
where
    B: FnMut(ShardSpec, u32, Option<WorkerFault>) -> Command,
    V: FnMut(ShardSpec) -> Result<(), String>,
{
    type Handle = ChildHandle;

    fn launch(
        &mut self,
        shard: ShardSpec,
        attempt: u32,
        _worker: usize,
        fault: Option<WorkerFault>,
    ) -> io::Result<ChildHandle> {
        (self.build)(shard, attempt, fault).spawn().map(ChildHandle)
    }

    fn verify(&mut self, shard: ShardSpec) -> Result<(), String> {
        (self.verify)(shard)
    }

    fn durable_probes(&mut self, shard: ShardSpec) -> Option<u64> {
        Some(self.plan.as_ref()?.durable_probes(shard))
    }
}

/// [`WorkerHandle`] over a spawned [`Child`].
pub struct ChildHandle(Child);

impl WorkerHandle for ChildHandle {
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
        Ok(self.0.try_wait()?.map(|status| {
            if status.success() {
                ExitKind::Success
            } else {
                ExitKind::Failure {
                    code: status.code(),
                }
            }
        }))
    }

    fn kill(&mut self) {
        // Kill can race a natural exit; either way the child must be
        // reaped so no zombie outlives the supervisor.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

// --------------------------------------------------------------------------
// Run report
// --------------------------------------------------------------------------

/// How one launch of one shard ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Zero exit and the shard file verified.
    Success,
    /// Nonzero exit or death by signal.
    Exit {
        /// Worker exit code, `None` for signal deaths.
        code: Option<i32>,
    },
    /// Zero exit but the shard's output was missing or undecodable.
    BadOutput {
        /// What the verification found.
        why: String,
    },
    /// Exceeded the per-shard timeout and was killed.
    TimedOut,
    /// Killed by an injected [`Fault`].
    FaultKilled,
    /// The worker process could not be spawned at all.
    SpawnFailed {
        /// The spawn error.
        why: String,
    },
    /// Polling the worker failed; its state is unknown.
    WaitFailed {
        /// The wait error.
        why: String,
    },
}

impl AttemptOutcome {
    /// Whether the attempt completed its shard.
    pub fn is_success(&self) -> bool {
        matches!(self, AttemptOutcome::Success)
    }

    /// Stable machine-readable label used in the JSON report.
    pub fn label(&self) -> &'static str {
        match self {
            AttemptOutcome::Success => "success",
            AttemptOutcome::Exit { .. } => "exit",
            AttemptOutcome::BadOutput { .. } => "bad-output",
            AttemptOutcome::TimedOut => "timed-out",
            AttemptOutcome::FaultKilled => "fault-killed",
            AttemptOutcome::SpawnFailed { .. } => "spawn-failed",
            AttemptOutcome::WaitFailed { .. } => "wait-failed",
        }
    }

    /// Free-form detail (exit code / error message), when any.
    fn detail(&self) -> Option<String> {
        match self {
            AttemptOutcome::Exit { code: Some(c) } => Some(format!("exit code {c}")),
            AttemptOutcome::Exit { code: None } => Some("killed by signal".into()),
            AttemptOutcome::BadOutput { why }
            | AttemptOutcome::SpawnFailed { why }
            | AttemptOutcome::WaitFailed { why } => Some(why.clone()),
            _ => None,
        }
    }
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.detail() {
            Some(detail) => write!(f, "{} ({detail})", self.label()),
            None => f.write_str(self.label()),
        }
    }
}

/// One supervised launch: which shard, which attempt, which pool slot,
/// how it ended and how long it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAttempt {
    /// Shard index.
    pub shard: usize,
    /// 0-based attempt number for this shard.
    pub attempt: u32,
    /// Pool slot (worker id) the attempt ran on.
    pub worker: usize,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock duration of the attempt.
    pub duration: Duration,
    /// Probes already durable in the shard's part file when this attempt
    /// launched — the crash-recovery prefix a resuming worker skips.
    /// `None` when the launcher cannot inspect part files
    /// ([`Launcher::durable_probes`]).
    pub resumed_probes: Option<u64>,
}

/// Everything one orchestrated pass did, in launch order — the
/// machine-readable provenance of the assembled corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Shard count of the pass.
    pub shards: usize,
    /// Worker pool size.
    pub workers: usize,
    /// Per-shard attempt budget.
    pub max_attempts: u32,
    /// Every supervised launch, in launch order.
    pub attempts: Vec<ShardAttempt>,
    /// Shards that exhausted their budget (empty on success).
    pub excluded: Vec<usize>,
    /// Whether every shard completed.
    pub success: bool,
    /// Wall-clock time of the whole pass.
    pub wall_time: Duration,
}

impl RunReport {
    /// The report of a pass that found the corpus already cached and
    /// launched nothing.
    pub fn already_cached(config: &OrchestratorConfig) -> Self {
        RunReport {
            shards: config.shards,
            workers: config.workers,
            max_attempts: config.max_attempts,
            attempts: Vec::new(),
            excluded: Vec::new(),
            success: true,
            wall_time: Duration::ZERO,
        }
    }

    /// The attempts made for one shard, in attempt order.
    pub fn attempts_for(&self, shard: usize) -> Vec<&ShardAttempt> {
        self.attempts.iter().filter(|a| a.shard == shard).collect()
    }

    /// Serialises the report as JSON under the identity of the pass it
    /// supervised (schema documented in `docs/ARCHITECTURE.md`).
    pub fn to_json(&self, prefix: &str, kind: ExperimentKind, fingerprint: u64) -> String {
        let mut out = String::with_capacity(256 + 128 * self.attempts.len());
        out.push_str("{\n");
        out.push_str("  \"report_version\": 1,\n");
        out.push_str(&format!("  \"prefix\": {},\n", json_str(prefix)));
        out.push_str(&format!("  \"kind\": {},\n", json_str(kind.as_str())));
        out.push_str(&format!("  \"fingerprint\": \"{fingerprint:016x}\",\n"));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"max_attempts\": {},\n", self.max_attempts));
        out.push_str(&format!("  \"success\": {},\n", self.success));
        out.push_str(&format!(
            "  \"excluded_shards\": [{}],\n",
            self.excluded
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"wall_time_secs\": {:.6},\n",
            self.wall_time.as_secs_f64()
        ));
        out.push_str("  \"attempts\": [\n");
        for (i, a) in self.attempts.iter().enumerate() {
            let mut detail = match a.outcome.detail() {
                Some(d) => format!(", \"detail\": {}", json_str(&d)),
                None => String::new(),
            };
            if let Some(resumed) = a.resumed_probes {
                detail.push_str(&format!(", \"resumed_probes\": {resumed}"));
            }
            out.push_str(&format!(
                "    {{\"shard\": {}, \"attempt\": {}, \"worker\": {}, \"outcome\": {}, \
                 \"duration_secs\": {:.6}{detail}}}{}\n",
                a.shard,
                a.attempt,
                a.worker,
                json_str(a.outcome.label()),
                a.duration.as_secs_f64(),
                if i + 1 < self.attempts.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A short human-readable summary (one line per shard with retries,
    /// plus totals).
    pub fn summary(&self) -> String {
        let retried = (0..self.shards)
            .filter(|&s| self.attempts_for(s).len() > 1)
            .count();
        format!(
            "{} shards on {} workers: {} attempts total, {} shard(s) retried, {} excluded, {}",
            self.shards,
            self.workers,
            self.attempts.len(),
            retried,
            self.excluded.len(),
            if self.success { "success" } else { "FAILED" }
        )
    }
}

// --------------------------------------------------------------------------
// The supervision state machine
// --------------------------------------------------------------------------

/// One occupied pool slot.
struct Running<H> {
    shard: usize,
    attempt: u32,
    handle: H,
    started: Instant,
    /// The injected fault this attempt carries: the supervisor fires a
    /// `kill` at once; a worker that fired its own fault exits with
    /// [`FAULT_EXIT_CODE`].
    fault: Option<Fault>,
    /// Durable part-file probes observed at launch (report accounting).
    resumed_probes: Option<u64>,
}

/// One queued (shard, attempt), optionally held back until `not_before`
/// (retries are delayed by [`OrchestratorConfig::retry_delay`]).
struct QueueItem {
    shard: usize,
    attempt: u32,
    not_before: Option<Instant>,
}

impl QueueItem {
    fn ready(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }
}

/// Work queue plus retry/exclusion bookkeeping.
struct WorkState {
    queue: VecDeque<QueueItem>,
    done: Vec<bool>,
    excluded: Vec<usize>,
    attempts: Vec<ShardAttempt>,
    max_attempts: u32,
    retry_delay: Duration,
}

impl WorkState {
    /// Records one ended attempt. A failed one requeues its shard (budget
    /// permitting, after the retry delay) or excludes it.
    fn record(&mut self, ended: ShardAttempt) {
        let (shard, next) = (ended.shard, ended.attempt + 1);
        if ended.outcome.is_success() {
            // pblint: allow(slice-index) -- `done` is sized to config.shards and
            // every shard id comes from the 0..shards queue; .get_mut would hide
            // a supervisor bookkeeping bug instead of surfacing it in tests.
            self.done[shard] = true;
        } else if next < self.max_attempts {
            self.queue.push_back(QueueItem {
                shard,
                attempt: next,
                not_before: Some(Instant::now() + self.retry_delay),
            });
        } else {
            self.excluded.push(shard);
        }
        self.attempts.push(ended);
    }
}

/// Runs one orchestrated pass: feeds the shard queue to the worker pool,
/// supervises exits/timeouts/faults, retries within the budget, and
/// returns the full report. Pure supervision — assembly and persistence
/// are the caller's ([`orchestrate_collection`]'s) job.
pub fn run_orchestrator<L: Launcher>(config: &OrchestratorConfig, launcher: &mut L) -> RunReport {
    assert!(config.workers >= 1 && config.shards >= 1);
    assert!(
        config.max_attempts >= 1,
        "attempt budget must be at least 1"
    );
    let t0 = Instant::now();
    let mut state = WorkState {
        queue: (0..config.shards)
            .map(|shard| QueueItem {
                shard,
                attempt: 0,
                not_before: None,
            })
            .collect(),
        done: vec![false; config.shards],
        excluded: Vec::new(),
        attempts: Vec::new(),
        max_attempts: config.max_attempts,
        retry_delay: config.retry_delay,
    };
    let mut slots: Vec<Option<Running<L::Handle>>> = (0..config.workers).map(|_| None).collect();

    loop {
        let mut progressed = false;

        // Fill idle slots from the queue (skipping retries still inside
        // their delay window — they stay queued until ready).
        for (w, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let now = Instant::now();
            let Some(pos) = state.queue.iter().position(|item| item.ready(now)) else {
                break;
            };
            let Some(QueueItem { shard, attempt, .. }) = state.queue.remove(pos) else {
                break;
            };
            let spec = ShardSpec::new(shard, config.shards);
            // Sample the durable part-file prefix *before* the worker
            // launches: exactly what a resuming attempt will skip.
            let resumed_probes = if attempt > 0 {
                launcher.durable_probes(spec)
            } else {
                None
            };
            let fault = config
                .faults
                .iter()
                .copied()
                .find(|f| f.matches(shard, attempt));
            match launcher.launch(spec, attempt, w, fault.and_then(|f| f.worker)) {
                Ok(handle) => {
                    *slot = Some(Running {
                        shard,
                        attempt,
                        handle,
                        started: Instant::now(),
                        fault,
                        resumed_probes,
                    });
                }
                Err(e) => state.record(ShardAttempt {
                    shard,
                    attempt,
                    worker: w,
                    outcome: AttemptOutcome::SpawnFailed { why: e.to_string() },
                    duration: Duration::ZERO,
                    resumed_probes,
                }),
            }
            progressed = true;
        }

        // Supervise occupied slots: an attempt either keeps running or
        // ends here with its outcome.
        for (w, slot) in slots.iter_mut().enumerate() {
            let Some(run) = slot.as_mut() else { continue };
            let duration = run.started.elapsed();
            let outcome = if let Some(Fault { worker: None, .. }) = run.fault {
                // `kill` fires the moment the supervisor observes the attempt.
                run.handle.kill();
                AttemptOutcome::FaultKilled
            } else {
                match run.handle.try_finish() {
                    Ok(Some(ExitKind::Success)) => {
                        match launcher.verify(ShardSpec::new(run.shard, config.shards)) {
                            Ok(()) => AttemptOutcome::Success,
                            Err(why) => AttemptOutcome::BadOutput { why },
                        }
                    }
                    // A worker that fired its mid-write fault exits with the
                    // reserved code; from any other worker it is an exit.
                    Ok(Some(ExitKind::Failure {
                        code: Some(FAULT_EXIT_CODE),
                    })) if run.fault.is_some() => AttemptOutcome::FaultKilled,
                    Ok(Some(ExitKind::Failure { code })) => AttemptOutcome::Exit { code },
                    Ok(None) if config.shard_timeout.is_some_and(|limit| duration >= limit) => {
                        run.handle.kill();
                        AttemptOutcome::TimedOut
                    }
                    Ok(None) => continue,
                    Err(e) => {
                        run.handle.kill();
                        AttemptOutcome::WaitFailed { why: e.to_string() }
                    }
                }
            };
            state.record(ShardAttempt {
                shard: run.shard,
                attempt: run.attempt,
                worker: w,
                outcome,
                duration,
                resumed_probes: run.resumed_probes,
            });
            *slot = None;
            progressed = true;
        }

        if state.queue.is_empty() && slots.iter().all(Option::is_none) {
            break;
        }
        if !progressed {
            std::thread::sleep(config.poll_interval);
        }
    }

    let success = state.done.iter().all(|&d| d);
    state.excluded.sort_unstable();
    state.excluded.dedup();
    RunReport {
        shards: config.shards,
        workers: config.workers,
        max_attempts: config.max_attempts,
        attempts: state.attempts,
        excluded: state.excluded,
        success,
        wall_time: t0.elapsed(),
    }
}

// --------------------------------------------------------------------------
// Collection front door
// --------------------------------------------------------------------------

/// Identity of the collection pass an orchestrator drives: where shard
/// and cache files live and what they are named/fingerprinted as.
#[derive(Debug, Clone)]
pub struct CollectPlan {
    /// Cache directory shard and full files live in.
    pub dir: PathBuf,
    /// Cache file prefix (e.g. the bench target name).
    pub prefix: String,
    /// Experiment kind of the pass.
    pub kind: ExperimentKind,
    /// Config fingerprint of the pass.
    pub fingerprint: u64,
}

impl CollectPlan {
    /// Path of the full cache file this plan assembles into.
    pub fn full_path(&self) -> PathBuf {
        self.dir
            .join(cache_file_name(&self.prefix, self.kind, self.fingerprint))
    }

    /// Path of one shard file of this plan.
    pub fn shard_path(&self, shard: ShardSpec) -> PathBuf {
        self.dir.join(shard_file_name(
            &self.prefix,
            self.kind,
            self.fingerprint,
            shard.index,
            shard.count,
        ))
    }

    /// Path of one shard's resumable part file (the in-progress sibling a
    /// crashed worker leaves behind; see `persist::part_path_for`).
    pub fn part_path(&self, shard: ShardSpec) -> PathBuf {
        persist::part_path_for(&self.shard_path(shard))
    }

    /// Probes durable in one shard's part file: the prefix a resuming
    /// worker skips. A missing or unscannable part (say, one whose header
    /// is still mid-write) holds none.
    pub fn durable_probes(&self, shard: ShardSpec) -> u64 {
        persist::scan_part_file(&self.part_path(shard)).map_or(0, |prefix| prefix.probes)
    }
}

/// A finished orchestrated collection.
#[derive(Debug)]
pub struct OrchestratedRun {
    /// The assembled (or replayed) full collection.
    pub collection: Collection,
    /// How the collection was obtained (`Replayed` when the full file
    /// already existed, `Assembled` after a worker pass).
    pub status: CacheStatus,
    /// Supervision provenance.
    pub report: RunReport,
    /// Where the JSON report was written.
    pub report_path: PathBuf,
}

/// Why an orchestrated collection failed.
#[derive(Debug)]
pub enum OrchestrateError {
    /// A persistence error (stale/corrupt cache, unwritable directory,
    /// failed assembly).
    Persist(PersistError),
    /// One or more shards exhausted their attempt budget; the report
    /// names them and their attempts.
    Incomplete(Box<RunReport>),
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Persist(e) => write!(f, "persistence: {e}"),
            OrchestrateError::Incomplete(report) => write!(
                f,
                "shards {:?} exhausted their {}-attempt budget ({})",
                report.excluded,
                report.max_attempts,
                report.summary()
            ),
        }
    }
}

impl std::error::Error for OrchestrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestrateError::Persist(e) => Some(e),
            OrchestrateError::Incomplete(_) => None,
        }
    }
}

impl From<PersistError> for OrchestrateError {
    fn from(e: PersistError) -> Self {
        OrchestrateError::Persist(e)
    }
}

/// Verifies one shard file of `plan`: present, intact, and holding what
/// its name says — shard `shard` of the plan's fingerprint, by the one
/// cache-file identity rule (`persist::check_file_name`). This is the
/// orchestrator's success check for a zero-exit worker. It runs
/// [`persist::verify_stream`], so every chunk and the whole-file checksum
/// are checked in O(chunk) memory — the same walk the assembly step's
/// merge repeats before it publishes.
pub fn verify_shard_file(plan: &CollectPlan, shard: ShardSpec) -> Result<(), String> {
    let path = plan.shard_path(shard);
    match persist::verify_stream(&path, None, |_| {}) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("shard file {}: {e}", path.display())),
    }
}

/// Orchestrates a full collection pass end to end:
///
/// 1. replay the full cache file if it (or a complete shard set) already
///    exists — nothing is launched;
/// 2. otherwise run the worker pool over the shard queue
///    ([`run_orchestrator`]) with `worker_command` building each child's
///    `Command` (its arguments include the attempt's [`WorkerFault`]),
///    verifying every claimed success by decoding its shard
///    file;
/// 3. write the JSON run report beside the cache file (always, also on
///    failure);
/// 4. assemble the full collection through the shard-merge path and save
///    it.
///
/// The assembled corpus is bit-identical (wall-clock timings aside) to a
/// single-process collection regardless of how many attempts died along
/// the way, because shard files are written atomically and every retry
/// recomputes a deterministic shard.
pub fn orchestrate_collection<B>(
    plan: &CollectPlan,
    config: &OrchestratorConfig,
    worker_command: B,
) -> Result<OrchestratedRun, OrchestrateError>
where
    B: FnMut(ShardSpec, u32, Option<WorkerFault>) -> Command,
{
    let mut launcher = ProcessLauncher {
        build: worker_command,
        verify: |shard| verify_shard_file(plan, shard),
        plan: Some(plan.clone()),
    };
    orchestrate_collection_with(plan, config, &mut launcher)
}

/// [`orchestrate_collection`] over any [`Launcher`] — the seam the
/// distributed path ([`remote::RemoteLauncher`]) plugs into: same
/// replay-first short circuit, same report, same shard-merge assembly,
/// only the transport that starts workers differs.
pub fn orchestrate_collection_with<L: Launcher>(
    plan: &CollectPlan,
    config: &OrchestratorConfig,
    launcher: &mut L,
) -> Result<OrchestratedRun, OrchestrateError> {
    std::fs::create_dir_all(&plan.dir).map_err(PersistError::from)?;
    let full = plan.full_path();
    let report_path = report_path_for(&full);
    if let Some((collection, status)) =
        persist::load_or_assemble(&full, plan.kind, plan.fingerprint)?
    {
        return Ok(OrchestratedRun {
            collection,
            status,
            report: RunReport::already_cached(config),
            report_path,
        });
    }

    let report = run_orchestrator(config, launcher);
    std::fs::write(
        &report_path,
        report.to_json(&plan.prefix, plan.kind, plan.fingerprint),
    )
    .map_err(PersistError::from)?;
    if !report.success {
        return Err(OrchestrateError::Incomplete(Box::new(report)));
    }
    match persist::load_or_assemble(&full, plan.kind, plan.fingerprint)? {
        Some((collection, status)) => Ok(OrchestratedRun {
            collection,
            status,
            report,
            report_path,
        }),
        // Every shard verified yet no complete set merged: something
        // outside this pass removed files; surface it loudly.
        None => Err(OrchestrateError::Persist(PersistError::Shard(
            "orchestrated pass finished but no complete shard set was found to assemble".into(),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Scripted behaviour of one (shard, attempt).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum FakeRun {
        /// Exits 0 and verification passes.
        Ok,
        /// Exits with the given code.
        Exit(i32),
        /// Never finishes (until killed by timeout or fault).
        Hang,
        /// Exits 0 but verification fails (no output).
        NoOutput,
        /// The wait itself errors (e.g. the worker's pidfd went away).
        WaitErr,
    }

    struct FakeHandle {
        run: FakeRun,
    }

    impl WorkerHandle for FakeHandle {
        fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
            Ok(match self.run {
                FakeRun::Ok | FakeRun::NoOutput => Some(ExitKind::Success),
                FakeRun::Exit(code) => Some(ExitKind::Failure { code: Some(code) }),
                FakeRun::Hang => None,
                FakeRun::WaitErr => return Err(io::Error::other("wait syscall failed")),
            })
        }

        fn kill(&mut self) {}
    }

    /// Launcher scripted per (shard, attempt); unscripted pairs succeed.
    struct FakeLauncher {
        script: HashMap<(usize, u32), FakeRun>,
        /// Last launched run per shard, consulted by verify.
        last: HashMap<usize, FakeRun>,
        /// (shard, attempt, worker, fault) launch log.
        launches: Vec<(usize, u32, usize, Option<WorkerFault>)>,
        /// Scripted part-file visibility: what `durable_probes` reports.
        durable: Option<u64>,
    }

    impl FakeLauncher {
        fn new(script: &[((usize, u32), FakeRun)]) -> Self {
            FakeLauncher {
                script: script.iter().copied().collect(),
                last: HashMap::new(),
                launches: Vec::new(),
                durable: None,
            }
        }
    }

    impl Launcher for FakeLauncher {
        type Handle = FakeHandle;

        fn launch(
            &mut self,
            shard: ShardSpec,
            attempt: u32,
            worker: usize,
            fault: Option<WorkerFault>,
        ) -> io::Result<FakeHandle> {
            let run = self
                .script
                .get(&(shard.index, attempt))
                .copied()
                .unwrap_or(FakeRun::Ok);
            self.last.insert(shard.index, run);
            self.launches.push((shard.index, attempt, worker, fault));
            Ok(FakeHandle { run })
        }

        fn verify(&mut self, shard: ShardSpec) -> Result<(), String> {
            match self.last.get(&shard.index) {
                Some(FakeRun::NoOutput) => Err("no shard file".into()),
                _ => Ok(()),
            }
        }

        fn durable_probes(&mut self, _shard: ShardSpec) -> Option<u64> {
            self.durable
        }
    }

    fn quick_config(workers: usize, shards: usize) -> OrchestratorConfig {
        let mut config = OrchestratorConfig::new(workers, shards);
        config.poll_interval = Duration::from_millis(1);
        config.retry_delay = Duration::from_millis(1);
        config
    }

    #[test]
    fn clean_pass_runs_every_shard_once() {
        let config = quick_config(3, 7);
        let mut launcher = FakeLauncher::new(&[]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        assert!(report.excluded.is_empty());
        assert_eq!(report.attempts.len(), 7);
        let mut shards: Vec<usize> = report.attempts.iter().map(|a| a.shard).collect();
        shards.sort_unstable();
        assert_eq!(shards, (0..7).collect::<Vec<_>>());
        assert!(report.attempts.iter().all(|a| a.outcome.is_success()));
    }

    #[test]
    fn failed_shard_is_requeued_and_recovers() {
        let config = quick_config(2, 4);
        let mut launcher = FakeLauncher::new(&[((1, 0), FakeRun::Exit(3))]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        let attempts = report.attempts_for(1);
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].outcome, AttemptOutcome::Exit { code: Some(3) });
        assert!(attempts[1].outcome.is_success());
    }

    #[test]
    fn retries_are_bounded_and_shard_excluded() {
        let mut config = quick_config(2, 3);
        config.max_attempts = 3;
        let mut launcher = FakeLauncher::new(&[
            ((2, 0), FakeRun::Exit(1)),
            ((2, 1), FakeRun::Exit(1)),
            ((2, 2), FakeRun::Exit(1)),
            // Never consulted: the budget is exhausted after attempt 2.
            ((2, 3), FakeRun::Ok),
        ]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(!report.success);
        assert_eq!(report.excluded, vec![2]);
        assert_eq!(report.attempts_for(2).len(), 3);
        // The other shards still completed: the pass degrades, never
        // abandons surviving work.
        assert!(report
            .attempts_for(0)
            .iter()
            .any(|a| a.outcome.is_success()));
        assert!(report
            .attempts_for(1)
            .iter()
            .any(|a| a.outcome.is_success()));
    }

    #[test]
    fn poisoned_wait_reports_shard_failure_instead_of_aborting() {
        // A wait error on the worker handle (poisoned pidfd, EBADF, ...)
        // must surface as a WaitFailed attempt and burn through the
        // shard's budget — never panic the supervisor, never stall the
        // surviving shards.
        let mut config = quick_config(2, 3);
        config.max_attempts = 2;
        let mut launcher =
            FakeLauncher::new(&[((1, 0), FakeRun::WaitErr), ((1, 1), FakeRun::WaitErr)]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(!report.success);
        assert_eq!(report.excluded, vec![1]);
        let attempts = report.attempts_for(1);
        assert_eq!(attempts.len(), 2);
        assert!(attempts
            .iter()
            .all(|a| matches!(a.outcome, AttemptOutcome::WaitFailed { .. })));
        assert!(attempts.iter().all(|a| a.outcome.detail().is_some()));
        for ok in [0, 2] {
            assert!(report
                .attempts_for(ok)
                .iter()
                .any(|a| a.outcome.is_success()));
        }
    }

    #[test]
    fn zero_exit_without_output_is_a_failure() {
        let config = quick_config(1, 2);
        let mut launcher = FakeLauncher::new(&[((0, 0), FakeRun::NoOutput)]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        let attempts = report.attempts_for(0);
        assert_eq!(attempts.len(), 2);
        assert!(matches!(
            attempts[0].outcome,
            AttemptOutcome::BadOutput { .. }
        ));
    }

    #[test]
    fn hung_worker_times_out_and_shard_recovers() {
        let mut config = quick_config(2, 2);
        config.shard_timeout = Some(Duration::from_millis(30));
        let mut launcher = FakeLauncher::new(&[((0, 0), FakeRun::Hang)]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        let attempts = report.attempts_for(0);
        assert_eq!(attempts[0].outcome, AttemptOutcome::TimedOut);
        assert!(attempts[1].outcome.is_success());
    }

    #[test]
    fn injected_fault_kills_first_attempt_only() {
        let mut config = quick_config(2, 4);
        config.faults = Fault::parse_list("kill:2").expect("fault");
        let mut launcher = FakeLauncher::new(&[]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        let attempts = report.attempts_for(2);
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].outcome, AttemptOutcome::FaultKilled);
        assert!(attempts[1].outcome.is_success());
        // Fault applies to shard 2 alone.
        for s in [0usize, 1, 3] {
            assert_eq!(report.attempts_for(s).len(), 1, "shard {s}");
        }
    }

    #[test]
    fn torn_fault_exit_is_fault_killed_and_retry_reports_resume() {
        let mut config = quick_config(2, 3);
        config.faults = Fault::parse_list("torn:1").expect("fault");
        let mut launcher = FakeLauncher::new(&[((1, 0), FakeRun::Exit(FAULT_EXIT_CODE))]);
        // The worker fired its torn fault; the launcher then sees 2
        // durable probes in shard 1's part file, which the retry records.
        launcher.durable = Some(2);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success, "{}", report.summary());
        let attempts = report.attempts_for(1);
        assert_eq!(attempts[0].outcome, AttemptOutcome::FaultKilled);
        assert_eq!(
            attempts[0].resumed_probes, None,
            "first attempt resumes nothing"
        );
        assert!(attempts[1].outcome.is_success());
        assert_eq!(attempts[1].resumed_probes, Some(2));
        let json = report.to_json("demo", ExperimentKind::Core, 7);
        assert!(
            json.contains("\"resumed_probes\": 2"),
            "resume accounting must land in the report JSON:\n{json}"
        );
    }

    #[test]
    fn mid_write_faults_reach_launch_and_only_their_exit_code_is_fault_killed() {
        let mut config = quick_config(2, 5);
        config.faults = Fault::parse_list("killmid:0,torn:1,kill:4").expect("fault");
        let mut launcher = FakeLauncher::new(&[
            ((0, 0), FakeRun::Exit(FAULT_EXIT_CODE)),
            // A faulted attempt that fails some other way did not fire.
            ((1, 0), FakeRun::Exit(3)),
            // The reserved code without a fault is an ordinary exit.
            ((2, 0), FakeRun::Exit(FAULT_EXIT_CODE)),
        ]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success, "{}", report.summary());
        let fault_of = |shard: usize, attempt: u32| {
            launcher
                .launches
                .iter()
                .find(|l| (l.0, l.1) == (shard, attempt))
                .expect("launched")
                .3
        };
        assert_eq!(fault_of(0, 0), Some(WorkerFault::KillMid));
        assert_eq!(fault_of(1, 0), Some(WorkerFault::Torn));
        assert_eq!(fault_of(0, 1), None, "a fault targets one attempt");
        assert_eq!(fault_of(4, 0), None, "the supervisor fires kill itself");
        let first = |shard: usize| report.attempts_for(shard)[0].outcome.clone();
        assert_eq!(first(0), AttemptOutcome::FaultKilled);
        assert_eq!(first(1), AttemptOutcome::Exit { code: Some(3) });
        assert_eq!(
            first(2),
            AttemptOutcome::Exit {
                code: Some(FAULT_EXIT_CODE)
            }
        );
        assert_eq!(first(4), AttemptOutcome::FaultKilled);
        assert!(first(3).is_success());
    }

    #[test]
    fn requeued_shard_can_run_on_a_different_worker() {
        // One worker hangs forever on shard 0; with a timeout the retry
        // must be able to land on the other (surviving) slot.
        let mut config = quick_config(2, 2);
        config.shard_timeout = Some(Duration::from_millis(20));
        let mut launcher = FakeLauncher::new(&[((0, 0), FakeRun::Hang)]);
        let report = run_orchestrator(&config, &mut launcher);
        assert!(report.success);
        let retry = report
            .attempts_for(0)
            .into_iter()
            .find(|a| a.attempt == 1)
            .expect("retry attempt")
            .clone();
        assert!(retry.outcome.is_success());
        assert!(retry.worker < 2);
    }

    #[test]
    fn fault_parsing() {
        let fault = |shard, attempt, worker| Fault {
            shard,
            attempt,
            worker,
        };
        assert_eq!(
            Fault::parse_list("kill:3").unwrap(),
            vec![fault(3, 0, None)]
        );
        assert_eq!(
            Fault::parse_list("kill:1@2, kill:0").unwrap(),
            vec![fault(1, 2, None), fault(0, 0, None)]
        );
        assert_eq!(
            Fault::parse_list("killmid:2, torn:1@1").unwrap(),
            vec![
                fault(2, 0, Some(WorkerFault::KillMid)),
                fault(1, 1, Some(WorkerFault::Torn))
            ]
        );
        assert_eq!(Fault::parse_list("").unwrap(), vec![]);
        assert!(Fault::parse_list("boom:1").is_err());
        assert!(Fault::parse_list("kill:x").is_err());
        assert!(Fault::parse_list("kill:1@y").is_err());
    }

    #[test]
    fn fault_matching_targets_one_shard_attempt() {
        for fault in Fault::parse_list("kill:2@1,killmid:2@1,torn:2@1").unwrap() {
            assert!(fault.matches(2, 1));
            assert!(!fault.matches(2, 0));
            assert!(!fault.matches(1, 1));
        }
    }

    #[test]
    fn report_json_carries_attempts_and_identity() {
        let mut config = quick_config(2, 3);
        config.faults = Fault::parse_list("kill:1").expect("fault");
        let mut launcher = FakeLauncher::new(&[((0, 0), FakeRun::Exit(7))]);
        let report = run_orchestrator(&config, &mut launcher);
        let json = report.to_json("demo", ExperimentKind::Core, 0xdead_beef);
        assert!(json.contains("\"report_version\": 1"));
        assert!(json.contains("\"prefix\": \"demo\""));
        assert!(json.contains("\"kind\": \"core\""));
        assert!(json.contains("\"fingerprint\": \"00000000deadbeef\""));
        assert!(json.contains("\"outcome\": \"fault-killed\""));
        assert!(json.contains("\"outcome\": \"exit\""));
        assert!(json.contains("\"detail\": \"exit code 7\""));
        assert!(json.contains("\"excluded_shards\": []"));
        assert!(json.contains("\"success\": true"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_path_swaps_extension() {
        assert_eq!(
            report_path_for(Path::new("/c/demo-core-ff.pbcol")),
            Path::new("/c/demo-core-ff.orchrun.json")
        );
    }
}
