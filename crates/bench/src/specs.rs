//! Named collection specs and the worker/launcher plumbing shared by the
//! orchestration binaries (`pborch`, `pbserve`, `pbsub`). Every supervised
//! pass — `pborch run` and `pbserve`'s orchestrated submissions alike —
//! goes through [`orchestrate_spec`].
//!
//! A *spec* is a short name for a full collection config. Names — not
//! configs — are what crosses process and network boundaries: every
//! binary (and every worker daemon) re-resolves the name locally and the
//! config fingerprint proves the resolutions agree, so version skew is
//! detected instead of silently collecting a different corpus.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{self, Collection, CollectionConfig, Experiment};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::orchestrate::{
    self, remote, report_path_for, AttemptOutcome, CollectPlan, Fault, OrchestratedRun,
    OrchestratorConfig, RunReport, WorkerFault,
};
use perfbug_core::persist::{
    self, ExperimentKind, FileHeader, PersistError, ShardManifest, CORPUS_REVISION,
};
use perfbug_core::serve::{ExperimentBackend, RunOutcome, SubmitRequest};
use perfbug_ml::GbtParams;
use perfbug_workloads::WorkloadScale;

use crate::{base_config, gbt250, replay_demo_config};

/// A named collection configuration the orchestration tools can run.
pub enum SpecConfig {
    /// Core (cycle-level) experiment.
    Core(CollectionConfig),
    /// Memory experiment.
    Memory(MemCollectionConfig),
}

impl SpecConfig {
    /// The spec's experiment: what every collection path runs.
    pub fn experiment(&self) -> &dyn Experiment {
        match self {
            SpecConfig::Core(c) => c,
            SpecConfig::Memory(c) => c,
        }
    }

    /// Experiment kind of this spec.
    pub fn kind(&self) -> ExperimentKind {
        self.experiment().kind()
    }

    /// Config fingerprint of this spec.
    pub fn fingerprint(&self) -> u64 {
        persist::config_fingerprint(self.experiment())
    }
}

/// `(name, description)` of every named spec, for `pborch specs`.
pub const SPECS: [(&str, &str); 3] = [
    (
        "replay-demo",
        "the CI replay-guard corpus: 2 benchmarks, 3 core bugs, 6 probes, GBT-40",
    ),
    (
        "gbt-quick",
        "GBT-250 over the PERFBUG_SCALE catalogue with a 6-probe quick cap",
    ),
    (
        "mem-quick",
        "memory experiment (AMAT, GBT-30) at tiny workload scale, 4 probes",
    ),
];

/// Resolves a spec name to its configuration.
pub fn resolve_spec(name: &str) -> Result<SpecConfig, String> {
    match name {
        "replay-demo" => Ok(SpecConfig::Core(replay_demo_config())),
        "gbt-quick" => Ok(SpecConfig::Core(base_config(vec![gbt250()], 6))),
        "mem-quick" => {
            let mut config = MemCollectionConfig::new(
                vec![perfbug_core::stage1::EngineSpec::Gbt(GbtParams {
                    n_trees: 30,
                    ..GbtParams::default()
                })],
                TargetMetric::Amat,
            );
            config.workload = WorkloadScale::tiny();
            config.step_cycles = 300;
            config.max_probes = Some(4);
            Ok(SpecConfig::Memory(config))
        }
        other => Err(format!(
            "unknown spec {other:?} (run `pborch specs` for the list)"
        )),
    }
}

/// Pulls the value of a `--flag value` pair out of `args`.
pub fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

/// The [`SubmitRequest`] that `pborch run` and `pbsub submit` flags spell:
/// `--workers` (default 0), `--shards` (default 0), `--max-attempts`
/// (default 3), `--timeout-secs` and `--hosts`.
pub fn submit_from_flags(spec: String, args: &[String]) -> Result<SubmitRequest, String> {
    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
        flag_value(args, flag)?
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag} must be a number, got {raw:?}"))
            })
            .transpose()
    }
    Ok(SubmitRequest {
        spec,
        workers: num(args, "--workers")?.unwrap_or(0),
        shards: num(args, "--shards")?.unwrap_or(0),
        max_attempts: num(args, "--max-attempts")?.unwrap_or(3),
        timeout_secs: num(args, "--timeout-secs")?,
        hosts: flag_value(args, "--hosts")?,
    })
}

/// The worker `Command` collecting one shard of `spec_name` into
/// `cache_dir`, re-invoking `exe` (a binary whose `worker` subcommand is
/// [`run_worker`]). The worker gets only its own mid-write fault, as the
/// internal `--fault` argument; [`orchestrate::FAULT_ENV`] is stripped.
pub fn worker_command(
    exe: &Path,
    spec_name: &str,
    cache_dir: &Path,
    shard: ShardSpec,
    fault: Option<WorkerFault>,
) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg("--spec")
        .arg(spec_name)
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--shard")
        .arg(format!("{}/{}", shard.index, shard.count))
        .env_remove(orchestrate::FAULT_ENV)
        .stdout(Stdio::null());
    if let Some(fault) = fault {
        cmd.arg("--fault").arg(fault.as_str());
    }
    cmd
}

/// Body of the `worker` subcommand (`pborch worker`, `pbserve worker`):
/// collects (or resumes) exactly one shard, then exits. Under the
/// internal `--fault killmid|torn` the worker stops itself mid-shard and
/// exits the process with [`orchestrate::FAULT_EXIT_CODE`].
pub fn run_worker(args: &[String]) -> Result<(), String> {
    let spec_name =
        flag_value(args, "--spec")?.ok_or("--spec <name> is required (see `pborch specs`)")?;
    let cache_dir =
        PathBuf::from(flag_value(args, "--cache-dir")?.ok_or("--cache-dir <dir> is required")?);
    let spec = resolve_spec(&spec_name)?;
    let raw = flag_value(args, "--shard")?.ok_or("--shard <i>/<n> is required")?;
    let shard = ShardSpec::parse(&raw)?;
    let fault = match flag_value(args, "--fault")? {
        Some(raw) => Some(WorkerFault::parse(&raw).ok_or(format!("unknown --fault {raw:?}"))?),
        None => None,
    };
    std::fs::create_dir_all(&cache_dir)
        .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
    let path = cache_dir.join(persist::shard_file_name(
        &spec_name,
        spec.kind(),
        spec.fingerprint(),
        shard.index,
        shard.count,
    ));
    let write_fault = fault.map(WorkerFault::write_fault);
    let outcome = match persist::collect_shard_with(&path, spec.experiment(), shard, write_fault) {
        Err(PersistError::Faulted) => std::process::exit(orchestrate::FAULT_EXIT_CODE),
        result => result.map_err(|e| format!("shard {}: {e}", path.display()))?,
    };
    println!(
        "worker: shard {}/{} ({} probes, resumed={}) -> {}",
        shard.index,
        shard.count,
        outcome.collection.probes.len(),
        outcome.resumed_probes,
        path.display()
    );
    Ok(())
}

/// The daemon-side admission check + plan resolution for a launch
/// request: re-resolve the spec locally and require kind/fingerprint
/// equality, so a supervisor running diverged code is rejected instead
/// of poisoning the cache.
pub fn admit_launch(req: &remote::LaunchRequest) -> Result<CollectPlan, String> {
    let spec = resolve_spec(&req.prefix)?;
    if spec.kind() != req.kind {
        return Err(format!(
            "spec {:?} is a {} experiment here, launch says {}",
            req.prefix,
            spec.kind().as_str(),
            req.kind.as_str()
        ));
    }
    let fingerprint = spec.fingerprint();
    if fingerprint != req.fingerprint {
        return Err(format!(
            "config fingerprint mismatch for spec {:?}: this daemon computes {fingerprint:016x}, \
             the launch says {:016x} (version skew between supervisor and daemon?)",
            req.prefix, req.fingerprint
        ));
    }
    Ok(CollectPlan {
        dir: PathBuf::from(&req.cache_dir),
        prefix: req.prefix.clone(),
        kind: req.kind,
        fingerprint,
    })
}

/// Runs one supervised collection pass of `spec` into `plan`: the single
/// front door of `pborch run` and of `pbserve`'s orchestrated submissions.
///
/// `request` carries the supervision knobs with the service protocol's
/// meaning (its `spec` field is not consulted — `spec` and `plan` are its
/// resolution). The rules, identical for both callers:
///
/// * `workers` and `max_attempts` must be at least 1;
/// * `workers`, and `shards` when given, must not exceed the spec's probe
///   count — checked before any per-shard state exists or any worker is
///   launched, so an absurd request is a typed error, not an allocation
///   failure or a fork storm;
/// * `shards: 0` means `min(2 × workers, probes)`: more shards than
///   workers, so the queue can rebalance around a lost worker;
/// * every fault must be able to fire on the final pass
///   ([`Fault::check`]), so a guard cannot pass as a clean run;
/// * a corpus already in the cache (or a complete shard set) is replayed
///   without sizing the pass.
///
/// With `hosts`, shards fan out to `pborch worker-daemon` endpoints;
/// otherwise each attempt re-invokes `exe` in `worker` mode. `faults` are
/// `pborch`'s test hook (the service passes none); a pass given faults
/// fails unless every one of them fired.
pub fn orchestrate_spec(
    spec: &SpecConfig,
    plan: &CollectPlan,
    request: &SubmitRequest,
    exe: &Path,
    faults: Vec<Fault>,
) -> Result<OrchestratedRun, String> {
    if request.workers == 0 {
        return Err("workers must be at least 1".into());
    }
    if request.max_attempts == 0 {
        return Err("max_attempts must be at least 1".into());
    }
    let hosts = match &request.hosts {
        Some(raw) => Some(remote::parse_hosts(raw).map_err(|e| format!("hosts: {e}"))?),
        None => None,
    };
    let shards = match request.shards {
        0 => request.workers.saturating_mul(2),
        n => n,
    };
    let mut config = OrchestratorConfig::new(request.workers, shards);
    config.max_attempts = request.max_attempts;
    config.shard_timeout = request.timeout_secs.map(Duration::from_secs);
    config.faults = faults;
    let full = plan.full_path();
    if let Some((collection, status)) =
        persist::load_or_assemble(&full, plan.kind, plan.fingerprint)
            .map_err(|e| format!("{}: {e}", plan.prefix))?
    {
        let report = RunReport::already_cached(&config);
        check_faults_fired(&config.faults, &report).map_err(|e| format!("{}: {e}", plan.prefix))?;
        return Ok(OrchestratedRun {
            collection,
            status,
            report,
            report_path: report_path_for(&full),
        });
    }
    let probes = experiment::pass_identity(spec.experiment()).total_probes;
    if request.workers > probes || request.shards > probes {
        return Err(format!(
            "{}: {} workers / {} shards requested, but the spec has only {probes} probes",
            plan.prefix, request.workers, request.shards
        ));
    }
    config.shards = config.shards.min(probes);
    for fault in &config.faults {
        fault
            .check(config.shards, config.max_attempts, probes)
            .map_err(|e| format!("{}: {e}", plan.prefix))?;
    }
    let run = match hosts {
        Some(hosts) => {
            let mut launcher = remote::RemoteLauncher::for_plan(hosts, plan);
            orchestrate::orchestrate_collection_with(plan, &config, &mut launcher)
        }
        None => orchestrate::orchestrate_collection(plan, &config, |shard, attempt, fault| {
            println!(
                "  launch shard {}/{} (attempt {attempt})",
                shard.index, shard.count
            );
            worker_command(exe, &plan.prefix, &plan.dir, shard, fault)
        }),
    }
    .map_err(|e| format!("{}: {e}", plan.prefix))?;
    check_faults_fired(&config.faults, &run.report).map_err(|e| format!("{}: {e}", plan.prefix))?;
    Ok(run)
}

/// Checks that every injected fault fired: `report` must record its
/// (shard, attempt) as `fault-killed`. [`Fault::check`] rejects only the
/// faults no pass could fire; this catches the ones a given pass never
/// reached, such as a fault on a retry of a shard whose first attempt
/// succeeded, or any fault on a pass that found its corpus cached and
/// launched nothing. Such a pass would otherwise look like a passing
/// fault guard.
fn check_faults_fired(faults: &[Fault], report: &RunReport) -> Result<(), String> {
    for fault in faults {
        let attempt = report
            .attempts
            .iter()
            .find(|a| fault.matches(a.shard, a.attempt));
        let why = match attempt.map(|a| &a.outcome) {
            Some(AttemptOutcome::FaultKilled) => continue,
            Some(outcome) => format!("the attempt ended {}", outcome.label()),
            None if report.attempts.is_empty() => {
                "the corpus was already cached, so nothing launched".to_string()
            }
            None => format!(
                "shard {} never launched attempt {}",
                fault.shard, fault.attempt
            ),
        };
        return Err(format!(
            "injected fault {fault} did not fire: {why} ({})",
            report.summary()
        ));
    }
    Ok(())
}

/// The PBCL encoding of `collection` with its wall-clock timings zeroed:
/// the bytes `pborch run --check-full` compares between an orchestrated
/// corpus and a single-process collection of the same spec.
pub fn timing_free_bytes(
    mut collection: Collection,
    kind: ExperimentKind,
    fingerprint: u64,
) -> Vec<u8> {
    collection.zero_timings();
    let header = FileHeader {
        kind,
        corpus_revision: CORPUS_REVISION,
        fingerprint,
        manifest: ShardManifest::full(collection.probes.len()),
    };
    persist::encode_collection_with(&collection, &header)
}

/// [`ExperimentBackend`] over the named specs: `pbserve`'s experiment
/// layer. `workers == 0` collects in-process (exact `simulations_run`
/// accounting); otherwise the submission runs through
/// [`orchestrate_spec`], re-invoking `exe` as shard workers — or fanning
/// out to worker daemons when the submission carries `hosts`.
pub struct BenchBackend {
    /// Binary re-invoked in `worker` mode for orchestrated passes.
    pub exe: PathBuf,
}

impl ExperimentBackend for BenchBackend {
    fn identity(&self, spec: &str) -> Result<(ExperimentKind, u64), String> {
        let resolved = resolve_spec(spec)?;
        Ok((resolved.kind(), resolved.fingerprint()))
    }

    fn run(&self, submit: &SubmitRequest, plan: &CollectPlan) -> Result<RunOutcome, String> {
        let spec = resolve_spec(&submit.spec)?;
        let (collection, status) = if submit.workers == 0 {
            persist::collect_or_load(&plan.full_path(), spec.experiment())
                .map_err(|e| format!("{}: {e}", submit.spec))?
        } else {
            // The service never injects faults: they are a supervisor
            // test hook, and this supervisor is a daemon serving tenants.
            let run = orchestrate_spec(&spec, plan, submit, &self.exe, Vec::new())?;
            (run.collection, run.status)
        };
        Ok(RunOutcome {
            status,
            probes: collection.probes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbug_core::orchestrate::FaultError;

    /// Runs `replay-demo` through [`orchestrate_spec`] with a worker
    /// binary that does not exist and one injected fault, which must be
    /// rejected before anything launches; returns the error.
    fn rejected(fault: &str, shards: usize, max_attempts: u32) -> String {
        let spec = resolve_spec("replay-demo").expect("spec");
        let dir = std::env::temp_dir().join(format!(
            "perfbug-specs-fault-{}-{}",
            std::process::id(),
            fault.replace([':', '@'], "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = CollectPlan {
            dir: dir.clone(),
            prefix: "replay-demo".into(),
            kind: spec.kind(),
            fingerprint: spec.fingerprint(),
        };
        let request = SubmitRequest {
            spec: "replay-demo".into(),
            workers: 2,
            shards,
            max_attempts,
            timeout_secs: None,
            hosts: None,
        };
        let faults = Fault::parse_list(fault).expect("fault");
        let exe = Path::new("/nonexistent/pborch");
        let err = orchestrate_spec(&spec, &plan, &request, exe, faults)
            .expect_err("a fault that cannot fire must be rejected");
        assert!(!dir.exists(), "{fault}: nothing may launch or be written");
        err
    }

    #[test]
    fn a_fault_on_a_shard_the_pass_lacks_is_rejected() {
        let expected = FaultError::NoSuchShard {
            fault: Fault {
                shard: 2,
                attempt: 0,
                worker: None,
            },
            shards: 2,
        };
        assert_eq!(rejected("kill:2", 2, 3), format!("replay-demo: {expected}"));
    }

    #[test]
    fn a_fault_on_an_attempt_beyond_the_budget_is_rejected() {
        let expected = FaultError::NoSuchAttempt {
            fault: Fault {
                shard: 1,
                attempt: 3,
                worker: None,
            },
            max_attempts: 3,
        };
        assert_eq!(
            rejected("kill:1@3", 2, 3),
            format!("replay-demo: {expected}")
        );
    }

    #[test]
    fn a_mid_write_fault_on_a_shard_with_too_few_probes_is_rejected() {
        // Six probes over six shards: one probe each, but `torn` waits
        // for a second durable chunk.
        let expected = FaultError::ShardTooSmall {
            fault: Fault {
                shard: 5,
                attempt: 0,
                worker: Some(WorkerFault::Torn),
            },
            probes: 1,
            chunks: 2,
        };
        assert_eq!(rejected("torn:5", 6, 3), format!("replay-demo: {expected}"));
    }
}
