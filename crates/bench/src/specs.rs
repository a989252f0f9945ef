//! Named collection specs and the worker/launcher plumbing shared by the
//! orchestration binaries (`pborch`, `pbserve`, `pbsub`).
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
use perfbug_core::experiment::{CollectionConfig, Experiment};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::orchestrate::{self, remote, CollectPlan, OrchestratorConfig};
use perfbug_core::persist::{self, ExperimentKind};
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

/// Parses a numeric flag value with a named error.
pub fn parse_num<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{what} must be a number, got {raw:?}"))
}

/// The worker `Command` collecting one shard of `spec_name` into
/// `cache_dir`, re-invoking `exe` (a binary whose `worker` subcommand is
/// [`run_worker`]). Fault injection belongs to supervisors, never
/// workers, so [`orchestrate::FAULT_ENV`] is stripped.
pub fn worker_command(exe: &Path, spec_name: &str, cache_dir: &Path, shard: ShardSpec) -> Command {
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
    cmd
}

/// Body of the `worker` subcommand (`pborch worker`, `pbserve worker`):
/// collects (or resumes) exactly one shard, then exits.
pub fn run_worker(args: &[String]) -> Result<(), String> {
    let spec_name =
        flag_value(args, "--spec")?.ok_or("--spec <name> is required (see `pborch specs`)")?;
    let cache_dir =
        PathBuf::from(flag_value(args, "--cache-dir")?.ok_or("--cache-dir <dir> is required")?);
    let spec = resolve_spec(&spec_name)?;
    let raw = flag_value(args, "--shard")?.ok_or("--shard <i>/<n> is required")?;
    let shard = ShardSpec::parse(&raw)?;
    std::fs::create_dir_all(&cache_dir)
        .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
    let path = cache_dir.join(persist::shard_file_name(
        &spec_name,
        spec.kind(),
        spec.fingerprint(),
        shard.index,
        shard.count,
    ));
    let outcome = persist::collect_shard_or_resume(&path, spec.experiment(), shard)
        .map_err(|e| format!("shard {}: {e}", path.display()))?;
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

/// [`ExperimentBackend`] over the named specs: `pbserve`'s experiment
/// layer. `workers == 0` collects in-process (exact `simulations_run`
/// accounting); otherwise shards are orchestrated as child processes of
/// `exe` — or fanned out to worker daemons when the submission carries
/// `hosts`.
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
        if submit.workers == 0 {
            let (collection, status) =
                persist::collect_or_load(&plan.full_path(), spec.experiment())
                    .map_err(|e| format!("{}: {e}", submit.spec))?;
            return Ok(RunOutcome {
                status,
                probes: collection.probes.len(),
            });
        }
        let shards = if submit.shards == 0 {
            submit.workers * 2
        } else {
            submit.shards
        };
        let mut config = OrchestratorConfig::new(submit.workers, shards);
        config.max_attempts = submit.max_attempts.max(1);
        if let Some(secs) = submit.timeout_secs {
            config.shard_timeout = Some(Duration::from_secs(secs));
        }
        // The service never injects faults: FAULT_ENV is a supervisor
        // test hook, and this supervisor is a daemon serving tenants.
        let run = if let Some(raw) = &submit.hosts {
            let hosts = remote::parse_hosts(raw)?;
            let mut launcher = remote::RemoteLauncher::for_plan(hosts, plan);
            orchestrate::orchestrate_collection_with(plan, &config, &mut launcher)
        } else {
            let exe = self.exe.clone();
            let prefix = plan.prefix.clone();
            let dir = plan.dir.clone();
            orchestrate::orchestrate_collection(plan, &config, move |shard, _attempt| {
                worker_command(&exe, &prefix, &dir, shard)
            })
        }
        .map_err(|e| format!("{}: {e}", submit.spec))?;
        Ok(RunOutcome {
            status: run.status,
            probes: run.collection.probes.len(),
        })
    }
}
