//! In-process loopback suite for the distributed launcher: real TCP
//! connections to real [`serve_daemon`] accept loops on 127.0.0.1, with
//! scripted [`ShardAgent`]s standing in for worker processes. Each test
//! pins one failure-mode mapping of the protocol onto the supervision
//! state machine's vocabulary: connect refusal ⇒ spawn failure
//! (requeue), mid-stream hangup ⇒ wait failure (bounded retry),
//! fingerprint skew ⇒ rejection before any work, supervisor hangup ⇒
//! daemon-side child kill, a worker's own mid-write fault ⇒
//! `fault-killed` and part-file resume accounting.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::orchestrate::remote::{
    serve_daemon, DaemonOptions, LaunchRequest, RemoteLauncher, ShardAgent,
};
use perfbug_core::orchestrate::{
    run_orchestrator, AttemptOutcome, CollectPlan, ExitKind, Fault, OrchestratorConfig,
    WorkerFault, WorkerHandle, FAULT_EXIT_CODE,
};
use perfbug_core::persist::{
    self, collect_shard_with, config_fingerprint, encode_collection, load_or_assemble,
    ExperimentKind, PersistError,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn daemon_options() -> DaemonOptions {
    DaemonOptions {
        poll_interval: Duration::from_millis(5),
        handshake_timeout: Duration::from_secs(5),
    }
}

/// Starts a worker daemon on an ephemeral loopback port; the accept loop
/// runs on a leaked thread for the life of the test process.
fn spawn_daemon(agent: Arc<dyn ShardAgent>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let _ = serve_daemon(listener, agent, daemon_options());
    });
    addr
}

/// A loopback port with nothing listening: bound once to reserve a fresh
/// number, then dropped so connects are refused.
fn dead_endpoint() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    listener.local_addr().expect("local addr").to_string()
}

fn fast_orch(workers: usize, shards: usize, max_attempts: u32) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers, shards);
    config.max_attempts = max_attempts;
    config.poll_interval = Duration::from_millis(1);
    config.retry_delay = Duration::from_millis(1);
    config
}

fn accept_all_launcher(endpoints: Vec<String>) -> RemoteLauncher {
    let plan = CollectPlan {
        dir: "unused-cache-dir".into(),
        prefix: "scripted".into(),
        kind: ExperimentKind::Core,
        fingerprint: 0x5eed,
    };
    let mut launcher = RemoteLauncher::with_verify(endpoints, &plan, Box::new(|_, _| Ok(())));
    launcher.set_timeouts(Duration::from_secs(2), Duration::from_secs(5));
    launcher
}

// ---------------------------------------------------------------------
// Scripted agent
// ---------------------------------------------------------------------

/// What one scripted launch's worker does.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Exit successfully on the first poll.
    Succeed,
    /// Exit with the given code on the first poll.
    Exit(i32),
    /// `try_finish` errors immediately: the daemon can no longer observe
    /// the worker, kills it and hangs up without an exit frame.
    WaitError,
    /// Run until killed.
    StallForever,
}

struct ScriptedHandle {
    script: Script,
    kills: Arc<AtomicUsize>,
}

impl WorkerHandle for ScriptedHandle {
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
        match self.script {
            Script::Succeed => Ok(Some(ExitKind::Success)),
            Script::Exit(code) => Ok(Some(ExitKind::Failure { code: Some(code) })),
            Script::WaitError => Err(io::Error::other("scripted wait failure")),
            Script::StallForever => Ok(None),
        }
    }

    fn kill(&mut self) {
        self.kills.fetch_add(1, Ordering::SeqCst);
    }
}

/// [`ShardAgent`] whose launches pop a script queue (empty queue means
/// "succeed"), recording every admitted request.
struct ScriptedAgent {
    scripts: Mutex<VecDeque<Script>>,
    launches: Mutex<Vec<LaunchRequest>>,
    kills: Arc<AtomicUsize>,
    /// Fingerprint this daemon insists on; `Some` enables admission.
    expected_fingerprint: Option<u64>,
}

impl ScriptedAgent {
    fn new(scripts: Vec<Script>) -> Self {
        ScriptedAgent {
            scripts: Mutex::new(scripts.into()),
            launches: Mutex::new(Vec::new()),
            kills: Arc::new(AtomicUsize::new(0)),
            expected_fingerprint: None,
        }
    }

    fn launch_count(&self) -> usize {
        self.launches.lock().expect("launches").len()
    }
}

impl ShardAgent for ScriptedAgent {
    fn accept(&self, req: &LaunchRequest) -> Result<(), String> {
        if let Some(expected) = self.expected_fingerprint {
            if req.fingerprint != expected {
                return Err(format!(
                    "config fingerprint mismatch: supervisor sent {:016x}, \
                     this daemon resolves {:016x} (version skew)",
                    req.fingerprint, expected
                ));
            }
        }
        Ok(())
    }

    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        self.launches.lock().expect("launches").push(req.clone());
        let script = self
            .scripts
            .lock()
            .expect("scripts")
            .pop_front()
            .unwrap_or(Script::Succeed);
        Ok(Box::new(ScriptedHandle {
            script,
            kills: Arc::clone(&self.kills),
        }))
    }
}

// ---------------------------------------------------------------------
// Failure-mode mappings
// ---------------------------------------------------------------------

#[test]
fn connect_refusal_is_a_requeued_spawn_failure_with_bounded_retries() {
    let mut launcher = accept_all_launcher(vec![dead_endpoint()]);
    let report = run_orchestrator(&fast_orch(1, 1, 2), &mut launcher);
    assert!(!report.success, "nothing listens, so the pass must fail");
    assert_eq!(report.excluded, vec![0]);
    assert_eq!(
        report.attempts.len(),
        2,
        "retries are bounded by the budget: {}",
        report.summary()
    );
    for a in &report.attempts {
        assert!(
            matches!(&a.outcome, AttemptOutcome::SpawnFailed { .. }),
            "a refused connect maps to spawn-failed, got {}",
            a.outcome
        );
    }
}

#[test]
fn a_dead_endpoint_fails_over_to_the_live_one_within_a_single_attempt() {
    let agent = Arc::new(ScriptedAgent::new(vec![]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![dead_endpoint(), live]);
    let report = run_orchestrator(&fast_orch(1, 1, 1), &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert_eq!(
        report.attempts.len(),
        1,
        "failover must not burn an attempt"
    );
    assert!(report.attempts[0].outcome.is_success());
    assert_eq!(agent.launch_count(), 1);
}

#[test]
fn mid_stream_disconnect_is_a_requeued_wait_failure_then_recovers() {
    let agent = Arc::new(ScriptedAgent::new(vec![Script::WaitError]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![live]);
    let report = run_orchestrator(&fast_orch(1, 1, 3), &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert_eq!(report.attempts.len(), 2, "{}", report.summary());
    assert!(
        matches!(
            &report.attempts[0].outcome,
            AttemptOutcome::WaitFailed { .. }
        ),
        "a daemon hangup mid-attempt maps to wait-failed, got {}",
        report.attempts[0].outcome
    );
    assert!(report.attempts[1].outcome.is_success());
    assert_eq!(agent.launch_count(), 2);
}

#[test]
fn fingerprint_skew_is_rejected_before_any_work_starts() {
    let mut agent = ScriptedAgent::new(vec![]);
    // The daemon's "correct" fingerprint — anything differing from the
    // launcher's 0x5eed.
    agent.expected_fingerprint = Some(0xd1ff);
    let agent = Arc::new(agent);
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    // The launcher advertises a different fingerprint than the daemon
    // resolves: admission must refuse, nothing may spawn.
    let mut launcher = accept_all_launcher(vec![live]);
    let report = run_orchestrator(&fast_orch(1, 1, 1), &mut launcher);
    assert!(!report.success);
    let why = match &report.attempts[0].outcome {
        AttemptOutcome::SpawnFailed { why } => why.clone(),
        other => panic!("rejection maps to spawn-failed, got {other}"),
    };
    assert!(why.contains("rejected"), "{why}");
    assert!(why.contains("fingerprint mismatch"), "{why}");
    assert_eq!(agent.launch_count(), 0, "no worker may start on skew");
}

#[test]
fn supervisor_fault_kill_hangs_up_and_the_daemon_kills_its_child() {
    let agent = Arc::new(ScriptedAgent::new(vec![Script::StallForever]));
    let live = spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>);
    let mut launcher = accept_all_launcher(vec![live]);
    let mut config = fast_orch(1, 1, 2);
    config.faults = Fault::parse_list("kill:0").expect("fault spec");
    let report = run_orchestrator(&config, &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert!(
        report
            .attempts
            .iter()
            .any(|a| a.outcome == AttemptOutcome::FaultKilled),
        "{}",
        report.summary()
    );
    // The supervisor only shut its socket; the *daemon* must translate
    // that hangup into killing the worker. Its connection thread races
    // this assertion, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while agent.kills.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        agent.kills.load(Ordering::SeqCst),
        1,
        "the orphaned worker must be killed exactly once"
    );
    assert_eq!(agent.launch_count(), 2, "the shard retried after the kill");
}

// ---------------------------------------------------------------------
// End-to-end: real shard collection through two daemons
// ---------------------------------------------------------------------

fn tiny_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 20,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![benchmark("458.sjeng").expect("suite")];
    config.max_probes = Some(4);
    config.threads = 2;
    config
}

fn full_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&tiny_config()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbug-remote-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Agent running the real shard-collection path synchronously inside
/// `launch` — the in-process stand-in for `pborch worker-daemon`'s
/// re-invocation of the worker binary, down to the launch frame's
/// mid-write fault and its reserved exit code.
struct CollectAgent {
    plan: CollectPlan,
    config: CollectionConfig,
}

impl ShardAgent for CollectAgent {
    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        let path = self.plan.shard_path(req.shard);
        let fault = req.fault.map(WorkerFault::write_fault);
        let script = match collect_shard_with(&path, &self.config, req.shard, fault) {
            Ok(_) => Script::Succeed,
            Err(PersistError::Faulted) => Script::Exit(FAULT_EXIT_CODE),
            Err(e) => return Err(io::Error::other(format!("shard collection: {e}"))),
        };
        Ok(Box::new(ScriptedHandle {
            script,
            kills: Arc::new(AtomicUsize::new(0)),
        }))
    }

    fn shard_checksum(&self, req: &LaunchRequest) -> Option<u64> {
        let bytes = std::fs::read(self.plan.shard_path(req.shard)).ok()?;
        Some(persist::fnv1a(&bytes))
    }
}

/// A collection plan in a fresh scratch directory, and a `for_plan`
/// launcher over `daemons` loopback daemons running [`CollectAgent`].
fn collect_pass(tag: &str, daemons: usize) -> (CollectPlan, RemoteLauncher) {
    let config = tiny_config();
    let plan = CollectPlan {
        dir: scratch(tag),
        prefix: format!("remote-{tag}"),
        kind: ExperimentKind::Core,
        fingerprint: config_fingerprint(&config),
    };
    let agent = Arc::new(CollectAgent {
        plan: plan.clone(),
        config,
    });
    let endpoints = (0..daemons)
        .map(|_| spawn_daemon(Arc::clone(&agent) as Arc<dyn ShardAgent>))
        .collect();
    let mut launcher = RemoteLauncher::for_plan(endpoints, &plan);
    launcher.set_timeouts(Duration::from_secs(2), Duration::from_secs(30));
    (plan, launcher)
}

/// Asserts that `plan`'s shards assemble the single-process corpus.
fn assert_bit_identical(plan: &CollectPlan) {
    let (mut merged, _status) = load_or_assemble(&plan.full_path(), plan.kind, plan.fingerprint)
        .expect("assembly")
        .expect("complete shard set");
    let mut full = full_collection().clone();
    merged.zero_timings();
    full.zero_timings();
    assert!(
        encode_collection(&merged, plan.fingerprint) == encode_collection(&full, plan.fingerprint),
        "a distributed pass must be bit-identical to the single-process one"
    );
}

#[test]
fn a_two_daemon_pass_assembles_the_bit_identical_corpus() {
    let (plan, mut launcher) = collect_pass("e2e", 2);
    let report = run_orchestrator(&fast_orch(2, 3, 2), &mut launcher);
    assert!(report.success, "{}", report.summary());
    // Success implies every shard also passed `for_plan`'s verify — the
    // local decode *and* the cross-check against the daemon-reported
    // FNV-1a checksum.
    assert_bit_identical(&plan);
    let _ = std::fs::remove_dir_all(&plan.dir);
}

#[test]
fn a_remote_torn_fault_is_fault_killed_and_resume_is_read_from_the_part_file() {
    let (plan, mut launcher) = collect_pass("torn", 1);
    let mut config = fast_orch(1, 2, 2);
    config.faults = Fault::parse_list("torn:0").expect("fault spec");
    let report = run_orchestrator(&config, &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(0);
    assert_eq!(attempts.len(), 2, "{}", report.summary());
    assert_eq!(attempts[0].outcome, AttemptOutcome::FaultKilled);
    // The worker tore its second durable chunk, so the retry resumed one
    // probe; `for_plan` read that from the part file before relaunching.
    assert_eq!(attempts[1].resumed_probes, Some(1));
    assert!(attempts[1].outcome.is_success());
    assert_bit_identical(&plan);
    let _ = std::fs::remove_dir_all(&plan.dir);
}
