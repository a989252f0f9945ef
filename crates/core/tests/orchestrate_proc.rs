//! Process-level supervision: the orchestrator's [`ProcessLauncher`]
//! over real child processes — exit-status handling, kill/reap of hung
//! and fault-injected workers, spawn failures, and requeue onto the
//! surviving pool.
//!
//! Workers here are tiny `sh` scripts (touch a marker file, exit with a
//! code, or sleep forever); the collection-level properties (kill
//! schedules still assemble the bit-identical corpus) live in
//! `orchestrate_props.rs`.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use perfbug_core::exec::ShardSpec;
use perfbug_core::orchestrate::{
    run_orchestrator, AttemptOutcome, Fault, OrchestratorConfig, ProcessLauncher, WorkerFault,
};

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbug-orchproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn quick_config(workers: usize, shards: usize) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers, shards);
    config.poll_interval = Duration::from_millis(2);
    config.retry_delay = Duration::from_millis(2);
    config
}

/// `sh -c <script>` command.
fn sh(script: String) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c").arg(script);
    cmd
}

#[test]
fn real_workers_complete_a_clean_pass() {
    let dir = scratch("clean");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, _attempt: u32, _fault: Option<WorkerFault>| {
            sh(format!("touch {}", marker(shard).display()))
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let report = run_orchestrator(&quick_config(2, 5), &mut launcher);
    assert!(report.success, "{}", report.summary());
    assert_eq!(report.attempts.len(), 5);
    assert!(report.attempts.iter().all(|a| a.outcome.is_success()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nonzero_exit_is_requeued_with_its_code() {
    let dir = scratch("exitcode");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, attempt: u32, _fault: Option<WorkerFault>| {
            if shard.index == 0 && attempt == 0 {
                sh("exit 3".into())
            } else {
                sh(format!("touch {}", marker(shard).display()))
            }
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let report = run_orchestrator(&quick_config(2, 3), &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(0);
    assert_eq!(attempts.len(), 2);
    assert_eq!(attempts[0].outcome, AttemptOutcome::Exit { code: Some(3) });
    assert!(attempts[1].outcome.is_success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_is_killed_on_timeout_and_shard_recovers() {
    let dir = scratch("timeout");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut config = quick_config(2, 2);
    config.shard_timeout = Some(Duration::from_millis(150));
    let t0 = Instant::now();
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, attempt: u32, _fault: Option<WorkerFault>| {
            if shard.index == 1 && attempt == 0 {
                sh("sleep 30".into())
            } else {
                sh(format!("touch {}", marker(shard).display()))
            }
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let report = run_orchestrator(&config, &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(1);
    assert_eq!(attempts[0].outcome, AttemptOutcome::TimedOut);
    assert!(attempts[1].outcome.is_success());
    // The hung worker was killed, not waited out.
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "kill happened via timeout, not sleep completion"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_fault_kills_a_real_worker_and_the_pool_recovers() {
    let dir = scratch("fault");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut config = quick_config(3, 6);
    config.faults = Fault::parse_list("kill:1").expect("fault");
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, attempt: u32, _fault: Option<WorkerFault>| {
            if shard.index == 1 && attempt == 0 {
                // Long-lived: only the injected kill can end it promptly.
                sh("sleep 30".into())
            } else {
                sh(format!("touch {}", marker(shard).display()))
            }
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let t0 = Instant::now();
    let report = run_orchestrator(&config, &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(1);
    assert_eq!(attempts[0].outcome, AttemptOutcome::FaultKilled);
    assert!(attempts[1].outcome.is_success());
    assert!(t0.elapsed() < Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unspawnable_worker_is_a_recorded_failure_not_a_crash() {
    let dir = scratch("spawn");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, attempt: u32, _fault: Option<WorkerFault>| {
            if shard.index == 0 && attempt == 0 {
                Command::new("/nonexistent/perfbug-worker-binary")
            } else {
                sh(format!("touch {}", marker(shard).display()))
            }
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let report = run_orchestrator(&quick_config(1, 2), &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(0);
    assert!(matches!(
        attempts[0].outcome,
        AttemptOutcome::SpawnFailed { .. }
    ));
    assert!(attempts[1].outcome.is_success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_exit_without_output_is_retried() {
    let dir = scratch("badout");
    let marker = |shard: ShardSpec| dir.join(format!("shard-{}.done", shard.index));
    let mut launcher = ProcessLauncher {
        build: |shard: ShardSpec, attempt: u32, _fault: Option<WorkerFault>| {
            if shard.index == 0 && attempt == 0 {
                sh("true".into()) // exits 0, produces nothing
            } else {
                sh(format!("touch {}", marker(shard).display()))
            }
        },
        verify: |shard: ShardSpec| {
            if marker(shard).exists() {
                Ok(())
            } else {
                Err("marker missing".into())
            }
        },
        plan: None,
    };
    let report = run_orchestrator(&quick_config(1, 1), &mut launcher);
    assert!(report.success, "{}", report.summary());
    let attempts = report.attempts_for(0);
    assert!(matches!(
        attempts[0].outcome,
        AttemptOutcome::BadOutput { .. }
    ));
    assert!(attempts[1].outcome.is_success());
    let _ = std::fs::remove_dir_all(&dir);
}
