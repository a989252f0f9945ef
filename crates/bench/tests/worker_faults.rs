//! Worker-fired faults end to end through the real `pborch` binary: the
//! supervisor hands each faulted attempt its `--fault` argument, the
//! worker stops itself mid-shard with the reserved exit code, and the
//! retry resumes the durable chunks it left — for `killmid` and `torn`
//! in one pass, which must still assemble the single-process corpus. A
//! fault the pass never reaches must fail the pass instead of letting it
//! pass as a clean run.

use std::path::Path;

use perfbug_bench::specs::{orchestrate_spec, resolve_spec, timing_free_bytes, SpecConfig};
use perfbug_core::experiment::collect;
use perfbug_core::orchestrate::{report_path_for, AttemptOutcome, CollectPlan, Fault};
use perfbug_core::serve::SubmitRequest;

/// A cold cache directory for one test, a plan for the `replay-demo`
/// spec in it, and a 2-worker, 2-shard request with two attempts.
fn replay_demo_pass(test: &str) -> (SpecConfig, CollectPlan, SubmitRequest) {
    let spec = resolve_spec("replay-demo").expect("spec");
    let dir = std::env::temp_dir().join(format!("perfbug-bench-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = CollectPlan {
        dir,
        prefix: "replay-demo".into(),
        kind: spec.kind(),
        fingerprint: spec.fingerprint(),
    };
    let request = SubmitRequest {
        spec: "replay-demo".into(),
        workers: 2,
        shards: 2,
        max_attempts: 2,
        timeout_secs: Some(300),
        hosts: None,
    };
    (spec, plan, request)
}

#[test]
fn worker_fired_faults_resume_and_assemble_the_single_process_corpus() {
    let (spec, plan, request) = replay_demo_pass("faults");
    let faults = Fault::parse_list("killmid:0,torn:1").expect("faults");
    let exe = Path::new(env!("CARGO_BIN_EXE_pborch"));
    let run = orchestrate_spec(&spec, &plan, &request, exe, faults).expect("pass");

    // Six probes over two shards: three each. `killmid` leaves its first
    // chunk durable; `torn` tears its second, leaving the first.
    for shard in [0, 1] {
        let attempts = run.report.attempts_for(shard);
        assert_eq!(attempts.len(), 2, "{}", run.report.summary());
        assert_eq!(attempts[0].outcome, AttemptOutcome::FaultKilled);
        assert!(attempts[1].outcome.is_success());
        assert_eq!(attempts[1].resumed_probes, Some(1), "shard {shard}");
    }
    let (kind, fingerprint) = (spec.kind(), spec.fingerprint());
    assert!(
        timing_free_bytes(run.collection, kind, fingerprint)
            == timing_free_bytes(collect(spec.experiment()), kind, fingerprint),
        "a pass that survived worker-fired faults must equal a single-process collection"
    );
    let _ = std::fs::remove_dir_all(&plan.dir);
}

#[test]
fn a_fault_the_pass_never_reaches_fails_the_pass() {
    let (spec, plan, request) = replay_demo_pass("unfired-fault");
    let exe = Path::new(env!("CARGO_BIN_EXE_pborch"));
    // Shard 1's first attempt succeeds, so its second, which carries the
    // fault, never launches.
    let faults = Fault::parse_list("kill:1@1").expect("faults");
    let err = orchestrate_spec(&spec, &plan, &request, exe, faults).expect_err("unfired fault");
    assert!(
        err.contains("fault kill:1@1 did not fire: shard 1 never launched attempt 1"),
        "{err}"
    );
    // Both shards ran once and succeeded: the report on disk says so.
    let report = std::fs::read_to_string(report_path_for(&plan.full_path())).expect("report");
    assert_eq!(
        report.matches("\"outcome\": \"success\"").count(),
        2,
        "{report}"
    );
    assert!(!report.contains("fault-killed"), "{report}");

    // The corpus is now cached, so a fault on any attempt cannot fire.
    let faults = Fault::parse_list("kill:1").expect("faults");
    let err = orchestrate_spec(&spec, &plan, &request, exe, faults).expect_err("cached pass");
    assert!(
        err.contains("fault kill:1@0 did not fire: the corpus was already cached"),
        "{err}"
    );
    // Without faults the cached corpus is served as before.
    orchestrate_spec(&spec, &plan, &request, exe, Vec::new()).expect("cached pass");
    let _ = std::fs::remove_dir_all(&plan.dir);
}
