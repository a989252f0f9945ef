//! Worker-fired faults end to end through the real `pborch` binary: the
//! supervisor hands each faulted attempt its `--fault` argument, the
//! worker stops itself mid-shard with the reserved exit code, and the
//! retry resumes the durable chunks it left — for `killmid` and `torn`
//! in one pass, which must still assemble the single-process corpus.

use std::path::Path;

use perfbug_bench::specs::{orchestrate_spec, resolve_spec, timing_free_bytes};
use perfbug_core::experiment::collect;
use perfbug_core::orchestrate::{AttemptOutcome, CollectPlan, Fault};
use perfbug_core::serve::SubmitRequest;

#[test]
fn worker_fired_faults_resume_and_assemble_the_single_process_corpus() {
    let spec = resolve_spec("replay-demo").expect("spec");
    let dir = std::env::temp_dir().join(format!("perfbug-bench-faults-{}", std::process::id()));
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
        shards: 2,
        max_attempts: 2,
        timeout_secs: Some(300),
        hosts: None,
    };
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
    let _ = std::fs::remove_dir_all(&dir);
}
