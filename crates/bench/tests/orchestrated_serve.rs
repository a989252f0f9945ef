//! `pbserve`'s orchestrated path end to end: submissions with
//! `workers >= 1` run through `specs::orchestrate_spec`, re-invoking the
//! `pbserve` binary as shard workers, and must assemble the corpus a
//! single-process collection produces. Absurd supervision requests must
//! come back as typed `error` events before anything is launched.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use perfbug_bench::specs::{resolve_spec, timing_free_bytes, BenchBackend};
use perfbug_core::experiment::collect;
use perfbug_core::orchestrate::report_path_for;
use perfbug_core::persist;
use perfbug_core::serve::{self, Request, ServeOptions, ServeStore, SubmitRequest};

/// Starts a loopback service over a fresh store; returns its address and
/// the store root.
fn start_service(name: &str, exe: &Path) -> (String, PathBuf) {
    let store_root =
        std::env::temp_dir().join(format!("perfbug-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    std::fs::create_dir_all(&store_root).expect("store root");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let backend = BenchBackend {
        exe: exe.to_path_buf(),
    };
    let store = ServeStore::new(store_root.clone());
    std::thread::spawn(move || {
        let _ = serve::serve(listener, Arc::new(backend), store, ServeOptions::default());
    });
    (addr, store_root)
}

fn submit(workers: usize, shards: usize, max_attempts: u32) -> Request {
    Request::Submit(SubmitRequest {
        spec: "replay-demo".into(),
        workers,
        shards,
        max_attempts,
        timeout_secs: None,
        hosts: None,
    })
}

#[test]
fn an_orchestrated_submission_assembles_the_single_process_corpus() {
    let (addr, store_root) = start_service("orch", Path::new(env!("CARGO_BIN_EXE_pbserve")));
    let outcome = serve::request(&addr, &submit(2, 3, 3), |_| {}).expect("orchestrated submit");
    assert_eq!(outcome.status, "collected");
    assert_eq!(outcome.probes, Some(6));

    let spec = resolve_spec("replay-demo").expect("spec");
    let (kind, fingerprint) = (spec.kind(), spec.fingerprint());
    let plan = ServeStore::new(store_root.clone()).plan("replay-demo", kind, fingerprint);
    let report = std::fs::read_to_string(report_path_for(&plan.full_path()))
        .expect("an orchestrated pass writes its run report");
    assert!(report.contains("\"shards\": 3"), "{report}");
    assert!(report.contains("\"workers\": 2"), "{report}");
    let orchestrated =
        persist::load_collection(&plan.full_path(), fingerprint).expect("assembled corpus");
    let reference = collect(spec.experiment());
    let _ = std::fs::remove_dir_all(&store_root);
    assert!(
        timing_free_bytes(orchestrated, kind, fingerprint)
            == timing_free_bytes(reference, kind, fingerprint),
        "the orchestrated corpus must encode byte-identically to the in-process collection"
    );
}

#[test]
fn absurd_supervision_requests_are_error_events_before_any_launch() {
    // A worker binary that does not exist: a missing bound would reach
    // the supervisor and fail on allocation or spawning, not here.
    let (addr, store_root) = start_service("bounds", Path::new("/nonexistent/pbserve"));
    for (request, what) in [
        (submit(1, 1 << 40, 3), "shards"),
        (submit(1 << 40, 0, 3), "workers"),
        (submit(7, 0, 3), "workers"),
        (submit(1, 7, 3), "shards"),
        (submit(1, 0, 0), "max_attempts"),
    ] {
        let err = serve::request(&addr, &request, |_| {}).expect_err(what);
        assert!(err.starts_with("server error: "), "{what}: {err}");
    }
    let spec = resolve_spec("replay-demo").expect("spec");
    let plan =
        ServeStore::new(store_root.clone()).plan("replay-demo", spec.kind(), spec.fingerprint());
    let files: Vec<_> = std::fs::read_dir(&plan.dir)
        .expect("tenant dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&store_root);
    assert!(
        files.is_empty(),
        "a rejected pass must leave nothing behind: {files:?}"
    );
}
