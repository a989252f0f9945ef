//! Requeue semantics at the collection level: **any** schedule of worker
//! losses still assembles a corpus bit-identical to the single-process
//! pass, a worker dying mid-shard leaves no partial `.pbcol` visible to
//! assembly (writes are temp-file + atomic rename), and retries are
//! bounded.
//!
//! Workers here run the real shard-collection path in-process (the fake
//! launcher calls `collect_shard_or_resume`); "killed" attempts write only
//! a junk in-flight temp file — exactly what a worker killed mid-`save`
//! leaves behind — and report a signal death to the supervisor.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, ProbeScale};
use perfbug_core::orchestrate::{
    run_orchestrator, verify_shard_file, CollectPlan, ExitKind, Launcher, OrchestratorConfig,
    WorkerHandle,
};
use perfbug_core::persist::{
    self, collect_shard_or_resume, config_fingerprint, encode_collection, is_temp_file_name,
    load_or_assemble, CacheStatus, ExperimentKind,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};
use proptest::prelude::*;

/// Per-shard attempt budget used throughout; kill schedules only touch
/// attempts `0..MAX_ATTEMPTS-1`, so every shard eventually lands.
const MAX_ATTEMPTS: u32 = 3;

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

/// The single-process reference, collected once and shared by all cases.
fn full_collection() -> &'static Collection {
    static FULL: OnceLock<Collection> = OnceLock::new();
    FULL.get_or_init(|| collect(&tiny_config()))
}

/// Fresh scratch cache directory per case.
fn scratch() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "perfbug-orchprops-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A worker that already ran to completion inside `launch`.
struct DoneHandle {
    killed: bool,
}

impl WorkerHandle for DoneHandle {
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
        Ok(Some(if self.killed {
            // A killed worker dies by signal: no exit code.
            ExitKind::Failure { code: None }
        } else {
            ExitKind::Success
        }))
    }

    fn kill(&mut self) {}
}

/// Launcher running the real shard-collection path synchronously;
/// scheduled kills skip collection and leave only the junk temp file a
/// worker killed mid-save would.
struct CollectLauncher<'a> {
    plan: &'a CollectPlan,
    config: &'a CollectionConfig,
    kills: &'a HashSet<(usize, u32)>,
}

impl Launcher for CollectLauncher<'_> {
    type Handle = DoneHandle;

    fn launch(&mut self, shard: ShardSpec, attempt: u32, _worker: usize) -> io::Result<DoneHandle> {
        if self.kills.contains(&(shard.index, attempt)) {
            // Death mid-save: the atomic-write discipline means at worst
            // an in-flight temp file is left, never a partial `.pbcol`.
            let tmp = self.plan.shard_path(shard).with_extension(format!(
                "{}.{}-kill.tmp",
                persist::FILE_EXTENSION,
                attempt
            ));
            std::fs::write(&tmp, b"partial bytes from a killed worker")?;
            return Ok(DoneHandle { killed: true });
        }
        let path = self.plan.shard_path(shard);
        collect_shard_or_resume(&path, self.config, shard)
            .map_err(|e| io::Error::other(format!("shard collection: {e}")))?;
        Ok(DoneHandle { killed: false })
    }

    fn verify(&mut self, shard: ShardSpec) -> Result<(), String> {
        verify_shard_file(self.plan, shard)
    }
}

/// Runs one orchestrated pass over `shards` shards with the given kill
/// schedule; returns the scratch dir and the report.
fn orchestrated_pass(
    shards: usize,
    kills: &HashSet<(usize, u32)>,
) -> (PathBuf, CollectPlan, perfbug_core::orchestrate::RunReport) {
    let dir = scratch();
    let config = tiny_config();
    let plan = CollectPlan {
        dir: dir.clone(),
        prefix: "orchprops".into(),
        kind: ExperimentKind::Core,
        fingerprint: config_fingerprint(&config),
    };
    let mut orch = OrchestratorConfig::new(2, shards);
    orch.max_attempts = MAX_ATTEMPTS;
    orch.poll_interval = Duration::from_millis(1);
    orch.retry_delay = Duration::from_millis(1);
    let mut launcher = CollectLauncher {
        plan: &plan,
        config: &config,
        kills,
    };
    let report = run_orchestrator(&orch, &mut launcher);
    (dir, plan, report)
}

/// Every `.pbcol` under `dir` must decode — a killed worker must never
/// leave a partial one visible.
fn assert_no_partial_pbcol(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext == persist::FILE_EXTENSION => {
                let bytes = std::fs::read(&path).expect("read pbcol");
                persist::decode_collection_with(&bytes, None).unwrap_or_else(|e| {
                    panic!("partial/corrupt {} visible to readers: {e}", path.display())
                });
            }
            _ => {}
        }
    }
}

/// Derives a kill schedule from a seed: each shard's first `k` attempts
/// are killed, `k` drawn per shard from the seed's bits and capped at
/// `MAX_ATTEMPTS - 1` (the final attempt is never killed, so the pass
/// always converges). Kills form a prefix because a later attempt only
/// exists once every earlier one failed.
fn kill_schedule(shards: usize, seed: u64) -> HashSet<(usize, u32)> {
    let mut kills = HashSet::new();
    for shard in 0..shards {
        let k = (seed >> ((2 * shard) % 63) & 0b11) as u32 % MAX_ATTEMPTS;
        for attempt in 0..k {
            kills.insert((shard, attempt));
        }
    }
    kills
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_kill_schedule_assembles_bit_identically(
        shards_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let shards = [2usize, 3, 5][shards_idx];
        let kills = kill_schedule(shards, seed);
        let (dir, plan, report) = orchestrated_pass(shards, &kills);
        prop_assert!(report.success, "kills {kills:?}: {}", report.summary());
        prop_assert_eq!(
            report.attempts.len(),
            shards + kills.len(),
            "every kill costs exactly one extra attempt"
        );

        // No partial `.pbcol` anywhere, and the junk temp files the kills
        // left behind are invisible to assembly.
        assert_no_partial_pbcol(&dir);
        let (mut merged, status) = load_or_assemble(&plan.full_path(), plan.kind, plan.fingerprint)
            .expect("assembly")
            .expect("complete shard set");
        prop_assert_eq!(status, CacheStatus::Assembled);

        let mut full = full_collection().clone();
        merged.zero_timings();
        full.zero_timings();
        prop_assert!(
            encode_collection(&merged, plan.fingerprint)
                == encode_collection(&full, plan.fingerprint),
            "kill schedule {kills:?} over {shards} shards diverged from the full pass"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_worker_leaves_only_an_ignored_temp_file() {
    let kills: HashSet<(usize, u32)> = [(1usize, 0u32)].into_iter().collect();
    let (dir, plan, report) = orchestrated_pass(3, &kills);
    assert!(report.success, "{}", report.summary());

    // The junk temp file is still on disk (prune's job, not assembly's) …
    let temps: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok()?.file_name().to_str().map(String::from))
        .filter(|n| is_temp_file_name(n))
        .collect();
    assert_eq!(temps.len(), 1, "exactly the kill's temp file: {temps:?}");

    // … and assembly both ignored it and produced the identical corpus.
    assert_no_partial_pbcol(&dir);
    let (mut merged, _) = load_or_assemble(&plan.full_path(), plan.kind, plan.fingerprint)
        .expect("assembly")
        .expect("complete shard set");
    let mut full = full_collection().clone();
    merged.zero_timings();
    full.zero_timings();
    assert!(
        encode_collection(&merged, plan.fingerprint) == encode_collection(&full, plan.fingerprint)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_dying_every_attempt_is_excluded_and_nothing_assembles() {
    let kills: HashSet<(usize, u32)> = (0..MAX_ATTEMPTS).map(|a| (0usize, a)).collect();
    let (dir, plan, report) = orchestrated_pass(2, &kills);
    assert!(!report.success);
    assert_eq!(report.excluded, vec![0]);
    assert_eq!(
        report.attempts_for(0).len(),
        MAX_ATTEMPTS as usize,
        "retries are bounded by the budget"
    );
    // Shard 1 still completed; the corpus is (correctly) not assemblable.
    assert!(report
        .attempts_for(1)
        .iter()
        .any(|a| a.outcome.is_success()));
    let assembled = load_or_assemble(&plan.full_path(), plan.kind, plan.fingerprint)
        .expect("no persistence error");
    assert!(assembled.is_none(), "an incomplete pass must not assemble");
    let _ = std::fs::remove_dir_all(&dir);
}
