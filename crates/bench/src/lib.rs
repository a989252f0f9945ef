//! Shared helpers for the table/figure regeneration harness.
//!
//! Every bench target regenerates one table or figure of the paper. Two
//! scales are supported, selected by the `PERFBUG_SCALE` environment
//! variable:
//!
//! * `quick` (default) — reduced probe counts and engine widths so the
//!   whole harness completes in tens of minutes on a laptop;
//! * `paper` — the full 190-probe, 42-variant configuration.
//!
//! # Orchestrated collection
//!
//! Setting `PERFBUG_ORCH_WORKERS=<n>` (with `PERFBUG_CACHE_DIR`) makes
//! [`collect_cached`] drive the whole collection through
//! `perfbug_core::orchestrate`: the probe axis is
//! split into more shards than workers (default `2n`,
//! `PERFBUG_ORCH_SHARDS` overrides), `n` child processes — re-invocations
//! of the current binary with `PERFBUG_SHARD=<i>/<m>` and
//! `PERFBUG_SHARD_ONLY=1` — collect shards off a work queue with bounded
//! retry on worker loss, and the parent assembles the merged corpus and
//! continues into evaluation. `pborch` (in `src/bin/pborch.rs`) is the
//! standalone CLI for the same driver. See `docs/ARCHITECTURE.md`.
//!
//! Outputs are plain text: the same rows/series the paper reports, plus a
//! header stating the scale. Absolute values are expected to differ from
//! the paper (different substrate); the *shape* is the reproduction target.
//!
//! # Collection cache
//!
//! Collection (simulate + train stage 1) dominates every target's runtime;
//! evaluation is cheap. When `PERFBUG_CACHE_DIR` is set, [`collect_cached`]
//! persists each collection — core or memory — to
//! `<dir>/<target>-<kind>-<config fingerprint>.pbcol` and later
//! invocations replay it from disk without invoking the simulator. The
//! experiment kind and the fingerprint are part of the file name, so
//! changing the scale or configuration collects into a fresh file instead
//! of tripping the stale-cache rejection, and core and memory experiments
//! never collide in a shared cache directory.
//!
//! # Sharded collection
//!
//! Setting `PERFBUG_SHARD=<index>/<count>` turns a bench target into one
//! shard worker of a `count`-process collection pass: it collects only its
//! probe range, streams it into the shard file beside the full cache file
//! — resuming a crashed predecessor's durable part-file prefix instead of
//! re-collecting it — and then either assembles the full corpus (when
//! every shard is on disk) and continues, or exits cleanly so the
//! remaining shards can be run, possibly on other hosts sharing the cache
//! directory. `pbcol merge` / `pbcol verify` (in `src/bin/pbcol.rs`) are
//! the matching offline cache tools. See the README walkthrough and
//! `docs/FORMAT.md`.

pub mod specs;

use std::path::{Path, PathBuf};
use std::time::Duration;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, Experiment, ProbeScale};
use perfbug_core::orchestrate::{self, CollectPlan, Fault, OrchestratorConfig};
use perfbug_core::persist::{self, CacheStatus, ExperimentKind, PersistError};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::{CnnParams, GbtParams, LassoParams, LstmParams, MlpParams};
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};

/// Harness scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Reduced scale (default).
    Quick,
    /// Full paper-shaped scale.
    Paper,
}

/// Reads `PERFBUG_SCALE` (`quick` default, `paper` for the full runs).
pub fn bench_scale() -> BenchScale {
    match std::env::var("PERFBUG_SCALE").as_deref() {
        Ok("paper") | Ok("full") => BenchScale::Paper,
        _ => BenchScale::Quick,
    }
}

/// Picks a probe cap: `quick` at reduced scale, unlimited at paper scale.
pub fn probe_cap(quick: usize) -> Option<usize> {
    match bench_scale() {
        BenchScale::Quick => Some(quick),
        BenchScale::Paper => None,
    }
}

/// Scales a neural width: reduced at quick scale, paper value otherwise.
pub fn width(paper_width: usize, quick_width: usize) -> usize {
    match bench_scale() {
        BenchScale::Quick => quick_width,
        BenchScale::Paper => paper_width,
    }
}

/// Prints the standard header of a regeneration target.
pub fn banner(id: &str, title: &str) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!(
        "scale: {:?} (set PERFBUG_SCALE=paper for the full run)",
        bench_scale()
    );
    println!("==========================================================");
}

/// The default catalogue at the current scale.
pub fn catalog() -> BugCatalog {
    match bench_scale() {
        BenchScale::Quick => BugCatalog::core_small(),
        BenchScale::Paper => BugCatalog::core_full(),
    }
}

/// A ready-to-run collection config at the current scale.
pub fn base_config(engines: Vec<EngineSpec>, quick_probes: usize) -> CollectionConfig {
    let mut config = CollectionConfig::new(engines, catalog());
    config.scale = ProbeScale::default();
    config.max_probes = probe_cap(quick_probes);
    config
}

/// The collection cache directory, read from `PERFBUG_CACHE_DIR`. `None`
/// disables caching (every run collects from scratch).
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var_os("PERFBUG_CACHE_DIR").map(PathBuf::from)
}

/// Parses `PERFBUG_SHARD` (`<index>/<count>`, e.g. `0/4`) via
/// [`ShardSpec::parse`] — the same grammar `pborch`'s `--shard` CLI
/// argument uses. `None` when unset; a malformed value panics rather
/// than silently collecting the full grid.
pub fn shard_from_env() -> Option<ShardSpec> {
    let raw = std::env::var("PERFBUG_SHARD").ok()?;
    Some(ShardSpec::parse(&raw).unwrap_or_else(|e| panic!("PERFBUG_SHARD: {e}")))
}

/// Orchestration parameters read from the environment
/// (`PERFBUG_ORCH_*`). `None` when `PERFBUG_ORCH_WORKERS` is unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchEnv {
    /// Worker pool size (`PERFBUG_ORCH_WORKERS`).
    pub workers: usize,
    /// Shard count (`PERFBUG_ORCH_SHARDS`, default `2 * workers` so the
    /// work queue can rebalance around a lost worker).
    pub shards: usize,
    /// Per-shard attempt budget (`PERFBUG_ORCH_MAX_ATTEMPTS`, default 3).
    pub max_attempts: u32,
    /// Per-shard timeout (`PERFBUG_ORCH_TIMEOUT_SECS`, default none).
    pub timeout: Option<Duration>,
}

/// Reads the `PERFBUG_ORCH_*` knobs; `None` when orchestration is not
/// requested. Malformed values panic — a typo must not silently fall
/// back to a single-process pass.
pub fn orch_from_env() -> Option<OrchEnv> {
    fn num(var: &str) -> Option<u64> {
        let raw = std::env::var(var).ok()?;
        match raw.trim().parse() {
            Ok(n) if n > 0 => Some(n),
            _ => panic!("{var} must be a positive integer, got {raw:?}"),
        }
    }
    let workers = num("PERFBUG_ORCH_WORKERS")? as usize;
    let shards = num("PERFBUG_ORCH_SHARDS").map_or(workers * 2, |n| n as usize);
    let max_attempts = num("PERFBUG_ORCH_MAX_ATTEMPTS").map_or(3, |n| n as u32);
    let timeout = num("PERFBUG_ORCH_TIMEOUT_SECS").map(Duration::from_secs);
    Some(OrchEnv {
        workers,
        shards,
        max_attempts,
        timeout,
    })
}

fn cache_path(dir: &PathBuf, name: &str, kind: ExperimentKind, fingerprint: u64) -> PathBuf {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create cache dir {}: {e}", dir.display()));
    dir.join(persist::cache_file_name(name, kind, fingerprint))
}

fn report(status: CacheStatus, path: &Path) {
    match status {
        CacheStatus::Replayed => println!("  [cache] replayed {}", path.display()),
        CacheStatus::Assembled => {
            println!(
                "  [cache] assembled from shard files into {}",
                path.display()
            )
        }
        CacheStatus::Collected => println!("  [cache] collected and saved {}", path.display()),
    }
}

/// One shard worker's turn: collect (or replay) this process's shard file,
/// then either assemble the full corpus from the shards on disk or exit
/// cleanly, telling the operator which shards are still missing. Exiting
/// (rather than returning a partial corpus) keeps every bench target's
/// evaluation phase oblivious to sharding.
///
/// Under `PERFBUG_SHARD_ONLY=1` (set by the orchestrator for its child
/// workers) the worker never assembles: the supervisor owns assembly, so
/// after saving its shard the worker replays a pre-existing full corpus
/// (letting multi-collection targets progress past already-orchestrated
/// passes) or exits cleanly.
fn run_shard_worker(
    dir: &Path,
    name: &str,
    config: &dyn Experiment,
    fingerprint: u64,
    shard: ShardSpec,
) -> Collection {
    let kind = config.kind();
    let shard_path = dir.join(persist::shard_file_name(
        name,
        kind,
        fingerprint,
        shard.index,
        shard.count,
    ));
    let outcome = persist::collect_shard_or_resume(&shard_path, config, shard)
        .unwrap_or_else(|e| panic!("shard cache {}: {e}", shard_path.display()));
    match outcome.status {
        CacheStatus::Replayed => println!("  [shard] replayed {}", shard_path.display()),
        _ if outcome.resumed_probes > 0 => println!(
            "  [shard] collected and saved {} (resumed {} durable probe(s) \
             from a crashed attempt's part file)",
            shard_path.display(),
            outcome.resumed_probes
        ),
        _ => println!("  [shard] collected and saved {}", shard_path.display()),
    }
    let full = dir.join(persist::cache_file_name(name, kind, fingerprint));
    if std::env::var_os("PERFBUG_SHARD_ONLY").is_some() {
        return match persist::load_collection(&full, fingerprint) {
            Ok(col) => {
                println!("  [shard] full corpus already assembled; replaying it");
                col
            }
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                println!(
                    "  [shard] {}/{} done (orchestrated worker; the supervisor assembles)",
                    shard.index, shard.count
                );
                std::process::exit(0);
            }
            Err(e) => panic!("replaying {}: {e}", full.display()),
        };
    }
    match persist::load_or_assemble(&full, kind, fingerprint) {
        Ok(Some((col, status))) => {
            report(status, &full);
            col
        }
        Ok(None) => {
            println!(
                "  [shard] {}/{} done; corpus incomplete — run the remaining shards \
                 (PERFBUG_SHARD=<i>/{}), then re-run any target to assemble \
                 (or run `pbcol merge`)",
                shard.index, shard.count, shard.count
            );
            std::process::exit(0);
        }
        Err(e) => panic!("assembling corpus {}: {e}", full.display()),
    }
}

/// Drives an orchestrated collection pass for this bench target: child
/// re-invocations of the current binary collect shards off a work queue
/// (`PERFBUG_SHARD=<i>/<n>` + `PERFBUG_SHARD_ONLY=1`, stdout silenced),
/// the supervisor retries lost/hung/failed workers within the budget, and
/// the merged corpus is returned to the caller's evaluation phase.
fn run_orchestrated(
    dir: &Path,
    name: &str,
    kind: ExperimentKind,
    fingerprint: u64,
    orch: &OrchEnv,
) -> Collection {
    let plan = CollectPlan {
        dir: dir.to_path_buf(),
        prefix: name.to_string(),
        kind,
        fingerprint,
    };
    let mut config = OrchestratorConfig::new(orch.workers, orch.shards);
    config.max_attempts = orch.max_attempts;
    config.shard_timeout = orch.timeout;
    config.faults = Fault::from_env().unwrap_or_else(|e| panic!("{e}"));
    let exe = std::env::current_exe().expect("current executable for worker re-invocation");
    println!(
        "  [orch] {} workers x {} shards (<= {} attempts each) for {name} ...",
        config.workers, config.shards, config.max_attempts
    );
    let build = |shard: ShardSpec, _attempt: u32| {
        let mut cmd = std::process::Command::new(&exe);
        // Workers must re-run exactly this process's work: forward the
        // argv (e.g. a criterion bench-name filter), or a filtered
        // parent would orchestrate one collection while its children
        // collect another target's shards.
        cmd.args(std::env::args_os().skip(1))
            .env("PERFBUG_CACHE_DIR", dir)
            .env("PERFBUG_SHARD", format!("{}/{}", shard.index, shard.count))
            .env("PERFBUG_SHARD_ONLY", "1")
            // Children must not recurse into orchestration, and injected
            // faults belong to this supervisor alone.
            .env_remove("PERFBUG_ORCH_WORKERS")
            .env_remove(orchestrate::FAULT_ENV)
            .stdout(std::process::Stdio::null());
        cmd
    };
    match orchestrate::orchestrate_collection(&plan, &config, build) {
        Ok(run) => {
            println!("  [orch] {}", run.report.summary());
            // The replay fast path launches nothing and writes no report.
            if run.report_path.exists() {
                println!("  [orch] run report: {}", run.report_path.display());
            }
            run.collection
        }
        Err(e) => panic!("orchestrated collection {name}: {e}"),
    }
}

/// Runs (or replays) a collection of either experiment. With
/// `PERFBUG_CACHE_DIR` unset this is plain [`collect`]; with it set, the
/// collection persists under `name` and subsequent runs replay it without
/// simulating. With `PERFBUG_SHARD=<i>/<n>` also set, this process
/// becomes shard worker `i` of `n`; with `PERFBUG_ORCH_WORKERS=<n>` set
/// instead, it becomes the supervisor of an orchestrated pass (see the
/// module docs).
pub fn collect_cached(name: &str, config: &dyn Experiment) -> Collection {
    let Some(dir) = cache_dir() else {
        assert!(
            shard_from_env().is_none(),
            "PERFBUG_SHARD requires PERFBUG_CACHE_DIR (shards live in the cache directory)"
        );
        assert!(
            orch_from_env().is_none(),
            "PERFBUG_ORCH_WORKERS requires PERFBUG_CACHE_DIR (shards live in the cache directory)"
        );
        return collect(config);
    };
    let fingerprint = persist::config_fingerprint(config);
    if let Some(shard) = shard_from_env() {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create cache dir {}: {e}", dir.display()));
        return run_shard_worker(&dir, name, config, fingerprint, shard);
    }
    if let Some(orch) = orch_from_env() {
        return run_orchestrated(&dir, name, config.kind(), fingerprint, &orch);
    }
    let path = cache_path(&dir, name, config.kind(), fingerprint);
    let (col, status) = persist::collect_or_load(&path, config)
        .unwrap_or_else(|e| panic!("collection cache {}: {e}", path.display()));
    report(status, &path);
    col
}

/// The tiny 2-benchmark, 3-bug, 6-probe demo corpus shared by
/// `examples/replay.rs` (the CI replay guard), the CI `orchestrate-guard`
/// leg and `pborch`'s `replay-demo` spec: small enough to collect in
/// seconds, rich enough to exercise engines, sharding and merging.
pub fn replay_demo_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
        BugSpec::MispredictExtraDelay { t: 25 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 40,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite benchmark"),
        benchmark("462.libquantum").expect("suite benchmark"),
    ];
    config.max_probes = Some(6);
    config
}

/// GBT-250 (the paper's best engine — full size at every scale).
pub fn gbt250() -> EngineSpec {
    EngineSpec::Gbt(GbtParams {
        n_trees: 250,
        ..GbtParams::default()
    })
}

/// GBT-150.
pub fn gbt150() -> EngineSpec {
    EngineSpec::Gbt(GbtParams {
        n_trees: 150,
        ..GbtParams::default()
    })
}

/// Lasso.
pub fn lasso() -> EngineSpec {
    EngineSpec::Lasso(LassoParams::default())
}

/// `<layers>-MLP-<width>` scaled to the bench scale.
pub fn mlp(layers: usize, paper_width: usize, quick_width: usize) -> EngineSpec {
    EngineSpec::Mlp(MlpParams {
        hidden: vec![width(paper_width, quick_width); layers],
        max_epochs: match bench_scale() {
            BenchScale::Quick => 150,
            BenchScale::Paper => 400,
        },
        ..MlpParams::default()
    })
}

/// `<blocks>-CNN-<width>` scaled to the bench scale.
pub fn cnn(blocks: usize, paper_width: usize, quick_width: usize) -> EngineSpec {
    EngineSpec::Cnn(CnnParams {
        conv_blocks: blocks,
        hidden: width(paper_width, quick_width),
        max_epochs: match bench_scale() {
            BenchScale::Quick => 120,
            BenchScale::Paper => 300,
        },
        ..CnnParams::default()
    })
}

/// `<layers>-LSTM-<width>` scaled to the bench scale.
pub fn lstm(layers: usize, paper_width: usize, quick_width: usize) -> EngineSpec {
    EngineSpec::Lstm(LstmParams {
        layers,
        hidden: width(paper_width, quick_width),
        max_epochs: match bench_scale() {
            BenchScale::Quick => 100,
            BenchScale::Paper => 250,
        },
        ..LstmParams::default()
    })
}

/// Formats a `DetectionMetrics` row's severity cells.
pub fn severity_cells(m: &perfbug_core::DetectionMetrics) -> Vec<String> {
    m.tpr_by_severity
        .iter()
        .map(|v| perfbug_core::report::opt_f(*v, 2))
        .collect()
}
