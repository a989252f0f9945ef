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
//! `docs/FORMAT.md`. A pass that needs supervision — a work queue with
//! bounded retry on worker loss — is a named spec ([`specs`]) run by
//! `pborch run` or `pbserve`, both through [`specs::orchestrate_spec`].

pub mod specs;

use std::path::{Path, PathBuf};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, Collection, CollectionConfig, Experiment, ProbeScale};
use perfbug_core::persist::{self, CacheStatus};
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

/// One shard worker's turn: collect (or resume, or replay) this process's
/// shard file, then either assemble the full corpus `full` from the
/// shards on disk or exit cleanly, telling the operator which shards are
/// still missing. Exiting (rather than returning a partial corpus) keeps
/// every bench target's evaluation phase oblivious to sharding.
fn run_shard_worker(
    dir: &Path,
    full: &Path,
    name: &str,
    config: &dyn Experiment,
    fingerprint: u64,
    shard: ShardSpec,
) -> (Collection, CacheStatus) {
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
    match persist::load_or_assemble(full, kind, fingerprint) {
        Ok(Some(assembled)) => assembled,
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

/// Runs (or replays) a collection of either experiment. With
/// `PERFBUG_CACHE_DIR` unset this is plain [`collect`]; with it set, the
/// collection persists under `name` and subsequent runs replay it without
/// simulating. With `PERFBUG_SHARD=<i>/<n>` also set, this process
/// becomes shard worker `i` of `n` (see the module docs). A pass that
/// needs supervised retry is a named spec run by `pborch` or `pbserve`.
pub fn collect_cached(name: &str, config: &dyn Experiment) -> Collection {
    let shard = shard_from_env();
    let Some(dir) = cache_dir() else {
        assert!(
            shard.is_none(),
            "PERFBUG_SHARD requires PERFBUG_CACHE_DIR (shards live in the cache directory)"
        );
        return collect(config);
    };
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create cache dir {}: {e}", dir.display()));
    let fingerprint = persist::config_fingerprint(config);
    let full = dir.join(persist::cache_file_name(name, config.kind(), fingerprint));
    let (col, status) = match shard {
        Some(shard) => run_shard_worker(&dir, &full, name, config, fingerprint, shard),
        None => persist::collect_or_load(&full, config)
            .unwrap_or_else(|e| panic!("collection cache {}: {e}", full.display())),
    };
    report(status, &full);
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
