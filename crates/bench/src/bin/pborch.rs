//! `pborch` — shard orchestrator CLI: a process-pool driver for sharded
//! collection passes, local or distributed.
//!
//! Without a driver, sharded collection needs one hand-run
//! `PERFBUG_SHARD=<i>/<n>` invocation per worker. `pborch run` drives the
//! whole pass from one command: it partitions the probe axis into more shards than workers,
//! spawns shard workers as child processes (re-invocations of this binary
//! in `worker` mode), supervises them (exit status, shard-file
//! verification, optional per-shard timeout), requeues shards from
//! dead/hung/failed workers with a bounded retry budget, assembles the
//! merged corpus through `persist::load_or_assemble` (streaming
//! `persist::merge_shard_files`), and writes a JSON
//! run report beside the cache file (printed by `pbcol inspect` as
//! shard-attempt provenance).
//!
//! With `--hosts` (or `PERFBUG_ORCH_HOSTS`) the same supervision loop
//! fans shards out to `pborch worker-daemon` processes over the TCP
//! worker protocol (`docs/FORMAT.md` §8) instead of spawning local
//! children — a dead daemon or connection is just a failed attempt, and
//! the retry/requeue/byte-identity guarantees are unchanged.
//!
//! ```text
//! pborch run           --spec <name> --cache-dir <dir> --workers <n> [options]
//! pborch worker        --spec <name> --cache-dir <dir> --shard <i>/<n>
//! pborch worker-daemon --listen <host:port>
//! pborch specs
//! ```
//!
//! `PERFBUG_ORCH_FAULT=<op>:<shard>[@<attempt>]` injects worker faults
//! (supervisor-side test hook): `kill` right after launch, `killmid`
//! once at least one probe chunk is durable in the shard's part file,
//! and `torn` like `killmid` plus a mid-chunk tear of the part file.
//! Retries resume from the crashed attempt's durable chunk prefix
//! instead of re-collecting; CI's `orchestrate-guard` legs use the hook
//! with `--check-full` to prove on every push that a pass surviving
//! worker loss — including a torn write — still assembles the
//! bit-identical corpus.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use perfbug_bench::specs::{
    flag_value, parse_num, resolve_spec, run_worker, worker_command, SpecConfig, SPECS,
};
use perfbug_core::exec::ShardSpec;
use perfbug_core::experiment::{collect, Collection};
use perfbug_core::orchestrate::{self, remote, CollectPlan, Fault, OrchestratorConfig};
use perfbug_core::persist::{encode_collection_with, FileHeader, ShardManifest, CORPUS_REVISION};

const USAGE: &str = "pborch — shard orchestrator (process-pool driver with retry/requeue)

USAGE:
    pborch run    --spec <name> --cache-dir <dir> --workers <n>
                  [--shards <m>]        shard count (default 2 x workers)
                  [--max-attempts <k>]  per-shard retry budget (default 3)
                  [--timeout-secs <s>]  per-shard timeout (default none)
                  [--hosts <h:p,...>]   fan shards out to worker daemons
                                        (default: PERFBUG_ORCH_HOSTS; unset
                                        means local child processes)
                  [--check-full]        also collect single-process and fail
                                        unless the merged corpus is
                                        bit-identical (timings zeroed)
    pborch worker --spec <name> --cache-dir <dir> --shard <i>/<n>
                  (internal: one shard worker's turn; run exits after the
                   shard is saved)
    pborch worker-daemon --listen <host:port>
                  serve LaunchShard requests over TCP: each accepted
                  launch re-invokes this binary in worker mode and
                  streams heartbeat/checksum/exit frames back
    pborch specs  list the named collection specs

Faults: PERFBUG_ORCH_FAULT=<op>:<shard>[@<attempt>][,...] makes the
supervisor fault that shard's worker on that attempt (default: first).
Ops: kill (right after launch), killmid (once >= 1 probe chunk is
durable in the part file), torn (killmid + mid-chunk tear of the part
file). Retries resume from the durable chunk prefix; the supervisor
prints `resumed=<k>` per resuming attempt. Over --hosts, a supervisor
kill closes the daemon connection, which kills the remote worker.
The run report lands at <cache-dir>/<spec>-<kind>-<fp>.orchrun.json.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "run" => run(rest),
        "worker" => run_worker(rest),
        "worker-daemon" => worker_daemon(rest),
        "specs" => {
            for (name, desc) in SPECS {
                println!("{name:<12} {desc}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pborch: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Flags shared by `run` and `worker`.
struct CommonArgs {
    spec_name: String,
    spec: SpecConfig,
    cache_dir: PathBuf,
}

fn parse_common(args: &[String]) -> Result<CommonArgs, String> {
    let spec_name =
        flag_value(args, "--spec")?.ok_or("--spec <name> is required (see `pborch specs`)")?;
    let cache_dir = flag_value(args, "--cache-dir")?.ok_or("--cache-dir <dir> is required")?;
    let spec = resolve_spec(&spec_name)?;
    Ok(CommonArgs {
        spec_name,
        spec,
        cache_dir: PathBuf::from(cache_dir),
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let common = parse_common(args)?;
    let workers: usize = match flag_value(args, "--workers")? {
        Some(raw) => parse_num(&raw, "--workers")?,
        None => return Err("--workers <n> is required".into()),
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let shards: usize = match flag_value(args, "--shards")? {
        Some(raw) => parse_num(&raw, "--shards")?,
        None => workers * 2,
    };
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let mut config = OrchestratorConfig::new(workers, shards);
    if let Some(raw) = flag_value(args, "--max-attempts")? {
        config.max_attempts = parse_num(&raw, "--max-attempts")?;
        if config.max_attempts == 0 {
            return Err("--max-attempts must be at least 1".into());
        }
    }
    if let Some(raw) = flag_value(args, "--timeout-secs")? {
        config.shard_timeout = Some(Duration::from_secs(parse_num(&raw, "--timeout-secs")?));
    }
    config.faults = Fault::from_env()?;
    let check_full = args.iter().any(|a| a == "--check-full");
    let hosts = match flag_value(args, "--hosts")? {
        Some(raw) => Some(remote::parse_hosts(&raw).map_err(|e| format!("--hosts: {e}"))?),
        None => remote::hosts_from_env()?,
    };

    let kind = common.spec.kind();
    let fingerprint = common.spec.fingerprint();
    let plan = CollectPlan {
        dir: common.cache_dir.clone(),
        prefix: common.spec_name.clone(),
        kind,
        fingerprint,
    };
    println!(
        "orchestrating {}: {} workers x {} shards (<= {} attempts each{}), fingerprint {:016x}",
        common.spec_name,
        config.workers,
        config.shards,
        config.max_attempts,
        if config.faults.is_empty() {
            String::new()
        } else {
            format!(", {} injected fault(s)", config.faults.len())
        },
        fingerprint
    );
    let run = match hosts {
        Some(hosts) => {
            println!(
                "  distributed: fan-out over {} worker daemon(s): {}",
                hosts.len(),
                hosts.join(", ")
            );
            let mut launcher = remote::RemoteLauncher::for_plan(hosts, &plan);
            orchestrate::orchestrate_collection_with(&plan, &config, &mut launcher)
        }
        None => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
            let spec_name = common.spec_name.clone();
            let cache_dir = common.cache_dir.clone();
            let build = move |shard: ShardSpec, attempt: u32| {
                println!(
                    "  launch shard {}/{} (attempt {attempt})",
                    shard.index, shard.count
                );
                worker_command(&exe, &spec_name, &cache_dir, shard)
            };
            orchestrate::orchestrate_collection(&plan, &config, build)
        }
    }
    .map_err(|e| format!("{}: {e}", common.spec_name))?;
    println!("{}", run.report.summary());
    // Resume accounting: retries that picked up a crashed attempt's
    // durable part-file prefix (worker stdout is nulled, so the
    // supervisor reports this; CI's torn-fault guard greps for it).
    for a in &run.report.attempts {
        if let Some(k) = a.resumed_probes {
            println!(
                "  shard {} attempt {}: resumed={k} durable probe(s) from the previous attempt",
                a.shard, a.attempt
            );
        }
    }
    println!("obtained corpus: {:?}", run.status);
    // The replay fast path launches nothing and writes no report.
    if run.report_path.exists() {
        println!("run report: {}", run.report_path.display());
    }

    if check_full {
        println!("check-full: collecting single-process reference ...");
        let header = |col: &Collection| FileHeader {
            kind,
            corpus_revision: CORPUS_REVISION,
            fingerprint,
            manifest: ShardManifest::full(col.probes.len()),
        };
        let mut orchestrated = run.collection;
        let mut reference = collect(common.spec.experiment());
        orchestrated.zero_timings();
        reference.zero_timings();
        let orch_bytes = encode_collection_with(&orchestrated, &header(&orchestrated));
        let ref_bytes = encode_collection_with(&reference, &header(&reference));
        if orch_bytes != ref_bytes {
            return Err(format!(
                "orchestrated corpus is NOT bit-identical to the single-process collection \
                 ({} vs {} encoded bytes)",
                orch_bytes.len(),
                ref_bytes.len()
            ));
        }
        println!(
            "check-full: merged corpus is bit-identical to the single-process collection \
             ({} encoded bytes, timings zeroed)",
            orch_bytes.len()
        );
    }
    Ok(())
}

/// `pborch worker-daemon --listen <host:port>`: serve shard launches
/// over the TCP worker protocol. Every admitted launch re-invokes this
/// binary in `worker` mode exactly as a local `pborch run` would; the
/// config fingerprint in each request must match this binary's own
/// resolution of the spec, so supervisor/daemon version skew is rejected
/// up front.
fn worker_daemon(args: &[String]) -> Result<(), String> {
    let listen = flag_value(args, "--listen")?.ok_or("--listen <host:port> is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let listener =
        TcpListener::bind(&listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(listen);
    println!("pborch worker-daemon listening on {addr}");
    let agent = remote::CommandAgent {
        admit: perfbug_bench::specs::admit_launch,
        build: move |req: &remote::LaunchRequest| {
            worker_command(
                &exe,
                &req.prefix,
                std::path::Path::new(&req.cache_dir),
                req.shard,
            )
        },
    };
    remote::serve_daemon(listener, Arc::new(agent), remote::DaemonOptions::default())
        .map_err(|e| format!("worker-daemon: {e}"))
}
