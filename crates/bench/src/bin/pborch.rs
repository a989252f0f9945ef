//! `pborch` — shard orchestrator CLI: a process-pool driver for sharded
//! collection passes, local or distributed.
//!
//! Without a driver, sharded collection needs one hand-run
//! `PERFBUG_SHARD=<i>/<n>` invocation per worker. `pborch run` drives the
//! whole pass from one command through `perfbug_bench::specs::orchestrate_spec`
//! — the same front door `pbserve` uses for orchestrated submissions, with
//! the same defaults and validation. It partitions the probe axis into
//! more shards than workers, spawns shard workers as child processes
//! (re-invocations of this binary in `worker` mode), supervises them (exit
//! status, shard-file verification, optional per-shard timeout), requeues
//! shards from dead/hung/failed workers with a bounded retry budget,
//! assembles the merged corpus through `persist::load_or_assemble`
//! (streaming `persist::merge_shard_files`), and writes a JSON run report
//! beside the cache file (printed by `pbcol inspect` as shard-attempt
//! provenance).
//!
//! With `--hosts` the same supervision loop fans shards out to
//! `pborch worker-daemon` processes over the TCP worker protocol
//! (`docs/FORMAT.md` §8) instead of spawning local children — a dead
//! daemon or connection is just a failed attempt, and the
//! retry/requeue/byte-identity guarantees are unchanged.
//!
//! ```text
//! pborch run           --spec <name> --cache-dir <dir> --workers <n> [options]
//! pborch worker        --spec <name> --cache-dir <dir> --shard <i>/<n>
//! pborch worker-daemon --listen <host:port>
//! pborch specs
//! ```
//!
//! `PERFBUG_ORCH_FAULT=<op>:<shard>[@<attempt>]` injects worker faults
//! (a test hook): the supervisor kills the worker right after launch
//! (`kill`), or hands the worker its fault with the launch, and the
//! worker stops itself after its first durable probe chunk (`killmid`)
//! or tears its second chunk and stops (`torn`). A fault that cannot
//! fire on the pass is an error. Retries resume from the crashed
//! attempt's durable chunk prefix instead of re-collecting; CI's guard
//! legs use the hook with `--check-full` to prove on every push that a
//! pass surviving worker loss — including a torn write — still
//! assembles the bit-identical corpus.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use perfbug_bench::specs::{
    flag_value, orchestrate_spec, resolve_spec, run_worker, submit_from_flags, timing_free_bytes,
    worker_command, SpecConfig, SPECS,
};
use perfbug_core::experiment::collect;
use perfbug_core::orchestrate::{remote, CollectPlan, Fault};

const USAGE: &str = "pborch — shard orchestrator (process-pool driver with retry/requeue)

USAGE:
    pborch run    --spec <name> --cache-dir <dir> --workers <n>
                  [--shards <m>]        shard count (default, or 0:
                                        min(2 x workers, probes)); workers
                                        and shards are at most the spec's
                                        probe count
                  [--max-attempts <k>]  per-shard retry budget (default 3)
                  [--timeout-secs <s>]  per-shard timeout (default none)
                  [--hosts <h:p,...>]   fan shards out to worker daemons
                                        (default: local child processes)
                  [--check-full]        also collect single-process and fail
                                        unless the merged corpus is
                                        bit-identical (timings zeroed)
    pborch worker --spec <name> --cache-dir <dir> --shard <i>/<n>
                  [--fault killmid|torn]
                  (internal: one shard worker's turn; run exits after the
                   shard is saved)
    pborch worker-daemon --listen <host:port>
                  serve LaunchShard requests over TCP: each accepted
                  launch re-invokes this binary in worker mode and
                  streams checksum/exit frames back
    pborch specs  list the named collection specs

Faults: PERFBUG_ORCH_FAULT=<op>:<shard>[@<attempt>][,...] faults that
shard's worker on that attempt (default: first). Ops: kill (the
supervisor kills the worker right after launch), killmid (the worker
stops after its first durable probe chunk), torn (the worker tears its
second chunk's checksum off the part file, then stops). A fault that
cannot fire on the pass is an error, and so is one the pass never
reached (the run exits 1). Retries resume from the durable
chunk prefix; the supervisor prints `resumed=<k>` per resuming attempt.
Over --hosts, a supervisor kill closes the daemon connection, which
kills the remote worker.
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
    let request = submit_from_flags(common.spec_name.clone(), args)?;
    let faults = Fault::from_env()?;
    let check_full = args.iter().any(|a| a == "--check-full");

    let kind = common.spec.kind();
    let fingerprint = common.spec.fingerprint();
    let plan = CollectPlan {
        dir: common.cache_dir.clone(),
        prefix: common.spec_name.clone(),
        kind,
        fingerprint,
    };
    println!(
        "orchestrating {}: {} workers (<= {} attempts per shard{}), fingerprint {:016x}",
        common.spec_name,
        request.workers,
        request.max_attempts,
        if faults.is_empty() {
            String::new()
        } else {
            format!(", {} injected fault(s)", faults.len())
        },
        fingerprint
    );
    if let Some(hosts) = &request.hosts {
        println!("  distributed: fan-out over worker daemon(s) {hosts}");
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let run = orchestrate_spec(&common.spec, &plan, &request, &exe, faults)?;
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
        let orch_bytes = timing_free_bytes(run.collection, kind, fingerprint);
        let ref_bytes = timing_free_bytes(collect(common.spec.experiment()), kind, fingerprint);
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
                req.fault,
            )
        },
    };
    remote::serve_daemon(listener, Arc::new(agent), remote::DaemonOptions::default())
        .map_err(|e| format!("worker-daemon: {e}"))
}
