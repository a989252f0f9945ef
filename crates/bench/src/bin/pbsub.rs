//! `pbsub` — client for the `pbserve` detection service: submit an
//! experiment, tail its progress events, or fetch a cached result.
//!
//! ```text
//! pbsub submit --spec <name> [--addr <host:port>] [--workers <n>]
//!              [--shards <m>] [--max-attempts <k>] [--timeout-secs <s>]
//!              [--hosts <h:p,...>]
//! pbsub fetch  --spec <name> [--addr <host:port>]
//! pbsub status [--addr <host:port>]
//! ```
//!
//! Every event line the server streams is printed verbatim (flat JSON —
//! greppable in CI logs); the exit code reflects the final `done` /
//! `error` event. `--addr` falls back to `PERFBUG_SERVE_ADDR`, then
//! `127.0.0.1:7411`.

use std::process::ExitCode;

use perfbug_bench::specs::{flag_value, submit_from_flags};
use perfbug_core::serve::{self, Request};

const USAGE: &str = "pbsub — submit to / query the pbserve detection service

USAGE:
    pbsub submit --spec <name>       collect (or replay) an experiment and
                                     tail its event stream
          [--addr <host:port>]       service address
                                     (default: PERFBUG_SERVE_ADDR, then 127.0.0.1:7411)
          [--workers <n>]            orchestrated worker pool (0 = in-process)
          [--shards <m>]             shard count (0 = min(2 x workers, probes))
          [--max-attempts <k>]       per-shard retry budget (default 3)
          [--timeout-secs <s>]       per-shard timeout
          [--hosts <h:p,...>]        fan out to pborch worker-daemons
    pbsub fetch  --spec <name> [--addr <host:port>]
                                     serve a cached result, never collect
    pbsub status [--addr <host:port>]
                                     list the store's tenants";

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
        "submit" => submit(rest),
        "fetch" => fetch(rest),
        "status" => status(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pbsub: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn addr_arg(args: &[String]) -> Result<String, String> {
    Ok(match flag_value(args, "--addr")? {
        Some(addr) => addr,
        None => serve::addr_from_env(),
    })
}

fn tail(addr: &str, request: &Request) -> Result<(), String> {
    let outcome = serve::request(addr, request, |line| println!("{line}"))?;
    eprintln!("pbsub: {} ({addr})", outcome.status);
    Ok(())
}

fn submit(args: &[String]) -> Result<(), String> {
    let spec = flag_value(args, "--spec")?.ok_or("--spec <name> is required")?;
    let request = Request::Submit(submit_from_flags(spec, args)?);
    tail(&addr_arg(args)?, &request)
}

fn fetch(args: &[String]) -> Result<(), String> {
    let spec = flag_value(args, "--spec")?.ok_or("--spec <name> is required")?;
    tail(&addr_arg(args)?, &Request::Fetch { spec })
}

fn status(args: &[String]) -> Result<(), String> {
    tail(&addr_arg(args)?, &Request::Status)
}
