//! The `serve-hit` workload: cache hits on an in-process detection
//! service.
//!
//! Set-up starts `serve::serve` on `127.0.0.1:0` over a fresh store with
//! the bench crate's `BenchBackend` and submits `replay-demo` and
//! `mem-quick` once each, cold (timed as this workload's collection pass).
//! Each round of the run makes one such set-up, evaluates the served
//! corpora, and then runs a closed loop of two clients that re-submit the
//! two specs alternately, each sending its next request after the
//! previous `done`. Every reply must be a `cache-hit` with
//! `simulations_run: 0`, so no simulation runs while hits are timed: only
//! the service, spec resolution and the PBCL load/decode path are.
//!
//! The accept loop of `serve::serve` has no shutdown; each set-up's
//! server thread stays parked in `accept` until the process exits.

use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbug_bench::specs::{resolve_spec, BenchBackend, SpecConfig};
use perfbug_core::exec;
use perfbug_core::experiment::Collection;
use perfbug_core::persist;
use perfbug_core::serve::{self, Request, ServeOptions, ServeStore, SubmitRequest};

use crate::digest::{self, Fnv};
use crate::spans::{self, Recorder};
use crate::{
    best_of, eval, median, pass, percentile, show, Ledger, Metrics, Oracle, Outcome, SplitMix,
};

const SPECS: [&str; 2] = ["replay-demo", "mem-quick"];
const CLIENTS: usize = 2;
/// Rounds run however short the run.
const MIN_ROUNDS: usize = 4;
/// Evaluations of the served corpora per round: an evaluation is short, so
/// several are.
const EVALS: usize = 2;
/// Seconds of the closed loop per round.
const HIT_ROUND_S: f64 = 0.25;

fn submit(spec: &str) -> Request {
    Request::Submit(SubmitRequest {
        spec: spec.to_string(),
        workers: 0,
        shards: 0,
        max_attempts: 3,
        timeout_secs: None,
        hosts: None,
    })
}

/// Starts a server over a fresh store in `dir`; returns its address.
fn start_server(dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let backend = Arc::new(BenchBackend { exe });
    let store = ServeStore::new(dir);
    std::thread::spawn(move || serve::serve(listener, backend, store, ServeOptions::default()));
    Ok(addr)
}

struct Served {
    addr: String,
    store: PathBuf,
    /// Probes of each spec's corpus, in `SPECS` order.
    probes: [u64; 2],
}

/// The cached corpus of `spec` in the store and its file path.
fn load_served(store: &Path, spec: &str) -> Result<(Collection, PathBuf, u64), String> {
    let config = resolve_spec(spec)?;
    let plan = ServeStore::new(store).plan(spec, config.kind(), config.fingerprint());
    let path = plan.full_path();
    let col = persist::load_collection(&path, config.fingerprint()).map_err(|e| e.to_string())?;
    Ok((col, path, config.fingerprint()))
}

fn trace_len(spec: &str) -> Result<usize, String> {
    Ok(match resolve_spec(spec)? {
        SpecConfig::Core(c) => c.scale.workload.interval_len,
        SpecConfig::Memory(c) => c.workload.interval_len,
    })
}

/// One client's request order: the two specs alternately, starting with
/// `SPECS[client % 2]`; a nonzero seed shuffles the order of each pair.
fn order(client: usize, seed: u64) -> impl FnMut() -> usize {
    let mut rng = SplitMix::new(seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut pair = [client % 2, 1 - client % 2];
    let mut next = 2;
    move || {
        if next == 2 {
            if seed != 0 && rng.next_u64() & 1 == 1 {
                pair.swap(0, 1);
            }
            next = 0;
        }
        next += 1;
        pair[next - 1]
    }
}

struct ClientLog {
    latencies_ms: Vec<f64>,
    /// Seconds inside traced request spans.
    busy: f64,
    attempted: u64,
    failed: u64,
    wall: f64,
}

/// A closed-loop client: requests until `stop` says so.
fn client(
    served: &Served,
    id: usize,
    seed: u64,
    mut stop: impl FnMut(u64) -> bool,
    rec: Option<&Recorder>,
) -> ClientLog {
    let mut next = order(id, seed);
    let mut log = ClientLog {
        latencies_ms: Vec::new(),
        busy: 0.0,
        attempted: 0,
        failed: 0,
        wall: 0.0,
    };
    let t_start = Instant::now();
    while !stop(log.attempted) {
        let s = next();
        let request = submit(SPECS[s]);
        log.attempted += 1;
        let t0 = Instant::now();
        let start_ns = rec.map_or(0, Recorder::now_ns);
        let (mut accepted, mut hit) = (start_ns, start_ns);
        // A panicking request is a failed one, like an error reply.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve::request(&served.addr, &request, |line| {
                if let Some(rec) = rec {
                    if line.contains("\"event\": \"accepted\"") {
                        accepted = rec.now_ns();
                    } else if line.contains("\"event\": \"cache-hit\"") {
                        hit = rec.now_ns();
                    }
                }
            })
        }))
        .unwrap_or_else(|_| Err("request panicked".into()));
        let done = t0.elapsed().as_secs_f64();
        let ok = matches!(&outcome, Ok(o) if o.status == "cache-hit"
            && o.simulations_run == Some(0)
            && o.probes == Some(served.probes[s]));
        if ok {
            log.latencies_ms.push(done * 1e3);
            if let Some(rec) = rec {
                let end = rec.now_ns();
                let req = rec.record("serve.request", None, start_ns, end);
                rec.record("serve.accepted", Some(req), start_ns, accepted);
                rec.record("serve.hit", Some(req), accepted, hit);
                rec.record("serve.done", Some(req), hit, end);
                log.busy += (end - start_ns) as f64 * 1e-9;
            }
        } else {
            log.failed += 1;
            eprintln!("perfbench: serve request {} failed: {outcome:?}", SPECS[s]);
        }
    }
    log.wall = t_start.elapsed().as_secs_f64();
    log
}

/// Runs the closed loop; `stop(requests sent)` ends each client.
fn closed_loop(
    served: &Served,
    seed: u64,
    ledger: &mut Ledger,
    stop: impl Fn(u64) -> bool + Sync,
    rec: Option<&Recorder>,
) -> (Vec<ClientLog>, f64) {
    let sims0 = exec::simulations_run();
    let t0 = Instant::now();
    let joined: Vec<std::thread::Result<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let stop = &stop;
                scope.spawn(move || client(served, id, seed, stop, rec))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut logs = Vec::new();
    for log in joined {
        match log {
            Ok(log) => {
                ledger.record(log.attempted, log.failed);
                logs.push(log);
            }
            Err(_) => {
                ledger.record(1, 0);
                ledger.fail("serve client", "panicked");
            }
        }
    }
    if exec::simulations_run() != sims0 {
        ledger.fail(
            "serve loop",
            "simulations ran while only cache hits were sent",
        );
    }
    (logs, wall)
}

/// One set-up and its timings.
struct SetUp {
    served: Served,
    /// Seconds to start the server over a fresh store.
    start_s: f64,
    /// Seconds of each spec's cold submission, in `SPECS` order.
    submit_s: [f64; 2],
    /// Instructions simulated by the two submissions.
    insts: u64,
}

/// One set-up: server, store, and a cold submission of each spec.
fn setup(work: &Path, i: usize, ledger: &mut Ledger) -> Option<SetUp> {
    ledger.attempt("serve set-up", |_| {
        let t0 = Instant::now();
        let store = work.join(format!("store-{i}"));
        let addr = start_server(&store)?;
        let start_s = t0.elapsed().as_secs_f64();
        let mut submit_s = [0.0; 2];
        let mut probes = [0; 2];
        let mut insts = 0u64;
        for (s, spec) in SPECS.iter().enumerate() {
            let sims0 = exec::simulations_run();
            let t_submit = Instant::now();
            let outcome = serve::request(&addr, &submit(spec), |_| {})?;
            submit_s[s] = t_submit.elapsed().as_secs_f64();
            let sims = exec::simulations_run() - sims0;
            if outcome.status != "collected" || sims == 0 {
                return Err(format!("cold {spec} submission: {outcome:?}"));
            }
            probes[s] = outcome.probes.ok_or("done event without probes")?;
            insts += sims * trace_len(spec)? as u64;
        }
        let served = Served {
            addr,
            store,
            probes,
        };
        Ok(SetUp {
            served,
            start_s,
            submit_s,
            insts,
        })
    })
}

/// Evaluates both served corpora; checks the corpus and report digests.
fn evaluate(
    served: &Served,
    ledger: &mut Ledger,
    rec: Option<&Recorder>,
) -> Option<(f64, perfbug_core::DetectionMetrics)> {
    let evaluated = ledger.attempt("evaluation", |_| {
        let mut corpus = Fnv::new();
        let mut report = Fnv::new();
        let mut pooled = None;
        let mut secs = 0.0;
        for spec in SPECS {
            let (col, _, _) = load_served(&served.store, spec)?;
            corpus.u64(digest::corpus(&col));
            let t0 = Instant::now();
            let out = eval::run(&col, rec);
            secs += t0.elapsed().as_secs_f64();
            report.u64(out.report);
            pooled = pooled.or(Some(out.pooled));
        }
        Ok((
            secs,
            corpus.finish(),
            report.finish(),
            pooled.expect("two specs evaluated"),
        ))
    })?;
    let (secs, corpus, report, pooled) = evaluated;
    ledger.verify("evaluation", |oracle| oracle.check_corpus(corpus));
    ledger.verify("evaluation", |oracle| oracle.check_report(report));
    Some((secs, pooled))
}

pub fn run(work: &Path, seed: u64, seconds: f64, trace: bool, oracle: Oracle) -> Outcome {
    let mut ledger = Ledger::new(oracle);
    let mut m = Metrics::new();
    let mut spans = None;
    if trace {
        if let Some(set_up) = setup(work, 0, &mut ledger) {
            spans = Some(traced(&set_up.served, seed, seconds, &mut ledger, &mut m));
        }
    } else {
        untraced(work, seed, seconds, &mut ledger, &mut m);
    }
    Outcome {
        ledger,
        metrics: m,
        spans,
    }
}

/// Rounds until the run ends. A round times the host's reference kernel,
/// one set-up (a fresh server and store, and the cold submission of each
/// spec), `EVALS` evaluations of the served corpora, and `HIT_ROUND_S` of
/// the closed loop on the round's server. Set-ups and evaluations thus
/// sample the whole run, and as on the pass workloads each step is
/// reported as its fastest repeat (see `pass::untraced`); for the hits,
/// the round with the lowest median latency and the round with the most
/// hits per second. The steps of a
/// set-up are summed from their own fastest repeats: each submission
/// collects on every vCPU, and over ten runs on a shared 2-vCPU Xeon VM
/// the fastest whole set-up of a run spread by a sixth.
fn untraced(work: &Path, seed: u64, seconds: f64, ledger: &mut Ledger, m: &mut Metrics) {
    let start = Instant::now();
    let mut start_s = Vec::new();
    let mut submit_s = [Vec::new(), Vec::new()];
    let mut insts = 0;
    let mut eval_s = Vec::new();
    let mut latencies = Vec::new();
    let mut round_p50_ms = Vec::new();
    let mut round_rate = Vec::new();
    for i in 0.. {
        if i >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        m.sample_host();
        let Some(set_up) = setup(work, i, ledger) else {
            continue;
        };
        start_s.push(set_up.start_s);
        for (s, secs) in set_up.submit_s.iter().enumerate() {
            submit_s[s].push(*secs);
        }
        insts = set_up.insts;
        let served = set_up.served;
        for _ in 0..EVALS {
            if let Some((secs, pooled)) = evaluate(&served, ledger, None) {
                eval_s.push(secs);
                m.set("det_auc", pooled.roc_auc);
                m.set("det_tpr", pooled.tpr);
                m.set("det_fpr", pooled.fpr);
            }
        }
        let round_end = Instant::now() + Duration::from_secs_f64(HIT_ROUND_S);
        let (logs, wall) =
            closed_loop(&served, seed, ledger, |_| Instant::now() >= round_end, None);
        let round: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.latencies_ms.iter().copied())
            .collect();
        round_p50_ms.push(median(&round));
        round_rate.push(round.len() as f64 / wall);
        latencies.extend(round);
    }
    show("server start", &start_s);
    for (spec, samples) in SPECS.iter().zip(&submit_s) {
        show(&format!("cold {spec}"), samples);
    }
    let pass_s: f64 = submit_s.iter().map(|s| best_of(s)).sum();
    m.set("setup_s", best_of(&start_s) + pass_s);
    m.set("pass_s", pass_s);
    m.set("sim_minst_per_s", insts as f64 / pass_s / 1e6);
    m.set_best("eval_s", &eval_s);
    m.set("verdict_s", pass_s + best_of(&eval_s));
    m.set_best("hit_p50_ms", &round_p50_ms);
    m.set("hit_p95_ms", percentile(&latencies, 0.95));
    m.set("hits_per_s", round_rate.iter().copied().fold(0.0, f64::max));
}

/// Untraced then traced closed loops over the same number of requests,
/// traced evaluation and codec timings. No simulator or stage-1 layer
/// runs while hits are served, so those layers report zero.
fn traced(
    served: &Served,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
    m: &mut Metrics,
) -> Recorder {
    let rec = Recorder::new();
    let sims0 = exec::simulations_run();
    let half = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let (untraced, untraced_wall) =
        closed_loop(served, seed, ledger, |_| Instant::now() >= half, None);
    let untraced_n: u64 = untraced.iter().map(|l| l.attempted).sum();
    let per_client = untraced_n / CLIENTS as u64;
    let (logs, traced_wall) = closed_loop(
        served,
        seed,
        ledger,
        |sent| sent >= per_client.max(1),
        Some(&rec),
    );
    let traced_n: u64 = logs.iter().map(|l| l.attempted).sum();
    let spans = rec.snapshot();
    for (metric, layer) in [
        ("serve.accepted_ms", "serve.accepted"),
        ("serve.hit_ms", "serve.hit"),
        ("serve.done_ms", "serve.done"),
    ] {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.secs() * 1e3)
            .collect();
        m.set(metric, median(&v));
    }
    let untraced_per_request = untraced_wall / untraced_n.max(1) as f64;
    m.set(
        "trace.overhead_s",
        traced_wall - untraced_per_request * traced_n as f64,
    );
    let unattributed: f64 = logs.iter().map(|l| l.wall - l.busy).sum::<f64>() / CLIENTS as f64;
    m.set("trace.unattributed_s", unattributed);

    evaluate(served, ledger, Some(&rec));
    let spans = rec.snapshot();
    m.set("stage2.eval_s", spans::total_secs(&spans, "stage2.eval"));
    m.set("stage2.sweep_s", spans::total_secs(&spans, "stage2.sweep"));
    m.set(
        "baseline.eval_s",
        spans::total_secs(&spans, "baseline.eval"),
    );
    if let Some((col, path, fingerprint)) = ledger.attempt("load served corpus", |_| {
        load_served(&served.store, SPECS[0])
    }) {
        pass::codec(fingerprint, &col, &path, ledger, m);
    }
    for name in crate::SIMULATION_LAYER_METRICS {
        m.set(name, 0.0);
    }
    for name in crate::CORE_BENCHES {
        m.set(format!("uarch.cycles.{name}"), 0.0);
        m.set(format!("uarch.mcycles_per_s.{name}"), 0.0);
    }
    m.set("exec.sims", (exec::simulations_run() - sims0) as f64);
    rec
}
