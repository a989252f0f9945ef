//! The detection-service core (`perfbug_core::serve`): flat-JSON
//! protocol robustness (round-trip, rejection of everything the protocol
//! excludes, no panics on arbitrary lines), request round-trips, and a
//! loopback end-to-end pass proving the property CI's service smoke
//! asserts — the first submission of a config collects, the second is
//! served from the multi-tenant store with **zero simulations**, and
//! tenants are isolated by fingerprint.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::CollectionConfig;
use perfbug_core::experiment::ProbeScale;
use perfbug_core::orchestrate::CollectPlan;
use perfbug_core::persist::{collect_or_load, config_fingerprint, ExperimentKind};
use perfbug_core::serve::{
    self, is_tenant_dir_name, parse_flat_object, ExperimentBackend, JsonValue, Request, RunOutcome,
    ServeOptions, ServeStore, SubmitRequest,
};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Flat-JSON parser properties
// ---------------------------------------------------------------------

/// Emits a flat object from a sorted map, mirroring the server's own
/// emission style (the parser must accept what the service produces).
fn emit_flat(fields: &BTreeMap<String, JsonValue>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{k}\": "));
        match v {
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Num(n) => out.push_str(&n.to_string()),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Expands a numeric seed into one field value (strings exercise the
/// escape paths).
fn value_from(sel: u64, n: i64) -> JsonValue {
    match sel % 4 {
        0 => JsonValue::Num(n),
        1 => JsonValue::Bool(n % 2 == 0),
        2 => JsonValue::Str(format!("plain-{:x}", n.unsigned_abs() % 0xffff)),
        _ => JsonValue::Str(format!("esc \"q\" \\ nl\n tail-{}", n.unsigned_abs() % 97)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_objects_round_trip(
        seeds in prop::collection::vec((0u64..4, any::<u64>()), 0..8),
    ) {
        let mut fields = BTreeMap::new();
        for (i, &(sel, raw)) in seeds.iter().enumerate() {
            fields.insert(format!("key_{i}"), value_from(sel, raw as i64));
        }
        let line = emit_flat(&fields);
        let parsed = parse_flat_object(&line);
        prop_assert_eq!(parsed, Ok(fields), "line was {}", line);
    }

    #[test]
    fn arbitrary_lines_never_panic_the_parser(
        bytes in prop::collection::vec(0u64..128, 0..96),
    ) {
        let line: String = bytes
            .iter()
            .filter_map(|&b| char::from_u32(b as u32))
            .collect();
        // Any result is fine — the property is "no panic".
        let _ = parse_flat_object(&line);
    }

    #[test]
    fn submit_requests_round_trip_through_their_protocol_line(
        workers in 0usize..9,
        shards in 0usize..17,
        max_attempts in 1u64..6,
        timeout_sel in 0u64..2,
        hosts_sel in 0u64..2,
        seed in any::<u64>(),
    ) {
        let request = Request::Submit(SubmitRequest {
            spec: format!("spec-{:x}", seed % 0x1000),
            workers,
            shards,
            max_attempts: max_attempts as u32,
            timeout_secs: (timeout_sel == 1).then_some(seed % 900),
            hosts: (hosts_sel == 1).then(|| format!("127.0.0.1:{}", 1024 + seed % 60000)),
        });
        prop_assert_eq!(Request::parse(&request.to_json()), Ok(request));
    }
}

#[test]
fn status_and_fetch_round_trip() {
    for request in [
        Request::Status,
        Request::Fetch {
            spec: "replay-demo".into(),
        },
    ] {
        assert_eq!(Request::parse(&request.to_json()), Ok(request));
    }
}

#[test]
fn the_parser_rejects_what_the_protocol_excludes() {
    for (line, what) in [
        ("", "empty line"),
        ("[1, 2]", "arrays"),
        ("{\"a\": {\"b\": 1}}", "nested objects"),
        ("{\"a\": 1.5}", "floats"),
        ("{\"a\": null}", "null"),
        ("{\"a\": 1, \"a\": 2}", "duplicate keys"),
        ("{\"a\": 1} trailing", "trailing content"),
        ("{\"a\": \"unterminated}", "unterminated strings"),
    ] {
        assert!(
            parse_flat_object(line).is_err(),
            "{what} must be rejected: {line:?}"
        );
    }
}

#[test]
fn a_submission_whose_attempt_budget_overflows_u32_is_rejected() {
    let line = |n: u64| format!("{{\"op\": \"submit\", \"spec\": \"s\", \"max_attempts\": {n}}}");
    let err = Request::parse(&line(u64::from(u32::MAX) + 1)).unwrap_err();
    assert!(err.contains("max_attempts"), "{err}");
    match Request::parse(&line(u64::from(u32::MAX))) {
        Ok(Request::Submit(s)) => assert_eq!(s.max_attempts, u32::MAX),
        other => panic!("the largest u32 budget must parse: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Loopback end-to-end: cold collect, then cache hit with zero sims
// ---------------------------------------------------------------------

fn tiny_config(max_probes: usize) -> CollectionConfig {
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
    config.max_probes = Some(max_probes);
    config.threads = 2;
    config
}

/// Backend over two in-process "specs": `alpha` (collectable) and
/// `beta` (a distinct fingerprint that is never collected, proving
/// tenant isolation).
struct TinyBackend {
    alpha: CollectionConfig,
    beta: CollectionConfig,
}

impl ExperimentBackend for TinyBackend {
    fn identity(&self, spec: &str) -> Result<(ExperimentKind, u64), String> {
        match spec {
            "alpha" => Ok((ExperimentKind::Core, config_fingerprint(&self.alpha))),
            "beta" => Ok((ExperimentKind::Core, config_fingerprint(&self.beta))),
            other => Err(format!("unknown spec {other:?}")),
        }
    }

    fn run(&self, submit: &SubmitRequest, plan: &CollectPlan) -> Result<RunOutcome, String> {
        let config = match submit.spec.as_str() {
            "alpha" => &self.alpha,
            "beta" => &self.beta,
            other => return Err(format!("unknown spec {other:?}")),
        };
        let (collection, status) =
            collect_or_load(&plan.full_path(), config).map_err(|e| e.to_string())?;
        Ok(RunOutcome {
            status,
            probes: collection.probes.len(),
        })
    }
}

struct Service {
    addr: String,
    store_root: PathBuf,
}

/// One shared service instance: the loopback tests below are ordered
/// statements about a single store's lifecycle, so they share it.
fn service() -> &'static Service {
    static SERVICE: OnceLock<Service> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let store_root = std::env::temp_dir().join(format!("perfbug-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        std::fs::create_dir_all(&store_root).expect("store root");
        let backend = TinyBackend {
            alpha: tiny_config(4),
            beta: tiny_config(3),
        };
        assert_ne!(
            config_fingerprint(&backend.alpha),
            config_fingerprint(&backend.beta),
            "the two specs must land in distinct tenants"
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let store = ServeStore::new(store_root.clone());
        std::thread::spawn(move || {
            let _ = serve::serve(listener, Arc::new(backend), store, ServeOptions::default());
        });
        Service { addr, store_root }
    })
}

fn submit_alpha() -> Request {
    Request::Submit(SubmitRequest {
        spec: "alpha".into(),
        workers: 0,
        shards: 0,
        max_attempts: 3,
        timeout_secs: None,
        hosts: None,
    })
}

#[test]
fn second_submission_is_a_cache_hit_with_zero_simulations() {
    let service = service();
    let mut first_events = Vec::new();
    let first = serve::request(&service.addr, &submit_alpha(), |line| {
        first_events.push(line.to_string())
    })
    .expect("first submission");
    // The first submission may race another test's — either it collected
    // or it was served the freshly collected corpus. Both end complete.
    assert!(
        first.status == "collected" || first.status == "cache-hit",
        "{first:?}"
    );
    assert!(first.probes.unwrap_or(0) > 0, "{first:?}");
    assert!(
        first_events.iter().any(|l| l.contains("\"accepted\"")),
        "{first_events:?}"
    );

    // The repeat submission is the service's core promise: served from
    // the store, zero simulations, same probe count.
    let mut events = Vec::new();
    let second = serve::request(&service.addr, &submit_alpha(), |line| {
        events.push(line.to_string())
    })
    .expect("second submission");
    assert_eq!(second.status, "cache-hit", "{events:?}");
    assert_eq!(second.simulations_run, Some(0), "{events:?}");
    assert_eq!(second.probes, first.probes);
    assert!(
        events.iter().any(|l| l.contains("\"cache-hit\"")),
        "{events:?}"
    );

    // The store now holds exactly alpha's tenant directory.
    let tenants: Vec<String> = std::fs::read_dir(&service.store_root)
        .expect("store root")
        .filter_map(|e| e.ok()?.file_name().to_str().map(String::from))
        .filter(|n| is_tenant_dir_name(n))
        .collect();
    assert_eq!(tenants.len(), 1, "{tenants:?}");
}

#[test]
fn fetch_never_collects_and_distinct_fingerprints_are_isolated_tenants() {
    let service = service();
    // Fetching beta must not touch alpha's corpus: beta's tenant is
    // empty, so the answer is "absent" — even after alpha collected.
    let outcome = serve::request(
        &service.addr,
        &Request::Fetch {
            spec: "beta".into(),
        },
        |_| {},
    )
    .expect("fetch");
    assert_eq!(outcome.status, "absent");
    assert_eq!(outcome.simulations_run, Some(0));
}

#[test]
fn unknown_specs_and_malformed_lines_surface_as_error_events() {
    let service = service();
    let err = serve::request(
        &service.addr,
        &Request::Fetch {
            spec: "no-such-spec".into(),
        },
        |_| {},
    )
    .expect_err("unknown spec");
    assert!(err.contains("server error"), "{err}");

    // A raw malformed line (not emitted by any Request) gets an error
    // event rather than a hang or a dropped connection.
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(&service.addr).expect("connect");
    stream.write_all(b"this is not json\n").expect("send");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("receive");
    assert!(line.contains("\"error\""), "{line:?}");
}

#[test]
fn status_lists_tenants_after_a_collection() {
    let service = service();
    // Ensure alpha exists regardless of test ordering.
    serve::request(&service.addr, &submit_alpha(), |_| {}).expect("submit");
    let mut events = Vec::new();
    let outcome = serve::request(&service.addr, &Request::Status, |line| {
        events.push(line.to_string())
    })
    .expect("status");
    assert_eq!(outcome.status, "ok");
    assert!(
        events.iter().any(|l| l.contains("\"tenant\"")),
        "{events:?}"
    );
}
