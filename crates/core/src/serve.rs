//! The detection service core behind `pbserve`/`pbsub`: a line-delimited
//! JSON protocol over TCP, a multi-tenant corpus store keyed by config
//! fingerprint, and the submit/tail/fetch request loop.
//!
//! The orchestrator (PR 7) inverted "run an experiment" into "drive a
//! shard queue"; this module inverts control once more into a long-lived
//! service: clients submit an experiment *identity* (a spec name — the
//! server re-resolves the config, so arbitrary configs never cross the
//! wire), the server collects it through the existing orchestrate/persist
//! paths, and **repeat submissions replay from cache without a single
//! simulation** — the zero-positive regression-diagnosis workflow where
//! the same config is interrogated many times.
//!
//! Protocol: one request line in, event lines out, connection closes
//! after the final `done`/`error` event. Every line is a *flat* JSON
//! object (string/integer/boolean fields only) — deterministic to emit,
//! trivial to parse, and greppable in CI logs. The run report rides the
//! `report` event as an escaped string of the standard `orchrun.json`
//! schema.
//!
//! Storage: the store root holds one subdirectory per config fingerprint
//! (`<root>/<fingerprint:016x>/`), each an ordinary cache directory —
//! `pbcol verify`/`prune` operate on tenants individually or on the
//! whole store at once, and one tenant's stale files can never strand
//! another's complete shard set.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::exec;
use crate::orchestrate::{report_path_for, CollectPlan};
use crate::persist::{self, CacheStatus, ExperimentKind};
use crate::report::json_str;

/// Environment variable naming the address `pbserve` listens on (and
/// `pbsub` connects to). Default: [`DEFAULT_ADDR`].
pub const ADDR_ENV: &str = "PERFBUG_SERVE_ADDR";

/// Environment variable naming the multi-tenant store root directory.
pub const STORE_ENV: &str = "PERFBUG_SERVE_STORE";

/// Default service address when [`ADDR_ENV`] is unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// Longest accepted request line; anything bigger is a stray client.
const MAX_REQUEST_LINE: u64 = 64 * 1024;

// --------------------------------------------------------------------------
// Flat JSON
// --------------------------------------------------------------------------

/// A field value of the flat line protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// JSON string.
    Str(String),
    /// JSON integer (the protocol never uses floats).
    Num(i64),
    /// JSON boolean.
    Bool(bool),
}

impl JsonValue {
    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is an integer.
    pub fn as_num(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (string / integer / boolean values only,
/// no nesting) into a sorted field map. Rejects anything else — the
/// protocol is deliberately not a general JSON parser.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = line.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    let mut fields = BTreeMap::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            skip_ws(&mut chars);
            let value = parse_value(&mut chars)?;
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some(c) = chars.next() {
        return Err(format!("trailing content starting at {c:?}"));
    }
    Ok(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
        chars.next();
    }
}

fn parse_value(chars: &mut Chars<'_>) -> Result<JsonValue, String> {
    match chars.peek() {
        Some('"') => parse_string(chars).map(JsonValue::Str),
        Some('t') => parse_literal(chars, "true").map(|_| JsonValue::Bool(true)),
        Some('f') => parse_literal(chars, "false").map(|_| JsonValue::Bool(false)),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(chars).map(JsonValue::Num),
        other => Err(format!(
            "expected a string, integer or boolean, got {other:?}"
        )),
    }
}

fn parse_literal(chars: &mut Chars<'_>, lit: &str) -> Result<(), String> {
    for expected in lit.chars() {
        if chars.next() != Some(expected) {
            return Err(format!("malformed literal (expected {lit:?})"));
        }
    }
    Ok(())
}

fn parse_number(chars: &mut Chars<'_>) -> Result<i64, String> {
    let mut raw = String::new();
    if chars.peek() == Some(&'-') {
        raw.push('-');
        chars.next();
    }
    while let Some(c) = chars.peek() {
        if c.is_ascii_digit() {
            raw.push(*c);
            chars.next();
        } else {
            break;
        }
    }
    // Floats and exponents are outside the protocol.
    if matches!(chars.peek(), Some('.' | 'e' | 'E')) {
        return Err("non-integer numbers are not part of the protocol".into());
    }
    raw.parse::<i64>()
        .map_err(|_| format!("integer {raw:?} out of range"))
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("malformed \\u escape")?;
                        code = code * 16 + digit;
                    }
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

// --------------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------------

/// One experiment submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Named spec to collect (the server resolves it to a config).
    pub spec: String,
    /// Worker pool size; `0` collects in-process (no child processes).
    pub workers: usize,
    /// Shard count for orchestrated passes; `0` picks the default,
    /// `min(2 × workers, probes)`.
    pub shards: usize,
    /// Per-shard attempt budget for orchestrated passes (at least 1).
    pub max_attempts: u32,
    /// Optional per-shard timeout.
    pub timeout_secs: Option<u64>,
    /// Optional worker-daemon endpoints (distributed fan-out).
    pub hosts: Option<String>,
}

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Collect (or replay) an experiment, streaming progress events.
    Submit(SubmitRequest),
    /// List the store's tenants.
    Status,
    /// Serve a cached result without ever collecting.
    Fetch {
        /// Named spec to look up.
        spec: String,
    },
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_flat_object(line)?;
        let op = fields
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"op\" field")?;
        match op {
            "status" => Ok(Request::Status),
            "fetch" => Ok(Request::Fetch {
                spec: required_str(&fields, "spec")?,
            }),
            "submit" => {
                let timeout = match fields.get("timeout_secs").map(JsonValue::as_num) {
                    None => None,
                    Some(Some(n)) if n >= 0 => Some(n as u64),
                    Some(_) => return Err("\"timeout_secs\" must be a non-negative integer".into()),
                };
                Ok(Request::Submit(SubmitRequest {
                    spec: required_str(&fields, "spec")?,
                    workers: optional_usize(&fields, "workers")?.unwrap_or(0),
                    shards: optional_usize(&fields, "shards")?.unwrap_or(0),
                    max_attempts: match optional_usize(&fields, "max_attempts")? {
                        None => 3,
                        Some(n) => u32::try_from(n)
                            .map_err(|_| "\"max_attempts\" does not fit in 32 bits")?,
                    },
                    timeout_secs: timeout,
                    hosts: fields
                        .get("hosts")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string),
                }))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Serializes the request as its protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Status => "{\"op\": \"status\"}".to_string(),
            Request::Fetch { spec } => {
                format!("{{\"op\": \"fetch\", \"spec\": {}}}", json_str(spec))
            }
            Request::Submit(s) => {
                let mut out = format!(
                    "{{\"op\": \"submit\", \"spec\": {}, \"workers\": {}, \"shards\": {}, \
                     \"max_attempts\": {}",
                    json_str(&s.spec),
                    s.workers,
                    s.shards,
                    s.max_attempts
                );
                if let Some(t) = s.timeout_secs {
                    out.push_str(&format!(", \"timeout_secs\": {t}"));
                }
                if let Some(h) = &s.hosts {
                    out.push_str(&format!(", \"hosts\": {}", json_str(h)));
                }
                out.push('}');
                out
            }
        }
    }
}

fn required_str(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<String, String> {
    fields
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn optional_usize(
    fields: &BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<Option<usize>, String> {
    match fields.get(key) {
        None => Ok(None),
        Some(JsonValue::Num(n)) if *n >= 0 => Ok(Some(*n as usize)),
        Some(_) => Err(format!("field {key:?} must be a non-negative integer")),
    }
}

// --------------------------------------------------------------------------
// Store
// --------------------------------------------------------------------------

/// Multi-tenant corpus store: one cache directory per config
/// fingerprint under a common root.
#[derive(Debug, Clone)]
pub struct ServeStore {
    /// Store root; tenants are `<root>/<fingerprint:016x>/`.
    pub root: PathBuf,
}

/// One tenant directory of the store.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantSummary {
    /// Directory name (the 16-hex-digit fingerprint).
    pub tenant: String,
    /// Files currently in the tenant directory.
    pub files: usize,
}

impl ServeStore {
    /// Store rooted at `root` (created lazily per tenant).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeStore { root: root.into() }
    }

    /// The tenant directory of one config fingerprint.
    pub fn tenant_dir(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{fingerprint:016x}"))
    }

    /// The collection plan a submission with this identity runs under.
    pub fn plan(&self, prefix: &str, kind: ExperimentKind, fingerprint: u64) -> CollectPlan {
        CollectPlan {
            dir: self.tenant_dir(fingerprint),
            prefix: prefix.to_string(),
            kind,
            fingerprint,
        }
    }

    /// Existing tenants, sorted by fingerprint.
    pub fn tenants(&self) -> io::Result<Vec<TenantSummary>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !is_tenant_dir_name(&name) || !entry.path().is_dir() {
                continue;
            }
            let files = std::fs::read_dir(entry.path())?
                .filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .count();
            out.push(TenantSummary {
                tenant: name,
                files,
            });
        }
        out.sort();
        Ok(out)
    }
}

/// Whether `name` is a tenant directory name: exactly 16 lowercase hex
/// digits (a formatted config fingerprint).
pub fn is_tenant_dir_name(name: &str) -> bool {
    name.len() == 16
        && name
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

// --------------------------------------------------------------------------
// Backend + server loop
// --------------------------------------------------------------------------

/// How a served collection pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Cache disposition of the pass.
    pub status: CacheStatus,
    /// Probes in the resulting collection.
    pub probes: usize,
}

/// What the server delegates to the experiment layer: resolving a spec
/// name to its identity, and actually collecting a cold corpus. The
/// bench crate implements this over its named specs; tests script it.
pub trait ExperimentBackend: Send + Sync {
    /// Experiment identity of a named spec, without running anything.
    fn identity(&self, spec: &str) -> Result<(ExperimentKind, u64), String>;

    /// Collects the corpus for `plan` (the cache may be cold or
    /// partial). Implementations go through the standard persist /
    /// orchestrate paths so cache files stay byte-compatible.
    fn run(&self, submit: &SubmitRequest, plan: &CollectPlan) -> Result<RunOutcome, String>;
}

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long a connected client may take to send its request line.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Accept loop: serves every client on its own thread. Collections of
/// the same fingerprint are serialized through a per-tenant lock (two
/// submissions of one config cannot double-collect; the loser replays
/// the winner's cache), while distinct tenants proceed concurrently.
pub fn serve(
    listener: TcpListener,
    backend: Arc<dyn ExperimentBackend>,
    store: ServeStore,
    options: ServeOptions,
) -> io::Result<()> {
    let locks: TenantLocks = Arc::new(Mutex::new(BTreeMap::new()));
    loop {
        let (stream, _peer) = listener.accept()?;
        let backend = Arc::clone(&backend);
        let store = store.clone();
        let locks = Arc::clone(&locks);
        std::thread::spawn(move || {
            let _ = handle_client(stream, backend.as_ref(), &store, &locks, options);
        });
    }
}

type TenantLocks = Arc<Mutex<BTreeMap<u64, Arc<Mutex<()>>>>>;

fn tenant_lock(locks: &TenantLocks, fingerprint: u64) -> Arc<Mutex<()>> {
    let mut map = match locks.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    Arc::clone(map.entry(fingerprint).or_default())
}

/// Serves one client connection end to end.
pub fn handle_client(
    mut stream: TcpStream,
    backend: &dyn ExperimentBackend,
    store: &ServeStore,
    locks: &TenantLocks,
    options: ServeOptions,
) -> io::Result<()> {
    stream.set_read_timeout(Some(options.read_timeout))?;
    let mut line = String::new();
    {
        let mut reader = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_LINE);
        reader.read_line(&mut line)?;
    }
    let request = match Request::parse(line.trim_end()) {
        Ok(request) => request,
        Err(reason) => {
            emit(
                &mut stream,
                &format!(
                    "{{\"event\": \"error\", \"reason\": {}}}",
                    json_str(&reason)
                ),
            )?;
            return Ok(());
        }
    };
    match dispatch(&mut stream, backend, store, locks, &request) {
        Ok(()) => Ok(()),
        Err(reason) => emit(
            &mut stream,
            &format!(
                "{{\"event\": \"error\", \"reason\": {}}}",
                json_str(&reason)
            ),
        ),
    }
}

fn dispatch(
    stream: &mut TcpStream,
    backend: &dyn ExperimentBackend,
    store: &ServeStore,
    locks: &TenantLocks,
    request: &Request,
) -> Result<(), String> {
    match request {
        Request::Status => {
            let tenants = store.tenants().map_err(|e| format!("store scan: {e}"))?;
            for t in &tenants {
                emit_r(
                    stream,
                    &format!(
                        "{{\"event\": \"tenant\", \"tenant\": {}, \"files\": {}}}",
                        json_str(&t.tenant),
                        t.files
                    ),
                )?;
            }
            emit_r(
                stream,
                &format!(
                    "{{\"event\": \"done\", \"status\": \"ok\", \"tenants\": {}}}",
                    tenants.len()
                ),
            )
        }
        Request::Fetch { spec } => {
            let (kind, fingerprint) = backend.identity(spec)?;
            let plan = store.plan(spec, kind, fingerprint);
            emit_accepted(stream, spec, kind, fingerprint, &plan)?;
            match persist::load_or_assemble(&plan.full_path(), kind, fingerprint)
                .map_err(|e| format!("cache load: {e}"))?
            {
                Some((collection, status)) => {
                    emit_cache_hit(stream, status, collection.probes.len())?;
                    emit_report(stream, &plan)?;
                    emit_done(stream, "cache-hit", 0, collection.probes.len())
                }
                None => emit_r(
                    stream,
                    "{\"event\": \"done\", \"status\": \"absent\", \"simulations_run\": 0, \
                     \"probes\": 0}",
                ),
            }
        }
        Request::Submit(submit) => {
            let (kind, fingerprint) = backend.identity(&submit.spec)?;
            let plan = store.plan(&submit.spec, kind, fingerprint);
            emit_accepted(stream, &submit.spec, kind, fingerprint, &plan)?;
            std::fs::create_dir_all(&plan.dir).map_err(|e| format!("store dir: {e}"))?;
            // Fast path first: cache hits are served without taking the
            // tenant lock, so tailing readers never queue behind a
            // collection in progress.
            if let Some((collection, status)) =
                persist::load_or_assemble(&plan.full_path(), kind, fingerprint)
                    .map_err(|e| format!("cache load: {e}"))?
            {
                emit_cache_hit(stream, status, collection.probes.len())?;
                emit_report(stream, &plan)?;
                return emit_done(stream, "cache-hit", 0, collection.probes.len());
            }
            let lock = tenant_lock(locks, fingerprint);
            let _guard = match lock.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Double-check under the lock: a concurrent submission of
            // the same config may have collected while we waited.
            if let Some((collection, status)) =
                persist::load_or_assemble(&plan.full_path(), kind, fingerprint)
                    .map_err(|e| format!("cache load: {e}"))?
            {
                emit_cache_hit(stream, status, collection.probes.len())?;
                emit_report(stream, &plan)?;
                return emit_done(stream, "cache-hit", 0, collection.probes.len());
            }
            emit_r(
                stream,
                &format!(
                    "{{\"event\": \"collecting\", \"workers\": {}, \"shards\": {}}}",
                    submit.workers, submit.shards
                ),
            )?;
            // The delta is exact while submissions are serial (the CI
            // smoke) and an upper bound when tenants collect
            // concurrently — the counter is process-global.
            let sims_before = exec::simulations_run();
            let outcome = backend.run(submit, &plan)?;
            let sims = exec::simulations_run().saturating_sub(sims_before);
            emit_report(stream, &plan)?;
            // The cache was cold under the tenant lock, so whatever the
            // backend's persist path reports (Collected in-process,
            // Assembled after a worker pass), this submission did the
            // collecting.
            let _ = outcome.status;
            emit_done_sims(stream, "collected", sims, outcome.probes)
        }
    }
}

fn emit(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn emit_r(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    emit(stream, line).map_err(|e| format!("client write: {e}"))
}

fn emit_accepted(
    stream: &mut TcpStream,
    spec: &str,
    kind: ExperimentKind,
    fingerprint: u64,
    plan: &CollectPlan,
) -> Result<(), String> {
    emit_r(
        stream,
        &format!(
            "{{\"event\": \"accepted\", \"spec\": {}, \"kind\": {}, \
             \"fingerprint\": \"{fingerprint:016x}\", \"tenant\": {}}}",
            json_str(spec),
            json_str(kind.as_str()),
            json_str(&plan.dir.to_string_lossy())
        ),
    )
}

fn emit_cache_hit(
    stream: &mut TcpStream,
    status: CacheStatus,
    probes: usize,
) -> Result<(), String> {
    let how = match status {
        CacheStatus::Replayed => "replayed",
        CacheStatus::Assembled => "assembled",
        CacheStatus::Collected => "collected",
    };
    emit_r(
        stream,
        &format!("{{\"event\": \"cache-hit\", \"how\": \"{how}\", \"probes\": {probes}}}"),
    )
}

/// Streams the `orchrun.json` run report (when one exists) as an escaped
/// string — the report schema is unchanged; only the transport differs.
fn emit_report(stream: &mut TcpStream, plan: &CollectPlan) -> Result<(), String> {
    let path = report_path_for(&plan.full_path());
    let Ok(content) = std::fs::read_to_string(&path) else {
        return Ok(());
    };
    emit_r(
        stream,
        &format!(
            "{{\"event\": \"report\", \"path\": {}, \"content\": {}}}",
            json_str(&path.to_string_lossy()),
            json_str(&content)
        ),
    )
}

fn emit_done(stream: &mut TcpStream, status: &str, sims: u64, probes: usize) -> Result<(), String> {
    emit_done_sims(stream, status, sims, probes)
}

fn emit_done_sims(
    stream: &mut TcpStream,
    status: &str,
    sims: u64,
    probes: usize,
) -> Result<(), String> {
    emit_r(
        stream,
        &format!(
            "{{\"event\": \"done\", \"status\": \"{status}\", \"simulations_run\": {sims}, \
             \"probes\": {probes}}}"
        ),
    )
}

// --------------------------------------------------------------------------
// Client
// --------------------------------------------------------------------------

/// Terminal state of one request, distilled from the final `done` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// `done.status`: `collected`, `cache-hit`, `absent` or `ok`.
    pub status: String,
    /// `done.simulations_run`, when present.
    pub simulations_run: Option<u64>,
    /// `done.probes`, when present.
    pub probes: Option<u64>,
}

/// Sends one request and tails the event stream until the connection
/// closes, invoking `on_event` per raw line. `Err` on transport failure,
/// a server `error` event, or a stream that ends without `done`.
pub fn request(
    addr: &str,
    request: &Request,
    mut on_event: impl FnMut(&str),
) -> Result<ServeOutcome, String> {
    let target = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: resolved to no address"))?;
    let mut stream = TcpStream::connect(target).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("{}\n", request.to_json()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let reader = BufReader::new(stream);
    let mut outcome = None;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("receive: {e}"))?;
        on_event(&line);
        let fields =
            parse_flat_object(&line).map_err(|e| format!("unparsable event line {line:?}: {e}"))?;
        match fields.get("event").and_then(JsonValue::as_str) {
            Some("error") => {
                let reason = fields
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("(no reason)");
                return Err(format!("server error: {reason}"));
            }
            Some("done") => {
                outcome = Some(ServeOutcome {
                    status: fields
                        .get("status")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    simulations_run: fields
                        .get("simulations_run")
                        .and_then(JsonValue::as_num)
                        .and_then(|n| u64::try_from(n).ok()),
                    probes: fields
                        .get("probes")
                        .and_then(JsonValue::as_num)
                        .and_then(|n| u64::try_from(n).ok()),
                });
            }
            _ => {}
        }
    }
    outcome.ok_or_else(|| "stream ended without a done event".into())
}

/// Service address from [`ADDR_ENV`], falling back to [`DEFAULT_ADDR`].
pub fn addr_from_env() -> String {
    std::env::var(ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_string())
}

/// Store root from [`STORE_ENV`], when set.
pub fn store_from_env() -> Option<PathBuf> {
    std::env::var(STORE_ENV).ok().map(PathBuf::from)
}
