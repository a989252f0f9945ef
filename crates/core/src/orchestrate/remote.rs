//! Distributed shard fan-out: a length-prefixed TCP worker protocol and
//! the [`RemoteLauncher`] that drives it from the supervision state
//! machine.
//!
//! PR 7 split supervision from process management behind the
//! [`Launcher`] seam; this module walks through it to leave the machine.
//! The shape is deliberately thin:
//!
//! * a **worker daemon** (`pborch worker-daemon`, built on
//!   [`serve_daemon`] + [`CommandAgent`]) listens on a socket, accepts
//!   one [`Frame::Launch`] per connection, re-invokes the worker binary
//!   exactly as [`ProcessLauncher`](super::ProcessLauncher) would, and
//!   streams back shard-checksum / exit frames;
//! * a [`RemoteLauncher`] on the supervisor side multiplexes N endpoints
//!   (the `--hosts` or submitted `hosts` list) behind the unchanged
//!   [`run_orchestrator`](super::run_orchestrator) loop — **a dead
//!   connection is just a failed attempt**: connect refusal and daemon
//!   rejection surface as spawn failures, a mid-stream hangup as a wait
//!   failure, and the existing retry/requeue/exclusion budget does the
//!   rest;
//! * an attempt's mid-write fault ([`WorkerFault`]) rides the launch
//!   frame, and the daemon hands it to the worker as a local launch
//!   would. Resume needs nothing on the wire: a retrying worker finds the
//!   part file in the cache directory, where the supervisor also reads
//!   it once before the retry for the run report.
//!
//! Framing reuses the cache codec's checksum primitive (FNV-1a 64,
//! `persist::fnv1a`): every frame is `len:u32le | tag:u8 | payload |
//! fnv1a(tag||payload):u64le`, decoded incrementally and rejected on any
//! truncation or bit flip. The byte-level spec lives in
//! `docs/FORMAT.md` §8; determinism of the *corpus* is untouched because
//! the protocol only moves launch requests and status — shard bytes are
//! still written by the worker process through the atomic persist path.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::exec::ShardSpec;
use crate::persist::{self, ExperimentKind};

use super::{
    verify_shard_file, ChildHandle, CollectPlan, ExitKind, Launcher, WorkerFault, WorkerHandle,
};

/// Wire protocol version, first field of every launch frame. Daemons
/// reject launches from a different protocol generation instead of
/// guessing at field layouts. Version 2 replaced version 1's resume
/// offsets and heartbeat frame with the launch frame's fault field.
pub const PROTOCOL_VERSION: u32 = 2;

/// Ceiling on one frame's `len` field. Frames carry launch metadata and
/// status only (never corpus bytes), so anything near this is corruption
/// or a stray client, not a legitimate message.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Smallest legal `len`: a bare tag plus the 8-byte checksum.
const MIN_FRAME_LEN: u32 = 9;

const TAG_LAUNCH: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_REJECTED: u8 = 3;
const TAG_EXITED: u8 = 5;
const TAG_SHARD_CHECKSUM: u8 = 6;

// --------------------------------------------------------------------------
// Frames
// --------------------------------------------------------------------------

/// One shard-launch request as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRequest {
    /// Cache file prefix (for `pborch`, the spec name the daemon
    /// re-resolves locally — configs never cross the wire, identities
    /// do).
    pub prefix: String,
    /// Experiment kind of the pass.
    pub kind: ExperimentKind,
    /// Config fingerprint the daemon must reproduce from `prefix`; a
    /// mismatch (version skew, diverged spec) is rejected before any
    /// work starts.
    pub fingerprint: u64,
    /// The shard to collect.
    pub shard: ShardSpec,
    /// Supervisor-side attempt number (provenance only).
    pub attempt: u32,
    /// Cache directory the worker collects into.
    pub cache_dir: String,
    /// The mid-write fault the worker fires on itself, if any.
    pub fault: Option<WorkerFault>,
}

/// A protocol frame. Launch flows supervisor → daemon; everything else
/// flows back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Start one shard attempt.
    Launch(LaunchRequest),
    /// The daemon admitted the launch and spawned the worker.
    Accepted,
    /// The daemon refused the launch (fingerprint mismatch, unknown
    /// spec, spawn failure). The connection closes after this frame.
    Rejected {
        /// Human-readable refusal, surfaced in the run report's
        /// spawn-failed detail.
        reason: String,
    },
    /// FNV-1a 64 of the finished shard file, sent before a successful
    /// exit frame so the supervisor can cross-check the bytes it reads.
    ShardChecksum {
        /// Whole-file checksum of the shard the worker produced.
        checksum: u64,
    },
    /// The worker exited; final frame of a served launch.
    Exited {
        /// How the worker exited.
        exit: ExitKind,
    },
}

impl Frame {
    /// Frame name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Launch(_) => "launch",
            Frame::Accepted => "accepted",
            Frame::Rejected { .. } => "rejected",
            Frame::ShardChecksum { .. } => "shard-checksum",
            Frame::Exited { .. } => "exited",
        }
    }

    /// Serializes the frame: `len:u32le | tag:u8 | payload |
    /// fnv1a(tag||payload):u64le` with `len` counting everything after
    /// itself.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            Frame::Launch(req) => {
                body.push(TAG_LAUNCH);
                put_u32(&mut body, PROTOCOL_VERSION);
                put_str(&mut body, &req.prefix);
                put_str(&mut body, req.kind.as_str());
                put_u64(&mut body, req.fingerprint);
                put_u32(&mut body, req.shard.index as u32);
                put_u32(&mut body, req.shard.count as u32);
                put_u32(&mut body, req.attempt);
                put_str(&mut body, &req.cache_dir);
                body.push(match req.fault {
                    None => 0,
                    Some(WorkerFault::KillMid) => 1,
                    Some(WorkerFault::Torn) => 2,
                });
            }
            Frame::Accepted => body.push(TAG_ACCEPTED),
            Frame::Rejected { reason } => {
                body.push(TAG_REJECTED);
                put_str(&mut body, reason);
            }
            Frame::ShardChecksum { checksum } => {
                body.push(TAG_SHARD_CHECKSUM);
                put_u64(&mut body, *checksum);
            }
            Frame::Exited { exit } => {
                body.push(TAG_EXITED);
                let (tag, code) = exit_to_wire(*exit);
                body.push(tag);
                put_u32(&mut body, code as u32);
            }
        }
        let checksum = persist::fnv1a(&body);
        let mut out = Vec::with_capacity(body.len() + 12);
        put_u32(&mut out, (body.len() + 8) as u32);
        out.extend_from_slice(&body);
        put_u64(&mut out, checksum);
        out
    }

    /// Incremental decode: `Ok(None)` while `buf` holds no complete
    /// frame yet, `Ok(Some((frame, consumed)))` on success, `Err` on a
    /// frame that can never become valid (bad length, checksum mismatch,
    /// malformed payload). Never panics on any input.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        let Some(len_bytes) = buf.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(le4(len_bytes));
        if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
            return Err(FrameError(format!(
                "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
            )));
        }
        let total = 4 + len as usize;
        let Some(body) = buf.get(4..total) else {
            return Ok(None);
        };
        // len >= MIN_FRAME_LEN guarantees the split point exists.
        let (payload, sum_bytes) = body.split_at(len as usize - 8);
        let expected = u64::from_le_bytes(le8(sum_bytes));
        let actual = persist::fnv1a(payload);
        if actual != expected {
            return Err(FrameError(format!(
                "frame checksum mismatch: computed {actual:016x}, frame says {expected:016x}"
            )));
        }
        let Some((&tag, rest)) = payload.split_first() else {
            return Err(FrameError("empty frame payload".into()));
        };
        let mut c = Cursor { buf: rest };
        let frame = match tag {
            TAG_LAUNCH => {
                let version = c.u32()?;
                if version != PROTOCOL_VERSION {
                    return Err(FrameError(format!(
                        "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
                    )));
                }
                let prefix = c.str()?;
                let kind_str = c.str()?;
                let kind = ExperimentKind::parse(&kind_str)
                    .ok_or_else(|| FrameError(format!("unknown experiment kind {kind_str:?}")))?;
                let fingerprint = c.u64()?;
                let index = c.u32()? as usize;
                let count = c.u32()? as usize;
                if count == 0 || index >= count {
                    return Err(FrameError(format!("invalid shard {index}/{count}")));
                }
                let attempt = c.u32()?;
                let cache_dir = c.str()?;
                let fault = match c.u8()? {
                    0 => None,
                    1 => Some(WorkerFault::KillMid),
                    2 => Some(WorkerFault::Torn),
                    t => return Err(FrameError(format!("unknown fault tag {t}"))),
                };
                Frame::Launch(LaunchRequest {
                    prefix,
                    kind,
                    fingerprint,
                    shard: ShardSpec::new(index, count),
                    attempt,
                    cache_dir,
                    fault,
                })
            }
            TAG_ACCEPTED => Frame::Accepted,
            TAG_REJECTED => Frame::Rejected { reason: c.str()? },
            TAG_EXITED => {
                let kind_tag = c.u8()?;
                let code = c.u32()? as i32;
                Frame::Exited {
                    exit: exit_from_wire(kind_tag, code)?,
                }
            }
            TAG_SHARD_CHECKSUM => Frame::ShardChecksum { checksum: c.u64()? },
            t => return Err(FrameError(format!("unknown frame tag {t}"))),
        };
        c.done()?;
        Ok(Some((frame, total)))
    }
}

/// Why a byte sequence cannot be (or become) a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn exit_to_wire(exit: ExitKind) -> (u8, i32) {
    match exit {
        ExitKind::Success => (0, 0),
        ExitKind::Failure { code: Some(code) } => (1, code),
        ExitKind::Failure { code: None } => (2, 0),
    }
}

fn exit_from_wire(tag: u8, code: i32) -> Result<ExitKind, FrameError> {
    match tag {
        0 => Ok(ExitKind::Success),
        1 => Ok(ExitKind::Failure { code: Some(code) }),
        2 => Ok(ExitKind::Failure { code: None }),
        t => Err(FrameError(format!("unknown exit status tag {t}"))),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Infallible 4-byte copy of a slice already length-checked by the
/// caller; a short slice yields zeroes rather than a panic.
fn le4(bytes: &[u8]) -> [u8; 4] {
    let mut a = [0u8; 4];
    for (dst, src) in a.iter_mut().zip(bytes) {
        *dst = *src;
    }
    a
}

fn le8(bytes: &[u8]) -> [u8; 8] {
    let mut a = [0u8; 8];
    for (dst, src) in a.iter_mut().zip(bytes) {
        *dst = *src;
    }
    a
}

/// Bounds-checked payload reader.
struct Cursor<'a> {
    // pblint: allow(slice-index) -- `&'a [u8]` is a type annotation, not an index
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    // pblint: allow(slice-index) -- `&'a [u8]` is a type annotation, not an index
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError(format!(
                "payload truncated: needed {n} more bytes, had {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(le4(self.take(4)?)))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(le8(self.take(8)?)))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_LEN as usize {
            return Err(FrameError(format!("string length {n} exceeds frame cap")));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError("string field is not UTF-8".into()))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError(format!(
                "{} trailing payload bytes",
                self.buf.len()
            )))
        }
    }
}

/// Reads one complete frame from `stream`, honouring its configured read
/// timeout. EOF mid-frame and undecodable bytes are errors.
fn read_frame_blocking(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Frame> {
    loop {
        match Frame::decode(buf)? {
            Some((frame, consumed)) => {
                buf.drain(..consumed);
                return Ok(frame);
            }
            None => {
                let mut tmp = [0u8; 4096];
                let n = stream.read(&mut tmp)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ));
                }
                buf.extend_from_slice(tmp.get(..n).unwrap_or(&[]));
            }
        }
    }
}

// --------------------------------------------------------------------------
// Supervisor side: RemoteLauncher
// --------------------------------------------------------------------------

/// Shard checksums received over the wire, by shard, shared between the
/// launcher and its live handles.
type Checksums = Arc<Mutex<BTreeMap<usize, u64>>>;

fn lock_checksums(m: &Mutex<BTreeMap<usize, u64>>) -> MutexGuard<'_, BTreeMap<usize, u64>> {
    // A panicked holder cannot exist: accessors only insert/read plain
    // integers. Recover the guard rather than propagating poison.
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

type VerifyFn = Box<dyn FnMut(ShardSpec, Option<u64>) -> Result<(), String>>;

/// [`Launcher`] that starts shard attempts on remote worker daemons.
///
/// Endpoints are tried in rotation starting after the last successful
/// launch; one `launch` call walks the whole list before giving up, so a
/// single healthy daemon keeps a pass alive no matter how many dead
/// addresses surround it. Every failure mode maps onto the supervision
/// state machine's existing vocabulary — connect refusal / rejection →
/// spawn failure (requeue), mid-stream hangup → wait failure (requeue),
/// budget exhaustion → exclusion — so distributed runs inherit the
/// retry/byte-identity guarantees of local ones unchanged.
pub struct RemoteLauncher {
    endpoints: Vec<String>,
    next_endpoint: usize,
    plan: CollectPlan,
    connect_timeout: Duration,
    handshake_timeout: Duration,
    checksums: Checksums,
    verify: VerifyFn,
}

impl RemoteLauncher {
    /// Launcher for a shared-filesystem plan (the loopback / NFS case CI
    /// exercises): daemons collect into `plan.dir`, the supervisor
    /// verifies shard files locally and cross-checks them against the
    /// daemon-reported checksum.
    pub fn for_plan(endpoints: Vec<String>, plan: &CollectPlan) -> Self {
        let verify_plan = plan.clone();
        let verify: VerifyFn = Box::new(move |shard, remote_sum| {
            verify_shard_file(&verify_plan, shard)?;
            if let Some(expected) = remote_sum {
                let path = verify_plan.shard_path(shard);
                let bytes = std::fs::read(&path)
                    .map_err(|e| format!("shard file {} unreadable: {e}", path.display()))?;
                let local = persist::fnv1a(&bytes);
                if local != expected {
                    return Err(format!(
                        "shard file {} checksum {local:016x} does not match the \
                         worker-reported {expected:016x} (divergent filesystems?)",
                        path.display()
                    ));
                }
            }
            Ok(())
        });
        Self::with_verify(endpoints, plan, verify)
    }

    /// [`for_plan`](Self::for_plan) with a scripted `verify` (tests).
    pub fn with_verify(endpoints: Vec<String>, plan: &CollectPlan, verify: VerifyFn) -> Self {
        RemoteLauncher {
            endpoints,
            next_endpoint: 0,
            plan: plan.clone(),
            connect_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(30),
            checksums: Checksums::default(),
            verify,
        }
    }

    /// Overrides the connect/handshake timeouts (tests shrink them).
    pub fn set_timeouts(&mut self, connect: Duration, handshake: Duration) {
        self.connect_timeout = connect;
        self.handshake_timeout = handshake;
    }

    fn try_endpoint(&self, endpoint: &str, req: &LaunchRequest) -> io::Result<RemoteHandle> {
        let addr = endpoint
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("{endpoint}: resolved to no address")))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&Frame::Launch(req.clone()).encode())?;
        stream.set_read_timeout(Some(self.handshake_timeout))?;
        let mut buf = Vec::new();
        match read_frame_blocking(&mut stream, &mut buf)? {
            Frame::Accepted => {}
            Frame::Rejected { reason } => {
                return Err(io::Error::other(format!("launch rejected: {reason}")));
            }
            other => {
                return Err(io::Error::other(format!(
                    "daemon sent {} during handshake",
                    other.name()
                )));
            }
        }
        stream.set_nonblocking(true)?;
        Ok(RemoteHandle {
            stream,
            buf,
            shard: req.shard.index,
            checksums: Arc::clone(&self.checksums),
            exit: None,
        })
    }
}

impl Launcher for RemoteLauncher {
    type Handle = RemoteHandle;

    fn launch(
        &mut self,
        shard: ShardSpec,
        attempt: u32,
        _worker: usize,
        fault: Option<WorkerFault>,
    ) -> io::Result<RemoteHandle> {
        let req = LaunchRequest {
            prefix: self.plan.prefix.clone(),
            kind: self.plan.kind,
            fingerprint: self.plan.fingerprint,
            shard,
            attempt,
            cache_dir: self.plan.dir.to_string_lossy().into_owned(),
            fault,
        };
        let n = self.endpoints.len();
        let mut last_err = io::Error::other("no remote endpoints configured");
        for k in 0..n {
            let idx = (self.next_endpoint + k) % n;
            let Some(endpoint) = self.endpoints.get(idx).cloned() else {
                continue;
            };
            match self.try_endpoint(&endpoint, &req) {
                Ok(handle) => {
                    self.next_endpoint = (idx + 1) % n;
                    return Ok(handle);
                }
                Err(e) => last_err = io::Error::new(e.kind(), format!("{endpoint}: {e}")),
            }
        }
        Err(last_err)
    }

    fn verify(&mut self, shard: ShardSpec) -> Result<(), String> {
        let remote_sum = lock_checksums(&self.checksums).get(&shard.index).copied();
        (self.verify)(shard, remote_sum)
    }

    fn durable_probes(&mut self, shard: ShardSpec) -> Option<u64> {
        Some(self.plan.durable_probes(shard))
    }
}

/// Live connection to one remote shard attempt.
pub struct RemoteHandle {
    stream: TcpStream,
    buf: Vec<u8>,
    shard: usize,
    checksums: Checksums,
    exit: Option<ExitKind>,
}

impl WorkerHandle for RemoteHandle {
    fn try_finish(&mut self) -> io::Result<Option<ExitKind>> {
        loop {
            // Drain every complete frame already buffered.
            loop {
                match Frame::decode(&self.buf)? {
                    None => break,
                    Some((frame, consumed)) => {
                        self.buf.drain(..consumed);
                        match frame {
                            Frame::ShardChecksum { checksum } => {
                                lock_checksums(&self.checksums).insert(self.shard, checksum);
                            }
                            Frame::Exited { exit } => self.exit = Some(exit),
                            other => {
                                return Err(io::Error::other(format!(
                                    "daemon sent {} while the attempt was running",
                                    other.name()
                                )));
                            }
                        }
                    }
                }
            }
            if let Some(exit) = self.exit {
                return Ok(Some(exit));
            }
            let mut tmp = [0u8; 4096];
            match self.stream.read(&mut tmp) {
                // EOF without an exit frame: the daemon (or its host)
                // died mid-attempt. Surfaces as a wait failure, which
                // requeues the shard within its budget.
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon connection closed before the exit notification",
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(tmp.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    fn kill(&mut self) {
        // Hanging up is the kill signal: the daemon kills its child the
        // moment the supervisor's connection drops.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

// --------------------------------------------------------------------------
// Daemon side
// --------------------------------------------------------------------------

/// Daemon-side policy for one launch: admission, spawning, and the
/// finished shard's checksum. [`CommandAgent`] is the production implementation;
/// tests script this directly to drive the loopback suite in-process.
pub trait ShardAgent: Send + Sync {
    /// Admission check before anything is spawned; `Err` becomes the
    /// [`Frame::Rejected`] reason.
    fn accept(&self, req: &LaunchRequest) -> Result<(), String> {
        let _ = req;
        Ok(())
    }

    /// Starts the worker for an admitted request.
    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>>;

    /// Checksum of the finished shard file, sent before a successful
    /// exit frame.
    fn shard_checksum(&self, req: &LaunchRequest) -> Option<u64> {
        let _ = req;
        None
    }
}

/// Timing knobs of the daemon's per-connection supervision loop.
#[derive(Debug, Clone, Copy)]
pub struct DaemonOptions {
    /// Child poll / client liveness-check cadence.
    pub poll_interval: Duration,
    /// How long a fresh connection may take to deliver its launch frame.
    pub handshake_timeout: Duration,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            poll_interval: Duration::from_millis(25),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Accept loop: serves every connection on its own thread until the
/// listener errors (or the process is killed — the daemon holds no state
/// that outlives its children, so SIGKILL is a legitimate shutdown).
pub fn serve_daemon(
    listener: TcpListener,
    agent: Arc<dyn ShardAgent>,
    options: DaemonOptions,
) -> io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        let agent = Arc::clone(&agent);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, agent.as_ref(), options);
        });
    }
}

/// Serves one launch on an accepted connection: handshake, spawn,
/// supervise, report. The client hanging up at any point kills the
/// worker — the supervisor's socket shutdown *is* its kill signal, so no
/// orphaned child outlives its attempt.
pub fn serve_connection(
    mut stream: TcpStream,
    agent: &dyn ShardAgent,
    options: DaemonOptions,
) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(options.handshake_timeout))?;
    let mut buf = Vec::new();
    let req = match read_frame_blocking(&mut stream, &mut buf) {
        Ok(Frame::Launch(req)) => req,
        Ok(other) => {
            let _ = stream.write_all(
                &Frame::Rejected {
                    reason: format!("expected a launch frame, got {}", other.name()),
                }
                .encode(),
            );
            return Ok(());
        }
        // Undecodable handshake (stray client, protocol skew): reject
        // when the socket still works, then drop the connection.
        Err(e) => {
            let _ = stream.write_all(
                &Frame::Rejected {
                    reason: format!("bad handshake: {e}"),
                }
                .encode(),
            );
            return Err(e);
        }
    };
    if let Err(reason) = agent.accept(&req) {
        let _ = stream.write_all(&Frame::Rejected { reason }.encode());
        return Ok(());
    }
    let mut child = match agent.launch(&req) {
        Ok(child) => child,
        Err(e) => {
            let _ = stream.write_all(
                &Frame::Rejected {
                    reason: format!("spawn failed: {e}"),
                }
                .encode(),
            );
            return Ok(());
        }
    };
    if stream.write_all(&Frame::Accepted.encode()).is_err() {
        child.kill();
        return Ok(());
    }
    // Supervision loop. The timed read doubles as pacing and liveness
    // probe: the supervisor never sends after its launch frame, so EOF
    // (or any stray byte) means this attempt is dead — kill the child.
    stream.set_read_timeout(Some(options.poll_interval))?;
    loop {
        match child.try_finish() {
            Ok(Some(exit)) => {
                if exit == ExitKind::Success {
                    if let Some(checksum) = agent.shard_checksum(&req) {
                        let _ = stream.write_all(&Frame::ShardChecksum { checksum }.encode());
                    }
                }
                let _ = stream.write_all(&Frame::Exited { exit }.encode());
                return Ok(());
            }
            Ok(None) => {}
            // The wait itself failed: worker state is unknowable. Close
            // without an exit frame — the supervisor records a wait
            // failure and requeues the shard on another attempt.
            Err(_) => {
                child.kill();
                return Ok(());
            }
        }
        let mut probe = [0u8; 64];
        match stream.read(&mut probe) {
            Ok(0) | Ok(_) => {
                child.kill();
                return Ok(());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                child.kill();
                return Ok(());
            }
        }
    }
}

/// [`ShardAgent`] that spawns one child process per admitted launch —
/// the daemon-side analogue of [`super::ProcessLauncher`]. `admit`
/// validates a request and resolves it to the local [`CollectPlan`]
/// (fingerprint equality, known prefix); `build` constructs the worker
/// `Command`.
pub struct CommandAgent<A, B> {
    /// Request validation + plan resolution; `Err` is the rejection
    /// reason sent back to the supervisor.
    pub admit: A,
    /// Builds the worker command for an admitted request.
    pub build: B,
}

impl<A, B> ShardAgent for CommandAgent<A, B>
where
    A: Fn(&LaunchRequest) -> Result<CollectPlan, String> + Send + Sync,
    B: Fn(&LaunchRequest) -> Command + Send + Sync,
{
    fn accept(&self, req: &LaunchRequest) -> Result<(), String> {
        (self.admit)(req).map(|_| ())
    }

    fn launch(&self, req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        let child = (self.build)(req).spawn()?;
        Ok(Box::new(ChildHandle(child)))
    }

    fn shard_checksum(&self, req: &LaunchRequest) -> Option<u64> {
        let plan = (self.admit)(req).ok()?;
        let bytes = std::fs::read(plan.shard_path(req.shard)).ok()?;
        Some(persist::fnv1a(&bytes))
    }
}

/// Parses a `host:port[,host:port...]` endpoint list (commas and/or
/// whitespace separate entries).
pub fn parse_hosts(raw: &str) -> Result<Vec<String>, String> {
    let mut hosts = Vec::new();
    for entry in raw.split([',', ' ', '\t', '\n']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        if !entry.contains(':') {
            return Err(format!("endpoint {entry:?} is not host:port"));
        }
        hosts.push(entry.to_string());
    }
    if hosts.is_empty() {
        return Err("empty endpoint list".into());
    }
    Ok(hosts)
}
