//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the program is instrumented),
//! kept in memory while the run lasts, and written out as a TSV file when
//! the benchmark ends. A span carries its layer name, the span that caused
//! it, the recording thread, its start and end (nanoseconds since the
//! recorder was created), a tag (the benchmark index of a simulation) and
//! an exact work count the call reported (simulated cycles).

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tag: usize,
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a span whose times were taken by the caller.
    pub fn record(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push(Span {
            layer,
            parent,
            thread: thread_id(),
            start_ns,
            end_ns,
            tag: 0,
            count: 0,
        })
    }

    /// Opens a span that encloses other spans; close it with [`Self::close`].
    pub fn open(&self, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(Span {
            layer,
            parent,
            thread: thread_id(),
            start_ns: now,
            end_ns: now,
            tag: 0,
            count: 0,
        })
    }

    pub fn close(&self, id: usize) {
        let now = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a leaf span; `f` returns its value and the exact
    /// work count to attach to the span.
    pub fn time_counted<T>(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        tag: usize,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let start_ns = self.now_ns();
        let (value, count) = f();
        let end_ns = self.now_ns();
        self.push(Span {
            layer,
            parent,
            thread: thread_id(),
            start_ns,
            end_ns,
            tag,
            count,
        });
        value
    }

    pub fn time<T>(&self, layer: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.time_counted(layer, parent, 0, || (f(), 0))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tlayer\tthread\tstart_ns\tend_ns\ttag\tcount"
        )?;
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer, s.thread, s.start_ns, s.end_ns, s.tag, s.count
            )?;
        }
        out.flush()
    }
}

/// Summed duration, in seconds, of the spans of one layer.
pub fn total_secs(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .fold(0.0, |sum, s| sum + s.secs())
}
