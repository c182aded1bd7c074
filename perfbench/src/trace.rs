//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the tracer started), the span that was open when it began, and
//! the op it belongs to. Spans stay in memory and are written out once,
//! when the run ends. With tracing off, [`span`] is a flag test plus the
//! call itself.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<u64>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: None,
    });
}

/// Switch recording on for this (single-threaded) run.
pub fn enable() {
    ON.with(|on| on.set(true));
}

pub fn enabled() -> bool {
    ON.with(Cell::get)
}

fn begin(name: &'static str) -> usize {
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        let op = rec.op;
        rec.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        let idx = rec.spans.len() - 1;
        rec.open.push(idx);
        idx
    })
}

fn end(idx: usize) {
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        let end_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans[idx].end_ns = end_ns;
        let popped = rec.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
    })
}

/// Run `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = begin(name);
    let out = f();
    end(idx);
    out
}

/// Run one op of the workload: a root span named `op` whose descendants
/// carry the op's id.
pub fn op<T>(id: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    REC.with(|rec| rec.borrow_mut().op = Some(id));
    let out = span("op", f);
    REC.with(|rec| rec.borrow_mut().op = None);
    out
}

/// Self time (ns) of every span: its duration minus the part its
/// children cover. Children of one span never overlap (one thread), so
/// that part is the sum of their durations.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans.iter().zip(&child_ns).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c)).collect()
}

/// Self times (ns) of every recorded span, grouped by span name.
pub fn self_times_by_name() -> BTreeMap<&'static str, Vec<u64>> {
    REC.with(|rec| {
        let rec = rec.borrow();
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in rec.spans.iter().zip(self_times(&rec.spans)) {
            out.entry(s.name).or_default().push(t);
        }
        out
    })
}

pub fn span_count() -> usize {
    REC.with(|rec| rec.borrow().spans.len())
}

/// Spans recorded inside ops (op spans included) and the number of ops.
pub fn op_span_counts() -> (usize, usize) {
    REC.with(|rec| {
        let rec = rec.borrow();
        let inside = rec.spans.iter().filter(|s| s.op.is_some()).count();
        let ops = rec.spans.iter().filter(|s| s.name == "op").count();
        (inside, ops)
    })
}

/// Measured cost of recording one empty span, in ns (median of batches).
/// Calibration spans are discarded afterwards.
pub fn span_cost_ns() -> f64 {
    let before = span_count();
    let mut per_batch = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..10_000 {
            span("trace.calibration", || std::hint::black_box(()));
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / 10_000.0);
    }
    REC.with(|rec| rec.borrow_mut().spans.truncate(before));
    crate::stats::median(&per_batch)
}

/// Write every span as one JSON line (name, start, end, parent, op, self).
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|rec| -> std::io::Result<()> {
        let rec = rec.borrow();
        for (i, (s, self_ns)) in rec.spans.iter().zip(self_times(&rec.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}
