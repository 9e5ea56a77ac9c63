//! Host-time spans around the benchmark's calls into each layer.
//!
//! Every span carries a name, start, end, the span that caused it and the
//! request id it serves. Spans stay in memory and are written out once, as
//! a Chrome trace-event file (open it in `chrome://tracing` or Perfetto).
//! Per-name totals and call counts are kept for every span, so layer times
//! stay exact even when the stored span list hits its cap.
//!
//! Tracing is per thread and off by default; with it off, [`span`] only
//! reads one thread-local flag before calling through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the span file; later spans still count in the totals.
const STORED_SPANS: usize = 50_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Open spans, innermost last: `(stored index, name, start, request)`.
    open: Vec<(Option<usize>, &'static str, u64, u64)>,
    request: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        dropped: 0,
        open: Vec::new(),
        request: 0,
        totals: BTreeMap::new(),
    });
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Sets the request id that root spans opened from now on carry.
pub fn set_request(request: u64) {
    TRACER.with(|t| t.borrow_mut().request = request);
}

/// Runs `f` inside a span called `name`. A span opened while another is
/// open on this thread records that one as its parent and inherits its
/// request id.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return false;
        }
        let parent = t.open.last().and_then(|o| o.0);
        let request = t.open.last().map_or(t.request, |o| o.3);
        let start = t.epoch.elapsed().as_nanos() as u64;
        let index = if t.spans.len() < STORED_SPANS {
            t.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                request,
            });
            Some(t.spans.len() - 1)
        } else {
            t.dropped += 1;
            None
        };
        t.open.push((index, name, start, request));
        true
    });
    let out = f();
    if opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            let (index, name, start, _) = t.open.pop().expect("span opened above");
            if let Some(i) = index {
                t.spans[i].end_ns = end;
            }
            let total = t.totals.entry(name).or_insert((0, 0));
            total.0 += end - start;
            total.1 += 1;
        });
    }
    out
}

/// Total host seconds and calls recorded under `name`.
pub fn total(name: &str) -> (f64, u64) {
    TRACER.with(|t| {
        t.borrow()
            .totals
            .get(name)
            .map_or((0.0, 0), |&(ns, calls)| (ns as f64 / 1e9, calls))
    })
}

/// Spans recorded (stored or not).
pub fn span_count() -> u64 {
    TRACER.with(|t| {
        let t = t.borrow();
        t.spans.len() as u64 + t.dropped
    })
}

/// Writes the stored spans to `path` as a Chrome trace-event file: one
/// complete (`"ph": "X"`) event per span, with its parent's index and its
/// request id under `args`.
pub fn write_file(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    TRACER.with(|t| -> std::io::Result<()> {
        let t = t.borrow();
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"request\": {}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                if i + 1 == t.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "], \"otherData\": {{\"spans_not_stored\": {}}}}}", t.dropped)?;
        Ok(())
    })?;
    out.flush()
}
