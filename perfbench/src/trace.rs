//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer in a span: name,
//! layer, start, end, parent span and the cell or request id it served.
//! Spans stay in memory until the run ends, then are written out as
//! trace-event JSON (which Perfetto and `chrome://tracing` open) and folded
//! into per-layer self time. A disabled tracer records nothing and reads
//! no clock.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (`≥ 1`).
    pub id: u64,
    /// The causing span's id, `0` for a root.
    pub parent: u64,
    /// The crate the call went into.
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// The grid cell, design or request the call served.
    pub item: u64,
    /// Recording thread (small integers, in order of first use).
    pub tid: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Tracer {
    /// A tracer that records when `on`, and is a no-op otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span and returns its result. `f` receives the
    /// span's id (`0` when tracing is off) to pass to child spans.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            layer,
            name,
            item,
            tid: thread_id(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        result
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers.
fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Self time per layer, in seconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        *by_layer.entry(s.layer).or_insert(0.0) += self_ns(s, kids) as f64 * 1e-9;
    }
    by_layer
}

/// The spans as trace-event JSON: one complete (`"ph":"X"`) event per
/// span, timestamps in microseconds.
pub fn trace_event_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.item
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "f",
            item: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "transient", 10, 50),
            span(3, 1, "transient", 30, 70),
            span(4, 1, "transient", 90, 120),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["bench"] - 30e-9).abs() < 1e-15);
        assert!((by_layer["transient"] - 110e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("serve", "handle_line", 0, 7, |id| id), 0);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let id = tracer.span("serve", "handle_line", 0, 7, |id| id);
        assert_eq!(tracer.spans()[0].id, id);
        assert!(trace_event_json(&tracer.spans()).contains("\"item\":7"));
    }
}
