//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end instant, the span that was open on
//! the same thread when it began (its parent), and an optional request
//! id. Spans are kept in memory and read out when a round ends. A
//! layer's self time is its span time minus the time of its child spans;
//! the traced run of the in-process workloads is pinned to one CPU
//! (`pin_to_one_cpu` in `main.rs`), so children nest inside their parent
//! on one thread.
//!
//! The last traced round's spans are written to
//! `.bench_work/trace-<workload>.jsonl` when the run ends.
//!
//! Recording is off unless [`enable`] was called: an untraced run pays
//! one relaxed atomic load per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Open spans on this thread: (id, accumulated child nanoseconds).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Tests that record spans hold this, since recording is process-wide.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Nanoseconds covered by child spans.
    pub child_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        let total = self.end.duration_since(self.start).as_nanos() as u64;
        total.saturating_sub(self.child_ns)
    }
}

pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span: id, parent, name, start, request id.
type Open = (u64, Option<u64>, &'static str, Instant, Option<u64>);

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<Open>,
}

/// Open a span named `name` (a layer metric name without its unit).
pub fn span(name: &'static str) -> Guard {
    span_req(name, None)
}

/// Open a span tagged with a request id.
pub fn span_req(name: &'static str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|&(p, _)| p);
        s.push((id, 0));
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now(), request)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start, request)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let total = end.duration_since(start).as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (top, child_ns) = s.pop().expect("span stack underflow");
            debug_assert_eq!(top, id, "spans closed out of order");
            if let Some(last) = s.last_mut() {
                last.1 += total;
            }
            child_ns
        });
        SPANS.lock().unwrap().push(Span {
            id,
            parent,
            name,
            start,
            end,
            child_ns,
            request,
        });
    }
}

/// Add `v` to the named counter (recorded only while tracing).
pub fn count(name: &'static str, v: f64) {
    if enabled() {
        *COUNTS.lock().unwrap().entry(name).or_insert(0.0) += v;
    }
}

/// Take every span and counter recorded so far.
pub fn drain() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap());
    let counts = std::mem::take(&mut *COUNTS.lock().unwrap());
    (spans, counts)
}

/// Write `spans` to `path`, one JSON object per line, times in ns from
/// the first span's start. Best effort: the metrics do not depend on it.
pub fn write_out(spans: &[Span], path: &std::path::Path) {
    let Some(t0) = spans.iter().map(|s| s.start).min() else {
        return;
    };
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"request\":{}}}\n",
            s.id,
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.name,
            s.start.duration_since(t0).as_nanos(),
            s.end.duration_since(t0).as_nanos(),
            s.self_ns(),
            s.request.map_or("null".into(), |r| r.to_string()),
        ));
    }
    let _ = std::fs::write(path, out);
}

/// Summed self time, in seconds, per span name.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.self_ns() as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_top_level_time() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(true);
        let t0 = Instant::now();
        {
            let _a = span("a");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span("b");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        enable(false);
        let (spans, _) = drain();
        let by = self_seconds(&spans);
        assert!(by["b"] >= 0.003);
        let sum: f64 = by.values().sum();
        let top: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .sum();
        assert!((sum - top).abs() < 1e-6, "{sum} vs {top}");
        assert!(sum <= wall);
    }
}
