//! Wall-clock spans recorded around calls into the library's layers, and the
//! per-layer self-time table folded from them.
//!
//! Spans are kept in memory and written out when the process ends. Every
//! span names its layer, its parent span, the sweep task it belongs to (if
//! any) and the thread that ran it. A span's self time is its duration minus
//! the durations of its children; children of a span always run on the
//! span's own thread, except for the two phase spans (`setup`, `sweep`),
//! whose children run on the worker threads. The table therefore accounts
//! for worker-slot seconds: `workers × process wall`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One recorded interval.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub task: Option<usize>,
    pub layer: &'static str,
    pub thread: usize,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Layers whose children run on the worker threads rather than their own.
pub const PHASES: [&str; 2] = ["setup", "sweep"];

pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer { t0, next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span; `f` receives the span id so it can parent
    /// spans of its own.
    pub fn span<R>(
        &self,
        layer: &'static str,
        parent: Option<u64>,
        task: Option<usize>,
        thread: usize,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.span_as(parent, task, thread, |id| (layer, f(id)))
    }

    /// [`Tracer::span`] for a call whose layer is known only once it returns
    /// (an oracle either simulated or loaded from the persistent store).
    pub fn span_as<R>(
        &self,
        parent: Option<u64>,
        task: Option<usize>,
        thread: usize,
        f: impl FnOnce(u64) -> (&'static str, R),
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_s = self.now();
        let (layer, r) = f(id);
        let end_s = self.now();
        self.record(Span { id, parent, task, layer, thread, start_s, end_s });
        r
    }

    /// Record a child interval measured by a library counter rather than a
    /// clock pair (placed to end now).
    pub fn counted(&self, layer: &'static str, parent: u64, task: Option<usize>, thread: usize, secs: f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let end_s = self.now();
        self.record(Span { id, parent: Some(parent), task, layer, thread, start_s: end_s - secs, end_s });
    }

    fn record(&self, s: Span) {
        self.spans.lock().expect("span list lock").push(s);
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time per layer in worker-slot seconds, with an explicit
/// `unattributed` row closing the total to `workers × wall_s`.
pub fn self_times(spans: &[Span], workers: usize, wall_s: f64) -> BTreeMap<&'static str, f64> {
    let mut child: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_default() += s.dur();
        }
    }
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let slots = if PHASES.contains(&s.layer) { workers as f64 } else { 1.0 };
        let self_s = slots * s.dur() - child.get(&s.id).copied().unwrap_or(0.0);
        *rows.entry(s.layer).or_default() += self_s;
    }
    // The root span's own time is outside every layer.
    let covered: f64 = rows.iter().filter(|(k, _)| **k != "process").map(|(_, v)| v).sum();
    rows.remove("process");
    rows.insert("unattributed", workers as f64 * wall_s - covered);
    rows
}

/// Render the self-time table, largest row first.
pub fn render_table(rows: &BTreeMap<&'static str, f64>, workers: usize, wall_s: f64) -> String {
    let total = workers as f64 * wall_s;
    let mut sorted: Vec<(&&str, &f64)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = format!("{:<18} {:>10} {:>7}\n", "layer", "self_s", "share");
    for (layer, secs) in sorted {
        out.push_str(&format!("{:<18} {:>10.4} {:>6.1}%\n", layer, secs, 100.0 * secs / total.max(1e-12)));
    }
    out.push_str(&format!("{:<18} {:>10.4}  ({} worker slots × {:.4} s wall)\n", "total", total, workers, wall_s));
    out
}
