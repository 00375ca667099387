//! The traced run's span recorder.
//!
//! The benchmark times, from outside, each call it makes into a layer's
//! public functions and records one span per call: layer, name, start,
//! end, the span that caused it, and the operation (statement or
//! shipment) it belongs to. The engine's own phase tree
//! (`Cursor::trace()`) is attached beneath the execute span. Spans stay in
//! memory until the run ends, then go to a JSON-lines file.
//!
//! A span's self time is its duration minus the part its children cover;
//! children of one span never overlap (calls are sequential on one thread,
//! and phase-tree children are laid end to end).

use aiql_telemetry::trace::SpanNode;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The statement or shipment this span belongs to.
    pub op: u64,
    pub layer: &'static str,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh identifier, for a span or an operation.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            op,
            layer,
            name: name.into(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Attaches an engine phase tree beneath `parent`. Phase nodes carry
    /// durations only, so children are laid end to end from the parent's
    /// start. `scan:*` phases are storage scans and count as `rdb`; the
    /// rest (plan, join, score, and the unattributed remainder) as
    /// `engine`; compile phases (lex, parse, analyze) as `core`.
    pub fn attach_phases(&self, parent: u64, op: u64, start: Instant, node: &SpanNode) {
        let id = self.id();
        let layer = match node.name.as_str() {
            n if n.starts_with("scan:") => "rdb",
            "prepare" | "lex" | "parse" | "analyze" => "core",
            _ => "engine",
        };
        let end = start + Duration::from_micros(node.micros);
        self.record(
            id,
            parent,
            op,
            layer,
            format!("phase:{}", node.name),
            start,
            end,
        );
        let mut at = start;
        for child in &node.children {
            self.attach_phases(id, op, at, child);
            at += Duration::from_micros(child.micros);
        }
    }

    /// Per-layer self time in microseconds, and the number of distinct
    /// operations the spans belong to.
    pub fn self_time(&self) -> (BTreeMap<&'static str, f64>, usize) {
        let spans = self.spans.lock().expect("span buffer");
        let mut covered: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(s.parent).or_default() += s.end.saturating_sub(s.start);
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut ops = HashSet::new();
        for s in spans.iter() {
            let own = s.end.saturating_sub(s.start);
            let inner = covered.get(&s.id).copied().unwrap_or_default();
            *by_layer.entry(s.layer).or_default() += own.saturating_sub(inner).as_secs_f64() * 1e6;
            ops.insert(s.op);
        }
        (by_layer, ops.len())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":{:?},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.op,
                s.layer,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Times `f` and, when tracing, records it as a span of `layer`. `f`
/// receives the new span's id so its own calls can name it as parent.
/// Returns the result and the elapsed time either way.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    parent: u64,
    op: u64,
    layer: &'static str,
    name: &str,
    f: impl FnOnce(u64) -> T,
) -> (T, Duration) {
    let id = tracer.map_or(0, Tracer::id);
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(id, parent, op, layer, name, start, end);
    }
    (out, end - start)
}
