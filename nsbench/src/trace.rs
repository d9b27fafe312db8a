//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span named after the layer (`graph.build`, `core.predict`, …). Spans
//! of one request share its stream position as their request id. They
//! stay in memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(name, request, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Span durations in microseconds, grouped by span name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name)
                .or_default()
                .push((span.end_ns - span.start_ns) as f64 / 1e3);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","request":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
