//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public entry point:
//! a `<layer>.<op>` name, the id shared by every span of one step (or probe,
//! or experiment run), its parent span and its start and end. Spans stay in
//! memory and are written out once, at the end, as Chrome trace-event JSON
//! (opens in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Shared by all spans of one step, probe or experiment run.
    pub id: u64,
    /// The span this one was called from.
    pub parent: Option<SpanId>,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// The layer: the name up to the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Number of spans.
    pub spans: usize,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time (span duration minus the part its children cover).
    pub self_s: f64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            id,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Opens a span that is closed later with [`Tracer::close`]; for spans
    /// whose children are recorded while it is open.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Per-layer span counts, total and self time. A span's self time is its
    /// duration minus the union of its children's intervals within it.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, mut kids) in self.spans.iter().zip(children) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = span.start;
            for (start, end) in kids {
                let start = start.clamp(cursor, span.end);
                let end = end.clamp(start, span.end);
                covered += end - start;
                cursor = end;
            }
            let row = totals.entry(span.layer()).or_default();
            row.spans += 1;
            row.total_s += span.duration().as_secs_f64();
            row.self_s += span.duration().saturating_sub(covered).as_secs_f64();
        }
        totals
    }

    /// Names of spans that do not lie within their parent's interval.
    #[cfg(test)]
    pub fn misnested(&self) -> Vec<&'static str> {
        let outside = |s: &Span| {
            s.parent.is_some_and(|p| s.start < self.spans[p].start || s.end > self.spans[p].end)
        };
        self.spans.iter().filter(|s| outside(s)).map(|s| s.name).collect()
    }

    /// The trace as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, its id and parent in `args`, and `metadata` as the
    /// document's `otherData`.
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{}", json_string(key), json_string(value));
        }
        out.push_str("},\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                json_string(span.name),
                json_string(span.layer()),
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(tracer: &Tracer, ms: u64) -> Instant {
        tracer.origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new();
        let root = tracer.record("lab.run", 1, None, at(&tracer, 0), at(&tracer, 100));
        // Two overlapping children cover 10..50; a third covers 60..70.
        tracer.record("service.a", 1, Some(root), at(&tracer, 10), at(&tracer, 40));
        tracer.record("service.b", 1, Some(root), at(&tracer, 30), at(&tracer, 50));
        tracer.record("service.c", 1, Some(root), at(&tracer, 60), at(&tracer, 70));
        let totals = tracer.layer_totals();
        let lab = totals["lab"];
        assert_eq!(lab.spans, 1);
        assert!((lab.total_s - 0.100).abs() < 1e-9);
        assert!((lab.self_s - 0.050).abs() < 1e-9, "{}", lab.self_s);
        let service = totals["service"];
        assert_eq!(service.spans, 3);
        assert!((service.self_s - 0.060).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_is_valid_and_carries_ids_and_parents() {
        let mut tracer = Tracer::new();
        let root = tracer.open("ztrain.step", 7, None);
        tracer.record("csd.pass", 7, Some(root), at(&tracer, 0), at(&tracer, 1));
        tracer.close(root);
        let text = tracer.chrome_json(&[("seed", "3".to_string()), ("note", "a\"b".to_string())]);
        let doc = serde_json::parse(&text).expect("trace is valid JSON");
        let serde_json::Value::Object(fields) = doc else { panic!("not an object") };
        let events = fields.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v);
        let Some(serde_json::Value::Array(events)) = events else { panic!("no traceEvents") };
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"id\":7,\"parent\":0"));
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("a\\\"b"));
    }
}
