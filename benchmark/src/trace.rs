//! Spans recorded in the benchmark's own code, around each call into a layer.
//!
//! One span covers one batch of calls (id, parent, name, start, end, count).
//! Spans stay in memory during the run and are written out once at the end.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per batch; end-to-end metrics always come from that run.

use std::io::Write;
use std::time::Instant;

use crate::json;

/// Handle to an open span; `NONE` when tracing is off or for a root.
pub type SpanId = u32;

/// "No span": the parent of a root, and every id a disabled tracer returns.
pub const NONE: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (posts in the batch, bytes, ...).
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    /// Close a span, recording how many operations it covered.
    pub fn end(&mut self, id: SpanId, count: u64) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Total duration and operation count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns), n + s.count)
            })
    }

    /// Self time of the spans called `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]))
            .sum()
    }

    /// Nanoseconds per operation over the spans called `name`.
    pub fn ns_per_op(&self, name: &str) -> Option<f64> {
        match self.total(name) {
            (_, 0) => None,
            (ns, count) => Some(ns as f64 / count as f64),
        }
    }

    /// Write every span as one JSON document.
    pub fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}{comma}",
                s.id,
                s.parent,
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.count
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64, n: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: n,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(1, NONE, "batch", 0, 100, 256),
            span(2, 1, "fingerprint", 10, 40, 256),
            span(3, 1, "offer", 40, 90, 256),
            span(4, 3, "inner", 50, 60, 1),
            span(5, NONE, "batch", 100, 150, 256),
        ];
        assert_eq!(t.self_ns("batch"), (100 - 30 - 50) + 50);
        assert_eq!(
            t.self_ns("offer"),
            40,
            "grandchildren count once, under their parent"
        );
        assert_eq!(t.total("batch"), (150, 512));
        assert_eq!(t.ns_per_op("fingerprint"), Some(30.0 / 256.0));
        assert_eq!(t.ns_per_op("absent"), None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("batch", NONE);
        t.end(id, 256);
        assert_eq!(id, NONE);
        assert!(t.spans.is_empty());
        let mut out = Vec::new();
        t.write(&mut out).unwrap();
        assert!(crate::json::parse(std::str::from_utf8(&out).unwrap()).is_ok());
    }
}
