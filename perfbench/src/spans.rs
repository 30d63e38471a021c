//! In-memory span recorder for the traced run. Spans are recorded around the
//! benchmark's own calls into each layer's public functions; nothing is
//! traced inside the engine.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span this call was made from, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one statement or probe.
    pub request: u64,
    /// Layer call name, e.g. `core.query` or `wire.encode`.
    pub name: &'static str,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds since the recorder started.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    next_request: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_request: 1,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Run `f` inside a span. `f` receives the new span's id so that the
    /// calls it makes can be recorded as children.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: at(start),
            end_us: at(end),
        });
        out
    }

    /// Record a span timed elsewhere (a call made on another thread).
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id: self.next_id,
            parent: None,
            request,
            name,
            start_us: at(start),
            end_us: at(end),
        });
        self.next_id += 1;
    }

    /// Duration (µs) of the span that ended last.
    pub fn last_us(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::us)
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, parent, s.request, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_parents_and_share_the_request() {
        let mut rec = Recorder::new();
        let req = rec.request();
        rec.span(req, None, "statement", |rec, id| {
            rec.span(req, Some(id), "core.query", |_, _| {
                std::hint::black_box((0..1000).sum::<u64>())
            });
        });
        let child = &rec.spans[0];
        let parent = &rec.spans[1];
        assert_eq!((child.name, parent.name), ("core.query", "statement"));
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!(child.request, parent.request);
        assert!(parent.start_us <= child.start_us && child.end_us <= parent.end_us);
        assert_eq!(rec.to_json_lines().lines().count(), 2);
    }
}
