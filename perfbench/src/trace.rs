//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON when the run ends.

use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the trace; parents precede their children.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// What the span covers, e.g. `workload.call` or `probe.core.index_churn`.
    pub name: String,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Collects spans for one workload run.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty trace for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Seconds span `id` lasted.
    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON document.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    self.workload,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", spans.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new("w");
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert!(t.seconds(outer) >= t.seconds(1));
        let json = t.to_json();
        assert!(json.contains("\"name\":\"inner\",\"workload\":\"w\""));
    }
}
