//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written as JSON lines when the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; a span's `parent` refers to one.
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-prefixed name, e.g. `core.prune`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u32,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nothing is written until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the tracer's clock.
    pub fn at(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        // narrowing: a run records under a million spans; ids are u32 to
        // keep a span at 40 bytes.
        (self.spans.len() - 1) as SpanId
    }

    /// Sets the end of a span pushed before its children.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        // narrowing: u32 to usize widens on every supported target.
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total time of the spans called `parent` and total time of their
    /// direct children; their quotient is how much of the parent the
    /// children account for.
    pub fn coverage(&self, parent: &str) -> (u64, u64) {
        let mut parent_ns = 0;
        let mut child_ns = 0;
        for s in &self.spans {
            if s.name == parent {
                parent_ns += s.ns();
            } else if s
                .parent
                // narrowing: u32 to usize widens on every supported target.
                .is_some_and(|p| self.spans[p as usize].name == parent)
            {
                child_ns += s.ns();
            }
        }
        (parent_ns, child_ns)
    }

    /// Writes one JSON object per span; a span's `id` is its line number
    /// (from 0) and `parent` refers to it.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_direct_children_only() {
        let mut t = Tracer::new();
        let q = t.push("query", 0, 0, None, 1);
        let c = t.push("core.prune", 0, 40, Some(q), 1);
        t.push("inner", 0, 10, Some(c), 1);
        t.push("engine.scan", 40, 95, Some(q), 1);
        t.close(q, 100);
        assert_eq!(t.coverage("query"), (100, 95));
        assert_eq!(t.durations("engine.scan"), vec![55]);
    }
}
