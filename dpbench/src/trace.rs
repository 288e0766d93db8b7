//! In-memory spans for the `--trace 1` run: name, start and end in
//! nanoseconds since one `obskit::Stopwatch` epoch, the parent span and
//! the request id every span of one request shares. Spans are written
//! out once, when the run ends.

use obskit::Stopwatch;
use std::fmt::Write as _;
use std::path::Path;

pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Stopwatch,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(epoch: Stopwatch) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed_ns()
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` under a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Adds a span measured elsewhere on the same epoch.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Duration of every direct child of `root`, by name (repeated
    /// children, such as one `fit_shard` per shard, are summed).
    pub fn child_ns(&self, root: usize) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for span in &self.spans[root + 1..] {
            if span.parent != Some(root) {
                continue;
            }
            let ns = span.end_ns - span.start_ns;
            match out.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += ns,
                None => out.push((span.name, ns)),
            }
        }
        out
    }

    /// Writes `{"header": .., "spans": [..]}`; `header` is a rendered
    /// JSON object.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"header\":{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
