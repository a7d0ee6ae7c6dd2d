//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (nothing inside the program is instrumented). The
//! traced run is serial, so children never overlap and a span's self time
//! is its duration minus its direct children's durations. A span's layer
//! is its name up to the first `.` (`arch.replay` belongs to `arch`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Groups the spans of one unit of work (an injection, a suite
    /// workload, a served job); 0 for set-up work.
    pub request: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span; `f` gets the tracer back to open children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer, in seconds: each span's duration less its
    /// direct children's, summed by layer.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        let mut layers = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(0.0) += own;
        }
        layers
    }

    /// The spans as JSON lines: name, start and end in ns since the
    /// tracer was created, parent index and request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            );
        }
        out
    }
}
