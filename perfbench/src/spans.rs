//! In-memory spans recorded around the benchmark's calls into each
//! crate, written out as JSONL when the traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval: a layer boundary crossed by the benchmark.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until_idle`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (run, cell, request) share this id.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span under the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records work that a wrapper timed call by call inside `parent`
    /// (planning, event emission) as one child span of the summed
    /// duration, laid from `offset` into the parent. Aggregated children
    /// of one parent are laid end to end, so they never overlap.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: usize,
        offset: Duration,
        total: Duration,
    ) {
        let start = self.spans[parent].start_ns + offset.as_nanos() as u64;
        let span = Span {
            name,
            start_ns: start,
            end_ns: start + total.as_nanos() as u64,
            parent: Some(parent),
            request: self.spans[parent].request,
        };
        self.spans.push(span);
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Per-request self time of every span named `name`, in ms.
    pub fn self_ms_by_request(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let ms = self.self_ns(id) as f64 / 1e6;
            match out.iter_mut().find(|(r, _)| *r == span.request) {
                Some((_, acc)) => *acc += ms,
                None => out.push((span.request, ms)),
            }
        }
        out.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Share of each root span named `root` covered by the self time of
    /// its descendants (the root's own self time is the uncovered rest).
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.ns() > 0)
            .map(|(id, s)| 1.0 - self.self_ns(id) as f64 / s.ns() as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let root = spans.enter("run", 3);
        let child = spans.enter("sim.submit", 3);
        std::thread::sleep(Duration::from_millis(2));
        spans.exit(child);
        spans.aggregate(
            "core.plan",
            child,
            Duration::ZERO,
            Duration::from_micros(10),
        );
        spans.exit(root);
        let s = spans.spans();
        assert_eq!(s[child].parent, Some(root));
        assert_eq!((s[2].parent, s[2].request), (Some(child), 3));
        assert_eq!(spans.self_ns(child), s[child].ns() - 10_000);
        assert_eq!(spans.self_ns(root), s[root].ns() - s[child].ns());
        let cover = spans.coverage("run");
        assert_eq!(cover.len(), 1);
        assert!(cover[0] > 0.0 && cover[0] <= 1.0);
        assert_eq!(spans.self_ms_by_request("sim.submit").len(), 1);
    }
}
