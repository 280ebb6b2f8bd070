//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into the product
//! crates' public functions — the program under test carries no extra
//! tracing. A span has a name, start and end (microseconds from the
//! recorder's origin), the span that caused it and an optional request
//! id. Spans stay in memory until the run ends and are then written out
//! as JSON lines. A disabled recorder still times the closure (callers
//! need the durations for the end-to-end metrics) but keeps nothing.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub request: Option<String>,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Records spans for one thread of the benchmark.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the wall time it took.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let start = Instant::now();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                name: name.to_string(),
                start_us: self.micros(start),
                end_us: 0,
                parent: self.open.borrow().last().copied(),
                request: None,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.micros(end);
        (out, end - start)
    }

    /// Records an already-timed span — one measured on another thread or
    /// exported by a product layer — under `parent` (the innermost open
    /// span when `None`). Returns its id, for children.
    pub fn record(
        &self,
        name: &str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: Option<&str>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            name: name.to_string(),
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent: parent.or_else(|| self.open.borrow().last().copied()),
            request: request.map(str::to_string),
        });
        Some(id)
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() as f64 / 1e3)
            .collect()
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// part of its interval that its child spans cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
                    .filter(|(a, b)| b > a)
                    .collect();
                children.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_us;
                for (a, b) in children {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_us().saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.as_ref().map_or("null".to_string(), |r| format!("\"{r}\""));
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\
                 \"request\":{request}}}",
                s.id, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let base = t.origin;
        let at = |us: u64| base + Duration::from_micros(us);
        t.spans.borrow_mut().push(Span {
            id: 0,
            name: "parent".into(),
            start_us: 0,
            end_us: 1000,
            parent: None,
            request: None,
        });
        t.open.borrow_mut().push(0);
        // Two overlapping children cover [100, 500]; one covers [800, 900].
        t.record("child", (at(100), at(400)), None, None);
        t.record("child", (at(300), at(500)), Some(0), None);
        t.record("child", (at(800), at(900)), None, Some("r1"));
        assert_eq!(t.self_ms("parent"), vec![0.5]);
        assert_eq!(t.durations_ms("child").len(), 3);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(t.durations_ms("x").is_empty());
    }
}
