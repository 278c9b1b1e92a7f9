//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer self times derived from them.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and a request id: the cell index of a
//! batch workload, the wire `id` of a serve frame. Spans stay in memory
//! while the workload runs and are written out once, at exit.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        let now = self.at(Instant::now());
        self.record(name, parent, request, now, 0)
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.at(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span with no children; returns its result and the
    /// span's duration in nanoseconds.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, request);
        let result = f();
        (result, self.close(id))
    }

    /// Records a span measured elsewhere: a client-side round trip, or the
    /// server time a response reports.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        start_ns: u64,
        duration_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns.saturating_add(duration_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Per span name: count, total time and self time (ns). A span's self
    /// time is its duration minus the time its children take.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                children[span.parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(&children) {
            let entry = out.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(*child_ns);
        }
        out
    }

    /// Prints the self-time table, with shares of `wall_ns`.
    pub fn print_self_times(&self, wall_ns: f64) {
        println!("layer self times (shares of {:.3} s):", wall_ns / 1e9);
        for (name, (count, total, own)) in self.self_times() {
            println!(
                "  {name:<16} {count:>8} spans {:>11.3} ms total {:>11.3} ms self {:>7.2}%",
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / wall_ns
            );
        }
    }

    /// Writes the run's spans to `<out_dir>/spans-<workload>-<seed>.jsonl`.
    pub fn write_run(&self, out_dir: &Path, workload: &str, seed: u64) -> Result<(), String> {
        let path = out_dir.join(format!("spans-{workload}-{seed}.jsonl"));
        self.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        Ok(())
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}
