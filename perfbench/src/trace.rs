//! Spans around the benchmark's calls into each layer's public
//! functions. A span has a name, start, end and parent; every span of a
//! run shares the run id. Spans are kept in memory and written out as
//! JSON lines when the run ends. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part child spans cover.
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, in microseconds.
    pub fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    /// Mean duration per span, in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

/// The span recorder of one single-threaded benchmark run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.current.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, parent, start_ns: self.now_ns(), end_ns: 0 });
            spans.len() - 1
        };
        self.current.set(Some(id));
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        self.current.set(parent);
        out
    }

    /// [`Tracer::span`], also returning the wall time of the call in
    /// seconds (measured whether or not spans are recorded).
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.span(name, f);
        (out, t0.elapsed().as_secs_f64())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Totals per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Totals of one span name (zeroes if it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggregate().get(name).copied().unwrap_or_default()
    }

    /// Write every span as one JSON line:
    /// `{"run":…,"id":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true, 1);
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = tr.agg("outer");
        let inner = tr.agg("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 5_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false, 1);
        assert_eq!(tr.span("x", || 7), 7);
        assert_eq!(tr.agg("x").count, 0);
    }
}
