//! In-memory spans and counters for the traced run.
//!
//! A span is one timed public call: name, start, end, the span it ran
//! inside, and an id shared by everything one plan or injection causes.
//! Spans stay in memory until the run ends; [`Spans::write_jsonl`] writes
//! them out.  A disabled recorder only runs the closures, so the untraced
//! run goes through the same code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: Cell<u64>,
    next: Cell<u64>,
    counters: RefCell<BTreeMap<&'static str, u64>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: Cell::new(0),
            next: Cell::new(1),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                id: self.id.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    /// A fresh id for the spans of one plan, injection or application.
    pub fn next_id(&self) -> u64 {
        let id = self.next.get();
        self.next.set(id + 1);
        id
    }

    /// Tag every span `f` records with `id`.
    pub fn with_id<R>(&self, id: u64, f: impl FnOnce() -> R) -> R {
        let outer = self.id.replace(id);
        let out = f();
        self.id.set(outer);
        out
    }

    /// Add `n` to an exact counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Self times (duration minus the time covered by child spans) of every
    /// span named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum()
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        let v = self.self_ns(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    pub fn median_ns(&self, name: &str) -> f64 {
        crate::quantile(&self.self_ns(name), 0.5)
    }

    /// Write every span and counter as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        for (name, n) in self.counters.borrow().iter() {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}
