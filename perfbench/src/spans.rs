//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, workload, run)`. Spans stay in
//! memory while the workload runs and are written out once it ends, so
//! recording costs two clock reads and a push. With tracing off the
//! recorder records nothing and the calls it wraps run bare.

use crate::stats::{self_times, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span recorder for one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    traced_run: bool,
    on: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Interval>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            traced_run: on,
            on,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts measured phase `phase`. A traced run records on even phases
    /// only, so it can compare traced and untraced operations (its
    /// tracing overhead); an untraced run never records. Returns whether
    /// this phase records.
    pub fn phase(&mut self, phase: usize) -> bool {
        if self.traced_run {
            self.on = phase.is_multiple_of(2);
        }
        self.on
    }

    /// Ends the alternating phases: a traced run records again.
    pub fn end_phases(&mut self) {
        self.on = self.traced_run;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.names.push(name);
        self.spans.push(Interval {
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time in seconds and call count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut by_name = BTreeMap::new();
        for (name, own) in self.names.iter().zip(self_times(&self.spans)) {
            let entry = by_name.entry(*name).or_insert((0.0, 0));
            entry.0 += own as f64 * 1e-9;
            entry.1 += 1;
        }
        by_name
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        run: u64,
    ) -> std::io::Result<()> {
        for (i, (name, s)) in self.names.iter().zip(&self.spans).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"run\":{run}}}",
                s.start, s.end
            )?;
        }
        Ok(())
    }
}
