//! Spans recorded from outside the library: the benchmark wraps the trait
//! objects it hands to the simulator (`Placer`, `JournalSink`) and times the
//! stage calls it makes itself. Spans stay in memory and are written out
//! after the run.

use obs::journal::{JournalEvent, JournalSink, JournalStats, MemoryJournal};
use platform::scale::{ClusterView, PlacementDecision, Placer};
use std::any::Any;
use std::time::Instant;
use workloads::{FunctionSpec, Workload};

/// One timed interval, in nanoseconds since the run's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Spans`] list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// An in-memory span list sharing one clock origin.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            list: Vec::new(),
        }
    }

    /// Start a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = ns_since(self.origin);
        self.list.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.list.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.list[idx].end_ns = ns_since(self.origin);
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let idx = self.open(name, parent);
        let out = f();
        self.close(idx);
        (out, idx)
    }

    /// Append spans recorded elsewhere (by a wrapper) under `parent`.
    pub fn adopt(&mut self, name: &'static str, parent: usize, intervals: &[(u64, u64)]) {
        self.list
            .extend(intervals.iter().map(|&(start_ns, end_ns)| Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
            }));
    }

    pub fn secs(&self, idx: usize) -> f64 {
        self.list[idx].secs()
    }

    /// Spans as JSON lines: `{"name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.list {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent
            ));
        }
        out
    }
}

/// A [`Placer`] that delegates every call and records one interval per
/// `place`, plus whether it was accepted.
pub struct TimedPlacer<P> {
    pub inner: P,
    origin: Instant,
    pub intervals: Vec<(u64, u64)>,
    pub accepted: usize,
}

impl<P: Placer> TimedPlacer<P> {
    pub fn new(inner: P, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            intervals: Vec::new(),
            accepted: 0,
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.intervals.iter().map(|&(a, b)| b - a).sum::<u64>() as f64 * 1e-9
    }
}

impl<P: Placer + 'static> Placer for TimedPlacer<P> {
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        workload: &Workload,
        node: usize,
        spec: &FunctionSpec,
    ) -> Option<PlacementDecision> {
        let start = ns_since(self.origin);
        let decision = self.inner.place(view, workload, node, spec);
        self.intervals.push((start, ns_since(self.origin)));
        self.accepted += usize::from(decision.is_some());
        decision
    }

    fn note_time(&mut self, now_ms: f64) {
        self.inner.note_time(now_ms);
    }

    fn set_predictor_available(&mut self, available: bool) {
        self.inner.set_predictor_available(available);
    }

    fn note_server_down(&mut self, server: usize) {
        self.inner.note_server_down(server);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A [`JournalSink`] that delegates to a [`MemoryJournal`] and accumulates
/// the time spent in `record` (no span per record: a run writes hundreds
/// of thousands).
pub struct TimedJournal {
    pub inner: MemoryJournal,
    pub busy_ns: u64,
}

impl TimedJournal {
    pub fn new(inner: MemoryJournal) -> Self {
        Self { inner, busy_ns: 0 }
    }
}

impl JournalSink for TimedJournal {
    fn record(&mut self, at_us: u64, event: &JournalEvent) {
        let start = Instant::now();
        self.inner.record(at_us, event);
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }

    fn checkpoint_every_us(&self) -> Option<u64> {
        self.inner.checkpoint_every_us()
    }

    fn stats(&self) -> JournalStats {
        self.inner.stats()
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
