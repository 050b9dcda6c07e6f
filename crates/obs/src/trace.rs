//! Sim-time request tracing.
//!
//! Each invocation's life is recorded as closed spans on **tracks**. A track
//! is a `(pid, tid)` pair mapped onto the Chrome trace-event model the way
//! Perfetto expects: `pid` is the request id (one "process" per request, so
//! requests collapse/expand independently), `tid` is a lane inside it —
//! lane 0 carries the end-to-end request span, lane `node + 1` carries the
//! spans of that call-graph node's invocation (gateway forward, queue wait,
//! cold start, each execution phase, nested wait). Because every span on a
//! lane either contains or is disjoint from every other, the exported JSON
//! nests cleanly — a property the schema tests check via
//! [`nesting_violations`].
//!
//! Producers hold the sink as an `Option<MemorySink>` (see `Obs::trace`)
//! and build records only when it is `Some`, so an uninstrumented run pays
//! one branch per site.

use crate::json::Json;
use simcore::SimTime;
use std::collections::BTreeMap;

/// Where a span lives: Chrome `pid` (request) and `tid` (lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Track {
    /// Request id (rendered as the Chrome "process").
    pub pid: u64,
    /// Lane: 0 = request root, `node + 1` = call-graph node lane.
    pub tid: u64,
}

impl Track {
    /// The request-root lane of request `req`.
    pub fn request(req: u64) -> Track {
        Track { pid: req, tid: 0 }
    }

    /// The lane of call-graph node `node` within request `req`.
    pub fn node(req: u64, node: usize) -> Track {
        Track {
            pid: req,
            tid: node as u64 + 1,
        }
    }
}

/// A closed span: `[start, end]` in sim time on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Display name ("queue wait", "cold start", a phase name, …).
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Track the span belongs to.
    pub track: Track,
    /// Sim-time start.
    pub start: SimTime,
    /// Sim-time end (≥ start).
    pub end: SimTime,
    /// Extra key/value arguments shown in the viewer's detail pane.
    pub args: Vec<(&'static str, Json)>,
}

/// In-memory sink with Chrome trace-event export.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    spans: Vec<SpanRecord>,
    /// `(pid, tid) → (process name, lane name)`; `tid` 0 names the process.
    names: BTreeMap<(u64, u64), (String, String)>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Record a closed span.
    pub fn span(&mut self, span: SpanRecord) {
        debug_assert!(
            span.end >= span.start,
            "span '{}' ends before it starts",
            span.name
        );
        self.spans.push(span);
    }

    /// Give a track a human-readable process/thread name (the first name
    /// given to a track wins).
    pub fn name_track(&mut self, track: Track, process: &str, lane: &str) {
        self.names
            .entry((track.pid, track.tid))
            .or_insert_with(|| (process.to_string(), lane.to_string()));
    }

    /// Spans with a given category, in recording order.
    pub fn spans_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Export as a Chrome trace-event JSON document (the `traceEvents`
    /// object form). `ts`/`dur` are microseconds, exactly the sim clock's
    /// resolution, so no rounding happens on export. Loadable by Perfetto
    /// and `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len() + 2 * self.names.len());
        for ((pid, tid), (process, lane)) in &self.names {
            events.push(meta_event("process_name", *pid, *tid, process));
            events.push(meta_event("thread_name", *pid, *tid, lane));
        }
        for s in &self.spans {
            let mut args = Json::obj();
            for (k, v) in &s.args {
                args = args.field(k, v.clone());
            }
            events.push(
                Json::obj()
                    .field("name", s.name.as_str())
                    .field("cat", s.cat)
                    .field("ph", "X")
                    .field("ts", s.start.as_micros())
                    .field("dur", s.end.since(s.start).as_micros())
                    .field("pid", s.track.pid)
                    .field("tid", s.track.tid)
                    .field("args", args),
            );
        }
        Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
            .render()
    }
}

fn meta_event(kind: &str, pid: u64, tid: u64, name: &str) -> Json {
    Json::obj()
        .field("name", kind)
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .field("args", Json::obj().field("name", name))
}

/// Check the per-track nesting invariant: on each `(pid, tid)` track, any
/// two spans must either be disjoint or one must contain the other.
/// Returns a description of each violating pair (empty = well-nested).
pub fn nesting_violations(spans: &[SpanRecord]) -> Vec<String> {
    let mut by_track: BTreeMap<Track, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(s);
    }
    let mut violations = Vec::new();
    for (track, mut lane) in by_track {
        // Sort by start ascending, then end descending, so a parent sorts
        // before the children it contains.
        lane.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for s in lane {
            while let Some(top) = stack.last() {
                if top.end <= s.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.end > top.end {
                    violations.push(format!(
                        "track {track:?}: '{}' [{}, {}] overlaps '{}' [{}, {}]",
                        s.name,
                        s.start.as_micros(),
                        s.end.as_micros(),
                        top.name,
                        top.start.as_micros(),
                        top.end.as_micros(),
                    ));
                }
            }
            stack.push(s);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: Track, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            cat: "test",
            track,
            start: SimTime(start),
            end: SimTime(end),
            args: vec![],
        }
    }

    #[test]
    fn tracing_off_records_nothing() {
        // Tracing off is the absent sink: a producer gated on it records
        // nothing and there is nothing to export.
        let mut obs = crate::Obs::off();
        assert!(!obs.tracing());
        if let Some(sink) = obs.trace.as_mut() {
            sink.span(span(Track::request(1), "x", 0, 10));
        }
        assert!(obs.memory_sink().is_none());
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut sink = MemorySink::new();
        sink.span(span(Track::request(1), "a", 0, 10));
        sink.span(span(Track::node(1, 0), "b", 2, 8));
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.spans()[0].name, "a");
        assert_eq!(sink.spans_in("test").count(), 2);
    }

    #[test]
    fn chrome_export_is_valid_json_with_events() {
        let mut sink = MemorySink::new();
        sink.name_track(Track::request(3), "req3", "request");
        sink.span(SpanRecord {
            args: vec![("server", Json::from(2u64))],
            ..span(Track::request(3), "root", 100, 900)
        });
        let doc = Json::parse(&sink.chrome_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Two metadata events + one X event.
        assert_eq!(events.len(), 3);
        let x = &events[2];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(100.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(800.0));
        assert_eq!(
            x.get("args").unwrap().get("server").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn nesting_detects_overlap() {
        let t = Track::node(1, 0);
        let ok = vec![span(t, "parent", 0, 100), span(t, "child", 10, 50)];
        assert!(nesting_violations(&ok).is_empty());
        let bad = vec![span(t, "a", 0, 50), span(t, "b", 25, 75)];
        assert_eq!(nesting_violations(&bad).len(), 1);
    }

    #[test]
    fn nesting_allows_disjoint_and_cross_track() {
        let t = Track::node(1, 0);
        let spans = vec![
            span(t, "a", 0, 50),
            span(t, "b", 50, 75), // touching ends are disjoint
            span(Track::node(1, 1), "other lane", 25, 60),
        ];
        assert!(nesting_violations(&spans).is_empty());
    }

    #[test]
    fn track_naming_dedupes() {
        let mut sink = MemorySink::new();
        sink.name_track(Track::request(1), "first", "request");
        sink.name_track(Track::request(1), "second", "request");
        let doc = Json::parse(&sink.chrome_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("first")
        );
    }
}
