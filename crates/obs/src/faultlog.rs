//! The fault log: every injected fault and every recovery/degradation
//! action the platform took in response, in event order.
//!
//! Chaos runs assert determinism on this log — two runs with the same fault
//! seed must produce byte-identical JSONL — and the CI chaos-smoke job diffs
//! the per-kind counts ([`FaultLog::counts`]) against a checked-in golden
//! summary, so record fields carry only sim-time-derived values (never wall
//! clock).

use crate::json::Json;
use std::collections::BTreeMap;

/// One fault or recovery action.
///
/// `kind` is a stable lowercase label: injected faults use
/// `faults::FaultKind::label()` values (`server_crash`, `slowdown`,
/// `oom_kill`, `cold_storm`, `predictor_outage`) plus `gateway_drop`;
/// platform reactions use `server_recover`, `slowdown_end`, `rewarm`,
/// `retry`, `timeout`, `shed`, `request_failed`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Sim time of the event, in ms.
    pub at_ms: f64,
    /// Stable event label (see type docs).
    pub kind: &'static str,
    /// Target: server index, request id, … ; `-1` when not applicable.
    pub target: i64,
    /// Kind-specific magnitude (slowdown factor, retry delay in ms, …).
    pub value: f64,
}

impl FaultRecord {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("at_ms", self.at_ms)
            .field("kind", self.kind)
            .field("target", self.target as f64)
            .field("value", self.value)
    }
}

/// Append-only log of fault events and recovery actions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
}

/// Every label an engine site can put into [`FaultRecord::kind`] (see the
/// type docs). The journal decoder interns decoded labels back to their
/// `&'static str` form, so the label set is closed.
const KNOWN_KINDS: &[&str] = &[
    "cold_storm",
    "gateway_drop",
    "no_alive_instance",
    "oom_kill",
    "predictor_outage",
    "request_failed",
    "retry",
    "rewarm",
    "server_crash",
    "server_recover",
    "shed",
    "slowdown",
    "slowdown_end",
    "timeout",
];

/// Map a decoded label back to its static form; `None` for labels no engine
/// site emits (a decoder hitting that is reading a corrupt or foreign
/// journal).
pub fn intern_kind(kind: &str) -> Option<&'static str> {
    KNOWN_KINDS.iter().copied().find(|k| *k == kind)
}

impl FaultLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, record: FaultRecord) {
        self.records.push(record);
    }

    /// All events, in order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Per-kind event counts, sorted by kind (the golden-summary shape).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.kind).or_insert(0) += 1;
        }
        counts
    }

    /// `kind=count` lines sorted by kind — the checked-in golden format
    /// used by the CI chaos-smoke diff. Counts only: no floats, so the
    /// summary is stable across platforms.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (kind, n) in self.counts() {
            out.push_str(&format!("{kind}={n}\n"));
        }
        out
    }

    /// One JSON object per event (JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: f64, kind: &'static str, target: i64) -> FaultRecord {
        FaultRecord {
            at_ms,
            kind,
            target,
            value: 0.0,
        }
    }

    #[test]
    fn counts_and_summary_sorted_by_kind() {
        let mut log = FaultLog::new();
        log.push(rec(10.0, "server_crash", 3));
        log.push(rec(20.0, "retry", 7));
        log.push(rec(25.0, "retry", 7));
        log.push(rec(40.0, "server_recover", 3));
        assert_eq!(log.counts()["retry"], 2);
        assert_eq!(log.summary(), "retry=2\nserver_crash=1\nserver_recover=1\n");
    }

    #[test]
    fn intern_kind_roundtrips_known_labels() {
        for kind in super::KNOWN_KINDS {
            assert_eq!(intern_kind(kind), Some(*kind));
        }
        assert_eq!(intern_kind("not_a_fault"), None);
    }

    #[test]
    fn jsonl_schema() {
        let mut log = FaultLog::new();
        log.push(FaultRecord {
            at_ms: 1500.0,
            kind: "slowdown",
            target: 2,
            value: 2.5,
        });
        let jsonl = log.to_jsonl();
        let parsed = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("slowdown"));
        assert_eq!(parsed.get("target").unwrap().as_f64(), Some(2.0));
        assert_eq!(parsed.get("value").unwrap().as_f64(), Some(2.5));
    }
}
