//! Observability for the simulated serverless platform.
//!
//! [`Obs`] is the bundle of sinks a simulation carries. Its four fields are
//! all **nullable**: every producer site in the platform first checks
//! whether its sink is present, so a run with observability off pays one
//! branch per site and allocates nothing.
//!
//! * `trace` ([`trace`]) — sim-time request tracing. Each invocation
//!   becomes a span tree (gateway forward → queue wait → cold start →
//!   phase execution → nested/async downstream calls) recorded into a
//!   [`trace::MemorySink`] and exportable as Chrome trace-event JSON that
//!   Perfetto and `chrome://tracing` load directly.
//! * `telemetry` ([`telemetry`]) — a registry of named counters, gauges and
//!   log-bucket histograms (queue depth, cold starts, autoscaler actions,
//!   contention recomputes, SLA violations, …) dumped as JSONL or CSV.
//! * `faults` ([`faultlog`]) — every injected fault and every recovery or
//!   degradation action, in event order.
//! * `journal` ([`journal`]) — the append-only binary event WAL that
//!   replays into the run's artifacts.
//!
//! Two facilities live outside the bundle, on the scheduler side:
//!
//! * [`profile`] — *wall-clock* stage profiling ([`WallProfiler`]) with
//!   percentile summaries on top of `simcore::stats`. `sched::overhead`
//!   and `GsightPlacer`'s probe profiler record into it, and the Fig. 14
//!   overhead study reports it.
//! * [`audit`] — the scheduler audit log ([`AuditLog`]): one record per
//!   placement decision with every candidate spread the binary search
//!   evaluated, its predicted QoS, the SLA verdict, and the chosen
//!   placement. `GsightPlacer` keeps it, and Fig. 11 exports it.
//!
//! [`json`] is the hand-rolled JSON writer/parser the exporters share — the
//! workspace is offline, so no serde.

pub mod audit;
pub mod faultlog;
pub mod journal;
pub mod json;
pub mod profile;
pub mod telemetry;
pub mod trace;

pub use audit::{AuditLog, CandidateEval, DecisionRecord};
pub use faultlog::{FaultLog, FaultRecord};
pub use journal::{JournalEvent, JournalSink, JournalStats};
pub use profile::WallProfiler;
pub use telemetry::Telemetry;
pub use trace::{MemorySink, SpanRecord, Track};

/// The bundle of sinks a simulation carries. `Obs::off()` is the default:
/// every sink absent.
pub struct Obs {
    /// Span sink; `None` when tracing is off.
    pub trace: Option<MemorySink>,
    /// Metric registry; `None` when telemetry is off.
    pub telemetry: Option<Telemetry>,
    /// Fault/recovery event log; `None` unless a chaos run asked for it.
    pub faults: Option<FaultLog>,
    /// Run journal (append-only event WAL); `None` when journaling is off.
    pub journal: Option<Box<dyn JournalSink>>,
}

impl Obs {
    /// Observability fully off — the zero-overhead default.
    pub fn off() -> Self {
        Self {
            trace: None,
            telemetry: None,
            faults: None,
            journal: None,
        }
    }

    /// Tracing into an in-memory sink, telemetry on.
    pub fn recording() -> Self {
        Self {
            trace: Some(MemorySink::new()),
            telemetry: Some(Telemetry::new()),
            ..Self::off()
        }
    }

    /// Telemetry only (no spans).
    pub fn telemetry_only() -> Self {
        Self {
            telemetry: Some(Telemetry::new()),
            ..Self::off()
        }
    }

    /// Builder: attach a fault log (chaos runs record injected faults and
    /// the platform's recovery actions into it).
    pub fn with_fault_log(mut self) -> Self {
        self.faults = Some(FaultLog::new());
        self
    }

    /// Builder: attach a run journal; the engine appends every externally
    /// visible event to it and honors its checkpoint cadence.
    pub fn with_journal(mut self, journal: Box<dyn JournalSink>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The span sink, when tracing is on.
    pub fn memory_sink(&self) -> Option<&MemorySink> {
        self.trace.as_ref()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::off()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracing())
            .field("telemetry", &self.telemetry.is_some())
            .field("faults", &self.faults.is_some())
            .field("journal", &self.journal.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_disabled() {
        let obs = Obs::off();
        assert!(!obs.tracing());
        assert!(obs.telemetry.is_none());
        assert!(obs.memory_sink().is_none());
        assert!(obs.faults.is_none());
        assert!(obs.journal.is_none());
    }

    #[test]
    fn with_journal_attaches() {
        let journal = journal::MemoryJournal::in_memory(&json::Json::obj(), None);
        let obs = Obs::telemetry_only().with_journal(Box::new(journal));
        assert!(obs.journal.is_some());
        let dbg = format!("{obs:?}");
        assert!(dbg.contains("journal: true"));
    }

    #[test]
    fn with_fault_log_attaches_empty_log() {
        let obs = Obs::off().with_fault_log();
        assert!(obs.faults.is_some());
        assert!(obs.faults.unwrap().records().is_empty());
    }

    #[test]
    fn recording_is_enabled() {
        let obs = Obs::recording();
        assert!(obs.tracing());
        assert!(obs.telemetry.is_some());
        assert!(obs.memory_sink().is_some());
    }
}
