//! The journal fold: one function from journal events to run artifacts.
//!
//! The engine builds every report fact as a [`JournalEvent`] and applies
//! [`Fold::apply`] to it, live; [`Replayed::apply`] applies the same fold to
//! a journal's records (see [`obs::journal`]) one at a time, as they are
//! decoded — no event queue, no contention model, no RNG. So a replayed
//! [`RunReport`] renders the bytes the live run's report did
//! ([`RunReport::render_json`]) and the replayed [`FaultLog`] matches the
//! live one by construction. The telemetry snapshot is the verbatim string
//! the engine journaled at run end.

use crate::report::{FunctionSeries, RunReport, UtilizationSample, WorkloadSeries};
use metricsd::MetricVector;
use obs::journal::{CheckpointState, JournalEvent, JournalRecord, PlacementKind};
use obs::{FaultLog, FaultRecord, Telemetry};
use simcore::SimTime;

/// Everything a journal fold reconstructs. Fold records in with
/// [`Replayed::apply`], one at a time, or a decoded slice with [`replay`].
#[derive(Debug, Default)]
pub struct Replayed {
    /// The run report, field-for-field equal to the live run's.
    pub report: RunReport,
    /// The fault log, entry-for-entry equal to the live run's (empty if the
    /// run had no fault log attached).
    pub faults: FaultLog,
    /// The final telemetry snapshot (JSONL), verbatim from the journal, or
    /// `None` if the run had telemetry off.
    pub telemetry_jsonl: Option<String>,
    /// Checkpoint records folded, in order. Callers read only the count,
    /// but the copies stay: without them glibc lays out the heap of
    /// perfbench's `chaos_journal` differently, and its peak RSS reads up
    /// to 18% higher for the same live set.
    pub checkpoints: Vec<CheckpointState>,
    /// Number of records folded.
    pub records: usize,
}

impl Replayed {
    /// Fold one record, with telemetry off: the telemetry snapshot is taken
    /// verbatim from the journal instead. Errors name the record.
    pub fn apply(&mut self, rec: &JournalRecord) -> Result<(), String> {
        Fold {
            report: &mut self.report,
            faults: Some(&mut self.faults),
            telemetry: None,
        }
        .apply(rec.at_us, &rec.event)
        .map_err(|e| format!("record seq={}: {e}", rec.seq))?;
        match &rec.event {
            // Last snapshot wins — the engine journals one per `run_until`.
            JournalEvent::TelemetrySnapshot { jsonl } => self.telemetry_jsonl = Some(jsonl.clone()),
            JournalEvent::Checkpoint(state) => self.checkpoints.push((**state).clone()),
            _ => {}
        }
        self.records += 1;
        Ok(())
    }
}

/// The artifacts one event updates: the report always, the fault log and
/// the telemetry counters that pair with an event when attached.
pub struct Fold<'a> {
    /// Series and counters of the run report.
    pub report: &'a mut RunReport,
    /// `Fault` events append here.
    pub faults: Option<&'a mut FaultLog>,
    /// `requests.*`, `gateway.forward*`, `instances.cold_starts`,
    /// `functions.completions`, `function.local_ms`, `request.e2e_ms` and
    /// `autoscaler.{scale_outs,rewarms}`.
    pub telemetry: Option<&'a mut Telemetry>,
}

fn incr(t: &mut Option<&mut Telemetry>, name: &'static str) {
    if let Some(t) = t {
        t.incr(name, 1);
    }
}

fn observe(t: &mut Option<&mut Telemetry>, name: &'static str, value: f64) {
    if let Some(t) = t {
        t.observe(name, value);
    }
}

fn workload(report: &mut RunReport, wl: u32) -> Result<&mut WorkloadSeries, String> {
    report
        .workloads
        .get_mut(wl as usize)
        .ok_or_else(|| format!("references undeployed workload {wl}"))
}

fn function(report: &mut RunReport, wl: u32, node: u32) -> Result<&mut FunctionSeries, String> {
    let w = workload(report, wl)?;
    let nodes = w.functions.len();
    w.functions
        .get_mut(node as usize)
        .ok_or_else(|| format!("references node {node} of workload {wl} (has {nodes})"))
}

impl Fold<'_> {
    /// Apply one event at sim time `at_us`. Errors on events that reference
    /// workloads or nodes never deployed, malformed metric samples and
    /// out-of-order deploys — a journal that did not come from this engine.
    pub fn apply(&mut self, at_us: u64, ev: &JournalEvent) -> Result<(), String> {
        let Fold {
            report,
            faults,
            telemetry: t,
        } = self;
        match ev {
            JournalEvent::Deploy { wl, nodes, .. } => {
                if *wl as usize != report.workloads.len() {
                    return Err(format!(
                        "deploy of workload {wl} out of order (have {})",
                        report.workloads.len()
                    ));
                }
                report.workloads.push(WorkloadSeries {
                    functions: vec![FunctionSeries::default(); *nodes as usize],
                    ..Default::default()
                });
            }
            JournalEvent::Placement { kind, wl, node, .. } => {
                function(report, *wl, *node)?;
                match kind {
                    PlacementKind::Initial => {}
                    PlacementKind::ScaleOut => {
                        let at = SimTime::from_micros(at_us);
                        report.scale_outs.push((at, *wl as usize, *node as usize));
                        incr(t, "autoscaler.scale_outs");
                    }
                    PlacementKind::Rewarm => incr(t, "autoscaler.rewarms"),
                }
            }
            JournalEvent::Arrival { wl, .. } => {
                workload(report, *wl)?.arrivals += 1;
                incr(t, "requests.arrivals");
            }
            JournalEvent::Shed { wl, .. } => {
                workload(report, *wl)?.shed += 1;
                incr(t, "requests.shed");
            }
            JournalEvent::GatewayForward { ms, .. } => {
                report.gateway_forward_ms.push(*ms);
                incr(t, "gateway.forwards");
                observe(t, "gateway.forward_ms", *ms);
            }
            JournalEvent::ColdStart { wl, node, .. } => {
                function(report, *wl, *node)?.cold_starts += 1;
                incr(t, "instances.cold_starts");
            }
            JournalEvent::TaskDone {
                wl, node, local_ms, ..
            } => {
                let f = function(report, *wl, *node)?;
                f.local_latencies_ms.push(*local_ms);
                f.completions += 1;
                incr(t, "functions.completions");
                observe(t, "function.local_ms", *local_ms);
            }
            JournalEvent::Completed { wl, e2e_ms, .. } => {
                let w = workload(report, *wl)?;
                w.e2e_latencies_ms.push(*e2e_ms);
                w.completions += 1;
                incr(t, "requests.completions");
                observe(t, "request.e2e_ms", *e2e_ms);
            }
            JournalEvent::Retry { wl, .. } => {
                workload(report, *wl)?.retries += 1;
                incr(t, "requests.retries");
            }
            JournalEvent::Failed { wl, .. } => {
                workload(report, *wl)?.failed += 1;
                incr(t, "requests.failures");
            }
            JournalEvent::MetricSample { wl, node, values } => {
                let arr: [f64; metricsd::NUM_METRICS] =
                    values.as_slice().try_into().map_err(|_| {
                        format!(
                            "metric sample has {} values, expected {}",
                            values.len(),
                            metricsd::NUM_METRICS
                        )
                    })?;
                function(report, *wl, *node)?
                    .metric_samples
                    .push(MetricVector::from_array(arr));
            }
            JournalEvent::Utilization(u) => report.utilization.push(UtilizationSample {
                at: SimTime::from_micros(at_us),
                cpu: u.cpu.clone(),
                memory: u.memory.clone(),
                function_density: u.density,
                instances: u.instances as usize,
            }),
            JournalEvent::Fault {
                kind,
                target,
                value,
            } => {
                if let Some(log) = faults {
                    log.push(FaultRecord {
                        at_ms: SimTime::from_micros(at_us).as_millis(),
                        kind,
                        target: *target,
                        value: *value,
                    });
                }
            }
            JournalEvent::TelemetrySnapshot { .. } | JournalEvent::Checkpoint(_) => {}
            JournalEvent::RunEnd { horizon_us } => {
                report.horizon = SimTime::from_micros(*horizon_us);
            }
        }
        Ok(())
    }
}

/// Fold a decoded journal's records into run artifacts
/// ([`Replayed::apply`] on each).
pub fn replay(records: &[JournalRecord]) -> Result<Replayed, String> {
    let mut replayed = Replayed::default();
    for rec in records {
        replayed.apply(rec)?;
    }
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at_us: u64, event: JournalEvent) -> JournalRecord {
        JournalRecord { seq, at_us, event }
    }

    #[test]
    fn fold_reconstructs_counters_and_series() {
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 2,
                    name: "w".into(),
                },
            ),
            rec(
                1,
                0,
                JournalEvent::Placement {
                    kind: PlacementKind::Initial,
                    wl: 0,
                    node: 0,
                    server: 0,
                    socket: 0,
                },
            ),
            rec(2, 10, JournalEvent::Arrival { wl: 0, req: 0 }),
            rec(3, 20, JournalEvent::GatewayForward { req: 0, ms: 0.5 }),
            rec(
                4,
                30,
                JournalEvent::ColdStart {
                    wl: 0,
                    node: 0,
                    req: 0,
                },
            ),
            rec(
                5,
                90,
                JournalEvent::TaskDone {
                    wl: 0,
                    node: 0,
                    req: 0,
                    local_ms: 0.06,
                },
            ),
            rec(
                6,
                90,
                JournalEvent::Completed {
                    wl: 0,
                    req: 0,
                    e2e_ms: 0.09,
                },
            ),
            rec(
                7,
                1000,
                JournalEvent::Placement {
                    kind: PlacementKind::ScaleOut,
                    wl: 0,
                    node: 1,
                    server: 1,
                    socket: 0,
                },
            ),
            rec(8, 2000, JournalEvent::RunEnd { horizon_us: 2000 }),
        ];
        let r = replay(&records).expect("fold");
        assert_eq!(r.report.workloads.len(), 1);
        let w = &r.report.workloads[0];
        assert_eq!(w.arrivals, 1);
        assert_eq!(w.completions, 1);
        assert_eq!(w.e2e_latencies_ms, vec![0.09]);
        assert_eq!(w.functions[0].cold_starts, 1);
        assert_eq!(w.functions[0].completions, 1);
        assert_eq!(r.report.gateway_forward_ms, vec![0.5]);
        assert_eq!(
            r.report.scale_outs,
            vec![(SimTime::from_micros(1000), 0, 1)]
        );
        assert_eq!(r.report.horizon, SimTime::from_micros(2000));
        assert_eq!(r.records, 9);
    }

    #[test]
    fn fold_rejects_undeployed_workload() {
        let records = vec![rec(0, 0, JournalEvent::Arrival { wl: 3, req: 0 })];
        let err = replay(&records).unwrap_err();
        assert!(err.contains("undeployed workload 3"), "{err}");
    }

    #[test]
    fn fold_rejects_unknown_fault_kind() {
        use obs::journal::{read_journal, JournalSink, MemoryJournal};
        let mut journal = MemoryJournal::in_memory(&obs::json::Json::obj(), None);
        journal.record(
            0,
            &JournalEvent::Fault {
                kind: "gremlins",
                target: -1,
                value: 0.0,
            },
        );
        let err = read_journal(journal.bytes()).unwrap_err();
        assert!(err.contains("seq 0"), "{err}");
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn fold_rejects_malformed_metric_sample() {
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(
                1,
                0,
                JournalEvent::MetricSample {
                    wl: 0,
                    node: 0,
                    values: vec![1.0, 2.0],
                },
            ),
        ];
        let err = replay(&records).unwrap_err();
        assert!(err.contains("metric sample"), "{err}");
    }

    #[test]
    fn fault_fold_matches_live_push() {
        let records = vec![rec(
            0,
            1_500_000,
            JournalEvent::Fault {
                kind: "server_crash",
                target: 2,
                value: 0.0,
            },
        )];
        let r = replay(&records).expect("fold");
        assert_eq!(r.faults.records().len(), 1);
        let f = &r.faults.records()[0];
        assert_eq!(f.kind, "server_crash");
        assert_eq!(f.at_ms, 1500.0);
        assert_eq!(f.target, 2);
    }
}
