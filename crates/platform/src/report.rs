//! Run reports: everything an experiment needs to compute QoS, utilization
//! and overhead statistics after a simulation.

use metricsd::{Metric, MetricVector};
use obs::json::write_num;
use simcore::stats::{Cdf, Summary};
use simcore::SimTime;

/// Per-function observation series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionSeries {
    /// Local latencies (queue wait + own service) in ms, one per completed
    /// invocation of this function.
    pub local_latencies_ms: Vec<f64>,
    /// 1 Hz metric samples (mean over the function's executing instances at
    /// each tick; ticks with no execution produce no sample).
    pub metric_samples: Vec<MetricVector>,
    /// Completed invocation count.
    pub completions: u64,
    /// Cold-start count.
    pub cold_starts: u64,
}

impl FunctionSeries {
    /// Mean IPC over collected samples (NaN when empty).
    pub fn mean_ipc(&self) -> f64 {
        if self.metric_samples.is_empty() {
            return f64::NAN;
        }
        self.metric_samples
            .iter()
            .map(|m| m.get(Metric::Ipc))
            .sum::<f64>()
            / self.metric_samples.len() as f64
    }

    /// Latency summary of this function's local latencies.
    pub fn latency_summary(&self) -> Summary {
        Summary::of(&self.local_latencies_ms)
    }
}

/// Per-workload observation series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadSeries {
    /// End-to-end request latencies in ms (arrival at gateway → completion
    /// of the last call-graph node). For SC/BG jobs this is the JCT.
    pub e2e_latencies_ms: Vec<f64>,
    /// Arrivals observed.
    pub arrivals: u64,
    /// Requests completed.
    pub completions: u64,
    /// Requests shed at the gateway (load shedding; never forwarded).
    pub shed: u64,
    /// Requests that exhausted their retry budget and failed.
    pub failed: u64,
    /// Retry attempts issued (after crash, drop, OOM-kill or timeout).
    pub retries: u64,
    /// Per-function series, indexed by call-graph node.
    pub functions: Vec<FunctionSeries>,
}

impl WorkloadSeries {
    /// End-to-end latency summary.
    pub fn latency_summary(&self) -> Summary {
        Summary::of(&self.e2e_latencies_ms)
    }

    /// Mean IPC across this workload's functions: the mean of each
    /// function's own mean IPC (functions with no samples are skipped).
    /// Averaging per function first keeps the label stable when functions
    /// execute with very different duty cycles — a sample-weighted mean
    /// would swing with whichever function happened to be busy.
    pub fn mean_ipc(&self) -> f64 {
        let per_fn: Vec<f64> = self
            .functions
            .iter()
            .map(|f| f.mean_ipc())
            .filter(|v| v.is_finite())
            .collect();
        if per_fn.is_empty() {
            f64::NAN
        } else {
            per_fn.iter().sum::<f64>() / per_fn.len() as f64
        }
    }

    /// Job completion time in seconds (mean of e2e latencies) — the SC QoS
    /// metric.
    pub fn mean_jct_secs(&self) -> f64 {
        if self.e2e_latencies_ms.is_empty() {
            return f64::NAN;
        }
        self.e2e_latencies_ms.iter().sum::<f64>() / self.e2e_latencies_ms.len() as f64 / 1e3
    }

    /// Total cold starts across functions.
    pub fn cold_starts(&self) -> u64 {
        self.functions.iter().map(|f| f.cold_starts).sum()
    }

    /// Fraction of settled requests (completed + shed + failed) that
    /// completed — the availability metric of chaos runs. NaN when nothing
    /// settled yet.
    pub fn availability(&self) -> f64 {
        let settled = self.completions + self.shed + self.failed;
        if settled == 0 {
            return f64::NAN;
        }
        self.completions as f64 / settled as f64
    }
}

/// One utilization snapshot (taken each collect tick).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSample {
    /// Snapshot time.
    pub at: SimTime,
    /// Per-server CPU utilization fraction.
    pub cpu: Vec<f64>,
    /// Per-server memory utilization fraction.
    pub memory: Vec<f64>,
    /// Function instances deployed per *active* core (paper's function
    /// density; an active server is one with ≥ 1 instance).
    pub function_density: f64,
    /// Total deployed instances.
    pub instances: usize,
}

/// Complete output of one simulation run.
///
/// Derives `PartialEq` so tests can assert that two runs are *identical* —
/// in particular, that turning observability on does not perturb the
/// simulation (the determinism-preservation test).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-workload series, indexed by deployment order.
    pub workloads: Vec<WorkloadSeries>,
    /// Utilization snapshots over time.
    pub utilization: Vec<UtilizationSample>,
    /// Gateway forward latencies in ms.
    pub gateway_forward_ms: Vec<f64>,
    /// Scale-out events: `(time, workload, node)`.
    pub scale_outs: Vec<(SimTime, usize, usize)>,
    /// Wall-clock run time of the simulated horizon.
    pub horizon: SimTime,
}

impl RunReport {
    /// CDF of function density over time (Fig. 11(a)).
    pub fn density_cdf(&self) -> Cdf {
        Cdf::new(
            self.utilization
                .iter()
                .map(|u| u.function_density)
                .collect(),
        )
    }

    /// CDF of mean CPU utilization across active servers (Fig. 11(b)).
    pub fn cpu_util_cdf(&self) -> Cdf {
        Cdf::new(
            self.utilization
                .iter()
                .map(|u| mean_nonzero(&u.cpu))
                .collect(),
        )
    }

    /// CDF of mean memory utilization across active servers (Fig. 11(c)).
    pub fn memory_util_cdf(&self) -> Cdf {
        Cdf::new(
            self.utilization
                .iter()
                .map(|u| mean_nonzero(&u.memory))
                .collect(),
        )
    }

    /// Fraction of collect ticks during which a workload's rolling p99 met
    /// an SLA bound (Fig. 12's "SLA guaranteed X% of the time"), computed
    /// over windows of `window` consecutive latencies.
    pub fn sla_satisfaction(&self, wl: usize, sla_ms: f64, window: usize) -> f64 {
        let lats = &self.workloads[wl].e2e_latencies_ms;
        if lats.is_empty() || window == 0 {
            return f64::NAN;
        }
        let mut ok = 0usize;
        let mut total = 0usize;
        let mut start = 0usize;
        // One scratch buffer reused across windows: `simcore::percentile`
        // would clone + sort per call, which this per-tick loop turned into
        // an allocation storm on long runs.
        let mut scratch: Vec<f64> = Vec::with_capacity(window);
        while start < lats.len() {
            let end = (start + window).min(lats.len());
            scratch.clear();
            scratch.extend_from_slice(&lats[start..end]);
            scratch.sort_by(|a, b| a.total_cmp(b));
            let p99 = simcore::percentile_sorted(&scratch, 99.0);
            if p99 <= sla_ms {
                ok += 1;
            }
            total += 1;
            start = end;
        }
        ok as f64 / total as f64
    }

    /// The byte-stable report artifact: one JSON line plus a trailing
    /// newline, written straight into one string. Every field the struct
    /// carries is included, latencies and metric samples verbatim, so two
    /// reports are equal iff they render identically — the artifact
    /// `repro replay` diffs against the live run. Numbers render as
    /// [`write_num`] does (`null` for non-finite values, integers without a
    /// fractional part); counts and timestamps go through `f64`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"workloads\":[");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"e2e_latencies_ms\":");
            write_nums(&mut out, &w.e2e_latencies_ms);
            write_field(&mut out, "arrivals", w.arrivals as f64);
            write_field(&mut out, "completions", w.completions as f64);
            write_field(&mut out, "shed", w.shed as f64);
            write_field(&mut out, "failed", w.failed as f64);
            write_field(&mut out, "retries", w.retries as f64);
            out.push_str(",\"functions\":[");
            for (j, f) in w.functions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"local_latencies_ms\":");
                write_nums(&mut out, &f.local_latencies_ms);
                out.push_str(",\"metric_samples\":[");
                for (k, m) in f.metric_samples.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_nums(&mut out, m.as_slice());
                }
                out.push(']');
                write_field(&mut out, "completions", f.completions as f64);
                write_field(&mut out, "cold_starts", f.cold_starts as f64);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("],\"utilization\":[");
        for (i, u) in self.utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"at_us\":");
            write_num(u.at.as_micros() as f64, &mut out);
            out.push_str(",\"cpu\":");
            write_nums(&mut out, &u.cpu);
            out.push_str(",\"memory\":");
            write_nums(&mut out, &u.memory);
            write_field(&mut out, "function_density", u.function_density);
            write_field(&mut out, "instances", u.instances as f64);
            out.push('}');
        }
        out.push_str("],\"gateway_forward_ms\":");
        write_nums(&mut out, &self.gateway_forward_ms);
        out.push_str(",\"scale_outs\":[");
        for (i, &(at, wl, node)) in self.scale_outs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_nums(&mut out, &[at.as_micros() as f64, wl as f64, node as f64]);
        }
        out.push(']');
        write_field(&mut out, "horizon_us", self.horizon.as_micros() as f64);
        out.push_str("}\n");
        out
    }
}

/// `,"key":x` — a numeric field after an object's first.
fn write_field(out: &mut String, key: &str, x: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    write_num(x, out);
}

/// `[a,b,...]`.
fn write_nums(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &x) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_num(x, out);
    }
    out.push(']');
}

/// Mean over servers with non-zero utilization (an inactive server does not
/// drag down the "achieved utilization" statistic).
fn mean_nonzero(values: &[f64]) -> f64 {
    let active: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if active.is_empty() {
        0.0
    } else {
        active.iter().sum::<f64>() / active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_series_summaries() {
        let ws = WorkloadSeries {
            e2e_latencies_ms: vec![10.0, 20.0, 30.0],
            ..Default::default()
        };
        assert!((ws.latency_summary().mean - 20.0).abs() < 1e-12);
        assert!((ws.mean_jct_secs() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn mean_ipc_weighted_over_functions() {
        let mut ws = WorkloadSeries::default();
        let mut f1 = FunctionSeries::default();
        let mut m1 = MetricVector::zero();
        m1.set(Metric::Ipc, 1.0);
        f1.metric_samples = vec![m1, m1];
        let mut f2 = FunctionSeries::default();
        let mut m2 = MetricVector::zero();
        m2.set(Metric::Ipc, 4.0);
        f2.metric_samples = vec![m2];
        ws.functions = vec![f1, f2];
        // Mean of per-function means: (1 + 4) / 2.
        assert!((ws.mean_ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_nan() {
        let ws = WorkloadSeries::default();
        assert!(ws.mean_ipc().is_nan());
        assert!(ws.mean_jct_secs().is_nan());
        assert!(ws.availability().is_nan());
    }

    #[test]
    fn availability_over_settled_requests() {
        let ws = WorkloadSeries {
            completions: 90,
            shed: 5,
            failed: 5,
            ..Default::default()
        };
        assert!((ws.availability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sla_satisfaction_windows() {
        let mut r = RunReport::default();
        // Two windows of 3: first all fast, second all slow.
        let ws = WorkloadSeries {
            e2e_latencies_ms: vec![10.0, 10.0, 10.0, 100.0, 100.0, 100.0],
            ..Default::default()
        };
        r.workloads.push(ws);
        assert!((r.sla_satisfaction(0, 50.0, 3) - 0.5).abs() < 1e-12);
        assert!((r.sla_satisfaction(0, 200.0, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_cdf_from_samples() {
        let mut r = RunReport::default();
        for (i, d) in [1.0, 2.0, 3.0].iter().enumerate() {
            r.utilization.push(UtilizationSample {
                at: SimTime::from_secs(i as f64),
                cpu: vec![0.5, 0.0],
                memory: vec![0.25, 0.0],
                function_density: *d,
                instances: 4,
            });
        }
        let cdf = r.density_cdf();
        assert_eq!(cdf.len(), 3);
        assert!(
            (r.cpu_util_cdf().mean() - 0.5).abs() < 1e-12,
            "inactive servers excluded"
        );
    }

    #[test]
    fn render_json_pins_the_artifact_format() {
        let mut values = [0.0; metricsd::NUM_METRICS];
        values[0] = 1.25;
        values[1] = -0.0;
        values[2] = f64::NAN;
        let r = RunReport {
            workloads: vec![
                WorkloadSeries {
                    e2e_latencies_ms: vec![
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        -0.0,
                        9_007_199_254_740_992.0, // 2^53
                        1e20,
                        12.5,
                    ],
                    arrivals: 4,
                    completions: 2,
                    shed: 1,
                    failed: 1,
                    retries: 3,
                    functions: vec![
                        FunctionSeries {
                            local_latencies_ms: vec![0.1, 7.0],
                            metric_samples: vec![],
                            completions: 2,
                            cold_starts: 1,
                        },
                        FunctionSeries {
                            metric_samples: vec![MetricVector::from_array(values)],
                            ..Default::default()
                        },
                    ],
                },
                WorkloadSeries::default(),
            ],
            utilization: vec![UtilizationSample {
                at: SimTime(1_000_000),
                cpu: vec![0.5, 0.0],
                memory: vec![0.25, 1.0],
                function_density: 0.75,
                instances: 3,
            }],
            gateway_forward_ms: vec![0.3],
            scale_outs: vec![(SimTime(2_500_000), 0, 1)],
            horizon: SimTime(3_000_000),
        };
        let json = r.render_json();
        let expected = concat!(
            r#"{"workloads":[{"e2e_latencies_ms":[null,null,null,0,9007199254740992,"#,
            r#"100000000000000000000,12.5],"arrivals":4,"completions":2,"shed":1,"#,
            r#""failed":1,"retries":3,"functions":[{"local_latencies_ms":[0.1,7],"#,
            r#""metric_samples":[],"completions":2,"cold_starts":1},"#,
            r#"{"local_latencies_ms":[],"metric_samples":[[1.25,0,null,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],"#,
            r#""completions":0,"cold_starts":0}]},"#,
            r#"{"e2e_latencies_ms":[],"arrivals":0,"completions":0,"shed":0,"failed":0,"#,
            r#""retries":0,"functions":[]}],"#,
            r#""utilization":[{"at_us":1000000,"cpu":[0.5,0],"memory":[0.25,1],"#,
            r#""function_density":0.75,"instances":3}],"gateway_forward_ms":[0.3],"#,
            r#""scale_outs":[[2500000,0,1]],"horizon_us":3000000}"#,
            "\n"
        );
        assert_eq!(json, expected);
        let parsed = obs::json::Json::parse(&json).expect("the report is valid JSON");
        assert_eq!(parsed.get("horizon_us").and_then(|h| h.as_f64()), Some(3e6));
    }

    #[test]
    fn function_series_mean_ipc_nan_when_empty() {
        let f = FunctionSeries::default();
        assert!(f.mean_ipc().is_nan());
    }
}
