//! Conversion from run-report metric series to solo-run profiles.
//!
//! The paper's Gsight agent samples each function at 1 Hz during a dedicated
//! solo run and ships the series to the controller as the function's profile
//! (§3.2). This module packages the simulator's collected series into the
//! [`metricsd`] profile types the predictor consumes.

use crate::report::RunReport;
use metricsd::{FunctionProfile, ProfileSample, WorkloadProfile};
use simcore::SimTime;
use workloads::Workload;

/// Build a [`WorkloadProfile`] from the metric series a run collected for
/// one deployed workload.
///
/// `interval` is the collection interval the run used (sample `i` is stamped
/// `i × interval`). `includes_cold_start` should be true when the profiled
/// run began with cold instances (the usual case for solo profiling).
pub fn profiles_from_report(
    report: &RunReport,
    wl: usize,
    workload: &Workload,
    interval: SimTime,
    includes_cold_start: bool,
) -> WorkloadProfile {
    let series = &report.workloads[wl];
    let functions = workload
        .graph
        .ids()
        .map(|id| {
            let fs = &series.functions[id.0];
            let samples = fs
                .metric_samples
                .iter()
                .enumerate()
                .map(|(i, &metrics)| ProfileSample {
                    at: SimTime(interval.0 * i as u64),
                    metrics,
                })
                .collect();
            FunctionProfile::new(
                workload.graph.func(id).name.clone(),
                samples,
                includes_cold_start,
            )
        })
        .collect();
    WorkloadProfile::new(workload.name.clone(), functions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{FunctionSeries, WorkloadSeries};
    use metricsd::{Metric, MetricVector};

    #[test]
    fn profile_shapes_follow_graph() {
        let w = workloads::socialnetwork::message_posting();
        let mut report = RunReport::default();
        let mut series = WorkloadSeries {
            functions: vec![FunctionSeries::default(); w.graph.len()],
            ..Default::default()
        };
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, 1.5);
        series.functions[0].metric_samples = vec![m, m, m];
        report.workloads.push(series);

        let profile = profiles_from_report(&report, 0, &w, SimTime::from_secs(1.0), true);
        assert_eq!(profile.functions.len(), 9);
        assert_eq!(profile.functions[0].len(), 3);
        assert_eq!(&*profile.functions[0].function, "compose-post");
        assert!(profile.functions[0].includes_cold_start);
        assert_eq!(profile.functions[0].samples[2].at, SimTime::from_secs(2.0));
        assert_eq!(profile.functions[1].len(), 0);
    }
}
