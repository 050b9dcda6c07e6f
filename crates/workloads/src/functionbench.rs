//! FunctionBench-like microbenchmarks and SC applications (paper §2, §6.1).
//!
//! The paper uses these as interference *sources* (corunners) and as SC
//! prediction targets. Each builder returns a [`Workload`] whose phase
//! parameters encode the published pressure signature:
//!
//! * `matrix_multiplication` — CPU-intensive, large LLC footprint.
//! * `dd` — disk-I/O-intensive.
//! * `iperf` — network-intensive (and therefore nearly interference-neutral
//!   for CPU-bound victims — Observation 1's "iperf does not impact IPC").
//! * `video_processing` — high CPU & memory pressure, medium disk/network.
//! * `float_operation` — short CPU burst (the one FunctionBench app the
//!   paper notes does *not* take minutes).
//! * `feature_generation` — a three-function SC pipeline used as training
//!   data in the Figure 5 study.
//! * `logistic_regression` / `kmeans` — multi-phase SC jobs whose later
//!   map and shuffle phases are markedly more interference-sensitive,
//!   reproducing Observation 3 / Figure 3(b).

use crate::class::WorkloadClass;
use crate::dag::{CallGraph, CallKind};
use crate::function::{FunctionSpec, PhaseSpec, Workload};
use cluster::microarch::MicroarchBaseline;
use cluster::{Boundedness, Demand, Sensitivity};
use simcore::SimTime;

/// Convenience constructor for a phase.
#[allow(clippy::too_many_arguments)]
fn phase(
    secs: f64,
    demand: Demand,
    bounded: Boundedness,
    sens: Sensitivity,
    micro: MicroarchBaseline,
) -> PhaseSpec {
    PhaseSpec {
        duration: SimTime::from_secs(secs),
        demand,
        bounded,
        sens,
        micro,
    }
}

fn cpu_micro(ipc: f64, l3: f64) -> MicroarchBaseline {
    MicroarchBaseline {
        ipc,
        l3_mpki: l3,
        ..MicroarchBaseline::generic()
    }
}

/// Matrix multiplication: CPU-intensive with a large cache footprint.
/// Solo runtime ≈ 2 minutes.
pub fn matrix_multiplication() -> Workload {
    let p = phase(
        120.0,
        Demand::new(8.0, 60.0, 24.0, 0.0, 0.0, 2.0),
        Boundedness::cpu_bound(),
        Sensitivity::new(1.5, 1.5, 0.5),
        cpu_micro(2.2, 0.8),
    );
    let mut f = FunctionSpec::single_phase("matmul", p);
    f.cold_start = Some(phase(
        1.0,
        Demand::new(0.5, 2.0, 1.0, 30.0, 5.0, 2.0),
        Boundedness::new(0.5, 0.5, 0.0),
        Sensitivity::new(0.3, 0.3, 0.2),
        cpu_micro(1.0, 2.0),
    ));
    Workload::new(
        "matrix-multiplication",
        WorkloadClass::ShortTerm,
        CallGraph::single(f),
    )
}

/// `dd`: disk-I/O-intensive streaming write. Solo runtime ≈ 90 s.
pub fn dd() -> Workload {
    let p = phase(
        90.0,
        Demand::new(0.5, 4.0, 1.0, 450.0, 0.0, 0.5),
        Boundedness::new(0.1, 0.9, 0.0),
        Sensitivity::new(0.2, 0.2, 0.2),
        MicroarchBaseline {
            ipc: 0.9,
            context_switches: 3000.0,
            ..MicroarchBaseline::generic()
        },
    );
    Workload::new(
        "dd",
        WorkloadClass::Background,
        CallGraph::single(FunctionSpec::single_phase("dd", p)),
    )
}

/// `iperf`: network-bandwidth saturator. Solo runtime ≈ 90 s.
pub fn iperf() -> Workload {
    let p = phase(
        90.0,
        Demand::new(0.3, 1.0, 0.3, 0.0, 900.0, 0.25),
        Boundedness::new(0.05, 0.0, 0.95),
        Sensitivity::immune(),
        MicroarchBaseline {
            ipc: 0.8,
            context_switches: 5000.0,
            ..MicroarchBaseline::generic()
        },
    );
    Workload::new(
        "iperf",
        WorkloadClass::Background,
        CallGraph::single(FunctionSpec::single_phase("iperf", p)),
    )
}

/// Video processing: heavy CPU and memory pressure, medium disk/network.
/// Solo runtime ≈ 3 minutes.
pub fn video_processing() -> Workload {
    let p = phase(
        180.0,
        Demand::new(6.0, 50.0, 16.0, 250.0, 150.0, 3.0),
        Boundedness::new(0.7, 0.15, 0.15),
        Sensitivity::new(1.5, 1.0, 0.6),
        cpu_micro(1.4, 3.5),
    );
    Workload::new(
        "video-processing",
        WorkloadClass::ShortTerm,
        CallGraph::single(FunctionSpec::single_phase("video-processing", p)),
    )
}

/// Float operation: sub-second CPU burst.
pub fn float_operation() -> Workload {
    let p = phase(
        0.4,
        Demand::new(1.0, 3.0, 0.5, 0.0, 0.0, 0.125),
        Boundedness::cpu_bound(),
        Sensitivity::new(0.5, 0.3, 0.4),
        cpu_micro(2.8, 0.2),
    );
    Workload::new(
        "float-operation",
        WorkloadClass::Background,
        CallGraph::single(FunctionSpec::single_phase("float-op", p)),
    )
}

/// Feature generation: a three-function SC pipeline
/// (extract → transform → aggregate), used as *training* workload for the
/// function-level vs workload-level study (Fig. 5).
pub fn feature_generation() -> Workload {
    let mut g = CallGraph::new();
    let extract = g.add(FunctionSpec::single_phase(
        "fg-extract",
        phase(
            20.0,
            Demand::new(0.8, 4.0, 1.0, 90.0, 10.0, 0.5),
            Boundedness::new(0.3, 0.6, 0.1),
            Sensitivity::new(0.4, 0.4, 0.3),
            cpu_micro(1.1, 2.0),
        ),
    ));
    let transform = g.add(FunctionSpec::single_phase(
        "fg-transform",
        phase(
            45.0,
            Demand::new(5.0, 30.0, 12.0, 0.0, 0.0, 1.5),
            Boundedness::cpu_bound(),
            Sensitivity::new(1.0, 1.2, 0.5),
            cpu_micro(1.8, 1.2),
        ),
    ));
    let aggregate = g.add(FunctionSpec::single_phase(
        "fg-aggregate",
        phase(
            15.0,
            Demand::new(1.0, 8.0, 3.0, 0.0, 20.0, 0.75),
            Boundedness::new(0.7, 0.0, 0.3),
            Sensitivity::new(0.8, 0.8, 0.4),
            cpu_micro(1.3, 2.5),
        ),
    ));
    g.link(extract, transform, CallKind::Async);
    g.link(transform, aggregate, CallKind::Async);
    Workload::new("feature-generation", WorkloadClass::ShortTerm, g)
}

/// Logistic regression over 4 M examples (paper: 15 GB, 60 instances,
/// solo JCT ≈ 429 s). Three phases of rising interference sensitivity:
/// early map, late map, and the memory/network-heavy shuffle — the
/// structure behind Figure 3(b)'s start-delay sweep.
pub fn logistic_regression() -> Workload {
    let map_early = phase(
        180.0,
        Demand::new(2.5, 20.0, 8.0, 40.0, 10.0, 4.0),
        Boundedness::new(0.8, 0.15, 0.05),
        Sensitivity::new(0.6, 0.6, 0.3),
        cpu_micro(1.9, 1.0),
    );
    let map_late = phase(
        150.0,
        Demand::new(3.5, 40.0, 16.0, 10.0, 10.0, 6.0),
        Boundedness::new(0.9, 0.05, 0.05),
        Sensitivity::new(1.8, 2.0, 0.6),
        cpu_micro(1.5, 2.5),
    );
    let shuffle = phase(
        100.0,
        Demand::new(2.0, 55.0, 10.0, 20.0, 400.0, 5.0),
        Boundedness::new(0.5, 0.1, 0.4),
        Sensitivity::new(2.0, 1.5, 0.5),
        cpu_micro(1.0, 4.0),
    );
    let f = FunctionSpec {
        name: "logistic-regression".into(),
        cold_start: None,
        phases: vec![map_early, map_late, shuffle],
        memory_gb: 6.0,
        concurrency: 1,
    };
    Workload::new(
        "logistic-regression",
        WorkloadClass::ShortTerm,
        CallGraph::single(f),
    )
}

/// KMeans over two 4 M-point partitions (paper: 15 GB, 60 instances).
/// Alternating compute/shuffle phases with sensitive shuffles.
pub fn kmeans() -> Workload {
    let compute = |secs: f64| {
        phase(
            secs,
            Demand::new(3.0, 35.0, 14.0, 0.0, 5.0, 5.0),
            Boundedness::new(0.9, 0.0, 0.1),
            Sensitivity::new(1.4, 1.6, 0.5),
            cpu_micro(1.7, 1.8),
        )
    };
    let shuffle = |secs: f64| {
        phase(
            secs,
            Demand::new(1.5, 50.0, 8.0, 0.0, 350.0, 5.0),
            Boundedness::new(0.5, 0.0, 0.5),
            Sensitivity::new(1.8, 1.2, 0.4),
            cpu_micro(1.0, 3.5),
        )
    };
    let f = FunctionSpec {
        name: "kmeans".into(),
        cold_start: None,
        phases: vec![compute(140.0), shuffle(60.0), compute(120.0), shuffle(60.0)],
        memory_gb: 5.0,
        concurrency: 1,
    };
    Workload::new("kmeans", WorkloadClass::ShortTerm, CallGraph::single(f))
}

/// Every FunctionBench-derived workload in this module.
pub fn all() -> Vec<Workload> {
    vec![
        matrix_multiplication(),
        dd(),
        iperf(),
        video_processing(),
        float_operation(),
        feature_generation(),
        logistic_regression(),
        kmeans(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Resource;

    #[test]
    fn all_builds_and_names_unique() {
        let ws = all();
        assert_eq!(ws.len(), 8);
        let mut names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn pressure_signatures_match_paper() {
        let mm = matrix_multiplication();
        let mm_d = mm.graph.func(mm.graph.roots()[0]).mean_demand();
        assert!(mm_d.get(Resource::Cpu) >= 3.0, "matmul is CPU-intensive");
        assert_eq!(mm_d.get(Resource::Net), 0.0);

        let dd_w = dd();
        let dd_d = dd_w.graph.func(dd_w.graph.roots()[0]).mean_demand();
        assert!(dd_d.get(Resource::Disk) > 100.0, "dd is disk-intensive");

        let ip = iperf();
        let ip_d = ip.graph.func(ip.graph.roots()[0]).mean_demand();
        assert!(ip_d.get(Resource::Net) > 300.0, "iperf is net-intensive");
        assert!(ip_d.get(Resource::Cpu) < 1.0);
    }

    #[test]
    fn iperf_is_interference_immune() {
        let ip = iperf();
        let f = ip.graph.func(ip.graph.roots()[0]);
        assert_eq!(f.phases[0].sens, Sensitivity::immune());
    }

    #[test]
    fn lr_phases_increase_in_sensitivity() {
        let lr = logistic_regression();
        let f = lr.graph.func(lr.graph.roots()[0]);
        assert_eq!(f.phases.len(), 3);
        assert!(f.phases[1].sens.llc > f.phases[0].sens.llc);
        assert!(f.phases[2].sens.membw > f.phases[0].sens.membw);
        // Solo JCT ≈ 430 s, matching the paper's 429 s.
        let jct = f.warm_duration().as_secs();
        assert!((jct - 430.0).abs() < 5.0, "JCT {jct}");
    }

    #[test]
    fn kmeans_alternates_phases() {
        let km = kmeans();
        let f = km.graph.func(km.graph.roots()[0]);
        assert_eq!(f.phases.len(), 4);
        assert!(f.phases[1].demand.get(Resource::Net) > f.phases[0].demand.get(Resource::Net));
    }

    #[test]
    fn feature_generation_is_a_pipeline() {
        let fg = feature_generation();
        assert_eq!(fg.num_functions(), 3);
        assert_eq!(fg.graph.roots().len(), 1);
        // Chain: end-to-end = 20 + 45 + 15 = 80 s.
        assert!((fg.critical_path_duration().as_secs() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn float_operation_is_short() {
        let fo = float_operation();
        assert!(fo.critical_path_duration().as_secs() < 1.0);
    }

    #[test]
    fn matmul_has_cold_start() {
        let mm = matrix_multiplication();
        let f = mm.graph.func(mm.graph.roots()[0]);
        assert!(f.cold_start.is_some());
        assert!(f.cold_duration() > f.warm_duration());
    }
}
