//! Functions as sequences of phases.
//!
//! A serverless function's execution is modelled as an ordered list of
//! [`PhaseSpec`]s: the cold-start phase (optional, paper §5.2 treats startup
//! as "an ordinary phase of the function execution") followed by one or more
//! work phases. Phases are the granularity at which resource demand — and
//! therefore interference sensitivity — changes over time, which is what
//! makes partial interference *temporally varied* (Observation 3: the later
//! map phase and the shuffle phase of LogisticRegression are more sensitive
//! than the early phase).

use crate::class::WorkloadClass;
use crate::dag::CallGraph;
use cluster::microarch::MicroarchBaseline;
use cluster::{Boundedness, Demand, InstanceLoad, Sensitivity};
use simcore::SimTime;

/// One execution phase of a function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Solo-run duration of the phase.
    pub duration: SimTime,
    /// Resource demand while the phase runs alone.
    pub demand: Demand,
    /// Bottleneck decomposition.
    pub bounded: Boundedness,
    /// Memory-subsystem sensitivity.
    pub sens: Sensitivity,
    /// Solo microarchitecture counter baseline.
    pub micro: MicroarchBaseline,
}

impl PhaseSpec {
    /// Convert into the load this phase exerts on a server when the
    /// instance is pinned to `socket`.
    pub fn load(&self, socket: usize) -> InstanceLoad {
        InstanceLoad {
            demand: self.demand,
            bounded: self.bounded,
            sens: self.sens,
            socket,
        }
    }
}

/// A serverless function: an optional cold-start phase plus work phases.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name, unique within its workload.
    pub name: String,
    /// Cold-start phase (image pull, runtime boot, dependency load). Warm
    /// invocations skip it.
    pub cold_start: Option<PhaseSpec>,
    /// Work phases executed in order on every invocation.
    pub phases: Vec<PhaseSpec>,
    /// Memory allocated to each instance (GB) — the paper notes 90 % of
    /// Azure functions stay under 400 MB.
    pub memory_gb: f64,
    /// Maximum concurrent requests one instance serves before queueing.
    pub concurrency: u32,
}

impl FunctionSpec {
    /// Build a single-phase function (the common case for microbenchmarks).
    pub fn single_phase(name: impl Into<String>, phase: PhaseSpec) -> Self {
        Self {
            name: name.into(),
            cold_start: None,
            phases: vec![phase],
            memory_gb: phase.demand.get(cluster::Resource::Memory),
            concurrency: 1,
        }
    }

    /// Solo-run service time of a warm invocation.
    pub fn warm_duration(&self) -> SimTime {
        SimTime(self.phases.iter().map(|p| p.duration.0).sum())
    }

    /// Solo-run service time of a cold invocation.
    pub fn cold_duration(&self) -> SimTime {
        let cold = self.cold_start.map(|p| p.duration.0).unwrap_or(0);
        SimTime(cold + self.warm_duration().0)
    }

    /// Phase `idx` of one invocation: the cold-start phase comes first when
    /// `cold` is set and the function has one, then the work phases. `None`
    /// past the last phase.
    pub fn invocation_phase(&self, cold: bool, idx: usize) -> Option<&PhaseSpec> {
        match (cold, &self.cold_start) {
            (true, Some(cs)) => match idx {
                0 => Some(cs),
                _ => self.phases.get(idx - 1),
            },
            _ => self.phases.get(idx),
        }
    }

    /// Average demand weighted by phase duration — the "size" of the
    /// function as seen by placement heuristics.
    pub fn mean_demand(&self) -> Demand {
        let total: u64 = self.phases.iter().map(|p| p.duration.0).sum();
        if total == 0 {
            return Demand::zero();
        }
        self.phases
            .iter()
            .fold(Demand::zero(), |acc, p| {
                acc.add(&p.demand.scale(p.duration.0 as f64))
            })
            .scale(1.0 / total as f64)
    }
}

/// A complete workload: a named call graph of functions with a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (e.g. "social-network").
    pub name: String,
    /// Taxonomy class (drives QoS metric and temporal coding).
    pub class: WorkloadClass,
    /// Function call-path DAG. Microbenchmarks are single-node graphs.
    pub graph: CallGraph,
}

impl Workload {
    /// Construct, validating the graph.
    pub fn new(name: impl Into<String>, class: WorkloadClass, graph: CallGraph) -> Self {
        Self {
            name: name.into(),
            class,
            graph,
        }
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.graph.len()
    }

    /// Sum of warm solo durations along the critical path — the workload's
    /// ideal end-to-end latency.
    pub fn critical_path_duration(&self) -> SimTime {
        self.graph.critical_path_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::microarch::MicroarchBaseline;

    fn phase(ms: f64) -> PhaseSpec {
        PhaseSpec {
            duration: SimTime::from_millis(ms),
            demand: Demand::new(1.0, 2.0, 3.0, 0.0, 0.0, 0.25),
            bounded: Boundedness::cpu_bound(),
            sens: Sensitivity::new(1.0, 1.0, 0.5),
            micro: MicroarchBaseline::generic(),
        }
    }

    #[test]
    fn warm_and_cold_durations() {
        let mut f = FunctionSpec::single_phase("f", phase(100.0));
        assert_eq!(f.warm_duration(), SimTime::from_millis(100.0));
        assert_eq!(f.cold_duration(), SimTime::from_millis(100.0));
        f.cold_start = Some(phase(250.0));
        assert_eq!(f.cold_duration(), SimTime::from_millis(350.0));
        assert_eq!(f.warm_duration(), SimTime::from_millis(100.0));
    }

    #[test]
    fn invocation_phases_order() {
        let mut f = FunctionSpec::single_phase("f", phase(100.0));
        f.cold_start = Some(phase(50.0));
        let ms = |f: &FunctionSpec, cold, idx| {
            f.invocation_phase(cold, idx)
                .map(|p| p.duration.as_millis())
        };
        assert_eq!((ms(&f, false, 0), ms(&f, false, 1)), (Some(100.0), None));
        assert_eq!(
            (ms(&f, true, 0), ms(&f, true, 1), ms(&f, true, 2)),
            (Some(50.0), Some(100.0), None)
        );
        // A cold invocation of a function without a cold phase is all work.
        f.cold_start = None;
        assert_eq!((ms(&f, true, 0), ms(&f, true, 1)), (Some(100.0), None));
    }

    #[test]
    fn mean_demand_weighted_by_duration() {
        let mut p1 = phase(100.0);
        p1.demand = Demand::new(2.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let mut p2 = phase(300.0);
        p2.demand = Demand::new(6.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let f = FunctionSpec {
            name: "f".into(),
            cold_start: None,
            phases: vec![p1, p2],
            memory_gb: 0.25,
            concurrency: 1,
        };
        // (2*100 + 6*300)/400 = 5.
        assert!((f.mean_demand().get(cluster::Resource::Cpu) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_demand_empty_phases_zero() {
        let f = FunctionSpec {
            name: "f".into(),
            cold_start: None,
            phases: vec![],
            memory_gb: 0.0,
            concurrency: 1,
        };
        assert_eq!(f.mean_demand(), Demand::zero());
    }

    #[test]
    fn phase_load_carries_socket() {
        let p = phase(10.0);
        let load = p.load(2);
        assert_eq!(load.socket, 2);
        assert_eq!(load.demand, p.demand);
    }
}
