//! Property tests of the platform engine: conservation, service-time lower
//! bounds and FIFO order within an instance, over random single-function
//! workloads and arrival patterns. Each test loops over seeds, draws its
//! cases from `SimRng::new(seed)` and names the seed in every assert
//! message.

use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::{SimRng, SimTime};
use workloads::dag::CallGraph;
use workloads::function::{FunctionSpec, PhaseSpec, Workload};
use workloads::WorkloadClass;

/// Run one function on server 0 socket 0 until `horizon`.
fn run(
    seed: u64,
    duration_ms: u64,
    cpu: f64,
    concurrency: u32,
    arrivals: Vec<SimTime>,
    horizon: SimTime,
) -> Simulation {
    let phase = PhaseSpec {
        duration: SimTime::from_micros(duration_ms * 1000),
        demand: cluster::Demand::new(cpu, cpu * 4.0, cpu * 2.0, 0.0, 0.0, 0.25),
        bounded: cluster::Boundedness::cpu_bound(),
        sens: cluster::Sensitivity::new(1.0, 1.0, 0.5),
        micro: cluster::microarch::MicroarchBaseline::generic(),
    };
    let mut f = FunctionSpec::single_phase("f", phase);
    f.concurrency = concurrency;
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
    sim.deploy(Deployment {
        workload: Workload::new("w", WorkloadClass::LatencySensitive, CallGraph::single(f)),
        placement: vec![vec![PlacementDecision {
            server: 0,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::OpenLoop(arrivals),
    });
    sim.run_until(horizon);
    sim
}

#[test]
fn conservation_and_positive_latencies() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        let duration_ms = 1 + rng.index(199) as u64;
        let cpu = 0.1 + rng.f64() * 3.9;
        let concurrency = 1 + rng.index(7) as u32;
        let mut times: Vec<SimTime> = (0..1 + rng.index(39))
            .map(|_| SimTime(rng.next_u64() % 20_000_000))
            .collect();
        times.sort();
        let n = times.len() as u64;
        let horizon = SimTime::from_secs(20.0 + 40.0 * duration_ms as f64);
        let sim = run(
            rng.next_u64(),
            duration_ms,
            cpu,
            concurrency,
            times,
            horizon,
        );
        let s = &sim.report().workloads[0];
        assert_eq!(s.arrivals, n, "seed {seed}");
        assert_eq!(s.completions, n, "seed {seed}: every request must complete");
        assert_eq!(s.e2e_latencies_ms.len(), n as usize, "seed {seed}");
        for &l in &s.e2e_latencies_ms {
            // Each latency covers at least the solo service time.
            assert!(
                l >= duration_ms as f64 - 1e-6,
                "seed {seed}: latency {l} < work {duration_ms}"
            );
        }
    }
}

#[test]
fn fifo_within_instance() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        // Concurrency 1, uniform arrivals: completions keep arrival order,
        // so latencies never fall while the queue is backed up.
        let duration_ms = 5 + rng.index(45) as u64;
        let gap_us = rng.next_u64() % 30_000;
        let times = (0..10).map(|i| SimTime(i * gap_us)).collect();
        let sim = run(
            rng.next_u64(),
            duration_ms,
            0.5,
            1,
            times,
            SimTime::from_secs(30.0),
        );
        let lats = &sim.report().workloads[0].e2e_latencies_ms;
        assert_eq!(lats.len(), 10, "seed {seed}");
        if gap_us as f64 / 1000.0 <= duration_ms as f64 {
            // Saturated: each successive request waits longer.
            for w in lats.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-6,
                    "seed {seed}: queue should grow: {lats:?}"
                );
            }
        }
    }
}
