//! Property tests for the overlap coding and feature assembly. Each test
//! loops over seeds, draws its cases from `SimRng::new(seed)` and names the
//! seed in every assert message.

use cluster::Demand;
use gsight::coding::{spatial_utilization_code, CodingConfig};
use gsight::features::{feature_dim, featurize};
use gsight::{ColoWorkload, Scenario};
use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
use simcore::{SimRng, SimTime};
use workloads::WorkloadClass;

fn colo(ipcs: &[f64], placement: Vec<usize>) -> ColoWorkload {
    let profile = WorkloadProfile::new(
        "w",
        ipcs.iter()
            .enumerate()
            .map(|(i, &ipc)| {
                let mut m = MetricVector::zero();
                m.set(Metric::Ipc, ipc);
                let sample = ProfileSample {
                    at: SimTime::ZERO,
                    metrics: m,
                };
                FunctionProfile::new(format!("f{i}"), vec![sample], false)
            })
            .collect(),
    );
    let demands = vec![Demand::new(1.0, 2.0, 1.0, 0.0, 0.0, 0.5); ipcs.len()];
    ColoWorkload::new(profile, WorkloadClass::LatencySensitive, demands, placement)
}

/// 1–5 IPC values in `[0.1, 3)`.
fn ipcs(rng: &mut SimRng) -> Vec<f64> {
    (0..1 + rng.index(5))
        .map(|_| 0.1 + rng.f64() * 2.9)
        .collect()
}

/// A workload of 1–5 functions spread over `num_servers` servers.
fn random_colo(rng: &mut SimRng, num_servers: usize) -> ColoWorkload {
    let ipcs = ipcs(rng);
    let placement = ipcs.iter().map(|_| rng.index(num_servers)).collect();
    colo(&ipcs, placement)
}

#[test]
fn feature_vector_has_fixed_dimension_and_is_deterministic() {
    let config = CodingConfig {
        num_servers: 4,
        max_workloads: 4,
    };
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let target = random_colo(&mut rng, 4);
        let others = (0..rng.index(3))
            .map(|_| random_colo(&mut rng, 4))
            .collect();
        let s = Scenario::new(target, others, 4);
        let x = featurize(&s, &config);
        assert_eq!(x.len(), feature_dim(&config), "seed {seed}");
        assert_eq!(
            x,
            featurize(&s, &config),
            "seed {seed}: featurize is not a function"
        );
    }
}

#[test]
fn empty_servers_code_to_zero_rows() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let w = random_colo(&mut rng, 6);
        let used = w.servers();
        for (server, row) in spatial_utilization_code(&w, 6).iter().enumerate() {
            if !used.contains(&server) {
                assert!(
                    row.iter().all(|&v| v == 0.0),
                    "seed {seed}: server {server} not zeroed"
                );
            }
        }
    }
}

#[test]
fn virtual_function_mean_is_bounded() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        // All functions on one server: the row is the mean of their IPCs.
        let ipcs = ipcs(&mut rng);
        let u = spatial_utilization_code(&colo(&ipcs, vec![0; ipcs.len()]), 1);
        let lo = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ipcs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = u[0][0];
        assert!(
            mean >= lo - 1e-9 && mean <= hi + 1e-9,
            "seed {seed}: {mean} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn slot_padding_is_zero() {
    let config = CodingConfig {
        num_servers: 4,
        max_workloads: 5,
    };
    let per_slot = 2 * 4 * metricsd::NUM_SELECTED;
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let s = Scenario::new(random_colo(&mut rng, 4), vec![], 4);
        let x = featurize(&s, &config);
        // Slots 1..5 all zero.
        assert!(
            x[per_slot..5 * per_slot].iter().all(|&v| v == 0.0),
            "seed {seed}"
        );
    }
}
