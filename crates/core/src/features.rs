//! Flattening a [`Scenario`] into the model's input vector.
//!
//! Layout (matching the paper's `32nS + 2n` dimension accounting, §6.4):
//!
//! ```text
//! [ slot0: U (S×16 row-major) | R (S×16) ]
//! [ slot1: U | R ] … [ slot n−1: U | R ]
//! [ D_0 … D_{n−1} | T_0 … T_{n−1} ]
//! ```
//!
//! Slot 0 is always the prediction target. Unused slots are zero-padded, as
//! the paper does when fewer than `n` workloads are colocated.

use crate::coding::{spatial_allocation_code_into, spatial_utilization_code_into, CodingConfig};
use crate::scenario::Scenario;
use metricsd::NUM_SELECTED;

/// Total feature dimension for a coding configuration: `32nS + 2n`.
pub fn feature_dim(config: &CodingConfig) -> usize {
    let per_slot = 2 * config.num_servers * NUM_SELECTED;
    config.max_workloads * per_slot + 2 * config.max_workloads
}

/// Flatten a scenario into the fixed-shape feature vector.
///
/// Panics if the scenario has more workloads than `config.max_workloads` or
/// touches a server `≥ config.num_servers`.
pub fn featurize(scenario: &Scenario, config: &CodingConfig) -> Vec<f64> {
    let mut out = Vec::with_capacity(feature_dim(config));
    featurize_into(scenario, config, &mut out);
    out
}

/// [`featurize`] into a caller-owned scratch buffer, clearing it first.
///
/// The scheduler's binary search featurizes one hypothetical scenario per
/// probe; reusing one scratch vector across probes avoids a fresh
/// `32nS + 2n`-dimensional allocation (2580 doubles at the paper's coding)
/// on every predictor call. The contents written are identical to
/// [`featurize`]'s return value.
pub fn featurize_into(scenario: &Scenario, config: &CodingConfig, out: &mut Vec<f64>) {
    assert!(
        scenario.len() <= config.max_workloads,
        "scenario has {} workloads, coding allows {}",
        scenario.len(),
        config.max_workloads
    );
    assert!(
        scenario.num_servers <= config.num_servers,
        "scenario spans {} servers, coding allows {}",
        scenario.num_servers,
        config.num_servers
    );
    out.clear();
    out.reserve(feature_dim(config));
    let per_slot = 2 * config.num_servers * NUM_SELECTED;
    for w in scenario.workloads() {
        spatial_utilization_code_into(w, config.num_servers, out);
        spatial_allocation_code_into(w, config.num_servers, out);
    }
    // Zero-pad the unused slots.
    out.resize(config.max_workloads * per_slot, 0.0);
    // Temporal code, written in place (no temporary vectors).
    let base = out.len();
    out.resize(base + 2 * config.max_workloads, 0.0);
    for (i, w) in scenario.workloads().enumerate() {
        out[base + i] = w.start_delay_s;
        out[base + config.max_workloads + i] = w.lifetime_s;
    }
    debug_assert_eq!(out.len(), feature_dim(config));
}

/// Map a feature index back to the metric column it encodes, if it lies in
/// a `U` block. Used to aggregate per-feature forest importances into the
/// 16-metric importances of Fig. 8.
pub fn metric_of_feature(index: usize, config: &CodingConfig) -> Option<usize> {
    let per_slot = 2 * config.num_servers * NUM_SELECTED;
    let u_block = config.num_servers * NUM_SELECTED;
    let spatial_total = config.max_workloads * per_slot;
    if index >= spatial_total {
        return None; // temporal code
    }
    let within_slot = index % per_slot;
    if within_slot < u_block {
        Some(within_slot % NUM_SELECTED)
    } else {
        None // R block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ColoWorkload;
    use cluster::Demand;
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use simcore::SimTime;
    use workloads::WorkloadClass;

    fn small_config() -> CodingConfig {
        CodingConfig {
            num_servers: 2,
            max_workloads: 3,
        }
    }

    fn colo(ipc: f64, server: usize, class: WorkloadClass) -> ColoWorkload {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        let profile = WorkloadProfile::new(
            "w",
            vec![FunctionProfile::new(
                "f",
                vec![ProfileSample {
                    at: SimTime::ZERO,
                    metrics: m,
                }],
                false,
            )],
        );
        ColoWorkload::new(profile, class, vec![Demand::zero()], vec![server])
    }

    #[test]
    fn dimension_formula() {
        // 32nS + 2n with n=3, S=2: 32*3*2 + 6 = 198.
        assert_eq!(feature_dim(&small_config()), 198);
        // Paper shape: n=10, S=8 → 2580.
        assert_eq!(feature_dim(&CodingConfig::paper()), 2580);
    }

    #[test]
    fn featurize_places_target_in_slot0() {
        let cfg = small_config();
        let s = crate::scenario::Scenario::new(
            colo(1.5, 0, WorkloadClass::LatencySensitive),
            vec![],
            2,
        );
        let x = featurize(&s, &cfg);
        assert_eq!(x.len(), 198);
        // Slot 0, U row for server 0, column 0 (IPC).
        assert_eq!(x[0], 1.5);
        // Server 1 row zero.
        assert!(x[16..32].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_padding_for_missing_slots() {
        let cfg = small_config();
        let s = crate::scenario::Scenario::new(
            colo(1.5, 0, WorkloadClass::LatencySensitive),
            vec![],
            2,
        );
        let x = featurize(&s, &cfg);
        let per_slot = 2 * 2 * 16;
        // Slots 1 and 2 are all zeros.
        assert!(x[per_slot..3 * per_slot].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn temporal_code_at_tail() {
        let cfg = small_config();
        let sc = colo(1.0, 0, WorkloadClass::ShortTerm).with_timing(60.0, 430.0);
        let s = crate::scenario::Scenario::new(colo(1.0, 1, WorkloadClass::ShortTerm), vec![sc], 2);
        let x = featurize(&s, &cfg);
        let spatial = 3 * 2 * 2 * 16;
        // D = [0, 60, 0], T = [0, 430, 0].
        assert_eq!(&x[spatial..spatial + 3], &[0.0, 60.0, 0.0]);
        assert_eq!(&x[spatial + 3..spatial + 6], &[0.0, 430.0, 0.0]);
    }

    #[test]
    fn spatial_overlap_shared_rows() {
        // Target on server 1, corunner also on server 1: both U blocks have
        // non-zero row 1, which is how the model sees the overlap.
        let cfg = small_config();
        let s = crate::scenario::Scenario::new(
            colo(1.0, 1, WorkloadClass::LatencySensitive),
            vec![colo(2.0, 1, WorkloadClass::LatencySensitive)],
            2,
        );
        let x = featurize(&s, &cfg);
        let per_slot = 2 * 2 * 16;
        assert_eq!(x[16], 1.0, "target U row server1 col IPC");
        assert_eq!(x[per_slot + 16], 2.0, "corunner U row server1 col IPC");
    }

    #[test]
    fn metric_of_feature_maps_u_blocks() {
        let cfg = small_config();
        assert_eq!(metric_of_feature(0, &cfg), Some(0));
        assert_eq!(metric_of_feature(17, &cfg), Some(1));
        // R block of slot 0 starts at 2*16 = 32.
        assert_eq!(metric_of_feature(32, &cfg), None);
        // Slot 1's U block starts at per_slot = 64.
        assert_eq!(metric_of_feature(64, &cfg), Some(0));
        // Temporal tail.
        assert_eq!(metric_of_feature(192, &cfg), None);
    }

    #[test]
    fn featurize_into_reuses_scratch_bitwise() {
        let cfg = small_config();
        let a = crate::scenario::Scenario::new(
            colo(1.5, 0, WorkloadClass::LatencySensitive),
            vec![colo(2.0, 1, WorkloadClass::LatencySensitive)],
            2,
        );
        let b = crate::scenario::Scenario::new(
            colo(0.9, 1, WorkloadClass::ShortTerm).with_timing(5.0, 50.0),
            vec![],
            2,
        );
        let mut scratch = Vec::new();
        featurize_into(&a, &cfg, &mut scratch);
        assert_eq!(scratch, featurize(&a, &cfg));
        let cap = scratch.capacity();
        // Reuse for a different scenario: stale contents fully overwritten,
        // no reallocation needed.
        featurize_into(&b, &cfg, &mut scratch);
        assert_eq!(scratch, featurize(&b, &cfg));
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "coding allows")]
    fn too_many_workloads_rejected() {
        let cfg = small_config();
        let w = || colo(1.0, 0, WorkloadClass::LatencySensitive);
        let s = crate::scenario::Scenario::new(w(), vec![w(), w(), w()], 2);
        featurize(&s, &cfg);
    }
}
