//! Spatial and temporal overlap coding (paper §3.3).
//!
//! **Spatial overlap**: workload `i`'s utilization code `U_i` is an `S × 16`
//! matrix — one row per server, one column per selected metric. Row `l`
//! holds the (virtual-function-aggregated) solo-run metrics of `i`'s
//! functions placed on server `l`, or zeros when `i` has no function there.
//! Because every workload's matrix shares the same row indexing, functions
//! from different workloads that occupy the same row are *implied to be
//! colocated* — that is how the model sees spatial overlap. The allocation
//! code `R_i` has the same shape, carrying configured resource allocations.
//!
//! **Temporal overlap**: the start-delay vector `D` (seconds relative to
//! the first-arriving workload) and lifetime vector `T` (solo-run length,
//! zero for LS workloads).

use crate::scenario::ColoWorkload;
use cluster::resources::NUM_RESOURCES;
use cluster::Resource;
use metricsd::NUM_SELECTED;

/// Coding configuration: the fixed shapes the model is trained with.
///
/// The paper fixes the number of workload slots `n` ("the maximum allowable
/// colocations in the system", padding unused slots with zeros; they use
/// `n = 10`) and the number of servers `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingConfig {
    /// Number of servers (`S`).
    pub num_servers: usize,
    /// Maximum workload slots (`n`).
    pub max_workloads: usize,
}

impl CodingConfig {
    /// The paper's evaluation shape: 8 servers, up to 10 workloads.
    pub fn paper() -> Self {
        Self {
            num_servers: 8,
            max_workloads: 10,
        }
    }
}

/// Build workload `w`'s spatial utilization code `U_w`: `S` rows of the 16
/// selected solo-run metrics, aggregating same-server functions by the mean
/// (the paper's "virtual larger function").
pub fn spatial_utilization_code(w: &ColoWorkload, num_servers: usize) -> Vec<[f64; NUM_SELECTED]> {
    let mut flat = Vec::new();
    spatial_utilization_code_into(w, num_servers, &mut flat);
    to_rows(&flat)
}

/// Append `U_w` row-major to `out` — the allocation-free form
/// [`crate::featurize_into`] uses. Per-server aggregation sums the cached function means
/// in function order and scales by the reciprocal count, the exact fold
/// of [`metricsd::MetricVector::mean_of`], so the values written are
/// bit-identical to [`spatial_utilization_code`].
pub fn spatial_utilization_code_into(w: &ColoWorkload, num_servers: usize, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + num_servers * NUM_SELECTED, 0.0);
    let rows = &mut out[start..];
    for (func, &server) in w.profile.functions.iter().zip(&w.placement) {
        let m = func.mean().selected();
        let row = &mut rows[server * NUM_SELECTED..(server + 1) * NUM_SELECTED];
        for (acc, v) in row.iter_mut().zip(m) {
            *acc += v;
        }
    }
    for (server, row) in rows.chunks_exact_mut(NUM_SELECTED).enumerate() {
        let c = w.placement.iter().filter(|&&s| s == server).count();
        if c > 0 {
            let k = 1.0 / c as f64;
            for v in row {
                *v *= k;
            }
        }
    }
}

/// Build workload `w`'s spatial allocation code `R_w`: same `S × 16` shape
/// (the paper sizes `R` identically so the model input is `32nS + 2n`);
/// the first six columns carry the aggregated resource allocations in
/// [`Resource`] order, the rest are zero.
pub fn spatial_allocation_code(w: &ColoWorkload, num_servers: usize) -> Vec<[f64; NUM_SELECTED]> {
    let mut flat = Vec::new();
    spatial_allocation_code_into(w, num_servers, &mut flat);
    to_rows(&flat)
}

/// Append `R_w` row-major to `out` without allocating; values are
/// bit-identical to [`spatial_allocation_code`].
pub fn spatial_allocation_code_into(w: &ColoWorkload, num_servers: usize, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + num_servers * NUM_SELECTED, 0.0);
    let rows = &mut out[start..];
    for (demand, &server) in w.demands.iter().zip(&w.placement) {
        let row = &mut rows[server * NUM_SELECTED..];
        for r in Resource::ALL {
            row[r.index()] += demand.get(r);
        }
    }
    // Mean aggregation, mirroring the virtual-function rule for U.
    for (server, row) in rows.chunks_exact_mut(NUM_SELECTED).enumerate() {
        let c = w.placement.iter().filter(|&&s| s == server).count();
        if c > 1 {
            for v in row.iter_mut().take(NUM_RESOURCES) {
                *v /= c as f64;
            }
        }
    }
}

/// Regroup a flat row-major code into per-server rows.
fn to_rows(flat: &[f64]) -> Vec<[f64; NUM_SELECTED]> {
    flat.chunks_exact(NUM_SELECTED)
        .map(|chunk| {
            let mut row = [0.0; NUM_SELECTED];
            row.copy_from_slice(chunk);
            row
        })
        .collect()
}

/// Classification of the interference between two workloads' placements
/// (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterferenceKind {
    /// The workloads occupy exactly the same server set.
    Full,
    /// The server sets intersect but differ.
    Partial,
    /// Disjoint server sets: no interference.
    Zero,
}

/// Classify the interference between two placements.
pub fn interference_kind(a: &ColoWorkload, b: &ColoWorkload) -> InterferenceKind {
    let sa = a.servers();
    let sb = b.servers();
    let intersects = sa.iter().any(|s| sb.binary_search(s).is_ok());
    if !intersects {
        InterferenceKind::Zero
    } else if sa == sb {
        InterferenceKind::Full
    } else {
        InterferenceKind::Partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Demand;
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use simcore::SimTime;
    use workloads::WorkloadClass;

    fn func_profile(name: &str, ipc: f64) -> FunctionProfile {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        FunctionProfile::new(
            name,
            vec![ProfileSample {
                at: SimTime::ZERO,
                metrics: m,
            }],
            false,
        )
    }

    fn colo(ipcs: &[f64], placement: Vec<usize>) -> ColoWorkload {
        let profile = WorkloadProfile::new(
            "w",
            ipcs.iter()
                .enumerate()
                .map(|(i, &ipc)| func_profile(&format!("f{i}"), ipc))
                .collect(),
        );
        let demands = ipcs
            .iter()
            .map(|_| Demand::new(1.0, 2.0, 3.0, 0.0, 0.0, 0.5))
            .collect();
        ColoWorkload::new(profile, WorkloadClass::ShortTerm, demands, placement)
    }

    #[test]
    fn utilization_rows_follow_placement() {
        let w = colo(&[1.0, 3.0], vec![0, 2]);
        let u = spatial_utilization_code(&w, 4);
        assert_eq!(u.len(), 4);
        // Metric::Ipc is column 0 of the selected projection.
        assert_eq!(u[0][0], 1.0);
        assert_eq!(u[2][0], 3.0);
        assert!(u[1].iter().all(|&v| v == 0.0), "empty server row is zeros");
        assert!(u[3].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn virtual_function_averages_same_server() {
        // Functions {0,1} on server 1 → one virtual function with mean IPC 2.
        let w = colo(&[1.0, 3.0], vec![1, 1]);
        let u = spatial_utilization_code(&w, 2);
        assert_eq!(u[1][0], 2.0);
    }

    #[test]
    fn allocation_rows_carry_demands() {
        let w = colo(&[1.0], vec![1]);
        let r = spatial_allocation_code(&w, 2);
        assert_eq!(r[1][Resource::Cpu.index()], 1.0);
        assert_eq!(r[1][Resource::Llc.index()], 3.0);
        assert!(r[0].iter().all(|&v| v == 0.0));
        // Columns past the 6 resources stay zero.
        assert!(r[1][NUM_RESOURCES..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn allocation_mean_aggregation() {
        let w = colo(&[1.0, 1.0], vec![0, 0]);
        let r = spatial_allocation_code(&w, 1);
        // Two functions each with cpu=1 → virtual mean 1.0 (matches U rule).
        assert_eq!(r[0][Resource::Cpu.index()], 1.0);
    }

    #[test]
    fn interference_classification() {
        let a = colo(&[1.0, 1.0], vec![0, 1]);
        let full = colo(&[1.0, 1.0], vec![1, 0]);
        let partial = colo(&[1.0, 1.0], vec![1, 2]);
        let zero = colo(&[1.0], vec![3]);
        assert_eq!(interference_kind(&a, &full), InterferenceKind::Full);
        assert_eq!(interference_kind(&a, &partial), InterferenceKind::Partial);
        assert_eq!(interference_kind(&a, &zero), InterferenceKind::Zero);
    }

    #[test]
    fn paper_coding_shape() {
        let c = CodingConfig::paper();
        assert_eq!(c.num_servers, 8);
        assert_eq!(c.max_workloads, 10);
    }
}
