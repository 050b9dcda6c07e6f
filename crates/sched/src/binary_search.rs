//! Binary-search placement of a whole workload (paper §4).
//!
//! Search space: the number of servers `k` the new workload spreads over.
//! Smaller `k` = tighter packing = more overlap = more interference.
//! Assuming SLA satisfaction is monotone in `k` (more spread → less
//! interference), binary search finds the smallest SLA-safe `k` with
//! `O(log S)` predictor calls per function, checking one greedy
//! configuration per attempt: *the function with maximum resource
//! requirements goes to the server with the most available resources that
//! can still fit it*. A spread whose greedy configuration would overcommit
//! a server's CPU headroom is rejected as infeasible, forcing the search
//! toward wider spreads; every probe reuses one featurization scratch
//! buffer, so a whole search costs zero feature-vector allocations beyond
//! the first.

use cluster::Demand;
use gsight::{ColoWorkload, GsightPredictor, Scenario};

/// Why a placement attempt produced no placement.
///
/// Replaces the old panics on empty candidate sets: a cluster where every
/// server is dead or full is a legitimate runtime state under fault
/// injection, not a programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// The candidate server set was empty (every server in scope is dead,
    /// full, or excluded) — there is nothing to search.
    NoCandidates,
    /// Every feasible spread violated the SLA: the workload cannot be
    /// placed within this candidate set at this threshold.
    SlaUnsatisfiable,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoCandidates => write!(f, "no candidate servers to place on"),
            Self::SlaUnsatisfiable => write!(f, "no spread satisfies the SLA"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Result of a binary-search placement.
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySearchOutcome {
    /// Chosen server per function of the new workload.
    pub placement: Vec<usize>,
    /// Number of distinct servers used.
    pub spread: usize,
    /// Predicted QoS of the new workload at the chosen placement.
    pub predicted_qos: f64,
    /// Number of predictor invocations performed.
    pub predictor_calls: usize,
}

/// Greedy configuration for a given spread `k`: repeatedly assign the
/// largest-demand function to the candidate server with the most remaining
/// CPU headroom *among those that can still fit it*. `candidates` are
/// ordered most-packed first, so taking the first `k` maximises overlap
/// with existing load. Only when no chosen candidate fits the function does
/// the packer fall back to the least-overcommitted server (most remaining
/// headroom) — the caller detects that overcommit via [`fits_headroom`]
/// and retries at a larger spread.
fn greedy_assign(
    demands: &[Demand],
    capacity: &Demand,
    headroom: &[f64],
    candidates: &[usize],
    k: usize,
) -> Vec<usize> {
    let chosen = &candidates[..k.min(candidates.len())];
    let mut remaining: Vec<(usize, f64)> = chosen.iter().map(|&s| (s, headroom[s])).collect();
    // Function order: biggest first.
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| {
        demands[b]
            .max_normalized(capacity)
            .partial_cmp(&demands[a].max_normalized(capacity))
            .expect("NaN demand")
    });
    let mut placement = vec![0usize; demands.len()];
    for f in order {
        let need = demands[f].get(cluster::Resource::Cpu);
        let best_fitting = remaining
            .iter()
            .enumerate()
            .filter(|(_, &(_, h))| h >= need)
            .max_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).expect("NaN headroom"))
            .map(|(slot, _)| slot);
        let slot = best_fitting.unwrap_or_else(|| {
            remaining
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).expect("NaN headroom"))
                .expect("k >= 1 candidate")
                .0
        });
        placement[f] = remaining[slot].0;
        remaining[slot].1 -= need;
    }
    placement
}

/// Whether `placement` keeps every server's assigned CPU within its
/// remaining headroom.
fn fits_headroom(demands: &[Demand], placement: &[usize], headroom: &[f64]) -> bool {
    let mut used = vec![0.0; headroom.len()];
    for (f, &s) in placement.iter().enumerate() {
        used[s] += demands[f].get(cluster::Resource::Cpu);
    }
    placement.iter().all(|&s| used[s] <= headroom[s] + 1e-9)
}

/// Place a new workload with binary search over its spread.
///
/// * `new_workload` — profile/class/demands of the workload to place; its
///   `placement` field is ignored and replaced by the search.
/// * `existing` — currently deployed workloads (with real placements).
/// * `candidates` — candidate servers ordered most-packed first (the
///   experiment builds this from live utilization).
/// * `headroom` — per-server remaining CPU (indexed by server id).
/// * `capacity` — one server's total capacity (for demand normalisation).
/// * `sla_min_qos` — the placement is accepted when the predicted QoS of
///   the new workload is at least this (IPC threshold from the
///   latency–IPC curve; use `f64::NEG_INFINITY` for BG workloads).
///
/// Returns [`PlacementError::SlaUnsatisfiable`] when even full spread
/// violates the SLA and [`PlacementError::NoCandidates`] when `candidates`
/// is empty (e.g. every server crashed).
#[allow(clippy::too_many_arguments)]
pub fn binary_search_placement(
    predictor: &GsightPredictor,
    new_workload: &ColoWorkload,
    existing: &[ColoWorkload],
    num_servers: usize,
    candidates: &[usize],
    headroom: &[f64],
    capacity: &Demand,
    sla_min_qos: f64,
) -> Result<BinarySearchOutcome, PlacementError> {
    if candidates.is_empty() {
        return Err(PlacementError::NoCandidates);
    }
    let mut predictor_calls = 0usize;
    // One featurization scratch buffer for the whole search: every probe
    // reuses it instead of allocating a fresh 2580-dim vector.
    let mut scratch: Vec<f64> = Vec::new();
    let mut evaluate = |k: usize| -> (Vec<usize>, f64, bool) {
        let placement = greedy_assign(&new_workload.demands, capacity, headroom, candidates, k);
        let feasible = fits_headroom(&new_workload.demands, &placement, headroom);
        let mut target = new_workload.clone();
        target.placement = placement.clone();
        let scenario = Scenario::new(target, existing.to_vec(), num_servers);
        predictor_calls += 1;
        let qos = predictor.predict_with_scratch(&scenario, &mut scratch);
        (placement, qos, feasible)
    };

    let max_k = candidates.len();
    // Full overlap first (k = 1). A probe is accepted only when its SLA
    // holds AND it fits the candidates' CPU headroom — the greedy packer
    // overcommits rather than fail, so the search must reject those
    // configurations and keep widening the spread.
    let (mut best_placement, mut best_qos, feasible) = evaluate(1);
    if best_qos < sla_min_qos || !feasible {
        // Binary search the smallest k in [2, max_k] that is feasible and
        // satisfies the SLA (both are monotone in k: more spread means less
        // interference and more aggregate headroom).
        let (mut lo, mut hi) = (2usize, max_k);
        let mut found = None;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let (placement, qos, feasible) = evaluate(mid);
            if qos >= sla_min_qos && feasible {
                found = Some((placement, qos));
                if mid == 2 {
                    break;
                }
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        (best_placement, best_qos) = found.ok_or(PlacementError::SlaUnsatisfiable)?;
    }
    let mut spread = best_placement.clone();
    spread.sort_unstable();
    spread.dedup();
    Ok(BinarySearchOutcome {
        placement: best_placement,
        spread: spread.len(),
        predicted_qos: best_qos,
        predictor_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Demand;
    use gsight::{CodingConfig, GsightConfig, QosTarget};
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use mlcore::ModelKind;
    use simcore::{SimRng, SimTime};
    use workloads::WorkloadClass;

    fn colo(ipc: f64, l3: f64, placement: Vec<usize>) -> ColoWorkload {
        let n = placement.len();
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        m.set(Metric::L3Mpki, l3);
        let profile = WorkloadProfile::new(
            "w",
            (0..n)
                .map(|i| {
                    FunctionProfile::new(
                        format!("f{i}"),
                        vec![ProfileSample {
                            at: SimTime::ZERO,
                            metrics: m,
                        }],
                        false,
                    )
                })
                .collect(),
        );
        ColoWorkload::new(
            profile,
            WorkloadClass::LatencySensitive,
            vec![Demand::new(1.0, 2.0, l3, 0.0, 0.0, 0.5); n],
            placement,
        )
    }

    /// Ground truth: target IPC shrinks with the number of its functions
    /// sharing a server with the corunner.
    fn truth(target: &ColoWorkload, others: &[ColoWorkload]) -> f64 {
        let base = 2.0;
        let mut overlap = 0usize;
        for o in others {
            for &s in &target.placement {
                if o.placement.contains(&s) {
                    overlap += 1;
                }
            }
        }
        base / (1.0 + 0.4 * overlap as f64)
    }

    fn trained_predictor() -> (GsightPredictor, ColoWorkload) {
        let config = GsightConfig {
            coding: CodingConfig {
                num_servers: 4,
                max_workloads: 3,
            },
            target: QosTarget::Ipc,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed: 3,
        };
        let corunner = colo(1.0, 6.0, vec![0, 0]);
        let mut rng = SimRng::new(1);
        let mut samples = Vec::new();
        for _ in 0..1500 {
            let placement: Vec<usize> = (0..3).map(|_| rng.index(4)).collect();
            let target = colo(2.0, 4.0, placement);
            let y = truth(&target, std::slice::from_ref(&corunner));
            samples.push((Scenario::new(target, vec![corunner.clone()], 4), y));
        }
        let mut p = GsightPredictor::new(config);
        p.bootstrap(&samples);
        (p, corunner)
    }

    #[test]
    fn loose_sla_packs_fully() {
        let (p, corunner) = trained_predictor();
        let new_wl = colo(2.0, 4.0, vec![0, 0, 0]);
        // The most-packed candidate has room for all three functions
        // (3 × 1.0 CPU), so full packing is feasible.
        let out = binary_search_placement(
            &p,
            &new_wl,
            std::slice::from_ref(&corunner),
            4,
            &[0, 1, 2, 3],
            &[3.0, 2.0, 3.0, 4.0],
            &Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0),
            0.1, // trivially satisfied
        )
        .expect("placement found");
        assert_eq!(out.spread, 1, "loose SLA should fully pack");
        assert_eq!(out.predictor_calls, 1);
    }

    #[test]
    fn infeasible_full_packing_spreads_even_under_loose_sla() {
        // Regression: the most-packed candidate (server 0) has only 1.0 CPU
        // headroom for a 3 × 1.0 CPU workload, so k = 1 would overcommit.
        // The old greedy packer assigned by raw headroom and the search
        // accepted the overcommitted k = 1 under a loose SLA; now the probe
        // is marked infeasible and the search widens the spread.
        let (p, corunner) = trained_predictor();
        let new_wl = colo(2.0, 4.0, vec![0, 0, 0]);
        let headroom = [1.0, 2.0, 3.0, 4.0];
        let out = binary_search_placement(
            &p,
            &new_wl,
            std::slice::from_ref(&corunner),
            4,
            &[0, 1, 2, 3],
            &headroom,
            &Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0),
            0.1,
        )
        .expect("placement found");
        assert!(out.spread > 1, "k=1 is infeasible, must spread: {out:?}");
        let mut used = [0.0; 4];
        for &s in &out.placement {
            used[s] += 1.0;
        }
        for (s, &u) in used.iter().enumerate() {
            assert!(
                u <= headroom[s] + 1e-9,
                "server {s} overcommitted: {u} > {}",
                headroom[s]
            );
        }
    }

    #[test]
    fn greedy_assign_prefers_fitting_candidate() {
        // Function needs 2.0 CPU; the highest-headroom candidate in the
        // chosen set only has 1.5 left, but a smaller candidate fits it.
        let demands = vec![
            Demand::new(2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            Demand::new(1.4, 0.0, 0.0, 0.0, 0.0, 0.0),
        ];
        let cap = Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0);
        // Server 1 has the most headroom but fits neither function after
        // the big one lands on server 0... construct: f0 (2.0) fits only
        // server 0 (2.0); server 1 (1.5) is skipped despite being... (see
        // asserts).
        let headroom = vec![2.0, 1.5];
        let p = greedy_assign(&demands, &cap, &headroom, &[0, 1], 2);
        // f0 (2.0) cannot fit server 1 (1.5) → goes to server 0 even though
        // 2.0 > 1.5 makes server 0 the max-headroom anyway; then f1 (1.4)
        // fits only server 1 (server 0 is down to 0.0).
        assert_eq!(p, vec![0, 1]);
        // Fallback: nothing fits → least-overcommitted (max headroom).
        let big = vec![Demand::new(5.0, 0.0, 0.0, 0.0, 0.0, 0.0)];
        let p = greedy_assign(&big, &cap, &headroom, &[0, 1], 2);
        assert_eq!(p, vec![0], "falls back to the least-overcommitted server");
    }

    #[test]
    fn tight_sla_spreads() {
        let (p, corunner) = trained_predictor();
        let new_wl = colo(2.0, 4.0, vec![0, 0, 0]);
        // Full overlap on server 0 → 3 overlapping functions → IPC ≈ 0.9.
        // Requiring ≥ 1.8 forces the workload away from the corunner.
        let out = binary_search_placement(
            &p,
            &new_wl,
            std::slice::from_ref(&corunner),
            4,
            &[0, 1, 2, 3],
            &[1.0, 2.0, 3.0, 4.0],
            &Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0),
            1.8,
        )
        .expect("placement found");
        assert!(out.spread > 1, "tight SLA should spread, got {:?}", out);
        assert!(out.predicted_qos >= 1.8);
        // O(log S) probes: 1 (full) + ≤ 2 binary steps.
        assert!(out.predictor_calls <= 4);
    }

    #[test]
    fn impossible_sla_returns_error() {
        let (p, corunner) = trained_predictor();
        let new_wl = colo(2.0, 4.0, vec![0, 0, 0]);
        let out = binary_search_placement(
            &p,
            &new_wl,
            std::slice::from_ref(&corunner),
            4,
            &[0, 1, 2, 3],
            &[1.0, 2.0, 3.0, 4.0],
            &Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0),
            10.0, // unreachable IPC
        );
        assert_eq!(out, Err(PlacementError::SlaUnsatisfiable));
    }

    #[test]
    fn empty_candidate_set_is_an_error_not_a_panic() {
        // Regression: with every server crashed the candidate list is
        // empty; the old code hit `assert!(!candidates.is_empty())`.
        let (p, corunner) = trained_predictor();
        let new_wl = colo(2.0, 4.0, vec![0, 0, 0]);
        let out = binary_search_placement(
            &p,
            &new_wl,
            std::slice::from_ref(&corunner),
            4,
            &[],
            &[1.0, 2.0, 3.0, 4.0],
            &Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0),
            0.1,
        );
        assert_eq!(out, Err(PlacementError::NoCandidates));
    }

    #[test]
    fn greedy_assign_biggest_to_most_headroom() {
        let demands = vec![
            Demand::new(2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            Demand::new(0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
        ];
        let cap = Demand::new(4.0, 20.0, 8.0, 200.0, 500.0, 16.0);
        let headroom = vec![1.0, 4.0];
        let p = greedy_assign(&demands, &cap, &headroom, &[0, 1], 2);
        // Big function (idx 0) → server 1 (most headroom); then server 1
        // drops to 2.0 headroom, still more than server 0's 1.0, so the
        // small function lands there too.
        assert_eq!(p, vec![1, 1]);
    }
}
