//! `sched` — the Gsight scheduling case study (paper §4, §6.3).
//!
//! The scheduler's goal: *maximize resource efficiency by deploying function
//! instances on a minimum number of active servers while guaranteeing the
//! QoS of colocated workloads*. Exhaustive search over placements is
//! `O(P·S^M)`; the paper's binary-search strategy cuts it to
//! `O(M·P·log S)` by attempting a half spatial overlap whenever the full
//! overlap violates the SLA, checking a single greedy configuration per
//! attempt.
//!
//! * [`binary_search`] — the placement algorithm for a whole M-function
//!   workload.
//! * [`placer`] — [`GsightPlacer`]: the per-instance autoscaling policy
//!   driven by the predictor plus per-workload SLA thresholds (IPC
//!   thresholds derived from the latency–IPC curve, §6.3).
//! * [`overhead`] — wall-clock instrumentation of the scheduling pipeline
//!   for the Fig. 14 overhead study.
//! * [`hierarchical`] — rack-level two-stage search, the hierarchy-
//!   scheduling extension proposed in §6.4's future work.
//! * [`reschedule`] — §4's consolidation pass: migrate instances off
//!   lightly-used servers when every SLA still holds, freeing machines
//!   during load troughs. Under fault injection the same machinery drains
//!   crashed servers ([`plan_drain`]) and validates plans against server
//!   liveness before applying them ([`apply_plan_checked`]).
//!
//! # Degradation under faults
//!
//! Placement calls return [`PlacementError`] instead of panicking when the
//! candidate set is empty (all servers dead/full) or no spread satisfies
//! the SLA. During predictor outages [`GsightPlacer`] switches to a
//! predictor-free degraded policy — reuse the workload's last known good
//! server, else interference-oblivious Best-Fit — and flags those audit
//! records `degraded`.
//!
//! # Predictor-call efficiency
//!
//! Scheduling cost is dominated by predictor invocations (the Fig. 14
//! overhead study), so both search paths keep each predictor call cheap:
//!
//! * [`binary_search`] probes reject placements that would overcommit a
//!   server's CPU headroom before consulting the predictor, and every probe
//!   featurizes into one reused scratch buffer
//!   (`GsightPredictor::predict_with_scratch`) instead of allocating a
//!   fresh `32nS + 2n` vector per call.
//! * [`reschedule`]'s SLA check gathers all scenario evaluations of one
//!   hypothetical move into a single
//!   `GsightPredictor::predict_batch_with_scratch` call (one fused
//!   featurize-and-walk per scenario through a reused buffer) and skips
//!   SLA entries with no instance on the donor or receiver server — the
//!   move cannot change their colocation, so their satisfied
//!   prediction stands. Plans are unchanged (batch prediction is
//!   bit-identical to sequential) while strictly fewer scenario
//!   evaluations are spent whenever an SLA workload sits away from the
//!   move.

pub mod binary_search;
pub mod hierarchical;
pub mod overhead;
pub mod placer;
pub mod reschedule;

pub use binary_search::{binary_search_placement, BinarySearchOutcome, PlacementError};
pub use hierarchical::{contiguous_racks, hierarchical_placement, HierarchicalOutcome, Rack};
pub use overhead::OverheadBreakdown;
pub use placer::{GsightPlacer, PythiaPlacer, SlaSpec, WorkloadEntry};
pub use reschedule::{
    apply_plan_checked, plan_consolidation, plan_drain, Migration, PlanError, ReschedulePlan,
};
