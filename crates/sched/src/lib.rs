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
//! overhead study), so [`binary_search`] and [`GsightPlacer`] keep each
//! predictor call cheap. The binary search's probes reject placements that
//! would overcommit a server's CPU headroom before consulting the
//! predictor. Every probe of either featurizes into one reused scratch
//! buffer (`GsightPredictor::predict_with_scratch`) instead of allocating a
//! fresh `32nS + 2n` vector per call, and builds its hypothetical scenario
//! from shared solo profiles (cloning a `metricsd::FunctionProfile` copies
//! no samples).

pub mod binary_search;
pub mod overhead;
pub mod placer;

pub use binary_search::{binary_search_placement, BinarySearchOutcome, PlacementError};
pub use overhead::OverheadBreakdown;
pub use placer::{GsightPlacer, PythiaPlacer, SlaSpec, WorkloadEntry};
