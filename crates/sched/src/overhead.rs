//! Wall-clock instrumentation of the online scheduling pipeline
//! (paper §6.4, Fig. 14).
//!
//! The paper decomposes online cost into four steps — *invocation
//! forwarding*, *scheduling decision making*, *instance starting* and
//! *resource allocation* — and reports that decision making takes a few
//! milliseconds (inference ≈ 3.48 ms, incremental update ≈ 24.8 ms per
//! call) while instance starting dominates.

use obs::WallProfiler;
use simcore::stats::Summary;

/// Stage names for [`PipelineProfile`], matching the paper's four steps.
pub const STAGE_FORWARD: &str = "invocation forwarding";
/// Scheduling decision making (predictor probes of the binary search).
pub const STAGE_DECIDE: &str = "scheduling decision";
/// Instance starting (cold start).
pub const STAGE_START: &str = "instance starting";
/// Resource allocation bookkeeping.
pub const STAGE_ALLOCATE: &str = "resource allocation";

/// Accumulated wall-clock time per pipeline step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverheadBreakdown {
    /// Gateway forwarding (simulated time, ms).
    pub forwarding_ms: f64,
    /// Scheduling decision making (real wall-clock, ms).
    pub decision_ms: f64,
    /// Instance starting / cold start (simulated time, ms).
    pub instance_start_ms: f64,
    /// Resource allocation bookkeeping (real wall-clock, ms).
    pub allocation_ms: f64,
}

impl OverheadBreakdown {
    /// Total across the four steps.
    pub fn total_ms(&self) -> f64 {
        self.forwarding_ms + self.decision_ms + self.instance_start_ms + self.allocation_ms
    }

    /// Fractions per step (same order as the fields); NaNs when total is 0.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total_ms();
        [
            self.forwarding_ms / t,
            self.decision_ms / t,
            self.instance_start_ms / t,
            self.allocation_ms / t,
        ]
    }
}

/// Per-stage sample store for the scheduling pipeline, keeping *every*
/// sample so the Fig. 14 breakdown can report percentiles, not just means.
///
/// [`OverheadBreakdown`] summarises one number per stage; this wraps an
/// [`obs::WallProfiler`] with the four canonical stage names and converts
/// between the two.
#[derive(Debug, Clone, Default)]
pub struct PipelineProfile {
    profiler: WallProfiler,
}

impl PipelineProfile {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a forwarding sample (ms).
    pub fn forward_ms(&mut self, ms: f64) {
        self.profiler.record_ms(STAGE_FORWARD, ms);
    }

    /// Record a decision-making sample (ms).
    pub fn decide_ms(&mut self, ms: f64) {
        self.profiler.record_ms(STAGE_DECIDE, ms);
    }

    /// Record an instance-starting sample (ms).
    pub fn start_ms(&mut self, ms: f64) {
        self.profiler.record_ms(STAGE_START, ms);
    }

    /// Record a resource-allocation sample (ms).
    pub fn allocate_ms(&mut self, ms: f64) {
        self.profiler.record_ms(STAGE_ALLOCATE, ms);
    }

    /// Percentile summary of one stage (see the `STAGE_*` constants).
    pub fn summary(&self, stage: &str) -> Option<Summary> {
        self.profiler.summary(stage)
    }

    /// Mean-per-stage breakdown in the classic Fig. 14 shape.
    pub fn breakdown(&self) -> OverheadBreakdown {
        OverheadBreakdown {
            forwarding_ms: self.profiler.mean_ms(STAGE_FORWARD),
            decision_ms: self.profiler.mean_ms(STAGE_DECIDE),
            instance_start_ms: self.profiler.mean_ms(STAGE_START),
            allocation_ms: self.profiler.mean_ms(STAGE_ALLOCATE),
        }
    }

    /// Text table of per-stage percentiles.
    pub fn render_table(&self) -> String {
        self.profiler.render_table()
    }

    /// The underlying profiler (for JSONL export).
    pub fn profiler(&self) -> &WallProfiler {
        &self.profiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_fractions() {
        let b = OverheadBreakdown {
            forwarding_ms: 1.0,
            decision_ms: 3.0,
            instance_start_ms: 5.0,
            allocation_ms: 1.0,
        };
        assert_eq!(b.total_ms(), 10.0);
        let f = b.fractions();
        assert!((f[1] - 0.3).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_profile_breakdown_and_percentiles() {
        let mut p = PipelineProfile::new();
        for i in 1..=10 {
            p.forward_ms(i as f64);
            p.decide_ms(2.0 * i as f64);
        }
        p.start_ms(400.0);
        p.allocate_ms(0.05);
        let b = p.breakdown();
        assert!((b.forwarding_ms - 5.5).abs() < 1e-12);
        assert!((b.decision_ms - 11.0).abs() < 1e-12);
        assert_eq!(b.instance_start_ms, 400.0);
        let s = p.summary(STAGE_DECIDE).unwrap();
        assert_eq!(s.count, 10);
        assert!(s.p50 <= s.p95 && s.p95 <= s.max);
        assert!(p.summary("nonexistent stage").is_none());
        let table = p.render_table();
        assert!(table.contains(STAGE_FORWARD) && table.contains(STAGE_START));
    }
}
