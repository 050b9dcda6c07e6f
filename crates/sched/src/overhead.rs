//! Wall-clock instrumentation of the online scheduling pipeline
//! (paper §6.4, Fig. 14).
//!
//! The paper decomposes online cost into four steps — *invocation
//! forwarding*, *scheduling decision making*, *instance starting* and
//! *resource allocation* — and reports that decision making takes a few
//! milliseconds (inference ≈ 3.48 ms, incremental update ≈ 24.8 ms per
//! call) while instance starting dominates.

use obs::WallProfiler;

/// Stage names under which the pipeline's samples are recorded into a
/// [`WallProfiler`], matching the paper's four steps.
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

    /// Mean-per-stage breakdown of a profile recorded under the `STAGE_*`
    /// names (0 for a stage with no samples).
    pub fn from_profile(profile: &WallProfiler) -> Self {
        Self {
            forwarding_ms: profile.mean_ms(STAGE_FORWARD),
            decision_ms: profile.mean_ms(STAGE_DECIDE),
            instance_start_ms: profile.mean_ms(STAGE_START),
            allocation_ms: profile.mean_ms(STAGE_ALLOCATE),
        }
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
        let mut p = WallProfiler::new();
        for i in 1..=10 {
            p.record_ms(STAGE_FORWARD, i as f64);
            p.record_ms(STAGE_DECIDE, 2.0 * i as f64);
        }
        p.record_ms(STAGE_START, 400.0);
        p.record_ms(STAGE_ALLOCATE, 0.05);
        let b = OverheadBreakdown::from_profile(&p);
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
