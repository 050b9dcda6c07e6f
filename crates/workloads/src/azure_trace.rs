//! Synthetic Azure-Functions-like invocation dynamics.
//!
//! The paper replays invocation rates from the Azure Functions 2019
//! production trace ("invocations per hour illustrate diurnal and weekly
//! patterns", §6.1). The trace itself is not redistributable here, so this
//! module generates rates with that published diurnal and weekly shape (the
//! DESIGN.md substitution).

use simcore::SimTime;

/// Seconds per simulated day.
const DAY_SECS: f64 = 86_400.0;

/// A diurnal + weekly invocation-rate profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    /// Mean request rate (requests/second) averaged over a full week.
    pub base_rps: f64,
    /// Diurnal swing in `[0, 1)`: rate peaks at `base·(1+a)` mid-afternoon
    /// and bottoms at `base·(1−a)` pre-dawn.
    pub diurnal_amplitude: f64,
    /// Weekend rate multiplier (< 1 for business workloads).
    pub weekend_factor: f64,
    /// Relative rate jitter. Only [`crate::loadgen::profile_arrivals`]
    /// reads it, to widen its thinning bound.
    pub jitter: f64,
}

impl RateProfile {
    /// A profile shaped like the Azure trace's published pattern.
    pub fn azure_like(base_rps: f64) -> Self {
        Self {
            base_rps,
            diurnal_amplitude: 0.6,
            weekend_factor: 0.55,
            jitter: 0.08,
        }
    }

    /// Flat profile (used by controlled experiments that fix QPS).
    pub fn constant(rps: f64) -> Self {
        Self {
            base_rps: rps,
            diurnal_amplitude: 0.0,
            weekend_factor: 1.0,
            jitter: 0.0,
        }
    }

    /// Deterministic mean rate at time `t` (no jitter).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let secs = t.as_secs();
        let day_frac = (secs % DAY_SECS) / DAY_SECS;
        // Peak at 15:00, trough at 03:00.
        let diurnal =
            1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * (day_frac - 0.625)).cos();
        let day_index = (secs / DAY_SECS).floor() as u64 % 7;
        let weekly = if day_index >= 5 {
            self.weekend_factor
        } else {
            1.0
        };
        (self.base_rps * diurnal * weekly).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peak_higher_than_trough() {
        let p = RateProfile::azure_like(100.0);
        let peak = p.rate_at(SimTime::from_secs(15.0 * 3600.0));
        let trough = p.rate_at(SimTime::from_secs(3.0 * 3600.0));
        assert!(peak > 2.0 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn weekend_rate_reduced() {
        let p = RateProfile::azure_like(100.0);
        let mon = p.rate_at(SimTime::from_secs(12.0 * 3600.0));
        let sat = p.rate_at(SimTime::from_secs(5.0 * DAY_SECS + 12.0 * 3600.0));
        assert!((sat / mon - p.weekend_factor).abs() < 1e-9);
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = RateProfile::constant(42.0);
        for h in 0..48 {
            assert_eq!(p.rate_at(SimTime::from_secs(h as f64 * 3600.0)), 42.0);
        }
    }
}
