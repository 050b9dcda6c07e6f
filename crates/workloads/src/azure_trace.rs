//! Synthetic Azure-Functions-like invocation dynamics.
//!
//! The paper replays invocation rates from the Azure Functions 2019
//! production trace ("invocations per hour illustrate diurnal and weekly
//! patterns", §6.1) and cites its characterization repeatedly: 50 % of
//! invocations run < 1 s, 96 % of functions average < 60 s, 90 % of
//! functions never request more than 400 MB. The trace itself is not
//! redistributable here, so this module generates rates and duration/memory
//! samples matching those published statistics (the DESIGN.md substitution).

use simcore::dist::lognormal;
use simcore::{SimRng, SimTime};

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

/// Samplers for the published per-function statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureFunctionStats;

impl AzureFunctionStats {
    /// Sample an execution duration.
    ///
    /// Log-normal fitted to the characterization: median 1 s (50 % of
    /// invocations < 1 s) and P96 ≈ 60 s ⇒ `mu = 0`, `sigma = ln(60)/1.75`.
    pub fn sample_duration(rng: &mut SimRng) -> SimTime {
        let sigma = 60.0f64.ln() / 1.75;
        let secs = lognormal(rng, 0.0, sigma);
        // Azure caps executions; AWS Lambda's cap (also cited) is 900 s.
        SimTime::from_secs(secs.min(900.0))
    }

    /// Sample a memory allocation in GB.
    ///
    /// Log-normal fitted to: 50 % of apps allocated ≤ 170 MB, 90 % never
    /// above 400 MB ⇒ median 0.17 GB, P90 = 0.4 GB ⇒
    /// `sigma = ln(0.4/0.17)/1.2816`.
    pub fn sample_memory_gb(rng: &mut SimRng) -> f64 {
        let mu = 0.17f64.ln();
        let sigma = (0.4f64 / 0.17).ln() / 1.2816;
        lognormal(rng, mu, sigma).min(3.0) // AWS Lambda's 3 GB cap (§1).
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

    #[test]
    fn duration_distribution_matches_characterization() {
        let mut rng = SimRng::new(7);
        let n = 50_000;
        let mut under_1s = 0;
        let mut under_60s = 0;
        for _ in 0..n {
            let d = AzureFunctionStats::sample_duration(&mut rng).as_secs();
            if d < 1.0 {
                under_1s += 1;
            }
            if d < 60.0 {
                under_60s += 1;
            }
        }
        let p50 = under_1s as f64 / n as f64;
        let p96 = under_60s as f64 / n as f64;
        assert!((p50 - 0.5).abs() < 0.02, "P(d<1s) = {p50}");
        assert!((p96 - 0.96).abs() < 0.01, "P(d<60s) = {p96}");
    }

    #[test]
    fn memory_distribution_matches_characterization() {
        let mut rng = SimRng::new(9);
        let n = 50_000;
        let mut under_400mb = 0;
        for _ in 0..n {
            if AzureFunctionStats::sample_memory_gb(&mut rng) <= 0.4 {
                under_400mb += 1;
            }
        }
        let p90 = under_400mb as f64 / n as f64;
        assert!((p90 - 0.9).abs() < 0.02, "P(mem<400MB) = {p90}");
    }

    #[test]
    fn durations_capped_at_900s() {
        let mut rng = SimRng::new(11);
        for _ in 0..100_000 {
            assert!(AzureFunctionStats::sample_duration(&mut rng).as_secs() <= 900.0);
        }
    }
}
