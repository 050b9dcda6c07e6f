//! Open-loop load generation (paper §6.4: "we develop an open-loop load
//! generator, which can test each LS workload under various access loads and
//! generate profiles within 5 minutes").
//!
//! Open-loop means arrivals are generated independently of completions, so a
//! saturated system accumulates queueing — exactly the regime where the
//! latency–IPC knee (Fig. 7) appears.

use crate::azure_trace::RateProfile;
use simcore::dist::exponential;
use simcore::{SimRng, SimTime};

/// Generate Poisson arrival times at a constant rate over `[0, horizon)`.
pub fn poisson_arrivals(rps: f64, horizon: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
    assert!(rps >= 0.0, "negative rate");
    let mut out = Vec::new();
    if rps == 0.0 {
        return out;
    }
    let mut t = 0.0;
    let end = horizon.as_secs();
    loop {
        t += exponential(rng, rps);
        if t >= end {
            break;
        }
        out.push(SimTime::from_secs(t));
    }
    out
}

/// Generate arrivals following a time-varying [`RateProfile`] by thinning:
/// candidate arrivals are drawn at the profile's peak rate and accepted with
/// probability `rate(t)/peak`.
pub fn profile_arrivals(profile: &RateProfile, horizon: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
    let peak = profile.base_rps * (1.0 + profile.diurnal_amplitude) * (1.0 + profile.jitter);
    if peak <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = 0.0;
    let end = horizon.as_secs();
    loop {
        t += exponential(rng, peak);
        if t >= end {
            break;
        }
        let at = SimTime::from_secs(t);
        let accept = profile.rate_at(at) / peak;
        if rng.chance(accept) {
            out.push(at);
        }
    }
    out
}

/// Evenly spaced deterministic arrivals (used by tests and by experiments
/// that want zero arrival noise).
pub fn uniform_arrivals(rps: f64, horizon: SimTime) -> Vec<SimTime> {
    if rps <= 0.0 {
        return Vec::new();
    }
    let period_us = (1e6 / rps).round() as u64;
    assert!(period_us > 0, "rate too high for microsecond resolution");
    (0..)
        .map(|i| SimTime::from_micros(i * period_us))
        .take_while(|&t| t < horizon)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrival_rate_matches() {
        let mut rng = SimRng::new(3);
        let arr = poisson_arrivals(100.0, SimTime::from_secs(100.0), &mut rng);
        let rate = arr.len() as f64 / 100.0;
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn poisson_arrivals_sorted_and_bounded() {
        let mut rng = SimRng::new(5);
        let horizon = SimTime::from_secs(10.0);
        let arr = poisson_arrivals(50.0, horizon, &mut rng);
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr.iter().all(|&t| t < horizon));
    }

    #[test]
    fn zero_rate_yields_no_arrivals() {
        let mut rng = SimRng::new(1);
        assert!(poisson_arrivals(0.0, SimTime::from_secs(10.0), &mut rng).is_empty());
        assert!(uniform_arrivals(0.0, SimTime::from_secs(10.0)).is_empty());
    }

    #[test]
    fn profile_arrivals_follow_diurnal_shape() {
        let profile = RateProfile::azure_like(20.0);
        let mut rng = SimRng::new(11);
        let arr = profile_arrivals(&profile, SimTime::from_secs(86_400.0), &mut rng);
        // Count arrivals in the peak hour (15:00) vs the trough hour (03:00).
        let count_in = |h: f64| {
            arr.iter()
                .filter(|t| {
                    let s = t.as_secs();
                    s >= h * 3600.0 && s < (h + 1.0) * 3600.0
                })
                .count()
        };
        let peak = count_in(15.0);
        let trough = count_in(3.0);
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn uniform_arrivals_evenly_spaced() {
        let arr = uniform_arrivals(10.0, SimTime::from_secs(1.0));
        assert_eq!(arr.len(), 10);
        assert_eq!(arr[1].since(arr[0]), SimTime::from_millis(100.0));
    }
}
