//! Probability distributions used by the simulator and workload generators.
//!
//! Implemented directly on [`SimRng`] rather than pulling
//! in `rand_distr`, keeping the dependency surface to the offline-approved
//! set while still covering everything the reproduction needs: log-normal
//! metric noise (from a standard normal) and exponential inter-arrival
//! gaps.

use crate::rng::SimRng;

/// Standard normal sample via the Marsaglia polar method.
pub fn std_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal sample parameterised by the *underlying* normal's `mu`/`sigma`.
#[inline]
pub fn lognormal(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * std_normal(rng)).exp()
}

/// Multiplicative noise factor centred on 1.0: `exp(N(0, sigma) - sigma²/2)`.
///
/// The mean-correction term keeps `E[factor] = 1`, so noising a metric does
/// not bias its expectation — important for the correlation study (Table 3).
#[inline]
pub fn noise_factor(rng: &mut SimRng, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    lognormal(rng, -sigma * sigma / 2.0, sigma)
}

/// Exponential sample with the given rate (`lambda`), i.e. mean `1/lambda`.
#[inline]
pub fn exponential(rng: &mut SimRng, lambda: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    // 1 - f64() is in (0, 1], so ln() is finite.
    -(1.0 - rng.f64()).ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xC0FFEE)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!(mean.abs() < 0.025, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.019, "std dev {sd}");
    }

    #[test]
    fn lognormal_positive() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(lognormal(&mut r, 0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn noise_factor_mean_one() {
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| noise_factor(&mut r, 0.3)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn noise_factor_zero_sigma_is_identity() {
        let mut r = rng();
        assert_eq!(noise_factor(&mut r, 0.0), 1.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
