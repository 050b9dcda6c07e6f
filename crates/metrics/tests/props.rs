//! Property tests for correlation and metric-vector invariants. Each test
//! loops over seeds, draws its cases from `SimRng::new(seed)` and names the
//! seed in every assert message.

use metricsd::{pearson, spearman, Metric, MetricVector, NUM_METRICS};
use simcore::SimRng;
use std::ops::Range;

/// `len` in `lens`, each value uniform in `[lo, hi)`.
fn values(rng: &mut SimRng, lens: Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let len = lens.start + rng.index(lens.len());
    (0..len).map(|_| lo + rng.f64() * (hi - lo)).collect()
}

#[test]
fn pearson_bounded_and_symmetric() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let x = values(&mut rng, 2..100, -1e3, 1e3);
        let y = values(&mut rng, x.len()..x.len() + 1, -1e3, 1e3);
        let r = pearson(&x, &y);
        assert!(
            (-1.0 - 1e-9..=1.0 + 1e-9).contains(&r),
            "seed {seed}: r = {r}"
        );
        let r_yx = pearson(&y, &x);
        assert!(
            (r - r_yx).abs() < 1e-9,
            "seed {seed}: r(x,y) {r} != r(y,x) {r_yx}"
        );
    }
}

#[test]
fn pearson_invariant_under_affine_transform() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        // y = a·x + b gives r = 1 exactly for non-constant x.
        let xs = values(&mut rng, 3..50, -1e3, 1e3);
        let a = 0.1 + rng.f64() * 9.9;
        let b = -100.0 + rng.f64() * 200.0;
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        let r = pearson(&xs, &ys);
        assert!(
            (r - 1.0).abs() < 1e-6,
            "seed {seed}: r = {r} for y = {a}x + {b}"
        );
    }
}

#[test]
fn spearman_is_one_under_a_monotone_transform() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        // Distinct with probability 1: continuous draws.
        let xs = values(&mut rng, 3..50, -1e3, 1e3);
        let ys: Vec<f64> = xs.iter().map(|&x| x.powi(3) + x).collect();
        let r = spearman(&xs, &ys);
        assert!((r - 1.0).abs() < 1e-9, "seed {seed}: r = {r}");
    }
}

#[test]
fn metric_vector_mean_between_extremes() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let vals = values(&mut rng, 1..20, 0.0, 100.0);
        let vectors: Vec<MetricVector> = vals
            .iter()
            .map(|&v| {
                let mut m = MetricVector::zero();
                m.set(Metric::Ipc, v);
                m
            })
            .collect();
        let mean = MetricVector::mean_of(&vectors).get(Metric::Ipc);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            mean >= lo - 1e-9 && mean <= hi + 1e-9,
            "seed {seed}: {mean} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn selected_projection_preserves_values() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let m = MetricVector::from_array([(); NUM_METRICS].map(|_| rng.f64() * 1e6));
        let s = m.selected();
        for (i, metric) in Metric::SELECTED.iter().enumerate() {
            assert_eq!(s[i], m.get(*metric), "seed {seed}: {metric:?}");
        }
    }
}
