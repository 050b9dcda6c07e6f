//! Property tests for the from-scratch learners. Each test loops over
//! seeds, draws its cases from `SimRng::new(seed)` and names the seed in
//! every assert message.

use mlcore::{Dataset, ForestParams, RandomForest, RegressionTree, Scaler, TreeParams};
use simcore::SimRng;

/// `lens.start..lens.end` rows of `dim` features in `[-100, 100)` with a
/// target in `[-100, 100)`.
fn dataset(rng: &mut SimRng, dim: usize, lens: std::ops::Range<usize>) -> Dataset {
    let rows = lens.start + rng.index(lens.len());
    let mut u = || -100.0 + rng.f64() * 200.0;
    let mut d = Dataset::new(dim);
    for _ in 0..rows {
        let x: Vec<f64> = (0..dim).map(|_| u()).collect();
        d.push(&x, u());
    }
    d
}

fn target_range(d: &Dataset) -> (f64, f64) {
    let t = d.targets();
    let lo = t.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// A probe in `[-200, 200)^3`, outside the training box half the time.
fn probe(rng: &mut SimRng) -> Vec<f64> {
    (0..3).map(|_| -200.0 + rng.f64() * 400.0).collect()
}

#[test]
fn tree_prediction_within_target_range() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        let d = dataset(&mut rng, 3, 2..60);
        let t = RegressionTree::fit(&d, TreeParams::default(), &mut rng);
        let (lo, hi) = target_range(&d);
        let p = t.predict(&probe(&mut rng));
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "seed {seed}: {p} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn forest_prediction_within_target_range() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let d = dataset(&mut rng, 3, 2..40);
        let params = ForestParams {
            n_trees: 10,
            ..Default::default()
        };
        let f = RandomForest::fit(&d, params, rng.next_u64());
        let (lo, hi) = target_range(&d);
        let p = f.predict(&probe(&mut rng));
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "seed {seed}: {p} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn forest_importances_are_a_distribution() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let d = dataset(&mut rng, 4, 5..40);
        let params = ForestParams {
            n_trees: 8,
            ..Default::default()
        };
        let imp = RandomForest::fit(&d, params, rng.next_u64()).importances();
        assert_eq!(imp.len(), 4, "seed {seed}");
        assert!(imp.iter().all(|&v| v >= 0.0), "seed {seed}: {imp:?}");
        let total: f64 = imp.iter().sum();
        assert!(
            total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9,
            "seed {seed}: sum {total}"
        );
    }
}

#[test]
fn split_is_a_partition() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        let d = dataset(&mut rng, 2, 2..100);
        let frac = 0.1 + rng.f64() * 0.8;
        let (train, test) = d.split(frac, &mut rng);
        assert_eq!(train.len() + test.len(), d.len(), "seed {seed}");
        // The target multiset is preserved.
        let mut all: Vec<f64> = train.targets().to_vec();
        all.extend_from_slice(test.targets());
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut orig: Vec<f64> = d.targets().to_vec();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, orig, "seed {seed}");
    }
}

#[test]
fn scaler_transform_roundtrips_statistics() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        let d = dataset(&mut rng, 2, 3..80);
        let t = Scaler::fit(&d).transform_dataset(&d);
        for j in 0..2 {
            let mean = (0..t.len()).map(|i| t.row(i)[j]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-6, "seed {seed}: column {j} mean {mean}");
        }
    }
}

#[test]
fn tree_fits_training_data_exactly_with_unbounded_depth() {
    for seed in 0..128u64 {
        let mut rng = SimRng::new(seed);
        // Distinct x values (continuous draws), so a deep tree with
        // min_samples_leaf 1 memorises every row.
        let d = dataset(&mut rng, 1, 1..40);
        let params = TreeParams {
            max_depth: 64,
            min_samples_leaf: 1,
            mtry: 1,
        };
        let t = RegressionTree::fit(&d, params, &mut rng);
        for i in 0..d.len() {
            let (p, y) = (t.predict(d.row(i)), d.targets()[i]);
            assert!(
                (p - y).abs() < 1e-9,
                "seed {seed}: row {i} predicts {p}, target {y}"
            );
        }
    }
}
