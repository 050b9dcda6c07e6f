//! Kernel ⇔ reference equivalence suite.
//!
//! The presorted column-major training kernel (`mlcore::tree`) must produce
//! *bit-identical* trees, predictions and importances to the exhaustive
//! reference search (`mlcore::reference`) — for any seed, any
//! hyperparameters, and at every point of the incremental (IRFR)
//! lifecycle. These tests sweep 20 seeds over those axes. The reference is
//! reached through `TrainBackend`, the argument of `RandomForest::fit_with`.

use mlcore::{
    reference, ColumnStore, Dataset, ForestParams, IncrementalModel, IncrementalParams, ModelKind,
    RandomForest, RegressionTree, TrainBackend, TreeParams,
};
use simcore::SimRng;

const SEEDS: [u64; 20] = [
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946,
];

/// A synthetic corpus in the shape the paper's predictor sees: a few
/// informative columns, heavy constant zero padding (sparse overlap
/// codings), duplicated values (quantised metrics), and nonlinear targets.
fn corpus(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = SimRng::new(seed);
    let mut d = Dataset::new(dim);
    let informative = 8.min(dim);
    for _ in 0..n {
        let mut x = vec![0.0; dim];
        for slot in x.iter_mut().take(informative) {
            // Quantise to force value ties, the tie-break stress case.
            *slot = (rng.f64() * 16.0).floor() / 4.0;
        }
        // A few scattered non-constant columns beyond the dense block.
        if dim > 16 {
            let j = 16 + rng.index(dim - 16);
            x[j] = rng.f64();
        }
        let y = 3.0 * x[0] - 2.0 * x[1] + x[0] * x[1.min(dim - 1)] + rng.f64() * 0.25;
        d.push(&x, y);
    }
    d
}

fn configs() -> Vec<TreeParams> {
    vec![
        TreeParams::default(),
        TreeParams {
            max_depth: 4,
            min_samples_leaf: 1,
            mtry: 0,
        },
        TreeParams {
            max_depth: 20,
            min_samples_leaf: 5,
            mtry: 3,
        },
        TreeParams {
            max_depth: 10,
            min_samples_leaf: 2,
            mtry: usize::MAX, // clamped to dim: exhaustive feature scan
        },
    ]
}

#[test]
fn tree_bit_identical_across_seeds_and_configs() {
    let data = corpus(200, 24, 0xA5);
    let store = data.column_store();
    for &seed in &SEEDS {
        let mut rng = SimRng::new(seed);
        let rows = data.bootstrap(160, &mut rng);
        for params in configs() {
            let mut rng_ref = SimRng::new(seed ^ 0xDEAD);
            let reference = reference::fit_rows(&data, &rows, params, &mut rng_ref);
            // Both paths must leave the caller's RNG at the same state
            // (they make identical split/shuffle draws), or forest-level
            // composition would diverge on the *next* tree.
            let ref_next = rng_ref.next_u64();
            let mut rng_ker = SimRng::new(seed ^ 0xDEAD);
            let kernel = RegressionTree::fit_rows_with(&store, &rows, params, &mut rng_ker);
            assert_eq!(reference, kernel, "seed {seed}, params {params:?}");
            assert_eq!(
                rng_ker.next_u64(),
                ref_next,
                "RNG streams diverged: seed {seed}, params {params:?}"
            );
        }
    }
}

#[test]
fn tree_importances_and_predictions_bitwise_equal() {
    let data = corpus(150, 40, 0xB7);
    let store = data.column_store();
    let probes: Vec<Vec<f64>> = {
        let probe_data = corpus(32, 40, 0xC9);
        (0..probe_data.len())
            .map(|i| probe_data.row(i).to_vec())
            .collect()
    };
    for &seed in &SEEDS {
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut rng_ref = SimRng::new(seed);
        let mut rng_ker = SimRng::new(seed);
        let reference = reference::fit_rows(&data, &rows, TreeParams::default(), &mut rng_ref);
        let kernel =
            RegressionTree::fit_rows_with(&store, &rows, TreeParams::default(), &mut rng_ker);
        assert_eq!(reference.importances(), kernel.importances(), "seed {seed}");
        for x in &probes {
            let (a, b) = (reference.predict(x), kernel.predict(x));
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
        }
    }
}

#[test]
fn forest_backends_bit_identical() {
    let data = corpus(180, 32, 0xD1);
    let params = ForestParams {
        n_trees: 12,
        ..Default::default()
    };
    for &seed in &SEEDS[..8] {
        let kernel = RandomForest::fit_with(&data, params, seed, TrainBackend::Kernel);
        let reference = RandomForest::fit_with(&data, params, seed, TrainBackend::Reference);
        assert_eq!(kernel.trees(), reference.trees(), "seed {seed}");
        let probes: Vec<Vec<f64>> = (0..24)
            .map(|i| corpus(1, 32, seed + i).row(0).to_vec())
            .collect();
        let a = kernel.predict_batch(&probes);
        let b = reference.predict_batch(&probes);
        assert_eq!(a, b, "seed {seed}");
        assert!(a.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn incremental_lifecycle_bit_identical() {
    // Bootstrap + repeated updates (driving `refresh_stalest`) of the IRFR
    // model, which always trains with the kernel, must agree at every step
    // with a reference-trained forest driven through the same lifecycle on
    // a mirrored sample buffer (never full here, so nothing is evicted).
    for &seed in &SEEDS[..6] {
        let mut params = IncrementalParams::new(ModelKind::Irfr, 24, seed);
        params.forest.n_trees = 10;
        params.refresh_trees = 4;
        let (forest_params, refresh_trees) = (params.forest, params.refresh_trees);
        let mut kernel = IncrementalModel::new(params);
        let mut buffer = corpus(120, 24, seed);
        kernel.bootstrap(&buffer);
        let mut reference =
            RandomForest::fit_with(&buffer, forest_params, seed, TrainBackend::Reference);
        let probes: Vec<Vec<f64>> = {
            let p = corpus(16, 24, seed ^ 0xF0);
            (0..p.len()).map(|i| p.row(i).to_vec()).collect()
        };
        for step in 0..3u64 {
            let batch = corpus(60, 24, seed.wrapping_add(1000 + step));
            kernel.update(&batch);
            buffer.extend(&batch);
            reference.refresh_stalest(&buffer, refresh_trees, step + 1);
            assert_eq!(
                kernel.forest().unwrap().trees(),
                reference.trees(),
                "seed {seed}, step {step}"
            );
            let a = kernel.predict_batch(&probes);
            let b = reference.predict_batch(&probes);
            assert_eq!(a, b, "seed {seed}, step {step}");
        }
    }
}

#[test]
fn tree_bit_identical_above_arena_cutoff() {
    // Nodes above the arena cutoff read the maintained presorted arenas; smaller
    // nodes switch to on-demand sorts. This corpus keeps several tree
    // levels above the cutoff so the maintained path (and the handoff to
    // the on-demand path) is what's being compared.
    let data = corpus(1600, 32, 0xE3);
    let store = data.column_store();
    for &seed in &SEEDS[..6] {
        let mut rng = SimRng::new(seed);
        let rows = data.bootstrap(1500, &mut rng);
        for params in configs() {
            let mut rng_ref = SimRng::new(seed ^ 0xBEEF);
            let reference = reference::fit_rows(&data, &rows, params, &mut rng_ref);
            let mut rng_ker = SimRng::new(seed ^ 0xBEEF);
            let kernel = RegressionTree::fit_rows_with(&store, &rows, params, &mut rng_ker);
            assert_eq!(reference, kernel, "seed {seed}, params {params:?}");
        }
    }
}

#[test]
fn kernel_handles_degenerate_shapes() {
    // Tiny nodes, all-constant features, single row: the kernel must agree
    // with the reference on edge geometry, not just typical corpora.
    let mut d = Dataset::new(4);
    d.push(&[0.0, 0.0, 0.0, 0.0], 1.0);
    d.push(&[0.0, 0.0, 0.0, 0.0], 2.0);
    d.push(&[0.0, 1.0, 0.0, 0.0], 3.0);
    let store = ColumnStore::build(&d);
    assert_eq!(store.non_constant_features(), 1);
    for &seed in &SEEDS {
        for rows in [vec![0], vec![0, 1], vec![0, 1, 2], vec![2, 2, 2, 1]] {
            let mut rng_ref = SimRng::new(seed);
            let mut rng_ker = SimRng::new(seed);
            let params = TreeParams {
                min_samples_leaf: 1,
                ..Default::default()
            };
            let reference = reference::fit_rows(&d, &rows, params, &mut rng_ref);
            let kernel = RegressionTree::fit_rows_with(&store, &rows, params, &mut rng_ker);
            assert_eq!(reference, kernel, "seed {seed}, rows {rows:?}");
        }
    }
}
