//! Random-forest regression — the paper's chosen model family (RFR / IRFR).
//!
//! Bagging (bootstrap per tree) plus per-split feature subsampling,
//! prediction by averaging. Training parallelises across trees with
//! [`simcore::par`] — the only level of training parallelism: each tree is
//! built on one thread. Each tree derives its own RNG stream from the
//! forest seed, so the fitted model is identical regardless of thread
//! count (the determinism rule the workspace follows everywhere).

use crate::dataset::{ColumnStore, Dataset};
use crate::flat::FlatForest;
use crate::reference;
use crate::tree::{RegressionTree, TreeParams};
use simcore::par::{par_map, par_map_range};
use simcore::rng::seed_stream;
use simcore::SimRng;

/// Which split-search implementation trains the trees.
///
/// Both produce bit-identical forests (pinned by `tests/train_kernel.rs`).
/// This is the oracle's entry point: only [`RandomForest::fit_with`] takes
/// it, for that equivalence and for the baseline of the `fig14`
/// experiment's training-throughput comparison. The backend is recorded on the fitted
/// forest so [`RandomForest::refresh_stalest`] keeps using it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainBackend {
    /// Presorted column-major kernel ([`crate::tree`]) — the default.
    #[default]
    Kernel,
    /// Exhaustive per-node search ([`crate::reference`]).
    Reference,
}

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training set (1.0 =
    /// classic bagging).
    pub sample_frac: f64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_trees: 40,
            tree: TreeParams::default(),
            sample_frac: 1.0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// The trees compiled to the SoA inference kernel ([`FlatForest`]);
    /// rebuilt whenever `trees` changes (fit, stalest-tree refresh).
    flat: FlatForest,
    /// Ages used by the incremental wrapper's stalest-tree replacement:
    /// `birth[i]` is the update-generation tree `i` was (re)built in.
    birth: Vec<u64>,
    params: ForestParams,
    seed: u64,
    dim: usize,
    backend: TrainBackend,
}

impl RandomForest {
    /// Fit a forest on a dataset with the default (kernel) trainer.
    pub fn fit(data: &Dataset, params: ForestParams, seed: u64) -> Self {
        Self::fit_with(data, params, seed, TrainBackend::default())
    }

    /// Fit a forest with an explicit training backend.
    pub fn fit_with(
        data: &Dataset,
        params: ForestParams,
        seed: u64,
        backend: TrainBackend,
    ) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let n_sample = ((data.len() as f64) * params.sample_frac).ceil().max(1.0) as usize;
        // The column transpose is built once and shared read-only by every
        // tree builder; the reference reads rows directly.
        let store: Option<ColumnStore> = match backend {
            TrainBackend::Kernel => Some(data.column_store()),
            TrainBackend::Reference => None,
        };
        let trees: Vec<RegressionTree> = par_map_range(params.n_trees, |i| {
            let mut rng = SimRng::new(seed_stream(seed, i as u64));
            let rows = data.bootstrap(n_sample, &mut rng);
            match &store {
                Some(store) => RegressionTree::fit_rows_with(store, &rows, params.tree, &mut rng),
                None => reference::fit_rows(data, &rows, params.tree, &mut rng),
            }
        });
        let n = trees.len();
        let flat = FlatForest::compile(&trees);
        Self {
            trees,
            flat,
            birth: vec![0; n],
            params,
            seed,
            dim: data.dim(),
            backend,
        }
    }

    /// The fitted trees, in training order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Predict one row (mean over trees) via the flat kernel.
    ///
    /// # Contract
    ///
    /// A fitted forest always has at least one tree (`fit_with` asserts
    /// `n_trees > 0`), and prediction is only defined on such a forest:
    /// with zero trees the mean is `0/0`. Debug builds panic on an empty
    /// forest; release builds return NaN.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert!(!self.trees.is_empty(), "predict on an empty forest");
        debug_assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.flat.sum_trees(x) / self.trees.len() as f64
    }

    /// Predict one row with the retained enum-walker reference path —
    /// the oracle the flat kernel is pinned bit-identical to
    /// (`tests/predict_kernel.rs`). Same tree-order mean, same
    /// empty-forest contract as [`predict`](Self::predict).
    pub fn predict_reference(&self, x: &[f64]) -> f64 {
        debug_assert!(!self.trees.is_empty(), "predict on an empty forest");
        debug_assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict many rows at once: [`predict`](Self::predict) per row, in
    /// order, so every result is bit-identical to the single-row walk.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|x| self.predict(x)).collect()
    }

    /// Replace the `k` stalest trees with trees trained on the current
    /// buffer — the incremental update step (IRFR). `generation`
    /// disambiguates tree ages across updates and feeds new seeds.
    pub fn refresh_stalest(&mut self, data: &Dataset, k: usize, generation: u64) {
        if data.is_empty() || k == 0 {
            return;
        }
        let mut order: Vec<usize> = (0..self.trees.len()).collect();
        order.sort_by_key(|&i| self.birth[i]);
        let victims: Vec<usize> = order.into_iter().take(k.min(self.trees.len())).collect();
        let n_sample = ((data.len() as f64) * self.params.sample_frac)
            .ceil()
            .max(1.0) as usize;
        let store: Option<ColumnStore> = match self.backend {
            TrainBackend::Kernel => Some(data.column_store()),
            TrainBackend::Reference => None,
        };
        let rebuilt: Vec<(usize, RegressionTree)> = par_map(victims, |i| {
            let mut rng = SimRng::new(seed_stream(
                self.seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                i as u64,
            ));
            let rows = data.bootstrap(n_sample, &mut rng);
            let tree = match &store {
                Some(store) => {
                    RegressionTree::fit_rows_with(store, &rows, self.params.tree, &mut rng)
                }
                None => reference::fit_rows(data, &rows, self.params.tree, &mut rng),
            };
            (i, tree)
        });
        for (i, tree) in rebuilt {
            self.trees[i] = tree;
            self.birth[i] = generation;
        }
        // Refreshed trees sit at their original slots; recompiling keeps
        // the kernel's tree order (and therefore the reduction order)
        // identical to the enum walker's.
        self.flat = FlatForest::compile(&self.trees);
    }

    /// Normalised impurity importances averaged over trees (Fig. 8).
    pub fn importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        for t in &self.trees {
            for (a, &v) in acc.iter_mut().zip(t.importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Feature dimension the forest was trained on.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::mape;

    /// y = 3·x0 − 2·x1 + x0·x1, mildly nonlinear.
    fn make_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let x0 = rng.f64() * 10.0;
            let x1 = rng.f64() * 10.0;
            let noise = rng.f64() * 0.1;
            d.push(
                &[x0, x1, rng.f64()],
                3.0 * x0 - 2.0 * x1 + x0 * x1 + 10.0 + noise,
            );
        }
        d
    }

    #[test]
    fn fits_regression_surface() {
        let train = make_data(800, 1);
        let test = make_data(100, 2);
        let f = RandomForest::fit(&train, ForestParams::default(), 42);
        let preds: Vec<f64> = (0..test.len()).map(|i| f.predict(test.row(i))).collect();
        let err = mape(&preds, test.targets());
        assert!(err < 0.1, "MAPE {err}");
    }

    #[test]
    fn forest_beats_single_tree() {
        let train = make_data(400, 3);
        let test = make_data(100, 4);
        let single = RandomForest::fit(
            &train,
            ForestParams {
                n_trees: 1,
                ..Default::default()
            },
            7,
        );
        let forest = RandomForest::fit(&train, ForestParams::default(), 7);
        let err = |m: &RandomForest| {
            let preds: Vec<f64> = (0..test.len()).map(|i| m.predict(test.row(i))).collect();
            mape(&preds, test.targets())
        };
        assert!(err(&forest) <= err(&single) * 1.05);
    }

    #[test]
    fn fit_and_refresh_match_sequential_per_tree_fits() {
        // Tree `i` depends only on its own seed stream, never on which
        // worker built it or when: the parallel fit and refresh must equal
        // the same trees built one after another in a plain loop.
        let train = make_data(200, 5);
        let params = ForestParams {
            n_trees: 12,
            ..Default::default()
        };
        let seed = 11;
        let sequential = |data: &Dataset, stream_seed: u64, ids: &[usize]| {
            let store = data.column_store();
            ids.iter()
                .map(|&i| {
                    let mut rng = SimRng::new(seed_stream(stream_seed, i as u64));
                    let rows = data.bootstrap(data.len(), &mut rng);
                    RegressionTree::fit_rows_with(&store, &rows, params.tree, &mut rng)
                })
                .collect::<Vec<_>>()
        };
        let mut forest = RandomForest::fit(&train, params, seed);
        let all: Vec<usize> = (0..params.n_trees).collect();
        assert_eq!(forest.trees(), &sequential(&train, seed, &all)[..]);

        // One refresh replaces the `k` stalest trees; all are generation 0,
        // so the stable age sort picks the first `k` slots.
        let (k, generation) = (5, 1u64);
        let newer = make_data(150, 6);
        let mut expect = forest.trees().to_vec();
        let refreshed = sequential(
            &newer,
            seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &all[..k],
        );
        expect[..k].clone_from_slice(&refreshed);
        forest.refresh_stalest(&newer, k, generation);
        assert_eq!(forest.trees(), &expect[..]);
    }

    #[test]
    fn importances_identify_informative_features() {
        let train = make_data(500, 6);
        let f = RandomForest::fit(&train, ForestParams::default(), 13);
        let imp = f.importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x2 is noise: much lower importance than x0/x1.
        assert!(imp[2] < imp[0] / 5.0);
        assert!(imp[2] < imp[1] / 5.0);
    }

    #[test]
    fn refresh_stalest_adapts_to_new_data() {
        // Train on one function, then shift the target distribution and
        // refresh: predictions must move toward the new function.
        let old = make_data(300, 7);
        let mut f = RandomForest::fit(&old, ForestParams::default(), 17);
        let mut new_data = Dataset::new(3);
        let mut rng = SimRng::new(8);
        for _ in 0..300 {
            let x0 = rng.f64() * 10.0;
            let x1 = rng.f64() * 10.0;
            new_data.push(&[x0, x1, rng.f64()], 100.0); // constant shift
        }
        let before = f.predict(&[5.0, 5.0, 0.5]);
        for gen in 1..=8 {
            f.refresh_stalest(&new_data, 10, gen);
        }
        let after = f.predict(&[5.0, 5.0, 0.5]);
        assert!((after - 100.0).abs() < (before - 100.0).abs() / 2.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        RandomForest::fit(&Dataset::new(2), ForestParams::default(), 1);
    }

    fn probe_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| vec![rng.f64() * 10.0, rng.f64() * 10.0, rng.f64()])
            .collect()
    }

    #[test]
    fn predict_batch_bitwise_equals_sequential() {
        let train = make_data(300, 21);
        let f = RandomForest::fit(&train, ForestParams::default(), 23);
        let rows = probe_rows(37, 24);
        let seq: Vec<f64> = rows.iter().map(|x| f.predict(x)).collect();
        assert_eq!(f.predict_batch(&rows), seq);
        assert!(f.predict_batch(&[]).is_empty());
    }

    /// A forest with zero trees, which `fit_with` can never produce —
    /// only constructible here, where the fields are visible.
    fn empty_forest() -> RandomForest {
        RandomForest {
            trees: Vec::new(),
            flat: FlatForest::compile(&[]),
            birth: Vec::new(),
            params: ForestParams::default(),
            seed: 0,
            dim: 3,
            backend: TrainBackend::default(),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty forest")]
    fn empty_forest_predict_panics_in_debug() {
        let _ = empty_forest().predict(&[1.0, 2.0, 3.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty forest")]
    fn empty_forest_predict_batch_panics_in_debug() {
        let _ = empty_forest().predict_batch(&[vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn empty_forest_empty_batch_is_empty() {
        // Zero rows never touches a tree, so it is defined (and empty)
        // even on the degenerate forest.
        assert!(empty_forest().predict_batch(&[]).is_empty());
    }

    #[test]
    fn predict_batch_bitwise_after_refresh() {
        // The IRFR state after stalest-tree replacement must batch
        // identically too: refreshed trees sit at their original slots, so
        // the tree-order reduction still mirrors sequential prediction.
        let train = make_data(300, 25);
        let mut f = RandomForest::fit(&train, ForestParams::default(), 27);
        for gen in 1..=4 {
            f.refresh_stalest(&make_data(120, 30 + gen), 10, gen);
        }
        let rows = probe_rows(29, 31);
        let seq: Vec<f64> = rows.iter().map(|x| f.predict(x)).collect();
        assert_eq!(f.predict_batch(&rows), seq);
    }
}
