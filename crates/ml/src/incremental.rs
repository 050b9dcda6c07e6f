//! Online incremental learning (paper §3.3).
//!
//! The paper trains an initial model on a small offline corpus, then
//! repeatedly extends the dataset with newly observed corun samples and
//! updates the model ("the learning model is updated by the new data for
//! better prediction accuracy"). [`IncrementalModel`] wraps the five
//! comparator families behind one interface:
//!
//! * **IRFR** — bounded sample buffer + stalest-tree replacement: each
//!   update appends the batch and rebuilds `refresh_trees` trees on fresh
//!   bootstraps of the buffer, giving bounded update cost (paper §6.4
//!   measures ≈ 25 ms per update). IRFR always trains with the presorted
//!   kernel ([`crate::tree`]), the trees in parallel and each on one
//!   thread; the reference trainer is reached only through
//!   [`RandomForest::fit_with`].
//! * **IKNN** — sample insertion (k-NN is inherently incremental).
//! * **ILR / ISVR / IMLP** — SGD `partial_fit` over each new batch.

use crate::dataset::Dataset;
use crate::forest::{ForestParams, RandomForest};
use crate::knn::KnnRegressor;
use crate::linear::{RidgeSgd, SgdParams};
use crate::mlp::{MlpParams, MlpRegressor};
use crate::svr::LinearSvr;

/// Which learner family an [`IncrementalModel`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Incremental random-forest regression (the paper's choice).
    Irfr,
    /// Incremental k-nearest neighbours.
    Iknn,
    /// Incremental (ridge) linear regression.
    Ilr,
    /// Incremental linear ε-SVR.
    Isvr,
    /// Incremental multilayer perceptron.
    Imlp,
}

impl ModelKind {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Irfr => "IRFR",
            ModelKind::Iknn => "IKNN",
            ModelKind::Ilr => "ILR",
            ModelKind::Isvr => "ISVR",
            ModelKind::Imlp => "IMLP",
        }
    }

    /// All five comparators in paper order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Iknn,
        ModelKind::Ilr,
        ModelKind::Irfr,
        ModelKind::Isvr,
        ModelKind::Imlp,
    ];
}

/// Configuration for an incremental model.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalParams {
    /// Learner family.
    pub kind: ModelKind,
    /// Feature dimension.
    pub dim: usize,
    /// Sample-buffer capacity (oldest rows evicted beyond this).
    pub buffer_cap: usize,
    /// IRFR: trees rebuilt per update.
    pub refresh_trees: usize,
    /// IRFR: forest hyperparameters.
    pub forest: ForestParams,
    /// IKNN: neighbourhood size.
    pub knn_k: usize,
    /// ILR/ISVR: SGD hyperparameters.
    pub sgd: SgdParams,
    /// IMLP hyperparameters.
    pub mlp: MlpParams,
    /// ISVR insensitivity tube.
    pub svr_epsilon: f64,
    /// Seed.
    pub seed: u64,
}

impl IncrementalParams {
    /// Sensible defaults for a given kind and dimension.
    pub fn new(kind: ModelKind, dim: usize, seed: u64) -> Self {
        Self {
            kind,
            dim,
            buffer_cap: 20_000,
            refresh_trees: 8,
            forest: ForestParams::default(),
            knn_k: 5,
            sgd: SgdParams::default(),
            mlp: MlpParams::default(),
            svr_epsilon: 0.05,
            seed,
        }
    }
}

enum Inner {
    Irfr(Option<RandomForest>),
    Iknn(KnnRegressor),
    Ilr(RidgeSgd),
    Isvr(LinearSvr),
    Imlp(MlpRegressor),
}

/// Bounded FIFO sample buffer backed by a [`Dataset`].
struct Buffer {
    data: Dataset,
    cap: usize,
}

impl Buffer {
    fn new(dim: usize, cap: usize) -> Self {
        Self {
            data: Dataset::new(dim),
            cap: cap.max(1),
        }
    }

    fn push_all(&mut self, batch: &Dataset) {
        self.data.extend(batch);
        if self.data.len() > self.cap {
            // Keep the newest `cap` rows.
            let start = self.data.len() - self.cap;
            let rows: Vec<usize> = (start..self.data.len()).collect();
            self.data = self.data.subset(&rows);
        }
    }
}

/// A learner plus its incremental-update machinery.
pub struct IncrementalModel {
    params: IncrementalParams,
    inner: Inner,
    buffer: Buffer,
    generation: u64,
    seen: usize,
}

impl IncrementalModel {
    /// New, untrained model.
    pub fn new(params: IncrementalParams) -> Self {
        let inner = match params.kind {
            ModelKind::Irfr => Inner::Irfr(None),
            ModelKind::Iknn => Inner::Iknn(KnnRegressor::new(params.knn_k, params.dim)),
            ModelKind::Ilr => Inner::Ilr(RidgeSgd::new(params.dim, params.sgd, params.seed)),
            ModelKind::Isvr => Inner::Isvr(LinearSvr::new(
                params.dim,
                params.svr_epsilon,
                params.sgd,
                params.seed,
            )),
            ModelKind::Imlp => Inner::Imlp(MlpRegressor::new(params.dim, params.mlp, params.seed)),
        };
        let buffer = Buffer::new(params.dim, params.buffer_cap);
        Self {
            params,
            inner,
            buffer,
            generation: 0,
            seen: 0,
        }
    }

    /// The learner family.
    pub fn kind(&self) -> ModelKind {
        self.params.kind
    }

    /// Offline bootstrap: fit from scratch on an initial corpus (paper's
    /// mitigation for initial-stage underfitting).
    pub fn bootstrap(&mut self, data: &Dataset) {
        assert_eq!(data.dim(), self.params.dim, "dimension mismatch");
        self.buffer.push_all(data);
        self.seen += data.len();
        match &mut self.inner {
            Inner::Irfr(slot) => {
                *slot = Some(RandomForest::fit(
                    &self.buffer.data,
                    self.params.forest,
                    self.params.seed,
                ));
            }
            Inner::Iknn(knn) => knn.fit(&self.buffer.data),
            Inner::Ilr(m) => m.fit(&self.buffer.data),
            Inner::Isvr(m) => m.fit(&self.buffer.data),
            Inner::Imlp(m) => m.fit(&self.buffer.data),
        }
    }

    /// Incremental update with a batch of newly observed samples.
    pub fn update(&mut self, batch: &Dataset) {
        assert_eq!(batch.dim(), self.params.dim, "dimension mismatch");
        if batch.is_empty() {
            return;
        }
        self.buffer.push_all(batch);
        self.seen += batch.len();
        self.generation += 1;
        match &mut self.inner {
            Inner::Irfr(slot) => match slot {
                Some(forest) => {
                    forest.refresh_stalest(
                        &self.buffer.data,
                        self.params.refresh_trees,
                        self.generation,
                    );
                }
                None => {
                    *slot = Some(RandomForest::fit(
                        &self.buffer.data,
                        self.params.forest,
                        self.params.seed,
                    ));
                }
            },
            Inner::Iknn(knn) => knn.insert(batch),
            Inner::Ilr(m) => m.partial_fit(batch),
            Inner::Isvr(m) => m.partial_fit(batch),
            Inner::Imlp(m) => m.partial_fit(batch),
        }
    }

    /// Predict one row. NaN before any training data has been provided
    /// (IRFR/IKNN) or the model's prior mean (SGD family).
    pub fn predict(&self, x: &[f64]) -> f64 {
        match &self.inner {
            Inner::Irfr(Some(f)) => f.predict(x),
            Inner::Irfr(None) => f64::NAN,
            Inner::Iknn(knn) => knn.predict(x),
            Inner::Ilr(m) => m.predict(x),
            Inner::Isvr(m) => m.predict(x),
            Inner::Imlp(m) => m.predict(x),
        }
    }

    /// Predict many rows at once: [`predict`](Self::predict) per row, in
    /// order, for every model kind (bit-identical to the single-row path).
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|x| self.predict(x)).collect()
    }

    /// The underlying forest (IRFR only, after the first fit) — exposed so
    /// the kernel-equivalence tests can compare fitted trees directly.
    pub fn forest(&self) -> Option<&RandomForest> {
        match &self.inner {
            Inner::Irfr(f) => f.as_ref(),
            _ => None,
        }
    }

    /// IRFR impurity importances (None for other kinds or before fit).
    pub fn importances(&self) -> Option<Vec<f64>> {
        match &self.inner {
            Inner::Irfr(Some(f)) => Some(f.importances()),
            _ => None,
        }
    }

    /// Total samples seen (bootstrap + updates).
    pub fn samples_seen(&self) -> usize {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::mape;
    use simcore::SimRng;

    fn gen(n: usize, seed: u64, offset: f64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let x0 = rng.f64() * 10.0;
            let x1 = rng.f64() * 10.0;
            d.push(&[x0, x1], 2.0 * x0 + x1 * x0 * 0.5 + offset + 10.0);
        }
        d
    }

    fn eval(m: &IncrementalModel, test: &Dataset) -> f64 {
        let preds: Vec<f64> = (0..test.len()).map(|i| m.predict(test.row(i))).collect();
        mape(&preds, test.targets())
    }

    #[test]
    fn all_kinds_bootstrap_and_predict() {
        let train = gen(400, 1, 0.0);
        let test = gen(50, 2, 0.0);
        for kind in ModelKind::ALL {
            let mut m = IncrementalModel::new(IncrementalParams::new(kind, 2, 7));
            m.bootstrap(&train);
            let err = eval(&m, &test);
            assert!(err < 0.5, "{} error {err}", kind.name());
        }
    }

    #[test]
    fn irfr_most_accurate_on_nonlinear_data() {
        let train = gen(600, 3, 0.0);
        let test = gen(100, 4, 0.0);
        let mut errs = std::collections::HashMap::new();
        for kind in ModelKind::ALL {
            let mut m = IncrementalModel::new(IncrementalParams::new(kind, 2, 7));
            m.bootstrap(&train);
            errs.insert(kind, eval(&m, &test));
        }
        // Nonlinear target: the forest must beat the two linear models.
        assert!(errs[&ModelKind::Irfr] < errs[&ModelKind::Ilr]);
        assert!(errs[&ModelKind::Irfr] < errs[&ModelKind::Isvr]);
    }

    #[test]
    fn incremental_updates_reduce_error() {
        let test = gen(100, 5, 0.0);
        let mut m = IncrementalModel::new(IncrementalParams::new(ModelKind::Irfr, 2, 9));
        m.bootstrap(&gen(100, 6, 0.0));
        let early = eval(&m, &test);
        for i in 0..10 {
            m.update(&gen(100, 100 + i, 0.0));
        }
        let late = eval(&m, &test);
        assert!(late <= early * 1.05, "early {early}, late {late}");
        assert_eq!(m.samples_seen(), 1100);
    }

    #[test]
    fn irfr_recovers_from_distribution_shift() {
        // The Fig. 13 mechanism in miniature: train on one regime, shift by
        // +100, recover after incremental updates.
        let shifted_test = gen(100, 11, 100.0);
        let mut m = IncrementalModel::new(IncrementalParams::new(ModelKind::Irfr, 2, 13));
        m.bootstrap(&gen(500, 10, 0.0));
        let before = eval(&m, &shifted_test);
        for i in 0..10 {
            m.update(&gen(100, 200 + i, 100.0));
        }
        let after = eval(&m, &shifted_test);
        assert!(before > 0.3, "shift should hurt: {before}");
        // Old conflicting samples remain in the buffer, so recovery is
        // partial here; Fig. 13's full recovery relies on the new regime
        // occupying a different feature region (as it does in the paper).
        assert!(after < before / 2.0, "before {before}, after {after}");
    }

    #[test]
    fn update_without_bootstrap_fits_lazily() {
        let mut m = IncrementalModel::new(IncrementalParams::new(ModelKind::Irfr, 2, 15));
        assert!(m.predict(&[1.0, 1.0]).is_nan());
        m.update(&gen(200, 12, 0.0));
        assert!(m.predict(&[1.0, 1.0]).is_finite());
    }

    #[test]
    fn buffer_eviction_bounds_memory() {
        let mut p = IncrementalParams::new(ModelKind::Irfr, 2, 17);
        p.buffer_cap = 150;
        let mut m = IncrementalModel::new(p);
        m.bootstrap(&gen(100, 13, 0.0));
        m.update(&gen(100, 14, 0.0));
        assert_eq!(m.buffer.data.len(), 150);
        assert_eq!(m.samples_seen(), 200);
    }

    #[test]
    fn predict_batch_matches_sequential_for_all_kinds() {
        let train = gen(300, 20, 0.0);
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.25, 3.0]).collect();
        for kind in ModelKind::ALL {
            let mut m = IncrementalModel::new(IncrementalParams::new(kind, 2, 7));
            m.bootstrap(&train);
            // Drive an incremental update so IRFR is in post-refresh state.
            m.update(&gen(100, 21, 0.0));
            let seq: Vec<f64> = rows.iter().map(|x| m.predict(x)).collect();
            assert_eq!(m.predict_batch(&rows), seq, "{}", kind.name());
        }
    }

    #[test]
    fn importances_only_for_irfr() {
        let train = gen(100, 16, 0.0);
        let mut irfr = IncrementalModel::new(IncrementalParams::new(ModelKind::Irfr, 2, 1));
        irfr.bootstrap(&train);
        assert!(irfr.importances().is_some());
        let mut knn = IncrementalModel::new(IncrementalParams::new(ModelKind::Iknn, 2, 1));
        knn.bootstrap(&train);
        assert!(knn.importances().is_none());
    }
}
