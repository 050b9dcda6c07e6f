//! PCA-compressed prediction — the scalability extension of paper §6.4.
//!
//! The full coding grows as `32nS + 2n`; at hundreds of servers the model
//! input reaches tens of thousands of dimensions and "Gsight may not scale
//! up well". The paper proposes dimensionality reduction (PCA) as future
//! work; [`CompressedPredictor`] implements it: the PCA basis is fitted on
//! the bootstrap corpus' feature matrix and frozen, the learner then trains
//! and predicts in the projected space. The basis holds at most as many
//! components as the corpus has samples, so the learner is sized from the
//! fitted basis, not from the requested `k`.

use crate::coding::CodingConfig;
use crate::features::{feature_dim, featurize};
use crate::predictor::GsightConfig;
use crate::scenario::Scenario;
use mlcore::{Dataset, IncrementalModel, IncrementalParams, Pca};

/// A Gsight predictor operating in PCA-projected feature space.
pub struct CompressedPredictor {
    config: GsightConfig,
    k: usize,
    /// The frozen basis and the learner sized to it (`None` before
    /// bootstrap).
    fitted: Option<(Pca, IncrementalModel)>,
}

impl CompressedPredictor {
    /// New predictor projecting to up to `k` components. The basis is
    /// fitted at [`CompressedPredictor::bootstrap`] time and frozen
    /// thereafter.
    pub fn new(config: GsightConfig, k: usize) -> Self {
        assert!(k > 0, "need at least one component");
        Self {
            config,
            k,
            fitted: None,
        }
    }

    /// The coding configuration.
    pub fn coding(&self) -> &CodingConfig {
        &self.config.coding
    }

    /// Raw (uncompressed) feature dimension.
    pub fn raw_dim(&self) -> usize {
        feature_dim(&self.config.coding)
    }

    /// Compressed dimension: the fitted component count after bootstrap
    /// (`k` clamped to the bootstrap sample count), the requested `k`
    /// before it.
    pub fn compressed_dim(&self) -> usize {
        self.fitted.as_ref().map_or(self.k, |(pca, _)| pca.k())
    }

    /// Variance captured per retained component (`None` before bootstrap).
    pub fn explained_variance(&self) -> Option<&[f64]> {
        self.fitted
            .as_ref()
            .map(|(pca, _)| pca.explained_variance())
    }

    fn raw_features(&self, samples: &[(Scenario, f64)]) -> Dataset {
        let mut d = Dataset::new(self.raw_dim());
        for (s, y) in samples {
            d.push(&featurize(s, &self.config.coding), *y);
        }
        d
    }

    /// Fit the PCA basis on the bootstrap corpus, then a learner of the
    /// basis' dimension on the projected features.
    pub fn bootstrap(&mut self, samples: &[(Scenario, f64)]) {
        let raw = self.raw_features(samples);
        let pca = Pca::fit(&raw, self.k, self.config.seed ^ 0x9CA);
        let params = IncrementalParams::new(self.config.kind, pca.k(), self.config.seed);
        let mut model = IncrementalModel::new(params);
        model.bootstrap(&pca.transform_dataset(&raw));
        self.fitted = Some((pca, model));
    }

    /// Incrementally absorb new observations (requires a prior bootstrap —
    /// the frozen basis must exist).
    pub fn update(&mut self, samples: &[(Scenario, f64)]) {
        let raw = self.raw_features(samples);
        let (pca, model) = self.fitted.as_mut().expect("bootstrap before update");
        model.update(&pca.transform_dataset(&raw));
    }

    /// Predict the target QoS (NaN before bootstrap).
    pub fn predict(&self, scenario: &Scenario) -> f64 {
        match &self.fitted {
            Some((pca, model)) => {
                let raw = featurize(scenario, &self.config.coding);
                model.predict(&pca.transform(&raw))
            }
            None => f64::NAN,
        }
    }

    /// Samples absorbed so far.
    pub fn samples_seen(&self) -> usize {
        self.fitted
            .as_ref()
            .map_or(0, |(_, model)| model.samples_seen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::QosTarget;
    use crate::scenario::ColoWorkload;
    use cluster::Demand;
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use mlcore::ModelKind;
    use simcore::{SimRng, SimTime};
    use workloads::WorkloadClass;

    fn config() -> GsightConfig {
        GsightConfig {
            coding: CodingConfig {
                num_servers: 4,
                max_workloads: 3,
            },
            target: QosTarget::Ipc,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed: 3,
        }
    }

    fn colo(ipc: f64, l3: f64, server: usize) -> ColoWorkload {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        m.set(Metric::L3Mpki, l3);
        ColoWorkload::new(
            WorkloadProfile::new(
                "w",
                vec![FunctionProfile::new(
                    "f",
                    vec![ProfileSample {
                        at: SimTime::ZERO,
                        metrics: m,
                    }],
                    false,
                )],
            ),
            WorkloadClass::LatencySensitive,
            vec![Demand::new(1.0, 2.0, l3, 0.0, 0.0, 0.5)],
            vec![server],
        )
    }

    fn sample(rng: &mut SimRng) -> (Scenario, f64) {
        let t_ipc = 0.8 + rng.f64() * 1.6;
        let t_l3 = rng.f64() * 8.0;
        let c_l3 = rng.f64() * 8.0;
        let same = rng.chance(0.5);
        let y = if same {
            t_ipc / (1.0 + 0.3 * t_l3 * c_l3 / 10.0)
        } else {
            t_ipc
        };
        (
            Scenario::new(
                colo(t_ipc, t_l3, 0),
                vec![colo(1.0, c_l3, if same { 0 } else { 1 })],
                4,
            ),
            y,
        )
    }

    #[test]
    fn compressed_predictor_learns() {
        let mut rng = SimRng::new(1);
        let train: Vec<_> = (0..1200).map(|_| sample(&mut rng)).collect();
        let test: Vec<_> = (0..100).map(|_| sample(&mut rng)).collect();
        let mut p = CompressedPredictor::new(config(), 16);
        assert!(p.predict(&test[0].0).is_nan(), "NaN before bootstrap");
        p.bootstrap(&train);
        assert_eq!(p.compressed_dim(), 16);
        assert!(p.raw_dim() > 16);
        let err: f64 = test
            .iter()
            .map(|(s, y)| (p.predict(s) - y).abs() / y)
            .sum::<f64>()
            / test.len() as f64;
        assert!(err < 0.12, "compressed error {err}");
    }

    #[test]
    fn compression_preserves_most_variance_of_sparse_coding() {
        let mut rng = SimRng::new(2);
        let train: Vec<_> = (0..400).map(|_| sample(&mut rng)).collect();
        let mut p = CompressedPredictor::new(config(), 8);
        p.bootstrap(&train);
        let ev = p.explained_variance().unwrap();
        // The overlap coding has few varying columns; 8 components capture
        // nearly everything (later ones near zero).
        assert!(ev[0] > 0.0);
        assert!(ev[ev.len() - 1] < ev[0] / 10.0);
    }

    #[test]
    fn incremental_update_works_on_projection() {
        let mut rng = SimRng::new(3);
        let train: Vec<_> = (0..300).map(|_| sample(&mut rng)).collect();
        let more: Vec<_> = (0..200).map(|_| sample(&mut rng)).collect();
        let mut p = CompressedPredictor::new(config(), 12);
        p.bootstrap(&train);
        p.update(&more);
        assert_eq!(p.samples_seen(), 500);
    }

    #[test]
    fn bootstrap_with_fewer_samples_than_components() {
        // PCA keeps at most one component per sample; the learner must be
        // sized from the fitted basis, not from the requested 64.
        let mut rng = SimRng::new(5);
        let train: Vec<_> = (0..20).map(|_| sample(&mut rng)).collect();
        let mut p = CompressedPredictor::new(config(), 64);
        p.bootstrap(&train);
        assert!(p.compressed_dim() <= 20, "dim {}", p.compressed_dim());
        for (s, _) in &train {
            assert!(p.predict(s).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "bootstrap before update")]
    fn update_before_bootstrap_panics() {
        let mut rng = SimRng::new(4);
        let batch: Vec<_> = (0..5).map(|_| sample(&mut rng)).collect();
        let mut p = CompressedPredictor::new(config(), 4);
        p.update(&batch);
    }
}
