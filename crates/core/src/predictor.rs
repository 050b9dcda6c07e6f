//! The Gsight predictor: incremental learning over colocation scenarios.
//!
//! One predictor predicts one QoS target for the scenario's slot-0
//! workload: the IPC or p99 tail latency of an LS workload, or the JCT of
//! an SC workload. The paper's workflow (Fig. 6) maps onto this API:
//!
//! 1. solo-run profiling produces [`crate::scenario::ColoWorkload`]s;
//! 2. [`GsightPredictor::bootstrap`] fits the initial offline corpus;
//! 3. the scheduler calls [`GsightPredictor::predict`] on hypothetical
//!    scenarios to search placements;
//! 4. observed `(scenario, actual QoS)` pairs flow back through
//!    [`GsightPredictor::observe`], incrementally refining the model.

use crate::coding::CodingConfig;
use crate::features::{feature_dim, featurize, featurize_into, metric_of_feature};
use crate::scenario::Scenario;
use metricsd::{Metric, NUM_SELECTED};
use mlcore::{Dataset, IncrementalModel, IncrementalParams, ModelKind};

/// Which QoS value the predictor outputs for the target workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosTarget {
    /// Mean IPC of the LS workload's functions.
    Ipc,
    /// p99 tail latency in ms.
    TailLatencyMs,
    /// Job completion time in seconds.
    JctSecs,
}

impl QosTarget {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QosTarget::Ipc => "IPC",
            QosTarget::TailLatencyMs => "tail latency (ms)",
            QosTarget::JctSecs => "JCT (s)",
        }
    }
}

/// Predictor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GsightConfig {
    /// Coding shape (servers × workload slots).
    pub coding: CodingConfig,
    /// QoS target this predictor outputs.
    pub target: QosTarget,
    /// Learner family (the paper's choice is [`ModelKind::Irfr`]).
    pub kind: ModelKind,
    /// Samples buffered before an incremental update fires.
    pub update_batch: usize,
    /// Seed.
    pub seed: u64,
}

impl GsightConfig {
    /// Paper defaults: IRFR on the 8-server/10-slot coding.
    pub fn paper(target: QosTarget, seed: u64) -> Self {
        Self {
            coding: CodingConfig::paper(),
            target,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed,
        }
    }
}

/// The predictor.
pub struct GsightPredictor {
    config: GsightConfig,
    model: IncrementalModel,
    pending: Dataset,
}

impl GsightPredictor {
    /// New, untrained predictor.
    pub fn new(config: GsightConfig) -> Self {
        let dim = feature_dim(&config.coding);
        let params = IncrementalParams::new(config.kind, dim, config.seed);
        Self {
            model: IncrementalModel::new(params),
            pending: Dataset::new(dim),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GsightConfig {
        &self.config
    }

    /// Model input dimension (`32nS + 2n`).
    pub fn feature_dim(&self) -> usize {
        feature_dim(&self.config.coding)
    }

    /// Fit the initial offline corpus.
    pub fn bootstrap(&mut self, samples: &[(Scenario, f64)]) {
        let mut data = Dataset::new(self.feature_dim());
        for (s, y) in samples {
            data.push(&featurize(s, &self.config.coding), *y);
        }
        self.model.bootstrap(&data);
    }

    /// Predict the target QoS for a (possibly hypothetical) scenario.
    pub fn predict(&self, scenario: &Scenario) -> f64 {
        self.model
            .predict(&featurize(scenario, &self.config.coding))
    }

    /// [`predict`](Self::predict) reusing a caller-owned featurization
    /// scratch buffer — the allocation-free hot path for schedulers that
    /// probe many hypothetical scenarios in a row. Returns exactly the same
    /// value as `predict`.
    pub fn predict_with_scratch(&self, scenario: &Scenario, scratch: &mut Vec<f64>) -> f64 {
        featurize_into(scenario, &self.config.coding, scratch);
        self.model.predict(scratch)
    }

    /// Predict many scenarios in one call: bit-identical to calling
    /// [`predict`](Self::predict) on each scenario in order.
    pub fn predict_batch(&self, scenarios: &[Scenario]) -> Vec<f64> {
        self.predict_batch_with_scratch(scenarios, &mut Vec::new())
    }

    /// [`predict_batch`](Self::predict_batch) reusing a caller-owned
    /// featurization scratch buffer — the allocation-free path for
    /// schedulers that batch-probe repeatedly (e.g. consolidation's
    /// per-move SLA holds). Each scenario is featurized into `scratch` and
    /// walked by the model while the row is still cache-hot, exactly as
    /// [`predict_with_scratch`](Self::predict_with_scratch) does; the
    /// buffer's prior contents and capacity never affect the result.
    pub fn predict_batch_with_scratch(
        &self,
        scenarios: &[Scenario],
        scratch: &mut Vec<f64>,
    ) -> Vec<f64> {
        scenarios
            .iter()
            .map(|s| self.predict_with_scratch(s, scratch))
            .collect()
    }

    /// Record an observed outcome; fires an incremental update every
    /// `update_batch` observations.
    pub fn observe(&mut self, scenario: &Scenario, actual: f64) {
        self.pending
            .push(&featurize(scenario, &self.config.coding), actual);
        if self.pending.len() >= self.config.update_batch {
            self.flush();
        }
    }

    /// Force an incremental update with whatever observations are pending.
    pub fn flush(&mut self) {
        if !self.pending.is_empty() {
            let dim = self.feature_dim();
            let batch = std::mem::replace(&mut self.pending, Dataset::new(dim));
            self.model.update(&batch);
        }
    }

    /// Directly update with a prepared batch (used by experiment sweeps).
    pub fn update_batch(&mut self, samples: &[(Scenario, f64)]) {
        let mut data = Dataset::new(self.feature_dim());
        for (s, y) in samples {
            data.push(&featurize(s, &self.config.coding), *y);
        }
        self.model.update(&data);
    }

    /// Total samples absorbed.
    pub fn samples_seen(&self) -> usize {
        self.model.samples_seen()
    }

    /// Per-metric impurity importances (Fig. 8): forest feature importances
    /// aggregated over every `U`-block column that encodes each metric.
    /// `None` unless the learner is IRFR and fitted.
    pub fn metric_importances(&self) -> Option<Vec<(Metric, f64)>> {
        let raw = self.model.importances()?;
        let mut by_metric = vec![0.0; NUM_SELECTED];
        for (i, &v) in raw.iter().enumerate() {
            if let Some(m) = metric_of_feature(i, &self.config.coding) {
                by_metric[m] += v;
            }
        }
        let total: f64 = by_metric.iter().sum();
        if total > 0.0 {
            for v in &mut by_metric {
                *v /= total;
            }
        }
        Some(Metric::SELECTED.iter().copied().zip(by_metric).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ColoWorkload;
    use cluster::Demand;
    use metricsd::{FunctionProfile, MetricVector, ProfileSample, WorkloadProfile};
    use simcore::{SimRng, SimTime};
    use workloads::WorkloadClass;

    fn small_config(target: QosTarget) -> GsightConfig {
        GsightConfig {
            coding: CodingConfig {
                num_servers: 2,
                max_workloads: 3,
            },
            target,
            kind: ModelKind::Irfr,
            update_batch: 10,
            seed: 7,
        }
    }

    fn colo(ipc: f64, l3: f64, server: usize) -> ColoWorkload {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        m.set(Metric::L3Mpki, l3);
        let profile = WorkloadProfile::new(
            "w",
            vec![FunctionProfile::new(
                "f",
                vec![ProfileSample {
                    at: SimTime::ZERO,
                    metrics: m,
                }],
                false,
            )],
        );
        ColoWorkload::new(
            profile,
            WorkloadClass::LatencySensitive,
            vec![Demand::new(1.0, 2.0, l3, 0.0, 0.0, 0.5)],
            vec![server],
        )
    }

    /// Ground truth used by the learnability tests: the target's corun IPC
    /// is its solo IPC shrunk by same-server corunner cache pressure.
    fn truth(target_ipc: f64, target_l3: f64, corunner_l3: f64, same_server: bool) -> f64 {
        if same_server {
            target_ipc / (1.0 + 0.05 * target_l3 * corunner_l3 / 10.0)
        } else {
            target_ipc
        }
    }

    fn sample(rng: &mut SimRng) -> (Scenario, f64) {
        let t_ipc = 0.8 + rng.f64() * 1.6;
        let t_l3 = rng.f64() * 8.0;
        let c_l3 = rng.f64() * 8.0;
        let same = rng.chance(0.5);
        let target = colo(t_ipc, t_l3, 0);
        let other = colo(1.0, c_l3, if same { 0 } else { 1 });
        let y = truth(t_ipc, t_l3, c_l3, same);
        (Scenario::new(target, vec![other], 2), y)
    }

    #[test]
    fn learns_spatial_overlap_effect() {
        let mut rng = SimRng::new(1);
        let train: Vec<_> = (0..800).map(|_| sample(&mut rng)).collect();
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        p.bootstrap(&train);
        // Same scenario, same vs different server: prediction must differ
        // in the right direction.
        let target = colo(2.0, 6.0, 0);
        let near = Scenario::new(target.clone(), vec![colo(1.0, 8.0, 0)], 2);
        let far = Scenario::new(target, vec![colo(1.0, 8.0, 1)], 2);
        let p_near = p.predict(&near);
        let p_far = p.predict(&far);
        assert!(
            p_near < p_far - 0.05,
            "colocated {p_near} should be below separated {p_far}"
        );
        // And the separated prediction should sit near the solo IPC of 2.
        assert!((p_far - 2.0).abs() < 0.25, "separated {p_far}");
    }

    #[test]
    fn prediction_error_small_in_distribution() {
        let mut rng = SimRng::new(2);
        let train: Vec<_> = (0..2500).map(|_| sample(&mut rng)).collect();
        let test: Vec<_> = (0..100).map(|_| sample(&mut rng)).collect();
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        p.bootstrap(&train);
        let errs: Vec<f64> = test
            .iter()
            .map(|(s, y)| (p.predict(s) - y).abs() / y)
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.06, "mean error {mean}");
    }

    #[test]
    fn observe_triggers_batched_updates() {
        let mut rng = SimRng::new(3);
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        p.bootstrap(&(0..50).map(|_| sample(&mut rng)).collect::<Vec<_>>());
        assert_eq!(p.samples_seen(), 50);
        for _ in 0..9 {
            let (s, y) = sample(&mut rng);
            p.observe(&s, y);
        }
        assert_eq!(p.samples_seen(), 50, "below batch threshold: no update");
        let (s, y) = sample(&mut rng);
        p.observe(&s, y);
        assert_eq!(p.samples_seen(), 60, "batch flushed at threshold");
    }

    #[test]
    fn flush_forces_pending() {
        let mut rng = SimRng::new(4);
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        let (s, y) = sample(&mut rng);
        p.observe(&s, y);
        p.flush();
        assert_eq!(p.samples_seen(), 1);
        p.flush(); // idempotent on empty
        assert_eq!(p.samples_seen(), 1);
    }

    #[test]
    fn metric_importances_highlight_informative_columns() {
        let mut rng = SimRng::new(5);
        let train: Vec<_> = (0..600).map(|_| sample(&mut rng)).collect();
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        p.bootstrap(&train);
        let imp = p.metric_importances().expect("IRFR importances");
        assert_eq!(imp.len(), NUM_SELECTED);
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let get = |m: Metric| imp.iter().find(|(mm, _)| *mm == m).unwrap().1;
        // IPC and L3 MPKI drive the ground truth; context switches carry
        // no signal in this corpus.
        assert!(get(Metric::Ipc) > get(Metric::ContextSwitches));
        assert!(get(Metric::L3Mpki) > get(Metric::ContextSwitches));
    }

    #[test]
    fn predict_batch_and_scratch_bitwise_equal_predict() {
        let mut rng = SimRng::new(6);
        let train: Vec<_> = (0..600).map(|_| sample(&mut rng)).collect();
        let mut p = GsightPredictor::new(small_config(QosTarget::Ipc));
        p.bootstrap(&train);
        // Exercise the post-refresh IRFR state as well.
        p.update_batch(&(0..60).map(|_| sample(&mut rng)).collect::<Vec<_>>());
        let probes: Vec<Scenario> = (0..25).map(|_| sample(&mut rng).0).collect();
        let seq: Vec<f64> = probes.iter().map(|s| p.predict(s)).collect();
        assert_eq!(p.predict_batch(&probes), seq);
        let mut scratch = Vec::new();
        let scratched: Vec<f64> = probes
            .iter()
            .map(|s| p.predict_with_scratch(s, &mut scratch))
            .collect();
        assert_eq!(scratched, seq);
        // A reused buffer holding a full row of unrelated values, with
        // spare capacity, must not leak into any prediction.
        let mut dirty: Vec<f64> = Vec::with_capacity(3 * p.feature_dim() + 17);
        dirty.extend((0..p.feature_dim()).map(|i| f64::from(i as u32) * -1.5));
        assert_eq!(p.predict_batch_with_scratch(&probes, &mut dirty), seq);
        assert!(p.predict_batch(&[]).is_empty());
    }

    #[test]
    fn feature_dim_exposed() {
        let p = GsightPredictor::new(small_config(QosTarget::JctSecs));
        assert_eq!(p.feature_dim(), 198);
        assert_eq!(p.config().target, QosTarget::JctSecs);
    }
}
