//! Ablations of the design choices DESIGN.md calls out (not a paper figure;
//! an extension of the evaluation):
//!
//! 1. **Coding blocks** — drop the temporal code, the allocation (`R`)
//!    block, or the whole per-function spatial structure (merged coding)
//!    and measure the accuracy cost of each.
//! 2. **Forest size** — IRFR error vs number of trees.
//! 3. **PCA compression** — accuracy and inference latency of the
//!    [`gsight::CompressedPredictor`] at several component counts versus
//!    the full 2580-dimensional coding.
//! 4. **CAT/MBA partitioning** — the contention model's shared vs
//!    partitioned slowdowns for the victim/aggressor mixes of §1, showing
//!    why static partitioning suits neither high-density serverless.

use crate::corpus::{generate_mixed, labeled_for, merge_scenario, standard_profile_book};
use crate::registry::{ExperimentResult, RunOpts};
use cluster::{
    Boundedness, ClusterConfig, ContentionState, Demand, InstanceLoad, PartitionClass,
    Partitioning, Sensitivity, ServerSpec,
};
use gsight::features::{featurize, metric_of_feature};
use gsight::{CodingConfig, CompressedPredictor, GsightConfig, QosTarget, Scenario};
use mlcore::{mape, Dataset, ForestParams, ModelKind, RandomForest};
use simcore::rng::seed_stream;
use simcore::table::{fnum, TextTable};

const SEED: u64 = 0xAB_1A;

/// Which part of the coding an ablation removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodingVariant {
    /// The full Gsight coding.
    Full,
    /// Start-delay and lifetime vectors zeroed.
    NoTemporal,
    /// Allocation (`R`) blocks zeroed.
    NoAllocation,
    /// Workload-level merged coding (no per-function spatial structure).
    Merged,
}

impl CodingVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CodingVariant::Full => "full coding",
            CodingVariant::NoTemporal => "no temporal code",
            CodingVariant::NoAllocation => "no allocation (R) block",
            CodingVariant::Merged => "merged (workload-level)",
        }
    }

    /// All variants.
    pub const ALL: [CodingVariant; 4] = [
        CodingVariant::Full,
        CodingVariant::NoTemporal,
        CodingVariant::NoAllocation,
        CodingVariant::Merged,
    ];
}

/// Featurize a scenario under an ablated coding.
pub fn featurize_variant(
    scenario: &Scenario,
    coding: &CodingConfig,
    variant: CodingVariant,
) -> Vec<f64> {
    match variant {
        CodingVariant::Merged => featurize(&merge_scenario(scenario), coding),
        _ => {
            let mut x = featurize(scenario, coding);
            let spatial = coding.max_workloads * 2 * coding.num_servers * 16;
            match variant {
                CodingVariant::NoTemporal => {
                    for v in &mut x[spatial..] {
                        *v = 0.0;
                    }
                }
                CodingVariant::NoAllocation => {
                    // Every spatial index that is NOT a U-block metric
                    // column is part of an R block.
                    for (i, v) in x[..spatial].iter_mut().enumerate() {
                        if metric_of_feature(i, coding).is_none() {
                            *v = 0.0;
                        }
                    }
                }
                _ => {}
            }
            x
        }
    }
}

/// Train/evaluate an IRFR-style forest on one coding variant.
fn variant_error(
    train: &[(Scenario, f64)],
    test: &[(Scenario, f64)],
    coding: &CodingConfig,
    variant: CodingVariant,
) -> f64 {
    let dim = gsight::feature_dim(coding);
    let mut d = Dataset::new(dim);
    for (s, y) in train {
        d.push(&featurize_variant(s, coding, variant), *y);
    }
    let forest = RandomForest::fit(&d, ForestParams::default(), SEED);
    let preds: Vec<f64> = test
        .iter()
        .map(|(s, _)| forest.predict(&featurize_variant(s, coding, variant)))
        .collect();
    let actuals: Vec<f64> = test.iter().map(|(_, y)| *y).collect();
    mape(&preds, &actuals)
}

/// The partitioning study rows: `(scenario, shared slowdown, partitioned)`.
pub fn partitioning_study() -> Vec<(String, f64, f64)> {
    let spec = ServerSpec::paper_node();
    let mk = |membw: f64, llc: f64, sens: f64| InstanceLoad {
        demand: Demand::new(2.0, membw, llc, 0.0, 0.0, 0.5),
        bounded: Boundedness::cpu_bound(),
        sens: Sensitivity::new(sens, sens, 0.3),
        socket: 0,
    };
    let part = Partitioning::new(vec![
        PartitionClass {
            llc_fraction: 0.5,
            membw_fraction: 0.5,
        },
        PartitionClass {
            llc_fraction: 0.5,
            membw_fraction: 0.5,
        },
    ]);
    // (victim, optional corunner, corunner's class). The victim is always
    // class 0.
    type Case = (&'static str, InstanceLoad, Option<(InstanceLoad, usize)>);
    let cases: Vec<Case> = vec![
        (
            "light victim shielded from hog (separate classes)",
            mk(5.0, 2.0, 2.0),
            Some((mk(60.0, 22.0, 1.0), 1)),
        ),
        (
            "hog alone, confined to a 50% slice (waste)",
            mk(55.0, 20.0, 1.5),
            None,
        ),
        (
            "hog vs hog crammed into one 50% class",
            mk(55.0, 20.0, 1.5),
            Some((mk(55.0, 20.0, 1.5), 0)),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, victim, corunner)| {
            let mut shared_loads = vec![victim];
            let mut part_loads = vec![(victim, 0usize)];
            if let Some((c, class)) = corunner {
                shared_loads.push(c);
                part_loads.push((c, class));
            }
            let shared = ContentionState::compute(&spec, shared_loads.iter())
                .instance(&victim)
                .slowdown;
            let partitioned = part.instance(&spec, &part_loads, 0).slowdown;
            (name.to_string(), shared, partitioned)
        })
        .collect()
}

/// Entry point.
pub fn run(opts: &RunOpts) -> ExperimentResult {
    let quick = opts.quick;
    let mut result = ExperimentResult::new("ablation", "design-choice ablations (extension)");
    let book = standard_profile_book(SEED, quick);
    let cluster = ClusterConfig::paper_testbed();
    let n = if quick { 30 } else { 150 };
    let train_s = generate_mixed(n, &book, &cluster, seed_stream(SEED, 1), quick);
    let test_s = generate_mixed(n / 4 + 2, &book, &cluster, seed_stream(SEED, 2), quick);
    let train = labeled_for(&train_s, QosTarget::Ipc);
    let test = labeled_for(&test_s, QosTarget::Ipc);
    let coding = CodingConfig::paper();

    // ---- 1. coding-block ablation ----
    let mut t = TextTable::new(vec!["coding variant", "IPC error"]);
    let mut full_err = f64::NAN;
    for variant in CodingVariant::ALL {
        let e = variant_error(&train, &test, &coding, variant);
        if variant == CodingVariant::Full {
            full_err = e;
        }
        t.row(vec![variant.name().to_string(), fnum(e * 100.0, 2) + "%"]);
    }
    result.table(format!("(1) coding-block ablation\n{}", t.render()));
    result.note(format!(
        "full coding error {:.2}% — ablations show what each block contributes",
        full_err * 100.0
    ));

    // ---- 2. forest-size ablation ----
    let dim = gsight::feature_dim(&coding);
    let mut d = Dataset::new(dim);
    for (s, y) in &train {
        d.push(&featurize(s, &coding), *y);
    }
    let mut t = TextTable::new(vec!["trees", "IPC error"]);
    for n_trees in [5usize, 10, 20, 40, 80] {
        let forest = RandomForest::fit(
            &d,
            ForestParams {
                n_trees,
                ..Default::default()
            },
            SEED,
        );
        let preds: Vec<f64> = test
            .iter()
            .map(|(s, _)| forest.predict(&featurize(s, &coding)))
            .collect();
        let actuals: Vec<f64> = test.iter().map(|(_, y)| *y).collect();
        t.row(vec![
            format!("{n_trees}"),
            fnum(mape(&preds, &actuals) * 100.0, 2) + "%",
        ]);
    }
    result.table(format!("(2) forest-size ablation\n{}", t.render()));

    // ---- 3. PCA compression ----
    let mut t = TextTable::new(vec!["components", "IPC error", "mean predict (us)"]);
    for k in [8usize, 32, 128] {
        let mut config = GsightConfig::paper(QosTarget::Ipc, SEED);
        config.kind = ModelKind::Irfr;
        let mut p = CompressedPredictor::new(config, k);
        p.bootstrap(&train);
        let start = std::time::Instant::now();
        let preds: Vec<f64> = test.iter().map(|(s, _)| p.predict(s)).collect();
        let us = start.elapsed().as_micros() as f64 / test.len().max(1) as f64;
        let actuals: Vec<f64> = test.iter().map(|(_, y)| *y).collect();
        t.row(vec![
            format!("{}", p.compressed_dim()),
            fnum(mape(&preds, &actuals) * 100.0, 2) + "%",
            fnum(us, 1),
        ]);
    }
    t.row(vec![
        format!("full ({dim})"),
        fnum(full_err * 100.0, 2) + "%",
        "-".to_string(),
    ]);
    result.table(format!(
        "(3) PCA compression (paper SS6.4 future work)\n{}",
        t.render()
    ));

    // ---- 4. partitioning study ----
    let mut t = TextTable::new(vec![
        "mix",
        "shared slowdown",
        "partitioned (50/50) slowdown",
    ]);
    for (name, shared, partitioned) in partitioning_study() {
        t.row(vec![name, fnum(shared, 2), fnum(partitioned, 2)]);
    }
    result.table(format!(
        "(4) CAT/MBA partitioning counterfactual (paper SS1)\n{}",
        t.render()
    ));
    result.note(
        "partitioning shields light victims but penalises anything whose demand \
         exceeds its slice — the capacity-waste argument of the paper's introduction",
    );
    result.metric("pca_full_dim_err", full_err);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn featurize_variants_differ_and_share_shape() {
        let book = standard_profile_book(3, true);
        let cluster = ClusterConfig::paper_testbed();
        let samples = generate_mixed(4, &book, &cluster, 5, true);
        let labeled = labeled_for(&samples, QosTarget::Ipc);
        let coding = CodingConfig::paper();
        let (s, _) = &labeled[0];
        let full = featurize_variant(s, &coding, CodingVariant::Full);
        for v in [
            CodingVariant::NoTemporal,
            CodingVariant::NoAllocation,
            CodingVariant::Merged,
        ] {
            let x = featurize_variant(s, &coding, v);
            assert_eq!(x.len(), full.len(), "{v:?} changed dimension");
        }
        // The no-allocation variant really zeroes the R blocks.
        let noalloc = featurize_variant(s, &coding, CodingVariant::NoAllocation);
        let spatial = coding.max_workloads * 2 * coding.num_servers * 16;
        for (i, &v) in noalloc[..spatial].iter().enumerate() {
            if metric_of_feature(i, &coding).is_none() {
                assert_eq!(v, 0.0, "R column {i} not zeroed");
            }
        }
    }

    #[test]
    fn partitioning_study_shapes() {
        let rows = partitioning_study();
        assert_eq!(rows.len(), 3);
        // Light victim: partitioning shields it.
        assert!(rows[0].1 > rows[0].2, "{:?}", rows[0]);
        // Confined hog: interference-free when shared, slowed by its slice.
        assert!((rows[1].1 - 1.0).abs() < 1e-9, "{:?}", rows[1]);
        assert!(rows[1].2 > 1.2, "{:?}", rows[1]);
        // Crammed class: worse than the shared machine.
        assert!(rows[2].2 > rows[2].1, "{:?}", rows[2]);
    }
}
