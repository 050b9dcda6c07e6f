//! Reference tree trainer: the exhaustive per-node split search.
//!
//! This is the original row-major implementation — re-sort the node's rows
//! for every candidate feature, sweep, repeat — retained as the
//! ground-truth oracle for the presorted kernel in [`crate::tree`]. The
//! property tests (`tests/train_kernel.rs`) and the `fig14` experiment's
//! training-throughput measurement (its `train_*` and `train_irfr_*`
//! metrics) both fit trees through this path and check the kernel's
//! output is bit-identical.
//!
//! Two deliberate canonicalisations relative to the first version of the
//! code, both order-defining rather than behaviour-changing:
//!
//! * **`total_cmp` instead of `partial_cmp(..).expect(..)`** — removes the
//!   panic path on NaN features and gives every column a total order.
//! * **Stable partition instead of swap partition** — the old in-place swap
//!   partition scrambled the relative order of each child's rows, which
//!   made the per-node sort's tie order (and therefore the floating-point
//!   summation order) an artifact of partition history. With a stable
//!   partition every node's row array is in ascending bootstrap-sample
//!   order, so the per-node scan order is exactly "feature value ascending,
//!   ties by bootstrap position" — a property the presorted kernel can
//!   maintain incrementally. Both choices select the same split whenever
//!   gains differ; they only pin down which of several *equal-gain* ties
//!   wins, and in which order equal targets are summed.

use crate::dataset::Dataset;
use crate::tree::{candidate_features, effective_mtry, Moments, Node, RegressionTree, TreeParams};
use simcore::SimRng;

struct RefBuilder<'a> {
    data: &'a Dataset,
    params: TreeParams,
    mtry: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

impl RefBuilder<'_> {
    fn build(&mut self, rows: &mut [usize], depth: usize, rng: &mut SimRng) -> usize {
        let parent = self.moments(rows);
        let make_leaf = rows.len() < 2 * self.params.min_samples_leaf
            || depth >= self.params.max_depth
            || parent.sse() <= 1e-12;
        if !make_leaf {
            if let Some((feature, threshold, gain)) = self.best_split(rows, &parent, rng) {
                self.importances[feature] += gain;
                let mid = stable_partition(self.data, rows, feature, threshold);
                let node_idx = self.nodes.len();
                // Placeholder; children filled in below.
                self.nodes.push(Node::Leaf { value: 0.0 });
                let (left_rows, right_rows) = rows.split_at_mut(mid);
                let left = self.build(left_rows, depth + 1, rng);
                let right = self.build(right_rows, depth + 1, rng);
                self.nodes[node_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return node_idx;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: parent.mean(),
        });
        idx
    }

    fn moments(&self, rows: &[usize]) -> Moments {
        let mut m = Moments::default();
        for &r in rows {
            m.push(self.data.target(r));
        }
        m
    }

    /// Best (feature, threshold, gain) over a random feature subset, or
    /// `None` when no split satisfies the leaf-size constraint.
    ///
    /// Examines the first `mtry` shuffled features, then (matching
    /// scikit-learn's semantics) keeps scanning until at least one valid
    /// split has been found. This matters for the sparse overlap codings,
    /// where most columns are constant zero padding and a strict-`mtry`
    /// draw would frequently see no splittable feature at all.
    fn best_split(
        &self,
        rows: &[usize],
        parent: &Moments,
        rng: &mut SimRng,
    ) -> Option<(usize, f64, f64)> {
        let mut rng_local = rng.split(rows.len() as u64);
        let mut seen = Vec::new();
        let features = candidate_features(self.data.dim(), &mut rng_local, &mut seen);
        let min_leaf = self.params.min_samples_leaf as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut sorted: Vec<usize> = Vec::with_capacity(rows.len());
        for (examined, &feature) in features.iter().enumerate() {
            if examined >= self.mtry && best.is_some() {
                break;
            }
            sorted.clear();
            sorted.extend_from_slice(rows);
            // Stable sort on a row array in ascending bootstrap-position
            // order = "value ascending, ties by bootstrap position", the
            // canonical scan order shared with the kernel.
            sorted
                .sort_by(|&a, &b| self.data.row(a)[feature].total_cmp(&self.data.row(b)[feature]));
            let mut left = Moments::default();
            let mut right = *parent;
            for i in 0..sorted.len() - 1 {
                let y = self.data.target(sorted[i]);
                left.push(y);
                right.pop(y);
                let v = self.data.row(sorted[i])[feature];
                let v_next = self.data.row(sorted[i + 1])[feature];
                if v == v_next {
                    continue; // cannot split between equal values
                }
                if left.n < min_leaf || right.n < min_leaf {
                    continue;
                }
                let gain = parent.sse() - left.sse() - right.sse();
                if gain > best.map(|(_, _, g)| g).unwrap_or(1e-12) {
                    best = Some((feature, (v + v_next) / 2.0, gain));
                }
            }
        }
        best
    }
}

/// Stable in-place partition of `rows` by `feature <= threshold`; returns
/// the count on the left side. Both children keep their relative order.
fn stable_partition(data: &Dataset, rows: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut rights: Vec<usize> = Vec::new();
    let mut w = 0;
    for r in 0..rows.len() {
        let row = rows[r];
        if data.row(row)[feature] <= threshold {
            rows[w] = row;
            w += 1;
        } else {
            rights.push(row);
        }
    }
    rows[w..].copy_from_slice(&rights);
    w
}

/// Fit a tree with the exhaustive reference search. Same contract as
/// [`RegressionTree::fit_rows`]; same result, bit for bit.
pub fn fit_rows(
    data: &Dataset,
    rows: &[usize],
    params: TreeParams,
    rng: &mut SimRng,
) -> RegressionTree {
    assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
    let mut builder = RefBuilder {
        data,
        params,
        mtry: effective_mtry(params, data.dim()),
        nodes: Vec::new(),
        importances: vec![0.0; data.dim()],
    };
    let mut rows = rows.to_vec();
    builder.build(&mut rows, 0, rng);
    RegressionTree {
        nodes: builder.nodes,
        importances: builder.importances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            let x0 = i as f64 / 100.0;
            let y = if x0 < 0.5 { 1.0 } else { 5.0 };
            d.push(&[x0, 0.0], y);
        }
        d
    }

    #[test]
    fn learns_step_function() {
        let d = step_data();
        let rows: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(1);
        let t = fit_rows(
            &d,
            &rows,
            TreeParams {
                mtry: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!((t.predict(&[0.2, 0.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.8, 0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn matches_kernel_on_toy_data() {
        let d = step_data();
        let rows: Vec<usize> = (0..d.len()).map(|i| i % 60).collect();
        for seed in [1u64, 2, 3] {
            let mut rng_ref = SimRng::new(seed);
            let mut rng_ker = SimRng::new(seed);
            let reference = fit_rows(&d, &rows, TreeParams::default(), &mut rng_ref);
            let kernel = RegressionTree::fit_rows(&d, &rows, TreeParams::default(), &mut rng_ker);
            assert_eq!(reference, kernel, "seed {seed}");
        }
    }

    #[test]
    fn nan_features_no_longer_panic() {
        let mut d = Dataset::new(2);
        for i in 0..12 {
            let x = if i == 5 { f64::NAN } else { i as f64 };
            d.push(&[x, i as f64], i as f64);
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let mut rng = SimRng::new(4);
        // Must not panic; NaN sorts after every finite value under total_cmp.
        let t = fit_rows(
            &d,
            &rows,
            TreeParams {
                mtry: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(t.num_nodes() >= 1);
    }
}
