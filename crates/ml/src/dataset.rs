//! Row-major datasets, splits, error metrics and feature scaling — plus a
//! column-major snapshot ([`ColumnStore`]) for the tree-training kernel.

use simcore::SimRng;

/// A regression dataset: `n` rows of `d` features plus one target each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    features: Vec<f64>,
    targets: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// Empty dataset with a fixed feature dimension.
    pub fn new(dim: usize) -> Self {
        Self {
            features: Vec::new(),
            targets: Vec::new(),
            dim,
        }
    }

    /// Append one row. Panics on dimension mismatch.
    pub fn push(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.features.extend_from_slice(x);
        self.targets.push(y);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`'s features.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i`'s target.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Append every row of another dataset (dimensions must match).
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        self.features.extend_from_slice(&other.features);
        self.targets.extend_from_slice(&other.targets);
    }

    /// A new dataset containing the given rows.
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.dim);
        for &r in rows {
            out.push(self.row(r), self.target(r));
        }
        out
    }

    /// Shuffled train/test split; `train_frac` in `(0, 1)`.
    pub fn split(&self, train_frac: f64, rng: &mut SimRng) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&train_frac) && train_frac > 0.0);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let cut = ((self.len() as f64) * train_frac).round() as usize;
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Bootstrap sample (with replacement) of `n` rows.
    pub fn bootstrap(&self, n: usize, rng: &mut SimRng) -> Vec<usize> {
        (0..n).map(|_| rng.index(self.len())).collect()
    }

    /// Column-major snapshot of this dataset (see [`ColumnStore`]).
    pub fn column_store(&self) -> ColumnStore {
        ColumnStore::build(self)
    }
}

/// Column-major snapshot of a dataset: `column(f)` is a contiguous slice of
/// feature `f` across all rows.
///
/// The split-search kernel scans one feature at a time over many rows; on
/// the row-major [`Dataset`] that access pattern (`row(i)[f]` for varying
/// `i`) strides through ~2580-dimension rows (≈ 20 KB apart), missing cache
/// on essentially every read. The transpose is built once per forest fit /
/// incremental refresh and shared read-only across all tree builders.
///
/// Values are copied bit-for-bit, so any computation reading a feature
/// through the store is bitwise-identical to reading it through `row()`.
/// Constant columns (the sparse zero padding of the paper's overlap
/// codings, which dominate the 2580-dim feature vectors) are flagged here
/// so the kernel can skip gathering and scanning them — a constant column
/// can never produce a split, in either implementation.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    cols: Vec<f64>,
    targets: Vec<f64>,
    n: usize,
    dim: usize,
    constant: Vec<bool>,
    non_constant: usize,
}

impl ColumnStore {
    /// Transpose a dataset. Cost is one pass over the features
    /// (`n · dim` copies), amortised over every node of every tree that
    /// trains against it.
    pub fn build(data: &Dataset) -> Self {
        let n = data.len();
        let dim = data.dim();
        let mut cols = vec![0.0; n * dim];
        // Block over rows so writes to the `dim` destination columns stay
        // within a bounded working set instead of touching every column
        // once per row.
        const BLOCK: usize = 64;
        let mut r0 = 0;
        while r0 < n {
            let r1 = (r0 + BLOCK).min(n);
            for f in 0..dim {
                let col = &mut cols[f * n..(f + 1) * n];
                for (r, slot) in col[r0..r1].iter_mut().enumerate() {
                    *slot = data.row(r0 + r)[f];
                }
            }
            r0 = r1;
        }
        // `==`-equality, not bit equality: the split scan cannot place a
        // threshold between two `==`-equal values (so all-equal columns are
        // safely skippable, including mixed ±0.0), while a NaN-bearing
        // column compares unequal to itself and must still be scanned to
        // mirror the exhaustive reference exactly.
        let constant: Vec<bool> = (0..dim)
            .map(|f| {
                let col = &cols[f * n..(f + 1) * n];
                col.windows(2).all(|w| w[0] == w[1])
            })
            .collect();
        let non_constant = constant.iter().filter(|&&c| !c).count();
        Self {
            cols,
            targets: data.targets().to_vec(),
            n,
            dim,
            constant,
            non_constant,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature `f` across all rows, contiguous.
    pub fn column(&self, f: usize) -> &[f64] {
        &self.cols[f * self.n..(f + 1) * self.n]
    }

    /// Row `i`'s target.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Whether all of feature `f`'s values are `==`-equal (so no split
    /// threshold can fall between two of them). The test is `==`, not bit
    /// equality: a column mixing `+0.0` and `-0.0` counts as constant, and
    /// on two or more rows a column holding a NaN never does.
    pub fn is_constant(&self, f: usize) -> bool {
        self.constant[f]
    }

    /// Number of features that are not constant.
    pub fn non_constant_features(&self) -> usize {
        self.non_constant
    }
}

/// The paper's prediction error: `|P̂ − P| / P`.
///
/// Returns NaN when the true value is zero.
pub fn prediction_error(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        f64::NAN
    } else {
        (predicted - actual).abs() / actual.abs()
    }
}

/// Mean absolute percentage error of a model over a test set.
pub fn mape(predictions: &[f64], actuals: &[f64]) -> f64 {
    assert_eq!(predictions.len(), actuals.len());
    let errs: Vec<f64> = predictions
        .iter()
        .zip(actuals)
        .map(|(&p, &a)| prediction_error(p, a))
        .filter(|e| e.is_finite())
        .collect();
    if errs.is_empty() {
        return f64::NAN;
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Per-feature standardizer (z-score) fitted on training data.
///
/// SGD-based models (ridge, SVR, MLP) diverge on raw features whose scales
/// span six orders of magnitude (context switches vs IPC), so they all train
/// in standardized space. Tree models are scale-invariant and skip this.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fit on a dataset. Constant features get std 1 (no-op scaling).
    pub fn fit(data: &Dataset) -> Self {
        let d = data.dim();
        let n = data.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for i in 0..data.len() {
            for (m, &v) in mean.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for i in 0..data.len() {
            for j in 0..d {
                let dv = data.row(i)[j] - mean[j];
                var[j] += dv * dv;
            }
        }
        let std = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { mean, std }
    }

    /// Transform one row into standardized space.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(j, &v)| (v - self.mean[j]) / self.std[j])
            .collect()
    }

    /// Transform a whole dataset.
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.dim());
        for i in 0..data.len() {
            out.push(&self.transform(data.row(i)), data.target(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f64, 2.0 * i as f64], i as f64);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(3), &[3.0, 6.0]);
        assert_eq!(d.target(3), 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0.0);
    }

    #[test]
    fn split_partitions() {
        let d = toy();
        let mut rng = SimRng::new(1);
        let (train, test) = d.split(0.7, &mut rng);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[0, 5, 9]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.target(1), 5.0);
    }

    #[test]
    fn extend_appends() {
        let mut a = toy();
        let b = toy();
        a.extend(&b);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn prediction_error_definition() {
        assert!((prediction_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(prediction_error(1.0, 0.0).is_nan());
    }

    #[test]
    fn mape_averages_finite_errors() {
        let m = mape(&[110.0, 90.0], &[100.0, 100.0]);
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn scaler_standardizes() {
        let d = toy();
        let sc = Scaler::fit(&d);
        let t = sc.transform_dataset(&d);
        // Column 0 mean ≈ 0 after transform.
        let mean0: f64 = (0..t.len()).map(|i| t.row(i)[0]).sum::<f64>() / t.len() as f64;
        assert!(mean0.abs() < 1e-12);
        // Variance ≈ 1.
        let var0: f64 = (0..t.len()).map(|i| t.row(i)[0].powi(2)).sum::<f64>() / t.len() as f64;
        assert!((var0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaler_constant_feature_noop() {
        let mut d = Dataset::new(1);
        for _ in 0..5 {
            d.push(&[7.0], 1.0);
        }
        let sc = Scaler::fit(&d);
        assert_eq!(sc.transform(&[7.0]), vec![0.0]);
        assert_eq!(sc.transform(&[8.0]), vec![1.0]);
    }

    #[test]
    fn bootstrap_in_range() {
        let d = toy();
        let mut rng = SimRng::new(2);
        let idx = d.bootstrap(100, &mut rng);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&i| i < d.len()));
    }
}
