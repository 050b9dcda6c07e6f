//! Principal component analysis — the dimensionality-reduction extension
//! the paper names as future work for scaling the predictor past hundreds
//! of servers (§6.4: "policies like dimensionality reduction (e.g., PCA)
//! ... can be explored").
//!
//! Implementation: mean-centre, then extract the top `k` eigenvectors of
//! the covariance matrix by power iteration with deflation. Deterministic
//! given the seed, dependency-free, and O(n·d) per iteration — adequate for
//! the `32nS + 2n`-dimensional overlap codings this workspace produces.

use crate::dataset::Dataset;
use simcore::SimRng;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Row-major `k × d` component matrix (orthonormal rows).
    components: Vec<f64>,
    /// Variance captured by each component.
    explained: Vec<f64>,
    dim: usize,
    k: usize,
}

impl Pca {
    /// Fit the top `k` components of `data`. `k` is clamped to `min(n, d)`.
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, k: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit PCA on an empty dataset");
        let n = data.len();
        let d = data.dim();
        let k = k.min(d).min(n).max(1);

        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (m, &v) in mean.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Centred data copy (n × d).
        let mut x = vec![0.0; n * d];
        for i in 0..n {
            for j in 0..d {
                x[i * d + j] = data.row(i)[j] - mean[j];
            }
        }

        let mut rng = SimRng::new(seed);
        let mut components = Vec::with_capacity(k * d);
        let mut explained = Vec::with_capacity(k);
        // Power iteration on X^T X without materialising the d×d covariance:
        // v <- X^T (X v), normalised; deflate by removing the component from X.
        let mut xv = vec![0.0; n];
        for _ in 0..k {
            let mut v: Vec<f64> = (0..d).map(|_| rng.f64() - 0.5).collect();
            normalize(&mut v);
            let mut eigen = 0.0;
            for _iter in 0..60 {
                // xv = X v
                for (i, slot) in xv.iter_mut().enumerate() {
                    let row = &x[i * d..(i + 1) * d];
                    *slot = dot(row, &v);
                }
                // w = X^T xv
                let mut w = vec![0.0; d];
                for i in 0..n {
                    let c = xv[i];
                    if c != 0.0 {
                        let row = &x[i * d..(i + 1) * d];
                        for (wj, &rj) in w.iter_mut().zip(row) {
                            *wj += c * rj;
                        }
                    }
                }
                // Re-orthogonalise against already-found components; on
                // near-rank-deficient data the deflation residue would
                // otherwise let roundoff pull later components back toward
                // earlier ones.
                for c in 0..(components.len() / d) {
                    let comp = &components[c * d..(c + 1) * d];
                    let proj = dot(&w, comp);
                    for (wj, &cj) in w.iter_mut().zip(comp) {
                        *wj -= proj * cj;
                    }
                }
                let norm = normalize(&mut w);
                let delta: f64 = w.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
                v = w;
                eigen = norm;
                if delta < 1e-10 {
                    break;
                }
            }
            // Deflate: remove the found direction from every row.
            for i in 0..n {
                let row = &mut x[i * d..(i + 1) * d];
                let c = dot(row, &v);
                for (rj, &vj) in row.iter_mut().zip(&v) {
                    *rj -= c * vj;
                }
            }
            explained.push(eigen / n as f64);
            components.extend_from_slice(&v);
        }
        Self {
            mean,
            components,
            explained,
            dim: d,
            k,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Variance captured per component (descending).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained
    }

    /// Project one row into component space.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "PCA input dimension mismatch");
        let centred: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
        (0..self.k)
            .map(|c| dot(&self.components[c * self.dim..(c + 1) * self.dim], &centred))
            .collect()
    }

    /// Project a whole dataset (targets preserved).
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(self.k);
        for i in 0..data.len() {
            out.push(&self.transform(data.row(i)), data.target(i));
        }
        out
    }

    /// Reconstruct an input from its projection (lossy for `k < d`).
    pub fn inverse_transform(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.k, "PCA projection dimension mismatch");
        let mut out = self.mean.clone();
        for (c, &zc) in z.iter().enumerate() {
            let comp = &self.components[c * self.dim..(c + 1) * self.dim];
            for (o, &v) in out.iter_mut().zip(comp) {
                *o += zc * v;
            }
        }
        out
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = dot(v, v).sqrt();
    if norm > 1e-300 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data stretched along a known direction plus small noise.
    fn anisotropic(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let t = rng.f64() * 20.0 - 10.0; // dominant direction (1, 2, 0)/sqrt(5)
            let noise = (rng.f64() - 0.5) * 0.1;
            d.push(&[t + noise, 2.0 * t - noise, noise], t);
        }
        d
    }

    #[test]
    fn first_component_finds_dominant_direction() {
        let data = anisotropic(300, 1);
        let pca = Pca::fit(&data, 1, 7);
        let c = &pca.components[..3];
        // Expected direction ±(1, 2, 0)/sqrt(5).
        let expected = [1.0 / 5f64.sqrt(), 2.0 / 5f64.sqrt(), 0.0];
        let cos = (c[0] * expected[0] + c[1] * expected[1] + c[2] * expected[2]).abs();
        assert!(cos > 0.999, "cosine {cos}, component {c:?}");
    }

    #[test]
    fn explained_variance_descending() {
        let data = anisotropic(300, 2);
        let pca = Pca::fit(&data, 3, 9);
        let ev = pca.explained_variance();
        assert!(ev[0] > ev[1] && ev[1] >= ev[2]);
        assert!(
            ev[0] > 100.0 * ev[2],
            "dominant direction should dwarf noise"
        );
    }

    #[test]
    fn transform_reduces_dimension() {
        let data = anisotropic(100, 3);
        let pca = Pca::fit(&data, 2, 11);
        let z = pca.transform(data.row(0));
        assert_eq!(z.len(), 2);
        let t = pca.transform_dataset(&data);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.len(), data.len());
        assert_eq!(t.target(5), data.target(5));
    }

    #[test]
    fn reconstruction_accurate_on_low_rank_data() {
        let data = anisotropic(200, 4);
        let pca = Pca::fit(&data, 1, 13);
        // The data is essentially rank 1: one component reconstructs well.
        let x = data.row(10);
        let rec = pca.inverse_transform(&pca.transform(x));
        for (a, b) in x.iter().zip(&rec) {
            assert!((a - b).abs() < 0.2, "reconstruction {rec:?} vs {x:?}");
        }
    }

    #[test]
    fn components_orthonormal() {
        let data = anisotropic(200, 5);
        let pca = Pca::fit(&data, 3, 15);
        for i in 0..3 {
            for j in 0..3 {
                let ci = &pca.components[i * 3..(i + 1) * 3];
                let cj = &pca.components[j * 3..(j + 1) * 3];
                let d = dot(ci, cj);
                if i == j {
                    assert!((d - 1.0).abs() < 1e-6, "‖c{i}‖ = {d}");
                } else {
                    assert!(d.abs() < 1e-4, "c{i}·c{j} = {d}");
                }
            }
        }
    }

    #[test]
    fn k_clamped_to_data() {
        let mut d = Dataset::new(5);
        d.push(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0);
        d.push(&[2.0, 3.0, 4.0, 5.0, 6.0], 0.0);
        let pca = Pca::fit(&d, 10, 1);
        assert_eq!(pca.k(), 2);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        Pca::fit(&Dataset::new(3), 2, 1);
    }

    #[test]
    fn deterministic() {
        let data = anisotropic(100, 6);
        let a = Pca::fit(&data, 2, 17);
        let b = Pca::fit(&data, 2, 17);
        assert_eq!(a.transform(data.row(0)), b.transform(data.row(0)));
    }
}
