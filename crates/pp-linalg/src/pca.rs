//! Principal component analysis (§5.4).
//!
//! The paper uses PCA to reduce blob dimensionality before the SVM/KDE
//! classifiers, computing the basis "over a small sampled subset of the
//! training data" to dodge the `O(min(n²d, nd²))` cost of a full SVD.
//!
//! This implementation mirrors that cost structure:
//! * when `d ≤ n` it eigendecomposes the `d×d` covariance matrix,
//! * when `n < d` it uses the Gram trick on the `n×n` inner-product matrix,
//!
//! in both cases with a cyclic Jacobi eigensolver (adequate for the few
//! hundred dimensions the synthetic corpora use).

use crate::dense::{self, Matrix};
use crate::features::Features;
use crate::{LinalgError, Result};

/// A fitted PCA basis: `ψ(x) = P (x - mean)` with orthonormal rows `P`.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `k x d`, rows are principal directions (descending eigenvalue).
    components: Matrix,
    /// Projection of the mean onto each component (cached so sparse inputs
    /// can be projected without densifying).
    mean_proj: Vec<f64>,
    eigenvalues: Vec<f64>,
}

impl Pca {
    /// Fits a `k`-component basis on the given rows.
    ///
    /// `rows` may mix dense and sparse features of equal dimension; they
    /// are borrowed, so a caller fits on a sample of shared vectors without
    /// copying them. Errors on an empty input, inconsistent dimensions, or
    /// `k == 0`.
    pub fn fit(rows: &[&Features], k: usize) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyInput);
        }
        if k == 0 {
            return Err(LinalgError::InvalidParameter("k must be positive"));
        }
        let d = rows[0].dim();
        for r in rows {
            if r.dim() != d {
                return Err(LinalgError::DimensionMismatch {
                    expected: d,
                    actual: r.dim(),
                });
            }
        }
        let n = rows.len();
        let k = k.min(d).min(n);

        // Mean.
        let mut mean = vec![0.0; d];
        for r in rows {
            r.axpy_into(1.0, &mut mean);
        }
        dense::scale(1.0 / n as f64, &mut mean);

        let components = if d <= n {
            Self::fit_covariance(rows, &mean, d, k)?
        } else {
            Self::fit_gram(rows, &mean, d, k)?
        };
        let (components, eigenvalues) = components;
        let mean_proj = components.matvec(&mean)?;
        Ok(Pca {
            mean,
            components,
            mean_proj,
            eigenvalues,
        })
    }

    /// Covariance-matrix path (`d x d`), for `d <= n`.
    fn fit_covariance(
        rows: &[&Features],
        mean: &[f64],
        d: usize,
        k: usize,
    ) -> Result<(Matrix, Vec<f64>)> {
        let n = rows.len() as f64;
        let mut cov = Matrix::zeros(d, d);
        let mut centered = vec![0.0; d];
        for r in rows {
            centered.iter_mut().for_each(|c| *c = 0.0);
            r.axpy_into(1.0, &mut centered);
            for (c, m) in centered.iter_mut().zip(mean) {
                *c -= m;
            }
            for i in 0..d {
                let ci = centered[i];
                if ci == 0.0 {
                    continue;
                }
                let row = cov.row_mut(i);
                dense::axpy(ci, &centered, row);
            }
        }
        for i in 0..d {
            dense::scale(1.0 / n, cov.row_mut(i));
        }
        let (vals, vecs) = jacobi_eigen(&cov)?;
        Ok(top_k_components(&vals, &vecs, k))
    }

    /// Gram-matrix path (`n x n`), for `n < d`. If `G = Xc Xcᵀ` has
    /// eigenpair `(λ, u)`, then `v = Xcᵀ u / ‖Xcᵀ u‖` is an eigenvector of
    /// the covariance with eigenvalue `λ / n`.
    fn fit_gram(
        rows: &[&Features],
        mean: &[f64],
        d: usize,
        k: usize,
    ) -> Result<(Matrix, Vec<f64>)> {
        let n = rows.len();
        // Centered rows, materialized densely (n < d, so n·d is the same
        // footprint the Gram product needs anyway).
        let mut xc = Matrix::zeros(n, d);
        for (i, r) in rows.iter().enumerate() {
            let row = xc.row_mut(i);
            r.axpy_into(1.0, row);
            for (c, m) in row.iter_mut().zip(mean) {
                *c -= m;
            }
        }
        let mut gram = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let g = dense::dot(xc.row(i), xc.row(j));
                gram.set(i, j, g);
                gram.set(j, i, g);
            }
        }
        let (vals, vecs) = jacobi_eigen(&gram)?;
        // Order eigenpairs by descending eigenvalue, keep top-k with
        // non-degenerate eigenvalues.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]));
        let mut comps = Matrix::zeros(k, d);
        let mut eigs = Vec::with_capacity(k);
        let mut filled = 0;
        for &idx in &order {
            if filled == k {
                break;
            }
            if vals[idx] <= 1e-12 {
                break;
            }
            // u is column idx of vecs.
            let mut v = vec![0.0; d];
            for r in 0..n {
                dense::axpy(vecs.get(r, idx), xc.row(r), &mut v);
            }
            let norm = dense::norm2(&v);
            if norm <= 1e-12 {
                continue;
            }
            dense::scale(1.0 / norm, &mut v);
            comps.row_mut(filled).copy_from_slice(&v);
            eigs.push(vals[idx] / n as f64);
            filled += 1;
        }
        if filled == 0 {
            return Err(LinalgError::DidNotConverge(
                "gram PCA produced no components",
            ));
        }
        // Shrink if we found fewer than k non-degenerate directions.
        if filled < k {
            let mut smaller = Matrix::zeros(filled, d);
            for i in 0..filled {
                smaller.row_mut(i).copy_from_slice(comps.row(i));
            }
            return Ok((smaller, eigs));
        }
        Ok((comps, eigs))
    }

    /// The training-data mean subtracted before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Number of components `k`.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Input dimensionality `d`.
    pub fn input_dim(&self) -> usize {
        self.components.cols()
    }

    /// Eigenvalues (variance explained) per component, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Projects a feature vector: `P(x - mean)`.
    ///
    /// Sparse inputs are projected without densifying.
    pub fn project(&self, x: &Features) -> Vec<f64> {
        debug_assert_eq!(x.dim(), self.input_dim(), "project: dimension mismatch");
        (0..self.n_components())
            .map(|i| x.dot(self.components.row(i)) - self.mean_proj[i])
            .collect()
    }
}

/// Selects the top-`k` eigenpairs (descending eigenvalue) as component rows.
fn top_k_components(vals: &[f64], vecs: &Matrix, k: usize) -> (Matrix, Vec<f64>) {
    let d = vals.len();
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]));
    let mut comps = Matrix::zeros(k, d);
    let mut eigs = Vec::with_capacity(k);
    for (row, &idx) in order.iter().take(k).enumerate() {
        for c in 0..d {
            comps.set(row, c, vecs.get(c, idx));
        }
        eigs.push(vals[idx]);
    }
    (comps, eigs)
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` where column `i` of the eigenvector
/// matrix corresponds to `eigenvalues[i]` (unordered).
pub fn jacobi_eigen(sym: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    let n = sym.rows();
    if n != sym.cols() {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            actual: sym.cols(),
        });
    }
    if n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    let mut a = sym.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 64;
    for _sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a.get(i, j) * a.get(i, j);
            }
        }
        if off.sqrt() < 1e-11 * (1.0 + frob(&a)) {
            let eig = (0..n).map(|i| a.get(i, i)).collect();
            return Ok((eig, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of `a`.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(LinalgError::DidNotConverge("jacobi eigendecomposition"))
}

fn frob(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fit(rows: &[Features], k: usize) -> Result<Pca> {
        Pca::fit(&rows.iter().collect::<Vec<_>>(), k)
    }

    #[test]
    fn jacobi_diagonal_is_identity() {
        let mut m = Matrix::zeros(3, 3);
        m.set(0, 0, 3.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 2.0);
        let (vals, _) = jacobi_eigen(&m).unwrap();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[0] - 1.0).abs() < 1e-10);
        assert!((sorted[1] - 2.0).abs() < 1e-10);
        assert!((sorted[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let (vals, vecs) = jacobi_eigen(&m).unwrap();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[0] - 1.0).abs() < 1e-10);
        assert!((sorted[1] - 3.0).abs() < 1e-10);
        // A v = λ v for each eigenpair.
        #[allow(clippy::needless_range_loop)] // i indexes both vals and vecs columns
        for i in 0..2 {
            let col = [vecs.get(0, i), vecs.get(1, i)];
            let av = m.matvec(&col).unwrap();
            for j in 0..2 {
                assert!((av[j] - vals[i] * col[j]).abs() < 1e-9);
            }
        }
    }

    fn anisotropic_cloud(n: usize, d: usize, seed: u64) -> Vec<Features> {
        // Variance along axis 0 is much larger than the rest.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                v[0] *= 10.0;
                Features::Dense(v)
            })
            .collect()
    }

    #[test]
    fn pca_finds_dominant_axis() {
        let rows = anisotropic_cloud(200, 5, 1);
        let pca = fit(&rows, 2).unwrap();
        // First component should align with axis 0.
        let axis0 = Features::Dense(vec![1.0, 0.0, 0.0, 0.0, 0.0]);
        let zero = Features::Dense(vec![0.0; 5]);
        let proj = pca.project(&axis0);
        let origin = pca.project(&zero);
        let dir0 = proj[0] - origin[0];
        assert!(dir0.abs() > 0.9, "component 0 not aligned: {dir0}");
        assert!(pca.eigenvalues()[0] > 5.0 * pca.eigenvalues()[1]);
    }

    #[test]
    fn pca_components_are_orthonormal() {
        let rows = anisotropic_cloud(100, 6, 2);
        let pca = fit(&rows, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot = dense::dot(pca.components.row(i), pca.components.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "({i},{j}) dot={dot}");
            }
        }
    }

    #[test]
    fn gram_path_matches_covariance_path() {
        // n < d triggers the Gram trick; projections should span the same
        // subspace as the covariance path (up to sign).
        let rows = anisotropic_cloud(20, 40, 3);
        let pca = fit(&rows, 2).unwrap();
        assert_eq!(pca.input_dim(), 40);
        assert!(pca.n_components() <= 2);
        // Projections should preserve most of the variance along axis 0.
        let spread: f64 = rows
            .iter()
            .map(|r| pca.project(r)[0])
            .map(|p| p * p)
            .sum::<f64>();
        assert!(spread > 1.0);
    }

    #[test]
    fn project_sparse_equals_dense() {
        let rows = anisotropic_cloud(50, 8, 4);
        let pca = fit(&rows, 3).unwrap();
        let sparse = crate::sparse::SparseVector::from_pairs(8, vec![(0, 2.0), (5, -1.0)]).unwrap();
        let dense_feat = Features::Dense(sparse.to_dense());
        let ps = pca.project(&Features::Sparse(sparse));
        let pd = pca.project(&dense_feat);
        for (a, b) in ps.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fit_errors() {
        assert!(matches!(fit(&[], 2), Err(LinalgError::EmptyInput)));
        let rows = vec![Features::Dense(vec![1.0, 2.0])];
        assert!(fit(&rows, 0).is_err());
        let bad = vec![
            Features::Dense(vec![1.0, 2.0]),
            Features::Dense(vec![1.0, 2.0, 3.0]),
        ];
        assert!(fit(&bad, 1).is_err());
    }
}
