//! Sorted-coordinate sparse vectors.
//!
//! Bag-of-words document blobs (the LSHTC case study, §7 Case 1) have
//! hundreds of thousands of dimensions with only a handful of non-zeros;
//! representing them densely would make both the generators and the SVM
//! training quadratically wasteful. A [`SparseVector`] stores `(index,
//! value)` pairs sorted by index.

use crate::{LinalgError, Result};

/// A sparse vector: strictly increasing indices with associated values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a sparse vector from parallel `(index, value)` arrays.
    ///
    /// Indices must be strictly increasing and below `dim`; zero values are
    /// allowed but wasteful. Returns an error on unsorted/duplicate indices,
    /// an index out of range, or mismatched array lengths.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: indices.len(),
                actual: values.len(),
            });
        }
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(LinalgError::InvalidParameter(
                    "sparse indices must be strictly increasing",
                ));
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= dim {
                return Err(LinalgError::InvalidParameter("sparse index out of range"));
            }
        }
        Ok(SparseVector {
            dim,
            indices,
            values,
        })
    }

    /// Builds from unsorted pairs, sorting and summing duplicates.
    pub fn from_pairs(dim: usize, mut pairs: Vec<(u32, f64)>) -> Result<Self> {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            // `values` is parallel to `indices`: a repeated index adds to
            // the value pushed with it.
            if let (Some(&last), Some(sum)) = (indices.last(), values.last_mut()) {
                if last == i {
                    *sum += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        SparseVector::new(dim, indices, values)
    }

    /// An all-zero sparse vector of dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        SparseVector {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Logical dimensionality (number of possible coordinates).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterates stored `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Dot product with a dense slice of the same logical dimension.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        debug_assert_eq!(dense.len(), self.dim, "dot_dense: dimension mismatch");
        self.iter().map(|(i, v)| v * dense[i as usize]).sum()
    }

    /// Dot product with another sparse vector (merge join over indices).
    pub fn dot_sparse(&self, other: &SparseVector) -> f64 {
        debug_assert_eq!(self.dim, other.dim, "dot_sparse: dimension mismatch");
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0;
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn sq_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Materializes a dense copy. Use only for low-dimensional vectors.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
        out
    }

    /// Adds `alpha * self` into a dense accumulator (sparse axpy).
    pub fn axpy_into(&self, alpha: f64, dense: &mut [f64]) {
        debug_assert_eq!(dense.len(), self.dim, "axpy_into: dimension mismatch");
        for (i, v) in self.iter() {
            dense[i as usize] += alpha * v;
        }
    }

    /// Scales all stored values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(dim: usize, pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(dim, pairs.to_vec()).unwrap()
    }

    #[test]
    fn new_validates_ordering() {
        assert!(SparseVector::new(10, vec![3, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(10, vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(10, vec![1, 11], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(10, vec![1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(10, vec![1, 3], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn from_pairs_sums_duplicates() {
        let v = sv(8, &[(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(), vec![0.0, 2.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_dense_matches_materialized() {
        let v = sv(5, &[(0, 1.0), (4, 2.0)]);
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(v.dot_dense(&d), crate::dense::dot(&v.to_dense(), &d));
    }

    #[test]
    fn dot_sparse_merge_join() {
        let a = sv(10, &[(1, 1.0), (4, 2.0), (7, 3.0)]);
        let b = sv(10, &[(0, 5.0), (4, 10.0), (7, 1.0)]);
        assert_eq!(a.dot_sparse(&b), 2.0 * 10.0 + 3.0 * 1.0);
        assert_eq!(a.dot_sparse(&b), b.dot_sparse(&a));
    }

    #[test]
    fn axpy_into_accumulates() {
        let v = sv(3, &[(1, 2.0)]);
        let mut acc = vec![1.0, 1.0, 1.0];
        v.axpy_into(3.0, &mut acc);
        assert_eq!(acc, vec![1.0, 7.0, 1.0]);
    }

    #[test]
    fn sq_norm_and_scale() {
        let mut v = sv(4, &[(0, 3.0), (2, 4.0)]);
        assert_eq!(v.sq_norm(), 25.0);
        v.scale(2.0);
        assert_eq!(v.sq_norm(), 100.0);
    }

    #[test]
    fn empty_behaves() {
        let e = SparseVector::empty(7);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.dot_dense(&[1.0; 7]), 0.0);
    }
}
