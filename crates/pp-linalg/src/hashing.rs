//! Feature hashing (the "hashing trick", Weinberger et al. 2009).
//!
//! Implements Eq. 7 of the paper:
//!
//! ```text
//! ψ_i(x) = Σ_j  1[h(j) = i] · η(j) · x_j ,   i = 1..d_r
//! ```
//!
//! where `h` maps each original dimension to one of `d_r` buckets and `η`
//! maps it to ±1. Hashing requires no training, is unbiased, and is
//! well-suited to sparse inputs (§5.4); for dense inputs collisions are
//! frequent and accuracy suffers — the model-selection layer encodes that
//! applicability constraint (Table 2).

use crate::features::Features;
use crate::rng::hash2;

/// A stateless feature hasher projecting `d`-dimensional input onto `d_r`
/// dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureHasher {
    reduced_dim: usize,
    seed: u64,
}

impl FeatureHasher {
    /// Creates a hasher mapping into `reduced_dim` buckets.
    ///
    /// # Panics
    /// Panics if `reduced_dim == 0`.
    pub fn new(reduced_dim: usize, seed: u64) -> Self {
        assert!(reduced_dim > 0, "reduced_dim must be positive");
        FeatureHasher { reduced_dim, seed }
    }

    /// Bucket for original dimension `j` (the `h` hash).
    #[inline]
    pub fn bucket(&self, j: u32) -> usize {
        (hash2(self.seed, u64::from(j)) % self.reduced_dim as u64) as usize
    }

    /// Sign for original dimension `j` (the `η` hash).
    #[inline]
    pub fn sign(&self, j: u32) -> f64 {
        // Use an independent bit stream from `bucket` by salting the seed.
        if hash2(self.seed ^ 0xA5A5_A5A5_A5A5_A5A5, u64::from(j)) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Projects a feature vector into the hashed space.
    pub fn apply(&self, x: &Features) -> Vec<f64> {
        let mut out = vec![0.0; self.reduced_dim];
        for (j, v) in x.iter_nonzero() {
            out[self.bucket(j)] += self.sign(j) * v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVector;

    #[test]
    fn apply_is_linear() {
        let h = FeatureHasher::new(8, 42);
        let a = Features::Dense(vec![1.0, 0.0, 2.0, 0.0, 0.5, 0.0]);
        let b = Features::Dense(vec![0.0, 3.0, 0.0, 1.0, 0.0, 2.0]);
        let sum = Features::Dense(vec![1.0, 3.0, 2.0, 1.0, 0.5, 2.0]);
        let ha = h.apply(&a);
        let hb = h.apply(&b);
        let hsum = h.apply(&sum);
        for i in 0..8 {
            assert!((ha[i] + hb[i] - hsum[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_and_dense_agree() {
        let h = FeatureHasher::new(16, 7);
        let s = SparseVector::from_pairs(1000, vec![(3, 1.0), (500, -2.0), (999, 0.25)]).unwrap();
        let dense = Features::Dense(s.to_dense());
        assert_eq!(h.apply(&Features::Sparse(s)), h.apply(&dense));
    }

    #[test]
    fn deterministic_across_instances() {
        let x = Features::Dense(vec![1.0, 2.0, 3.0]);
        let a = FeatureHasher::new(4, 9).apply(&x);
        let b = FeatureHasher::new(4, 9).apply(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let x = Features::Dense(vec![1.0; 64]);
        let a = FeatureHasher::new(4, 1).apply(&x);
        let b = FeatureHasher::new(4, 2).apply(&x);
        assert_ne!(a, b);
    }

    #[test]
    fn buckets_in_range_and_signs_unit() {
        let h = FeatureHasher::new(5, 3);
        for j in 0..200u32 {
            assert!(h.bucket(j) < 5);
            assert!(h.sign(j) == 1.0 || h.sign(j) == -1.0);
        }
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let h = FeatureHasher::new(4, 11);
        let pos = (0..10_000u32).filter(|&j| h.sign(j) > 0.0).count();
        assert!((4_000..6_000).contains(&pos), "unbalanced signs: {pos}");
    }
}
