//! Linear SVM trained with Pegasos-style stochastic gradient descent
//! (§5.1, Joachims 2006 / Shalev-Shwartz et al.).
//!
//! The classifier is `f_lsvm(ψ(x)) = wᵀψ(x) + b` (Eq. 1). Training fits
//! `w, b` by minimizing the λ-regularized hinge loss. Because PP predicates
//! are typically very selective (1-in-hundreds, Table 1), the loss weights
//! the positive class by the inverse class ratio so that the learned score
//! still ranks positives above negatives instead of collapsing to the
//! majority class.

use pp_linalg::{FeatureBatch, Features};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::LabeledSet;
use crate::pipeline::ScoreModel;
use crate::{MlError, Result};

/// Hyper-parameters for [`LinearSvm::train`].
#[derive(Debug, Clone, Copy)]
pub struct SvmParams {
    /// Regularization strength λ.
    pub lambda: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Weight positives by `n_neg / n_pos` when true.
    pub balance_classes: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            lambda: 1e-4,
            epochs: 10,
            balance_classes: true,
            seed: 0,
        }
    }
}

/// A trained linear SVM: `f(x) = w·x + b`.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Trains on (reduced) features. The set must contain both classes.
    ///
    /// Cost matches Table 2's linear-SVM row: training is a constant number
    /// of `O(nnz)` passes; testing is one `O(nnz)` dot product per blob.
    pub fn train(data: &LabeledSet, params: &SvmParams) -> Result<Self> {
        if data.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let n_pos = data.positives();
        let n = data.len();
        if n_pos == 0 || n_pos == n {
            return Err(MlError::SingleClass);
        }
        if params.lambda <= 0.0 {
            return Err(MlError::InvalidParameter("lambda must be positive"));
        }
        if params.epochs == 0 {
            return Err(MlError::InvalidParameter("epochs must be positive"));
        }
        let pos_weight = if params.balance_classes {
            (n - n_pos) as f64 / n_pos as f64
        } else {
            1.0
        };
        let d = data.dim();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        // Averaged Pegasos: the returned model is the average of the
        // iterates after a burn-in epoch, which removes the oscillation of
        // the raw SGD path and makes the score stable enough to threshold.
        let mut w_avg = vec![0.0; d];
        let mut b_avg = 0.0;
        let mut avg_count: u64 = 0;
        let burn_in_steps = data.len() as u64; // one epoch
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        // Offset the step count so early learning rates stay bounded even
        // for tiny lambda.
        let t0 = data.len() as u64;
        let mut t: u64 = 0;
        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (params.lambda * (t0 + t) as f64);
                let s = &data.samples()[i];
                let y = s.y();
                let margin = y * (s.features.dot(&w) + b);
                // Shrink from the regularizer (applies every step).
                let shrink = 1.0 - eta * params.lambda;
                for wi in &mut w {
                    *wi *= shrink;
                }
                if margin < 1.0 {
                    let cw = if s.label { pos_weight } else { 1.0 };
                    s.features.axpy_into(eta * cw * y, &mut w);
                    // Bias is unregularized; damp its step so a large
                    // 1/(λt) rate cannot swing the intercept wildly.
                    b += 0.1 * eta.min(1.0) * cw * y;
                }
                if t > burn_in_steps {
                    avg_count += 1;
                    pp_linalg::dense::axpy(1.0, &w, &mut w_avg);
                    b_avg += b;
                }
            }
        }
        if avg_count > 0 {
            pp_linalg::dense::scale(1.0 / avg_count as f64, &mut w_avg);
            b_avg /= avg_count as f64;
            Ok(LinearSvm {
                weights: w_avg,
                bias: b_avg,
            })
        } else {
            Ok(LinearSvm {
                weights: w,
                bias: b,
            })
        }
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl ScoreModel for LinearSvm {
    fn score(&self, x: &Features) -> f64 {
        debug_assert_eq!(x.dim(), self.weights.len(), "svm score: dimension mismatch");
        x.dot_kernel(&self.weights) + self.bias
    }

    fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        let (w, b) = (self.weights.as_slice(), self.bias);
        match xs {
            FeatureBatch::Refs(refs) => refs
                .iter()
                .map(|x| {
                    debug_assert_eq!(x.dim(), w.len(), "svm score: dimension mismatch");
                    x.dot_kernel(w) + b
                })
                .collect(),
            FeatureBatch::Block(block) => {
                debug_assert_eq!(block.dim(), w.len(), "svm score: dimension mismatch");
                // One pass over the contiguous block; per-row arithmetic is
                // the same kernels::dot + bias as the scalar path.
                let mut out = Vec::new();
                pp_linalg::kernels::block_dot(block.as_slice(), w, &mut out);
                for s in &mut out {
                    *s += b;
                }
                out
            }
        }
    }

    fn score_selected(&self, xs: &FeatureBatch<'_>, positions: &[u32]) -> Vec<f64> {
        let (w, b) = (self.weights.as_slice(), self.bias);
        match xs {
            FeatureBatch::Refs(refs) => positions
                .iter()
                .map(|&p| self.score(refs[p as usize]))
                .collect(),
            FeatureBatch::Block(block) => {
                debug_assert_eq!(block.dim(), w.len(), "svm score: dimension mismatch");
                // Each row is read in place, with the kernels::dot + bias
                // that block_dot applies to it in score_many.
                positions
                    .iter()
                    .map(|&p| pp_linalg::kernels::dot(block.row(p as usize), w) + b)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use rand::Rng;

    /// Linearly separable 2-D blobs around (±2, ±2).
    fn separable(n: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        LabeledSet::new(
            (0..n)
                .map(|i| {
                    let pos = i % 2 == 0;
                    let cx = if pos { 2.0 } else { -2.0 };
                    let x = cx + rng.gen_range(-0.5..0.5);
                    let y: f64 = rng.gen_range(-1.0..1.0);
                    Sample::new(vec![x, y], pos)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn separates_linear_data() {
        let data = separable(400, 1);
        let svm = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        let correct = data
            .iter()
            .filter(|s| (svm.score(&s.features) > 0.0) == s.label)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.95,
            "acc={correct}/400"
        );
    }

    #[test]
    fn scores_rank_positives_higher_with_imbalance() {
        // 1-in-20 positives, like a selective predicate.
        let mut rng = StdRng::seed_from_u64(5);
        let data = LabeledSet::new(
            (0..600)
                .map(|i| {
                    let pos = i % 20 == 0;
                    let cx = if pos { 1.5 } else { -1.5 };
                    Sample::new(
                        vec![cx + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                        pos,
                    )
                })
                .collect(),
        )
        .unwrap();
        let svm = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        let pos_mean = pp_linalg::stats::mean(
            &data
                .iter()
                .filter(|s| s.label)
                .map(|s| svm.score(&s.features))
                .collect::<Vec<_>>(),
        );
        let neg_mean = pp_linalg::stats::mean(
            &data
                .iter()
                .filter(|s| !s.label)
                .map(|s| svm.score(&s.features))
                .collect::<Vec<_>>(),
        );
        assert!(pos_mean > neg_mean + 0.5, "pos={pos_mean} neg={neg_mean}");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            LinearSvm::train(&LabeledSet::empty(), &SvmParams::default()),
            Err(MlError::EmptyInput)
        ));
        let single = LabeledSet::new(vec![Sample::new(vec![1.0], true); 5]).unwrap();
        assert!(matches!(
            LinearSvm::train(&single, &SvmParams::default()),
            Err(MlError::SingleClass)
        ));
        let ok = separable(10, 2);
        let bad_lambda = SvmParams {
            lambda: 0.0,
            ..Default::default()
        };
        assert!(LinearSvm::train(&ok, &bad_lambda).is_err());
        let bad_epochs = SvmParams {
            epochs: 0,
            ..Default::default()
        };
        assert!(LinearSvm::train(&ok, &bad_epochs).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable(100, 3);
        let a = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        let b = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn works_on_sparse_features() {
        use pp_linalg::SparseVector;
        // Positive iff coordinate 10 is set, in a 1000-dim sparse space.
        let data = LabeledSet::new(
            (0..200)
                .map(|i| {
                    let pos = i % 2 == 0;
                    let mut pairs = vec![(i as u32 % 7, 1.0)];
                    if pos {
                        pairs.push((10, 1.0));
                    }
                    Sample::new(
                        Features::Sparse(SparseVector::from_pairs(1000, pairs).unwrap()),
                        pos,
                    )
                })
                .collect(),
        )
        .unwrap();
        let svm = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        let correct = data
            .iter()
            .filter(|s| (svm.score(&s.features) > 0.0) == s.label)
            .count();
        assert!(correct >= 190, "acc={correct}/200");
    }
}
