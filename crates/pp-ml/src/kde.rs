//! Kernel-density-ratio classifier (§5.2).
//!
//! Two Gaussian kernel density estimates are fitted, one per label:
//! `d₊(ψ(x))` and `d₋(ψ(x))`; the classifier score is their ratio (Eq. 5),
//! computed here in log space for numeric stability. As in the paper,
//! applying the estimator at test time uses a k-d tree so that only the
//! `n' ≪ n` nearest training points participate in the density sum.

use pp_linalg::{FeatureBatch, Features, KdTree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::LabeledSet;
use crate::pipeline::ScoreModel;
use crate::{MlError, Result};

/// How to choose the kernel bandwidth `h` (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bandwidth {
    /// Use a fixed bandwidth.
    Fixed(f64),
    /// Silverman's rule of thumb (§5.2: can "pick an initial h").
    Silverman,
    /// Cross-validate multipliers of the Silverman bandwidth on a held-out
    /// fifth of the training data ("we choose h using cross-validation").
    CrossValidated,
}

/// Hyper-parameters for [`Kde::train`].
#[derive(Debug, Clone, Copy)]
pub struct KdeParams {
    /// Bandwidth selection strategy.
    pub bandwidth: Bandwidth,
    /// Number of nearest neighbors `n'` per class used to approximate each
    /// density at test time.
    pub neighbors: usize,
    /// RNG seed (used by cross-validation splits).
    pub seed: u64,
}

impl Default for KdeParams {
    fn default() -> Self {
        KdeParams {
            bandwidth: Bandwidth::CrossValidated,
            neighbors: 32,
            seed: 0,
        }
    }
}

/// A trained density-ratio classifier.
#[derive(Debug, Clone)]
pub struct Kde {
    pos_tree: KdTree,
    neg_tree: KdTree,
    /// Gaussian bandwidth.
    bandwidth: f64,
    neighbors: usize,
}

impl Kde {
    /// Trains on (reduced) features; inputs must be dense after reduction.
    pub fn train(data: &LabeledSet, params: &KdeParams) -> Result<Self> {
        if data.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if params.neighbors == 0 {
            return Err(MlError::InvalidParameter("neighbors must be positive"));
        }
        let (pos, neg) = split_by_label(data);
        if pos.is_empty() || neg.is_empty() {
            return Err(MlError::SingleClass);
        }
        let silverman = silverman_bandwidth(&pos, &neg);
        let bandwidth = match params.bandwidth {
            Bandwidth::Fixed(h) => {
                if h <= 0.0 {
                    return Err(MlError::InvalidParameter("bandwidth must be positive"));
                }
                h
            }
            Bandwidth::Silverman => silverman,
            Bandwidth::CrossValidated => cross_validate_bandwidth(&pos, &neg, silverman, params)?,
        };
        Ok(Kde {
            pos_tree: KdTree::build(pos)?,
            neg_tree: KdTree::build(neg)?,
            bandwidth,
            neighbors: params.neighbors,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Approximate log-density of `x` under the tree's point set, using the
    /// `n'` nearest neighbors only.
    ///
    /// A vector of another dimension than the training data has no
    /// neighbors: its density is zero in both trees, so it scores like a
    /// blob far from everything instead of panicking (a linear model
    /// likewise scores a mismatched blob rather than fail).
    fn log_density(&self, tree: &KdTree, x: &[f64]) -> f64 {
        let Ok(nbrs) = tree.nearest(x, self.neighbors) else {
            return f64::NEG_INFINITY;
        };
        let inv2h2 = 1.0 / (2.0 * self.bandwidth * self.bandwidth);
        // log-sum-exp over the kernel terms, normalized by class size so
        // the ratio compares densities rather than unnormalized masses.
        let max_term = nbrs
            .iter()
            .map(|n| -n.sq_dist * inv2h2)
            .fold(f64::NEG_INFINITY, f64::max);
        if max_term == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = nbrs
            .iter()
            .map(|n| (-n.sq_dist * inv2h2 - max_term).exp())
            .sum();
        max_term + sum.ln() - (tree.len() as f64).ln()
    }

    /// The density-ratio score over an already-densified vector.
    fn score_dense(&self, dense: &[f64]) -> f64 {
        let lp = self.log_density(&self.pos_tree, dense);
        let ln = self.log_density(&self.neg_tree, dense);
        // Floor densities so that a blob far from everything scores 0
        // instead of NaN.
        const FLOOR: f64 = -700.0;
        lp.max(FLOOR) - ln.max(FLOOR)
    }
}

impl ScoreModel for Kde {
    /// `log d₊(x) − log d₋(x)`; positive means "more like the passing
    /// class" (Eq. 5 in log space).
    fn score(&self, x: &Features) -> f64 {
        self.score_dense(&x.to_dense())
    }

    fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        let mut out = Vec::with_capacity(xs.len());
        match xs {
            FeatureBatch::Refs(refs) => {
                // Reuse one densification scratch buffer across the batch.
                let mut scratch: Vec<f64> = Vec::new();
                for x in *refs {
                    let dense: &[f64] = match x.as_dense() {
                        Some(d) => d,
                        None => {
                            scratch.clear();
                            scratch.resize(x.dim(), 0.0);
                            for (i, v) in x.iter_nonzero() {
                                scratch[i as usize] = v;
                            }
                            &scratch
                        }
                    };
                    out.push(self.score_dense(dense));
                }
            }
            FeatureBatch::Block(block) => {
                // Block rows are already dense and contiguous.
                for row in block.rows() {
                    out.push(self.score_dense(row));
                }
            }
        }
        out
    }
}

fn split_by_label(data: &LabeledSet) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for s in data.iter() {
        let v = s.features.to_dense();
        if s.label {
            pos.push(v);
        } else {
            neg.push(v);
        }
    }
    (pos, neg)
}

/// Silverman's rule of thumb generalized to `d` dimensions:
/// `h = σ̄ · (4 / ((d + 2) n))^(1/(d+4))`.
fn silverman_bandwidth(pos: &[Vec<f64>], neg: &[Vec<f64>]) -> f64 {
    let n = (pos.len() + neg.len()) as f64;
    let d = pos[0].len();
    // Average per-dimension standard deviation over the pooled data.
    let mut sum_sd = 0.0;
    for dim in 0..d {
        let col: Vec<f64> = pos.iter().chain(neg.iter()).map(|v| v[dim]).collect();
        sum_sd += pp_linalg::stats::stddev(&col);
    }
    let sigma = (sum_sd / d as f64).max(1e-6);
    sigma * (4.0 / ((d as f64 + 2.0) * n)).powf(1.0 / (d as f64 + 4.0))
}

/// Tries multipliers of the Silverman bandwidth, keeping the one with the
/// best sign-classification accuracy on a held-out fifth of the data.
fn cross_validate_bandwidth(
    pos: &[Vec<f64>],
    neg: &[Vec<f64>],
    silverman: f64,
    params: &KdeParams,
) -> Result<f64> {
    const MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut holdout = |v: &[Vec<f64>]| -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.shuffle(&mut rng);
        let cut = (v.len() / 5).max(1).min(v.len().saturating_sub(1)).max(1);
        let held: Vec<_> = idx[..cut].iter().map(|&i| v[i].clone()).collect();
        let kept: Vec<_> = idx[cut..].iter().map(|&i| v[i].clone()).collect();
        (held, kept)
    };
    let (pos_held, pos_kept) = holdout(pos);
    let (neg_held, neg_kept) = holdout(neg);
    // Degenerate split (e.g. a single positive): fall back to Silverman.
    if pos_kept.is_empty() || neg_kept.is_empty() || (pos_held.is_empty() && neg_held.is_empty()) {
        return Ok(silverman);
    }
    let mut best = (f64::NEG_INFINITY, silverman);
    for m in MULTIPLIERS {
        let kde = Kde {
            pos_tree: KdTree::build(pos_kept.clone())?,
            neg_tree: KdTree::build(neg_kept.clone())?,
            bandwidth: silverman * m,
            neighbors: params.neighbors,
        };
        let mut correct = 0usize;
        let total = pos_held.len() + neg_held.len();
        for p in &pos_held {
            if kde.score(&Features::Dense(p.clone())) > 0.0 {
                correct += 1;
            }
        }
        for q in &neg_held {
            if kde.score(&Features::Dense(q.clone())) <= 0.0 {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        if acc > best.0 {
            best = (acc, silverman * m);
        }
    }
    Ok(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use rand::Rng;

    /// Radially separated data: positives on a ring, negatives in the
    /// center — not linearly separable.
    fn ring_data(n: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        LabeledSet::new(
            (0..n)
                .map(|i| {
                    let pos = i % 2 == 0;
                    let (r0, r1) = if pos { (2.0, 3.0) } else { (0.0, 1.0) };
                    let r = rng.gen_range(r0..r1);
                    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                    Sample::new(vec![r * theta.cos(), r * theta.sin()], pos)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn classifies_nonlinear_data() {
        let data = ring_data(400, 11);
        let kde = Kde::train(&data, &KdeParams::default()).unwrap();
        let correct = data
            .iter()
            .filter(|s| (kde.score(&s.features) > 0.0) == s.label)
            .count();
        assert!(correct as f64 / 400.0 > 0.9, "acc={correct}/400");
    }

    #[test]
    fn svm_fails_where_kde_succeeds() {
        // Sanity-check the paper's motivation for KDE PPs: the ring data
        // defeats a linear separator.
        use crate::svm::{LinearSvm, SvmParams};
        let data = ring_data(400, 13);
        let svm = LinearSvm::train(&data, &SvmParams::default()).unwrap();
        let svm_correct = data
            .iter()
            .filter(|s| (svm.score(&s.features) > 0.0) == s.label)
            .count();
        assert!(
            (svm_correct as f64) / 400.0 < 0.75,
            "linear SVM unexpectedly solved ring data: {svm_correct}/400"
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            Kde::train(&LabeledSet::empty(), &KdeParams::default()),
            Err(MlError::EmptyInput)
        ));
        let single = LabeledSet::new(vec![Sample::new(vec![0.0, 0.0], true); 4]).unwrap();
        assert!(matches!(
            Kde::train(&single, &KdeParams::default()),
            Err(MlError::SingleClass)
        ));
        let data = ring_data(20, 1);
        let bad = KdeParams {
            neighbors: 0,
            ..Default::default()
        };
        assert!(Kde::train(&data, &bad).is_err());
        let bad_h = KdeParams {
            bandwidth: Bandwidth::Fixed(0.0),
            ..Default::default()
        };
        assert!(Kde::train(&data, &bad_h).is_err());
    }

    #[test]
    fn fixed_bandwidth_respected() {
        let data = ring_data(60, 2);
        let kde = Kde::train(
            &data,
            &KdeParams {
                bandwidth: Bandwidth::Fixed(0.7),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(kde.bandwidth(), 0.7);
    }

    #[test]
    fn silverman_positive_even_for_constant_data() {
        let mut samples = vec![Sample::new(vec![1.0, 1.0], true); 5];
        samples.extend(vec![Sample::new(vec![1.0, 1.0], false); 5]);
        let data = LabeledSet::new(samples).unwrap();
        let kde = Kde::train(
            &data,
            &KdeParams {
                bandwidth: Bandwidth::Silverman,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(kde.bandwidth() > 0.0);
        // Identical densities => score 0.
        let s = kde.score(&Features::Dense(vec![1.0, 1.0]));
        assert!(s.abs() < 1e-9, "score={s}");
    }

    #[test]
    fn far_away_point_is_finite() {
        let data = ring_data(60, 3);
        let kde = Kde::train(&data, &KdeParams::default()).unwrap();
        let s = kde.score(&Features::Dense(vec![1e6, 1e6]));
        assert!(s.is_finite());
        // A blob of another dimension has no neighbors in either class.
        assert_eq!(kde.score(&Features::Dense(vec![0.5; 3])), 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = ring_data(100, 4);
        let a = Kde::train(&data, &KdeParams::default()).unwrap();
        let b = Kde::train(&data, &KdeParams::default()).unwrap();
        assert_eq!(a.bandwidth(), b.bandwidth());
        let x = Features::Dense(vec![0.5, 0.5]);
        assert_eq!(a.score(&x), b.score(&x));
    }
}
