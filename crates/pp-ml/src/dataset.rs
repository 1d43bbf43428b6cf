//! Labeled blob sets and split/sampling utilities.
//!
//! A PP's training set 𝒟 is "the portion of data blobs on which PP_p is
//! constructed. Each blob x ∈ 𝒟 has an associated label ℓ(x) which is +1
//! for blobs that agree with p, and −1 for those that disagree" (§5). To
//! avoid overfitting, "we randomly divide the input set of blobs 𝒟 into
//! training and validation portions" (§5.6).
//!
//! One blob set serves every clause: the labels differ per clause, the
//! blobs do not. So a sample holds its blob's vector by `Arc`, the same
//! `Arc` a table's blob cell holds, and every split, subsample, negation
//! and identity reduction of a set shares the vectors instead of copying
//! them.

use std::sync::Arc;

use pp_linalg::Features;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{MlError, Result};

/// One labeled blob: raw features plus whether it agrees with the predicate.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Raw feature representation of the blob (§5.6: pixels, frame
    /// concatenations, tokenized word vectors), shared with every other
    /// holder of the blob.
    pub features: Arc<Features>,
    /// `true` ⇔ the blob passes the predicate (+1 label).
    pub label: bool,
}

impl Sample {
    /// Creates a labeled sample that owns its vector.
    pub fn new(features: impl Into<Features>, label: bool) -> Self {
        Sample::shared(Arc::new(features.into()), label)
    }

    /// Creates a labeled sample of a shared blob (a table's blob cell).
    pub fn shared(features: Arc<Features>, label: bool) -> Self {
        Sample { features, label }
    }

    /// The ±1 label as a float, as used by the SVM loss.
    #[inline]
    pub fn y(&self) -> f64 {
        if self.label {
            1.0
        } else {
            -1.0
        }
    }
}

/// An owned collection of labeled samples with uniform dimensionality.
#[derive(Debug, Clone, Default)]
pub struct LabeledSet {
    samples: Vec<Sample>,
}

impl LabeledSet {
    /// Creates a set, validating that all samples share one dimensionality.
    pub fn new(samples: Vec<Sample>) -> Result<Self> {
        if let Some(first) = samples.first() {
            let d = first.features.dim();
            for s in &samples {
                if s.features.dim() != d {
                    return Err(MlError::Linalg(pp_linalg::LinalgError::DimensionMismatch {
                        expected: d,
                        actual: s.features.dim(),
                    }));
                }
            }
        }
        Ok(LabeledSet { samples })
    }

    /// An empty set.
    pub fn empty() -> Self {
        LabeledSet::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Dimensionality, or 0 when empty.
    pub fn dim(&self) -> usize {
        self.samples.first().map_or(0, |s| s.features.dim())
    }

    /// Borrow the samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterate over samples.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of positive (+1) samples.
    pub fn positives(&self) -> usize {
        self.samples.iter().filter(|s| s.label).count()
    }

    /// Fraction of positive samples — the predicate's selectivity `s_p` on
    /// this corpus.
    pub fn selectivity(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.positives() as f64 / self.samples.len() as f64
    }

    /// Appends a sample (dimension-checked).
    pub fn push(&mut self, sample: Sample) -> Result<()> {
        if !self.samples.is_empty() && sample.features.dim() != self.dim() {
            return Err(MlError::Linalg(pp_linalg::LinalgError::DimensionMismatch {
                expected: self.dim(),
                actual: sample.features.dim(),
            }));
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Splits into `(train, validation, test)` with the given fractions
    /// (test receives the remainder), shuffling deterministically.
    ///
    /// The paper's micro-benchmarks use 60/20/20 (§8.1); TRAF-20 uses 80/20
    /// train/validation on the first chunk of the stream (§8.2).
    pub fn split(
        &self,
        train_frac: f64,
        val_frac: f64,
        seed: u64,
    ) -> Result<(LabeledSet, LabeledSet, LabeledSet)> {
        if !(0.0..=1.0).contains(&train_frac)
            || !(0.0..=1.0).contains(&val_frac)
            || train_frac + val_frac > 1.0
        {
            return Err(MlError::InvalidParameter(
                "split fractions must be in [0,1] and sum <= 1",
            ));
        }
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_train = (self.samples.len() as f64 * train_frac).round() as usize;
        let n_val = (self.samples.len() as f64 * val_frac).round() as usize;
        let n_val_end = (n_train + n_val).min(self.samples.len());
        let take = |range: &[usize]| -> LabeledSet {
            LabeledSet {
                samples: range.iter().map(|&i| self.samples[i].clone()).collect(),
            }
        };
        Ok((
            take(&idx[..n_train]),
            take(&idx[n_train..n_val_end]),
            take(&idx[n_val_end..]),
        ))
    }

    /// Uniform subsample of up to `n` samples (used by PCA and model
    /// selection, which the paper runs "over a small sampled subset").
    pub fn subsample(&self, n: usize, seed: u64) -> LabeledSet {
        if n >= self.samples.len() {
            return self.clone();
        }
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        LabeledSet {
            samples: idx[..n].iter().map(|&i| self.samples[i].clone()).collect(),
        }
    }

    /// Borrow all feature vectors, in order.
    pub fn features(&self) -> Vec<&Features> {
        self.samples.iter().map(|s| &*s.features).collect()
    }

    /// Returns a set with every label flipped, used to reuse a classifier
    /// for the negated predicate (§5.6: "classifiers built for a PP on
    /// predicate p can be reused for the PP on predicate ¬p").
    pub fn negated(&self) -> LabeledSet {
        LabeledSet {
            samples: self
                .samples
                .iter()
                .map(|s| Sample::shared(Arc::clone(&s.features), !s.label))
                .collect(),
        }
    }
}

impl FromIterator<Sample> for LabeledSet {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        LabeledSet {
            samples: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(labels: &[bool]) -> LabeledSet {
        LabeledSet::new(
            labels
                .iter()
                .enumerate()
                .map(|(i, &l)| Sample::new(vec![i as f64, 1.0], l))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn selectivity_counts_positives() {
        let s = set(&[true, false, false, true, false]);
        assert_eq!(s.positives(), 2);
        assert!((s.selectivity() - 0.4).abs() < 1e-12);
        assert_eq!(LabeledSet::empty().selectivity(), 0.0);
    }

    #[test]
    fn split_partitions_everything() {
        let s = set(&[true; 100]);
        let (tr, va, te) = s.split(0.6, 0.2, 7).unwrap();
        assert_eq!(tr.len() + va.len() + te.len(), 100);
        assert_eq!(tr.len(), 60);
        assert_eq!(va.len(), 20);
    }

    #[test]
    fn split_is_deterministic() {
        let s = set(&[true, false, true, false, true, false, true, false]);
        let (a1, _, _) = s.split(0.5, 0.25, 42).unwrap();
        let (a2, _, _) = s.split(0.5, 0.25, 42).unwrap();
        let f1: Vec<_> = a1.iter().map(|x| x.features.to_dense()).collect();
        let f2: Vec<_> = a2.iter().map(|x| x.features.to_dense()).collect();
        assert_eq!(f1, f2);
    }

    #[test]
    fn split_shares_the_input_vectors() {
        let s = set(&[true; 10]);
        let (tr, va, te) = s.split(0.5, 0.3, 42).unwrap();
        let parts = [tr, va, te];
        assert!(parts.iter().all(|p| !p.is_empty()));
        for sample in parts.iter().flat_map(LabeledSet::iter) {
            assert!(s.iter().any(|x| Arc::ptr_eq(&x.features, &sample.features)));
        }
    }

    #[test]
    fn split_rejects_bad_fractions() {
        let s = set(&[true, false]);
        assert!(s.split(0.8, 0.4, 1).is_err());
        assert!(s.split(-0.1, 0.4, 1).is_err());
    }

    #[test]
    fn subsample_bounds() {
        let s = set(&[false; 50]);
        assert_eq!(s.subsample(10, 3).len(), 10);
        assert_eq!(s.subsample(100, 3).len(), 50);
    }

    #[test]
    fn push_checks_dimension() {
        let mut s = set(&[true]);
        assert!(s.push(Sample::new(vec![1.0, 2.0], false)).is_ok());
        assert!(s.push(Sample::new(vec![1.0], false)).is_err());
    }

    #[test]
    fn negated_flips_labels() {
        let s = set(&[true, false, true]);
        let n = s.negated();
        assert_eq!(n.positives(), 1);
        assert_eq!(s.positives(), 2);
    }

    #[test]
    fn mixed_dims_rejected() {
        let samples = vec![
            Sample::new(vec![1.0, 2.0], true),
            Sample::new(vec![1.0], false),
        ];
        assert!(LabeledSet::new(samples).is_err());
    }

    #[test]
    fn sample_y_signs() {
        assert_eq!(Sample::new(vec![0.0], true).y(), 1.0);
        assert_eq!(Sample::new(vec![0.0], false).y(), -1.0);
    }
}
