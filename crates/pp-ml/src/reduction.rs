//! Dimension reduction ψ(·) (§5.4).
//!
//! "Our overall approach ... is to apply dimension reduction techniques
//! before the classifier. However, this is optional, i.e., ψ(x) can be x."
//! Three reducers are provided, mirroring Table 2's rows: identity, PCA
//! (trained, suits dense blobs), and feature hashing (training-free, suits
//! sparse blobs).

use pp_linalg::{FeatureHasher, Features, Pca};

use crate::dataset::{LabeledSet, Sample};
use crate::Result;

/// A specification for which reducer to fit (the choice the model-selection
/// layer iterates over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerSpec {
    /// ψ(x) = x.
    Identity,
    /// PCA onto `k` components, fitted on (a sample of) the training data.
    Pca {
        /// Number of principal components to keep.
        k: usize,
        /// Cap on the number of training rows used to fit the basis; the
        /// paper computes PCA "over a small sampled subset ... trading off
        /// reduction rate for speed".
        fit_sample: usize,
    },
    /// Feature hashing onto `dr` buckets (Eq. 7). Training-free.
    FeatureHash {
        /// Output dimensionality `d_r`.
        dr: usize,
    },
}

impl ReducerSpec {
    /// Fits the reducer on the training set (identity and hashing are
    /// training-free; PCA fits a basis on a subsample).
    pub fn fit(&self, train: &LabeledSet, seed: u64) -> Result<Reducer> {
        match *self {
            ReducerSpec::Identity => Ok(Reducer::Identity),
            ReducerSpec::FeatureHash { dr } => Ok(Reducer::Hash(FeatureHasher::new(dr, seed))),
            ReducerSpec::Pca { k, fit_sample } => {
                let sample = train.subsample(fit_sample, seed);
                let pca = Pca::fit(&sample.features(), k)?;
                Ok(Reducer::Pca(Box::new(pca)))
            }
        }
    }

    /// Short display name used in experiment tables ("Raw", "PCA", "FH").
    pub fn short_name(&self) -> &'static str {
        match self {
            ReducerSpec::Identity => "Raw",
            ReducerSpec::Pca { .. } => "PCA",
            ReducerSpec::FeatureHash { .. } => "FH",
        }
    }
}

/// A fitted dimension reducer.
#[derive(Debug, Clone)]
pub enum Reducer {
    /// ψ(x) = x.
    Identity,
    /// Linear projection onto a PCA basis.
    Pca(Box<Pca>),
    /// Feature hashing.
    Hash(FeatureHasher),
}

impl Reducer {
    /// Applies ψ to one blob.
    ///
    /// Identity preserves the (possibly sparse) representation; PCA and
    /// hashing produce dense reduced vectors.
    pub fn apply(&self, x: &Features) -> Features {
        match self {
            Reducer::Identity => x.clone(),
            Reducer::Pca(p) => Features::Dense(p.project(x)),
            Reducer::Hash(h) => Features::Dense(h.apply(x)),
        }
    }

    /// Applies ψ to every sample in a set, preserving labels. Under
    /// ψ(x) = x the result shares `set`'s vectors.
    pub fn apply_set(&self, set: &LabeledSet) -> Result<LabeledSet> {
        if let Reducer::Identity = self {
            return Ok(set.clone());
        }
        LabeledSet::new(
            set.iter()
                .map(|s| Sample::new(self.apply(&s.features), s.label))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_set(n: usize, d: usize) -> LabeledSet {
        LabeledSet::new(
            (0..n)
                .map(|i| {
                    let v: Vec<f64> = (0..d)
                        .map(|j| ((i * 7 + j * 13) % 23) as f64 / 23.0)
                        .collect();
                    Sample::new(v, i % 3 == 0)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identity_is_noop() {
        let set = dense_set(5, 4);
        let r = ReducerSpec::Identity.fit(&set, 1).unwrap();
        let x = &set.samples()[0].features;
        assert_eq!(r.apply(x), **x);
    }

    #[test]
    fn pca_reduces_dimension() {
        let set = dense_set(50, 10);
        let r = ReducerSpec::Pca {
            k: 3,
            fit_sample: 40,
        }
        .fit(&set, 2)
        .unwrap();
        let out = r.apply(&set.samples()[0].features);
        assert_eq!(out.dim(), 3);
    }

    #[test]
    fn hashing_reduces_dimension() {
        let set = dense_set(5, 64);
        let r = ReducerSpec::FeatureHash { dr: 8 }.fit(&set, 3).unwrap();
        assert_eq!(r.apply(&set.samples()[1].features).dim(), 8);
    }

    #[test]
    fn apply_set_preserves_labels() {
        let set = dense_set(9, 6);
        let r = ReducerSpec::FeatureHash { dr: 4 }.fit(&set, 3).unwrap();
        let reduced = r.apply_set(&set).unwrap();
        assert_eq!(reduced.len(), set.len());
        assert_eq!(reduced.positives(), set.positives());
        assert_eq!(reduced.dim(), 4);
    }

    #[test]
    fn short_names() {
        assert_eq!(ReducerSpec::Identity.short_name(), "Raw");
        assert_eq!(
            ReducerSpec::Pca {
                k: 2,
                fit_sample: 10
            }
            .short_name(),
            "PCA"
        );
        assert_eq!(ReducerSpec::FeatureHash { dr: 2 }.short_name(), "FH");
    }
}
