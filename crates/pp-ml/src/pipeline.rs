//! A deployable PP scorer: dimension reducer + classifier + calibration.
//!
//! This is the "approach `m`" of §5 — "the filtering strategy picked by our
//! model selection scheme, indicating which classification f(·) and
//! dimension reduction ψ(·) algorithms to use" — bundled with the
//! accuracy/reduction curve measured on validation data, plus observed
//! training and per-blob inference costs (the `c` of §3).

use std::borrow::Cow;
use std::time::Instant;

use pp_linalg::{FeatureBatch, Features};

use crate::calibrate::Calibration;
use crate::dataset::LabeledSet;
use crate::dnn::{Dnn, DnnParams};
use crate::kde::{Kde, KdeParams};
use crate::reduction::{Reducer, ReducerSpec};
use crate::svm::{LinearSvm, SvmParams};
use crate::{MlError, Result};

/// A real-valued scoring function `f(·)` over (reduced) features (Eq. 2's
/// `f`).
pub trait ScoreModel {
    /// Scores one feature vector; higher means "more likely to pass".
    fn score(&self, x: &Features) -> f64;

    /// Scores a batch of feature vectors ([`FeatureBatch::Block`] for a
    /// gathered dense column, [`FeatureBatch::Refs`] for a column with
    /// sparse or ragged cells).
    ///
    /// Semantically equivalent to calling [`score`][Self::score] on each
    /// element; implementations may override it to amortize per-call work
    /// (scratch buffers, hoisted lookups, contiguous block walks) but must
    /// return bit-identical scores in input order across both variants.
    fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        (0..xs.len()).map(|i| self.score(&element(xs, i))).collect()
    }

    /// Scores the batch elements at `positions`, in the order given: one
    /// score per position, bit-identical to
    /// [`score_many`][Self::score_many]'s at that position. The elements
    /// are read where they lie — a block row is not gathered first.
    ///
    /// # Panics
    /// If a position is not below `xs.len()`.
    fn score_selected(&self, xs: &FeatureBatch<'_>, positions: &[u32]) -> Vec<f64> {
        positions
            .iter()
            .map(|&p| self.score(&element(xs, p as usize)))
            .collect()
    }
}

/// Element `i` of a batch as the scalar path sees it: a block row is the
/// dense vector it was gathered from.
fn element<'a>(xs: &FeatureBatch<'a>, i: usize) -> Cow<'a, Features> {
    match *xs {
        FeatureBatch::Refs(refs) => Cow::Borrowed(refs[i]),
        FeatureBatch::Block(block) => Cow::Owned(Features::Dense(block.row(i).to_vec())),
    }
}

/// Which classifier to train, with its hyper-parameters.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// Linear SVM (§5.1).
    Svm(SvmParams),
    /// Kernel density estimator (§5.2).
    Kde(KdeParams),
    /// Fully-connected network (§5.3).
    Dnn(DnnParams),
}

impl ModelSpec {
    /// Short display name ("SVM", "KDE", "DNN").
    pub fn short_name(&self) -> &'static str {
        match self {
            ModelSpec::Svm(_) => "SVM",
            ModelSpec::Kde(_) => "KDE",
            ModelSpec::Dnn(_) => "DNN",
        }
    }

    /// Relative model complexity, used as a tie-breaker by model selection
    /// ("use the least complex model that returns a good data reduction").
    pub fn complexity_rank(&self) -> u8 {
        match self {
            ModelSpec::Svm(_) => 0,
            ModelSpec::Kde(_) => 1,
            ModelSpec::Dnn(_) => 2,
        }
    }
}

/// A reducer + classifier combination to train (one member of ℳ in §5.5).
#[derive(Debug, Clone)]
pub struct Approach {
    /// Dimension reduction ψ.
    pub reducer: ReducerSpec,
    /// Classifier f.
    pub model: ModelSpec,
}

impl Approach {
    /// Display name matching the paper's tables ("FH + SVM", "PCA + KDE",
    /// "Raw + SVM", "DNN").
    pub fn name(&self) -> String {
        match (&self.reducer, &self.model) {
            (ReducerSpec::Identity, ModelSpec::Dnn(_)) => "DNN".to_string(),
            (r, m) => format!("{} + {}", r.short_name(), m.short_name()),
        }
    }
}

/// A trained classifier of any kind.
#[derive(Debug, Clone)]
pub enum Model {
    /// Linear SVM.
    Svm(LinearSvm),
    /// Kernel density estimator.
    Kde(Kde),
    /// Fully-connected network.
    Dnn(Dnn),
    /// Sign-flipped wrapper used for negated predicates (§5.6).
    Negated(Box<Model>),
}

impl ScoreModel for Model {
    fn score(&self, x: &Features) -> f64 {
        match self {
            Model::Svm(m) => m.score(x),
            Model::Kde(m) => m.score(x),
            Model::Dnn(m) => m.score(x),
            Model::Negated(m) => -m.score(x),
        }
    }

    fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        match self {
            Model::Svm(m) => m.score_many(xs),
            Model::Kde(m) => m.score_many(xs),
            Model::Dnn(m) => m.score_many(xs),
            Model::Negated(m) => negate(m.score_many(xs)),
        }
    }

    fn score_selected(&self, xs: &FeatureBatch<'_>, positions: &[u32]) -> Vec<f64> {
        match self {
            Model::Svm(m) => m.score_selected(xs, positions),
            Model::Kde(m) => m.score_selected(xs, positions),
            Model::Dnn(m) => m.score_selected(xs, positions),
            Model::Negated(m) => negate(m.score_selected(xs, positions)),
        }
    }
}

fn negate(mut scores: Vec<f64>) -> Vec<f64> {
    for s in &mut scores {
        *s = -*s;
    }
    scores
}

/// A fully trained, calibrated PP scorer.
#[derive(Debug, Clone)]
pub struct Pipeline {
    approach_name: String,
    reducer: Reducer,
    model: Model,
    calibration: Calibration,
    /// Observed wall-clock training time in seconds.
    train_seconds: f64,
    /// Observed per-blob inference time in seconds (reduction + scoring).
    test_seconds_per_blob: f64,
}

impl Pipeline {
    /// Trains the approach on `train` and calibrates on `val`.
    ///
    /// Both sets must be non-empty and `val` must contain at least one
    /// positive (otherwise no threshold can guarantee any accuracy).
    pub fn train(
        approach: &Approach,
        train: &LabeledSet,
        val: &LabeledSet,
        seed: u64,
    ) -> Result<Self> {
        if train.is_empty() || val.is_empty() {
            return Err(MlError::EmptyInput);
        }
        let started = Instant::now();
        let reducer = approach.reducer.fit(train, seed)?;
        let reduced_train = reducer.apply_set(train)?;
        let model = match &approach.model {
            ModelSpec::Svm(p) => Model::Svm(LinearSvm::train(&reduced_train, p)?),
            ModelSpec::Kde(p) => Model::Kde(Kde::train(&reduced_train, p)?),
            ModelSpec::Dnn(p) => Model::Dnn(Dnn::train(&reduced_train, p)?),
        };
        let train_seconds = started.elapsed().as_secs_f64();

        // Calibrate on validation scores, timing per-blob inference.
        let scoring_started = Instant::now();
        let scored: Vec<(f64, bool)> = val
            .iter()
            .map(|s| (model.score(&reducer.apply(&s.features)), s.label))
            .collect();
        let test_seconds_per_blob = scoring_started.elapsed().as_secs_f64() / val.len() as f64;
        let calibration = Calibration::from_scored(scored)?;
        Ok(Pipeline {
            approach_name: approach.name(),
            reducer,
            model,
            calibration,
            train_seconds,
            test_seconds_per_blob,
        })
    }

    /// The approach's display name.
    pub fn approach_name(&self) -> &str {
        &self.approach_name
    }

    /// Scores a raw blob: `f(ψ(x))`.
    pub fn score(&self, x: &Features) -> f64 {
        match &self.reducer {
            // ψ(x) = x: skip the defensive clone Reducer::apply would make.
            Reducer::Identity => self.model.score(x),
            r => self.model.score(&r.apply(x)),
        }
    }

    /// Decision at accuracy target `a` (Eq. 2): pass iff `f(ψ(x)) ≥ th(a]`.
    pub fn passes(&self, x: &Features, a: f64) -> Result<bool> {
        Ok(self.score(x) >= self.calibration.threshold(a)?)
    }

    /// Scores a unified batch of raw blobs; bit-identical to per-blob
    /// [`score`][Self::score] in input order across both
    /// [`FeatureBatch`] variants, but lets the underlying model reuse
    /// scratch buffers and walk contiguous blocks.
    ///
    /// With the identity reducer the batch goes straight to the model —
    /// no per-blob clone — which is where columnar callers earn their
    /// throughput.
    pub fn score_many(&self, xs: &FeatureBatch<'_>) -> Vec<f64> {
        match &self.reducer {
            Reducer::Identity => self.model.score_many(xs),
            r => self.score_reduced(r, (0..xs.len()).map(|i| element(xs, i))),
        }
    }

    /// Scores the raw blobs at `positions` of a batch, in the order given;
    /// bit-identical to [`score_many`][Self::score_many] at those
    /// positions, without gathering them first
    /// ([`ScoreModel::score_selected`]).
    ///
    /// # Panics
    /// If a position is not below `xs.len()`.
    pub fn score_selected(&self, xs: &FeatureBatch<'_>, positions: &[u32]) -> Vec<f64> {
        match &self.reducer {
            Reducer::Identity => self.model.score_selected(xs, positions),
            r => self.score_reduced(r, positions.iter().map(|&p| element(xs, p as usize))),
        }
    }

    /// `f(ψ(x))` over blobs that need a reduction first: ψ builds a vector
    /// per blob, which the model scores as references.
    fn score_reduced<'a>(
        &self,
        r: &Reducer,
        xs: impl Iterator<Item = Cow<'a, Features>>,
    ) -> Vec<f64> {
        let reduced: Vec<Features> = xs.map(|x| r.apply(&x)).collect();
        let refs: Vec<&Features> = reduced.iter().collect();
        self.model.score_many(&FeatureBatch::Refs(&refs))
    }

    /// The calibration table.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Predicted data reduction at accuracy `a` (Eq. 4, on validation).
    pub fn reduction(&self, a: f64) -> Result<f64> {
        self.calibration.reduction(a)
    }

    /// Observed training wall time in seconds.
    pub fn train_seconds(&self) -> f64 {
        self.train_seconds
    }

    /// Observed per-blob inference wall time in seconds.
    pub fn test_seconds_per_blob(&self) -> f64 {
        self.test_seconds_per_blob
    }

    /// Builds the pipeline for the *negated* predicate by flipping the
    /// score sign and recalibrating on the same validation scores (§5.6:
    /// "multiplying these functions with −1 yields the corresponding
    /// classifier functions for predicate ¬p").
    pub fn negated(&self, val: &LabeledSet) -> Result<Pipeline> {
        let scored = val.iter().map(|s| (-self.score(&s.features), !s.label));
        Ok(Pipeline {
            approach_name: format!("neg({})", self.approach_name),
            reducer: self.reducer.clone(),
            model: Model::Negated(Box::new(self.model.clone())),
            calibration: Calibration::from_scored(scored)?,
            train_seconds: 0.0, // reuses the existing classifier
            test_seconds_per_blob: self.test_seconds_per_blob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_set(n: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        LabeledSet::new(
            (0..n)
                .map(|_| {
                    let pos = rng.gen_bool(0.3);
                    let cx = if pos { 1.5 } else { -1.5 };
                    Sample::new(
                        vec![cx + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                        pos,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    fn svm_approach() -> Approach {
        Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }
    }

    #[test]
    fn trains_and_guarantees_val_accuracy() {
        let data = blob_set(600, 1);
        let (train, val, test) = data.split(0.6, 0.2, 2).unwrap();
        let pp = Pipeline::train(&svm_approach(), &train, &val, 3).unwrap();
        // On held-out test data, accuracy should be near the target.
        for a in [0.9, 0.95, 1.0] {
            let mut kept = 0usize;
            let mut pos = 0usize;
            for s in test.iter() {
                if s.label {
                    pos += 1;
                    if pp.passes(&s.features, a).unwrap() {
                        kept += 1;
                    }
                }
            }
            let acc = kept as f64 / pos as f64;
            assert!(acc >= a - 0.1, "target={a} achieved={acc}");
        }
    }

    #[test]
    fn reduction_positive_for_separable_data() {
        let data = blob_set(600, 4);
        let (train, val, _) = data.split(0.6, 0.2, 5).unwrap();
        let pp = Pipeline::train(&svm_approach(), &train, &val, 6).unwrap();
        assert!(pp.reduction(0.95).unwrap() > 0.3);
        assert!(pp.train_seconds() >= 0.0);
        assert!(pp.test_seconds_per_blob() >= 0.0);
    }

    #[test]
    fn negated_pipeline_flips_decision() {
        let data = blob_set(600, 7);
        let (train, val, _) = data.split(0.6, 0.2, 8).unwrap();
        let pp = Pipeline::train(&svm_approach(), &train, &val, 9).unwrap();
        let neg = pp.negated(&val).unwrap();
        // Scores are negated.
        let x = &val.samples()[0].features;
        assert!((pp.score(x) + neg.score(x)).abs() < 1e-9);
        // The negated PP's selectivity is 1 - original.
        let s = pp.calibration().selectivity();
        let sn = neg.calibration().selectivity();
        assert!((s + sn - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_scoring_matches_serial_for_every_model() {
        let data = blob_set(400, 11);
        let (train, val, test) = data.split(0.6, 0.2, 12).unwrap();
        let approaches = [
            svm_approach(),
            Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Kde(KdeParams::default()),
            },
            Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Dnn(DnnParams::default()),
            },
            Approach {
                reducer: ReducerSpec::FeatureHash { dr: 4 },
                model: ModelSpec::Svm(SvmParams::default()),
            },
        ];
        for approach in &approaches {
            let pp = Pipeline::train(approach, &train, &val, 13).unwrap();
            let neg = pp.negated(&val).unwrap();
            let xs: Vec<&Features> = test.iter().map(|s| &s.features).collect();
            let block = pp_linalg::FeatureBlock::from_features(
                test.dim(),
                test.iter().map(|s| &s.features),
            )
            .unwrap();
            for pipeline in [&pp, &neg] {
                let batch = pipeline.score_many(&FeatureBatch::Refs(&xs));
                for (x, b) in xs.iter().zip(&batch) {
                    assert_eq!(pipeline.score(x), *b, "{}", pipeline.approach_name());
                }
                // The columnar block variant is bit-identical to refs.
                let columnar = pipeline.score_many(&FeatureBatch::Block(&block));
                assert_eq!(batch, columnar, "{}", pipeline.approach_name());
                // Scoring a selection in place is score_many at those
                // positions, bit for bit, for every subset of the first
                // eight rows (in descending order too) and over both forms.
                let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                for subset in 0u32..256 {
                    let mut positions: Vec<u32> = (0..8).filter(|p| subset >> p & 1 == 1).collect();
                    if subset % 2 == 0 {
                        positions.reverse();
                    }
                    let want: Vec<f64> = positions.iter().map(|&p| batch[p as usize]).collect();
                    for form in [FeatureBatch::Refs(&xs), FeatureBatch::Block(&block)] {
                        assert_eq!(
                            bits(&pipeline.score_selected(&form, &positions)),
                            bits(&want),
                            "{} at {positions:?}",
                            pipeline.approach_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        let data = blob_set(50, 10);
        assert!(Pipeline::train(&svm_approach(), &LabeledSet::empty(), &data, 0).is_err());
        assert!(Pipeline::train(&svm_approach(), &data, &LabeledSet::empty(), 0).is_err());
    }

    #[test]
    fn approach_names_match_paper() {
        assert_eq!(svm_approach().name(), "Raw + SVM");
        let fh = Approach {
            reducer: ReducerSpec::FeatureHash { dr: 64 },
            model: ModelSpec::Svm(SvmParams::default()),
        };
        assert_eq!(fh.name(), "FH + SVM");
        let dnn = Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Dnn(DnnParams::default()),
        };
        assert_eq!(dnn.name(), "DNN");
        let pca_kde = Approach {
            reducer: ReducerSpec::Pca {
                k: 8,
                fit_sample: 100,
            },
            model: ModelSpec::Kde(KdeParams::default()),
        };
        assert_eq!(pca_kde.name(), "PCA + KDE");
    }
}
