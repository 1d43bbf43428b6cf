//! The probabilistic predicate itself.
//!
//! "A PP for predicate clause p is uniquely characterized by the triple
//! PP_p = ⟨𝒟, m, r(a]⟩" (§5): the training set, the approach picked by
//! model selection, and the accuracy-parametrized reduction curve. Here a
//! [`ProbabilisticPredicate`] bundles the predicate it mimics, the trained
//! [`pp_ml::Pipeline`] (approach + calibration), and its per-blob execution
//! cost in simulated cluster seconds.

use std::sync::Arc;

use pp_engine::Predicate;
use pp_linalg::Features;
use pp_ml::Pipeline;

use crate::implication::Antecedent;
use crate::{PpError, Result};

/// A trained probabilistic predicate.
///
/// Everything that depends only on the PP is computed once, when it is
/// built, and shared by every copy: its canonical [`key`](Self::key), both
/// sides of the implication check — the normal form it is tested by
/// ([`nnf`](Self::nnf)) and the prepared antecedent it tests others with
/// ([`implies`](Self::implies)) — and its uncorrected `r(1]`. The planner reads
/// these thousands of times per query; none of them changes afterwards —
/// [`with_reduction_scale`](Self::with_reduction_scale) only rescales.
#[derive(Debug, Clone)]
pub struct ProbabilisticPredicate {
    trained: Arc<Trained>,
    /// Per-blob execution cost in simulated cluster seconds (the `c` of
    /// §3). Defaults to the measured wall-clock inference cost but is
    /// usually set explicitly by the workload so that the simulated cost
    /// model stays machine-independent.
    cost_per_row: f64,
    /// Multiplicative calibration correction applied to the validation
    /// reduction curve (1.0 = trust the curve). Set by the planner from
    /// runtime feedback; affects estimates only, never filter verdicts.
    reduction_scale: f64,
}

/// What training fixed, and what follows from it alone.
#[derive(Debug)]
struct Trained {
    predicate: Predicate,
    /// `predicate.to_string()`.
    key: String,
    /// `predicate.to_nnf().simplify()`.
    nnf: Predicate,
    /// `predicate`, prepared as the left side of an implication.
    antecedent: Antecedent,
    pipeline: Pipeline,
    /// The validation curve's `r(1]`, before any correction (0 when the
    /// curve cannot be read, which ranks like no reduction at all).
    full_reduction: f64,
}

impl ProbabilisticPredicate {
    /// Wraps a trained pipeline as the PP for `predicate`, with an explicit
    /// simulated per-blob cost.
    pub fn new(predicate: Predicate, pipeline: Pipeline, cost_per_row: f64) -> Result<Self> {
        if cost_per_row.is_nan() || cost_per_row < 0.0 {
            return Err(PpError::InvalidParameter("cost_per_row must be >= 0"));
        }
        Ok(Self::assemble(predicate, pipeline, cost_per_row))
    }

    /// Wraps a trained pipeline, using its measured wall-clock inference
    /// cost as the simulated cost.
    pub fn from_measured(predicate: Predicate, pipeline: Pipeline) -> Self {
        let cost = pipeline.test_seconds_per_blob();
        Self::assemble(predicate, pipeline, cost)
    }

    fn assemble(predicate: Predicate, pipeline: Pipeline, cost_per_row: f64) -> Self {
        ProbabilisticPredicate {
            trained: Arc::new(Trained {
                key: predicate.to_string(),
                nnf: predicate.to_nnf().simplify(),
                antecedent: Antecedent::new(&predicate),
                full_reduction: pipeline.reduction(1.0).unwrap_or(0.0),
                predicate,
                pipeline,
            }),
            cost_per_row,
            reduction_scale: 1.0,
        }
    }

    /// The predicate this PP mimics.
    pub fn predicate(&self) -> &Predicate {
        &self.trained.predicate
    }

    /// Canonical identity string (catalog key / display): the mimicked
    /// predicate's display form.
    pub fn key(&self) -> &str {
        &self.trained.key
    }

    /// The mimicked predicate in negation normal form, simplified — the
    /// consequent [`Antecedent::implies`](crate::implication::Antecedent::implies)
    /// tests.
    pub fn nnf(&self) -> &Predicate {
        &self.trained.nnf
    }

    /// Does this PP's predicate imply `other`'s (sound, incomplete)? A PP
    /// whose predicate implies another's makes that other redundant in a
    /// conjunction.
    pub fn implies(&self, other: &ProbabilisticPredicate) -> bool {
        self.trained.antecedent.implies(other.nnf())
    }

    /// The underlying trained pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.trained.pipeline
    }

    /// Whether `other` yields the same estimates at every accuracy: the
    /// same trained pipeline at the same cost and reduction scale. (Two
    /// rescaled copies of one PP are different `Arc`s but one curve.)
    pub(crate) fn same_estimates(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.trained, &other.trained)
            && self.cost_per_row.to_bits() == other.cost_per_row.to_bits()
            && self.reduction_scale.to_bits() == other.reduction_scale.to_bits()
    }

    /// Per-blob execution cost in simulated cluster seconds.
    pub fn cost_per_row(&self) -> f64 {
        self.cost_per_row
    }

    /// Predicted data reduction at accuracy `a`: the validation estimate
    /// scaled by the calibration correction
    /// ([`reduction_scale`][Self::reduction_scale]), clamped to `[0, 1]`.
    pub fn reduction(&self, a: f64) -> Result<f64> {
        Ok((self.pipeline().reduction(a)? * self.reduction_scale).clamp(0.0, 1.0))
    }

    /// The calibration correction currently applied to the reduction curve
    /// (1.0 = uncorrected).
    pub fn reduction_scale(&self) -> f64 {
        self.reduction_scale
    }

    /// A copy of this PP whose predicted reduction is rescaled by `scale`
    /// (clamped to `[0, 20]`; non-finite values reset to 1.0).
    ///
    /// This is the calibration feedback hook: when the runtime monitor
    /// observes a reduction persistently different from the estimate, the
    /// planner rebuilds candidate leaves with the corrected scale so
    /// allocation and ordering see the *effective* selectivity. Scoring
    /// and thresholds are untouched — the filter's verdicts (and thus
    /// query results) are identical to the uncorrected PP's.
    pub fn with_reduction_scale(&self, scale: f64) -> Self {
        let mut out = self.clone();
        out.reduction_scale = if scale.is_finite() {
            scale.clamp(0.0, 20.0)
        } else {
            1.0
        };
        out
    }

    /// The decision for one blob at accuracy `a` (Eq. 2): `true` keeps the
    /// blob.
    pub fn passes(&self, blob: &Features, a: f64) -> Result<bool> {
        Ok(self.pipeline().passes(blob, a)?)
    }

    /// Raw classifier score `f(ψ(x))`.
    pub fn score(&self, blob: &Features) -> f64 {
        self.pipeline().score(blob)
    }

    /// The intrinsic cost-to-reduction ratio `c / r(1]` used by the QO's
    /// greedy pruning (§6.1: "a smaller ratio of cost to data reduction ...
    /// indicates better performance"), honoring any calibration
    /// correction. Returns `f64::INFINITY` when the PP achieves no
    /// (corrected) reduction at full accuracy.
    pub fn efficiency_ratio(&self) -> f64 {
        let r = (self.trained.full_reduction * self.reduction_scale).clamp(0.0, 1.0);
        if r > 0.0 {
            self.cost_per_row / r
        } else {
            f64::INFINITY
        }
    }

    /// The selectivity of the mimicked predicate observed on validation
    /// data.
    pub fn observed_selectivity(&self) -> f64 {
        self.pipeline().calibration().selectivity()
    }

    /// Training wall time in seconds (reported in Tables 5/9).
    pub fn train_seconds(&self) -> f64 {
        self.pipeline().train_seconds()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pp_engine::{Clause, CompareOp};
    use pp_ml::dataset::{LabeledSet, Sample};
    use pp_ml::pipeline::{Approach, ModelSpec};
    use pp_ml::reduction::ReducerSpec;
    use pp_ml::svm::SvmParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn trained_pp(selectivity: f64, seed: u64, cost: f64) -> ProbabilisticPredicate {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = LabeledSet::new(
            (0..500)
                .map(|_| {
                    let pos = rng.gen_bool(selectivity);
                    let cx = if pos { 2.0 } else { -2.0 };
                    Sample::new(
                        vec![cx + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                        pos,
                    )
                })
                .collect(),
        )
        .unwrap();
        let (train, val, _) = data.split(0.7, 0.3, seed).unwrap();
        let approach = Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        };
        let pipeline = Pipeline::train(&approach, &train, &val, seed).unwrap();
        ProbabilisticPredicate::new(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            pipeline,
            cost,
        )
        .unwrap()
    }

    #[test]
    fn pp_filters_with_accuracy_guarantee() {
        let pp = trained_pp(0.3, 1, 0.001);
        assert!(pp.reduction(0.95).unwrap() > 0.3);
        assert!(pp.reduction(1.0).unwrap() <= pp.reduction(0.9).unwrap());
        // Positive-looking blob passes, negative-looking blob fails.
        assert!(pp.passes(&Features::Dense(vec![2.5, 0.0]), 0.95).unwrap());
        assert!(!pp.passes(&Features::Dense(vec![-2.5, 0.0]), 0.95).unwrap());
    }

    #[test]
    fn efficiency_ratio_scales_with_cost() {
        let cheap = trained_pp(0.3, 2, 0.001);
        let pricey = trained_pp(0.3, 2, 0.1);
        assert!(cheap.efficiency_ratio() < pricey.efficiency_ratio());
    }

    #[test]
    fn key_is_predicate_string() {
        let pp = trained_pp(0.3, 3, 0.001);
        assert_eq!(pp.key(), "t = SUV");
    }

    #[test]
    fn negative_cost_rejected() {
        let pp = trained_pp(0.3, 4, 0.001);
        let pipeline = pp.pipeline().clone();
        assert!(matches!(
            ProbabilisticPredicate::new(pp.predicate().clone(), pipeline, -1.0),
            Err(PpError::InvalidParameter(_))
        ));
    }

    #[test]
    fn reduction_scale_corrects_estimates_not_verdicts() {
        let pp = trained_pp(0.3, 6, 0.001);
        let base = pp.reduction(0.95).unwrap();
        assert_eq!(pp.reduction_scale(), 1.0);
        let corrected = pp.with_reduction_scale(0.5);
        assert_eq!(corrected.reduction_scale(), 0.5);
        assert!((corrected.reduction(0.95).unwrap() - base * 0.5).abs() < 1e-12);
        // Scale clamps: huge corrections cap the reduction at 1.0, negative
        // and non-finite scales degrade safely.
        assert!(pp.with_reduction_scale(100.0).reduction(1.0).unwrap() <= 1.0);
        assert_eq!(pp.with_reduction_scale(-2.0).reduction_scale(), 0.0);
        assert_eq!(pp.with_reduction_scale(f64::NAN).reduction_scale(), 1.0);
        // Verdicts are untouched: same threshold, same decisions.
        for x in [-2.5, -0.5, 0.5, 2.5] {
            let blob = Features::Dense(vec![x, 0.0]);
            assert_eq!(
                pp.passes(&blob, 0.95).unwrap(),
                corrected.passes(&blob, 0.95).unwrap()
            );
        }
        // A lower effective reduction worsens the efficiency ratio.
        assert!(corrected.efficiency_ratio() > pp.efficiency_ratio());
    }

    #[test]
    fn observed_selectivity_tracks_data() {
        let pp = trained_pp(0.3, 5, 0.001);
        let s = pp.observed_selectivity();
        assert!((0.2..0.4).contains(&s), "selectivity={s}");
    }
}
