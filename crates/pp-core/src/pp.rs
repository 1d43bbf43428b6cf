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

use crate::alloc::ACCURACY_GRID;
use crate::implication::Antecedent;
use crate::{PpError, Result};

/// A trained probabilistic predicate.
///
/// Everything that depends only on the PP is computed once, when it is
/// built, and shared by every copy: its canonical [`key`](Self::key), both
/// sides of the implication check — the normal form it is tested by
/// ([`nnf`](Self::nnf)) and the prepared antecedent it tests others with
/// ([`implies`](Self::implies)) — its uncorrected `r(1]`, and its certified
/// threshold and reduction at each [`ACCURACY_GRID`] point. The planner reads
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
    /// At each [`ACCURACY_GRID`] point, the certified `th(a]` and its
    /// uncorrected `r(a]`; `None` where the validation positives cannot
    /// certify the point (see [`pp_ml::calibrate`]).
    certified: [Option<(f64, f64)>; ACCURACY_GRID.len()],
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
        let calibration = pipeline.calibration();
        let certified = ACCURACY_GRID.map(|a| {
            let th = calibration.certified_threshold(a)?;
            Some((th, calibration.reduction_at_threshold(th)))
        });
        ProbabilisticPredicate {
            trained: Arc::new(Trained {
                key: predicate.to_string(),
                nnf: predicate.to_nnf().simplify(),
                antecedent: Antecedent::new(&predicate),
                full_reduction: pipeline.reduction(1.0).unwrap_or(0.0),
                certified,
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

    /// Whether `other` is a copy of this PP as trained: the same model and
    /// thresholds, whatever reduction correction either carries.
    pub(crate) fn same_model(&self, other: &ProbabilisticPredicate) -> bool {
        Arc::ptr_eq(&self.trained, &other.trained)
    }

    /// The underlying trained pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.trained.pipeline
    }

    /// Per-blob execution cost in simulated cluster seconds.
    pub fn cost_per_row(&self) -> f64 {
        self.cost_per_row
    }

    /// Predicted data reduction at accuracy `a`: the validation estimate
    /// scaled by the calibration correction
    /// ([`reduction_scale`][Self::reduction_scale]), clamped to `[0, 1]`.
    /// Total: where `a` cannot be certified it is the reduction keeping all
    /// validation positives, `r(1]`.
    pub fn reduction(&self, a: f64) -> Result<f64> {
        let r = match grid_index(a) {
            Some(i) => self.trained.certified[i].map_or(self.trained.full_reduction, |(_, r)| r),
            None => self.pipeline().reduction(a)?,
        };
        Ok(self.scaled(r))
    }

    /// The corrected reduction at `ACCURACY_GRID[i]`, if the validation
    /// positives certify that point.
    pub(crate) fn certified_reduction(&self, i: usize) -> Option<f64> {
        self.trained.certified[i].map(|(_, r)| self.scaled(r))
    }

    /// `th(a]` when the validation positives certify recall ≥ `a`
    /// ([`Calibration::certified_threshold`](pp_ml::Calibration::certified_threshold)),
    /// read from the cache at grid points.
    pub fn certified_threshold(&self, a: f64) -> Option<f64> {
        match grid_index(a) {
            Some(i) => self.trained.certified[i].map(|(th, _)| th),
            None => self.pipeline().calibration().certified_threshold(a),
        }
    }

    fn scaled(&self, reduction: f64) -> f64 {
        (reduction * self.reduction_scale).clamp(0.0, 1.0)
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
        let r = self.scaled(self.trained.full_reduction);
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

/// The index of `a` in [`ACCURACY_GRID`], if it is one of its points.
fn grid_index(a: f64) -> Option<usize> {
    ACCURACY_GRID
        .iter()
        .position(|p| p.to_bits() == a.to_bits())
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

    /// A PP over two separable blobs. At selectivity 0.3 its validation
    /// share holds about 420 positives: enough to certify every grid point
    /// up to 0.99 (299 needed) and none above it (0.995 needs 598).
    pub(crate) fn trained_pp(selectivity: f64, seed: u64, cost: f64) -> ProbabilisticPredicate {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = LabeledSet::new(
            (0..2000)
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
        let (train, val, _) = data.split(0.3, 0.7, seed).unwrap();
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
        let pipeline = pp.pipeline();
        assert!(pipeline
            .passes(&Features::Dense(vec![2.5, 0.0]), 0.95)
            .unwrap());
        assert!(!pipeline
            .passes(&Features::Dense(vec![-2.5, 0.0]), 0.95)
            .unwrap());
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
        // Thresholds, and so verdicts, are untouched: see
        // `expr::tests::rescaled_leaves_keep_their_thresholds`.
        // A lower effective reduction worsens the efficiency ratio.
        assert!(corrected.efficiency_ratio() > pp.efficiency_ratio());
    }

    #[test]
    fn the_grid_cache_answers_as_the_calibration_does() {
        let pp = trained_pp(0.3, 8, 0.001).with_reduction_scale(0.5);
        let calibration = pp.pipeline().calibration();
        // Grid points come from the cache, 0.91 from the calibration.
        for a in ACCURACY_GRID.into_iter().chain([0.91]) {
            let th = calibration.certified_threshold(a);
            assert_eq!(pp.certified_threshold(a), th, "a={a}");
            let r = 0.5 * calibration.reduction(a).unwrap();
            assert_eq!(pp.reduction(a).unwrap(), r, "a={a}");
            if let Some(i) = grid_index(a) {
                assert_eq!(pp.certified_reduction(i), th.map(|_| r), "a={a}");
            }
        }
        // About 420 positives: 0.99 is certified, 0.995 and 1.0 are not.
        assert!(pp.certified_threshold(0.99).is_some());
        assert_eq!(pp.certified_threshold(0.995), None);
        assert_eq!(pp.certified_threshold(1.0), None);
    }

    #[test]
    fn observed_selectivity_tracks_data() {
        let pp = trained_pp(0.3, 5, 0.001);
        let s = pp.observed_selectivity();
        assert!((0.2..0.4).contains(&s), "selectivity={s}");
    }
}
