//! Accuracy-parametrized thresholds and the data-reduction curve
//! (Eqs. 2–4 of the paper).
//!
//! A PP predicts `+1` (pass the blob downstream) iff `f(ψ(x)) ≥ th(a]`.
//! `th(a]` is "the largest threshold value that correctly identifies an `a`
//! portion of the +1 data points" (Figure 5), so the same trained
//! classifier can serve any accuracy target without retraining. The
//! reduction ratio `r(a]` is the fraction of all (validation) blobs that
//! fall below the threshold (Eq. 4); per §5.6 the curve is computed on the
//! validation portion to avoid overfitting.
//!
//! The decision rule here uses `≥` where the paper's Eq. 2 writes `>`;
//! with `≥`, `th(a]` is exactly the `⌈a·m⌉`-th largest positive score,
//! which keeps the guarantee "at least an `a` fraction of validation
//! positives pass" tight even with tied scores.

use crate::{MlError, Result};

/// A calibration table built from validation scores.
///
/// Stores the sorted positive and overall score distributions so that
/// `th(a]` and `r(a]` can be answered exactly for any `a ∈ (0, 1]`.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Ascending scores of validation blobs with +1 labels.
    pos_scores: Vec<f64>,
    /// Ascending scores of all validation blobs.
    all_scores: Vec<f64>,
}

impl Calibration {
    /// Builds a calibration from validation `(score, is_positive)` pairs,
    /// at least one of them positive.
    pub fn from_scored(scored: impl IntoIterator<Item = (f64, bool)>) -> Result<Self> {
        let scored = scored.into_iter();
        let mut all_scores = Vec::with_capacity(scored.size_hint().0);
        let mut pos_scores = Vec::new();
        for (score, positive) in scored {
            all_scores.push(score);
            if positive {
                pos_scores.push(score);
            }
        }
        if pos_scores.is_empty() {
            return Err(MlError::EmptyInput);
        }
        pos_scores.sort_by(f64::total_cmp);
        all_scores.sort_by(f64::total_cmp);
        Ok(Calibration {
            pos_scores,
            all_scores,
        })
    }

    /// Number of validation blobs backing the calibration.
    pub fn support(&self) -> usize {
        self.all_scores.len()
    }

    /// Number of positive validation blobs.
    pub fn positive_support(&self) -> usize {
        self.pos_scores.len()
    }

    /// The validation selectivity `s_p` (fraction of positives).
    pub fn selectivity(&self) -> f64 {
        self.pos_scores.len() as f64 / self.all_scores.len() as f64
    }

    /// `th(a]` per Eq. 3: the largest threshold keeping at least an `a`
    /// fraction of positives.
    ///
    /// Errors if `a ∉ (0, 1]`.
    pub fn threshold(&self, a: f64) -> Result<f64> {
        if !(a > 0.0 && a <= 1.0) {
            return Err(MlError::InvalidParameter("accuracy must be in (0, 1]"));
        }
        Ok(self.keeping(a))
    }

    /// The threshold keeping at least `⌈a·m⌉` positives, for an `a` the
    /// caller has checked to be in `(0, 1]`.
    fn keeping(&self, a: f64) -> f64 {
        let m = self.pos_scores.len();
        let keep = (a * m as f64).ceil() as usize;
        let keep = keep.clamp(1, m);
        self.pos_scores[m - keep]
    }

    /// `r(a]` per Eq. 4: fraction of validation blobs scoring strictly
    /// below `th(a]` (i.e. dropped by the PP).
    pub fn reduction(&self, a: f64) -> Result<f64> {
        let th = self.threshold(a)?;
        Ok(self.reduction_at_threshold(th))
    }

    /// Fraction of validation blobs strictly below an arbitrary threshold.
    pub fn reduction_at_threshold(&self, th: f64) -> f64 {
        let dropped = self.all_scores.partition_point(|s| *s < th);
        dropped as f64 / self.all_scores.len() as f64
    }

    /// Fraction of validation positives at or above a threshold — the
    /// accuracy the PP would achieve at that threshold.
    pub fn accuracy_at_threshold(&self, th: f64) -> f64 {
        let kept = self.pos_scores.len() - self.pos_scores.partition_point(|s| *s < th);
        kept as f64 / self.pos_scores.len() as f64
    }

    /// Samples the accuracy → reduction curve on a uniform accuracy grid
    /// (used for reporting and plan costing).
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        (0..points)
            .map(|i| {
                // Sweep a from 0.5 to 1.0 (below 0.5 is never useful).
                let a = 0.5 + 0.5 * i as f64 / (points - 1) as f64;
                (a, self.reduction_at_threshold(self.keeping(a)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positives score high, negatives score low, with some overlap.
    fn simple_calibration() -> Calibration {
        // positives: 1..=10, negatives: -10..=-1 plus overlap 0.5, 1.5
        let pos = (1..=10).map(|i| (i as f64, true));
        let neg = (-10..=-1).map(|i| (i as f64, false));
        let overlap = [(0.5, false), (1.5, false)];
        Calibration::from_scored(neg.chain(pos).chain(overlap)).unwrap()
    }

    #[test]
    fn threshold_keeps_a_fraction_of_positives() {
        let c = simple_calibration();
        // a = 1.0 keeps all 10 positives: threshold is the smallest
        // positive score.
        assert_eq!(c.threshold(1.0).unwrap(), 1.0);
        // a = 0.5 keeps 5 positives: threshold is the 5th largest (6.0).
        assert_eq!(c.threshold(0.5).unwrap(), 6.0);
        // Guarantee: accuracy at th(a) >= a for a sweep of targets.
        for i in 1..=20 {
            let a = i as f64 / 20.0;
            let th = c.threshold(a).unwrap();
            assert!(
                c.accuracy_at_threshold(th) >= a - 1e-12,
                "a={a} th={th} acc={}",
                c.accuracy_at_threshold(th)
            );
        }
    }

    #[test]
    fn reduction_counts_dropped_blobs() {
        let c = simple_calibration();
        // th(1.0) = 1.0 drops the 10 negatives and the 0.5 overlap blob:
        // 11 of 22.
        assert!((c.reduction(1.0).unwrap() - 11.0 / 22.0).abs() < 1e-12);
        // Relaxing accuracy increases reduction.
        assert!(c.reduction(0.8).unwrap() >= c.reduction(1.0).unwrap());
    }

    #[test]
    fn monotonicity_of_threshold_and_reduction() {
        let c = simple_calibration();
        let mut prev_th = f64::NEG_INFINITY;
        let mut prev_r = 1.1;
        for i in (1..=100).rev() {
            let a = i as f64 / 100.0;
            // As a decreases, th increases and r increases.
            let th = c.threshold(a).unwrap();
            let r = c.reduction(a).unwrap();
            assert!(th >= prev_th - 1e-12);
            let _ = prev_r; // r is checked against accuracy-ordered neighbor below
            prev_th = th;
            prev_r = r;
        }
        // Direct ordering check: r(0.9) >= r(0.99) >= r(1.0).
        let r90 = c.reduction(0.9).unwrap();
        let r99 = c.reduction(0.99).unwrap();
        let r100 = c.reduction(1.0).unwrap();
        assert!(r90 >= r99 && r99 >= r100);
    }

    #[test]
    fn validates_inputs() {
        assert!(Calibration::from_scored([]).is_err());
        assert!(Calibration::from_scored([(1.0, false), (2.0, false)]).is_err());
        assert!(Calibration::from_scored([(1.0, true)]).is_ok());
        let c = simple_calibration();
        assert!(c.threshold(0.0).is_err());
        assert!(c.threshold(1.1).is_err());
    }

    #[test]
    fn selectivity_and_support() {
        let c = simple_calibration();
        assert_eq!(c.support(), 22);
        assert_eq!(c.positive_support(), 10);
        assert!((c.selectivity() - 10.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_nonincreasing_in_a() {
        let c = simple_calibration();
        let curve = c.curve(26);
        assert_eq!(curve.len(), 26);
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 >= w[1].1 - 1e-12, "curve not monotone: {curve:?}");
        }
    }

    #[test]
    fn perfect_separation_drops_all_negatives_at_full_accuracy() {
        let pos = [10.0, 11.0, 12.0].map(|s| (s, true));
        let neg = [-1.0, -2.0, -3.0].map(|s| (s, false));
        let c = Calibration::from_scored(neg.into_iter().chain(pos)).unwrap();
        assert_eq!(c.reduction(1.0).unwrap(), 0.5);
        assert_eq!(c.accuracy_at_threshold(c.threshold(1.0).unwrap()), 1.0);
    }

    proptest::proptest! {
        #[test]
        fn threshold_guarantee_holds(
            pos in proptest::collection::vec(-100.0f64..100.0, 1..50),
            neg in proptest::collection::vec(-100.0f64..100.0, 1..200),
            a_pct in 1u32..=100,
        ) {
            let pos = pos.into_iter().map(|s| (s, true));
            let c = Calibration::from_scored(pos.chain(neg.into_iter().map(|s| (s, false)))).unwrap();
            let a = a_pct as f64 / 100.0;
            let th = c.threshold(a).unwrap();
            proptest::prop_assert!(c.accuracy_at_threshold(th) >= a - 1e-12);
            // Reduction is bounded by the share of blobs below the top positive.
            let r = c.reduction(a).unwrap();
            proptest::prop_assert!((0.0..=1.0).contains(&r));
        }

        #[test]
        fn reduction_monotone_in_accuracy(
            pos in proptest::collection::vec(-10.0f64..10.0, 2..40),
            neg in proptest::collection::vec(-10.0f64..10.0, 2..80),
        ) {
            let pos = pos.into_iter().map(|s| (s, true));
            let c = Calibration::from_scored(pos.chain(neg.into_iter().map(|s| (s, false)))).unwrap();
            let accs = [0.5, 0.7, 0.9, 0.95, 0.99, 1.0];
            for w in accs.windows(2) {
                let r_lo = c.reduction(w[0]).unwrap();
                let r_hi = c.reduction(w[1]).unwrap();
                proptest::prop_assert!(r_lo >= r_hi - 1e-12);
            }
        }
    }
}
