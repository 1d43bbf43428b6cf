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
//! Keeping exactly `⌈a·m⌉` of the `m` validation positives would be a point
//! estimate: on fresh data about half of all PPs would fall short of `a`.
//! So `th(a]` keeps the top `k` positives, with `k` the smallest count for
//! which `P(Binom(m, a) ≥ k) ≤ δ` ([`certified_keep`], δ = [`DELTA`]).
//! Were the true recall at that threshold below `a`, at least `k` of `m`
//! positives drawn at recall `a` would have scored above it, which happens
//! with probability at most δ: the threshold *certifies* recall ≥ `a` with
//! confidence `1 − δ` (the Clopper–Pearson order statistic). This is a
//! sampling guarantee — it assumes fresh blobs are drawn like the
//! validation ones, and says nothing under drift.
//!
//! Some `k ≤ m` qualifies only when `aᵐ ≤ δ`, i.e. `m ≥ ⌈ln δ / ln a⌉`:
//! 29 positives certify `a = 0.9`, 59 certify 0.95, 299 certify 0.99, and
//! none certify `a = 1`. Where `a` cannot be certified,
//! [`threshold`](Calibration::threshold) and
//! [`reduction`](Calibration::reduction) keep all `m` positives, so they
//! stay total (reporting reads them), while
//! [`certified_threshold`](Calibration::certified_threshold) is `None` and a
//! planner serves no such threshold.
//!
//! The decision rule here uses `≥` where the paper's Eq. 2 writes `>`; with
//! `≥`, `th(a]` is exactly the `k`-th largest positive score, so at least
//! `k` validation positives pass even with tied scores.

use crate::{MlError, Result};

/// The confidence a certified threshold may miss its accuracy target with:
/// `th(a]` keeps recall ≥ `a` on fresh data drawn like the validation data
/// with probability at least `1 − DELTA`.
pub const DELTA: f64 = 0.05;

/// The smallest `k ≤ m` with `P(Binom(m, a) ≥ k) ≤ DELTA`: keeping the top
/// `k` of `m` validation positives certifies recall ≥ `a`. `None` when no
/// `k ≤ m` qualifies (`m < ⌈ln δ / ln a⌉`), always so at `a = 1`, and for an
/// `a` outside `(0, 1)`.
///
/// Walks the binomial tail down from `k = m`, each term in log space, so it
/// allocates nothing and underflows nowhere that matters: terms too small
/// to represent are too small to move the tail.
pub fn certified_keep(m: usize, a: f64) -> Option<usize> {
    if !(a > 0.0 && a < 1.0) {
        return None;
    }
    let (ln_a, ln_b) = (a.ln(), (-a).ln_1p());
    // ln P(X = k), starting at k = m, and the tail P(X ≥ k); at m = 0 the
    // tail is 1.
    let mut ln_pmf = m as f64 * ln_a;
    let mut tail = ln_pmf.exp();
    if tail > DELTA {
        return None;
    }
    let mut k = m;
    // P(X = k − 1) = P(X = k) · k / (m − k + 1) · (1 − a) / a; the tail
    // reaches 1 at k = 0, so the walk stops before it.
    loop {
        ln_pmf += (k as f64).ln() - ((m - k + 1) as f64).ln() + ln_b - ln_a;
        let wider = tail + ln_pmf.exp();
        if wider > DELTA {
            return Some(k);
        }
        tail = wider;
        k -= 1;
    }
}

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

    /// `th(a]` per Eq. 3: the threshold keeping the top
    /// [`certified_keep`]`(m, a)` positives, or all `m` of them when the
    /// positives cannot certify `a` (see the module doc).
    ///
    /// Errors if `a ∉ (0, 1]`.
    pub fn threshold(&self, a: f64) -> Result<f64> {
        if !(a > 0.0 && a <= 1.0) {
            return Err(MlError::InvalidParameter("accuracy must be in (0, 1]"));
        }
        Ok(self.certified_threshold(a).unwrap_or(self.pos_scores[0]))
    }

    /// `th(a]` when the validation positives certify recall ≥ `a` at
    /// confidence `1 − δ`, `None` when they cannot (too few positives,
    /// `a = 1`, or `a ∉ (0, 1)`).
    pub fn certified_threshold(&self, a: f64) -> Option<f64> {
        let m = self.pos_scores.len();
        certified_keep(m, a).map(|keep| self.pos_scores[m - keep])
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // No 10 positives certify a = 1.0: th(1] keeps all 10, so it is
        // the smallest positive score.
        assert_eq!(c.certified_threshold(1.0), None);
        assert_eq!(c.threshold(1.0).unwrap(), 1.0);
        // a = 0.5 keeps 9 of 10: P(Binom(10, 0.5) ≥ 9) ≈ 0.011 ≤ δ, while
        // P(≥ 8) ≈ 0.055 is not. The threshold is the 9th largest, 2.0.
        assert_eq!(c.threshold(0.5).unwrap(), 2.0);
        assert_eq!(c.certified_threshold(0.5), Some(2.0));
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
    fn minimum_support_is_the_least_m_with_a_to_the_m_at_most_delta() {
        for (a, least) in [
            (0.9, 29),
            (0.95, 59),
            (0.98, 149),
            (0.99, 299),
            (0.995, 598),
        ] {
            assert_eq!(certified_keep(least, a), Some(least), "a={a}");
            assert_eq!(certified_keep(least - 1, a), None, "a={a}");
        }
        assert_eq!(certified_keep(59, 0.95), Some(59));
        assert_eq!(certified_keep(58, 0.95), None);
    }

    #[test]
    fn nothing_certifies_full_accuracy_or_an_empty_sample() {
        for m in [0, 1, 59, 1_000, 100_000] {
            assert_eq!(certified_keep(m, 1.0), None, "m={m}");
        }
        assert_eq!(certified_keep(0, 0.5), None);
        for a in [0.0, -0.5, 1.5, f64::NAN] {
            assert_eq!(certified_keep(1_000, a), None, "a={a}");
        }
    }

    /// The binomial tail summed term by term in plain `f64`, for samples
    /// small enough that no term under- or overflows.
    fn reference_keep(m: usize, a: f64) -> Option<usize> {
        let mut pmf = vec![0.0f64; m + 1];
        let mut choose = 1.0f64;
        for (j, p) in pmf.iter_mut().enumerate() {
            *p = choose * a.powi(j as i32) * (1.0 - a).powi((m - j) as i32);
            choose = choose * (m - j) as f64 / (j + 1) as f64;
        }
        let mut tail = 0.0;
        let mut keep = None;
        for k in (1..=m).rev() {
            tail += pmf[k];
            if tail > DELTA {
                break;
            }
            keep = Some(k);
        }
        keep
    }

    #[test]
    fn certified_keep_is_the_least_k_whose_binomial_tail_is_within_delta() {
        for a in [0.5, 0.8, 0.9, 0.95, 0.97, 0.99] {
            for m in 1..=160 {
                assert_eq!(certified_keep(m, a), reference_keep(m, a), "m={m} a={a}");
            }
        }
    }

    #[test]
    fn certified_keep_keeps_at_least_the_point_estimate_and_stays_finite() {
        for a in [0.5, 0.9, 0.95, 0.99, 0.999] {
            for m in [7_000, 100_000] {
                let k = certified_keep(m, a).unwrap();
                assert!(
                    k >= (a * m as f64).ceil() as usize && k <= m,
                    "m={m} a={a} k={k}"
                );
            }
        }
        // At m = 100 000 and a = 0.95 the normal approximation puts k about
        // 1.645 standard deviations (68.9 each) above the mean of 95 000.
        let k = certified_keep(100_000, 0.95).unwrap();
        assert!((95_100..95_130).contains(&k), "k={k}");
    }

    /// The accuracy gate, per leaf: with validation positives drawn from a
    /// known score distribution, the certified threshold's recall on
    /// held-out positives from the same distribution meets the target in
    /// at least `1 − δ − SLACK` of the trials. `SLACK = 0.03` covers the
    /// trial count (the standard error of a 0.05 miss share over 800
    /// trials is 0.008) and the held-out sample's own noise (2 000
    /// positives read a recall of 0.95 to ±0.005).
    #[test]
    fn certified_thresholds_meet_their_target_on_held_out_data() {
        const TRIALS: usize = 800;
        const HELD_OUT: usize = 2_000;
        const SLACK: f64 = 0.03;
        let mut rng = StdRng::seed_from_u64(0xCE27);
        // Positive scores: a skewed, known distribution (u³, u uniform).
        let mut draw =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(0.0..1.0f64).powi(3)).collect() };
        for (m, a) in [
            (29, 0.9),
            (59, 0.95),
            (120, 0.95),
            (300, 0.9),
            (300, 0.99),
            (745, 0.98),
        ] {
            let mut met = 0;
            for _ in 0..TRIALS {
                let negatives = draw(m).into_iter().map(|s| (s - 1.0, false));
                let c = Calibration::from_scored(
                    draw(m).into_iter().map(|s| (s, true)).chain(negatives),
                )
                .unwrap();
                let th = c
                    .certified_threshold(a)
                    .expect("m is at least the minimum support");
                let kept = draw(HELD_OUT).into_iter().filter(|&s| s >= th).count();
                if kept as f64 >= a * HELD_OUT as f64 {
                    met += 1;
                }
            }
            let share = met as f64 / TRIALS as f64;
            assert!(share >= 1.0 - DELTA - SLACK, "m={m} a={a}: met in {share}");
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
