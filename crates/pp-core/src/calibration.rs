//! Per-PP calibration: accumulated predicted-vs-observed statistics across
//! runs.
//!
//! The planner's cost model runs on two per-PP curves — the validation
//! reduction estimate r(a) and the declared per-row cost — and both drift:
//! live data shifts away from the training distribution, models get
//! redeployed on different hardware. This module folds one
//! [`CalibrationRecord`] per executed run (predicted reduction/cost from
//! the chosen plan's estimate, observed reduction/cost from the executed
//! filter span) into running sums per PP key — `n`, Σerr, Σ|err|, the same
//! two for cost, Σpredicted, Σobserved — so a key's bias/MAE summary is a
//! handful of divisions however long the server has been up, and does not
//! depend on the order records arrived in (up to float association). The
//! [`RuntimeMonitor`](crate::runtime::RuntimeMonitor) turns those
//! summaries into a [`CalibrationReport`], into its
//! [`stale`](crate::runtime::RuntimeMonitor::stale) verdict on a plan
//! choosing a drifted key, and into a multiplicative reduction correction
//! the planner applies before allocation and ordering.
//!
//! Join keys match the rest of the feedback loop: records are keyed by the
//! PP's canonical key (`predicate.to_string()`) for single-PP plans and by
//! the composite expression display (e.g. `(PP[a] ∧ PP[b])`) otherwise —
//! the same strings the monitor's fault counters use.

use std::collections::BTreeMap;

use crate::runtime::{CALIBRATION_ERROR_THRESHOLD, CALIBRATION_MIN_SAMPLES};

/// One run's predicted-vs-observed sample for a PP (or composite PP
/// expression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationRecord {
    /// Reduction the chosen plan's estimate promised (`r(a)` under the
    /// allocated accuracies).
    pub predicted_reduction: f64,
    /// Reduction the executed filter span delivered
    /// (`1 − rows_emitted / rows_in`).
    pub observed_reduction: f64,
    /// Estimated per-blob filter cost in simulated seconds.
    pub predicted_cost: f64,
    /// Charged per-blob filter cost (`span.seconds / span.rows_in`).
    pub observed_cost: f64,
}

impl CalibrationRecord {
    /// Signed reduction error (observed − predicted).
    pub fn reduction_error(&self) -> f64 {
        self.observed_reduction - self.predicted_reduction
    }

    /// Signed cost error (observed − predicted).
    pub fn cost_error(&self) -> f64 {
        self.observed_cost - self.predicted_cost
    }
}

/// Bias/MAE summary of all records for one key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationSummary {
    /// Records accumulated.
    pub samples: u64,
    /// Mean signed reduction error (observed − predicted); negative means
    /// the PP over-promises reduction.
    pub reduction_bias: f64,
    /// Mean absolute reduction error.
    pub reduction_mae: f64,
    /// Mean signed cost error.
    pub cost_bias: f64,
    /// Mean absolute cost error.
    pub cost_mae: f64,
    /// Mean predicted reduction across records.
    pub mean_predicted_reduction: f64,
    /// Mean observed reduction across records.
    pub mean_observed_reduction: f64,
}

impl CalibrationSummary {
    /// Whether the key has drifted: at least [`CALIBRATION_MIN_SAMPLES`]
    /// records, with a reduction MAE above
    /// [`CALIBRATION_ERROR_THRESHOLD`]. The one definition the planner's
    /// correction and the staleness rule read.
    pub fn drifted(&self) -> bool {
        self.samples >= CALIBRATION_MIN_SAMPLES && self.reduction_mae > CALIBRATION_ERROR_THRESHOLD
    }

    /// The multiplicative correction that maps the mean predicted
    /// reduction onto the mean observed one (`observed / predicted`,
    /// clamped to `[0, 20]`). `None` without samples or when the mean
    /// prediction is ~zero (nothing to rescale).
    pub fn correction_factor(&self) -> Option<f64> {
        if self.samples == 0 || self.mean_predicted_reduction <= 1e-9 {
            return None;
        }
        Some((self.mean_observed_reduction / self.mean_predicted_reduction).clamp(0.0, 20.0))
    }
}

/// The running sums one key's records fold into — all a
/// [`CalibrationSummary`] needs, whatever the number of records.
#[derive(Debug, Clone, Copy, Default)]
struct CalibrationSums {
    n: u64,
    err: f64,
    abs_err: f64,
    cost_err: f64,
    abs_cost_err: f64,
    predicted: f64,
    observed: f64,
}

impl CalibrationSums {
    fn add(&mut self, r: &CalibrationRecord) {
        self.n += 1;
        self.err += r.reduction_error();
        self.abs_err += r.reduction_error().abs();
        self.cost_err += r.cost_error();
        self.abs_cost_err += r.cost_error().abs();
        self.predicted += r.predicted_reduction;
        self.observed += r.observed_reduction;
    }

    fn summary(&self) -> CalibrationSummary {
        let n = self.n as f64;
        CalibrationSummary {
            samples: self.n,
            reduction_bias: self.err / n,
            reduction_mae: self.abs_err / n,
            cost_bias: self.cost_err / n,
            cost_mae: self.abs_cost_err / n,
            mean_predicted_reduction: self.predicted / n,
            mean_observed_reduction: self.observed / n,
        }
    }
}

/// Folds [`CalibrationRecord`]s into per-key running sums and summarizes
/// them. State is one fixed-size accumulator per key: a record is added
/// to the sums and dropped, so memory and the cost of
/// [`summary`](Self::summary) / [`report`](Self::report) depend on the
/// number of keys, never on the number of runs observed.
#[derive(Debug, Clone, Default)]
pub struct CalibrationTracker {
    sums: BTreeMap<String, CalibrationSums>,
}

impl CalibrationTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        CalibrationTracker::default()
    }

    /// Folds one record into `key`'s sums.
    pub fn record(&mut self, key: &str, record: CalibrationRecord) {
        match self.sums.get_mut(key) {
            Some(sums) => sums.add(&record),
            None => self.sums.entry(key.to_string()).or_default().add(&record),
        }
    }

    /// The bias/MAE summary for `key`, or `None` if never recorded.
    pub fn summary(&self, key: &str) -> Option<CalibrationSummary> {
        self.sums.get(key).map(CalibrationSums::summary)
    }

    /// Summaries for every key, sorted by key.
    pub fn report(&self) -> CalibrationReport {
        let entries = self
            .sums
            .iter()
            .map(|(key, sums)| CalibrationEntry {
                key: key.clone(),
                summary: sums.summary(),
            })
            .collect();
        CalibrationReport { entries }
    }
}

/// One key's summary inside a [`CalibrationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationEntry {
    /// PP key (single PP) or composite expression display.
    pub key: String,
    /// Accumulated bias/MAE statistics.
    pub summary: CalibrationSummary,
}

/// The monitor's calibration digest: one entry per tracked key, sorted by
/// key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationReport {
    /// Per-key entries in sorted key order.
    pub entries: Vec<CalibrationEntry>,
}

impl CalibrationReport {
    /// The entry for `key`, if tracked.
    pub fn entry(&self, key: &str) -> Option<&CalibrationEntry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pred: f64, obs: f64) -> CalibrationRecord {
        CalibrationRecord {
            predicted_reduction: pred,
            observed_reduction: obs,
            predicted_cost: 0.01,
            observed_cost: 0.012,
        }
    }

    #[test]
    fn summary_computes_bias_and_mae() {
        let mut t = CalibrationTracker::new();
        t.record("k", rec(0.8, 0.6)); // error −0.2
        t.record("k", rec(0.8, 0.9)); // error +0.1
        let s = t.summary("k").unwrap();
        assert_eq!(s.samples, 2);
        assert!((s.reduction_bias - (-0.05)).abs() < 1e-12);
        assert!((s.reduction_mae - 0.15).abs() < 1e-12);
        assert!((s.cost_bias - 0.002).abs() < 1e-12);
        assert!((s.cost_mae - 0.002).abs() < 1e-12);
        assert!((s.mean_predicted_reduction - 0.8).abs() < 1e-12);
        assert!((s.mean_observed_reduction - 0.75).abs() < 1e-12);
        assert!(t.summary("unseen").is_none());
    }

    #[test]
    fn correction_factor_rescales_toward_observed() {
        let mut t = CalibrationTracker::new();
        t.record("k", rec(0.8, 0.2));
        let f = t.summary("k").unwrap().correction_factor().unwrap();
        assert!((f - 0.25).abs() < 1e-12);
        // Zero predicted reduction: nothing to rescale.
        let mut z = CalibrationTracker::new();
        z.record("k", rec(0.0, 0.5));
        assert!(z.summary("k").unwrap().correction_factor().is_none());
        // Observed above predicted clamps at 20×.
        let mut big = CalibrationTracker::new();
        big.record("k", rec(1e-3, 1.0));
        assert_eq!(big.summary("k").unwrap().correction_factor(), Some(20.0));
    }

    #[test]
    fn report_flags_drift_only_past_both_constants() {
        assert_eq!(
            (CALIBRATION_MIN_SAMPLES, CALIBRATION_ERROR_THRESHOLD),
            (2, 0.15)
        );
        let mut t = CalibrationTracker::new();
        // MAE 0.14 and 0.16 either side of the threshold, 0.4 well past it.
        for _ in 0..2 {
            t.record("within", rec(0.7, 0.56));
            t.record("past", rec(0.7, 0.54));
        }
        t.record("skewed", rec(0.8, 0.4));
        // One skewed sample is under the minimum: not yet trusted.
        let drifted = |t: &CalibrationTracker, key| t.summary(key).unwrap().drifted();
        assert!(!drifted(&t, "within"));
        assert!(drifted(&t, "past"));
        assert!(!drifted(&t, "skewed"));
        t.record("skewed", rec(0.8, 0.4));
        assert!(drifted(&t, "skewed"));
        // Entries come out sorted by key.
        let report = t.report();
        let keys: Vec<&str> = report.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["past", "skewed", "within"]);
        assert_eq!(
            report.entry("past").unwrap().summary,
            t.summary("past").unwrap()
        );
    }
}
