//! The runtime monitor: dependent-predicate detection (Appendix A.5) plus
//! fault-health tracking for safe PP degradation.
//!
//! "If the PPs upon multiple predicate columns are dependent, the cost and
//! reduction rate estimation ... will be suboptimal. In such case, we apply
//! a runtime fix. If we observe that the PP cost and reduction rate at
//! runtime differ dramatically from their estimations, we flag such
//! predicates as possibly dependent so that the QO will only use one PP
//! (and not a combination of dependent PPs) in the future for that
//! predicate."
//!
//! This module generalizes that fix into a [`RuntimeMonitor`] which also
//! watches execution health: feeding it each run's [`TelemetrySnapshot`]
//! lets it mark PPs *broken* — ones whose filters keep failing or whose
//! circuit breakers tripped — so the planner stops injecting them. A
//! broken PP degrades the query to its no-PP plan: slower, never wrong.
//!
//! The monitor is a fold, not a log: every run is added to fixed-size
//! state (per PP key one pair of fault counters with the quarantine cause,
//! one set of calibration running sums; the dependency flags as a set) and
//! then dropped. Its memory and the cost of every read depend on how many
//! keys exist, never on how many runs were observed. Runs are its only
//! writer — the planner reads ([`is_flagged`](RuntimeMonitor::is_flagged),
//! [`is_broken`](RuntimeMonitor::is_broken),
//! [`reduction_correction`](RuntimeMonitor::reduction_correction)) and
//! records nothing.

use std::collections::{HashMap, HashSet};

use pp_engine::sync::RwLock;
use pp_engine::telemetry::TelemetrySnapshot;

use crate::calibration::{
    CalibrationRecord, CalibrationReport, CalibrationSummary, CalibrationTracker,
};
use crate::planner::PlanReport;

/// One runtime observation of a PP expression's behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Reduction predicted by the QO's estimate.
    pub estimated_reduction: f64,
    /// Reduction actually observed during execution.
    pub observed_reduction: f64,
}

impl Observation {
    /// Absolute deviation between estimate and observation.
    pub fn deviation(&self) -> f64 {
        (self.estimated_reduction - self.observed_reduction).abs()
    }
}

/// Thresholds governing when the monitor flags or quarantines a PP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Estimate-vs-observation reduction deviation above which a single
    /// observation is "dramatic" and flags its predicate as dependent
    /// (Appendix A.5's runtime fix).
    pub deviation_threshold: f64,
    /// Fraction of failed filter calls above which a PP is considered
    /// broken (once `min_calls` have been seen).
    pub fault_rate_threshold: f64,
    /// Minimum recorded calls before the fault rate is trusted; prevents a
    /// single unlucky call from quarantining a healthy PP.
    pub min_calls: u64,
    /// Mean absolute reduction-calibration error above which a PP key is
    /// considered drifted ([`RuntimeMonitor::needs_replan`] fires and the
    /// planner applies a reduction correction).
    pub calibration_error_threshold: f64,
    /// Minimum calibration records for a key before its error is trusted.
    pub calibration_min_samples: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            deviation_threshold: 0.15,
            fault_rate_threshold: 0.5,
            min_calls: 10,
            calibration_error_threshold: 0.15,
            calibration_min_samples: 2,
        }
    }
}

impl MonitorConfig {
    /// Sets the dependency-deviation threshold.
    pub fn with_deviation_threshold(mut self, t: f64) -> Self {
        self.deviation_threshold = t;
        self
    }

    /// Sets the broken-PP fault-rate threshold.
    pub fn with_fault_rate_threshold(mut self, t: f64) -> Self {
        self.fault_rate_threshold = t;
        self
    }

    /// Sets the minimum calls before fault rates are trusted.
    pub fn with_min_calls(mut self, n: u64) -> Self {
        self.min_calls = n;
        self
    }

    /// Sets the calibration reduction-MAE threshold.
    pub fn with_calibration_error_threshold(mut self, t: f64) -> Self {
        self.calibration_error_threshold = t;
        self
    }

    /// Sets the minimum calibration samples before drift is trusted.
    pub fn with_calibration_min_samples(mut self, n: u64) -> Self {
        self.calibration_min_samples = n;
        self
    }
}

/// Why a PP was quarantined — kept so operators can ask "why is this PP
/// not being used?" instead of reverse-engineering the broken set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Its observed failure rate crossed
    /// [`fault_rate_threshold`](MonitorConfig::fault_rate_threshold) at
    /// these cumulative counters.
    FaultRate {
        /// Filter calls recorded when the threshold was crossed.
        calls: u64,
        /// Failures recorded when the threshold was crossed.
        failures: u64,
    },
    /// Its operator's circuit breaker tripped during a query.
    BreakerTripped,
    /// Quarantined explicitly via [`RuntimeMonitor::mark_broken`].
    Manual,
    /// An online accuracy audit found the achieved accuracy below the
    /// promised target: replaying a sample of PP-dropped blobs through
    /// the ground-truth UDF pipeline put the Wilson lower confidence
    /// bound on achieved accuracy under the plan's promise. Values are
    /// fixed-point thousandths (e.g. `950` = 0.950) so the reason stays
    /// `Copy + Eq`.
    AccuracyViolation {
        /// The accuracy the plan promised, in thousandths.
        promised_millis: u32,
        /// The Wilson lower bound on achieved accuracy, in thousandths.
        achieved_millis: u32,
    },
}

/// Cumulative fault counters for one PP key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Filter calls attempted.
    pub calls: u64,
    /// Calls that failed.
    pub failures: u64,
}

impl FaultStats {
    /// Observed failure fraction (0 when never called).
    pub fn rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.failures as f64 / self.calls as f64
        }
    }
}

/// Tracks per-predicate estimate deviations (dependency flags) and
/// per-PP fault health (broken set), feeding both back into planning.
#[derive(Debug, Default)]
pub struct RuntimeMonitor {
    config: MonitorConfig,
    inner: RwLock<Inner>,
}

/// One PP key's fault counters and, once quarantined, the first cause.
#[derive(Debug, Default)]
struct Health {
    faults: FaultStats,
    quarantined: Option<QuarantineReason>,
}

#[derive(Debug, Default)]
struct Inner {
    flagged: HashSet<String>,
    health: HashMap<String, Health>,
    calibration: CalibrationTracker,
}

impl Inner {
    fn observe(&mut self, config: &MonitorConfig, predicate_key: &str, obs: Observation) {
        if obs.deviation() > config.deviation_threshold && !self.flagged.contains(predicate_key) {
            self.flagged.insert(predicate_key.to_string());
        }
    }

    /// Adds one operator's calls and failures to `pp_key`'s counters and
    /// quarantines it on a crossed fault rate or a tripped breaker. The
    /// first recorded cause wins: it is the reason the PP *became*
    /// quarantined.
    fn record_faults(
        &mut self,
        config: &MonitorConfig,
        pp_key: &str,
        calls: u64,
        failures: u64,
        breaker_tripped: bool,
    ) {
        let health = match self.health.get_mut(pp_key) {
            Some(health) => health,
            None => self.health.entry(pp_key.to_string()).or_default(),
        };
        health.faults.calls += calls;
        health.faults.failures += failures;
        let stats = health.faults;
        if stats.calls >= config.min_calls && stats.rate() >= config.fault_rate_threshold {
            health
                .quarantined
                .get_or_insert(QuarantineReason::FaultRate {
                    calls: stats.calls,
                    failures: stats.failures,
                });
        }
        if breaker_tripped {
            health
                .quarantined
                .get_or_insert(QuarantineReason::BreakerTripped);
        }
    }

    fn observe_telemetry(&mut self, config: &MonitorConfig, snapshot: &TelemetrySnapshot) {
        for span in &snapshot.spans {
            for key in pp_keys(&span.op) {
                self.record_faults(
                    config,
                    key,
                    span.attempts,
                    span.failures,
                    span.breaker_tripped,
                );
            }
        }
    }
}

impl RuntimeMonitor {
    /// A fresh monitor with default thresholds.
    pub fn new() -> Self {
        RuntimeMonitor::default()
    }

    /// A fresh monitor with explicit thresholds.
    pub fn with_config(config: MonitorConfig) -> Self {
        RuntimeMonitor {
            config,
            inner: RwLock::default(),
        }
    }

    /// The monitor's thresholds.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Records an execution of a (multi-PP) plan for `predicate_key` —
    /// canonically `predicate.to_string()` — flagging the predicate as
    /// possibly dependent when the observation deviates dramatically.
    pub fn observe(&self, predicate_key: &str, obs: Observation) {
        self.inner.write().observe(&self.config, predicate_key, obs);
    }

    /// Whether the predicate has been flagged as possibly dependent; the
    /// planner restricts flagged predicates to single-PP expressions.
    pub fn is_flagged(&self, predicate_key: &str) -> bool {
        self.inner.read().flagged.contains(predicate_key)
    }

    /// Clears a predicate's dependency flag (e.g. after retraining the PPs
    /// involved).
    pub fn clear(&self, predicate_key: &str) {
        self.inner.write().flagged.remove(predicate_key);
    }

    /// Accumulates fault counters for one PP key, quarantining it when its
    /// failure rate crosses the threshold.
    pub fn record_faults(&self, pp_key: &str, calls: u64, failures: u64) {
        self.inner
            .write()
            .record_faults(&self.config, pp_key, calls, failures, false);
    }

    /// Explicitly quarantines a PP (e.g. after an out-of-band incident).
    pub fn mark_broken(&self, pp_key: &str) {
        self.mark_broken_for(pp_key, QuarantineReason::Manual);
    }

    /// Quarantines a PP because an accuracy audit measured its achieved
    /// accuracy (Wilson lower bound) below the promised target. Both
    /// values are fractions in `[0, 1]`; they are stored as fixed-point
    /// thousandths in the [`QuarantineReason`]. The planner excludes the
    /// PP from future plans exactly like a fault-rate quarantine, so the
    /// next (re)plan restores the accuracy guarantee without it.
    pub fn quarantine_accuracy(&self, pp_key: &str, promised: f64, achieved_lower: f64) {
        let to_millis = |v: f64| (v.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self.mark_broken_for(
            pp_key,
            QuarantineReason::AccuracyViolation {
                promised_millis: to_millis(promised),
                achieved_millis: to_millis(achieved_lower),
            },
        );
    }

    fn mark_broken_for(&self, pp_key: &str, reason: QuarantineReason) {
        // The first recorded cause wins.
        self.inner
            .write()
            .health
            .entry(pp_key.to_string())
            .or_default()
            .quarantined
            .get_or_insert(reason);
    }

    /// Why `pp_key` is quarantined, or `None` if it is not.
    pub fn why_broken(&self, pp_key: &str) -> Option<QuarantineReason> {
        self.inner.read().health.get(pp_key)?.quarantined
    }

    /// Whether the PP is quarantined; the planner excludes broken PPs from
    /// candidate expressions, degrading to the no-PP plan if none remain.
    pub fn is_broken(&self, pp_key: &str) -> bool {
        self.why_broken(pp_key).is_some()
    }

    /// All quarantined PP keys, sorted.
    pub fn broken(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut keys: Vec<String> = inner
            .health
            .iter()
            .filter(|(_, health)| health.quarantined.is_some())
            .map(|(key, _)| key.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Cumulative fault counters for one PP key.
    pub fn fault_stats(&self, pp_key: &str) -> FaultStats {
        self.inner
            .read()
            .health
            .get(pp_key)
            .map(|health| health.faults)
            .unwrap_or_default()
    }

    /// Restores a quarantined PP and resets its fault counters (e.g. after
    /// redeploying a fixed model). Its calibration sums are kept — they
    /// describe the model's statistical behavior, not its health.
    pub fn restore(&self, pp_key: &str) {
        self.inner.write().health.remove(pp_key);
    }

    /// Digests one run's [`TelemetrySnapshot`]: every `PP[...]` span's
    /// attempts and failures are attributed to the PP keys named in it (a
    /// composite filter charges all its member leaves — conservative,
    /// since a broken PP only costs speed-up, never results), and a
    /// tripped circuit breaker quarantines those keys outright. This is
    /// all a run that *failed* contributes; a run that succeeded goes
    /// through [`observe_run`](Self::observe_run), which adds calibration.
    pub fn observe_telemetry(&self, snapshot: &TelemetrySnapshot) {
        self.inner.write().observe_telemetry(&self.config, snapshot);
    }

    /// Folds one predicted-vs-observed calibration record into the sums
    /// of a PP key (or composite expression display).
    pub fn record_calibration(&self, key: &str, record: CalibrationRecord) {
        self.inner.write().calibration.record(key, record);
    }

    /// The accumulated calibration summary for `key`, or `None` if never
    /// recorded.
    pub fn calibration_summary(&self, key: &str) -> Option<CalibrationSummary> {
        self.inner.read().calibration.summary(key)
    }

    /// The calibration digest across every tracked key, flagging drifted
    /// ones per this monitor's thresholds.
    pub fn calibration_report(&self) -> CalibrationReport {
        self.inner.read().calibration.report(
            self.config.calibration_min_samples,
            self.config.calibration_error_threshold,
        )
    }

    /// Whether any tracked key's calibration drifted past the configured
    /// threshold — the signal to re-run
    /// [`optimize_with_monitor`](crate::planner::PpQueryOptimizer::optimize_with_monitor)
    /// so corrections take effect.
    pub fn needs_replan(&self) -> bool {
        self.calibration_report().needs_replan()
    }

    /// The multiplicative reduction correction the planner should apply to
    /// `key`'s estimate, or `None` while the key is within threshold (or
    /// under-sampled). Only drifted keys are corrected so that noisy but
    /// healthy PPs keep their validation curves.
    pub fn reduction_correction(&self, key: &str) -> Option<f64> {
        let summary = self.calibration_summary(key)?;
        if summary.samples < self.config.calibration_min_samples
            || summary.reduction_mae <= self.config.calibration_error_threshold
        {
            return None;
        }
        summary.correction_factor()
    }

    /// Joins one run's plan report with its telemetry, under one write
    /// lock: digests the snapshot as
    /// [`observe_telemetry`][Self::observe_telemetry] does, then locates
    /// the chosen PP filter's span (by its injected operator name) and
    /// folds in a [`CalibrationRecord`] comparing the plan's estimate
    /// against the span's observed reduction and per-blob cost.
    /// Single-PP plans record under the leaf key (where
    /// [`reduction_correction`][Self::reduction_correction] looks);
    /// composites record under the expression display. The estimate is
    /// also fed to [`observe`][Self::observe], so a dramatic miss triggers
    /// Appendix A.5's dependent-predicate flag. Spans that aborted or saw
    /// no rows are skipped — their reduction is truncated, not observed.
    pub fn observe_run(&self, report: &PlanReport, snapshot: &TelemetrySnapshot) {
        let mut inner = self.inner.write();
        inner.observe_telemetry(&self.config, snapshot);
        let Some(chosen) = &report.chosen else {
            return;
        };
        let op = chosen.filter_op();
        let Some(span) = snapshot.spans.iter().find(|s| s.op == op) else {
            return;
        };
        if span.rows_in == 0 || span.rows_failed > 0 {
            return;
        }
        let observed_reduction = span.reduction();
        let key = match &chosen.leaf_keys[..] {
            [only] => only,
            _ => &chosen.expr,
        };
        inner.calibration.record(
            key,
            CalibrationRecord {
                predicted_reduction: chosen.estimate.reduction,
                observed_reduction,
                predicted_cost: chosen.estimate.cost,
                observed_cost: span.seconds / span.rows_in as f64,
            },
        );
        inner.observe(
            &self.config,
            &report.predicate,
            Observation {
                estimated_reduction: chosen.estimate.reduction,
                observed_reduction,
            },
        );
    }
}

/// Every `PP[<key>]` occurrence in an operator display name
/// (e.g. `(PP[t = SUV] ∧ PP[c = red])` → `t = SUV`, `c = red`).
fn pp_keys(op: &str) -> impl Iterator<Item = &str> {
    let mut rest = op;
    std::iter::from_fn(move || {
        let tail = &rest[rest.find("PP[")? + 3..];
        let end = tail.find(']')?;
        rest = &tail[end + 1..];
        Some(&tail[..end])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::telemetry::OperatorSpan;

    #[test]
    fn small_deviation_not_flagged() {
        let m = RuntimeMonitor::new();
        m.observe(
            "t = SUV",
            Observation {
                estimated_reduction: 0.5,
                observed_reduction: 0.45,
            },
        );
        assert!(!m.is_flagged("t = SUV"));
    }

    #[test]
    fn dramatic_deviation_flags() {
        let m = RuntimeMonitor::new();
        m.observe(
            "(t = SUV) AND (c = red)",
            Observation {
                estimated_reduction: 0.8,
                observed_reduction: 0.4,
            },
        );
        assert!(m.is_flagged("(t = SUV) AND (c = red)"));
        // Other predicates unaffected.
        assert!(!m.is_flagged("t = SUV"));
    }

    #[test]
    fn clear_resets() {
        let m = RuntimeMonitor::new();
        m.observe(
            "p",
            Observation {
                estimated_reduction: 1.0,
                observed_reduction: 0.0,
            },
        );
        assert!(m.is_flagged("p"));
        m.clear("p");
        assert!(!m.is_flagged("p"));
    }

    #[test]
    fn deviation_math() {
        let o = Observation {
            estimated_reduction: 0.7,
            observed_reduction: 0.55,
        };
        assert!((o.deviation() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn deviation_threshold_is_configurable() {
        let strict =
            RuntimeMonitor::with_config(MonitorConfig::default().with_deviation_threshold(0.01));
        strict.observe(
            "p",
            Observation {
                estimated_reduction: 0.5,
                observed_reduction: 0.45,
            },
        );
        assert!(strict.is_flagged("p"));
        let lax =
            RuntimeMonitor::with_config(MonitorConfig::default().with_deviation_threshold(0.5));
        lax.observe(
            "p",
            Observation {
                estimated_reduction: 0.8,
                observed_reduction: 0.4,
            },
        );
        assert!(!lax.is_flagged("p"));
    }

    #[test]
    fn fault_rate_quarantines_after_min_calls() {
        let m = RuntimeMonitor::with_config(
            MonitorConfig::default()
                .with_fault_rate_threshold(0.5)
                .with_min_calls(10),
        );
        // Below min_calls: a bad rate is not yet trusted.
        m.record_faults("t = SUV", 5, 5);
        assert!(!m.is_broken("t = SUV"));
        // Crossing min_calls with rate ≥ 0.5 quarantines.
        m.record_faults("t = SUV", 5, 1);
        assert!(m.is_broken("t = SUV"));
        assert_eq!(
            m.fault_stats("t = SUV"),
            FaultStats {
                calls: 10,
                failures: 6
            }
        );
        assert_eq!(m.broken(), vec!["t = SUV".to_string()]);
        m.restore("t = SUV");
        assert!(!m.is_broken("t = SUV"));
        assert_eq!(m.fault_stats("t = SUV").calls, 0);
    }

    #[test]
    fn healthy_rate_never_quarantines() {
        let m = RuntimeMonitor::new();
        m.record_faults("t = SUV", 1000, 10);
        assert!(!m.is_broken("t = SUV"));
    }

    fn pp_span(op: &str, rows_in: u64, rows_emitted: u64, failures: u64) -> OperatorSpan {
        use pp_engine::telemetry::{LatencyHistogram, OperatorId};
        OperatorSpan {
            op_id: OperatorId(0),
            op: op.to_string(),
            rows_in,
            rows_out: rows_emitted,
            rows_filtered: rows_in - rows_emitted,
            rows_failed: 0,
            rows_emitted,
            attempts: rows_in,
            retries: 0,
            failures,
            timeouts: 0,
            failed_open: 0,
            short_circuited: 0,
            breaker_tripped: false,
            seconds: 0.0,
            latency: LatencyHistogram::new(),
            wall_nanos: 0,
        }
    }

    fn snapshot_of(spans: Vec<OperatorSpan>) -> TelemetrySnapshot {
        use pp_engine::telemetry::QueryId;
        TelemetrySnapshot {
            query_id: QueryId(1),
            spans,
            events: Vec::new(),
            events_dropped: 0,
            injected_faults: Vec::new(),
            metrics: Vec::new(),
            error: None,
            wall_nanos: 0,
        }
    }

    #[test]
    fn observe_telemetry_attributes_pp_spans() {
        let m = RuntimeMonitor::new();
        let mut pp = pp_span("PP[t = SUV]", 20, 20, 20);
        pp.breaker_tripped = true;
        m.observe_telemetry(&snapshot_of(vec![
            pp,
            pp_span("Process[VehType]", 100, 100, 100),
        ]));
        assert!(m.is_broken("t = SUV"));
        // Non-PP operators are not the monitor's business.
        assert!(!m.is_broken("Process[VehType]"));
        assert!(!m.is_broken("VehType"));
        assert_eq!(m.broken(), vec!["t = SUV".to_string()]);
    }

    #[test]
    fn composite_filter_charges_all_leaves() {
        let composite = "PP(PP[t = SUV] ∧ PP[c = red])";
        let stats = FaultStats {
            calls: 40,
            failures: 30,
        };
        let m = RuntimeMonitor::new();
        m.observe_telemetry(&snapshot_of(vec![pp_span(composite, 40, 40, 30)]));
        for key in ["t = SUV", "c = red"] {
            assert!(m.is_broken(key));
            assert_eq!(m.fault_stats(key), stats);
        }
        // The same attribution through the successful-run entry point.
        let m = RuntimeMonitor::new();
        let report = report_with_chosen(
            "(PP[t = SUV] ∧ PP[c = red])",
            vec!["t = SUV", "c = red"],
            0.0,
        );
        m.observe_run(&report, &snapshot_of(vec![pp_span(composite, 40, 40, 30)]));
        for key in ["t = SUV", "c = red"] {
            assert_eq!(m.fault_stats(key), stats);
            assert!(matches!(
                m.why_broken(key),
                Some(QuarantineReason::FaultRate { .. })
            ));
        }
    }

    #[test]
    fn aborted_spans_count_faults_but_are_not_observed_reductions() {
        let m = RuntimeMonitor::new();
        let report = report_with_chosen("PP[t = SUV]", vec!["t = SUV"], 0.6);
        let mut span = pp_span("PP[t = SUV]", 100, 10, 90);
        span.rows_failed = 90;
        span.rows_filtered = 0;
        m.observe_run(&report, &snapshot_of(vec![span]));
        // The truncated reduction (0.9 against 0.6) is neither a
        // calibration sample nor a dependency signal.
        assert!(m.calibration_summary("t = SUV").is_none());
        assert!(!m.is_flagged("t = SUV"));
        // Fault counters still accumulate from the aborted span.
        assert_eq!(m.fault_stats("t = SUV").failures, 90);
    }

    #[test]
    fn quarantine_reasons_are_explainable() {
        let m = RuntimeMonitor::with_config(
            MonitorConfig::default()
                .with_fault_rate_threshold(0.5)
                .with_min_calls(10),
        );
        assert!(m.why_broken("t = SUV").is_none());
        m.record_faults("t = SUV", 10, 8);
        assert_eq!(
            m.why_broken("t = SUV"),
            Some(QuarantineReason::FaultRate {
                calls: 10,
                failures: 8
            })
        );
        // The first cause sticks even if another arrives later.
        m.mark_broken("t = SUV");
        assert!(matches!(
            m.why_broken("t = SUV"),
            Some(QuarantineReason::FaultRate { .. })
        ));
        m.restore("t = SUV");
        assert!(m.why_broken("t = SUV").is_none());

        // No failures, so the fault-rate path stays quiet and the breaker
        // transition is the first (and only) recorded cause.
        let mut span = pp_span("PP[c = red]", 20, 20, 0);
        span.breaker_tripped = true;
        m.observe_telemetry(&snapshot_of(vec![span]));
        assert_eq!(
            m.why_broken("c = red"),
            Some(QuarantineReason::BreakerTripped)
        );
        m.mark_broken("manual");
        assert_eq!(m.why_broken("manual"), Some(QuarantineReason::Manual));
    }

    fn report_with_chosen(expr: &str, leaf_keys: Vec<&str>, reduction: f64) -> PlanReport {
        use crate::combine::Estimate;
        use crate::planner::ChosenPlan;
        PlanReport {
            predicate: "t = SUV".into(),
            chosen: Some(ChosenPlan {
                table: "video".into(),
                expr: expr.into(),
                leaf_accuracies: vec![0.95; leaf_keys.len()],
                leaf_keys: leaf_keys.into_iter().map(String::from).collect(),
                leaf_reductions: vec![reduction],
                estimate: Estimate {
                    accuracy: 0.95,
                    reduction,
                    cost: 0.01,
                },
            }),
            ..Default::default()
        }
    }

    #[test]
    fn observe_run_joins_filter_span_and_records_calibration() {
        let m = RuntimeMonitor::new();
        // Single-leaf plan: injected filter op is PP[t = SUV], key is leaf.
        let report = report_with_chosen("PP[t = SUV]", vec!["t = SUV"], 0.6);
        let mut span = pp_span("PP[t = SUV]", 100, 40, 0);
        span.seconds = 1.2;
        m.observe_run(&report, &snapshot_of(vec![span]));
        let s = m.calibration_summary("t = SUV").expect("recorded");
        assert_eq!(s.samples, 1);
        assert!((s.mean_observed_reduction - 0.6).abs() < 1e-12);
        assert!((s.cost_bias - 0.002).abs() < 1e-12); // 1.2/100 − 0.01
                                                      // Accurate estimate: neither flagged nor drifted.
        assert!(!m.is_flagged("t = SUV"));
        assert!(!m.needs_replan());

        // Composite plans record under the expression display.
        let m = RuntimeMonitor::new();
        let report = report_with_chosen("(PP[a] ∧ PP[b])", vec!["a", "b"], 0.6);
        m.observe_run(
            &report,
            &snapshot_of(vec![pp_span("PP(PP[a] ∧ PP[b])", 100, 40, 0)]),
        );
        assert!(m.calibration_summary("(PP[a] ∧ PP[b])").is_some());
        assert!(m.calibration_summary("a").is_none());
    }

    #[test]
    fn observe_run_skips_missing_empty_or_aborted_spans() {
        let m = RuntimeMonitor::new();
        let report = report_with_chosen("PP[t = SUV]", vec!["t = SUV"], 0.6);
        // No matching span (filter never ran).
        m.observe_run(&report, &snapshot_of(vec![pp_span("Scan[video]", 9, 9, 0)]));
        assert!(m.calibration_summary("t = SUV").is_none());
        // Empty span.
        m.observe_run(&report, &snapshot_of(vec![pp_span("PP[t = SUV]", 0, 0, 0)]));
        assert!(m.calibration_summary("t = SUV").is_none());
        // Aborted span: fault counters accumulate, calibration does not.
        let mut span = pp_span("PP[t = SUV]", 100, 10, 5);
        span.rows_failed = 5;
        m.observe_run(&report, &snapshot_of(vec![span]));
        assert!(m.calibration_summary("t = SUV").is_none());
        assert_eq!(m.fault_stats("t = SUV").failures, 5);
        // A PP-free report only digests telemetry.
        m.observe_run(
            &PlanReport::default(),
            &snapshot_of(vec![pp_span("PP[t = SUV]", 100, 40, 0)]),
        );
        assert!(m.calibration_summary("t = SUV").is_none());
    }

    #[test]
    fn drifted_calibration_triggers_replan_and_correction() {
        let m = RuntimeMonitor::new(); // min_samples 2, threshold 0.15
        let report = report_with_chosen("PP[t = SUV]", vec!["t = SUV"], 0.8);
        // Observed reduction collapses to 0.1 against an 0.8 estimate.
        m.observe_run(
            &report,
            &snapshot_of(vec![pp_span("PP[t = SUV]", 100, 90, 0)]),
        );
        // One sample: not yet trusted.
        assert!(!m.needs_replan());
        assert!(m.reduction_correction("t = SUV").is_none());
        m.observe_run(
            &report,
            &snapshot_of(vec![pp_span("PP[t = SUV]", 100, 90, 0)]),
        );
        assert!(m.needs_replan());
        let entry_drifted = m
            .calibration_report()
            .entry("t = SUV")
            .is_some_and(|e| e.drifted);
        assert!(entry_drifted);
        let scale = m.reduction_correction("t = SUV").expect("drifted");
        assert!((scale - 0.125).abs() < 1e-9, "got {scale}"); // 0.1 / 0.8
                                                              // The dramatic miss also raised the A.5 dependency flag.
        assert!(m.is_flagged("t = SUV"));
        assert!(m.reduction_correction("unseen").is_none());
    }

    #[test]
    fn pp_key_extraction() {
        let keys = |op| pp_keys(op).collect::<Vec<_>>();
        assert_eq!(keys("PP[t = SUV]"), vec!["t = SUV"]);
        assert_eq!(keys("(PP[a] ∨ (PP[b] ∧ PP[c]))"), vec!["a", "b", "c"]);
        assert!(keys("Scan[video]").is_empty());
        assert!(keys("PP[unterminated").is_empty());
    }
}
