//! Admission control: queue-depth limits and per-query cost budgets.
//!
//! A serving runtime that accepts unbounded work converts overload into
//! latency collapse. The controller bounds in-flight work in two places:
//!
//! * **At submit** — a depth gate counting queued + running queries.
//!   Beyond [`AdmissionConfig::max_queue_depth`] the request is shed with
//!   [`RejectReason::QueueFull`]. The [`Permit`] is a drop guard, so the
//!   count can never leak on an error or panic path.
//! * **At dispatch** — once the (possibly cached) plan is known, its
//!   per-operator predictions are replayed into a fresh
//!   [`CostMeter`] — the same accounting the
//!   executor charges — and the predicted cluster-seconds are compared
//!   against [`AdmissionConfig::cost_budget_cluster_seconds`]. Plans that
//!   would blow the budget are shed with
//!   [`RejectReason::CostBudgetExceeded`] *before* any UDF runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pp_core::planner::PlanReport;
use pp_engine::cost::CostMeter;
use pp_engine::sync::{Condvar, Mutex};

use crate::request::RejectReason;

/// Admission-control knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum queued + running queries; submits beyond this are shed.
    pub max_queue_depth: usize,
    /// Per-query predicted-cost ceiling in cluster-seconds (`None`
    /// disables the check).
    pub cost_budget_cluster_seconds: Option<f64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 256,
            cost_budget_cluster_seconds: None,
        }
    }
}

/// Counts in-flight queries; cloned into every worker.
#[derive(Debug, Default)]
pub struct DepthGate {
    depth: AtomicUsize,
    /// Pairs with `idle_cv` so [`wait_idle`][DepthGate::wait_idle] can
    /// sleep between permit releases without missing a wakeup.
    idle: Mutex<()>,
    idle_cv: Condvar,
}

impl DepthGate {
    /// A gate at depth zero.
    pub fn new() -> Self {
        DepthGate::default()
    }

    /// Current queued + running queries.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Tries to admit one query under `limit`. On success the returned
    /// [`Permit`] holds the slot until dropped.
    pub fn try_acquire(self: &Arc<Self>, limit: usize) -> Result<Permit, RejectReason> {
        let mut current = self.depth.load(Ordering::SeqCst);
        loop {
            if current >= limit {
                return Err(RejectReason::QueueFull {
                    depth: current,
                    limit,
                });
            }
            match self.depth.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(Permit(Arc::clone(self))),
                Err(actual) => current = actual,
            }
        }
    }

    /// Blocks until the depth reaches zero or `timeout` elapses; returns
    /// `true` when idle. The server's drain uses this to give in-flight
    /// queries their grace period before firing cancellation tokens.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.idle.lock();
        loop {
            if self.depth() == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Short slices bound the wait even if a notification is
            // somehow lost; permit drops notify under the lock, so in
            // practice each release wakes the waiter immediately.
            let slice = (deadline - now).min(Duration::from_millis(10));
            let (g, _) = self.idle_cv.wait_timeout(guard, slice);
            guard = g;
        }
    }
}

/// One admitted query's slot in the depth gate. Releasing is the drop —
/// the slot survives neither success, error, nor panic paths.
#[derive(Debug)]
pub struct Permit(Arc<DepthGate>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.depth.fetch_sub(1, Ordering::SeqCst);
        // Taking the mutex orders this release after any in-progress
        // depth check in `wait_idle`, so the notification cannot be lost.
        drop(self.0.idle.lock());
        self.0.idle_cv.notify_all();
    }
}

/// Replays a plan's per-operator predictions into a fresh cost meter and
/// returns its cluster-seconds — the predicted bill for running this plan
/// once, in exactly the units the executor charges.
pub fn predicted_cluster_seconds(report: &PlanReport) -> f64 {
    let mut meter = CostMeter::new();
    for p in &report.predictions {
        meter.charge(
            p.op.clone(),
            p.rows_in.round() as usize,
            p.rows_out.round() as usize,
            p.seconds,
        );
    }
    meter.cluster_seconds()
}

/// Checks a plan against the configured per-query budget.
pub fn check_cost_budget(
    config: &AdmissionConfig,
    report: &PlanReport,
) -> Result<(), RejectReason> {
    let Some(budget) = config.cost_budget_cluster_seconds else {
        return Ok(());
    };
    let predicted = predicted_cluster_seconds(report);
    if predicted > budget {
        return Err(RejectReason::CostBudgetExceeded {
            predicted_cluster_seconds: predicted,
            budget_cluster_seconds: budget,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::explain::OperatorPrediction;
    use pp_engine::telemetry::OperatorId;

    #[test]
    fn depth_gate_admits_up_to_limit_and_releases_on_drop() {
        let gate = Arc::new(DepthGate::new());
        let a = gate.try_acquire(2).unwrap();
        let _b = gate.try_acquire(2).unwrap();
        assert_eq!(gate.depth(), 2);
        match gate.try_acquire(2) {
            Err(RejectReason::QueueFull { depth: 2, limit: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        drop(a);
        assert_eq!(gate.depth(), 1);
        let _c = gate.try_acquire(2).unwrap();
    }

    #[test]
    fn permit_releases_on_panic() {
        let gate = Arc::new(DepthGate::new());
        let g = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            let _permit = g.try_acquire(1).unwrap();
            panic!("worker died");
        });
        assert!(handle.join().is_err());
        assert_eq!(gate.depth(), 0, "panicked permit leaked its slot");
    }

    fn report_costing(seconds: f64) -> PlanReport {
        PlanReport {
            predictions: vec![OperatorPrediction {
                op_id: OperatorId(0),
                op: "Udf[x]".into(),
                rows_in: 100.0,
                rows_out: 50.0,
                seconds,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn cost_budget_rejects_expensive_plans_only() {
        let config = AdmissionConfig {
            cost_budget_cluster_seconds: Some(1.0),
            ..Default::default()
        };
        assert!(check_cost_budget(&config, &report_costing(0.5)).is_ok());
        match check_cost_budget(&config, &report_costing(2.0)) {
            Err(RejectReason::CostBudgetExceeded {
                predicted_cluster_seconds,
                budget_cluster_seconds,
            }) => {
                assert!((predicted_cluster_seconds - 2.0).abs() < 1e-12);
                assert!((budget_cluster_seconds - 1.0).abs() < 1e-12);
            }
            other => panic!("expected CostBudgetExceeded, got {other:?}"),
        }
        // No budget configured: everything passes.
        assert!(check_cost_budget(&AdmissionConfig::default(), &report_costing(1e9)).is_ok());
    }
}
