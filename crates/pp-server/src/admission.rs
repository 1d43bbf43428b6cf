//! Admission control: queue-depth limits and per-query cost budgets.
//!
//! A serving runtime that accepts unbounded work converts overload into
//! latency collapse. The controller bounds in-flight work in two places:
//!
//! * **At submit** — the server's map of admitted, unanswered requests
//!   (the one record of what is in flight) is the queue depth. At
//!   [`AdmissionConfig::max_queue_depth`] entries the request is shed
//!   with [`RejectReason::QueueFull`]. A request's entry leaves the map
//!   when its one response is sent, whatever ended it.
//! * **At dispatch** — once the (possibly cached) plan is known, its
//!   per-operator predicted seconds are summed in charge order — the sum
//!   the executor's [`CostMeter`](pp_engine::cost::CostMeter) takes — and
//!   the predicted cluster-seconds are compared
//!   against [`AdmissionConfig::cost_budget_cluster_seconds`]. Plans that
//!   would blow the budget are shed with
//!   [`RejectReason::CostBudgetExceeded`] *before* any UDF runs.

use pp_core::planner::PlanReport;

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

/// The sum of a plan's per-operator predicted seconds, in charge order —
/// the predicted bill for running this plan once, in exactly the units
/// (and the summation order) the executor's cost meter charges.
pub fn predicted_cluster_seconds(report: &PlanReport) -> f64 {
    report.predictions.iter().map(|p| p.seconds).sum()
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
