//! Helpers shared between integration-test crates (`mod common;`).

use probabilistic_predicates::core::combine::Estimate;
use probabilistic_predicates::core::planner::{ChosenPlan, PlanReport};
use probabilistic_predicates::engine::telemetry::{
    LatencyHistogram, OperatorId, OperatorSpan, QueryId, TelemetrySnapshot,
};

fn span(id: u32, op: &str, rows_in: u64, rows_emitted: u64, failures: u64) -> OperatorSpan {
    OperatorSpan {
        op_id: OperatorId(id),
        op: op.to_string(),
        rows_in,
        rows_out: rows_emitted,
        rows_filtered: rows_in - rows_emitted,
        rows_failed: 0,
        rows_emitted,
        attempts: rows_in + failures,
        retries: failures,
        failures,
        timeouts: 0,
        failed_open: 0,
        short_circuited: 0,
        breaker_tripped: false,
        seconds: rows_in as f64 * 1.25e-3,
        latency: LatencyHistogram::new(),
        wall_nanos: 0,
    }
}

/// Twenty (plan report, telemetry) pairs shaped like what a served query
/// hands `RuntimeMonitor::observe_run`: query `i` filters 1 000 blobs with
/// one PP (even `i`) or a two-leaf conjunction (odd `i`), retries `i`
/// transient failures, and lands within a few points of its estimated
/// reduction — so every run is a calibration sample and a fault sample,
/// and none trips a threshold.
pub fn observed_runs() -> Vec<(PlanReport, TelemetrySnapshot)> {
    (0..20u64)
        .map(|i| {
            let leaf_keys: Vec<String> = if i % 2 == 0 {
                vec![format!("col{i} = v")]
            } else {
                vec![format!("col{i} = v"), format!("col{i} != w")]
            };
            let expr = match &leaf_keys[..] {
                [only] => format!("PP[{only}]"),
                keys => format!("(PP[{}] ∧ PP[{}])", keys[0], keys[1]),
            };
            let chosen = ChosenPlan {
                table: "traffic".into(),
                expr,
                leaf_accuracies: vec![0.95; leaf_keys.len()],
                leaf_reductions: vec![0.6; leaf_keys.len()],
                leaf_keys,
                estimate: Estimate {
                    accuracy: 0.95,
                    reduction: 0.6,
                    cost: 1e-3,
                },
            };
            let kept = 400 - 2 * i;
            let snapshot = TelemetrySnapshot {
                query_id: QueryId(i),
                spans: vec![
                    span(0, "Scan[traffic]", 1000, 1000, 0),
                    span(1, &chosen.filter_op(), 1000, kept, i),
                    span(2, "Process[Udf]", kept, kept, 0),
                ],
                events: Vec::new(),
                events_dropped: 0,
                injected_faults: Vec::new(),
                metrics: Vec::new(),
                error: None,
                wall_nanos: 0,
            };
            let report = PlanReport {
                predicate: format!("query {i}"),
                chosen: Some(chosen),
                ..Default::default()
            };
            (report, snapshot)
        })
        .collect()
}
