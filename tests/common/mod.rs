//! Helpers shared between integration-test crates (`mod common;`).
// Each test crate compiles its own copy and uses a subset of it.
#![allow(dead_code)]

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

/// A (plan report, telemetry) pair shaped like what a served query hands
/// `RuntimeMonitor::observe_run`, the monitor's one writer: query `id`
/// for `predicate` chose a PP over `leaf_keys` (a conjunction when more
/// than one) estimated to drop `estimated` of the 1 000 blobs its filter
/// saw, and the filter kept `kept` of them after retrying `failures`
/// transient failures.
pub fn observed_run(
    id: u64,
    predicate: &str,
    leaf_keys: Vec<String>,
    estimated: f64,
    kept: u64,
    failures: u64,
) -> (PlanReport, TelemetrySnapshot) {
    let expr = match &leaf_keys[..] {
        [only] => format!("PP[{only}]"),
        keys => format!("(PP[{}])", keys.join("] ∧ PP[")),
    };
    let chosen = ChosenPlan {
        table: "traffic".into(),
        expr,
        leaf_accuracies: vec![0.95; leaf_keys.len()],
        leaf_reductions: vec![estimated; leaf_keys.len()],
        leaf_keys,
        estimate: Estimate {
            accuracy: 0.95,
            reduction: estimated,
            cost: 1e-3,
        },
    };
    let snapshot = TelemetrySnapshot {
        query_id: QueryId(id),
        spans: vec![
            span(0, "Scan[traffic]", 1000, 1000, 0),
            span(1, &chosen.filter_op(), 1000, kept, failures),
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
        predicate: predicate.into(),
        chosen: Some(chosen),
        ..Default::default()
    };
    (report, snapshot)
}

/// Twenty [`observed_run`]s: query `i` filters with one PP (even `i`) or
/// a two-leaf conjunction (odd `i`), retries `i` transient failures, and
/// lands within a few points of its estimated reduction — so every run
/// is a calibration sample and a fault sample, and none trips a
/// threshold.
pub fn observed_runs() -> Vec<(PlanReport, TelemetrySnapshot)> {
    (0..20u64)
        .map(|i| {
            let leaf_keys: Vec<String> = if i % 2 == 0 {
                vec![format!("col{i} = v")]
            } else {
                vec![format!("col{i} = v"), format!("col{i} != w")]
            };
            observed_run(i, &format!("query {i}"), leaf_keys, 0.6, 400 - 2 * i, i)
        })
        .collect()
}
