//! Telemetry report: per-operator observability for the TRAF-20 workload.
//!
//! Runs a PP-optimized TRAF-20 query twice — once clean, once under a
//! seeded fault plan aimed at its probabilistic predicates — and renders
//! the per-operator span table from the [`TelemetrySnapshot`]: rows in /
//! out, reduction, simulated p50/p99 latency, retries, and injected
//! faults. Both runs are then fed to the runtime monitor so the
//! calibration and quarantine diagnostics are shown end to end.
//!
//! [`TelemetrySnapshot`]: pp_engine::TelemetrySnapshot

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use pp_bench::setup::{clean_and_faulted_q1, CleanAndFaulted};
use pp_bench::table::{f2, Table};
use pp_core::RuntimeMonitor;
use pp_engine::{EventKind, TelemetrySnapshot};

/// Milliseconds with two decimals, for simulated per-row latencies.
fn ms(seconds: f64) -> String {
    format!("{:.2}ms", seconds * 1e3)
}

/// Operator names can be long; keep the table narrow.
fn clip(op: &str, width: usize) -> String {
    if op.len() <= width {
        op.to_string()
    } else {
        format!("{}…", &op[..width - 1])
    }
}

fn span_table(title: &str, snap: &TelemetrySnapshot) -> Table {
    let mut faults_by_op: BTreeMap<&str, u64> = BTreeMap::new();
    for f in &snap.injected_faults {
        *faults_by_op.entry(f.op.as_str()).or_default() += 1;
    }
    let mut table = Table::new(title).headers([
        "op", "operator", "rows in", "rows out", "filtered", "failed", "reduce", "p50", "p99",
        "retries", "faults",
    ]);
    for span in &snap.spans {
        table.row([
            format!("#{}", span.op_id.0),
            clip(&span.op, 28),
            span.rows_in.to_string(),
            span.rows_out.to_string(),
            span.rows_filtered.to_string(),
            span.rows_failed.to_string(),
            f2(span.reduction()),
            ms(span.latency.p50()),
            ms(span.latency.p99()),
            span.retries.to_string(),
            faults_by_op
                .get(span.op.as_str())
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    table
}

fn event_summary(snap: &TelemetrySnapshot) -> String {
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &snap.events {
        *by_kind.entry(e.kind.name()).or_default() += e.count;
    }
    if by_kind.is_empty() {
        return "none".to_string();
    }
    by_kind
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> pp_bench::Result<()> {
    let CleanAndFaulted {
        query: q,
        optimized,
        pp_ops,
        clean,
        faulted,
    } = clean_and_faulted_q1()?;

    println!(
        "TRAF-20 Q{} ({}), PP plan @ accuracy 0.95, parallelism 4\n",
        q.id, q.kind
    );
    span_table("Clean run — per-operator spans", &clean).print();
    println!("events: {}\n", event_summary(&clean));
    span_table(
        "Faulted run — transient 8% + timeout 2% on every PP",
        &faulted,
    )
    .print();
    println!("events: {}", event_summary(&faulted));
    println!(
        "injected faults: {}  retries: {}  conservation violations: {}\n",
        faulted.injected_fault_count(),
        faulted.total_retries(),
        faulted.conservation_violations().len(),
    );
    if faulted.injected_fault_count() == 0 || faulted.total_retries() == 0 {
        return Err("the seeded fault plan should fire and force retries".into());
    }
    if !(clean.conservation_violations().is_empty() && faulted.conservation_violations().is_empty())
    {
        return Err("row conservation must hold in both runs".into());
    }
    let timeouts = faulted
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Timeout)
        .map(|e| e.count)
        .sum::<u64>();
    println!("timeout events: {timeouts}");

    // Feed both runs to the runtime monitor: two calibration samples per
    // PP are what its default thresholds trust, so drift is reportable.
    let monitor = RuntimeMonitor::new();
    monitor.observe_run(&optimized.report, &clean);
    monitor.observe_run(&optimized.report, &faulted);
    let mut pp_table = Table::new("Runtime monitor — per-PP state after both runs").headers([
        "pp",
        "samples",
        "mean observed r",
        "reduction MAE",
        "fault calls",
        "fault rate",
        "quarantined",
    ]);
    for op in &pp_ops {
        let key = op
            .strip_prefix("PP[")
            .and_then(|s| s.strip_suffix(']'))
            .unwrap_or(op);
        let stats = monitor.fault_stats(key);
        let calibration = monitor.calibration_summary(key).unwrap_or_default();
        pp_table.row([
            clip(key, 28),
            calibration.samples.to_string(),
            format!("{:.4}", calibration.mean_observed_reduction),
            format!("{:.4}", calibration.reduction_mae),
            stats.calls.to_string(),
            f2(stats.rate()),
            match monitor.why_broken(key) {
                Some(reason) => format!("{reason:?}"),
                None => "no".to_string(),
            },
        ]);
    }
    pp_table.print();
    Ok(())
}
