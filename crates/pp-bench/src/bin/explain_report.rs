//! EXPLAIN ANALYZE report: plan-vs-actual calibration for TRAF-20.
//!
//! Runs a PP-optimized TRAF-20 query twice — once clean, once under a
//! seeded fault plan aimed at its probabilistic predicates — and renders
//! the annotated [`ExplainAnalyze`] tree for each run: predicted vs actual
//! rows, reduction, and charged seconds per operator, with relative-error
//! annotations. It fails unless the fault plan fired and forced retries
//! and every span of both runs conserves its rows. The clean snapshot is
//! then emitted in both export formats (OpenMetrics text exposition and
//! one JSONL record) to show the scrape surface, and both runs are fed to
//! the runtime monitor to print its calibration report, whether the plan
//! is now [`stale`](pp_core::RuntimeMonitor::stale), and each PP's fault
//! calls, fault rate and quarantine cause.
//!
//! [`ExplainAnalyze`]: pp_engine::ExplainAnalyze

#![deny(clippy::unwrap_used, clippy::expect_used)]

use pp_bench::setup::{clean_and_faulted_q1, CleanAndFaulted};
use pp_bench::table::{f2, Table};
use pp_core::RuntimeMonitor;
use pp_engine::export::openmetrics;
use pp_engine::ExplainAnalyze;

fn main() -> pp_bench::Result<()> {
    let CleanAndFaulted {
        query: q,
        optimized,
        mut clean,
        mut faulted,
    } = clean_and_faulted_q1()?;
    if optimized.report.predictions.is_empty() {
        return Err("the QO must forecast the emitted plan".into());
    }
    clean.zero_wall_clock();
    faulted.zero_wall_clock();

    println!(
        "TRAF-20 Q{} ({}), PP plan @ accuracy 0.95, parallelism 4\n",
        q.id, q.kind
    );

    let clean_analyze =
        ExplainAnalyze::analyze(&optimized.plan, &optimized.report.predictions, &clean)?;
    if !(clean_analyze.unjoined_nodes().is_empty() && clean_analyze.orphan_spans().is_empty()) {
        return Err("a completed run joins every operator".into());
    }
    println!("-- clean run --");
    print!("{}", clean_analyze.render());

    let faulted_analyze =
        ExplainAnalyze::analyze(&optimized.plan, &optimized.report.predictions, &faulted)?;
    println!("\n-- faulted run (transient 8% + timeout 2% on every PP) --");
    print!("{}", faulted_analyze.render());
    println!(
        "injected faults: {}  retries: {}  conservation violations: {}",
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

    // Export surfaces: OpenMetrics text exposition + one JSONL record.
    println!("\n-- OpenMetrics exposition (clean run) --");
    print!("{}", openmetrics(&clean));
    println!("\n-- JSONL record (clean run) --");
    println!("{}", clean.to_json());

    // Calibration feedback: both runs observed, report printed.
    let monitor = RuntimeMonitor::new();
    monitor.observe_run(&optimized.report, &clean);
    monitor.observe_run(&optimized.report, &faulted);
    println!("\n-- calibration report after both runs --");
    for entry in monitor.calibration_report().entries {
        println!(
            "{}: samples={} reduction bias={:+.4} mae={:.4} cost bias={:+.2e} drifted={}",
            entry.key,
            entry.summary.samples,
            entry.summary.reduction_bias,
            entry.summary.reduction_mae,
            entry.summary.cost_bias,
            entry.summary.drifted(),
        );
    }
    println!("stale: {}", monitor.stale(&optimized.report));
    println!();
    let mut pp_table = Table::new("Runtime monitor — per-PP faults after both runs").headers([
        "pp",
        "fault calls",
        "fault rate",
        "quarantined",
    ]);
    let leaf_keys = optimized.report.chosen.iter().flat_map(|c| &c.leaf_keys);
    for key in leaf_keys {
        let stats = monitor.fault_stats(key);
        pp_table.row([
            key.to_string(),
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
