//! Golden-file and property tests for the metric exporters.
//!
//! The golden files under `tests/golden/` pin the OpenMetrics exposition
//! and the JSONL sink for one fixed seeded run of a deterministic
//! integer-table plan: a clean pass and a faulted pass. Byte-identity is
//! asserted for every artifact across parallelism K ∈ {1, 4} × batch ∈
//! {1, 64} — the exporters inherit the telemetry snapshot's determinism
//! contract. Regenerate after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test --test exporters`.
//!
//! The property test drives random counter names/values through a
//! [`MetricsRegistry`] and asserts the OpenMetrics rendering carries every
//! sample under its sanitized name.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::export::{
    openmetrics, openmetrics_registry, sanitize_metric_name, JsonlExporter, OpenMetricsExporter,
};
use probabilistic_predicates::engine::telemetry::MetricsRegistry;
use probabilistic_predicates::engine::udf::{ClosureFilter, ClosureProcessor};
use probabilistic_predicates::engine::{
    Catalog, Column, DataType, FaultPlan, FaultSpec, LogicalPlan, Row, Rowset, Schema,
    TelemetrySnapshot, Value,
};
use proptest::prelude::*;

/// A deterministic integer-table plan whose charges are exact in floating
/// point (small counts × small constants): scan → PP-like filter → tagger.
fn fixture_catalog() -> Catalog {
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
    let rows = (0..96).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let mut cat = Catalog::new();
    cat.register("t", Rowset::new(schema, rows).unwrap());
    cat
}

fn fixture_plan() -> LogicalPlan {
    let pp = Arc::new(ClosureFilter::new("PP[id % 3 = 0]", 0.015625, |row, _| {
        Ok(row.get(0).as_int()? % 3 == 0)
    }));
    let tagger = Arc::new(ClosureProcessor::map(
        "Tagger",
        vec![Column::new("tag", DataType::Int)],
        0.03125,
        |row, _, out| {
            out.push(Value::Int(row.get(0).as_int()? % 10));
            Ok(())
        },
    ));
    LogicalPlan::scan("t").filter(pp).process(tagger)
}

fn run(parallelism: usize, batch: usize, faults: bool) -> TelemetrySnapshot {
    let cat = fixture_catalog();
    let mut builder = ExecutionContext::builder(&cat)
        .with_parallelism(parallelism)
        .with_batch_size(batch);
    if faults {
        builder = builder.with_fault_plan(
            FaultPlan::new(0x601D).inject("PP[id % 3 = 0]", FaultSpec::transient(0.2)),
        );
    }
    let mut ctx = builder.build();
    ctx.run(&fixture_plan()).expect("run");
    let mut snap = ctx.telemetry().expect("snapshot").clone();
    snap.zero_wall_clock();
    snap
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
    assert_eq!(expected, actual, "golden mismatch for {name}");
}

/// The exporters reproduce the golden artifacts byte-for-byte at every
/// parallelism × batch combination, clean and faulted.
#[test]
fn exports_match_golden_files_across_schedules() {
    for parallelism in [1usize, 4] {
        for batch in [1usize, 64] {
            let clean = run(parallelism, batch, false);
            let faulted = run(parallelism, batch, true);

            let mut om = OpenMetricsExporter::new(Vec::new());
            om.export(&clean).unwrap();
            let om_clean = String::from_utf8(om.into_inner()).unwrap();
            assert_eq!(
                om_clean,
                openmetrics(&clean),
                "exporter wraps openmetrics()"
            );
            check_golden("openmetrics_clean.txt", &om_clean);
            check_golden("openmetrics_faulted.txt", &openmetrics(&faulted));

            let mut jsonl = JsonlExporter::new(Vec::new());
            jsonl.export(&clean).unwrap();
            jsonl.export(&faulted).unwrap();
            let lines = String::from_utf8(jsonl.into_inner()).unwrap();
            assert_eq!(lines.lines().count(), 2, "one record per snapshot");
            check_golden("snapshots.jsonl", &lines);
        }
    }
}

/// The faulted golden genuinely exercises the fault path.
#[test]
fn faulted_golden_contains_retries() {
    let faulted = run(1, 1, true);
    assert!(faulted.injected_fault_count() > 0, "fault plan must fire");
    let text = openmetrics(&faulted);
    assert!(text.contains("pp_injected_faults_total"));
    assert!(text.ends_with("# EOF\n"), "exposition must be terminated");
}

/// Counter names the property test draws from. Raw forms exercise the
/// sanitizer (dots, dashes, spaces, an already-prefixed name) while their
/// sanitized forms stay pairwise distinct, so samples never merge across
/// names.
fn counter_name_pool() -> Vec<&'static str> {
    vec![
        "rows",
        "retries.total",
        "queries total",
        "udf-cost",
        "pp_native",
        "latency.p99",
        "faults",
        "batch size",
    ]
}

proptest! {
    /// Every counter registered under a random name/value appears in the
    /// OpenMetrics rendering with its sanitized name, a TYPE line, and the
    /// exact accumulated value.
    #[test]
    fn registry_counters_round_trip_through_openmetrics(
        entries in proptest::collection::vec(
            (proptest::sample::select(counter_name_pool()), 1u64..1_000_000),
            1..8,
        )
    ) {
        let registry = MetricsRegistry::default();
        // Counters accumulate, so duplicate draws of the same name must be
        // summed before comparing against the rendered sample.
        let mut expected: std::collections::BTreeMap<&str, u64> = Default::default();
        for (name, value) in &entries {
            registry.counter(name).add(*value);
            *expected.entry(name).or_insert(0) += value;
        }
        let text = openmetrics_registry(&registry);
        prop_assert!(text.ends_with("# EOF\n"));
        for (name, value) in &expected {
            let sanitized = sanitize_metric_name(name);
            prop_assert!(
                text.contains(&format!("# TYPE {sanitized} counter\n")),
                "missing TYPE line for {sanitized} in:\n{text}"
            );
            prop_assert!(
                text.contains(&format!("{sanitized} {value}\n")),
                "missing sample {sanitized} {value} in:\n{text}"
            );
        }
    }
}
