//! EXPLAIN ANALYZE acceptance: plan-vs-actual joins and determinism.
//!
//! Over a PP-optimized TRAF-20 query these tests lock down the tentpole
//! contract: (1) the annotated tree joins every charged operator to its
//! prediction — no orphan spans, no unmatched predictions, and per-node
//! actuals agree exactly with the telemetry spans; (2) after zeroing
//! wall-clock fields, the ANALYZE JSON and the OpenMetrics exposition are
//! byte-identical across parallelism K ∈ {1, 2, 4, 8} × batch ∈ {1, 7,
//! 64}, with and without seeded fault injection; (3) drifted calibration
//! makes the plan stale, re-optimizing produces a different plan, and
//! query results stay byte-identical.

use std::sync::OnceLock;

mod common;

use probabilistic_predicates::core::alloc::ACCURACY_GRID;
use probabilistic_predicates::core::planner::{OptimizedQuery, PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::{PpCatalog, ProbabilisticPredicate, RuntimeMonitor};
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::export::openmetrics;
use probabilistic_predicates::engine::{
    Catalog, Clause, CompareOp, ExplainAnalyze, FaultPlan, FaultSpec, LogicalPlan, Predicate,
    TelemetrySnapshot,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

/// A PP-optimized TRAF-20 Q1 plan over a held-out slice, with its full
/// optimizer output (predictions included), the PP catalog and domains to
/// re-optimize with, and the injected PP filter's operator name.
struct Fixture {
    catalog: Catalog,
    optimized: OptimizedQuery,
    nop_plan: LogicalPlan,
    pp_catalog: PpCatalog,
    domains: Domains,
    pp_op: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0x0B5E,
            ..Default::default()
        });
        let trainer = PpTrainer::new(TrainerConfig {
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(0.0025),
            ..Default::default()
        });
        let clauses = TrafficDataset::pp_corpus_clauses();
        let labeled: Vec<_> = clauses
            .iter()
            .map(|c| dataset.labeled_for_clause_range(c, 0..400))
            .collect();
        let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("train");
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let qo = PpQueryOptimizer::new(pp_catalog.clone(), domains.clone(), QoConfig::default());
        let q1 = traf20_queries()
            .into_iter()
            .find(|q| q.id == 1)
            .expect("Q1");
        let nop_plan = q1.nop_plan(&dataset);
        let optimized = qo.optimize(&nop_plan, &catalog).expect("optimize");
        let chosen = optimized.report.chosen.as_ref().expect("Q1 must get a PP");
        let pp_op = chosen.filter_op();
        Fixture {
            catalog,
            optimized,
            nop_plan,
            pp_catalog,
            domains,
            pp_op,
        }
    })
}

fn run_snapshot(
    f: &Fixture,
    parallelism: usize,
    batch: usize,
    seed: Option<u64>,
) -> TelemetrySnapshot {
    let mut builder = ExecutionContext::builder(&f.catalog)
        .with_parallelism(parallelism)
        .with_batch_size(batch);
    if let Some(seed) = seed {
        builder = builder.with_fault_plan(FaultPlan::new(seed).inject(
            &f.pp_op,
            FaultSpec::transient(0.15).with_timeouts(0.05, 2.0),
        ));
    }
    let mut ctx = builder.build();
    ctx.run(&f.optimized.plan)
        .expect("run succeeds (PPs fail open)");
    let mut snap = ctx.telemetry().expect("snapshot").clone();
    snap.zero_wall_clock();
    snap
}

/// Every charged operator joins its prediction: no orphan spans, no
/// unmatched predictions, no unjoined nodes — and the joined actuals agree
/// with the snapshot's spans exactly.
#[test]
fn analyze_joins_every_operator_to_its_prediction() {
    let f = fixture();
    for seed in [None, Some(0xFA07u64)] {
        let snap = run_snapshot(f, 2, 7, seed);
        let analyze =
            ExplainAnalyze::analyze(&f.optimized.plan, &f.optimized.report.predictions, &snap)
                .expect("join");
        assert!(analyze.orphan_spans().is_empty(), "no orphan spans");
        assert!(
            analyze.unjoined_nodes().is_empty(),
            "completed run joins every prediction"
        );
        let nodes = analyze.nodes();
        assert_eq!(nodes.len(), snap.spans.len(), "one node per span");
        assert_eq!(nodes.len(), f.optimized.report.predictions.len());
        for node in &nodes {
            let span = snap
                .spans
                .iter()
                .find(|s| s.op_id == node.op_id)
                .expect("span at node id");
            let actual = node.actual.as_ref().expect("joined");
            assert_eq!(actual.op, span.op);
            assert_eq!(actual.op, node.predicted.op, "join is name-validated");
            assert_eq!(actual.rows_in, span.rows_in, "{}", node.op);
            assert_eq!(actual.rows_out, span.rows_out, "{}", node.op);
            assert_eq!(actual.rows_emitted, span.rows_emitted, "{}", node.op);
            assert_eq!(actual.rows_failed, span.rows_failed, "{}", node.op);
            assert!(node.rows_error().is_some(), "{}", node.op);
        }
        // The charged PP operator is among the joined nodes.
        assert!(nodes.iter().any(|n| n.op == f.pp_op));
        // The render covers every operator once.
        let rendered = analyze.render();
        for node in &nodes {
            assert!(rendered.contains(&format!("#{} {}", node.op_id.0, node.op)));
        }
    }
}

/// The determinism contract, extended to the ANALYZE JSON and the
/// OpenMetrics exposition: byte-identical at every parallelism × batch
/// size, with and without seeded faults.
#[test]
fn analyze_json_and_openmetrics_are_byte_identical_across_schedules() {
    let f = fixture();
    for seed in [None, Some(0xFA07u64)] {
        let mut reference: Option<(String, String)> = None;
        for parallelism in [1usize, 2, 4, 8] {
            for batch in [1usize, 7, 64] {
                let snap = run_snapshot(f, parallelism, batch, seed);
                if seed.is_some() {
                    assert!(snap.injected_fault_count() > 0, "fault plan must fire");
                }
                let analyze = ExplainAnalyze::analyze(
                    &f.optimized.plan,
                    &f.optimized.report.predictions,
                    &snap,
                )
                .expect("join");
                let artifacts = (analyze.to_json(), openmetrics(&snap));
                match &reference {
                    None => reference = Some(artifacts),
                    Some(expected) => {
                        assert_eq!(
                            expected.0, artifacts.0,
                            "ANALYZE JSON diverged at K={parallelism} batch={batch} faults={seed:?}"
                        );
                        assert_eq!(
                            expected.1, artifacts.1,
                            "OpenMetrics diverged at K={parallelism} batch={batch} faults={seed:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Skewing a PP's observed reduction past the calibration threshold makes
/// the plan choosing it stale; re-optimizing applies the correction and picks a
/// different plan, while the query's results stay byte-identical (the
/// correction rescales estimates, never verdicts).
///
/// Result byte-identity is made airtight by construction: the catalog
/// holds two PPs wrapping the *same* trained pipeline (one mimicking
/// `vehType = SUV` cheaply, one mimicking the implied `vehType != sedan`
/// at higher cost), and the accuracy target is the highest grid point that
/// pipeline certifies — so a conjunction of the two falls short of it,
/// every feasible candidate is one leaf at that point making identical
/// per-blob verdicts, and any plan the QO picks returns the same rows.
#[test]
fn calibration_drift_replans_without_changing_results() {
    let f = fixture();
    let suv = Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"));
    let not_sedan = Predicate::from(Clause::new("vehType", CompareOp::Ne, "sedan"));
    let base = f.pp_catalog.get(&suv).expect("trained PP for Q1");
    let mut shared = PpCatalog::new();
    shared.insert(
        ProbabilisticPredicate::new(suv.clone(), base.pipeline().clone(), 0.0025).expect("pp"),
    );
    shared
        .insert(ProbabilisticPredicate::new(not_sedan, base.pipeline().clone(), 0.01).expect("pp"));
    let top = (ACCURACY_GRID.into_iter().rev())
        .find(|&a| base.certified_threshold(a).is_some())
        .expect("a certified grid point");
    let config = QoConfig {
        accuracy_target: top,
    };
    let qo = PpQueryOptimizer::new(shared, f.domains.clone(), config);
    let monitor = RuntimeMonitor::new();

    let first = qo
        .optimize_with_monitor(&f.nop_plan, &f.catalog, Some(&monitor))
        .expect("optimize");
    let first_chosen = first.report.chosen.as_ref().expect("injects").clone();
    assert!(
        first_chosen
            .leaf_keys
            .contains(&"vehType = SUV".to_string()),
        "the cheap PP should participate: {first_chosen:?}"
    );
    let mut ctx = ExecutionContext::new(&f.catalog);
    let first_rows = ctx.run(&first.plan).expect("first run");
    let snap = ctx.telemetry().expect("snapshot").clone();
    monitor.observe_run(&first.report, &snap);
    assert!(
        !monitor.stale(&first.report),
        "one observation is not yet drift"
    );

    // Runtime feedback: runs of the cheap PP (for another predicate)
    // achieve no reduction at all.
    for id in 0..3 {
        let key = vec!["vehType = SUV".to_string()];
        let estimated = first_chosen.estimate.reduction;
        let (report, snapshot) = common::observed_run(id, "another", key, estimated, 1000, 0);
        monitor.observe_run(&report, &snapshot);
    }
    assert!(
        monitor.stale(&first.report),
        "skewed reduction must make the plan stale"
    );
    assert!(monitor
        .calibration_report()
        .entry("vehType = SUV")
        .is_some_and(|e| e.summary.drifted()));

    let corrected = qo
        .optimize_with_monitor(&f.nop_plan, &f.catalog, Some(&monitor))
        .expect("re-optimize");
    let corrected_chosen = corrected.report.chosen.as_ref().expect("still injects");
    assert_ne!(
        first_chosen.expr, corrected_chosen.expr,
        "corrected plan must differ"
    );
    assert!(
        corrected_chosen.leaf_keys == vec!["vehType != sedan".to_string()],
        "the drifted PP loses the costing to the implied alternative: {corrected_chosen:?}"
    );
    let corrected_rows = ctx.run(&corrected.plan).expect("corrected run");
    assert_eq!(
        format!("{first_rows:?}"),
        format!("{corrected_rows:?}"),
        "replanning must not change query results"
    );
}
