//! End-to-end integration: dataset generation → label harvesting through
//! the engine → PP training → query optimization → execution, asserting
//! the paper's core guarantees (§3): injecting PPs never adds false
//! positives, respects the accuracy target (within calibration tolerance),
//! and reduces cluster processing time.

use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::{Catalog, RowRef};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

struct World {
    dataset: TrafficDataset,
    catalog: Catalog,
    qo: PpQueryOptimizer,
}

fn build_world(accuracy: f64) -> World {
    // Enough training frames that per-PP calibration (20% validation
    // split) is stable; with tiny validation sets the val→test threshold
    // gap dominates and accuracy bounds get noisy.
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 4_000,
        seed: 0xE2E,
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
        .map(|c| dataset.labeled_for_clause_range(c, 0..1_500))
        .collect();
    let pp_catalog = trainer
        .train_catalog(&clauses, &labeled)
        .expect("train corpus");
    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, 1_500..4_000);
    let qo = PpQueryOptimizer::new(
        pp_catalog,
        domains,
        QoConfig {
            accuracy_target: accuracy,
        },
    );
    World {
        dataset,
        catalog,
        qo,
    }
}

fn row_key(row: RowRef<'_>) -> i64 {
    row.get(1).as_int().expect("frameID")
}

#[test]
fn pp_plans_are_subsets_with_bounded_loss_and_lower_cost() {
    let world = build_world(0.95);
    let mut ctx = ExecutionContext::builder(&world.catalog)
        .with_parallelism(4)
        .build();
    let mut improved = 0usize;
    for q in traf20_queries() {
        let plan = q.nop_plan(&world.dataset);
        let baseline = ctx.run(&plan).expect("baseline");
        let baseline_secs = ctx.meter().cluster_seconds();
        let optimized = world.qo.optimize(&plan, &world.catalog).expect("optimize");
        let fast = ctx.run(&optimized.plan).expect("pp plan");
        let pp_secs = ctx.meter().cluster_seconds();

        // No false positives: the PP output is a subset of the baseline.
        let base_keys: std::collections::HashSet<i64> = baseline.row_refs().map(row_key).collect();
        for row in fast.row_refs() {
            assert!(
                base_keys.contains(&row_key(row)),
                "Q{}: PP plan produced a row the baseline did not",
                q.id
            );
        }
        // Bounded false negatives (target 0.95 with calibration slack —
        // very selective queries have tiny output sets, so only check when
        // the baseline output is large enough to measure).
        if baseline.len() >= 50 {
            let acc = fast.len() as f64 / baseline.len() as f64;
            assert!(
                acc >= 0.80,
                "Q{}: accuracy {acc} too far below target",
                q.id
            );
        }
        // Cost must never exceed the baseline when a PP was injected.
        if optimized.report.chosen.is_some() {
            assert!(
                pp_secs <= baseline_secs * 1.001,
                "Q{}: PP plan cost {pp_secs} exceeds baseline {baseline_secs}",
                q.id,
            );
            if pp_secs < 0.8 * baseline_secs {
                improved += 1;
            }
        }
    }
    assert!(
        improved >= 12,
        "only {improved}/20 queries sped up substantially"
    );
}

/// No finite validation sample certifies full recall, so at a = 1.0 every
/// candidate is reported infeasible and each query runs its PP-free plan,
/// returning exactly the baseline's rows.
#[test]
fn accuracy_target_one_keeps_validation_guarantee() {
    let world = build_world(1.0);
    let mut ctx = ExecutionContext::builder(&world.catalog)
        .with_parallelism(4)
        .build();
    let mut candidates = 0;
    for q in traf20_queries().into_iter().filter(|q| q.id % 4 == 0) {
        let plan = q.nop_plan(&world.dataset);
        let baseline = ctx.run(&plan).expect("baseline");
        let optimized = world.qo.optimize(&plan, &world.catalog).expect("optimize");
        let report = &optimized.report;
        assert!(report.chosen.is_none(), "Q{}: {:?}", q.id, report.chosen);
        assert!(report.candidates.iter().all(|c| !c.feasible), "Q{}", q.id);
        let refused = !report.candidates.is_empty();
        assert_eq!(report.uncertified_leaves > 0, refused, "Q{}", q.id);
        candidates += report.candidates.len();
        let fast = ctx.run(&optimized.plan).expect("pp plan");
        assert_eq!(
            format!("{:?}", fast.rows()),
            format!("{:?}", baseline.rows()),
            "Q{}",
            q.id
        );
    }
    assert!(candidates > 0, "the queries have PP candidates to refuse");
}

#[test]
fn optimizer_reports_are_complete() {
    let world = build_world(0.95);
    let q = traf20_queries()
        .into_iter()
        .find(|q| q.id == 16)
        .expect("Q16");
    let plan = q.nop_plan(&world.dataset);
    let optimized = world.qo.optimize(&plan, &world.catalog).expect("optimize");
    let report = &optimized.report;
    assert!(report.feasible_count > 0);
    assert!(!report.candidates.is_empty());
    assert!(report.udf_cost_per_blob > 0.0);
    assert!(report.reduction_range().is_some());
    let chosen = report.chosen.as_ref().expect("Q16 should inject");
    assert!(chosen.estimate.accuracy >= 0.95 - 1e-9);
    assert!(!chosen.leaf_accuracies.is_empty());
    // The plan tree contains the injected filter right above the scan.
    let text = optimized.plan.explain();
    let filter_pos = text.find("Filter[PP").expect("filter in plan");
    let scan_pos = text.find("Scan[traffic]").expect("scan in plan");
    assert!(filter_pos < scan_pos);
}
