//! Full-stack determinism: every layer is seeded, so repeating an entire
//! experiment — dataset generation, PP training, query optimization, and
//! execution — must reproduce identical results.

use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::corpora::{coco_like, lshtc_like};
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::Catalog;
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec, Pipeline};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

fn run_once() -> (usize, f64, String) {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 1_200,
        seed: 0xD37,
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
        .map(|c| dataset.labeled_for_clause_range(c, 0..600))
        .collect();
    let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("train");
    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, 600..1_200);
    let qo = PpQueryOptimizer::new(
        pp_catalog,
        domains,
        QoConfig {
            accuracy_target: 0.95,
        },
    );
    let q = traf20_queries()
        .into_iter()
        .find(|q| q.id == 11)
        .expect("Q11");
    let plan = q.nop_plan(&dataset);
    let optimized = qo.optimize(&plan, &catalog).expect("optimize");
    let mut ctx = ExecutionContext::builder(&catalog)
        .with_parallelism(4)
        .build();
    let out = ctx.run(&optimized.plan).expect("execute");
    let chosen = optimized.report.chosen.map(|c| c.expr).unwrap_or_default();
    (out.len(), ctx.meter().cluster_seconds(), chosen)
}

#[test]
fn whole_stack_is_reproducible() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0, "row counts differ");
    assert!((a.1 - b.1).abs() < 1e-9, "cluster seconds differ");
    assert_eq!(a.2, b.2, "chosen plans differ");
}

#[test]
fn corpora_are_seed_stable() {
    let a = lshtc_like(100, 5);
    let b = lshtc_like(100, 5);
    assert_eq!(a.blobs()[37], b.blobs()[37]);
    let c = coco_like(100, 5);
    let d = coco_like(100, 5);
    assert_eq!(c.blobs()[99], d.blobs()[99]);
    // Different seeds change content.
    let e = coco_like(100, 6);
    assert_ne!(c.blobs()[99], e.blobs()[99]);
}

#[test]
fn pipelines_are_seed_stable() {
    let corpus = coco_like(400, 9);
    let set = corpus.labeled(0);
    let (train, val, _) = set.split(0.6, 0.2, 1).expect("split");
    let approach = Approach {
        reducer: ReducerSpec::Pca {
            k: 8,
            fit_sample: 200,
        },
        model: ModelSpec::Svm(SvmParams::default()),
    };
    let p1 = Pipeline::train(&approach, &train, &val, 2).expect("train");
    let p2 = Pipeline::train(&approach, &train, &val, 2).expect("train");
    let blob = &set.samples()[0].features;
    assert_eq!(p1.score(blob), p2.score(blob));
    assert_eq!(
        p1.reduction(0.95).expect("curve"),
        p2.reduction(0.95).expect("curve")
    );
}
