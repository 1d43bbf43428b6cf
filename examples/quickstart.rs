//! Quickstart: train one probabilistic predicate and use it to accelerate
//! an ML inference query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The scenario is the paper's §1 setup in miniature: a table of raw blobs,
//! an expensive UDF materializing a relational column, and a selective
//! predicate stuck behind the UDF. We train a PP for the predicate clause,
//! let the query optimizer inject it above the scan, and compare cost.

use std::sync::Arc;

use probabilistic_predicates::core::train::harvest_labels;
use probabilistic_predicates::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 1. A blob table: 2 000 "images"; an image contains a cat iff its
    //    latent feature points in the cat direction.
    let mut rng = StdRng::seed_from_u64(7);
    let schema = Schema::new(vec![
        Column::new("imageID", DataType::Int),
        Column::new("image", DataType::Blob),
    ])
    .expect("schema");
    let rows: Vec<Row> = (0..2_000)
        .map(|i| {
            let has_cat = rng.gen_bool(0.1);
            let shift = if has_cat { 1.5 } else { -1.5 };
            let blob: Vec<f64> = (0..16)
                .map(|d| if d == 0 { shift } else { 0.0 } + rng.gen_range(-1.0..1.0))
                .collect();
            Row::new(vec![Value::Int(i), Value::blob(Features::Dense(blob))])
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("images", Rowset::new(schema, rows).expect("rows"));

    // 2. The expensive classifier UDF (50 ms of simulated cluster time per
    //    image) that materializes the `label` column.
    let classifier = Arc::new(ClosureProcessor::map(
        "CatClassifier",
        vec![Column::new("label", DataType::Str)],
        0.050,
        |row, schema, out| {
            let blob = row.get_named(schema, "image")?.as_blob()?;
            let is_cat = blob.to_dense()[0] > 0.0;
            out.push(Value::str(if is_cat { "cat" } else { "other" }));
            Ok(())
        },
    ));
    let query = LogicalPlan::scan("images")
        .process(classifier)
        .select(Predicate::from(Clause::new("label", CompareOp::Eq, "cat")));
    println!("original plan:\n{}", query.explain());

    // 3. Harvest labeled blobs by running the UDF once (Fig. 3b's outer
    //    loop), then train a PP for the clause `label = cat`.
    let clause = Clause::new("label", CompareOp::Eq, "cat");
    let labeled = harvest_labels(
        &catalog,
        "images",
        "image",
        &query,
        std::slice::from_ref(&clause),
    )
    .expect("harvest")
    .remove(0);
    let trainer = PpTrainer::new(TrainerConfig {
        cost_per_row: Some(0.001), // 1 ms per blob — 50× cheaper than the UDF
        ..Default::default()
    });
    let mut pp_catalog = PpCatalog::new();
    for pp in trainer.train_clause(&clause, &labeled).expect("train") {
        println!(
            "trained {} — reduction at a=0.95: {:.2}",
            pp.key(),
            pp.reduction(0.95).expect("curve")
        );
        pp_catalog.insert(pp);
    }

    // 4. Let the QO inject the PP and execute both plans.
    let qo = PpQueryOptimizer::new(
        pp_catalog,
        Domains::new(),
        QoConfig {
            accuracy_target: 0.95,
            ..Default::default()
        },
    );
    let optimized = qo.optimize(&query, &catalog).expect("optimize");
    println!("optimized plan:\n{}", optimized.plan.explain());

    // One context per plan run: the builder bundles catalog, cost model,
    // and parallelism; `run` meters each query from zero.
    let mut ctx = ExecutionContext::builder(&catalog)
        .with_cost_model(CostModel::default())
        .with_parallelism(4)
        .build();
    let baseline = ctx.run(&query).expect("baseline");
    let baseline_secs = ctx.meter().cluster_seconds();
    let accelerated = ctx.run(&optimized.plan).expect("accelerated");
    let accelerated_secs = ctx.meter().cluster_seconds();

    println!(
        "baseline: {} rows, {:.1}s cluster time",
        baseline.len(),
        baseline_secs
    );
    println!(
        "with PP:  {} rows, {:.1}s cluster time  →  {:.1}x speed-up, accuracy {:.2}",
        accelerated.len(),
        accelerated_secs,
        baseline_secs / accelerated_secs,
        accelerated.len() as f64 / baseline.len() as f64
    );

    // 5. EXPLAIN ANALYZE: join the optimizer's per-operator forecasts
    //    (carried in the plan report) against the telemetry snapshot of the
    //    accelerated run — predicted vs actual rows, reduction, and charged
    //    seconds per operator. (`cargo run --release -p pp-bench --bin
    //    explain_report` renders the same tree for TRAF-20, plus the
    //    OpenMetrics/JSONL export surfaces and the calibration report.)
    let telemetry = ctx.telemetry().expect("snapshot of the last run");
    assert!(telemetry.conservation_violations().is_empty());
    let analyze =
        ExplainAnalyze::analyze(&optimized.plan, &optimized.report.predictions, telemetry)
            .expect("plan/actual join");
    assert!(analyze.orphan_spans().is_empty() && analyze.unjoined_nodes().is_empty());
    println!("\nEXPLAIN ANALYZE (accelerated plan):");
    print!("{}", analyze.render());
}
