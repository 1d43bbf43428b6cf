//! Traffic surveillance: the paper's §1 motivating query — "find red SUVs
//! from city-wide surveillance cameras" — end to end on the DETRAC-like
//! synthetic stream.
//!
//! ```text
//! cargo run --release --example traffic_surveillance
//! ```
//!
//! Trains the §8.2 PP corpus on the first chunk of the stream (all SVM,
//! one per simple clause plus negations), then lets the query optimizer
//! assemble a combination for the complex predicate `vehType = SUV AND
//! vehColor = red` — a predicate no single PP was trained for.

use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::prelude::*;

fn main() {
    // Generate 5 000 frames; train PPs on the first 1 500.
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 5_000,
        seed: 42,
        ..Default::default()
    });
    let train_range = 0..1_500;

    println!("training the PP corpus (one SVM per simple clause + negations)...");
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
        .map(|c| dataset.labeled_for_clause_range(c, train_range.clone()))
        .collect();
    let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("training");
    println!("catalog holds {} PPs\n", pp_catalog.len());

    // Register the *rest* of the stream as the query input.
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, train_range.end..dataset.len());

    // The paper's red-SUV query: SELECT cameraID, frameID ... WHERE
    // vehType = SUV AND vehColor = red.
    let query = LogicalPlan::scan("traffic")
        .process(dataset.udf("vehType").expect("udf"))
        .process(dataset.udf("vehColor").expect("udf"))
        .select(Predicate::and(
            Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("vehColor", CompareOp::Eq, "red")),
        ));

    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let qo = PpQueryOptimizer::new(
        pp_catalog,
        domains,
        QoConfig {
            accuracy_target: 0.95,
        },
    );
    let optimized = qo.optimize(&query, &catalog).expect("optimize");
    println!(
        "predicate:      {}\nfeasible plans: {}\nchosen:         {}",
        optimized.report.predicate,
        optimized.report.feasible_count,
        optimized
            .report
            .chosen
            .as_ref()
            .map(|c| format!(
                "{} (est. reduction {:.2}, leaf accuracies {:?})",
                c.expr, c.estimate.reduction, c.leaf_accuracies
            ))
            .unwrap_or_else(|| "none".into()),
    );

    // Run both plans through one partitioned context; the meter resets per
    // run, so snapshot what each query charged.
    let mut ctx = ExecutionContext::builder(&catalog)
        .with_parallelism(4)
        .build();
    let baseline = ctx.run(&query).expect("baseline");
    let baseline_secs = ctx.meter().cluster_seconds();
    let fast = ctx.run(&optimized.plan).expect("accelerated");

    println!(
        "\nred SUVs found: {} (baseline {})",
        fast.len(),
        baseline.len()
    );
    println!(
        "cluster time:   {:.1}s → {:.1}s  ({:.1}x speed-up)",
        baseline_secs,
        ctx.meter().cluster_seconds(),
        baseline_secs / ctx.meter().cluster_seconds()
    );
    for op in ctx.meter().entries() {
        println!(
            "  {:55} in={:5} out={:5} {:8.2}s",
            op.op, op.rows_in, op.rows_out, op.seconds
        );
    }
}
