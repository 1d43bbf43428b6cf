//! Fault injection: run a query under seeded faults and watch the
//! resilient executor recover.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Three acts, all on the traffic-surveillance query `vehType = SUV`:
//!
//! 1. a flaky UDF (20% transient failures) — retries with backoff make the
//!    results byte-identical to a fault-free run, at a visible cluster-time
//!    premium;
//! 2. a hard-failed probabilistic predicate — the PP filter degrades
//!    fail-open (rows pass instead of being dropped), its circuit breaker
//!    trips, and the query still returns exactly the PP-free plan's answer;
//! 3. the runtime monitor quarantines the broken PP, so replanning leaves
//!    it out.

use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::prelude::*;

fn main() {
    // Setup: traffic stream, trained PP corpus, and query Q1 (vehType=SUV).
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 1_200,
        seed: 0xFA17,
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
    let qo = PpQueryOptimizer::new(pp_catalog, domains, QoConfig::default());
    let q1 = traf20_queries()
        .into_iter()
        .find(|q| q.id == 1)
        .expect("Q1");
    let plan = q1.nop_plan(&dataset);
    let optimized = qo.optimize(&plan, &catalog).expect("optimize");

    let mut ctx = ExecutionContext::new(&catalog);
    let clean = ctx.run(&plan).expect("clean run");
    println!(
        "fault-free NoP run:        {:4} rows, {:7.1}s cluster time",
        clean.len(),
        ctx.meter().cluster_seconds()
    );

    // Act 1 — a flaky UDF, recovered by retries. The fault plan rides in
    // the context and is applied to every plan it runs; results (and
    // charges) are identical at any parallelism.
    let mut flaky = ExecutionContext::builder(&catalog)
        .with_resilience(ResilienceConfig::default().with_retry(RetryPolicy { max_retries: 8 }))
        .with_fault_plan(
            FaultPlan::new(0x5EED).inject("VehTypeClassifier", FaultSpec::transient(0.20)),
        )
        .with_parallelism(4)
        .build();
    let out = flaky.run(&plan).expect("recovered run");
    let snapshot = flaky.telemetry().expect("telemetry snapshot");
    let udf = snapshot
        .span("Process[VehTypeClassifier]")
        .expect("udf span");
    println!(
        "20% transient UDF faults:  {:4} rows, {:7.1}s cluster time  ({} failures, {} retries, identical: {})",
        out.len(),
        flaky.meter().cluster_seconds(),
        udf.failures,
        udf.retries,
        out.len() == clean.len()
    );

    // Act 2 — a hard-failed PP: fail-open + circuit breaker.
    let mut healthy = ExecutionContext::new(&catalog);
    let out = healthy.run(&optimized.plan).expect("pp run");
    let pp_op = optimized
        .report
        .chosen
        .as_ref()
        .expect("a PP is injected")
        .filter_op();
    println!(
        "healthy PP plan:           {:4} rows, {:7.1}s cluster time  (filter: {pp_op})",
        out.len(),
        healthy.meter().cluster_seconds()
    );

    let mut broken = ExecutionContext::builder(&catalog)
        .with_resilience(
            ResilienceConfig::default()
                .with_retry(RetryPolicy::none())
                .with_breaker_threshold(3),
        )
        .with_fault_plan(FaultPlan::new(0x0BAD).inject(&pp_op, FaultSpec::transient(1.0)))
        .build();
    let out = broken.run(&optimized.plan).expect("fail-open run");
    let snapshot = broken.telemetry().expect("telemetry snapshot");
    let pp = snapshot.span(&pp_op).expect("pp span");
    println!(
        "hard-failed PP:            {:4} rows, {:7.1}s cluster time  (breaker tripped: {}, short-circuited: {}, matches NoP: {})",
        out.len(),
        broken.meter().cluster_seconds(),
        pp.breaker_tripped,
        pp.short_circuited,
        out.len() == clean.len()
    );

    // Act 3 — the monitor quarantines the PP; replanning excludes it.
    let monitor = RuntimeMonitor::new();
    monitor.observe_run(
        &optimized.report,
        broken.telemetry().expect("telemetry snapshot"),
    );
    println!("quarantined PPs:           {:?}", monitor.broken());
    let replanned = qo
        .optimize_with_monitor(&plan, &catalog, Some(&monitor))
        .expect("replan");
    match replanned.report.chosen {
        Some(c) => println!("replanned with:            {}", c.expr),
        None => println!("replanned with:            no PP (degraded to the original plan)"),
    }
}
