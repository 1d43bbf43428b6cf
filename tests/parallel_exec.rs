//! Partitioned-executor determinism tests: for a fixed plan, catalog, and
//! fault seed, [`ExecutionContext::run`] must return byte-identical
//! results, identical cost-meter charges, and identical resilience reports
//! at *every* parallelism and batch size — with and without injected
//! faults.

use std::sync::OnceLock;

use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::{
    Catalog, FaultPlan, FaultSpec, LogicalPlan, OperatorSpan, ResilienceConfig, RetryPolicy, Rowset,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

struct Fixture {
    catalog: Catalog,
    /// Q1 (`vehType = SUV`): scan → VehTypeClassifier → select.
    nop_plan: LogicalPlan,
    /// Q1 with the PP injected above the scan.
    pp_plan: LogicalPlan,
    /// Display name of the injected PP filter operator.
    pp_op: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 1_000,
            seed: 0x9A12,
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
            .map(|c| dataset.labeled_for_clause_range(c, 0..500))
            .collect();
        let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("train");
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 500..1_000);
        let qo = PpQueryOptimizer::new(pp_catalog, domains, QoConfig::default());
        let q1 = traf20_queries()
            .into_iter()
            .find(|q| q.id == 1)
            .expect("Q1");
        let nop_plan = q1.nop_plan(&dataset);
        let optimized = qo.optimize(&nop_plan, &catalog).expect("optimize");
        assert!(optimized.report.chosen.is_some(), "Q1 must get a PP");
        let mut ctx = ExecutionContext::new(&catalog);
        ctx.run(&optimized.plan).expect("pp plan executes");
        let pp_op = spans(&ctx)
            .iter()
            .find(|s| s.op.contains("PP["))
            .expect("PP filter op present")
            .op
            .clone();
        Fixture {
            catalog,
            nop_plan,
            pp_plan: optimized.plan,
            pp_op,
        }
    })
}

/// Byte-comparable digest of a result set (values *and* row order).
fn digest(out: &Rowset) -> String {
    format!("{:?}", out.rows())
}

/// The latest run's operator spans — every counter the executor keeps —
/// with the wall clock scrubbed.
fn spans(ctx: &ExecutionContext<'_>) -> Vec<OperatorSpan> {
    let mut snap = ctx.telemetry().expect("snapshot").clone();
    snap.zero_wall_clock();
    snap.spans
}

/// (a) Every (parallelism, batch size) combination returns the same rows in
/// the same order with the same charges as serial execution.
#[test]
fn every_parallelism_matches_serial_exactly() {
    let f = fixture();
    for plan in [&f.nop_plan, &f.pp_plan] {
        let mut serial = ExecutionContext::new(&f.catalog);
        let baseline = serial.run(plan).expect("serial run");
        let base_digest = digest(&baseline);
        let base_meter = serial.meter().clone();
        let base_spans = spans(&serial);

        for k in [1usize, 2, 4, 8] {
            for batch in [1usize, 7, 64, 1024] {
                let mut ctx = ExecutionContext::builder(&f.catalog)
                    .with_parallelism(k)
                    .with_batch_size(batch)
                    .build();
                let out = ctx.run(plan).expect("partitioned run");
                assert_eq!(
                    digest(&out),
                    base_digest,
                    "K={k} batch={batch}: rows diverged from serial"
                );
                assert_eq!(
                    ctx.meter().entries(),
                    base_meter.entries(),
                    "K={k} batch={batch}: charges diverged from serial"
                );
                assert_eq!(
                    spans(&ctx),
                    base_spans,
                    "K={k} batch={batch}: operator spans diverged from serial"
                );
            }
        }
    }
}

/// (b) The identity holds under seeded fault injection: faults key off row
/// identity, not partition layout, so retries/timeouts land on the same
/// rows regardless of K.
#[test]
fn parallel_fault_injection_matches_serial() {
    let f = fixture();
    let spec = FaultSpec::transient(0.15).with_timeouts(0.05, 2.0);
    let run = |k: usize| {
        let mut ctx = ExecutionContext::builder(&f.catalog)
            .with_fault_plan(
                FaultPlan::new(0xDE7E12)
                    .inject("VehTypeClassifier", spec)
                    .inject(&f.pp_op, spec),
            )
            .with_resilience(ResilienceConfig::default().with_retry(RetryPolicy {
                max_retries: 8,
                ..Default::default()
            }))
            .with_parallelism(k)
            .build();
        let out = ctx.run(&f.pp_plan).expect("faulted run");
        (digest(&out), ctx.meter().clone(), spans(&ctx))
    };
    let (out_serial, meter_serial, spans_serial) = run(1);
    assert!(
        spans_serial.iter().map(|s| s.failures).sum::<u64>() > 0,
        "faults must actually fire"
    );
    for k in [2usize, 4, 8] {
        let (out, meter, spans) = run(k);
        assert_eq!(out, out_serial, "K={k}: faulted rows diverged");
        assert_eq!(
            meter.entries(),
            meter_serial.entries(),
            "K={k}: faulted charges diverged"
        );
        assert_eq!(spans, spans_serial, "K={k}: faulted spans diverged");
    }
}

/// (c) Two independent default contexts agree run-for-run: the execution
/// path has no hidden per-context state that could skew results.
#[test]
fn independent_contexts_agree() {
    let f = fixture();
    let mut a = ExecutionContext::new(&f.catalog);
    let mut b = ExecutionContext::new(&f.catalog);
    let out_a = a.run(&f.pp_plan).expect("context a run");
    let out_b = b.run(&f.pp_plan).expect("context b run");
    assert_eq!(digest(&out_a), digest(&out_b));
    assert_eq!(a.meter().entries(), b.meter().entries());
}
