//! Fault-tolerance integration tests: seeded fault injection against the
//! full stack (dataset → trained PPs → query optimizer → resilient
//! executor). Three guarantees are exercised end to end:
//!
//! (a) transient UDF failures recovered by retries leave query results
//!     byte-identical to a fault-free run,
//! (b) a hard-failed PP filter degrades fail-open, trips its circuit
//!     breaker, and the query returns exactly the PP-free (NoP) plan's
//!     results; the runtime monitor then quarantines the PP so replanning
//!     excludes it,
//! (c) the whole fault harness is deterministic: the same seed reproduces
//!     identical outputs, identical operator spans, and identical
//!     cost-meter charges,
//! (d) a `Scan → Filter` stream that stops early charges each of the two
//!     for what it consumed, identically at every parallelism,
//! (e) a group operator's timeouts are counted like a row operator's.

use std::sync::OnceLock;

use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::{QuarantineReason, RuntimeMonitor};
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::{
    Catalog, CostMeter, FaultPlan, FaultSpec, LogicalPlan, OperatorSpan, ResilienceConfig,
    RetryPolicy, Rowset,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

/// Everything the tests share: the expensive part is PP training, so it is
/// built once per process.
struct Fixture {
    catalog: Catalog,
    qo: PpQueryOptimizer,
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
        let nop_plan = q1.nop_plan(&dataset);
        let optimized = qo.optimize(&nop_plan, &catalog).expect("optimize");
        assert!(optimized.report.chosen.is_some(), "Q1 must get a PP");
        // Recover the PP filter's operator name from a fault-free run.
        let mut ctx = ExecutionContext::new(&catalog);
        ctx.run(&optimized.plan).expect("pp plan executes");
        let pp_op = ctx
            .telemetry()
            .expect("snapshot")
            .spans
            .iter()
            .find(|s| s.op.contains("PP["))
            .expect("PP filter op present")
            .op
            .clone();
        Fixture {
            catalog,
            qo,
            nop_plan,
            pp_plan: optimized.plan,
            pp_op,
        }
    })
}

/// Byte-comparable digest of a result set.
fn digest(out: &Rowset) -> String {
    format!("{:?}", out.rows())
}

/// Extracts the `PP[...]` leaf keys named in a PP expression string.
fn pp_keys(expr: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = expr;
    while let Some(start) = rest.find("PP[") {
        let tail = &rest[start + 3..];
        let Some(end) = tail.find(']') else { break };
        keys.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    keys
}

fn run_plain(plan: &LogicalPlan) -> (Rowset, CostMeter) {
    let f = fixture();
    let mut ctx = ExecutionContext::new(&f.catalog);
    let out = ctx.run(plan).expect("execute");
    let meter = ctx.meter().clone();
    (out, meter)
}

/// The run's output, charges, and spans (wall clock scrubbed).
fn run_resilient(
    plan: &LogicalPlan,
    config: ResilienceConfig,
) -> (Rowset, CostMeter, Vec<OperatorSpan>) {
    let f = fixture();
    let mut ctx = ExecutionContext::builder(&f.catalog)
        .with_resilience(config)
        .with_parallelism(4)
        .build();
    let out = ctx.run(plan).expect("resilient execute");
    let meter = ctx.meter().clone();
    let mut snap = ctx.telemetry().expect("snapshot").clone();
    snap.zero_wall_clock();
    (out, meter, snap.spans)
}

fn span<'a>(spans: &'a [OperatorSpan], op: &str) -> &'a OperatorSpan {
    spans
        .iter()
        .find(|s| s.op == op)
        .unwrap_or_else(|| panic!("no span for {op}"))
}

/// (a) 20% transient failures on the vehicle-type UDF, recovered by
/// retries: results are byte-identical to the fault-free run, and the
/// recovery overhead is visible in the cost meter.
#[test]
fn transient_udf_failures_recover_to_identical_results() {
    let f = fixture();
    let (baseline, base_meter) = run_plain(&f.nop_plan);

    let faulted = FaultPlan::new(0xAB5_EED)
        .inject("VehTypeClassifier", FaultSpec::transient(0.20))
        .apply(&f.nop_plan);
    let config = ResilienceConfig::default().with_retry(RetryPolicy {
        max_retries: 8,
        ..Default::default()
    });
    let (out, meter, spans) = run_resilient(&faulted, config);

    assert_eq!(
        digest(&out),
        digest(&baseline),
        "results must be byte-identical"
    );
    let udf = span(&spans, "Process[VehTypeClassifier]");
    assert!(udf.failures > 0, "fault injection must have fired: {udf:?}");
    assert_eq!(
        udf.retries, udf.failures,
        "every transient failure is retried"
    );
    // A clean run charges rows × cost_per_row and nothing else.
    let base = base_meter
        .entries()
        .iter()
        .find(|e| e.op == udf.op)
        .expect("baseline UDF charge");
    let cost_per_row = base.seconds / base.rows_in as f64;
    assert!(
        udf.seconds - udf.attempts as f64 * cost_per_row > 0.0,
        "backoff must be charged"
    );
    assert!(
        meter.cluster_seconds() > base_meter.cluster_seconds(),
        "retries cost cluster time: {} vs {}",
        meter.cluster_seconds(),
        base_meter.cluster_seconds()
    );
}

/// (b) A PP that hard-fails on every row: the filter degrades fail-open
/// (every row passes), its breaker trips and short-circuits the remaining
/// calls, and the query's results equal the PP-free plan's. Feeding the
/// report to the runtime monitor quarantines the PP, so replanning
/// degrades to the original plan.
#[test]
fn hard_failed_pp_fails_open_and_planner_quarantines_it() {
    let f = fixture();
    let (nop_out, _) = run_plain(&f.nop_plan);

    let faulted = FaultPlan::new(0x0BAD)
        .inject(&f.pp_op, FaultSpec::transient(1.0))
        .apply(&f.pp_plan);
    let config = ResilienceConfig::default()
        .with_retry(RetryPolicy::none())
        .with_breaker_threshold(3);
    let mut ctx = ExecutionContext::builder(&f.catalog)
        .with_resilience(config)
        .with_parallelism(4)
        .build();
    let out = ctx.run(&faulted).expect("resilient execute");

    assert_eq!(
        digest(&out),
        digest(&nop_out),
        "fail-open PP must reproduce the NoP plan's results exactly"
    );
    let pp = span(&ctx.telemetry().expect("snapshot").spans, &f.pp_op);
    assert!(pp.breaker_tripped, "breaker must trip: {pp:?}");
    assert_eq!(pp.attempts, 3, "breaker threshold bounds the attempts");
    assert!(pp.short_circuited > 0, "remaining rows skip the broken PP");
    assert_eq!(
        pp.failed_open,
        pp.failures + pp.short_circuited,
        "every failure degrades fail-open"
    );

    // The monitor quarantines the PP; replanning never re-injects it.
    // Other catalog entries (e.g. the negated-clause PP) may still be
    // eligible — as each fails in turn and is quarantined, planning
    // degrades all the way to the PP-free plan.
    let monitor = RuntimeMonitor::new();
    monitor.observe_telemetry(ctx.telemetry().expect("telemetry snapshot"));
    assert_eq!(
        monitor.why_broken("vehType = SUV"),
        Some(QuarantineReason::BreakerTripped),
        "three failed calls are under min_calls: the breaker is the cause"
    );
    assert!(
        monitor.is_broken("vehType = SUV"),
        "broken: {:?}",
        monitor.broken()
    );
    let mut rounds = 0;
    loop {
        let replanned =
            f.qo.optimize_with_monitor(&f.nop_plan, &f.catalog, Some(&monitor))
                .expect("replan");
        match &replanned.report.chosen {
            None => {
                assert_eq!(replanned.plan.explain(), f.nop_plan.explain());
                break;
            }
            Some(chosen) => {
                assert!(
                    !chosen.expr.contains("PP[vehType = SUV]"),
                    "quarantined PP re-injected: {}",
                    chosen.expr
                );
                for key in pp_keys(&chosen.expr) {
                    monitor.mark_broken(&key);
                }
            }
        }
        rounds += 1;
        assert!(rounds < 10, "planner never degraded to the PP-free plan");
    }

    // Restoring the original PP re-enables injection.
    monitor.restore("vehType = SUV");
    let restored =
        f.qo.optimize_with_monitor(&f.nop_plan, &f.catalog, Some(&monitor))
            .expect("replan after restore");
    assert!(restored.report.chosen.is_some());
}

/// (c) Same seed ⇒ identical outputs, identical operator spans, and
/// identical cost-meter charges — the harness is fully deterministic.
#[test]
fn same_seed_reproduces_outputs_and_charges() {
    let f = fixture();
    let spec = FaultSpec::transient(0.15).with_timeouts(0.05, 2.0);
    let run = |seed: u64| {
        let faulted = FaultPlan::new(seed)
            .inject("VehTypeClassifier", spec)
            .inject(&f.pp_op, spec)
            .apply(&f.pp_plan);
        let config = ResilienceConfig::default().with_retry(RetryPolicy {
            max_retries: 8,
            ..Default::default()
        });
        let (out, meter, spans) = run_resilient(&faulted, config);
        (digest(&out), out.len(), meter, spans)
    };
    let (out_a, len_a, meter_a, spans_a) = run(0x5EED);
    let (out_b, _, meter_b, spans_b) = run(0x5EED);
    assert_eq!(out_a, out_b, "outputs must be identical for the same seed");
    assert_eq!(spans_a, spans_b, "operator spans must be identical");
    assert_eq!(
        meter_a.entries(),
        meter_b.entries(),
        "charges must be identical"
    );
    assert!(
        spans_a.iter().map(|s| s.failures).sum::<u64>() > 0,
        "faults must actually fire"
    );

    // Fault recovery is also *safe*: UDF faults are fully recovered, and PP
    // faults only fail open (the PP's own false negatives may reappear), so
    // the result count is bracketed by the clean PP run and the NoP run.
    let (clean, _) = run_plain(&f.pp_plan);
    let (nop_out, _) = run_plain(&f.nop_plan);
    assert!(
        len_a >= clean.len() && len_a <= nop_out.len(),
        "fault-open results must sit between PP ({}) and NoP ({}): got {len_a}",
        clean.len(),
        nop_out.len()
    );
}

/// (d) Early-stop accounting over a table of several waves. A segment
/// table of five 32-row groups under a budget of one group is scanned
/// with a filter directly above it; the stream is stopped in its third
/// wave, once by the filter's terminal error (fail-open off) and once by
/// a cancellation fired from inside the filter. Either way the scan is
/// charged for the three waves it decoded and the filter for what it
/// folded, byte for byte the same at K = 1 and K = 4, and the error is
/// the same error.
#[test]
fn an_early_stop_charges_each_operator_for_what_it_consumed() {
    use probabilistic_predicates::engine::udf::ClosureFilter;
    use probabilistic_predicates::engine::{
        CancelReason, CancelToken, Column, DataType, EngineError, Row, Schema, Value,
    };
    use probabilistic_predicates::store::{SegmentScan, SegmentWriter, SegmentWriterConfig};
    use std::sync::Arc;

    const GROUP: usize = 32;
    const STOP_AT: i64 = 2 * GROUP as i64 + 5;
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).expect("schema");
    let rows = (0..5 * GROUP as i64)
        .map(|i| Row::new(vec![Value::Int(i)]))
        .collect();
    let table = Rowset::new(schema, rows).expect("rowset");
    let dir = std::env::temp_dir().join(format!("pp-early-stop-{}", std::process::id()));
    let paths = SegmentWriter::new(SegmentWriterConfig {
        rows_per_group: GROUP,
    })
    .write_shards(&dir, "t", &table, 1)
    .expect("write");
    let mut catalog = Catalog::new();
    catalog.register_provider(
        "t",
        Arc::new(
            SegmentScan::open(&paths)
                .expect("open")
                .with_memory_budget(1),
        ),
    );

    // What one run leaves behind: the error, the charges, the spans
    // (wall clock scrubbed) and the scan's registry counters.
    let observe = |k: usize, token: &CancelToken, filter: Arc<ClosureFilter>| {
        let mut ctx = ExecutionContext::builder(&catalog)
            .with_parallelism(k)
            .with_batch_size(GROUP)
            .with_cancel_token(token.clone())
            .with_resilience(
                ResilienceConfig::default()
                    .with_retry(RetryPolicy::none())
                    .with_fail_open_filters(false),
            )
            .build();
        let err = ctx
            .run(&LogicalPlan::scan("t").filter(filter))
            .expect_err("the stream stops in wave 3");
        let mut snap = ctx.telemetry().expect("snapshot").clone();
        snap.zero_wall_clock();
        let counter = |name: &str| ctx.registry().counter(name).get();
        (
            err.to_string(),
            format!("{:?}", ctx.meter().entries()),
            snap,
            [
                counter("store.row_groups_scanned_total"),
                counter("store.rows_decoded_total"),
                counter("store.rows_materialized_total"),
            ],
        )
    };

    // The filter's own terminal error, at a row of wave 3.
    let failing = |k: usize| {
        let filter = ClosureFilter::new("PP[gate]", 0.1, |row, _| match row.get(0).as_int()? {
            STOP_AT => Err(EngineError::Transient("model server down".into())),
            id => Ok(id % 2 == 0),
        });
        observe(k, &CancelToken::new(), Arc::new(filter))
    };
    let (err, charges, snap, store) = failing(1);
    assert!(err.contains("model server down"), "{err}");
    let scan = snap.span("Scan[").expect("scan span");
    assert_eq!(
        (
            scan.rows_in,
            scan.rows_out,
            scan.rows_filtered,
            scan.rows_failed
        ),
        (160, 96, 0, 64),
        "the scan is charged for the three waves it decoded"
    );
    let filter = snap.span("PP[gate]").expect("filter span");
    // Rows 0..=68 got a verdict (35 even ids kept), row 69 failed, and
    // the 26 rows of wave 3 behind it were left unprocessed.
    assert_eq!(
        (filter.rows_in, filter.rows_out, filter.rows_filtered),
        (96, 35, 34)
    );
    assert_eq!((filter.rows_failed, filter.attempts), (27, 70));
    assert!(scan.check_conservation() && filter.check_conservation());
    assert_eq!((scan.op_id.0, filter.op_id.0), (0, 1), "plan order");
    assert_eq!(store, [3, 96, 35]);
    assert_eq!(failing(4), (err, charges, snap, store), "K = 4 diverged");

    // A cancellation fired while wave 3 is probed: the consume phase
    // meets it at the wave's first record, so the filter is charged for
    // two waves and the scan, again, for three.
    let cancelled = |k: usize| {
        let token = CancelToken::new();
        let fire = token.clone();
        let filter = ClosureFilter::new("PP[gate]", 0.1, move |row, _| {
            let id = row.get(0).as_int()?;
            if id == STOP_AT {
                fire.cancel(CancelReason::Requested);
            }
            Ok(id % 2 == 0)
        });
        observe(k, &token, Arc::new(filter))
    };
    let (err, charges, snap, store) = cancelled(1);
    assert!(err.contains("cancelled"), "{err}");
    let scan = snap.span("Scan[").expect("scan span");
    assert_eq!((scan.rows_out, scan.rows_failed), (96, 64));
    let filter = snap.span("PP[gate]").expect("filter span");
    assert_eq!(
        (
            filter.rows_in,
            filter.rows_out,
            filter.rows_failed,
            filter.attempts
        ),
        (96, 32, 32, 64)
    );
    assert_eq!(store, [3, 96, 32]);
    assert_eq!(cancelled(4), (err, charges, snap, store), "K = 4 diverged");
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// (e) A group operator's recovery is counted like a row operator's: a
/// reducer that stalls once on its first group and then succeeds shows
/// the timeout in its span, as a `Timeout` event, and — capped at the
/// call budget — in the seconds it is charged.
#[test]
fn a_group_operators_timeout_is_counted_and_charged() {
    use probabilistic_predicates::engine::udf::ClosureReducer;
    use probabilistic_predicates::engine::{
        Column, DataType, EngineError, EventKind, Row, Schema, Value,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let schema = Schema::new(vec![Column::new("cam", DataType::Int)]).expect("schema");
    let rows = (0..10).map(|i| Row::new(vec![Value::Int(i % 2)])).collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Rowset::new(schema, rows).expect("rowset"));
    let stalled = AtomicBool::new(false);
    let tracker = ClosureReducer::new(
        "Tracker",
        vec!["cam".into()],
        vec![Column::new("n", DataType::Int)],
        0.5,
        move |group, _| {
            if !stalled.swap(true, Ordering::Relaxed) {
                return Err(EngineError::Timeout {
                    op: "Tracker".into(),
                    stalled_seconds: 50.0,
                });
            }
            Ok(vec![Row::new(vec![Value::Int(group.len() as i64)])])
        },
    );
    let mut ctx = ExecutionContext::builder(&catalog)
        .with_resilience(ResilienceConfig::default().with_udf_timeout_secs(3.0))
        .build();
    let out = ctx
        .run(&LogicalPlan::scan("t").reduce(Arc::new(tracker)))
        .expect("the retry succeeds");
    assert_eq!(out.len(), 2);
    let snap = ctx.telemetry().expect("snapshot");
    let reduce = snap.span("Reduce[").expect("reduce span");
    assert_eq!(
        (
            reduce.attempts,
            reduce.retries,
            reduce.failures,
            reduce.timeouts
        ),
        (3, 1, 1, 1)
    );
    let timeouts: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Timeout)
        .collect();
    assert_eq!(timeouts.len(), 1, "events: {:?}", snap.events);
    assert_eq!(
        (timeouts[0].op.as_str(), timeouts[0].count),
        (reduce.op.as_str(), 1)
    );
    // 10 rows + the 5 of the retried group at 0.5 s, the stall up to its
    // 3 s budget, and the first backoff (0.05 s).
    assert!(
        (reduce.seconds - (15.0 * 0.5 + 3.0 + 0.05)).abs() < 1e-9,
        "charged {}",
        reduce.seconds
    );
}
