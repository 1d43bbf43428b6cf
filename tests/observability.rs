//! Determinism lockdown for the telemetry subsystem.
//!
//! The PR 2 execution contract promises byte-identical *results* at every
//! parallelism and batch size; these tests extend the promise to the
//! telemetry snapshot: after zeroing wall-clock fields, the serialized
//! snapshot of a PP-optimized TRAF query is byte-identical across
//! parallelism K ∈ {1, 2, 4, 8} × batch ∈ {1, 7, 64}, with and without
//! seeded fault injection. A second group covers the cost-meter /
//! query-metrics edge cases: zero-row inputs, fully-filtering plans, the
//! breaker-open fail-open path, and context reuse across runs. A third
//! group extends the promise to the serving stack's request timelines:
//! stage spans telescope exactly to the end-to-end latency, the timeline
//! *structure* (stage names, details, terminal stage) is byte-identical
//! across engine configurations, and cancelled/failed requests stamp the
//! stage they died in.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::predicate::{Clause, CompareOp, Predicate};
use probabilistic_predicates::engine::udf::{ClosureFilter, ClosureProcessor};
use probabilistic_predicates::engine::{
    Catalog, EngineError, EventKind, FaultPlan, FaultSpec, LogicalPlan, QueryId, Row, Rowset, Value,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::{
    PpServer, QueryOutcome, QueryRequest, QueryResponse, ServerConfig, ServerFaults,
    SourceRegistry, SourceSpec,
};

/// A PP-optimized TRAF-20 Q1 plan over a held-out slice, plus the name of
/// the injected PP filter (the fault-plan target).
struct Fixture {
    catalog: Catalog,
    pp_plan: LogicalPlan,
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
        let qo = PpQueryOptimizer::new(pp_catalog, domains, QoConfig::default());
        let q1 = traf20_queries()
            .into_iter()
            .find(|q| q.id == 1)
            .expect("Q1");
        let optimized = qo
            .optimize(&q1.nop_plan(&dataset), &catalog)
            .expect("optimize");
        assert!(optimized.report.chosen.is_some(), "Q1 must get a PP");
        let mut ctx = ExecutionContext::new(&catalog);
        ctx.run(&optimized.plan).expect("clean run");
        let pp_op = ctx
            .telemetry()
            .expect("snapshot")
            .spans
            .iter()
            .find(|s| s.op.starts_with("PP["))
            .expect("PP span")
            .op
            .clone();
        Fixture {
            catalog,
            pp_plan: optimized.plan,
            pp_op,
        }
    })
}

/// The tentpole invariant: zeroing the wall-clock fields is the *only*
/// normalization needed for the serialized snapshot to be byte-identical
/// across every parallelism × batch-size combination — spans, events,
/// latency histograms, fired-fault log, and registry metrics included.
#[test]
fn snapshot_json_is_byte_identical_across_parallelism_and_batch() {
    let f = fixture();
    for fault_seed in [None, Some(0xFA07u64)] {
        let mut reference: Option<String> = None;
        for parallelism in [1usize, 2, 4, 8] {
            for batch_size in [1usize, 7, 64] {
                let mut builder = ExecutionContext::builder(&f.catalog)
                    .with_parallelism(parallelism)
                    .with_batch_size(batch_size);
                if let Some(seed) = fault_seed {
                    builder = builder.with_fault_plan(FaultPlan::new(seed).inject(
                        &f.pp_op,
                        FaultSpec::transient(0.15).with_timeouts(0.05, 2.0),
                    ));
                }
                let mut ctx = builder.build();
                ctx.run(&f.pp_plan).expect("run succeeds (PPs fail open)");
                let mut snap = ctx.telemetry().expect("snapshot").clone();
                assert!(
                    snap.conservation_violations().is_empty(),
                    "K={parallelism} batch={batch_size} faults={fault_seed:?}"
                );
                if fault_seed.is_some() {
                    assert!(snap.injected_fault_count() > 0, "fault plan must fire");
                    assert!(snap.total_retries() > 0, "transient faults force retries");
                }
                snap.zero_wall_clock();
                let json = snap.to_json();
                match &reference {
                    None => reference = Some(json),
                    Some(expected) => assert_eq!(
                        expected, &json,
                        "snapshot diverged at K={parallelism} batch={batch_size} \
                         faults={fault_seed:?}"
                    ),
                }
            }
        }
    }
}

/// Scheduling-dependent worker counters live in the registry for operators
/// to inspect, but never reach the snapshot — they would break
/// byte-identity across parallelism.
#[test]
fn worker_metrics_stay_out_of_snapshots() {
    let f = fixture();
    let mut ctx = ExecutionContext::builder(&f.catalog)
        .with_parallelism(4)
        .with_batch_size(8)
        .build();
    ctx.run(&f.pp_plan).expect("run");
    let snap = ctx.telemetry().expect("snapshot");
    assert!(
        snap.metrics.iter().all(|(n, _)| !n.starts_with("worker.")),
        "snapshot leaked scheduling-dependent metrics"
    );
    assert!(
        ctx.registry().counter("worker.rows_probed_total").get() > 0,
        "the registry itself still tracks probe work"
    );
}

// ---- CostMeter edge cases ----------------------------------------------

fn int_catalog(n: i64) -> Catalog {
    let schema = probabilistic_predicates::engine::Schema::new(vec![
        probabilistic_predicates::engine::Column::new(
            "id",
            probabilistic_predicates::engine::DataType::Int,
        ),
    ])
    .unwrap();
    let rows = (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let mut c = Catalog::new();
    c.register("t", Rowset::new(schema, rows).unwrap());
    c
}

fn tag_processor() -> Arc<ClosureProcessor> {
    Arc::new(ClosureProcessor::map(
        "Tagger",
        vec![probabilistic_predicates::engine::Column::new(
            "tag",
            probabilistic_predicates::engine::DataType::Int,
        )],
        0.05,
        |row, _, out| {
            out.push(Value::Int(row.get(0).as_int()? % 10));
            Ok(())
        },
    ))
}

#[test]
fn zero_row_input_yields_zero_cost_and_conserving_spans() {
    let cat = int_catalog(0);
    let plan = LogicalPlan::scan("t")
        .process(tag_processor())
        .select(Predicate::from(Clause::new("tag", CompareOp::Eq, 0i64)));
    let mut ctx = ExecutionContext::new(&cat);
    let out = ctx.run(&plan).expect("empty input is not an error");
    assert_eq!(out.len(), 0);
    assert_eq!(ctx.meter().cluster_seconds(), 0.0);
    // latency_seconds keeps its fixed per-operator startup overhead even
    // for zero rows, so only the per-row charge is asserted zero here.
    let snap = ctx.telemetry().expect("snapshot");
    assert_eq!(snap.spans.len(), 3);
    for span in &snap.spans {
        assert_eq!(span.rows_in, 0, "{}", span.op);
        assert_eq!(span.reduction(), 0.0, "{}", span.op);
        assert_eq!(span.latency.p50(), 0.0, "{}", span.op);
    }
    assert!(snap.conservation_violations().is_empty());
}

#[test]
fn fully_filtering_plan_reports_unit_reduction_and_idle_downstream() {
    let cat = int_catalog(32);
    let plan = LogicalPlan::scan("t")
        .select(Predicate::from(Clause::new("id", CompareOp::Lt, 0i64)))
        .process(tag_processor());
    let mut ctx = ExecutionContext::new(&cat);
    let out = ctx.run(&plan).expect("run");
    assert_eq!(out.len(), 0);
    let snap = ctx.telemetry().expect("snapshot");
    let select = snap.span("Select[").expect("select span");
    assert_eq!(select.rows_in, 32);
    assert_eq!(select.rows_out, 0);
    assert_eq!(select.rows_filtered, 32);
    assert_eq!(select.reduction(), 1.0);
    let process = snap.span("Process[").expect("process span");
    assert_eq!(process.rows_in, 0);
    assert_eq!(process.seconds, 0.0);
    // The meter agrees: the expensive processor was never charged.
    let charged = |op: &str| {
        let entry = ctx.meter().entries().iter().find(|e| e.op.starts_with(op));
        entry.expect("a charge").seconds
    };
    assert_eq!(charged("Process["), 0.0);
    assert!(charged("Select[") > 0.0, "select itself was charged");
}

#[test]
fn breaker_open_rows_fail_open_and_are_fully_accounted() {
    let cat = int_catalog(64);
    // A poisoned row is not retried: one call, one terminal failure.
    let dead = Arc::new(ClosureFilter::new("PP[dead]", 0.01, |_, _| {
        Err(EngineError::PoisonedRow("dead model".into()))
    }));
    let plan = LogicalPlan::scan("t").filter(dead);
    let mut ctx = ExecutionContext::new(&cat);
    // A breaker lives for one run: the second run meets a closed breaker
    // and trips it again, accounted exactly as the first.
    for _ in 0..2 {
        let out = ctx.run(&plan).expect("fail-open keeps the query alive");
        assert_eq!(out.len(), 64, "every row passes through the dead PP");
        let snap = ctx.telemetry().expect("snapshot");
        let span = snap.span("PP[dead]").expect("PP span");
        assert_eq!(span.rows_in, 64);
        assert_eq!(span.rows_out, 64);
        assert_eq!(span.rows_failed, 0);
        assert_eq!(span.failed_open, 64, "every row degraded to pass-through");
        // The breaker opens at 5 consecutive failures; the rest short-circuit.
        assert_eq!(span.failures, 5);
        assert_eq!(span.short_circuited, 59);
        assert!(span.breaker_tripped);
        let opened = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::BreakerOpened)
            .count();
        assert_eq!(opened, 1, "one trip, logged once");
        assert!(snap.conservation_violations().is_empty());
    }
    assert_eq!(ctx.registry().counter("breaker_trips_total").get(), 2);

    // Two fail-open filters that both trip: each has its own breaker, and
    // the two openings follow every operator's events, in span order.
    let dead = |name: &str| {
        Arc::new(ClosureFilter::new(name, 0.01, |_, _| {
            Err(EngineError::Transient("dead model".into()))
        }))
    };
    let plan = LogicalPlan::scan("t")
        .filter(dead("PP[dead b]"))
        .filter(dead("PP[dead a]"));
    assert_eq!(ctx.run(&plan).expect("both fail open").len(), 64);
    let snap = ctx.telemetry().expect("snapshot");
    let tripped: Vec<&str> = snap
        .spans
        .iter()
        .filter(|s| s.breaker_tripped)
        .map(|s| s.op.as_str())
        .collect();
    assert_eq!(tripped, ["PP[dead b]", "PP[dead a]"]);
    let (operators, openings) = snap.events.split_at(snap.events.len() - 2);
    assert!(operators.iter().all(|e| e.kind != EventKind::BreakerOpened));
    let opened: Vec<(&str, EventKind)> = openings.iter().map(|e| (e.op.as_str(), e.kind)).collect();
    assert_eq!(
        opened,
        [
            ("PP[dead b]", EventKind::BreakerOpened),
            ("PP[dead a]", EventKind::BreakerOpened)
        ]
    );
    assert_eq!(ctx.registry().counter("breaker_trips_total").get(), 4);
}

#[test]
fn context_reuse_restarts_metrics_and_telemetry_from_zero() {
    let cat = int_catalog(64);
    let expensive = LogicalPlan::scan("t").process(tag_processor());
    let cheap = LogicalPlan::scan("t");
    let mut ctx = ExecutionContext::new(&cat);
    ctx.run(&expensive).expect("first run");
    let first_secs = ctx.meter().cluster_seconds();
    let first = ctx.telemetry().expect("snapshot");
    assert_eq!(first.query_id, QueryId(1));
    assert_eq!(first.spans.len(), 2);
    ctx.run(&cheap).expect("second run");
    let second_secs = ctx.meter().cluster_seconds();
    let second = ctx.telemetry().expect("snapshot");
    assert_eq!(
        second.query_id,
        QueryId(2),
        "query ids are per-context ordinals"
    );
    assert_eq!(second.spans.len(), 1, "only the second run's spans remain");
    assert!(
        second_secs < first_secs,
        "the meter restarted from zero: {second_secs} vs {first_secs}"
    );
    // Registry counters are cumulative across runs by design.
    assert_eq!(ctx.registry().counter("queries_total").get(), 2);
}

// ---- Request timelines through the serving stack -----------------------

/// A servable traffic fixture (mirrors `tests/serving.rs`): trained PPs
/// over the first half of the dataset, held-out rows registered for
/// execution, and a source materializing every predicate column.
struct ServeFixture {
    catalog: Catalog,
    sources: SourceRegistry,
    pp_catalog: probabilistic_predicates::core::PpCatalog,
    domains: Domains,
    suv: Predicate,
}

fn serve_fixture() -> &'static ServeFixture {
    static FIXTURE: OnceLock<ServeFixture> = OnceLock::new();
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
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        let mut sources = SourceRegistry::new();
        let mut spec = SourceSpec::new("traffic");
        for col in ["vehType", "vehColor", "speed", "fromI", "toI"] {
            spec = spec.with_udf(col, dataset.udf(col).expect("known column"));
        }
        sources.register("traffic", spec);
        ServeFixture {
            catalog,
            sources,
            pp_catalog,
            domains,
            suv: Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV")),
        }
    })
}

fn serve_server(config: ServerConfig) -> PpServer {
    let f = serve_fixture();
    PpServer::new(
        config,
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    )
}

fn serve_one(server: &PpServer, request: QueryRequest) -> QueryResponse {
    server.submit(request).expect("admitted").wait()
}

/// The tentpole invariant, serving edition: every stage span telescopes
/// off the same clock, so the spans sum *exactly* to the end-to-end
/// latency, and the timeline's structure — stage names, cache detail,
/// terminal stage — is byte-identical across parallelism, with and
/// without seeded engine faults. (Fresh server per config: `CacheKey`
/// ignores engine knobs, so a shared server would flip the cache detail
/// from `build` to `hit` across configs.)
#[test]
fn request_timelines_are_structure_identical_across_engine_configs() {
    let f = serve_fixture();
    for fault_seed in [None, Some(0xFA07u64)] {
        let mut reference: Option<String> = None;
        let mut histogram_reference: Option<Vec<(String, u64)>> = None;
        for parallelism in [1usize, 4] {
            let mut server = serve_server(ServerConfig {
                workers: 1,
                ..Default::default()
            });
            let mut request =
                QueryRequest::new("traffic", f.suv.clone(), 0.95).with_parallelism(parallelism);
            if let Some(seed) = fault_seed {
                // Target the source's UDFs rather than a PP op so the
                // fault plan is plan-shape-agnostic; PPs fail open, UDF
                // faults retry deterministically.
                request = request.with_fault_plan(
                    FaultPlan::new(seed).inject("VehTypeClassifier", FaultSpec::transient(0.15)),
                );
            }
            let response = serve_one(&server, request);
            assert!(
                matches!(response.outcome, QueryOutcome::Complete(_)),
                "K={parallelism}: {:?}",
                response.outcome
            );
            let timeline = &response.timeline;
            let span_sum: u64 = timeline.stages.iter().map(|s| s.nanos).sum();
            assert_eq!(
                span_sum, timeline.total_nanos,
                "stage spans must telescope exactly to the end-to-end latency"
            );
            assert_eq!(timeline.terminal, "respond");
            assert_eq!(
                timeline.stage_names(),
                vec!["admission", "queue", "cache", "execute", "respond"]
            );
            let structure = timeline.zero_durations().to_json();
            match &reference {
                None => reference = Some(structure),
                Some(expected) => assert_eq!(
                    expected, &structure,
                    "timeline structure diverged at K={parallelism} faults={fault_seed:?}"
                ),
            }
            // Histogram *counts* (names and observation counts, not
            // wall-clock values) are config-independent too: one
            // observation per stage per request.
            let histogram_counts: Vec<(String, u64)> = server
                .metrics()
                .histogram_samples()
                .into_iter()
                .map(|(name, h)| (name, h.count()))
                .collect();
            for stage in ["admission", "queue", "cache", "execute", "respond"] {
                assert!(
                    histogram_counts
                        .iter()
                        .any(|(n, c)| n == &format!("server.stage.{stage}_seconds") && *c == 1),
                    "missing stage histogram for {stage}: {histogram_counts:?}"
                );
            }
            match &histogram_reference {
                None => histogram_reference = Some(histogram_counts),
                Some(expected) => assert_eq!(
                    expected, &histogram_counts,
                    "histogram names/counts diverged at K={parallelism} faults={fault_seed:?}"
                ),
            }
            server.shutdown();
        }
    }
}

/// Cancelled and failed requests stamp the stage they died in, and the
/// server aggregates terminal stages into
/// `server.terminal_stage_total.<stage>.<outcome>` counters.
#[test]
fn terminal_stage_records_where_requests_die() {
    let f = serve_fixture();
    // An already-expired deadline cancels the request while it is still
    // queued: no planning, nothing billed, terminal stage `queue`.
    let server = serve_server(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let response = serve_one(
        &server,
        QueryRequest::new("traffic", f.suv.clone(), 0.95).with_deadline(Duration::ZERO),
    );
    assert!(
        matches!(response.outcome, QueryOutcome::Cancelled { .. }),
        "{:?}",
        response.outcome
    );
    assert_eq!(response.timeline.terminal, "queue");
    assert_eq!(
        server
            .metrics()
            .counter("server.terminal_stage_total.queue.cancelled")
            .get(),
        1
    );

    // An injected plan-build failure dies in the cache stage.
    let server = serve_server(ServerConfig {
        workers: 1,
        faults: Some(ServerFaults {
            plan_build_failure: 1.0,
            ..ServerFaults::new(7)
        }),
        ..Default::default()
    });
    let response = serve_one(&server, QueryRequest::new("traffic", f.suv.clone(), 0.95));
    assert!(
        matches!(response.outcome, QueryOutcome::Failed(_)),
        "{:?}",
        response.outcome
    );
    assert_eq!(response.timeline.terminal, "cache");
    assert_eq!(
        server
            .metrics()
            .counter("server.terminal_stage_total.cache.failed")
            .get(),
        1
    );
}

/// Shared-scan submissions trace a `window` stage (admission → window →
/// cache → execute → respond) instead of the solo `queue` stage.
#[test]
fn shared_submissions_trace_the_window_stage() {
    let f = serve_fixture();
    let server = serve_server(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let response = server
        .submit(QueryRequest::new("traffic", f.suv.clone(), 0.95).shared())
        .expect("admitted")
        .wait();
    assert!(
        matches!(response.outcome, QueryOutcome::Complete(_)),
        "{:?}",
        response.outcome
    );
    assert_eq!(
        response.timeline.stage_names(),
        vec!["admission", "window", "cache", "execute", "respond"]
    );
    let span_sum: u64 = response.timeline.stages.iter().map(|s| s.nanos).sum();
    assert_eq!(span_sum, response.timeline.total_nanos);
}
