//! The execution safety rail: the engine has one execution path, and for
//! a fixed plan, catalog, and fault seed its output must be
//! **byte-identical** — same result rows, same cost-meter charges, same
//! telemetry snapshot (after [`TelemetrySnapshot::zero_wall_clock`]) — at
//! every parallelism, batch size, and morsel size, with and without
//! injected faults.
//!
//! The invariant is anchored twice. At the kernel: every built-in
//! filter's `RowFilter::eval_batch` over a multi-row batch equals the
//! scalar per-row path (`RowFilter::passes`), which is what production
//! retries run (a `Processor` is scalar and has no other path). At the
//! engine: every
//! (K, batch, morsel) shape equals the `K=1, batch=1` run, where each
//! batch is one row.
//!
//! [`TelemetrySnapshot::zero_wall_clock`]:
//! probabilistic_predicates::engine::telemetry::TelemetrySnapshot::zero_wall_clock

use std::sync::{Arc, OnceLock};

use probabilistic_predicates::core::expr::{Assignment, PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::pp::ProbabilisticPredicate;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::{ClosureFilter, RowFilter};
use probabilistic_predicates::engine::{
    Batch, Catalog, Chunk, FaultPlan, FaultSpec, LogicalPlan, OperatorSpan, ResilienceConfig,
    RetryPolicy, Row, Rowset, UdfMemo, Value,
};
use probabilistic_predicates::linalg::sparse::SparseVector;
use probabilistic_predicates::linalg::Features;
use probabilistic_predicates::ml::dnn::DnnParams;
use probabilistic_predicates::ml::kde::KdeParams;
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

struct Fixture {
    dataset: TrafficDataset,
    catalog: Catalog,
    /// The optimizer over a linear-SVM PP (and its negation) for every
    /// corpus clause, at a = 0.95.
    qo: PpQueryOptimizer,
    /// Q1 (`vehType = SUV`) with the PP injected above the scan — the
    /// PP filter is the operator with a real block kernel.
    pp_plan: LogicalPlan,
    /// Display name of the injected PP filter operator.
    pp_op: String,
}

fn trainer(reducer: ReducerSpec, model: ModelSpec) -> PpTrainer {
    PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach { reducer, model }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    })
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0xC01A,
            ..Default::default()
        });
        let clauses = TrafficDataset::pp_corpus_clauses();
        let labeled: Vec<_> = clauses
            .iter()
            .map(|c| dataset.labeled_for_clause_range(c, 0..400))
            .collect();
        let pp_catalog = trainer(ReducerSpec::Identity, ModelSpec::Svm(SvmParams::default()))
            .train_catalog(&clauses, &labeled)
            .expect("train");
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
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
        ctx.run(&optimized.plan).expect("pp plan executes");
        let pp_op = ctx
            .telemetry()
            .expect("snapshot after run")
            .spans
            .iter()
            .find(|s| s.op.contains("PP["))
            .expect("PP filter op present")
            .op
            .clone();
        Fixture {
            dataset,
            catalog,
            qo,
            pp_plan: optimized.plan,
            pp_op,
        }
    })
}

/// One PP per model family and reducer, all for the corpus's first
/// clause: linear SVM, KDE and DNN over the raw blob, then PCA + SVM and
/// FH + SVM.
fn families() -> &'static [Arc<ProbabilisticPredicate>] {
    static FAMILIES: OnceLock<Vec<Arc<ProbabilisticPredicate>>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let clause = TrafficDataset::pp_corpus_clauses().remove(0);
        let labeled = fixture().dataset.labeled_for_clause_range(&clause, 0..400);
        [
            (ReducerSpec::Identity, ModelSpec::Svm(SvmParams::default())),
            (ReducerSpec::Identity, ModelSpec::Kde(KdeParams::default())),
            (ReducerSpec::Identity, ModelSpec::Dnn(DnnParams::default())),
            (
                ReducerSpec::Pca {
                    k: 4,
                    fit_sample: 200,
                },
                ModelSpec::Svm(SvmParams::default()),
            ),
            (
                ReducerSpec::FeatureHash { dr: 8 },
                ModelSpec::Svm(SvmParams::default()),
            ),
        ]
        .into_iter()
        .map(|(reducer, model)| {
            let pp = trainer(reducer, model)
                .train_clause(&clause, &labeled)
                .expect("train")
                .remove(0);
            Arc::new(pp)
        })
        .collect()
    })
}

/// The fixture catalog's linear-SVM PP for `key` (`vehType != sedan` is
/// the sign-flipped `vehType = sedan`).
fn catalog_pp(key: &str) -> Arc<ProbabilisticPredicate> {
    let all = fixture().qo.catalog().all();
    let pp = all.iter().find(|pp| pp.key() == key);
    Arc::clone(pp.expect("a corpus clause"))
}

/// Byte-comparable digest of a result set (values *and* row order).
fn digest(out: &Rowset) -> String {
    format!("{:?}", out.rows())
}

/// Everything the safety rail compares: result bytes, meter charges, and
/// the wall-clock-scrubbed telemetry snapshot JSON.
fn observe(ctx: &ExecutionContext, out: &Rowset) -> (String, String, String) {
    let mut snap = ctx.telemetry().expect("snapshot after run").clone();
    snap.zero_wall_clock();
    (
        digest(out),
        format!("{:?}", ctx.meter().entries()),
        snap.to_json(),
    )
}

/// The engine-level gate: every (K, batch, morsel) shape is
/// byte-identical — results, charges, telemetry snapshot (every span
/// counter included) — to the `K=1, batch=1` reference, clean and under
/// seeded faults (faults key off row identity, so retries and fail-opens land
/// on the same rows at any shape).
#[test]
fn every_shape_matches_the_scalar_reference() {
    let f = fixture();
    let spec = FaultSpec::transient(0.2).with_timeouts(0.05, 2.0);
    for faulted in [false, true] {
        let run = |k: usize, batch: usize, morsel: usize| {
            let mut builder = ExecutionContext::builder(&f.catalog)
                .with_parallelism(k)
                .with_batch_size(batch)
                .with_morsel_size(morsel);
            if faulted {
                builder = builder
                    .with_fault_plan(
                        FaultPlan::new(0xC01A7)
                            .inject("VehTypeClassifier", spec)
                            .inject(&f.pp_op, spec),
                    )
                    .with_resilience(ResilienceConfig::default().with_retry(RetryPolicy {
                        max_retries: 8,
                        ..Default::default()
                    }));
            }
            let mut ctx = builder.build();
            let out = ctx.run(&f.pp_plan).expect("run");
            let snap = ctx.telemetry().expect("snapshot after run");
            let failures: u64 = snap.spans.iter().map(|s| s.failures).sum();
            (observe(&ctx, &out), failures)
        };
        let (base, base_failures) = run(1, 1, 1024);
        assert_eq!(
            base_failures > 0,
            faulted,
            "faults fire exactly when injected"
        );
        for k in [1usize, 4] {
            for batch in [1usize, 64] {
                for morsel in [16usize, 100, 1024] {
                    let (got, _) = run(k, batch, morsel);
                    let shape = format!("faulted={faulted} K={k} batch={batch} morsel={morsel}");
                    assert_eq!(got.0, base.0, "{shape}: rows diverged");
                    assert_eq!(got.1, base.1, "{shape}: charges diverged");
                    assert_eq!(got.2, base.2, "{shape}: telemetry diverged");
                }
            }
        }
    }
}

/// Where the fold's two branches meet. The consume phase folds a batch
/// with no failed first attempt in closed form and walks every other batch
/// row by row; each scenario below makes both happen inside one operator,
/// over several runs of one context (breakers persist between runs), and
/// every shape must still equal the `K=1, batch=1` reference, where every
/// batch is one row: rows or the terminal error, charges, telemetry
/// snapshot.
#[test]
fn clean_and_faulted_batches_interleave_like_the_scalar_reference() {
    use probabilistic_predicates::engine::telemetry::EventKind;
    use probabilistic_predicates::engine::udf::ClosureProcessor;
    use probabilistic_predicates::engine::{Column, DataType};

    let f = fixture();
    let retrying = ResilienceConfig::default().with_retry(RetryPolicy {
        max_retries: 8,
        ..Default::default()
    });
    // Trips on the second consecutive terminal failure.
    let brittle = ResilienceConfig::default()
        .with_retry(RetryPolicy::none())
        .with_breaker_threshold(2);
    let fanout = Arc::new(ClosureProcessor::new(
        "Fanout",
        vec![Column::new("copy", DataType::Int)],
        0.5,
        |row, _, out| {
            let id = row.get(0).as_int()?;
            out.extend((0..id.rem_euclid(3)).map(Value::Int));
            Ok(())
        },
    ));
    let fanout_plan = LogicalPlan::scan("traffic").process(fanout);
    /// What a scenario's reference run must show, so that it is known to
    /// take both branches of the fold.
    enum Expect {
        /// Some 64-row batches hold a retried row and some none;
        /// `fail_open`: a poisoned row passed the filter.
        MixedBatches { fail_open: bool },
        /// The breaker tripped part-way through the first run and a whole
        /// further run was short-circuited.
        TripThenShortCircuit,
        /// Every run ended in an error, the last at an open breaker.
        TripThenError,
    }
    let sparse = FaultSpec::transient(0.03);
    let trip = FaultSpec::transient(0.15);
    let pp_op = f.pp_op.as_str();
    // (label, plan, faulted operator, its faults, resilience, runs, expect)
    let scenarios = [
        (
            // (a) faults in only some batches; poisoned rows fail open.
            "sparse faults",
            &f.pp_plan,
            pp_op,
            sparse.with_poison(0.02),
            retrying,
            1,
            Expect::MixedBatches { fail_open: true },
        ),
        (
            // (b) the breaker trips mid-input: every batch after the trip,
            // and all of the second run, is short-circuited row by row.
            "breaker trip, fail-open",
            &f.pp_plan,
            pp_op,
            trip,
            brittle,
            2,
            Expect::TripThenShortCircuit,
        ),
        (
            // The same with fatal filter errors: the first run ends at
            // its first failed row, which trips; the second meets an open
            // breaker at row 0.
            "breaker trip, fail-closed",
            &f.pp_plan,
            pp_op,
            trip,
            brittle
                .with_breaker_threshold(1)
                .with_fail_open_filters(false),
            2,
            Expect::TripThenError,
        ),
        (
            // (c) a 1 : n processor (0, 1 or 2 output rows per input row).
            "fan-out processor",
            &fanout_plan,
            "Fanout",
            sparse,
            retrying,
            1,
            Expect::MixedBatches { fail_open: false },
        ),
    ];
    for (label, plan, faulted, spec, resilience, rounds, expect) in scenarios {
        let faults = FaultPlan::new(0xFA17).inject(faulted, spec);
        let run = |k: usize, batch: usize, morsel: usize| {
            let mut ctx = ExecutionContext::builder(&f.catalog)
                .with_parallelism(k)
                .with_batch_size(batch)
                .with_morsel_size(morsel)
                .with_fault_plan(faults.clone())
                .with_resilience(resilience)
                .build();
            let mut seen = Vec::new();
            for _ in 0..rounds {
                let rows = match ctx.run(plan) {
                    Ok(out) => digest(&out),
                    Err(e) => format!("error: {e}"),
                };
                let mut snap = ctx.telemetry().expect("snapshot after run").clone();
                snap.zero_wall_clock();
                seen.push((rows, format!("{:?}", ctx.meter().entries()), snap));
            }
            seen
        };
        let base = run(1, 1, 1024);

        // The faulted operator's span, one per run.
        let ops: Vec<&OperatorSpan> = base
            .iter()
            .map(|(_, _, snap)| {
                let span = snap.spans.iter().find(|s| s.op.contains(faulted));
                span.expect("faulted operator ran")
            })
            .collect();
        let (op, short_circuited) = (ops[0], ops.iter().map(|s| s.short_circuited).sum::<u64>());
        match expect {
            Expect::MixedBatches { fail_open } => {
                let retried: Vec<u64> = base[0]
                    .2
                    .events
                    .iter()
                    .filter(|e| e.op == op.op && e.kind == EventKind::Retry)
                    .filter_map(|e| e.row)
                    .collect();
                let hit = |batch: u64| retried.iter().any(|r| r / 64 == batch);
                let batches = 400 / 64 + 1;
                assert!((0..batches).any(hit), "{label}: no batch has a fault");
                assert!(!(0..batches).all(hit), "{label}: no batch is clean");
                assert_eq!(op.failed_open > 0, fail_open, "{label}: {op:?}");
            }
            Expect::TripThenShortCircuit => {
                assert!(op.breaker_tripped, "{label}");
                assert!(
                    op.attempts > 64 && short_circuited > 400,
                    "{label}: {ops:?}"
                );
            }
            Expect::TripThenError => {
                assert!(
                    op.breaker_tripped && short_circuited == 1,
                    "{label}: {ops:?}"
                );
                assert!(base.iter().all(|(rows, ..)| rows.starts_with("error")));
            }
        }

        for k in [1usize, 2, 4] {
            for batch in [1usize, 7, 64, 256] {
                for morsel in [64usize, 100, 1024] {
                    let got = run(k, batch, morsel);
                    let shape = format!("{label}: K={k} batch={batch} morsel={morsel}");
                    assert_eq!(got, base, "{shape}: rows, charges or telemetry diverged");
                }
            }
        }
    }
}

/// The kernel-level gate: for every built-in [`RowFilter`] — the PP
/// filter over each model family and reducer and over a 3-leaf
/// conjunction and a 2-leaf disjunction (the one `eval_batch` override),
/// the closure filter, and the fault shim around each —
/// `eval_batch` over a multi-row batch equals the scalar `passes` row by
/// row, errors included. (A `Processor` is scalar: the executor's probe
/// and its retries are the same `process` call, so there is no second
/// path to compare.) The batches are a dense column (scored off the
/// gathered block), the same column with one cell stored sparse (the
/// `Refs` fallback: nothing is densified), and one with a non-blob cell
/// (a per-row error).
#[test]
fn eval_batch_equals_the_scalar_path_for_every_builtin_kernel() {
    let f = fixture();
    let table = f.catalog.read_table("traffic").expect("registered slice");
    let schema = table.schema().clone();
    let blob_idx = schema.index_of("frame").expect("blob column");
    // 70 rows: not a multiple of the kernels' 8 lanes.
    let dense: Vec<Row> = table.rows()[..70].to_vec();
    let with_cell = |at: usize, cell: Value| -> Vec<Row> {
        let mut rows = dense.clone();
        let mut values = rows[at].values().to_vec();
        values[blob_idx] = cell;
        rows[at] = Row::new(values);
        rows
    };
    let sparse_cell = {
        let blob = dense[3].get(blob_idx).as_blob().expect("blob cell");
        let coords = blob.as_dense().expect("traffic blobs are dense");
        let pairs = coords
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as u32, *v))
            .collect();
        Value::blob(Features::Sparse(
            SparseVector::from_pairs(coords.len(), pairs).expect("sparse twin"),
        ))
    };
    let batches = [
        ("dense", dense.clone()),
        ("sparse cell", with_cell(3, sparse_cell)),
        ("non-blob cell", with_cell(5, Value::Int(7))),
    ];

    let mut filters: Vec<Arc<dyn RowFilter>> =
        vec![Arc::new(ClosureFilter::new("even", 0.01, |row, _| {
            Ok(row.get(0).as_int()? % 2 == 0)
        }))];
    let [svm, kde, dnn, pca, fh] = families() else {
        panic!("five families")
    };
    let leaf = |pp: &Arc<ProbabilisticPredicate>| PpExpr::leaf(Arc::clone(pp));
    let exprs = [svm, kde, dnn, pca, fh].map(leaf).into_iter().chain([
        // Later leaves score only the rows the earlier ones left undecided.
        PpExpr::And(vec![
            leaf(&catalog_pp("speed >= 50")),
            leaf(dnn),
            leaf(&catalog_pp("vehColor != red")),
        ]),
        PpExpr::Or(vec![leaf(fh), leaf(&catalog_pp("vehColor = white"))]),
    ]);
    for expr in exprs {
        let planned = PlannedPpExpr::uniform(expr, 0.95).expect("plan");
        filters.push(Arc::new(planned.into_filter("frame")));
    }
    let faults = |name: &str| {
        FaultPlan::new(0xFA17).inject(name, FaultSpec::transient(0.3).with_timeouts(0.1, 2.0))
    };
    // The fault shims wrap whatever the plan holds, so take them off a
    // faulted plan.
    for filter in filters.clone() {
        let plan = faults(filter.name()).apply(&LogicalPlan::scan("traffic").filter(filter));
        match plan {
            LogicalPlan::Filter { filter, .. } => filters.push(filter),
            other => panic!("expected a filter plan, got {other:?}"),
        }
    }

    for (label, rows) in &batches {
        let chunk = Chunk::from_rows(Arc::new(
            Rowset::new(schema.clone(), rows.clone()).expect("rows share the schema"),
        ));
        let batch = Batch::new(&chunk, 0..rows.len(), 0);
        for filter in &filters {
            let scalar: Vec<_> = rows.iter().map(|r| filter.passes(r, &schema)).collect();
            assert_eq!(
                format!("{:?}", filter.eval_batch(&batch)),
                format!("{scalar:?}"),
                "{} over the {label} batch",
                filter.name()
            );
        }
    }
}

/// A random And/Or tree over `leaves` leaves drawn from `pool`.
fn random_expr(rng: &mut StdRng, pool: &[Arc<ProbabilisticPredicate>], leaves: usize) -> PpExpr {
    if leaves == 1 {
        let pp = pool.choose(rng).expect("a non-empty pool");
        return PpExpr::leaf(Arc::clone(pp));
    }
    let mut children = Vec::new();
    let mut left = leaves;
    while left > 0 {
        // At least two children.
        let most = if children.is_empty() { left - 1 } else { left };
        let size = rng.gen_range(1..=most);
        children.push(random_expr(rng, pool, size));
        left -= size;
    }
    if rng.gen_bool(0.5) {
        PpExpr::And(children)
    } else {
        PpExpr::Or(children)
    }
}

/// The batch walk scores each leaf only on the rows the expression has
/// not decided yet, and must still equal `passes` row by row, errors
/// included: random And/Or trees of 1–5 leaves drawn from every model
/// family, negated PPs among them, each planned once with every accuracy
/// and once with its last leaf's missing (a threshold that does not
/// resolve), over random batches of 1, 7 and 256 rows with invalid blob
/// cells — scored as a block, and with one cell stored sparse as
/// references.
#[test]
fn leaf_by_leaf_walk_equals_the_scalar_path_on_random_expressions() {
    let f = fixture();
    let table = f.catalog.read_table("traffic").expect("registered slice");
    let schema = table.schema().clone();
    let blob_idx = schema.index_of("frame").expect("blob column");
    let mut pool = families().to_vec();
    for key in [
        "speed >= 50",
        "vehColor = red",
        "vehType != sedan",
        "vehColor != white",
    ] {
        pool.push(catalog_pp(key));
    }
    let mut rng = StdRng::seed_from_u64(0x1EAF);
    let mut failed_rows = 0;
    for _ in 0..24 {
        let leaves = rng.gen_range(1..=5);
        let expr = random_expr(&mut rng, &pool, leaves);
        let accuracies: Vec<f64> = (0..leaves)
            .map(|_| *[0.9, 0.95, 1.0].choose(&mut rng).expect("three"))
            .collect();
        let full = Assignment::new(accuracies.clone()).expect("in (0, 1]");
        let estimate = expr.estimate(&full).expect("estimate");
        let short = Assignment::new(accuracies[..leaves - 1].to_vec()).expect("in (0, 1]");
        for assignment in [full, short] {
            let filter = PlannedPpExpr {
                expr: expr.clone(),
                assignment,
                estimate,
            }
            .into_filter("frame");
            for size in [1usize, 7, 256] {
                let mut rows: Vec<Row> = (0..size)
                    .map(|_| {
                        let row = &table.rows()[rng.gen_range(0..table.len())];
                        let mut values = row.values().to_vec();
                        match rng.gen_range(0..40) {
                            0 => values[blob_idx] = Value::Int(7),
                            1 => values[blob_idx] = Value::Null,
                            _ => {}
                        }
                        Row::new(values)
                    })
                    .collect();
                let dense = rows.clone();
                // The same rows with one valid cell stored sparse.
                let at = rng.gen_range(0..size);
                if let Ok(blob) = rows[at].get(blob_idx).as_blob() {
                    let coords = blob.as_dense().expect("traffic blobs are dense");
                    let pairs = coords.iter().enumerate();
                    let pairs = pairs
                        .filter(|(_, v)| **v != 0.0)
                        .map(|(i, v)| (i as u32, *v));
                    let sparse = SparseVector::from_pairs(coords.len(), pairs.collect())
                        .expect("sparse twin");
                    let mut values = rows[at].values().to_vec();
                    values[blob_idx] = Value::blob(Features::Sparse(sparse));
                    rows[at] = Row::new(values);
                }
                for rows in [dense, rows] {
                    let scalar: Vec<_> = rows.iter().map(|r| filter.passes(r, &schema)).collect();
                    failed_rows += scalar.iter().filter(|v| v.is_err()).count();
                    let chunk = Chunk::from_rows(Arc::new(
                        Rowset::new(schema.clone(), rows).expect("rows share the schema"),
                    ));
                    assert_eq!(
                        format!("{:?}", filter.eval_batch(&Batch::new(&chunk, 0..size, 0))),
                        format!("{scalar:?}"),
                        "{} over {size} rows",
                        filter.name()
                    );
                }
            }
        }
    }
    assert!(failed_rows > 0, "some rows met an error");
}

/// What a leaf counts is what the per-row walk does there: over the
/// TRAF-20 plans at a = 0.95, a run adds to each leaf's count the rows
/// whose `passes` walk reaches that leaf — at K = 1 and 2 and at batch
/// sizes 64 and 256 alike — which after the first leaf is fewer than the
/// rows scanned.
#[test]
fn leaf_counters_count_the_rows_the_per_row_walk_reaches() {
    /// `passes`, counting the rows that reach each leaf.
    fn reach(
        expr: &PpExpr,
        blob: &Features,
        a: &Assignment,
        next: &mut usize,
        n: &mut [u64],
    ) -> bool {
        let mut gate = |es: &[PpExpr], stay: bool| {
            let mut verdict = stay;
            for e in es {
                if verdict == stay {
                    verdict = reach(e, blob, a, next, n);
                } else {
                    *next += e.leaf_count();
                }
            }
            verdict
        };
        match expr {
            PpExpr::Leaf(pp) => {
                n[*next] += 1;
                let accuracy = a.accuracy(*next).expect("assigned");
                *next += 1;
                pp.passes(blob, accuracy).expect("threshold")
            }
            PpExpr::And(es) => gate(es, true),
            PpExpr::Or(es) => gate(es, false),
        }
    }

    let f = fixture();
    let table = f.catalog.read_table("traffic").expect("registered slice");
    let blob_idx = table.schema().index_of("frame").expect("blob column");
    let blobs: Vec<&Features> = table
        .rows()
        .iter()
        .map(|r| &**r.get(blob_idx).as_blob().expect("blob cell"))
        .collect();
    let (mut later_leaves, mut later_scored) = (0, 0);
    for q in traf20_queries() {
        let optimized =
            f.qo.optimize(&q.nop_plan(&f.dataset), &f.catalog)
                .expect("optimize");
        let [filter] = &optimized.pp_filters[..] else {
            continue;
        };
        let PlannedPpExpr {
            expr, assignment, ..
        } = filter.planned();
        let mut want = vec![0u64; expr.leaf_count()];
        for blob in &blobs {
            reach(expr, blob, assignment, &mut 0, &mut want);
        }
        assert_eq!(want[0], blobs.len() as u64, "Q{}", q.id);
        later_leaves += want.len() - 1;
        later_scored += want[1..].iter().sum::<u64>();
        for k in [1usize, 2] {
            for batch in [64usize, 256] {
                let before = filter.leaf_rows_scored();
                let mut ctx = ExecutionContext::builder(&f.catalog)
                    .with_parallelism(k)
                    .with_batch_size(batch)
                    .build();
                ctx.run(&optimized.plan).expect("run");
                let after = filter.leaf_rows_scored();
                let ran: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
                assert_eq!(ran, want, "Q{}: K={k} batch={batch}", q.id);
            }
        }
    }
    assert!(later_leaves > 0, "some plan has more than one leaf");
    assert!(
        later_scored < (later_leaves * blobs.len()) as u64,
        "later leaves score fewer rows than were scanned"
    );
}

/// What a scan keeps of an in-memory table are the table's own rows: a
/// survivor's blob is the registered `Arc`, not a copy — `Value::sql_eq`
/// and the UDF memo key on that identity — so a memoized plan run a
/// second time, by which time the table's blob column is scored off its
/// attached block, makes no new UDF calls.
#[test]
fn survivors_of_an_in_memory_table_are_the_registered_rows() {
    let f = fixture();
    let registered = f.catalog.read_table("traffic").expect("registered slice");
    let blob_at = registered.schema().index_of("frame").expect("blob column");
    let id_at = registered.schema().index_of("frameID").expect("id column");
    let by_id = |id: i64| {
        let mut rows = registered.rows().iter();
        rows.find(|r| r.get(id_at).as_int().expect("id") == id)
            .expect("a registered row")
    };
    // The injected plan is Scan → PP filter → Process → Select.
    let mut pp_only = &f.pp_plan;
    while !matches!(pp_only, LogicalPlan::Filter { .. }) {
        pp_only = pp_only.children().next().expect("a filter above the scan");
    }
    for k in [1usize, 4] {
        let mut ctx = ExecutionContext::builder(&f.catalog)
            .with_parallelism(k)
            .build();
        let out = ctx.run(pp_only).expect("run");
        assert!(!out.is_empty() && out.len() < registered.len());
        for row in out.rows() {
            let original = by_id(row.get(id_at).as_int().expect("id"));
            assert!(row.get(blob_at).sql_eq(original.get(blob_at)), "K={k}");
        }
    }

    let memo = Arc::new(UdfMemo::new(registered.schema().len()));
    let mut ctx = ExecutionContext::builder(&f.catalog)
        .with_udf_memo(Arc::clone(&memo))
        .build();
    let first = ctx.run(&f.pp_plan).expect("first run");
    let invoked = memo.stats().invoked;
    assert!(invoked > 0);
    let second = ctx.run(&f.pp_plan).expect("second run");
    assert_eq!(memo.stats().invoked, invoked, "every row was a memo hit");
    assert_eq!(digest(&first), digest(&second));
}

/// Engine-level edge shapes: an empty table and a single-row table run
/// identically at extreme batch/morsel settings.
#[test]
fn edge_shapes_are_shape_independent() {
    use probabilistic_predicates::engine::{Column, DataType, Schema};

    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).expect("schema");
    let mut catalog = Catalog::new();
    catalog.register(
        "empty",
        Rowset::new(schema.clone(), vec![]).expect("empty rowset"),
    );
    catalog.register(
        "one",
        Rowset::new(schema, vec![Row::new(vec![Value::Int(7)])]).expect("one-row rowset"),
    );
    for table in ["empty", "one"] {
        let plan = LogicalPlan::scan(table);
        let mut base: Option<(String, String, String)> = None;
        for (k, batch, morsel) in [(1, 1, 1), (8, 64, 1), (8, 1, 4096)] {
            let mut ctx = ExecutionContext::builder(&catalog)
                .with_parallelism(k)
                .with_batch_size(batch)
                .with_morsel_size(morsel)
                .build();
            let out = ctx.run(&plan).expect("edge run");
            let got = observe(&ctx, &out);
            match &base {
                None => base = Some(got),
                Some(b) => assert_eq!(
                    &got, b,
                    "{table}: K={k} batch={batch} morsel={morsel} diverged"
                ),
            }
        }
    }
}
