//! The execution safety rail: the engine has one execution path, and for
//! a fixed plan, catalog, and fault seed its output must be
//! **byte-identical** — same result rows, same cost-meter charges, same
//! telemetry snapshot (after [`TelemetrySnapshot::zero_wall_clock`]) — at
//! every parallelism and batch size, with and without injected faults.
//!
//! The invariant is anchored twice. At the kernel: every built-in
//! filter's `RowFilter::eval_batch` over a multi-row batch selects what
//! the scalar per-row path (`RowFilter::passes`) does, which is what production
//! retries run (a `Processor` is scalar and has no other path). At the
//! engine: every
//! (K, batch) shape equals the `K=1, batch=1` run, where each batch is one
//! row. A morsel is four batches, so the batch sweep sweeps morsels too.
//!
//! [`TelemetrySnapshot::zero_wall_clock`]:
//! probabilistic_predicates::engine::telemetry::TelemetrySnapshot::zero_wall_clock

use std::sync::{Arc, OnceLock};

use probabilistic_predicates::core::alloc::ACCURACY_GRID;
use probabilistic_predicates::core::expr::{PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::pp::ProbabilisticPredicate;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::telemetry::EventKind;
use probabilistic_predicates::engine::udf::{ClosureFilter, RowFilter};
use probabilistic_predicates::engine::{
    Batch, Catalog, FaultPlan, FaultSpec, GroupColumn, LogicalPlan, OperatorSpan, Row,
    RowGroupMeta, RowRef, Rowset, Schema, Selection, TableProvider, UdfMemo, Value,
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

#[path = "common/fail_closed.rs"]
mod fail_closed;
use fail_closed::fail_closed;

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

/// The engine-level gate: every (K, batch) shape is
/// byte-identical — results, charges, telemetry snapshot (every span
/// counter included) — to the `K=1, batch=1` reference, clean and under
/// seeded faults (faults key off row identity, so retries and fail-opens land
/// on the same rows at any shape).
#[test]
fn every_shape_matches_the_scalar_reference() {
    let f = fixture();
    // Rare enough that three retries recover every call.
    let spec = FaultSpec::transient(0.05).with_timeouts(0.02, 2.0);
    for faulted in [false, true] {
        let run = |k: usize, batch: usize| {
            let mut builder = ExecutionContext::builder(&f.catalog)
                .with_parallelism(k)
                .with_batch_size(batch);
            if faulted {
                builder = builder.with_fault_plan(
                    FaultPlan::new(0xC01A7)
                        .inject("VehTypeClassifier", spec)
                        .inject(&f.pp_op, spec),
                );
            }
            let mut ctx = builder.build();
            let out = ctx.run(&f.pp_plan).expect("run");
            let snap = ctx.telemetry().expect("snapshot after run");
            let failures: u64 = snap.spans.iter().map(|s| s.failures).sum();
            (observe(&ctx, &out), failures)
        };
        let (base, base_failures) = run(1, 1);
        assert_eq!(
            base_failures > 0,
            faulted,
            "faults fire exactly when injected"
        );
        for k in [1usize, 4] {
            for batch in [1usize, 4, 25, 64, 256] {
                let (got, _) = run(k, batch);
                let shape = format!("faulted={faulted} K={k} batch={batch}");
                assert_eq!(got.0, base.0, "{shape}: rows diverged");
                assert_eq!(got.1, base.1, "{shape}: charges diverged");
                assert_eq!(got.2, base.2, "{shape}: telemetry diverged");
            }
        }
    }
}

/// Where the fold's two branches meet. The consume phase folds a batch
/// with no failed first attempt in closed form and walks every other batch
/// row by row; each scenario below makes both happen inside one operator,
/// over several runs of one context (each run starts with closed
/// breakers), and every shape must still equal the `K=1, batch=1`
/// reference, where every batch is one row: rows or the terminal error,
/// charges, telemetry snapshot.
#[test]
fn clean_and_faulted_batches_interleave_like_the_scalar_reference() {
    use probabilistic_predicates::engine::udf::ClosureProcessor;
    use probabilistic_predicates::engine::{Column, DataType};

    let f = fixture();
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
        /// The breaker tripped part-way through the first run, after which
        /// its rows were short-circuited, and the next run, starting with
        /// a closed breaker, did the same.
        TripThenShortCircuit,
        /// Every run ended in an error at its first failed row, and nothing
        /// tripped: an operator that stops there has no breaker.
        ErrorAtFirstFailure,
    }
    let sparse = FaultSpec::transient(0.03);
    // Most calls fail after their retries too, so five terminal failures
    // in a row come soon.
    let trip = FaultSpec::transient(0.8);
    let pp_op = f.pp_op.as_str();
    let fail_closed_pp_plan = fail_closed(&f.pp_plan);
    // (label, plan, faulted operator, its faults, runs, expect)
    let scenarios = [
        (
            // (a) faults in only some batches; poisoned rows fail open.
            "sparse faults",
            &f.pp_plan,
            pp_op,
            sparse.with_poison(0.02),
            1,
            Expect::MixedBatches { fail_open: true },
        ),
        (
            // (b) the breaker trips mid-input: every batch after the trip
            // is short-circuited row by row, and the second run, whose
            // breaker starts closed, repeats the first.
            "breaker trip, fail-open",
            &f.pp_plan,
            pp_op,
            trip,
            2,
            Expect::TripThenShortCircuit,
        ),
        (
            // The same with fatal filter errors: each run ends at its
            // first failed row, a poisoned one (never retried), which
            // trips nothing.
            "fail-closed",
            &fail_closed_pp_plan,
            pp_op,
            FaultSpec::poison(0.15),
            2,
            Expect::ErrorAtFirstFailure,
        ),
        (
            // (c) a 1 : n processor (0, 1 or 2 output rows per input row).
            "fan-out processor",
            &fanout_plan,
            "Fanout",
            sparse,
            1,
            Expect::MixedBatches { fail_open: false },
        ),
    ];
    for (label, plan, faulted, spec, rounds, expect) in scenarios {
        let faults = FaultPlan::new(0xFA17).inject(faulted, spec);
        let run = |k: usize, batch: usize| {
            let mut ctx = ExecutionContext::builder(&f.catalog)
                .with_parallelism(k)
                .with_batch_size(batch)
                .with_fault_plan(faults.clone())
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
        let base = run(1, 1);

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
                    op.attempts > 64 && op.short_circuited > 64,
                    "{label}: {ops:?}"
                );
                assert!(ops.iter().all(|s| s == &op), "{label}: {ops:?}");
                assert!(base
                    .iter()
                    .all(|(rows, charges, _)| (rows, charges) == (&base[0].0, &base[0].1)));
            }
            Expect::ErrorAtFirstFailure => {
                assert!(
                    ops.iter().all(|s| !s.breaker_tripped && s.failed_open == 0)
                        && short_circuited == 0,
                    "{label}: {ops:?}"
                );
                assert!(ops.iter().all(|s| s.failures == 1), "{label}: {ops:?}");
                assert!(base.iter().all(|(rows, ..)| rows.starts_with("error")));
                assert!(base
                    .iter()
                    .flat_map(|(.., snap)| &snap.events)
                    .all(|e| e.kind != EventKind::BreakerOpened));
            }
        }

        for k in [1usize, 2, 4] {
            for batch in [1usize, 7, 16, 25, 64, 256] {
                let got = run(k, batch);
                let shape = format!("{label}: K={k} batch={batch}");
                assert_eq!(got, base, "{shape}: rows, charges or telemetry diverged");
            }
        }
    }
}

/// The kernel-level gate: for every built-in [`RowFilter`] — the PP
/// filter over each model family and reducer and over a 3-leaf
/// conjunction and a 2-leaf disjunction (the one `eval_batch` override),
/// the closure filter (the default `eval_batch`), and the fault shim
/// around each — `eval_batch` selects what the scalar `passes` does row
/// by row: the same passing positions, ascending, and the same errors at
/// the same rows. The rows are cut into ragged batches (70 rows: not a
/// multiple of the kernels' 8 lanes, nor of 64), and are a dense column
/// (scored off the gathered block), the same column with one cell stored
/// sparse (the `Refs` fallback: nothing is densified), and one with a
/// non-blob cell (a per-row error). (A `Processor` is scalar: the
/// executor's probe and its retries are the same `process` call, so
/// there is no second path to compare.)
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
        // Passes a row only the second leaf keeps before one the first
        // keeps, so its walk hands positions back out of row order.
        PpExpr::Or(vec![leaf(fh), leaf(&catalog_pp("vehColor = black"))]),
    ]);
    for expr in exprs {
        let leaves = expr.leaf_count();
        // 0.85: a level every leaf here certifies.
        let planned = PlannedPpExpr::new(expr, vec![0.85; leaves]).expect("plan");
        if matches!(planned.expr(), PpExpr::Or(_)) {
            assert!(
                walks_out_of_order(&planned, &dense, blob_idx),
                "the disjunction hands its passed rows back out of row order"
            );
        }
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
        let set = Rowset::new(schema.clone(), rows.clone()).expect("rows share the schema");
        for size in [7, 64, 70] {
            for start in (0..rows.len()).step_by(size) {
                let end = (start + size).min(rows.len());
                let batch = Batch::new(&set, start..end, start);
                for filter in &filters {
                    assert_selects_like_passes(
                        filter.as_ref(),
                        &batch,
                        &rows[start..end],
                        &schema,
                        &format!("{} over the {label} rows {start}..{end}", filter.name()),
                    );
                }
            }
        }
    }
}

/// Whether the leaf walk of `planned`, a two-leaf disjunction, meets
/// `rows` out of row order: it hands back the rows its first leaf passes,
/// then those only its second passes, and one of the latter comes first.
fn walks_out_of_order(planned: &PlannedPpExpr, rows: &[Row], blob_idx: usize) -> bool {
    let leaves = planned.expr().leaves();
    let passes = |leaf: usize, row: &Row| {
        let blob = row.get(blob_idx).as_blob().expect("a blob cell");
        leaves[leaf].score(blob) >= planned.thresholds()[leaf]
    };
    let by_first = rows.iter().rposition(|r| passes(0, r));
    let only_second = rows.iter().position(|r| !passes(0, r) && passes(1, r));
    matches!((only_second, by_first), (Some(second), Some(first)) if second < first)
}

/// `filter.eval_batch(batch)` is the selection `passes` makes of `rows`,
/// the batch's rows, collected in row order: positions ascending, errors
/// each at its row.
fn assert_selects_like_passes(
    filter: &dyn RowFilter,
    batch: &Batch<'_>,
    rows: &[Row],
    schema: &Schema,
    what: &str,
) -> Selection {
    let got = filter.eval_batch(batch);
    let scalar: Selection = rows
        .iter()
        .map(|r| filter.passes(r.into(), schema))
        .collect();
    assert_eq!(format!("{got:?}"), format!("{scalar:?}"), "{what}");
    got
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
/// family, negated PPs among them, each leaf planned at a random accuracy
/// it certifies, over random batches of 1, 7 and 256 rows with invalid
/// blob cells — scored as a block, and with one cell stored sparse as
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
        // Each leaf at one of the grid points its positives certify.
        let accuracies: Vec<f64> = expr
            .leaves()
            .iter()
            .map(|pp| {
                let certified = ACCURACY_GRID.into_iter();
                let certified: Vec<f64> = certified
                    .filter(|&a| pp.certified_threshold(a).is_some())
                    .collect();
                *certified.choose(&mut rng).expect("0.5 needs 5 positives")
            })
            .collect();
        let filter = PlannedPpExpr::new(expr, accuracies)
            .expect("plan")
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
                let sparse =
                    SparseVector::from_pairs(coords.len(), pairs.collect()).expect("sparse twin");
                let mut values = rows[at].values().to_vec();
                values[blob_idx] = Value::blob(Features::Sparse(sparse));
                rows[at] = Row::new(values);
            }
            for rows in [dense, rows] {
                let set = Rowset::new(schema.clone(), rows.clone()).expect("rows share the schema");
                let got = assert_selects_like_passes(
                    &filter,
                    &Batch::new(&set, 0..size, 0),
                    &rows,
                    &schema,
                    &format!("{} over {size} rows", filter.name()),
                );
                failed_rows += got.failed.len();
            }
        }
    }
    assert!(failed_rows > 0, "some rows had an invalid blob cell");
}

/// What a leaf counts is what the per-row walk does there: over the
/// TRAF-20 plans at a = 0.8, a run adds to each leaf's count the rows
/// whose `passes` walk reaches that leaf — at K = 1 and 2 and at batch
/// sizes 64 and 256 alike — which after the first leaf is fewer than the
/// rows scanned.
#[test]
fn leaf_counters_count_the_rows_the_per_row_walk_reaches() {
    /// `passes`, counting the rows that reach each leaf.
    fn reach(
        expr: &PpExpr,
        blob: &Features,
        thresholds: &[f64],
        next: &mut usize,
        n: &mut [u64],
    ) -> bool {
        let mut gate = |es: &[PpExpr], stay: bool| {
            let mut verdict = stay;
            for e in es {
                if verdict == stay {
                    verdict = reach(e, blob, thresholds, next, n);
                } else {
                    *next += e.leaf_count();
                }
            }
            verdict
        };
        match expr {
            PpExpr::Leaf(pp) => {
                n[*next] += 1;
                let threshold = thresholds[*next];
                *next += 1;
                pp.score(blob) >= threshold
            }
            PpExpr::And(es) => gate(es, true),
            PpExpr::Or(es) => gate(es, false),
        }
    }

    let f = fixture();
    let table = f.catalog.read_table("traffic").expect("registered slice");
    let blob_idx = table.schema().index_of("frame").expect("blob column");
    let blobs: Vec<&Features> = table
        .row_refs()
        .map(|r| &**r.get(blob_idx).as_blob().expect("blob cell"))
        .collect();
    // At 0.95 no conjunction is certified: its leaves would need 0.96 or
    // more each, and 74 validation positives for it. At 0.8 some are.
    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let config = QoConfig {
        accuracy_target: 0.8,
    };
    let qo = PpQueryOptimizer::new(f.qo.catalog().clone(), domains, config);
    let (mut later_leaves, mut later_scored) = (0, 0);
    for q in traf20_queries() {
        let optimized = qo
            .optimize(&q.nop_plan(&f.dataset), &f.catalog)
            .expect("optimize");
        let Some(filter) = &optimized.pp_filter else {
            continue;
        };
        let planned = filter.planned();
        let expr = planned.expr();
        let mut want = vec![0u64; expr.leaf_count()];
        for blob in &blobs {
            reach(expr, blob, planned.thresholds(), &mut 0, &mut want);
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
        let mut rows = registered.row_refs();
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

/// `rows` as one group of decoded cells, the way a segment table's rows
/// reach a scan: what a scan keeps of it is gathered into a group of its
/// own.
#[derive(Debug)]
struct Decoded {
    rows: Rowset,
    meta: RowGroupMeta,
}

impl Decoded {
    fn new(rows: Rowset) -> Decoded {
        let meta = RowGroupMeta {
            rows: rows.len(),
            bytes: 0,
            shard: 0,
            zones: Default::default(),
        };
        Decoded { rows, meta }
    }
}

impl TableProvider for Decoded {
    fn schema(&self) -> Arc<Schema> {
        self.rows.schema().clone()
    }
    fn row_count(&self) -> usize {
        self.rows.len()
    }
    fn group_count(&self) -> usize {
        1
    }
    fn group_meta(&self, _: usize) -> &RowGroupMeta {
        &self.meta
    }
    fn read_group(&self, _: usize) -> probabilistic_predicates::engine::Result<Rowset> {
        let columns = (0..self.rows.schema().len())
            .map(|c| GroupColumn::Cells(self.rows.row_refs().map(|r| r.get(c).clone()).collect()));
        Rowset::from_columns(self.schema(), columns.collect())
    }
    fn shard_count(&self) -> usize {
        1
    }
}

/// A bare `Scan` over a registered table hands over the table's own rows
/// by index: in order, equal cells, the same blob `Arc`s, and — once the
/// table's columns are built, by its first scan — no blob cloned while
/// the output is alive. A NoP plan above it (`Scan → Process → Select`)
/// reads them where they are and gives the cells, charges and telemetry
/// of the tuple path — the same rows scanned as decoded cells.
#[test]
fn a_bare_scan_of_a_registered_table_hands_over_its_own_rows() {
    let f = fixture();
    let source = f.catalog.read_table("traffic").expect("registered slice");
    // Blobs of this test's own, so that no other test holds them.
    let own = |cell: &Value| match cell {
        Value::Blob(blob) => Value::blob((**blob).clone()),
        other => other.clone(),
    };
    let rows = source.row_refs().map(|r| r.iter().map(own).collect());
    let table = Rowset::new(source.schema().clone(), rows.collect()).expect("rows fit");
    let blob = source.schema().index_of("frame").expect("blob column");
    let blobs: Vec<_> = (table.rows().iter())
        .map(|r| Arc::clone(r.get(blob).as_blob().expect("a blob")))
        .collect();
    let mut catalog = Catalog::new();
    catalog.register("traffic", table.clone());
    let scan = || ExecutionContext::new(&catalog).run(&LogicalPlan::scan("traffic"));
    drop(scan().expect("first scan"));
    let holders = || blobs.iter().map(Arc::strong_count).collect::<Vec<_>>();
    let before = holders();
    let out = scan().expect("scan");
    assert_eq!(holders(), before, "the scan cloned a table blob");
    let blobs_of = |rows: &Rowset| -> Vec<_> {
        let blob = |r: RowRef<'_>| Arc::as_ptr(r.get(blob).as_blob().expect("a blob"));
        rows.row_refs().map(blob).collect()
    };
    assert_eq!(
        blobs_of(&out),
        blobs.iter().map(Arc::as_ptr).collect::<Vec<_>>()
    );
    assert_eq!(verdicts(&out).0, verdicts(&source).0);

    let q1 = traf20_queries().into_iter().find(|q| q.id == 1);
    let nop = q1.expect("Q1").nop_plan(&f.dataset);
    let mut decoded = Catalog::new();
    decoded.register_provider("traffic", Arc::new(Decoded::new(table)));
    let run = |catalog: &Catalog| {
        let mut ctx = ExecutionContext::new(catalog);
        let out = ctx.run(&nop).expect("NoP plan");
        assert!(!out.is_empty() && out.len() < blobs.len());
        (verdicts(&out), observe(&ctx, &out))
    };
    assert_eq!(run(&catalog), run(&decoded));
}

/// What a run leaves in its ledger, in a form the deferred run and its
/// oracle can both produce: the `CostMeter` entries, and the telemetry's
/// spans (numbered in charge order, wall clock zeroed), operator events,
/// breaker openings (which a run appends after every operator's events)
/// and fired faults.
#[derive(Debug, Default, PartialEq)]
struct Ledger {
    meter: Vec<String>,
    spans: Vec<String>,
    events: Vec<String>,
    openings: Vec<String>,
    faults: Vec<String>,
}

impl Ledger {
    /// Adds a run's ledger, leaving out its first `skip` operators.
    fn add(&mut self, ctx: &ExecutionContext, skip: usize) {
        let snap = ctx.telemetry().expect("snapshot after run");
        let entries = ctx.meter().entries().iter().skip(skip);
        self.meter.extend(entries.map(|e| format!("{e:?}")));
        for span in snap.spans.iter().skip(skip) {
            let mut span = span.clone();
            span.op_id.0 = self.spans.len() as _;
            span.wall_nanos = 0;
            self.spans.push(format!("{span:?}"));
        }
        for event in &snap.events {
            let into = if event.kind == EventKind::BreakerOpened {
                &mut self.openings
            } else {
                &mut self.events
            };
            into.push(format!("{event:?}"));
        }
        self.faults
            .extend(snap.injected_faults.iter().map(|f| format!("{f:?}")));
        self.faults.sort();
    }
}

/// The verdict rows — their cells and order read in place, then built —
/// and each blob cell's `Arc`; or the run's terminal error. With the
/// ledger, what a run is compared on.
type Observed = (Result<(String, String, Vec<usize>), String>, Ledger);

fn verdicts(out: &Rowset) -> (String, String, Vec<usize>) {
    let cells: Vec<Vec<Value>> = out
        .row_refs()
        .map(|r| r.iter().cloned().collect())
        .collect();
    let blobs = out.row_refs().flat_map(|r| r.iter().filter_map(blob_at));
    (format!("{cells:?}"), digest(out), blobs.collect())
}

fn blob_at(cell: &Value) -> Option<usize> {
    match cell {
        Value::Blob(blob) => Some(Arc::as_ptr(blob) as usize),
        _ => None,
    }
}

/// A context at `(K, batch)`, injecting `faults` if there are any.
fn deferred_context<'c>(
    catalog: &'c Catalog,
    (k, batch): (usize, usize),
    faults: Option<&FaultPlan>,
) -> ExecutionContext<'c> {
    let mut builder = ExecutionContext::builder(catalog)
        .with_parallelism(k)
        .with_batch_size(batch);
    if let Some(faults) = faults {
        builder = builder.with_fault_plan(faults.clone());
    }
    builder.build()
}

/// `plan` run the engine's way at `shape`.
fn deferred_run(plan: &LogicalPlan, faults: Option<&FaultPlan>, shape: (usize, usize)) -> Observed {
    let mut ctx = deferred_context(&fixture().catalog, shape, faults);
    let result = ctx.run(plan);
    let mut ledger = Ledger::default();
    ledger.add(&ctx, 0);
    (
        result.as_ref().map(verdicts).map_err(ToString::to_string),
        ledger,
    )
}

/// `plan` (operators above `Scan → PP filter`) the way an executor that
/// builds a tuple after every operator runs it, at `K = 1, batch = 1`.
/// The rows are this oracle's own: each `Process` calls its (fault-free)
/// UDF on every tuple and builds a tuple per output row — the input
/// row's cells, then the row's — and each `Select` evaluates its
/// predicate on every tuple. The ledger is the engine's, run operator by
/// operator, each over the oracle's tuples registered as a table of their
/// own (those tables' scans are left out): the engine charges what its
/// resilience model does with them, and its own rows must be these.
fn scalar_oracle(plan: &LogicalPlan, faults: Option<&FaultPlan>) -> Observed {
    let f = fixture();
    let mut stages = vec![plan];
    while !matches!(stages[0], LogicalPlan::Filter { .. }) {
        let below = stages[0]
            .children()
            .next()
            .expect("an operator above the filter");
        stages.insert(0, below);
    }
    let mut ledger = Ledger::default();
    let mut tuples: Option<Rowset> = None;
    for op in stages {
        let staged;
        let (catalog, plan, skip) = match &tuples {
            None => (&f.catalog, op.clone(), 0),
            Some(tuples) => {
                let mut catalog = Catalog::new();
                catalog.register("stage", tuples.clone());
                staged = catalog;
                (&staged, op.map_children(|_| LogicalPlan::scan("stage")), 1)
            }
        };
        let mut ctx = deferred_context(catalog, (1, 1), faults);
        let result = ctx.run(&plan);
        ledger.add(&ctx, skip);
        let out = match result {
            Ok(out) => out,
            Err(e) => return (Err(e.to_string()), ledger),
        };
        let schema = out.schema().clone();
        let rows = match (op, tuples.take()) {
            (LogicalPlan::Process { processor, .. }, Some(input)) => {
                let width = processor.output_columns().len();
                let mut rows = Vec::new();
                for row in input.rows() {
                    let mut cells = Vec::new();
                    let call = processor.process(RowRef::from(&row), input.schema(), &mut cells);
                    call.expect("a fault-free call");
                    for made in cells.chunks(width) {
                        rows.push(Row::new(row.values().iter().chain(made).cloned().collect()));
                    }
                }
                rows
            }
            (LogicalPlan::Select { predicate, .. }, Some(input)) => {
                let keep = |row: &Row| predicate.eval(row.into(), &schema).expect("a verdict");
                input.rows().into_iter().filter(keep).collect()
            }
            // The PP filter's survivors, as tuples.
            _ => out
                .row_refs()
                .map(|r| Row::new(r.iter().cloned().collect()))
                .collect(),
        };
        tuples = Some(Rowset::new(schema, rows).expect("rows fit"));
    }
    (Ok(verdicts(&tuples.expect("the filter ran"))), ledger)
}

/// Deferred execution — `Process` appends cells, `Select` keeps rows by
/// index, the tuples are built once when asked for — against the scalar
/// oracle that builds them after every operator: verdict rows (cells,
/// order, blob `Arc`s), `CostMeter` and telemetry are equal at every
/// (K, batch) shape, for chains of one, two and three UDFs and a
/// ragged processor (0, 1 or 2 rows per input row) before and after a
/// UDF, with `Select` on an appended column and on a base one; clean,
/// under faults that force retries and trip the PP filter's breaker, and
/// under a poisoned UDF row that ends the run.
#[test]
fn deferred_execution_matches_a_tuple_after_every_operator() {
    use probabilistic_predicates::engine::udf::ClosureProcessor;
    use probabilistic_predicates::engine::{Clause, Column, CompareOp, DataType, Predicate};

    let f = fixture();
    let mut pp = &f.pp_plan;
    while !matches!(pp, LogicalPlan::Filter { .. }) {
        pp = pp.children().next().expect("a filter above the scan");
    }
    let udf = |column| {
        pp.clone()
            .process(f.dataset.udf(column).expect("a traffic UDF"))
    };
    let ragged = Arc::new(ClosureProcessor::new(
        "Ragged",
        vec![Column::new("copy", DataType::Int)],
        0.5,
        |row, schema, out| {
            let id = row.get_named(schema, "frameID")?.as_int()?;
            let copies = [0, 2, 1][id.rem_euclid(3) as usize];
            out.extend((0..copies).map(|k| Value::Int(id * 10 + k)));
            Ok(())
        },
    ));
    let is = |column: &str, op, value: Value| Predicate::from(Clause::new(column, op, value));
    let chain = |plan: LogicalPlan, column| plan.process(f.dataset.udf(column).expect("a UDF"));
    let plans = [
        (
            "1 UDF, Select on its column",
            udf("vehType").select(is("vehType", CompareOp::Eq, Value::str("SUV"))),
        ),
        (
            "2 UDFs",
            chain(udf("vehType"), "vehColor").select(Predicate::or(
                is("vehColor", CompareOp::Eq, Value::str("red")),
                is("vehType", CompareOp::Eq, Value::str("SUV")),
            )),
        ),
        (
            "3 UDFs",
            chain(chain(udf("vehType"), "vehColor"), "speed").select(Predicate::and(
                is("speed", CompareOp::Ge, Value::Float(50.0)),
                is("vehColor", CompareOp::Ne, Value::str("white")),
            )),
        ),
        (
            "ragged, then a UDF, Select on a base column",
            chain(pp.clone().process(ragged.clone()), "vehColor").select(is(
                "cameraID",
                CompareOp::Le,
                Value::Int(3),
            )),
        ),
        (
            "a UDF, then ragged, Select on the ragged column",
            udf("vehType")
                .process(ragged)
                .select(is("copy", CompareOp::Ge, Value::Int(5_000))),
        ),
    ];
    // Rare enough that three retries recover every call; the PP's
    // poisoned rows come in runs long enough to trip its breaker.
    let transient = FaultSpec::transient(0.05);
    let faults = [
        ("clean", None),
        (
            "retries and a tripped breaker",
            Some(
                FaultPlan::new(0xDEF3)
                    .inject(&f.pp_op, FaultSpec::poison(0.6))
                    .inject("VehTypeClassifier", transient)
                    .inject("VehColorClassifier", transient)
                    .inject("Ragged", transient),
            ),
        ),
        (
            "a poisoned UDF row",
            Some(FaultPlan::new(0xDEF3).inject("VehColorClassifier", FaultSpec::poison(0.02))),
        ),
    ];
    let (mut retried, mut tripped, mut failed) = (false, false, false);
    for (label, plan) in &plans {
        for (faulted, fault_plan) in &faults {
            let want = scalar_oracle(plan, fault_plan.as_ref());
            let (rows, ledger) = &want;
            retried |= ledger
                .events
                .iter()
                .any(|e| e.contains(&format!("{:?}", EventKind::Retry)));
            tripped |= ledger
                .spans
                .iter()
                .any(|s| s.contains("breaker_tripped: true"));
            failed |= rows.is_err();
            for k in [1usize, 2, 4] {
                for batch in [1usize, 4, 7, 25, 64] {
                    let got = deferred_run(plan, fault_plan.as_ref(), (k, batch));
                    let shape = format!("{label}, {faulted}: K={k} batch={batch}");
                    assert_eq!(got.0, want.0, "{shape}: rows");
                    assert_eq!(got.1, want.1, "{shape}: ledger");
                }
            }
        }
    }
    assert!(
        retried && tripped && failed,
        "retried {retried}, tripped {tripped}, failed {failed}"
    );
}

/// Engine-level edge shapes: an empty table and a single-row table run
/// identically at extreme parallelism and batch settings.
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
        for (k, batch) in [(1, 1), (8, 1), (8, 64), (8, 4096)] {
            let mut ctx = ExecutionContext::builder(&catalog)
                .with_parallelism(k)
                .with_batch_size(batch)
                .build();
            let out = ctx.run(&plan).expect("edge run");
            let got = observe(&ctx, &out);
            match &base {
                None => base = Some(got),
                Some(b) => assert_eq!(&got, b, "{table}: K={k} batch={batch} diverged"),
            }
        }
    }
}
