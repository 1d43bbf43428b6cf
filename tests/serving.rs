//! End-to-end tests of the `pp-server` serving runtime: concurrency
//! determinism (with and without a mid-stream catalog-epoch swap), plan
//! cache semantics, drift-triggered replan verdict identity, and
//! fault containment.

use std::io::Cursor;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod common;

use probabilistic_predicates::core::alloc::ACCURACY_GRID;
use probabilistic_predicates::core::catalog::CatalogEpoch;
use probabilistic_predicates::core::inject::inject_above_scan;
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::pp::ProbabilisticPredicate;
use probabilistic_predicates::core::sidecar::ValidationSidecar;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traf20::{traf20_queries, TrafQuery};
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::logical::ProjectItem;
use probabilistic_predicates::engine::predicate::{Clause, CompareOp, Predicate};
use probabilistic_predicates::engine::{
    Catalog, DataType, ExecutionContext, FaultPlan, FaultSpec, LogicalPlan, Rowset,
    TelemetrySnapshot,
};
use probabilistic_predicates::ml::calibrate::certified_keep;
use probabilistic_predicates::ml::dataset::{LabeledSet, Sample};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec, Pipeline};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::wire::{
    read_response, serve_connection, write_frame, Frame, WireOutcome, WireRequest,
};
use probabilistic_predicates::server::{
    AdmissionConfig, AuditConfig, CacheConfig, PpServer, QueryOutcome, QueryRequest, RejectReason,
    ServerConfig, ServerFaults, SourceRegistry, SourceSpec,
};

struct Fixture {
    /// The corpus: UDFs for TRAF-20's NoP plans.
    dataset: TrafficDataset,
    catalog: Catalog,
    sources: SourceRegistry,
    pp_catalog: PpCatalog,
    domains: Domains,
    /// The trained pipeline behind the `vehType = SUV` PP (reused to build
    /// the shared-pipeline corpus of the replan test).
    suv_pipeline: Pipeline,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
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
        let suv_pipeline = pp_catalog
            .get(&Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )))
            .expect("SUV PP trained")
            .pipeline()
            .clone();
        Fixture {
            dataset,
            catalog,
            sources,
            pp_catalog,
            domains,
            suv_pipeline,
        }
    })
}

fn make_server(workers: usize) -> PpServer {
    let f = fixture();
    PpServer::new(
        ServerConfig {
            workers,
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    )
}

/// The highest grid accuracy `pipeline`'s validation positives certify.
fn top_certified(pipeline: &Pipeline) -> f64 {
    let certified = |a: &f64| pipeline.calibration().certified_threshold(*a).is_some();
    (ACCURACY_GRID.into_iter().rev())
        .find(certified)
        .expect("a certified grid point")
}

fn digest(rows: &Rowset) -> String {
    format!("{:?}", rows.rows())
}

/// Runs Q1–Q4 twice (second pass re-submits the same four queries) on a
/// server with `workers` threads, optionally publishing a new (identical
/// content) PP corpus between the passes; both passes are in flight at
/// once, across the swap. Returns one canonical line per query — epoch,
/// result rows, and the wall-clock-zeroed telemetry JSON — and the plan
/// cache's (builds, hits). Which of two queries sharing a plan built it
/// depends on the schedule (a pass-2 query can reach the cache before its
/// pass-1 twin), so no line carries a hit flag; how many built does not.
fn run_batch(workers: usize, swap_mid_stream: bool) -> (Vec<String>, (u64, u64)) {
    let f = fixture();
    let mut server = make_server(workers);
    let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 4).collect();
    let mut tickets = Vec::new();
    for pass in 0..2 {
        if pass == 1 && swap_mid_stream {
            // Mid-stream hot swap: queries already submitted keep their
            // pinned epoch-1 snapshots; the second pass plans at epoch 2.
            server.publish_pps(f.pp_catalog.clone());
        }
        for q in &queries {
            tickets.push(
                server
                    .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                    .expect("admitted"),
            );
        }
    }
    let lines: Vec<String> = tickets
        .into_iter()
        .map(|t| {
            let resp = t.wait();
            let s = resp.outcome.success().expect("query completes");
            let mut tel = s.telemetry.clone();
            tel.zero_wall_clock();
            format!(
                "epoch={} rows={} tel={}",
                s.epoch,
                digest(&s.rows),
                tel.to_json()
            )
        })
        .collect();
    let stats = server.cache_stats();
    server.shutdown();
    (lines, (stats.builds, stats.hits))
}

/// The tentpole determinism contract: per-query results and telemetry are
/// byte-identical between a serial (1-worker) and a concurrent (4-worker)
/// schedule, with and without a catalog-epoch swap between the passes.
#[test]
fn concurrent_schedule_matches_serial_with_and_without_epoch_swap() {
    for swap in [false, true] {
        let (serial, serial_cache) = run_batch(1, swap);
        let (concurrent, concurrent_cache) = run_batch(4, swap);
        assert_eq!(
            serial, concurrent,
            "swap={swap}: concurrent schedule diverged from serial"
        );
        // Single-flight makes the counts schedule-independent: each of the
        // four plans is built once per epoch it is asked for at, and every
        // other arrival — cached or waiting on the builder — is a hit.
        let expected_cache = if swap { (8, 0) } else { (4, 4) };
        assert_eq!(serial_cache, expected_cache, "swap={swap}: 1 worker");
        assert_eq!(concurrent_cache, expected_cache, "swap={swap}: 4 workers");
        // Pass 1 is pinned to epoch 1 even when the swap lands while it is
        // still queued; pass 2 plans at whatever the swap left current.
        for (i, line) in serial.iter().enumerate() {
            let expected_epoch = if i >= 4 && swap {
                "epoch=e2"
            } else {
                "epoch=e1"
            };
            assert!(
                line.starts_with(expected_epoch),
                "swap={swap} line {i}: {line}"
            );
        }
    }
}

/// A served plan runs each conjunct right after the last UDF it reads,
/// its UDFs in rank order. That rewrite is exact: on every TRAF-20 query
/// at every target it picks the PP the NoP plan gets, returns the same
/// rows, and runs no UDF on more rows (each UDF's span paired with NoP's
/// by name, since the order may differ).
#[test]
fn a_placed_served_plan_picks_nops_pp_and_rows_and_runs_no_udf_on_more_rows() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("traffic source");
    let mut fewer = 0;
    for q in traf20_queries() {
        let nop = q.nop_plan(&f.dataset).project(vec![ProjectItem::NonBlob]);
        let placed = spec.nop_plan(&q.predicate);
        for accuracy_target in [0.9, 0.95, 0.98] {
            let qo = PpQueryOptimizer::new(
                f.pp_catalog.clone(),
                f.domains.clone(),
                QoConfig { accuracy_target },
            );
            let run = |plan| {
                let optimized = qo.optimize(plan, &f.catalog).expect("optimize");
                let chosen = optimized.report.chosen.map(|c| {
                    let bits: Vec<u64> = c.leaf_accuracies.iter().map(|a| a.to_bits()).collect();
                    (c.expr, c.leaf_keys, bits)
                });
                let mut ctx = ExecutionContext::new(&f.catalog);
                let rows = digest(&ctx.run(&optimized.plan).expect("run"));
                let spans = ctx.telemetry().expect("telemetry").spans.iter();
                let mut udf_rows: Vec<(String, u64)> = (spans
                    .filter(|s| s.op.starts_with("Process[")))
                .map(|s| (s.op.clone(), s.rows_in))
                .collect();
                udf_rows.sort();
                (chosen, rows, udf_rows)
            };
            let (nop_chosen, nop_rows, nop_udf_rows) = run(&nop);
            let (chosen, rows, udf_rows) = run(&placed);
            let at = format!("Q{} a={accuracy_target}", q.id);
            assert_eq!(chosen, nop_chosen, "{at}");
            assert_eq!(rows, nop_rows, "{at}");
            assert_eq!(udf_rows.len(), nop_udf_rows.len(), "{at}");
            for ((op, rows_in), (nop_op, nop_rows_in)) in udf_rows.iter().zip(&nop_udf_rows) {
                assert_eq!(op, nop_op, "{at}");
                assert!(
                    rows_in <= nop_rows_in,
                    "{at} {op}: {rows_in} > {nop_rows_in}"
                );
                fewer += usize::from(rows_in < nop_rows_in);
            }
        }
    }
    assert!(fewer > 0, "placement cut no UDF's rows");
}

/// A placed plan predicts the output rows of its NoP plan. The planner
/// predicts what the whole predicate keeps from the PP of that predicate,
/// when the corpus has one; a placed plan has a `Select` per conjunct,
/// and the prediction goes on the topmost. The corpus here adds, for
/// every TRAF-20 predicate of more than one conjunct, a PP of the whole
/// predicate (over the `vehType = SUV` pipeline: what it predicts, not
/// what it keeps, is under test).
#[test]
fn a_placed_plan_predicts_the_output_rows_of_its_nop_plan() {
    let f = fixture();
    let mut corpus = f.pp_catalog.clone();
    for q in traf20_queries() {
        if q.predicate.conjuncts().len() > 1 {
            let pp =
                ProbabilisticPredicate::new(q.predicate.clone(), f.suv_pipeline.clone(), 0.001);
            corpus.insert(pp.unwrap());
        }
    }
    let mut residual = 0;
    for q in traf20_queries() {
        for accuracy_target in [0.9, 0.95] {
            let qo = PpQueryOptimizer::new(
                corpus.clone(),
                f.domains.clone(),
                QoConfig { accuracy_target },
            );
            let predict = |plan: LogicalPlan| {
                let report = qo.optimize(&plan, &f.catalog).expect("optimize").report;
                let root = report
                    .predictions
                    .last()
                    .expect("a prediction per operator");
                let select = (report.predictions.iter().rev())
                    .find(|p| p.op.starts_with("Select["))
                    .expect("a Select");
                (root.rows_out, select.selectivity())
            };
            let (rows_out, selectivity) = predict(q.placed_plan(&f.dataset));
            let (nop_rows_out, _) = predict(q.nop_plan(&f.dataset));
            assert_eq!(
                rows_out.to_bits(),
                nop_rows_out.to_bits(),
                "Q{} a={accuracy_target}: {rows_out} predicted, NoP {nop_rows_out}",
                q.id
            );
            residual += usize::from(q.predicate.conjuncts().len() > 1 && selectivity < 1.0);
        }
    }
    assert!(
        residual > 0,
        "no placed plan's topmost Select predicted a residual"
    );
}

/// A served plan's UDFs run in rank order by their conjuncts' pass rates
/// among the PP's survivors, counted on the corpus's validation frames.
/// Against the same PP over the declared order (NoP's PP, which one
/// `Select` never reorders, injected into the placed plan), on every
/// TRAF-20 query at every target: the same PP at the same leaf accuracies
/// and the same verdict rows and columns. The bill is lower on some
/// queries and over all of them, within 0.5 % of the cheapest stage order
/// of each (561.19 sim-s in all). It is higher on one: the rates come
/// from 80 validation frames, and at a = 0.95 Q6's PP survivors there put
/// `vehColor = silver` at 0.27 and `vehType = van` at 0.24, where 0.26 and
/// 0.17 of the rows it serves are, so its ranked plan runs
/// VehColorClassifier first and costs 1.4 % more; no other may.
#[test]
fn a_ranked_served_plan_keeps_its_pp_and_rows_and_lowers_the_bill() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("traffic source");
    let (mut cheaper, mut dearer) = (0, Vec::new());
    let (mut total, mut declared_total, mut best_total) = (0.0, 0.0, 0.0);
    for q in traf20_queries() {
        let nop = q.nop_plan(&f.dataset).project(vec![ProjectItem::NonBlob]);
        for accuracy_target in [0.9, 0.95, 0.98] {
            let qo = PpQueryOptimizer::new(
                f.pp_catalog.clone(),
                f.domains.clone(),
                QoConfig { accuracy_target },
            );
            let chosen = |plan| {
                let optimized = qo.optimize(plan, &f.catalog).expect("optimize");
                let chosen = optimized.report.chosen.map(|c| {
                    let bits: Vec<u64> = c.leaf_accuracies.iter().map(|a| a.to_bits()).collect();
                    (c.leaf_keys, bits)
                });
                (chosen, optimized.plan, optimized.pp_filter)
            };
            let (nop_chosen, _, filter) = chosen(&nop);
            let (ranked_chosen, ranked, _) = chosen(&spec.nop_plan(&q.predicate));
            let at = format!("Q{} a={accuracy_target}", q.id);
            assert_eq!(ranked_chosen, nop_chosen, "{at}");
            let (declared, base) = match filter {
                Some(filter) => (
                    inject_above_scan(&spec.nop_plan(&q.predicate), "traffic", filter.clone())
                        .expect("inject"),
                    LogicalPlan::scan("traffic").filter(filter),
                ),
                None => (spec.nop_plan(&q.predicate), LogicalPlan::scan("traffic")),
            };
            let (columns, rows, cost) = run_billed(&ranked);
            let (declared_columns, declared_rows, declared_cost) = run_billed(&declared);
            assert_eq!(columns, declared_columns, "{at}");
            assert_eq!(rows, declared_rows, "{at}");
            cheaper += usize::from(cost < declared_cost);
            if cost > declared_cost {
                dearer.push(at);
            }
            total += cost;
            declared_total += declared_cost;
            best_total += cheapest_order_bill(&base, &q, &f.dataset);
        }
    }
    assert!(cheaper > 0, "ranking cut no query's bill");
    assert!(total < declared_total, "{total} > {declared_total}");
    assert!(total <= best_total * 1.005, "{total} against {best_total}");
    assert_eq!(dearer, ["Q6 a=0.95"]);
}

/// The verdict columns, rows and bill of one run of `plan`.
fn run_billed(plan: &LogicalPlan) -> (String, String, f64) {
    let mut ctx = ExecutionContext::new(&fixture().catalog);
    let rows = ctx.run(plan).expect("run");
    let columns = format!("{:?}", rows.schema());
    (columns, digest(&rows), ctx.meter().cluster_seconds())
}

/// The least bill of `q`'s UDFs over `base` in any order, each conjunct
/// right after the last UDF it reads.
fn cheapest_order_bill(base: &LogicalPlan, q: &TrafQuery, dataset: &TrafficDataset) -> f64 {
    fn orders(n: usize) -> Vec<Vec<usize>> {
        match n {
            0 => vec![Vec::new()],
            _ => (orders(n - 1).into_iter())
                .flat_map(|order| {
                    (0..n).map(move |at| {
                        let mut order = order.clone();
                        order.insert(at, n - 1);
                        order
                    })
                })
                .collect(),
        }
    }
    let udfs: Vec<_> = q.columns().iter().filter_map(|c| dataset.udf(c)).collect();
    (orders(udfs.len()).into_iter())
        .map(|order| {
            let stages: Vec<_> = order.iter().map(|&i| Arc::clone(&udfs[i])).collect();
            let plan = LogicalPlan::placed(base.clone(), &stages, q.predicate.conjuncts());
            run_billed(&plan).2
        })
        .fold(f64::INFINITY, f64::min)
}

/// A plan with no PP ranks its UDF stages too, with every validation frame
/// a survivor. At a = 0.98 no leaf certifies on the fixture's 80
/// validation frames, so no TRAF-20 plan has a PP: each served plan
/// returns the declared order's verdict rows, is billed no more, and some
/// less. A catalog without a sidecar (built PP by PP) keeps the declared
/// order.
#[test]
fn a_pp_free_served_chain_is_ranked_and_billed_no_more_than_declaration_order() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("traffic source");
    let mut unranked = PpCatalog::new();
    for pp in f.pp_catalog.all() {
        unranked.insert(ProbabilisticPredicate::clone(pp));
    }
    assert!(f.pp_catalog.sidecar().is_some() && unranked.sidecar().is_none());
    let config = QoConfig {
        accuracy_target: 0.98,
    };
    let qo = PpQueryOptimizer::new(f.pp_catalog.clone(), f.domains.clone(), config.clone());
    let bare = PpQueryOptimizer::new(unranked, f.domains.clone(), config);
    let (mut cheaper, mut total, mut declared_total) = (0, 0.0, 0.0);
    for q in traf20_queries() {
        let declared = spec.nop_plan(&q.predicate);
        let optimized = qo.optimize(&declared, &f.catalog).expect("optimize");
        assert!(optimized.report.chosen.is_none(), "Q{}", q.id);
        let kept = bare.optimize(&declared, &f.catalog).expect("optimize");
        assert_eq!(kept.plan.explain(), declared.explain(), "Q{}", q.id);
        let (columns, rows, cost) = run_billed(&optimized.plan);
        let (declared_columns, declared_rows, declared_cost) = run_billed(&declared);
        assert_eq!(columns, declared_columns, "Q{}", q.id);
        assert_eq!(rows, declared_rows, "Q{}", q.id);
        assert!(cost <= declared_cost, "Q{}: {cost} > {declared_cost}", q.id);
        cheaper += usize::from(cost < declared_cost);
        total += cost;
        declared_total += declared_cost;
    }
    assert!(cheaper > 0, "ranking cut no query's bill");
    assert!(total < declared_total, "{total} ≥ {declared_total}");
}

/// The sidecar recounts what each PP's calibration says: for every PP of
/// the fixture and every grid level it certifies, the frames it keeps at
/// that level's threshold give `r(a]`, the validation positives among
/// them the certified count, and the positives among all frames the
/// observed selectivity, each bit for bit.
#[test]
fn the_sidecar_recounts_each_calibration_bit_for_bit() {
    let f = fixture();
    let sidecar = f
        .pp_catalog
        .sidecar()
        .expect("one training run, one sidecar");
    let n = sidecar.frames();
    assert_eq!(n, 80);
    let mut checked = 0;
    for pp in f.pp_catalog.all() {
        let positives = sidecar.count(sidecar.all(), pp.predicate());
        let positives = positives.expect("a trained clause or its negation");
        assert_eq!(
            (positives / n as f64).to_bits(),
            pp.observed_selectivity().to_bits(),
            "{}",
            pp.key()
        );
        let m = pp.pipeline().calibration().positive_support();
        for a in ACCURACY_GRID {
            let Some(threshold) = pp.certified_threshold(a) else {
                continue;
            };
            let kept = sidecar.kept(pp, threshold).expect("scored in training");
            let reduction = (n - kept.len()) as f64 / n as f64;
            let at = format!("{} a={a}", pp.key());
            assert_eq!(
                reduction.to_bits(),
                pp.reduction(a).expect("r(a]").to_bits(),
                "{at}"
            );
            let keep = certified_keep(m, a).expect("certified");
            assert_eq!(
                sidecar.count(&kept, pp.predicate()),
                Some(keep as f64),
                "{at}"
            );
            checked += 1;
        }
    }
    assert!(checked >= f.pp_catalog.len(), "{checked} levels checked");
}

/// A labeled set shares its frames' vectors with the table; one holding
/// owned copies of the same vectors trains the same catalog. Both get a
/// sidecar, and every PP agrees bit for bit: key, `r(a]` and certified
/// threshold at each grid level, and its score on each validation frame.
#[test]
fn shared_and_owned_labeled_sets_train_the_same_catalog() {
    let f = fixture();
    let clauses = TrafficDataset::pp_corpus_clauses();
    let shared: Vec<LabeledSet> = (clauses.iter())
        .map(|c| f.dataset.labeled_for_clause_range(c, 0..400))
        .collect();
    let owned: Vec<LabeledSet> = (shared.iter())
        .map(|set| {
            (set.iter())
                .map(|s| Sample::new((*s.features).clone(), s.label))
                .collect()
        })
        .collect();
    assert!(!Arc::ptr_eq(
        &shared[0].samples()[0].features,
        &owned[0].samples()[0].features
    ));
    let trainer = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    });
    let shared = trainer.train_catalog(&clauses, &shared).expect("train");
    let owned = trainer.train_catalog(&clauses, &owned).expect("train");
    let shared_sidecar = shared.sidecar().expect("shared sets get a sidecar");
    let owned_sidecar = owned.sidecar().expect("owned sets get a sidecar");
    assert_eq!(shared.len(), owned.len());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (a, b) in shared.all().iter().zip(owned.all()) {
        assert_eq!(a.key(), b.key());
        for level in ACCURACY_GRID {
            let at = format!("{} a={level}", a.key());
            let reduction =
                |pp: &ProbabilisticPredicate| pp.reduction(level).ok().map(f64::to_bits);
            assert_eq!(reduction(a), reduction(b), "{at}");
            let threshold =
                |pp: &ProbabilisticPredicate| pp.certified_threshold(level).map(f64::to_bits);
            assert_eq!(threshold(a), threshold(b), "{at}");
        }
        let scores = |sidecar: &ValidationSidecar, pp| bits(sidecar.scores(pp).expect("scored"));
        assert_eq!(
            scores(shared_sidecar, a),
            scores(owned_sidecar, b),
            "{}",
            a.key()
        );
    }
}

/// Labeled sets over different frames give the clauses different
/// validation splits, so the catalog gets no sidecar and every served
/// plan keeps its declared order; the same clauses labeled on one frame
/// range get one, and some plan moves.
#[test]
fn a_catalog_trained_on_different_frames_has_no_sidecar_and_keeps_declaration_order() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("traffic source");
    let clauses: Vec<Clause> = (TrafficDataset::pp_corpus_clauses().into_iter())
        .filter(|c| c.column == "vehType" || c.column == "vehColor")
        .collect();
    let train = |shift: usize| {
        let labeled: Vec<_> = (clauses.iter().enumerate())
            .map(|(i, c)| {
                let from = if i + 1 == clauses.len() { shift } else { 0 };
                f.dataset.labeled_for_clause_range(c, from..from + 400)
            })
            .collect();
        let trainer = PpTrainer::new(TrainerConfig {
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(0.0025),
            ..Default::default()
        });
        trainer.train_catalog(&clauses, &labeled).expect("train")
    };
    let (aligned, shifted) = (train(0), train(1));
    assert!(aligned.sidecar().is_some());
    assert!(shifted.sidecar().is_none());
    let mut moved = 0;
    for q in traf20_queries() {
        for accuracy_target in [0.9, 0.95] {
            let declared = spec.nop_plan(&q.predicate);
            let plan = |pps: &PpCatalog| {
                let qo = PpQueryOptimizer::new(
                    pps.clone(),
                    f.domains.clone(),
                    QoConfig { accuracy_target },
                );
                let optimized = qo.optimize(&declared, &f.catalog).expect("optimize");
                let unranked = match optimized.pp_filter {
                    Some(filter) => {
                        inject_above_scan(&declared, "traffic", filter).expect("inject")
                    }
                    None => declared.clone(),
                };
                (optimized.plan.explain(), unranked.explain())
            };
            let (ranked, unranked) = plan(&shifted);
            assert_eq!(ranked, unranked, "Q{} a={accuracy_target}", q.id);
            let (ranked, unranked) = plan(&aligned);
            moved += usize::from(ranked != unranked);
        }
    }
    assert!(moved > 0, "no plan of the aligned catalog was ranked");
}

/// Each `Select` of a placed plan predicts its conjunct's pass rate among
/// the rows that reach it, from clause PPs alone: on every TRAF-20 query
/// of more than one conjunct, the served plan's predicted output rows are
/// nearer the rows it returns than the PP's survivors (what predicting
/// pass-through at every `Select` says).
#[test]
fn a_placed_plan_predicts_its_output_rows_nearer_than_pass_through() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("traffic source");
    let qo = PpQueryOptimizer::new(
        f.pp_catalog.clone(),
        f.domains.clone(),
        QoConfig {
            accuracy_target: 0.95,
        },
    );
    for q in traf20_queries() {
        if q.predicate.conjuncts().len() < 2 {
            continue;
        }
        let optimized = qo.optimize(&spec.nop_plan(&q.predicate), &f.catalog);
        let optimized = optimized.expect("optimize");
        let chosen = optimized.report.chosen.as_ref().expect("a PP");
        let predictions = &optimized.report.predictions;
        let survivors = (predictions.iter())
            .find(|p| p.op == chosen.filter_op())
            .expect("the PP's prediction")
            .rows_out;
        let predicted = predictions.last().expect("the root's prediction").rows_out;
        let mut ctx = ExecutionContext::new(&f.catalog);
        let actual = ctx.run(&optimized.plan).expect("run").len() as f64;
        assert!(
            (predicted - actual).abs() < (survivors - actual).abs(),
            "Q{}: {predicted} predicted, {actual} returned, {survivors} survive the PP",
            q.id
        );
    }
}

#[test]
fn cache_hit_returns_identical_report_and_epoch_bump_invalidates() {
    let f = fixture();
    let mut server = make_server(2);
    let q1 = &traf20_queries()[0];
    let q2 = &traf20_queries()[1];
    let req = QueryRequest::new("traffic", q1.predicate.clone(), 0.95);

    let s1 = server.submit(req.clone()).unwrap().wait();
    let s1 = s1.outcome.success().expect("q1 completes").clone();
    assert!(!s1.cache_hit);
    let s2 = server.submit(req.clone()).unwrap().wait();
    let s2 = s2.outcome.success().expect("q1 again completes").clone();
    assert!(s2.cache_hit, "second arrival must hit the cache");
    // Identical PlanReport — the very same allocation, not a re-derivation.
    assert!(Arc::ptr_eq(&s1.report, &s2.report));
    assert_eq!(digest(&s1.rows), digest(&s2.rows));

    // A second key at the same epoch.
    let _ = server
        .submit(QueryRequest::new("traffic", q2.predicate.clone(), 0.95))
        .unwrap()
        .wait();
    let stats = server.cache_stats();
    assert_eq!((stats.builds, stats.hits), (2, 1));

    // The epoch bump invalidates exactly the two epoch-1 entries.
    let e2 = server.publish_pps(f.pp_catalog.clone());
    assert_eq!(e2, CatalogEpoch(2));
    assert_eq!(server.cache_stats().invalidated, 2);

    // Same query now re-plans at epoch 2 — and still answers identically.
    let s3 = server.submit(req).unwrap().wait();
    let s3 = s3.outcome.success().expect("q1 at e2 completes").clone();
    assert!(!s3.cache_hit);
    assert_eq!(s3.epoch, CatalogEpoch(2));
    assert_eq!(digest(&s3.rows), digest(&s1.rows));

    // Every run folded into the shared state: service counters merged from
    // the per-query registries, calibration recorded on the monitor.
    assert_eq!(server.metrics().counter("server.completed_total").get(), 4);
    assert_eq!(server.metrics().counter("queries_total").get(), 4);
    assert!(
        !server.monitor().calibration_report().entries.is_empty(),
        "observe_run must have recorded calibration"
    );
    server.shutdown();
}

/// The plan cache keys on the exact target: a request a rounding above
/// another's must not be served the plan built for the lower one (the
/// budget allocator read its grid at 0.85 for it, below 0.8504). The targets
/// straddle 0.85, not 0.95: the corpus's PPs, trained on 400 frames, have
/// too few validation positives to certify 0.95.
#[test]
fn near_equal_targets_each_get_a_plan_meeting_their_own() {
    let mut server = make_server(1);
    let q1 = &traf20_queries()[0];
    for target in [0.8496, 0.8504, 0.8504] {
        let response = server
            .submit(QueryRequest::new("traffic", q1.predicate.clone(), target))
            .unwrap()
            .wait();
        let s = response.outcome.success().expect("q1 completes");
        let chosen = s.report.chosen.as_ref().expect("q1 gets a PP");
        assert!(
            chosen.estimate.accuracy >= target
                && chosen.leaf_accuracies.iter().all(|&a| a >= target),
            "target {target}: planned at {:?}",
            chosen.leaf_accuracies
        );
    }
    // Two plans for two targets; the repeat of the second is a hit.
    let stats = server.cache_stats();
    assert_eq!((stats.builds, stats.hits), (2, 1));
    server.shutdown();
}

/// Concurrent identical queries race get-or-optimize; single-flight must
/// coalesce them into exactly one optimization.
#[test]
fn concurrent_identical_queries_optimize_once() {
    let mut server = make_server(8);
    let q1 = &traf20_queries()[0];
    let req = QueryRequest::new("traffic", q1.predicate.clone(), 0.95);
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(req.clone()).expect("admitted"))
        .collect();
    let mut digests = Vec::new();
    for t in tickets {
        let resp = t.wait();
        let s = resp.outcome.success().expect("completes");
        digests.push(digest(&s.rows));
    }
    digests.dedup();
    assert_eq!(digests.len(), 1, "racing queries disagreed");
    let stats = server.cache_stats();
    assert_eq!(stats.builds, 1, "dogpile: optimized more than once");
    assert_eq!(stats.hits, 7);
    server.shutdown();
}

/// The maintenance loop's core promise: calibration drift re-optimizes a
/// cached plan off the hot path, as one build through the cache's miss
/// path — changing the chosen PP expression while keeping per-blob
/// verdicts byte-identical.
#[test]
fn drift_replan_swaps_cached_plan_with_identical_verdicts() {
    let f = fixture();
    // Two PPs sharing one trained pipeline: at any common accuracy they
    // threshold identically. A mimics the query predicate cheaply; B
    // mimics an implied predicate (SUV ⇒ ≠ sedan) at 4× the cost. The
    // query asks for the highest accuracy the pipeline certifies, so a
    // conjunction of the two falls short of it and every feasible
    // candidate is one leaf at that accuracy's shared threshold: per-blob
    // verdicts cannot change whichever expression the QO picks.
    let pred_a = Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"));
    let pred_b = Predicate::from(Clause::new("vehType", CompareOp::Ne, "sedan"));
    let mut corpus = PpCatalog::new();
    corpus.insert(
        ProbabilisticPredicate::new(pred_a.clone(), f.suv_pipeline.clone(), 0.001).unwrap(),
    );
    corpus.insert(
        ProbabilisticPredicate::new(pred_b.clone(), f.suv_pipeline.clone(), 0.004).unwrap(),
    );
    let mut server = PpServer::new(
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        corpus,
        f.domains.clone(),
    );

    let req = QueryRequest::new("traffic", pred_a.clone(), top_certified(&f.suv_pipeline));
    let before = server.submit(req.clone()).unwrap().wait();
    let before = before.outcome.success().expect("completes").clone();
    let chosen_before = before
        .report
        .chosen
        .as_ref()
        .expect("a PP must be injected")
        .expr
        .clone();

    // Runtime feedback: runs of the cheap PP (for another predicate, so
    // nothing is flagged) deliver almost no reduction.
    let key = vec!["vehType = SUV".to_string()];
    for id in 0..2 {
        let (report, snapshot) = common::observed_run(id, "another", key.clone(), 0.9, 999, 0);
        server.monitor().observe_run(&report, &snapshot);
    }
    assert!(server.monitor().stale(&before.report));

    let builds_before = server.cache_stats().builds;
    let pass = server.maintenance_now();
    assert_eq!(pass.drifted_keys, vec!["vehType = SUV".to_string()]);
    assert_eq!(pass.replanned, 1, "the cached plan must be re-optimized");
    assert_eq!(
        server.cache_stats().builds,
        builds_before + 1,
        "the replan is one build through the cache's miss path"
    );

    // The rebuilt entry serves as a *hit* — replanning happened off the
    // hot path — with a different expression but identical verdicts.
    let after = server.submit(req).unwrap().wait();
    let after = after.outcome.success().expect("completes").clone();
    assert!(after.cache_hit, "the replan must leave the entry ready");
    let chosen_after = after
        .report
        .chosen
        .as_ref()
        .expect("corrected plan still injects")
        .expr
        .clone();
    assert_ne!(
        chosen_before, chosen_after,
        "correction must change the plan"
    );
    assert_eq!(
        digest(&before.rows),
        digest(&after.rows),
        "replan-swap changed per-blob verdicts"
    );
    server.shutdown();
}

/// One staleness rule for every quarantine cause: a PP quarantined by
/// hand — not by drift or by the audit — takes the cached plan that runs
/// it out of the cache at the next maintenance pass, as one build through
/// the miss path, and the rebuilt plan runs no quarantined PP while
/// keeping per-blob verdicts byte-identical.
#[test]
fn quarantined_pp_leaves_the_cache_with_identical_verdicts() {
    let f = fixture();
    // The drift test's corpus: two PPs sharing one trained pipeline,
    // queried at the highest accuracy it certifies, so every plan makes
    // the same verdicts. The audit samples nothing, so the hand-made
    // quarantine is the only news.
    let pred_a = Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"));
    let pred_b = Predicate::from(Clause::new("vehType", CompareOp::Ne, "sedan"));
    let mut corpus = PpCatalog::new();
    corpus.insert(
        ProbabilisticPredicate::new(pred_a.clone(), f.suv_pipeline.clone(), 0.001).unwrap(),
    );
    corpus.insert(ProbabilisticPredicate::new(pred_b, f.suv_pipeline.clone(), 0.004).unwrap());
    let mut server = PpServer::new(
        ServerConfig {
            workers: 2,
            audit: AuditConfig {
                sample_fraction: 0.0,
            },
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        corpus,
        f.domains.clone(),
    );

    let req = QueryRequest::new("traffic", pred_a, top_certified(&f.suv_pipeline));
    let before = server.submit(req.clone()).unwrap().wait();
    let before = before.outcome.success().expect("completes").clone();
    let chosen = before
        .report
        .chosen
        .as_ref()
        .expect("a PP must be injected");
    server.monitor().mark_broken(&chosen.leaf_keys[0]);

    let builds_before = server.cache_stats().builds;
    let pass = server.maintenance_now();
    assert!(pass.drifted_keys.is_empty(), "nothing drifted: {pass:?}");
    assert_eq!(pass.replanned, 1, "the plan running a quarantined PP");
    assert_eq!(
        server.cache_stats().builds,
        builds_before + 1,
        "the replan is one build through the cache's miss path"
    );

    let after = server.submit(req).unwrap().wait();
    let after = after.outcome.success().expect("completes").clone();
    assert!(after.cache_hit, "the replan must leave the entry ready");
    let chosen = after.report.chosen.as_ref().expect("the other PP injects");
    for key in &chosen.leaf_keys {
        assert!(
            !server.monitor().is_broken(key),
            "{key} is quarantined but still served in {}",
            chosen.expr
        );
    }
    assert_eq!(
        digest(&before.rows),
        digest(&after.rows),
        "replanning changed per-blob verdicts"
    );
    server.shutdown();
}

/// A served query and an in-process run recover under the same fixed
/// policy: with one seeded fault plan — transient faults and timeouts on
/// the UDF and on the PP — the served run's spans equal, byte for byte,
/// those of the same optimized plan run through `ExecutionContext::new`.
#[test]
fn served_and_in_process_runs_share_one_recovery_policy() {
    let f = fixture();
    let predicate = Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"));
    let spec = f.sources.get("traffic").expect("registered source");
    let optimized = PpQueryOptimizer::new(
        f.pp_catalog.clone(),
        f.domains.clone(),
        QoConfig {
            accuracy_target: 0.95,
        },
    )
    .optimize(&spec.nop_plan(&predicate), &f.catalog)
    .expect("optimize");
    let pp_op = optimized
        .report
        .chosen
        .as_ref()
        .expect("a PP is injected")
        .filter_op();
    let faults = FaultPlan::new(0x0B1C)
        .inject(
            "VehTypeClassifier",
            FaultSpec::transient(0.05).with_timeouts(0.02, 2.0),
        )
        .inject(&pp_op, FaultSpec::transient(0.3).with_timeouts(0.1, 2.0));

    let mut server = make_server(1);
    let request = QueryRequest::new("traffic", predicate, 0.95).with_fault_plan(faults.clone());
    let response = server.submit(request).expect("admitted").wait();
    let served = response.outcome.success().expect("completes");
    assert_eq!(
        format!("{:?}", served.report.chosen),
        format!("{:?}", optimized.report.chosen)
    );
    server.shutdown();

    let mut ctx = ExecutionContext::new(&f.catalog);
    let rows = ctx
        .run(&faults.apply(&optimized.plan))
        .expect("in-process run");
    assert_eq!(digest(&rows), digest(&served.rows));

    let spans = |snapshot: &TelemetrySnapshot| {
        let mut snapshot = snapshot.clone();
        snapshot.zero_wall_clock();
        format!("{:?}", snapshot.spans)
    };
    let local = ctx.telemetry().expect("snapshot");
    assert_eq!(spans(&served.telemetry), spans(local));
    for op in ["Process[VehTypeClassifier]", pp_op.as_str()] {
        let span = local.span(op).expect("the faulted operator ran");
        assert!(span.retries > 0 && span.timeouts > 0, "{span:?}");
    }
}

/// A served verdict row is what the query derived. For every TRAF-20
/// query the served plan ends in a `Project` of the non-blob columns —
/// EXPLAIN shows it, and it runs as an operator of its own — and its
/// output is what comes back: in process through `submit`, no result
/// column is a blob and the columns are the `Project`'s; over the wire,
/// the header names them and the decoded rows equal the in-process rows
/// cell for cell.
#[test]
fn a_served_verdict_row_carries_no_blob_in_process_or_over_the_wire() {
    let f = fixture();
    let spec = f.sources.get("traffic").expect("registered source");
    let mut server = make_server(2);
    for q in traf20_queries() {
        let optimized = PpQueryOptimizer::new(
            f.pp_catalog.clone(),
            f.domains.clone(),
            QoConfig {
                accuracy_target: 0.95,
            },
        )
        .optimize(&spec.nop_plan(&q.predicate), &f.catalog)
        .expect("optimize");
        // The root keeps every non-blob column, in declaration order
        // whatever order the UDFs run in.
        let explain = optimized.plan.explain();
        assert!(
            matches!(optimized.plan, LogicalPlan::Project { .. }),
            "{explain}"
        );
        let schema = optimized.plan.output_schema(&f.catalog).expect("resolves");
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        let mut want = vec!["cameraID".to_string(), "frameID".to_string()];
        want.extend(q.columns());
        assert_eq!(names, want, "Q{}", q.id);

        let request = QueryRequest::new("traffic", q.predicate.clone(), 0.95);
        let response = server.submit(request).expect("admitted").wait();
        let local = response.outcome.success().expect("completes");
        assert_eq!(local.rows.schema(), &schema, "Q{}", q.id);
        assert!(schema.columns().iter().all(|c| c.dtype != DataType::Blob));
        let project = local.telemetry.span("Project").expect("a Project span");
        assert_eq!(project.rows_out, local.rows.len() as u64, "Q{}", q.id);

        let mut inbox = Vec::new();
        let wire = WireRequest::new("traffic", q.predicate.clone(), 0.95);
        write_frame(&mut inbox, &Frame::Request(wire)).expect("encoded");
        let mut outbox = Vec::new();
        serve_connection(&server, Cursor::new(inbox), &mut outbox).expect("served");
        let response = read_response(&mut Cursor::new(&outbox)).expect("decoded");
        let WireOutcome::Complete { columns, rows, .. } = response.outcome else {
            panic!("Q{}: expected completion, got {:?}", q.id, response.outcome)
        };
        assert_eq!(columns, names, "Q{}", q.id);
        assert_eq!(rows.len(), local.rows.len(), "Q{}", q.id);
        for (wire, row) in rows.iter().zip(local.rows.rows()) {
            assert_eq!(wire.len(), row.len());
            for (a, b) in wire.iter().zip(row.values()) {
                let same = a.type_name() == b.type_name() && a.sql_eq(b);
                assert!(same, "Q{}: {a:?} on the wire, {b:?} in process", q.id);
            }
        }
    }
    server.shutdown();
}

/// Shedding and mid-run failure paths: rejected or failed queries leave no
/// partial cache entries and never take the server down.
#[test]
fn failed_and_shed_queries_cannot_poison_the_server() {
    let f = fixture();
    let q1 = &traf20_queries()[0];
    let clean = QueryRequest::new("traffic", q1.predicate.clone(), 0.95);

    // (a) Mid-run execution failure under seeded faults: the UDF dies on
    // every attempt, retries included, so the run errors.
    let mut server = make_server(2);
    let faulty = clean.clone().with_fault_plan(
        FaultPlan::new(0xBAD5EED).inject("VehTypeClassifier", FaultSpec::transient(1.0)),
    );
    let resp = server.submit(faulty).unwrap().wait();
    assert!(
        matches!(resp.outcome, QueryOutcome::Failed(_)),
        "expected Failed, got {:?}",
        resp.outcome
    );
    assert_eq!(server.metrics().counter("server.failed_total").get(), 1);
    // The same query without faults is served from the (healthy) cached
    // plan — the failure poisoned neither the catalog nor the cache.
    let resp = server.submit(clean.clone()).unwrap().wait();
    let ok = resp.outcome.success().expect("clean rerun completes");
    assert!(ok.cache_hit);
    assert_eq!(server.in_flight(), 0, "permits leaked");

    // (b) Planning failure: an accuracy target outside (0, 1] fails
    // optimization itself; the build guard must leave the key vacant, not
    // wedged or half-inserted.
    let bad = QueryRequest::new("traffic", q1.predicate.clone(), 1.5);
    let resp = server.submit(bad).unwrap().wait();
    assert!(
        matches!(&resp.outcome, QueryOutcome::Failed(msg) if msg.contains("accuracy")),
        "expected planning failure, got {:?}",
        resp.outcome
    );
    assert_eq!(server.cache_stats().build_failures, 1);

    // (c) Synchronous shedding: queue-depth zero rejects everything,
    // typed, with no state change.
    let shed_all = PpServer::new(
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                max_queue_depth: 0,
                ..Default::default()
            },
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    );
    match shed_all.submit(clean.clone()) {
        Err(RejectReason::QueueFull { limit: 0, .. }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    match shed_all.submit(QueryRequest::new("nope", Predicate::True, 0.95)) {
        Err(RejectReason::UnknownSource(s)) => assert_eq!(s, "nope"),
        other => panic!("expected UnknownSource, got {other:?}"),
    }

    // (d) Cost-budget shedding: an absurdly small budget rejects the plan
    // after optimization, before any UDF runs.
    let mut stingy = PpServer::new(
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                cost_budget_cluster_seconds: Some(1e-9),
                ..Default::default()
            },
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    );
    let resp = stingy.submit(clean).unwrap().wait();
    match resp.outcome {
        QueryOutcome::Rejected(RejectReason::CostBudgetExceeded {
            predicted_cluster_seconds,
            ..
        }) => assert!(predicted_cluster_seconds > 0.0),
        other => panic!("expected CostBudgetExceeded, got {other:?}"),
    }
    stingy.shutdown();
    server.shutdown();
}

/// Cost-weighted LRU eviction under concurrent single-flight builds: six
/// distinct plans race into a two-entry cache while every build sleeps
/// (injected delay), so inserts evict ready entries while *other* keys
/// are still mid-build. An evicted-while-building neighbor must not
/// wedge single-flight waiters (a `Building` slot is never a victim, and
/// waiters woken after their slot leaves the map still read its `Ready`
/// state), and `CacheStats` must stay arithmetically consistent
/// throughout.
#[test]
fn eviction_under_concurrent_builds_never_wedges_waiters_or_corrupts_stats() {
    let f = fixture();
    // Fault-free serial baselines for the six distinct queries.
    let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 6).collect();
    let mut solo = make_server(1);
    let baselines: Vec<String> = queries
        .iter()
        .map(|q| {
            let resp = solo
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .expect("baseline admitted")
                .wait();
            digest(&resp.outcome.success().expect("baseline completes").rows)
        })
        .collect();
    solo.shutdown();

    let mut server = PpServer::new(
        ServerConfig {
            workers: 4,
            cache: CacheConfig { max_entries: 2 },
            faults: Some(ServerFaults {
                // Every build sleeps: each insert-triggered eviction runs
                // while other builds (and their coalesced waiters) are
                // still in flight.
                plan_build_delay_probability: 1.0,
                plan_build_delay: Duration::from_millis(15),
                ..ServerFaults::new(0xE71C)
            }),
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    );

    // Two submits per query, interleaved: the duplicate either coalesces
    // onto the in-flight build (a waiter) or re-misses after an eviction
    // (a rebuild). Both must answer identically.
    let started = Instant::now();
    let mut tickets = Vec::new();
    for pass in 0..2 {
        for (i, q) in queries.iter().enumerate() {
            let ticket = server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .expect("admitted");
            tickets.push((i, pass, ticket));
        }
    }
    for (i, pass, ticket) in tickets {
        let resp = ticket.wait();
        let s = resp
            .outcome
            .success()
            .unwrap_or_else(|| panic!("q{} pass {pass} failed: {:?}", i + 1, resp.outcome));
        assert_eq!(
            digest(&s.rows),
            baselines[i],
            "q{} pass {pass} diverged from its serial baseline",
            i + 1
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "waiters wedged: 12 queries took {:?}",
        started.elapsed()
    );

    // Six distinct keys passed through a two-entry cache: at least four
    // ready entries were evicted, some while neighbors were mid-build.
    let stats = server.cache_stats();
    assert!(
        stats.evicted >= 4,
        "expected >= 4 evictions from 6 keys in a 2-entry cache, got {stats:?}"
    );
    assert_eq!(stats.build_failures, 0, "no injected failures: {stats:?}");
    assert_eq!(
        stats.misses, stats.builds,
        "every miss elects exactly one builder (single-flight): {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.misses,
        12,
        "each query performs exactly one cache lookup: {stats:?}"
    );
    assert!(
        stats.builds >= 6,
        "six distinct keys need at least six builds: {stats:?}"
    );
    // Conservation: entries still resident = built − evicted (nothing was
    // invalidated or failed), and that can never exceed capacity.
    let resident = stats.builds - stats.evicted;
    assert!(
        (1..=2).contains(&resident),
        "builds − evicted = {resident} must land within the 2-entry capacity: {stats:?}"
    );

    // An evicted key rebuilds on demand and still answers identically —
    // the post-eviction cache is not poisoned.
    let resp = server
        .submit(QueryRequest::new(
            "traffic",
            queries[0].predicate.clone(),
            0.95,
        ))
        .expect("admitted")
        .wait();
    let s = resp.outcome.success().expect("resubmit completes");
    assert_eq!(
        digest(&s.rows),
        baselines[0],
        "post-eviction rebuild diverged"
    );
    let after = server.cache_stats();
    assert_eq!(
        after.hits + after.misses,
        13,
        "resubmit performs exactly one more lookup: {after:?}"
    );
    server.shutdown();
}
