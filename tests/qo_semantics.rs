//! Integration tests for the query-optimizer semantics: every candidate
//! expression the rewriter emits must be a necessary condition of the
//! query predicate (property-tested over random predicates), and the
//! calibration/combination machinery must keep its monotonicity
//! guarantees through the full stack.
//!
//! `tests/golden/plans.txt` pins the optimizer's whole output — candidate
//! order, estimates and costs to the bit, the chosen expression and the
//! emitted plan — for TRAF-20 and 200 seeded random predicates, with and
//! without runtime feedback. A planner change that is meant to move a
//! plan regenerates it with `UPDATE_GOLDEN=1 cargo test --test
//! qo_semantics`; one that is meant to be a pure speed-up must not.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use probabilistic_predicates::core::calibration::CalibrationRecord;
use probabilistic_predicates::core::implication::implies;
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::rewrite::{rewrite, RewriteConfig};
use probabilistic_predicates::core::runtime::{Observation, RuntimeMonitor};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traf20::{traf20_queries, TrafQuery};
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset, INTERSECTIONS};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::predicate::{Clause, CompareOp, Predicate};
use probabilistic_predicates::engine::{Catalog, FaultPlan, FaultSpec, LogicalPlan, Rowset, Value};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::SeedableRng;

fn traf_dataset() -> TrafficDataset {
    TrafficDataset::generate(TrafficConfig {
        n_frames: 600,
        seed: 0x5E1,
        ..Default::default()
    })
}

fn traf_pp_catalog() -> PpCatalog {
    traf_pp_catalog_over(&traf_dataset())
}

fn traf_pp_catalog_over(dataset: &TrafficDataset) -> PpCatalog {
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
    trainer.train_catalog(&clauses, &labeled).expect("trains")
}

fn domains() -> Domains {
    let mut d = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        d.declare(col, values);
    }
    d
}

/// Strategy over random predicates in the TRAF column vocabulary.
fn arb_clause() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        proptest::sample::select(vec!["sedan", "SUV", "truck", "van"])
            .prop_map(|t| { Predicate::from(Clause::new("vehType", CompareOp::Eq, t)) }),
        proptest::sample::select(vec!["red", "black", "white", "silver", "other"])
            .prop_map(|c| { Predicate::from(Clause::new("vehColor", CompareOp::Eq, c)) }),
        proptest::sample::select(vec!["sedan", "SUV", "truck", "van"])
            .prop_map(|t| { Predicate::from(Clause::new("vehType", CompareOp::Ne, t)) }),
        (30.0f64..75.0).prop_map(|v| Predicate::from(Clause::new("speed", CompareOp::Gt, v))),
        (30.0f64..75.0).prop_map(|v| Predicate::from(Clause::new("speed", CompareOp::Lt, v))),
        proptest::sample::select(INTERSECTIONS.to_vec())
            .prop_map(|i| { Predicate::from(Clause::new("fromI", CompareOp::Eq, i)) }),
        proptest::sample::select(INTERSECTIONS.to_vec())
            .prop_map(|i| { Predicate::from(Clause::new("toI", CompareOp::Ne, i)) }),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = arb_clause();
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Predicate::Or),
            inner.prop_map(Predicate::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §6 soundness invariant: 𝒫 ⇒ ℰ.mimicked() for every candidate.
    #[test]
    fn candidates_are_necessary_conditions(pred in arb_predicate()) {
        // The catalog is deterministic; build it once per process.
        use std::sync::OnceLock;
        static CATALOG: OnceLock<PpCatalog> = OnceLock::new();
        let catalog = CATALOG.get_or_init(traf_pp_catalog);
        let outcome = rewrite(&pred, catalog, &domains(), &RewriteConfig::default());
        for cand in &outcome.candidates {
            prop_assert!(
                implies(&pred, &cand.mimicked()),
                "{pred} does not imply {cand}"
            );
            prop_assert!(cand.leaf_count() <= 4);
        }
    }
}

#[test]
fn wrangled_inequality_finds_candidates() {
    let catalog = traf_pp_catalog();
    // `vehColor != white` should match the trained negation PP directly
    // AND yield an expanded disjunction of equality PPs.
    let pred = Predicate::from(Clause::new("vehColor", CompareOp::Ne, "white"));
    let outcome = rewrite(&pred, &catalog, &domains(), &RewriteConfig::default());
    assert!(!outcome.candidates.is_empty());
    for cand in &outcome.candidates {
        assert!(implies(&pred, &cand.mimicked()), "{pred} vs {cand}");
    }
}

#[test]
fn unknown_columns_produce_no_candidates() {
    let catalog = traf_pp_catalog();
    let pred = Predicate::from(Clause::new("weather", CompareOp::Eq, Value::str("rain")));
    let outcome = rewrite(&pred, &catalog, &domains(), &RewriteConfig::default());
    assert!(outcome.candidates.is_empty());
    assert_eq!(outcome.feasible_count, 0);
}

/// Fixture for the fault-injection invariant: a PP-optimized plan plus the
/// frame IDs returned by its fault-free run and by the PP-free plan.
struct FaultFixture {
    catalog: Catalog,
    pp_plan: LogicalPlan,
    pp_op: String,
    clean_ids: BTreeSet<i64>,
    nop_ids: BTreeSet<i64>,
}

fn frame_ids(out: &Rowset) -> BTreeSet<i64> {
    out.rows()
        .iter()
        .map(|r| {
            r.get_named(out.schema(), "frameID")
                .and_then(Value::as_int)
                .expect("frameID column")
        })
        .collect()
}

fn fault_fixture() -> &'static FaultFixture {
    static FIXTURE: std::sync::OnceLock<FaultFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 1_000,
            seed: 0x5E2,
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
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 500..1_000);
        let qo = PpQueryOptimizer::new(pp_catalog, domains(), QoConfig::default());
        let q1 = traf20_queries()
            .into_iter()
            .find(|q| q.id == 1)
            .expect("Q1");
        let nop_plan = q1.nop_plan(&dataset);
        let optimized = qo.optimize(&nop_plan, &catalog).expect("optimize");
        assert!(optimized.report.chosen.is_some(), "Q1 must get a PP");
        let mut ctx = ExecutionContext::new(&catalog);
        let nop_out = ctx.run(&nop_plan).expect("nop");
        let clean_out = ctx.run(&optimized.plan).expect("clean pp run");
        let pp_op = ctx
            .telemetry()
            .expect("snapshot")
            .spans
            .iter()
            .find(|s| s.op.contains("PP["))
            .expect("PP filter op")
            .op
            .clone();
        FaultFixture {
            catalog,
            pp_plan: optimized.plan,
            pp_op,
            clean_ids: frame_ids(&clean_out),
            nop_ids: frame_ids(&nop_out),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Safe-degradation invariant: seeded faults on the PP filter never
    /// cause extra false negatives. Whatever the seed and fault mix, the
    /// faulted run returns a superset of the fault-free PP run (fail-open
    /// only ever *passes* rows) and a subset of the PP-free plan (the
    /// exact select downstream still gates every row).
    #[test]
    fn seeded_pp_faults_never_add_false_negatives(
        seed in 0u64..u64::MAX,
        transient in 0.0f64..0.5,
        timeout in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
        poison in 0.0f64..0.1,
        parallelism in 1usize..=8,
        batch_size in 1usize..=64,
    ) {
        let f = fault_fixture();
        let spec = FaultSpec::transient(transient)
            .with_timeouts(timeout, 1.0)
            .with_corrupt(corrupt)
            .with_poison(poison);
        let mut ctx = ExecutionContext::builder(&f.catalog)
            .with_fault_plan(FaultPlan::new(seed).inject(&f.pp_op, spec))
            .with_parallelism(parallelism)
            .with_batch_size(batch_size)
            .build();
        let out = ctx.run(&f.pp_plan)
            .expect("faulted run must not abort: PP filters degrade fail-open");
        let ids = frame_ids(&out);
        prop_assert!(
            ids.is_superset(&f.clean_ids),
            "faults dropped rows the fault-free PP run kept (seed {seed})"
        );
        prop_assert!(
            ids.is_subset(&f.nop_ids),
            "faults let ineligible rows through the exact select (seed {seed})"
        );
        // Row-conservation invariant: every operator span accounts for every
        // input row — passed, filtered, or failed — whatever the seed, fault
        // mix, parallelism, and batch size.
        let telemetry = ctx.telemetry().expect("snapshot after run");
        for span in &telemetry.spans {
            prop_assert!(
                span.rows_in == span.rows_out + span.rows_filtered + span.rows_failed,
                "span {} leaks rows (seed {})",
                &span.op,
                seed
            );
        }
        prop_assert!(telemetry.conservation_violations().is_empty());
    }
}

#[test]
fn negated_pp_catalog_entries_behave_inversely() {
    let catalog = traf_pp_catalog();
    let pos = catalog
        .get(&Predicate::from(Clause::new(
            "vehType",
            CompareOp::Eq,
            "SUV",
        )))
        .expect("PP for vehType = SUV");
    let neg = catalog
        .get(&Predicate::from(Clause::new(
            "vehType",
            CompareOp::Ne,
            "SUV",
        )))
        .expect("PP for vehType != SUV");
    // Scores are exact negations (§5.6's sign flip).
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 50,
        seed: 0xBEEF,
        ..Default::default()
    });
    for row in dataset.table().rows().iter().take(20) {
        let blob = row.get(2).as_blob().expect("blob");
        let s = pos.score(blob);
        let ns = neg.score(blob);
        assert!((s + ns).abs() < 1e-9, "scores not negated: {s} vs {ns}");
    }
}

/// What the plan-identity golden plans against: the TRAF corpus, its
/// trained PP catalog and the registered frames.
struct PlanFixture {
    dataset: TrafficDataset,
    pps: PpCatalog,
    data: Catalog,
}

fn plan_fixture() -> &'static PlanFixture {
    static FIXTURE: std::sync::OnceLock<PlanFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = traf_dataset();
        let mut data = Catalog::new();
        dataset.register(&mut data);
        PlanFixture {
            pps: traf_pp_catalog_over(&dataset),
            dataset,
            data,
        }
    })
}

/// The golden's query list: TRAF-20 at four targets, then 200 predicates
/// of one to four clauses drawn from [`arb_predicate`] on a fixed seed.
fn golden_queries() -> Vec<(String, Predicate, f64)> {
    const TARGETS: [f64; 4] = [0.9, 0.95, 0.99, 1.0];
    let mut out = Vec::new();
    for q in traf20_queries() {
        for a in TARGETS {
            out.push((format!("Q{}", q.id), q.predicate.clone(), a));
        }
    }
    let strategy = arb_predicate();
    let mut rng = TestRng::seed_from_u64(0x9014_1DE7);
    let mut drawn = 0usize;
    while drawn < 200 {
        let pred = strategy.generate(&mut rng);
        if pred.clauses().len() > 4 {
            continue;
        }
        out.push((format!("R{drawn}"), pred, TARGETS[drawn % TARGETS.len()]));
        drawn += 1;
    }
    out
}

/// Runtime feedback touching each of the planner's three monitor reads:
/// one flagged predicate (single-PP candidates only), one quarantined PP
/// (its candidates dropped) and one drifted PP (costed at a corrected
/// reduction).
fn feedback_monitor() -> RuntimeMonitor {
    let monitor = RuntimeMonitor::new();
    let flagged = traf20_queries()
        .into_iter()
        .find(|q| q.id == 6)
        .expect("Q6")
        .predicate
        .simplify()
        .to_string();
    monitor.observe(
        &flagged,
        Observation {
            estimated_reduction: 0.9,
            observed_reduction: 0.2,
        },
    );
    monitor.mark_broken("vehType = SUV");
    for _ in 0..2 {
        monitor.record_calibration(
            "speed >= 60",
            CalibrationRecord {
                predicted_reduction: 0.7,
                observed_reduction: 0.2,
                predicted_cost: 0.0025,
                observed_cost: 0.0025,
            },
        );
    }
    assert!(monitor.is_flagged(&flagged));
    assert!(monitor.reduction_correction("speed >= 60").is_some());
    monitor
}

/// One golden line per query: everything the optimizer reports and emits,
/// floats as their bits.
fn plan_lines(monitor: Option<&RuntimeMonitor>) -> String {
    let f = plan_fixture();
    let tag = if monitor.is_some() { "fed" } else { "bare" };
    let bits = |xs: &[f64]| -> Vec<String> {
        xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect()
    };
    let mut out = String::new();
    for (name, predicate, target) in golden_queries() {
        let nop = TrafQuery {
            id: 0,
            kind: "",
            predicate: predicate.clone(),
        }
        .nop_plan(&f.dataset);
        let qo = PpQueryOptimizer::new(
            f.pps.clone(),
            domains(),
            QoConfig {
                accuracy_target: target,
                ..Default::default()
            },
        );
        let optimized = qo
            .optimize_with_monitor(&nop, &f.data, monitor)
            .expect("optimize");
        let report = &optimized.report;
        write!(
            out,
            "{tag} {name} a={target} pred={:?} feasible={}",
            report.predicate, report.feasible_count
        )
        .unwrap();
        for c in &report.candidates {
            let e = c.estimate;
            write!(
                out,
                " cand={:?}/{}/{}/{}",
                c.expr,
                bits(&[e.accuracy, e.reduction, e.cost]).join(","),
                bits(&[c.plan_cost])[0],
                c.feasible
            )
            .unwrap();
        }
        match &report.chosen {
            Some(chosen) => write!(
                out,
                " chosen={:?} keys={:?} accs={}",
                chosen.expr,
                chosen.leaf_keys,
                bits(&chosen.leaf_accuracies).join(",")
            )
            .unwrap(),
            None => out.push_str(" chosen=none"),
        }
        writeln!(out, " plan={:?}", optimized.plan.explain()).unwrap();
    }
    out
}

/// Plans, reports and candidate order are byte-identical to the recorded
/// ones, with and without runtime feedback.
#[test]
fn plans_match_the_recorded_golden() {
    let monitor = feedback_monitor();
    let actual = plan_lines(None) + &plan_lines(Some(&monitor));
    // The feedback is not a no-op: it moves at least one plan.
    let (bare, fed) = actual.split_at(actual.find("fed Q1 ").expect("fed section"));
    assert_ne!(bare.replace("bare ", "fed "), fed);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "plans.txt line {}", i + 1);
    }
    assert_eq!(expected.len(), actual.len(), "plans.txt length");
}
