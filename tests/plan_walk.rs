//! One walk over the plan tree, checked on a plan that has every variant.
//!
//! Server and TRAF-20 plans are linear chains, so the `Join`,
//! `Aggregate`, `Reduce` and `Combine` arms of a plan rewrite are reached
//! by nothing else in the suite. Every rewrite goes through
//! `LogicalPlan::map_children` and every walker through
//! `LogicalPlan::children`, so one plan holding all nine variants checks
//! those arms once for all of them: the three rewrites (scan pushdown,
//! fault-shim installation, PP injection) each change what they name and
//! nothing else, and the walk order is the order a real run opens its
//! spans in.

use std::sync::Arc;

use probabilistic_predicates::core::inject::{inject_above_scan, udf_cost_per_blob};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::logical::{AggExpr, AggFunc, ProjectItem};
use probabilistic_predicates::engine::udf::{
    ClosureFilter, ClosureProcessor, ClosureReducer, Combiner,
};
use probabilistic_predicates::engine::{
    Catalog, Clause, Column, CompareOp, DataType, EngineError, FaultPlan, FaultSpec, LogicalPlan,
    Predicate, Row, RowFilter, RowRef, Rowset, Schema, Value,
};

/// Pairs the per-camera counts of the two inputs.
struct PairCounts {
    output: Vec<Column>,
}

impl Combiner for PairCounts {
    fn name(&self) -> &str {
        "PairCounts"
    }
    fn left_key(&self) -> &str {
        "cam"
    }
    fn right_key(&self) -> &str {
        "cam"
    }
    fn output_columns(&self) -> &[Column] {
        &self.output
    }
    fn cost_per_row(&self) -> f64 {
        0.25
    }
    fn combine(
        &self,
        left: &[RowRef<'_>],
        right: &[RowRef<'_>],
        left_schema: &Schema,
        _: &Schema,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        let cam = left[0].get_named(left_schema, "cam")?.clone();
        out.extend([cam, Value::Int((left.len() * right.len()) as i64)]);
        Ok(())
    }
}

fn catalog() -> Catalog {
    let frames = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("cam", DataType::Str),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..12)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::str(["C1", "C2", "C3"][i as usize % 3]),
            ])
        })
        .collect();
    let cams = Schema::new(vec![
        Column::new("cam_name", DataType::Str),
        Column::new("zone", DataType::Str),
    ])
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register("frames", Rowset::new(frames.clone(), rows.clone()).unwrap());
    catalog.register("archive", Rowset::new(frames, rows).unwrap());
    catalog.register(
        "cams",
        Rowset::new(
            cams,
            vec![
                Row::new(vec![Value::str("C1"), Value::str("north")]),
                Row::new(vec![Value::str("C2"), Value::str("south")]),
            ],
        )
        .unwrap(),
    );
    catalog
}

/// All nine variants in one executable tree.
///
/// ```text
/// Combine[PairCounts]
///   Aggregate[by cam; n]
///     Join[cam = cam_name]
///       Project[id, cam, label]
///         Select[tag = hot]
///           Filter[PP[even]]
///             Process[Tagger]
///               Scan[frames]
///       Scan[cams]
///   Reduce[PerCam]
///     Scan[archive]
/// ```
fn plan() -> LogicalPlan {
    let tagger = Arc::new(ClosureProcessor::map(
        "Tagger",
        vec![Column::new("tag", DataType::Str)],
        2.0,
        |row, _, out| {
            let hot = row.get(0).as_int()? % 4 != 1;
            out.push(Value::str(if hot { "hot" } else { "cold" }));
            Ok(())
        },
    ));
    let even = Arc::new(ClosureFilter::new("PP[even]", 0.01, |row, _| {
        Ok(row.get(0).as_int()? % 2 == 0)
    }));
    let per_cam = Arc::new(ClosureReducer::new(
        "PerCam",
        vec!["cam".to_string()],
        vec![
            Column::new("cam", DataType::Str),
            Column::new("total", DataType::Int),
        ],
        0.5,
        |group, schema, out| {
            let cam = group[0].get_named(schema, "cam")?.clone();
            out.extend([cam, Value::Int(group.len() as i64)]);
            Ok(())
        },
    ));
    let left = LogicalPlan::Join {
        left: Box::new(
            LogicalPlan::scan("frames")
                .process(tagger)
                .filter(even)
                .select(Predicate::from(Clause::new("tag", CompareOp::Eq, "hot")))
                .project(vec![
                    ProjectItem::Keep("id".into()),
                    ProjectItem::Keep("cam".into()),
                    ProjectItem::Rename {
                        from: "tag".into(),
                        to: "label".into(),
                    },
                ]),
        ),
        right: Box::new(LogicalPlan::scan("cams")),
        left_key: "cam".into(),
        right_key: "cam_name".into(),
    }
    .aggregate(
        vec!["cam".into()],
        vec![AggExpr {
            func: AggFunc::Count,
            column: String::new(),
            alias: "n".into(),
        }],
    );
    LogicalPlan::Combine {
        left: Box::new(left),
        right: Box::new(LogicalPlan::scan("archive").reduce(per_cam)),
        combiner: Arc::new(PairCounts {
            output: vec![
                Column::new("cam", DataType::Str),
                Column::new("pairs", DataType::Int),
            ],
        }),
    }
}

/// Everything deterministic a run produces: rows, and the telemetry
/// snapshot without its wall-clock fields.
fn run_digest(plan: &LogicalPlan, ctx: &mut ExecutionContext<'_>) -> String {
    let rows = ctx.run(plan).expect("plan runs");
    let mut snapshot = ctx.telemetry().expect("snapshot").clone();
    snapshot.zero_wall_clock();
    format!("{:?} {}", rows.rows(), snapshot.to_json())
}

fn noop_pp(name: &str) -> Arc<dyn RowFilter> {
    Arc::new(ClosureFilter::new(name, 0.01, |_, _| Ok(true)))
}

/// `explain()` of `before` with one filter line inserted above the first
/// line that renders `scan`.
fn with_filter_above(before: &str, scan: &str, filter: &str) -> String {
    let line = before
        .lines()
        .find(|l| l.trim_start() == scan)
        .expect("scan is in the plan");
    let pad = &line[..line.len() - scan.len()];
    before.replacen(
        &format!("{line}\n"),
        &format!("{pad}Filter[{filter} cost=0.01s/row]\n{pad}  {scan}\n"),
        1,
    )
}

/// Every operator's label, children before the node.
fn op_labels(plan: &LogicalPlan) -> Vec<String> {
    let mut labels: Vec<String> = plan.children().flat_map(op_labels).collect();
    labels.push(plan.op_label());
    labels
}

#[test]
fn the_plan_has_every_variant_and_walks_in_span_order() {
    let plan = plan();
    let names = op_labels(&plan);
    assert_eq!(
        names,
        [
            "Scan[frames]",
            "Process[Tagger]",
            "PP[even]",
            "Select[tag = hot]",
            "Project",
            "Scan[cams]",
            "Join[cam = cam_name]",
            "Aggregate",
            "Scan[archive]",
            "Reduce[PerCam]",
            "Combine[PairCounts]",
        ]
    );
    assert_eq!(plan.op_label(), "Combine[PairCounts]");
    let children: Vec<String> = plan.children().map(LogicalPlan::op_label).collect();
    assert_eq!(children, ["Aggregate", "Reduce[PerCam]"]);

    // children() before the node is the order a real run opens spans in.
    let catalog = catalog();
    let mut ctx = ExecutionContext::new(&catalog);
    let rows = ctx.run(&plan).expect("plan runs");
    assert_eq!(rows.len(), 2, "C1 and C2 survive the join");
    let spans: Vec<String> = ctx
        .telemetry()
        .expect("snapshot")
        .spans
        .iter()
        .map(|s| s.op.clone())
        .collect();
    assert_eq!(spans, names);
    // Own cost before inputs, left before right: 0.25 + 2.0 + 0.5.
    assert_eq!(udf_cost_per_blob(&plan), 2.75);
}

#[test]
fn map_children_with_clone_is_the_identity() {
    let plan = plan();
    let copy = plan.map_children(LogicalPlan::clone);
    assert_eq!(copy.explain(), plan.explain());
    assert_eq!(op_labels(&copy), op_labels(&plan));
}

#[test]
fn pushdown_touches_only_scans_of_the_named_table() {
    let plan = plan();
    let pushdown = Predicate::from(Clause::new("id", CompareOp::Lt, 3i64));
    for table in ["frames", "cams", "archive"] {
        let scan = format!("Scan[{table}]");
        assert_eq!(
            plan.with_scan_pushdown(table, &pushdown).explain(),
            plan.explain()
                .replace(&scan, &format!("{scan} pushdown=[id < 3]")),
        );
    }
    assert_eq!(
        plan.with_scan_pushdown("nope", &pushdown).explain(),
        plan.explain()
    );
}

#[test]
fn fault_plan_wraps_only_the_operators_it_names() {
    let plan = plan();
    let catalog = catalog();
    let solo = run_digest(&plan, &mut ExecutionContext::new(&catalog));

    let unmatched = FaultPlan::new(7).inject("NoSuchUdf", FaultSpec::transient(1.0));
    let rewritten = unmatched.apply(&plan);
    assert_eq!(rewritten.explain(), plan.explain());
    assert_eq!(
        run_digest(&rewritten, &mut ExecutionContext::new(&catalog)),
        solo
    );

    // A matching spec reaches the Process node under Combine, Aggregate,
    // Join, Project, Select and Filter — and keeps every name.
    let matched = FaultPlan::new(7).inject("Tagger", FaultSpec::poison(1.0));
    let rewritten = matched.apply(&plan);
    assert_eq!(rewritten.explain(), plan.explain());
    let mut ctx = ExecutionContext::new(&catalog);
    assert!(matches!(
        ctx.run(&rewritten),
        Err(EngineError::PoisonedRow(_))
    ));
    let charged: Vec<&str> = ctx
        .meter()
        .entries()
        .iter()
        .map(|e| e.op.as_str())
        .collect();
    assert_eq!(charged, ["Scan[frames]", "Process[Tagger]"]);
}

#[test]
fn inject_filters_the_first_scan_of_the_table_on_either_side() {
    let plan = plan();
    let before = plan.explain();
    // Left input of the Join (itself in the left input of the Combine),
    // right input of the Join, right input of the Combine.
    for table in ["frames", "cams", "archive"] {
        let injected = inject_above_scan(&plan, table, noop_pp("PP[x]")).expect("table is scanned");
        assert_eq!(
            injected.explain(),
            with_filter_above(&before, &format!("Scan[{table}]"), "PP[x]"),
            "inject above {table}"
        );
    }
    assert!(inject_above_scan(&plan, "nope", noop_pp("PP[x]")).is_err());

    // At most one scan is filtered: the first in walk order.
    for twice in [
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("frames")),
            right: Box::new(LogicalPlan::scan("frames")),
            left_key: "id".into(),
            right_key: "id".into(),
        },
        LogicalPlan::Combine {
            left: Box::new(LogicalPlan::scan("frames")),
            right: Box::new(LogicalPlan::scan("frames")),
            combiner: Arc::new(PairCounts { output: Vec::new() }),
        },
    ] {
        let injected = inject_above_scan(&twice, "frames", noop_pp("PP[x]")).expect("scanned");
        assert_eq!(
            injected.explain(),
            with_filter_above(&twice.explain(), "Scan[frames]", "PP[x]")
        );
    }
}
