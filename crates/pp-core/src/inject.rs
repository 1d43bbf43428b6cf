//! Plan inspection, PP seeding, and pushdown (Table 11 / Appendix A.4).
//!
//! "We use a placeholder to seed a possible PP ... and attempt to push the
//! placeholder down using these rules until it executes directly on the raw
//! input; note that only predicates on a raw input can possibly be replaced
//! with some combination of PPs."
//!
//! * Seeding: every `Select` contributes its predicate (`σ_p(R) ⇔
//!   σ_p(X_p(R))`).
//! * Pushdown through `Select` and `Process`: the placeholder commutes
//!   (the PP reads only the raw blob column).
//! * Pushdown through `Project`: column renames are inverted so that the
//!   predicate is expressed in the names the PPs were trained under
//!   (`X_p(π_{Ca→Cb}(R)) ⇔ π_{Ca→Cb}(X_{p_{Ca→Cb}}(R))`).
//! * Pushdown through foreign-key `Join`: the placeholder follows the side
//!   that scans the blob table (`X_p(R ⋈ S) ⇔ X_p(R) ⋈ S` when `p`'s
//!   columns derive from `R`).
//! * `Aggregate` / `Reduce` / `Combine` block pushdown: predicates over
//!   grouped outputs do not decompose onto individual input blobs (§3's
//!   scope limitation).

use std::collections::HashMap;
use std::sync::Arc;

use pp_engine::logical::LogicalPlan;
use pp_engine::predicate::{Clause, Predicate};
use pp_engine::udf::RowFilter;
use pp_engine::{Catalog, DataType};

use crate::{PpError, Result};

/// A predicate that can legally be mimicked by a PP on a blob scan.
#[derive(Debug, Clone)]
pub struct PushablePredicate {
    /// The predicate, rewritten into the column names visible directly
    /// above the scan (i.e. the names UDFs produce and PPs are trained on).
    pub predicate: Predicate,
    /// The blob table the PP would execute on.
    pub table: String,
    /// The blob column within that table.
    pub blob_column: String,
}

/// Inspects a plan, returning every pushable predicate.
///
/// Stacked selects over the same scan produce one entry each; the planner
/// conjoins entries that share a table.
pub fn pushable_predicates(
    plan: &LogicalPlan,
    catalog: &Catalog,
) -> Result<Vec<PushablePredicate>> {
    let mut out = Vec::new();
    walk(plan, catalog, &mut out)?;
    Ok(out)
}

/// Info about the subtree below the current node: which blob scan it
/// reaches (if exactly one, unblocked by grouping operators) and the
/// rename map from visible column names to scan-level names.
struct SubtreeInfo {
    /// `Some((table, blob_column))` when the subtree reaches one blob scan
    /// through pushdown-transparent operators only.
    scan: Option<(String, String)>,
    /// visible name → name as produced above the scan.
    renames: HashMap<String, String>,
}

fn walk(
    plan: &LogicalPlan,
    catalog: &Catalog,
    out: &mut Vec<PushablePredicate>,
) -> Result<SubtreeInfo> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let schema = catalog.table_schema(table)?;
            let blob = schema
                .columns()
                .iter()
                .find(|c| c.dtype == DataType::Blob)
                .map(|c| c.name.clone());
            let renames = schema
                .columns()
                .iter()
                .map(|c| (c.name.clone(), c.name.clone()))
                .collect();
            Ok(SubtreeInfo {
                scan: blob.map(|b| (table.clone(), b)),
                renames,
            })
        }
        LogicalPlan::Process { input, processor } => {
            let mut info = walk(input, catalog, out)?;
            for c in processor.output_columns() {
                info.renames.insert(c.name.clone(), c.name.clone());
            }
            Ok(info)
        }
        LogicalPlan::Filter { input, .. } => walk(input, catalog, out),
        LogicalPlan::Select { input, predicate } => {
            let info = walk(input, catalog, out)?;
            if let Some((table, blob_column)) = &info.scan {
                if let Some(renamed) = rename_predicate(predicate, &info.renames) {
                    out.push(PushablePredicate {
                        predicate: renamed,
                        table: table.clone(),
                        blob_column: blob_column.clone(),
                    });
                }
            }
            Ok(info)
        }
        LogicalPlan::Project { input, items } => {
            let info = walk(input, catalog, out)?;
            let mut renames = HashMap::new();
            for item in items {
                match item.names() {
                    Some((from, to)) => {
                        if let Some(origin) = info.renames.get(from) {
                            renames.insert(to.to_string(), origin.clone());
                        }
                    }
                    // What it keeps passes through under its own name; the
                    // blobs it drops cannot be named above it.
                    None => renames.extend(info.renames.clone()),
                }
            }
            Ok(SubtreeInfo {
                scan: info.scan,
                renames,
            })
        }
        LogicalPlan::Join { left, right, .. } => {
            let li = walk(left, catalog, out)?;
            let ri = walk(right, catalog, out)?;
            // The placeholder follows whichever side scans a blob table;
            // with blobs on both sides the mapping is ambiguous, so block.
            let scan = match (li.scan, ri.scan) {
                (Some(s), None) => Some(s),
                (None, Some(s)) => Some(s),
                _ => None,
            };
            let mut renames = li.renames;
            for (k, v) in ri.renames {
                renames.entry(k).or_insert(v);
            }
            Ok(SubtreeInfo { scan, renames })
        }
        // Grouping operators block pushdown: predicates above them are
        // over aggregated values.
        LogicalPlan::Aggregate { input, .. } | LogicalPlan::Reduce { input, .. } => {
            walk(input, catalog, out)?;
            Ok(SubtreeInfo {
                scan: None,
                renames: HashMap::new(),
            })
        }
        LogicalPlan::Combine { left, right, .. } => {
            walk(left, catalog, out)?;
            walk(right, catalog, out)?;
            Ok(SubtreeInfo {
                scan: None,
                renames: HashMap::new(),
            })
        }
    }
}

/// Rewrites a predicate's column references through a rename map; `None`
/// when any referenced column cannot be traced to the scan level.
fn rename_predicate(pred: &Predicate, renames: &HashMap<String, String>) -> Option<Predicate> {
    match pred {
        Predicate::True => Some(Predicate::True),
        Predicate::False => Some(Predicate::False),
        Predicate::Clause(c) => {
            let origin = renames.get(&c.column)?;
            Some(Predicate::Clause(Clause::new(
                origin.clone(),
                c.op,
                c.value.clone(),
            )))
        }
        Predicate::Not(p) => Some(Predicate::not(rename_predicate(p, renames)?)),
        Predicate::And(ps) => {
            let parts: Option<Vec<Predicate>> =
                ps.iter().map(|p| rename_predicate(p, renames)).collect();
            Some(Predicate::And(parts?))
        }
        Predicate::Or(ps) => {
            let parts: Option<Vec<Predicate>> =
                ps.iter().map(|p| rename_predicate(p, renames)).collect();
            Some(Predicate::Or(parts?))
        }
    }
}

/// Injects a row filter directly above the scan of `table` — the fully
/// pushed-down position where the PP "executes directly on the raw inputs"
/// (Figure 3c).
pub fn inject_above_scan(
    plan: &LogicalPlan,
    table: &str,
    filter: Arc<dyn RowFilter>,
) -> Result<LogicalPlan> {
    let mut filter = Some(filter);
    let rebuilt = inject_rec(plan, table, &mut filter);
    match filter {
        None => Ok(rebuilt),
        Some(_) => Err(PpError::InvalidParameter(
            "blob table scan not found in plan",
        )),
    }
}

/// Places `filter` above the first scan of `table` in walk order (left
/// input before right) and takes it, so at most one scan is filtered.
fn inject_rec(
    plan: &LogicalPlan,
    table: &str,
    filter: &mut Option<Arc<dyn RowFilter>>,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table: t, .. } if t == table => match filter.take() {
            Some(f) => plan.clone().filter(f),
            None => plan.clone(),
        },
        _ => plan.map_children(|child| inject_rec(child, table, filter)),
    }
}

/// Sums the per-input-row cost of all UDF operators (Process / Reduce /
/// Combine) in the plan — the `u` of §3's cost model, approximating
/// one-output-per-input row flow.
pub fn udf_cost_per_blob(plan: &LogicalPlan) -> f64 {
    let own = match plan {
        LogicalPlan::Process { processor, .. } => processor.cost_per_row(),
        LogicalPlan::Reduce { reducer, .. } => reducer.cost_per_row(),
        LogicalPlan::Combine { combiner, .. } => combiner.cost_per_row(),
        _ => 0.0,
    };
    // Own cost first, then inputs left to right: the summation order is
    // part of the byte-identical `PlanReport`.
    plan.children()
        .fold(own, |sum, child| sum + udf_cost_per_blob(child))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::logical::ProjectItem;
    use pp_engine::udf::{ClosureFilter, ClosureProcessor};
    use pp_engine::{Column, CompareOp, Row, Rowset, Schema, Value};
    use pp_linalg::Features;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Column::new("frameID", DataType::Int),
            Column::new("frame", DataType::Blob),
        ])
        .unwrap();
        let rows = (0..4)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::blob(Features::Dense(vec![i as f64])),
                ])
            })
            .collect();
        let mut c = Catalog::new();
        c.register("video", Rowset::new(schema, rows).unwrap());
        c
    }

    fn veh_proc() -> Arc<dyn pp_engine::udf::Processor> {
        Arc::new(ClosureProcessor::map(
            "VehType",
            vec![Column::new("vehType", DataType::Str)],
            5.0,
            |_, _, out| {
                out.push(Value::str("SUV"));
                Ok(())
            },
        ))
    }

    #[test]
    fn select_above_process_is_pushable() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        let found = pushable_predicates(&plan, &cat).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].table, "video");
        assert_eq!(found[0].blob_column, "frame");
        assert_eq!(found[0].predicate.to_string(), "vehType = SUV");
    }

    #[test]
    fn project_rename_is_inverted() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .project(vec![
                ProjectItem::Keep("frame".into()),
                ProjectItem::Rename {
                    from: "vehType".into(),
                    to: "t".into(),
                },
            ])
            .select(Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")));
        let found = pushable_predicates(&plan, &cat).unwrap();
        assert_eq!(found.len(), 1);
        // The predicate is re-expressed in the trained column name.
        assert_eq!(found[0].predicate.to_string(), "vehType = SUV");
    }

    #[test]
    fn aggregate_blocks_pushdown() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .aggregate(
                vec!["vehType".into()],
                vec![pp_engine::logical::AggExpr {
                    func: pp_engine::logical::AggFunc::Count,
                    column: String::new(),
                    alias: "n".into(),
                }],
            )
            .select(Predicate::from(Clause::new("n", CompareOp::Gt, 2i64)));
        let found = pushable_predicates(&plan, &cat).unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn select_below_aggregate_is_still_pushable() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )))
            .aggregate(
                vec!["vehType".into()],
                vec![pp_engine::logical::AggExpr {
                    func: pp_engine::logical::AggFunc::Count,
                    column: String::new(),
                    alias: "n".into(),
                }],
            );
        let found = pushable_predicates(&plan, &cat).unwrap();
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn join_follows_blob_side() {
        let mut cat = catalog();
        let dim = Schema::new(vec![
            Column::new("fid", DataType::Int),
            Column::new("cam", DataType::Str),
        ])
        .unwrap();
        cat.register("meta", Rowset::new(dim, Vec::new()).unwrap());
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("video").process(veh_proc())),
            right: Box::new(LogicalPlan::scan("meta")),
            left_key: "frameID".into(),
            right_key: "fid".into(),
        }
        .select(Predicate::from(Clause::new(
            "vehType",
            CompareOp::Eq,
            "SUV",
        )));
        let found = pushable_predicates(&plan, &cat).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].table, "video");
    }

    #[test]
    fn inject_places_filter_above_scan() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        let filter: Arc<dyn RowFilter> =
            Arc::new(ClosureFilter::new("PP[test]", 0.01, |_, _| Ok(true)));
        let injected = inject_above_scan(&plan, "video", filter).unwrap();
        let text = injected.explain();
        // Filter line must appear directly above (i.e. after, in the
        // indented rendering) the Scan.
        let filter_pos = text.find("Filter[PP[test]").unwrap();
        let scan_pos = text.find("Scan[video]").unwrap();
        let process_pos = text.find("Process[VehType").unwrap();
        assert!(process_pos < filter_pos && filter_pos < scan_pos, "{text}");
        let _ = cat;
    }

    #[test]
    fn inject_missing_table_errors() {
        let plan = LogicalPlan::scan("video");
        let filter: Arc<dyn RowFilter> =
            Arc::new(ClosureFilter::new("PP[test]", 0.01, |_, _| Ok(true)));
        assert!(inject_above_scan(&plan, "nope", filter).is_err());
    }

    #[test]
    fn udf_cost_sums_processors() {
        let plan = LogicalPlan::scan("video")
            .process(veh_proc())
            .process(Arc::new(ClosureProcessor::map(
                "Color",
                vec![Column::new("vehColor", DataType::Str)],
                7.5,
                |_, _, out| {
                    out.push(Value::str("red"));
                    Ok(())
                },
            )))
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        assert!((udf_cost_per_blob(&plan) - 12.5).abs() < 1e-12);
    }
}
