//! The logical plan algebra.
//!
//! Queries are operator trees: a scan of a blob table feeds processors
//! (ML UDFs materializing relational columns), relational operators
//! (select / project / foreign-key join / aggregate), and group UDFs
//! (reduce / combine). `Filter` nodes carry [`RowFilter`]s — the slot the
//! PP query-optimizer extension injects probabilistic predicates into
//! (green dotted circles in the paper's Figure 3c).

use std::sync::Arc;

use crate::catalog::Catalog;
use crate::predicate::Predicate;
use crate::schema::{Column, DataType, Schema};
use crate::udf::{Combiner, Processor, Reducer, RowFilter};
use crate::{EngineError, Result};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) (column ignored).
    Count,
    /// SUM(column).
    Sum,
    /// AVG(column).
    Avg,
    /// MIN(column).
    Min,
    /// MAX(column).
    Max,
}

/// One aggregate expression with its output alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column (ignored by `Count`).
    pub column: String,
    /// Output column name.
    pub alias: String,
}

/// A projection item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProjectItem {
    /// Keep a column as-is.
    Keep(String),
    /// Keep a column under a new name (the `π_{Ca→Cb}` of Table 11).
    Rename {
        /// Existing column name.
        from: String,
        /// New name in the output.
        to: String,
    },
    /// Keep every column of the input that is not a blob, in input order
    /// and under its own name: what a served verdict row carries. The
    /// columns are those of the input schema, so a plan built without a
    /// catalog can still say it.
    NonBlob,
}

impl ProjectItem {
    /// The `(source, output)` names of an item that names its column;
    /// `None` for [`ProjectItem::NonBlob`].
    pub fn names(&self) -> Option<(&str, &str)> {
        match self {
            ProjectItem::Keep(c) => Some((c, c)),
            ProjectItem::Rename { from, to } => Some((from, to)),
            ProjectItem::NonBlob => None,
        }
    }
}

/// What `items` make of a row of schema `input`: each output column, in
/// order, beside the input index its cells are read from. The one place a
/// projection is resolved, for [`LogicalPlan::output_schema`] and the
/// executor alike.
pub(crate) fn project_columns(
    items: &[ProjectItem],
    input: &Schema,
) -> Result<Vec<(usize, Column)>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item.names() {
            Some((from, to)) => {
                let at = input.index_of(from)?;
                out.push((at, Column::new(to, input.columns()[at].dtype)));
            }
            None => out.extend(
                (input.columns().iter().enumerate())
                    .filter(|(_, c)| c.dtype != DataType::Blob)
                    .map(|(at, c)| (at, c.clone())),
            ),
        }
    }
    Ok(out)
}

/// A logical query plan node.
#[derive(Clone)]
pub enum LogicalPlan {
    /// Scan a named table from the catalog.
    Scan {
        /// Catalog table name.
        table: String,
        /// Optional predicate pushed down to the storage layer for
        /// zone-map row-group pruning. Pruning is conservative — it only
        /// skips groups that provably cannot match — so results are
        /// unchanged; the full predicate is still applied above the
        /// scan. Prunes nothing on a table that publishes no zone maps.
        pushdown: Option<Predicate>,
    },
    /// Apply a processor UDF (appends columns, may fan out or drop rows).
    Process {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The UDF.
        processor: Arc<dyn Processor>,
    },
    /// Relational selection by a predicate.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Filter predicate over input columns.
        predicate: Predicate,
    },
    /// Row-level filter UDF (probabilistic predicates live here).
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The filter.
        filter: Arc<dyn RowFilter>,
    },
    /// Projection (column keep/rename).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output items.
        items: Vec<ProjectItem>,
    },
    /// Foreign-key equijoin: each left row matches rows on the right whose
    /// key equals the left key (right side is the primary-key side).
    Join {
        /// Probe (foreign-key) side.
        left: Box<LogicalPlan>,
        /// Build (primary-key) side.
        right: Box<LogicalPlan>,
        /// Key column on the left.
        left_key: String,
        /// Key column on the right.
        right_key: String,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Apply a reducer UDF over groups.
    Reduce {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The UDF.
        reducer: Arc<dyn Reducer>,
    },
    /// Apply a combiner UDF (custom join) over two grouped inputs.
    Combine {
        /// Left input plan.
        left: Box<LogicalPlan>,
        /// Right input plan.
        right: Box<LogicalPlan>,
        /// The UDF.
        combiner: Arc<dyn Combiner>,
    },
}

impl std::fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.explain())
    }
}

impl LogicalPlan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            pushdown: None,
        }
    }

    /// Input subtrees, left before right. Every walker in the workspace
    /// visits `children()` before the node itself, which is the order
    /// operators charge the cost meter and open telemetry spans.
    pub fn children(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (first, second) = match self {
            LogicalPlan::Scan { .. } => (None, None),
            LogicalPlan::Process { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Reduce { input, .. } => (Some(&**input), None),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Combine { left, right, .. } => {
                (Some(&**left), Some(&**right))
            }
        };
        first.into_iter().chain(second)
    }

    /// A copy of this node over `f(child)` for each child, left before
    /// right; the node's own fields are cloned. This is the one place a
    /// node is rebuilt variant by variant: a plan rewrite matches the
    /// variants it changes and hands every other node here.
    pub fn map_children(&self, mut f: impl FnMut(&LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut map = |child: &LogicalPlan| Box::new(f(child));
        match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Process { input, processor } => LogicalPlan::Process {
                input: map(input),
                processor: processor.clone(),
            },
            LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
                input: map(input),
                predicate: predicate.clone(),
            },
            LogicalPlan::Filter { input, filter } => LogicalPlan::Filter {
                input: map(input),
                filter: filter.clone(),
            },
            LogicalPlan::Project { input, items } => LogicalPlan::Project {
                input: map(input),
                items: items.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => LogicalPlan::Join {
                left: map(left),
                right: map(right),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: map(input),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Reduce { input, reducer } => LogicalPlan::Reduce {
                input: map(input),
                reducer: reducer.clone(),
            },
            LogicalPlan::Combine {
                left,
                right,
                combiner,
            } => LogicalPlan::Combine {
                left: map(left),
                right: map(right),
                combiner: combiner.clone(),
            },
        }
    }

    /// The operator's display name: its cost-meter label, its telemetry
    /// span name, and the name fault plans and prediction hints target.
    pub fn op_label(&self) -> String {
        match self {
            LogicalPlan::Scan { table, .. } => format!("Scan[{table}]"),
            LogicalPlan::Process { processor, .. } => format!("Process[{}]", processor.name()),
            LogicalPlan::Select { predicate, .. } => format!("Select[{predicate}]"),
            LogicalPlan::Filter { filter, .. } => filter.name().to_string(),
            LogicalPlan::Project { .. } => "Project".to_string(),
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => format!("Join[{left_key} = {right_key}]"),
            LogicalPlan::Aggregate { .. } => "Aggregate".to_string(),
            LogicalPlan::Reduce { reducer, .. } => format!("Reduce[{}]", reducer.name()),
            LogicalPlan::Combine { combiner, .. } => format!("Combine[{}]", combiner.name()),
        }
    }

    /// Returns a copy of the plan with `pushdown` attached to every scan
    /// of `table` (replacing any existing pushdown there). Used by the
    /// planner to push zone-map-prunable conjuncts into scans of tables
    /// that publish zone maps.
    pub fn with_scan_pushdown(&self, table: &str, pushdown: &Predicate) -> LogicalPlan {
        match self {
            LogicalPlan::Scan { table: t, .. } if t == table => LogicalPlan::Scan {
                table: t.clone(),
                pushdown: Some(pushdown.clone()),
            },
            _ => self.map_children(|child| child.with_scan_pushdown(table, pushdown)),
        }
    }

    /// Scan `table` → each of `stages` in order, with each conjunct's
    /// `Select` directly above the last stage whose
    /// [`output_columns`](Processor::output_columns) it reads, so no row a
    /// conjunct rejects pays a later stage. A conjunct that reads no stage
    /// output sits directly above the scan; conjuncts that share a position
    /// keep their given order.
    pub fn placed(
        table: impl Into<String>,
        stages: &[Arc<dyn Processor>],
        conjuncts: impl IntoIterator<Item = Predicate>,
    ) -> LogicalPlan {
        // `at[0]` sits above the scan, `at[i + 1]` above `stages[i]`.
        let mut at = vec![Vec::new(); stages.len() + 1];
        for conjunct in conjuncts {
            let reads = conjunct.columns();
            let last = stages.iter().rposition(|stage| {
                (stage.output_columns().iter()).any(|c| reads.contains(&c.name))
            });
            at[last.map_or(0, |i| i + 1)].push(conjunct);
        }
        let mut at = at.into_iter();
        let above_scan = at.next().into_iter().flatten();
        let mut plan = above_scan.fold(LogicalPlan::scan(table), LogicalPlan::select);
        for (stage, selects) in stages.iter().zip(at) {
            plan = (selects.into_iter()).fold(plan.process(Arc::clone(stage)), LogicalPlan::select);
        }
        plan
    }

    /// Chains a processor.
    pub fn process(self, processor: Arc<dyn Processor>) -> LogicalPlan {
        LogicalPlan::Process {
            input: Box::new(self),
            processor,
        }
    }

    /// Chains a selection.
    pub fn select(self, predicate: Predicate) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Chains a row filter.
    pub fn filter(self, filter: Arc<dyn RowFilter>) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            filter,
        }
    }

    /// Chains a projection.
    pub fn project(self, items: Vec<ProjectItem>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Chains a grouped aggregation.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Chains a reducer UDF.
    pub fn reduce(self, reducer: Arc<dyn Reducer>) -> LogicalPlan {
        LogicalPlan::Reduce {
            input: Box::new(self),
            reducer,
        }
    }

    /// Computes the output schema against a catalog.
    pub fn output_schema(&self, catalog: &Catalog) -> Result<Arc<Schema>> {
        match self {
            LogicalPlan::Scan { table, .. } => catalog.table_schema(table),
            LogicalPlan::Process { input, processor } => {
                let in_schema = input.output_schema(catalog)?;
                in_schema.extend(processor.output_columns())
            }
            LogicalPlan::Select { input, predicate } => {
                let schema = input.output_schema(catalog)?;
                for col in predicate.columns() {
                    if !schema.contains(&col) {
                        return Err(EngineError::UnknownColumn(col));
                    }
                }
                Ok(schema)
            }
            LogicalPlan::Filter { input, .. } => input.output_schema(catalog),
            LogicalPlan::Project { input, items } => {
                let in_schema = input.output_schema(catalog)?;
                let cols = project_columns(items, &in_schema)?;
                Schema::new(cols.into_iter().map(|(_, c)| c).collect())
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let ls = left.output_schema(catalog)?;
                let rs = right.output_schema(catalog)?;
                ls.index_of(left_key)?;
                rs.index_of(right_key)?;
                let mut cols = ls.columns().to_vec();
                for c in rs.columns() {
                    if c.name == *right_key {
                        continue; // FK join drops the duplicated key column
                    }
                    cols.push(c.clone());
                }
                Schema::new(cols)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.output_schema(catalog)?;
                let mut cols = Vec::new();
                for g in group_by {
                    cols.push(in_schema.column(g)?.clone());
                }
                for a in aggs {
                    let dtype = match a.func {
                        AggFunc::Count => DataType::Int,
                        AggFunc::Sum | AggFunc::Avg => DataType::Float,
                        AggFunc::Min | AggFunc::Max => in_schema.column(&a.column)?.dtype,
                    };
                    cols.push(Column::new(a.alias.clone(), dtype));
                }
                Schema::new(cols)
            }
            LogicalPlan::Reduce { input, reducer } => {
                let in_schema = input.output_schema(catalog)?;
                for k in reducer.key_columns() {
                    in_schema.index_of(k)?;
                }
                Schema::new(reducer.output_columns().to_vec())
            }
            LogicalPlan::Combine {
                left,
                right,
                combiner,
            } => {
                let ls = left.output_schema(catalog)?;
                let rs = right.output_schema(catalog)?;
                ls.index_of(combiner.left_key())?;
                rs.index_of(combiner.right_key())?;
                Schema::new(combiner.output_columns().to_vec())
            }
        }
    }

    /// An indented, EXPLAIN-style rendering of the plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let head = match self {
            // The label stays verbatim so operator-name matching (spans,
            // meter labels) is unaffected by the annotation.
            LogicalPlan::Scan {
                pushdown: Some(p), ..
            } => format!("{} pushdown=[{p}]", self.op_label()),
            LogicalPlan::Process { processor, .. } => format!(
                "Process[{} cost={}s/row]",
                processor.name(),
                processor.cost_per_row()
            ),
            LogicalPlan::Filter { filter, .. } => format!(
                "Filter[{} cost={}s/row]",
                filter.name(),
                filter.cost_per_row()
            ),
            LogicalPlan::Project { items, .. } => {
                let cols: Vec<&str> = items
                    .iter()
                    .map(|i| i.names().map_or("* except blobs", |(_, to)| to))
                    .collect();
                format!("Project[{}]", cols.join(", "))
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.alias.as_str()).collect();
                format!(
                    "Aggregate[by {}; {}]",
                    group_by.join(", "),
                    names.join(", ")
                )
            }
            // The remaining operators render as their meter label.
            _ => self.op_label(),
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&head);
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::predicate::{Clause, CompareOp, Predicate};
    use crate::row::{Row, Rowset};
    use crate::udf::ClosureProcessor;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Column::new("frameID", DataType::Int),
            Column::new("blob", DataType::Blob),
        ])
        .unwrap();
        let rows = vec![Row::new(vec![
            Value::Int(1),
            Value::blob(pp_linalg::Features::Dense(vec![0.0])),
        ])];
        let mut c = Catalog::new();
        c.register("video", Rowset::new(schema, rows).unwrap());
        c
    }

    fn veh_type_proc() -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::map(
            "VehType",
            vec![Column::new("vehType", DataType::Str)],
            1.0,
            |_, _, out| {
                out.push(Value::str("SUV"));
                Ok(())
            },
        ))
    }

    #[test]
    fn schema_propagation_through_process_select_project() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_type_proc())
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )))
            .project(vec![
                ProjectItem::Keep("frameID".into()),
                ProjectItem::Rename {
                    from: "vehType".into(),
                    to: "t".into(),
                },
            ]);
        let schema = plan.output_schema(&cat).unwrap();
        assert_eq!(schema.len(), 2);
        assert!(schema.contains("frameID"));
        assert!(schema.contains("t"));
    }

    #[test]
    fn placed_selects_each_conjunct_above_the_last_stage_it_reads() {
        let speed: Arc<dyn Processor> = Arc::new(ClosureProcessor::map(
            "Speed",
            vec![Column::new("speed", DataType::Int)],
            1.0,
            |_, _, out| {
                out.push(Value::Int(50));
                Ok(())
            },
        ));
        let c = |col: &str, op, v: Value| Predicate::from(Clause::new(col, op, v));
        let conjuncts = [
            c("speed", CompareOp::Ge, Value::Int(40)),
            c("frameID", CompareOp::Ge, Value::Int(1)),
            Predicate::or(
                c("vehType", CompareOp::Eq, Value::str("SUV")),
                c("speed", CompareOp::Ge, Value::Int(60)),
            ),
            c("vehType", CompareOp::Eq, Value::str("SUV")),
            c("speed", CompareOp::Le, Value::Int(70)),
        ];
        let plan = LogicalPlan::placed("video", &[veh_type_proc(), speed], conjuncts);
        let mut chain = vec![plan.op_label()];
        let mut node = &plan;
        while let Some(child) = node.children().next() {
            chain.push(child.op_label());
            node = child;
        }
        chain.reverse();
        assert_eq!(
            chain,
            [
                "Scan[video]",
                "Select[frameID >= 1]",
                "Process[VehType]",
                "Select[vehType = SUV]",
                "Process[Speed]",
                "Select[speed >= 40]",
                "Select[(vehType = SUV) OR (speed >= 60)]",
                "Select[speed <= 70]",
            ]
        );
        assert!(plan.output_schema(&catalog()).is_ok());
    }

    #[test]
    fn non_blob_keeps_every_column_but_the_blobs_in_input_order() {
        let plan = LogicalPlan::scan("video")
            .process(veh_type_proc())
            .project(vec![ProjectItem::NonBlob]);
        let schema = plan.output_schema(&catalog()).unwrap();
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["frameID", "vehType"]);
        assert!(plan.explain().starts_with("Project[* except blobs]\n"));
    }

    #[test]
    fn select_on_missing_column_fails() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video").select(Predicate::from(Clause::new(
            "vehType",
            CompareOp::Eq,
            "SUV",
        )));
        assert!(plan.output_schema(&cat).is_err());
    }

    #[test]
    fn join_drops_right_key() {
        let mut cat = catalog();
        let dim_schema = Schema::new(vec![
            Column::new("fid", DataType::Int),
            Column::new("cam", DataType::Str),
        ])
        .unwrap();
        cat.register("frames_meta", Rowset::new(dim_schema, Vec::new()).unwrap());
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("video")),
            right: Box::new(LogicalPlan::scan("frames_meta")),
            left_key: "frameID".into(),
            right_key: "fid".into(),
        };
        let schema = plan.output_schema(&cat).unwrap();
        assert_eq!(schema.len(), 3); // frameID, blob, cam
        assert!(!schema.contains("fid"));
    }

    #[test]
    fn aggregate_schema_types() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_type_proc())
            .aggregate(
                vec!["vehType".into()],
                vec![
                    AggExpr {
                        func: AggFunc::Count,
                        column: String::new(),
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Avg,
                        column: "frameID".into(),
                        alias: "avg_f".into(),
                    },
                    AggExpr {
                        func: AggFunc::Max,
                        column: "frameID".into(),
                        alias: "max_f".into(),
                    },
                ],
            );
        let schema = plan.output_schema(&cat).unwrap();
        assert_eq!(schema.column("n").unwrap().dtype, DataType::Int);
        assert_eq!(schema.column("avg_f").unwrap().dtype, DataType::Float);
        assert_eq!(schema.column("max_f").unwrap().dtype, DataType::Int);
    }

    #[test]
    fn explain_renders_tree() {
        let cat = catalog();
        let plan = LogicalPlan::scan("video")
            .process(veh_type_proc())
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        let text = plan.explain();
        assert!(text.contains("Select"));
        assert!(text.contains("Process[VehType"));
        assert!(text.contains("Scan[video]"));
        let _ = cat;
    }
}
