//! Data sources: how the server turns a predicate into an executable
//! ("NoP") plan.
//!
//! A [`SourceSpec`] names a registered base table and lists the
//! UDF-derived predicate columns it can materialize — the serving analogue
//! of `TrafQuery::nop_plan` in `pp-data`. Given a predicate, the spec emits
//! `scan → (one Process per referenced column, each followed by a select
//! of every top-level conjunct it completes) → project`, so a row one
//! conjunct rejects pays no later UDF. The PP query optimizer then injects
//! a PP filter above the scan and runs the UDFs in rank order by their
//! conjuncts' pass rates among its survivors
//! ([`LogicalPlan::rank_order`]); declaration order is the fallback and
//! the tie-break.
//! The project keeps every column but the blobs, so a verdict row is what
//! the query derived (ids and UDF columns), not the blob it came from.
//! The same plan without the project is what the accuracy auditor runs
//! over the blobs a PP dropped: their rows keep the blob, by which the
//! auditor tells them apart.

use std::collections::HashMap;
use std::sync::Arc;

use pp_engine::logical::ProjectItem;
use pp_engine::predicate::Predicate;
use pp_engine::udf::Processor;
use pp_engine::LogicalPlan;

/// One servable data source.
#[derive(Clone)]
pub struct SourceSpec {
    table: String,
    udfs: Vec<(String, Arc<dyn Processor>)>,
}

impl std::fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceSpec")
            .field("table", &self.table)
            .field(
                "udfs",
                &self.udfs.iter().map(|(c, _)| c).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl SourceSpec {
    /// A source over `table` with no UDF columns yet.
    pub fn new(table: impl Into<String>) -> Self {
        SourceSpec {
            table: table.into(),
            udfs: Vec::new(),
        }
    }

    /// Declares that `processor` materializes predicate column `column`.
    /// A conjunct is applied right after the last UDF it reads. The
    /// planner orders a served plan's UDFs by rank; declaration order is
    /// what it falls back to and breaks ties by, and what the PP-free plan
    /// and audit replays run.
    pub fn with_udf(mut self, column: impl Into<String>, processor: Arc<dyn Processor>) -> Self {
        self.udfs.push((column.into(), processor));
        self
    }

    /// The registered base table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The UDF-derived columns this source can materialize, in
    /// declaration order.
    pub fn columns(&self) -> Vec<&str> {
        self.udfs.iter().map(|(c, _)| c.as_str()).collect()
    }

    /// Scan → the UDFs materializing each column `predicate` references,
    /// in declaration order, with each top-level conjunct's select right
    /// after the last of them it reads ([`LogicalPlan::placed`]): the rows
    /// that satisfy it, blob column included. Columns the predicate does
    /// not touch are skipped, and a row a conjunct rejects reaches no later
    /// UDF, so the plan only pays for the ML inference it needs. The
    /// accuracy auditor replays dropped blobs through it.
    pub(crate) fn udf_plan(&self, predicate: &Predicate) -> LogicalPlan {
        let used = predicate.columns();
        let stages: Vec<_> = (self.udfs.iter())
            .filter(|(column, _)| used.contains(column))
            .map(|(_, processor)| Arc::clone(processor))
            .collect();
        LogicalPlan::placed(
            LogicalPlan::scan(&self.table),
            &stages,
            predicate.conjuncts(),
        )
    }

    /// The plan for `predicate` before PPs: scan → the UDFs it needs, each
    /// conjunct's select after the last UDF it reads, as the auditor
    /// replays, then a project of every non-blob column.
    pub fn nop_plan(&self, predicate: &Predicate) -> LogicalPlan {
        self.udf_plan(predicate).project(vec![ProjectItem::NonBlob])
    }
}

/// The server's name → [`SourceSpec`] mapping.
#[derive(Debug, Clone, Default)]
pub struct SourceRegistry {
    sources: HashMap<String, SourceSpec>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Registers `spec` under `name` (replacing any previous spec).
    pub fn register(&mut self, name: impl Into<String>, spec: SourceSpec) {
        self.sources.insert(name.into(), spec);
    }

    /// Looks up a source by name.
    pub fn get(&self, name: &str) -> Option<&SourceSpec> {
        self.sources.get(name)
    }

    /// Registered source names (arbitrary order).
    pub fn names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::predicate::{Clause, CompareOp};
    use pp_engine::row::{Row, Rowset};
    use pp_engine::schema::{Column, DataType, Schema};
    use pp_engine::udf::ClosureProcessor;
    use pp_engine::value::Value;
    use pp_engine::{Catalog, ExecutionContext};

    fn proc(name: &str, col: &str) -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::map(
            name,
            vec![Column::new(col, DataType::Int)],
            0.01,
            move |_, _, out| {
                out.push(Value::Int(1));
                Ok(())
            },
        ))
    }

    #[test]
    fn nop_plan_includes_only_referenced_udfs() {
        let spec = SourceSpec::new("t")
            .with_udf("a", proc("ProcA", "a"))
            .with_udf("b", proc("ProcB", "b"));
        let pred = Predicate::from(Clause::new("b", CompareOp::Eq, 1i64));
        let plan = spec.nop_plan(&pred);
        let display = format!("{plan:?}");
        assert!(display.contains("ProcB"), "{display}");
        assert!(!display.contains("ProcA"), "{display}");

        // `a = 1 AND b = 1`: the rows `a` rejects never reach `ProcB`.
        let odd = ClosureProcessor::map(
            "ProcA",
            vec![Column::new("a", DataType::Int)],
            0.01,
            |row, _, out| {
                out.push(Value::Int(row.get(0).as_int()? % 2));
                Ok(())
            },
        );
        let spec = SourceSpec::new("t")
            .with_udf("a", Arc::new(odd))
            .with_udf("b", proc("ProcB", "b"));
        let pred = Predicate::and(
            Predicate::from(Clause::new("a", CompareOp::Eq, 1i64)),
            Predicate::from(Clause::new("b", CompareOp::Eq, 1i64)),
        );
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let rows = (0..10).map(|id| Row::new(vec![Value::Int(id)])).collect();
        let mut catalog = Catalog::new();
        catalog.register("t", Rowset::new(schema, rows).unwrap());
        let mut ctx = ExecutionContext::new(&catalog);
        assert_eq!(ctx.run(&spec.nop_plan(&pred)).unwrap().len(), 5);
        let rows_in = |op: &str| {
            let mut spans = ctx.telemetry().into_iter().flat_map(|t| &t.spans);
            spans.find(|s| s.op == op).map(|s| s.rows_in)
        };
        assert_eq!(rows_in("Process[ProcA]"), Some(10));
        assert_eq!(rows_in("Process[ProcB]"), Some(5));
    }

    #[test]
    fn registry_round_trips() {
        let mut reg = SourceRegistry::new();
        reg.register("traffic", SourceSpec::new("traffic"));
        assert!(reg.get("traffic").is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.names(), vec!["traffic"]);
    }
}
