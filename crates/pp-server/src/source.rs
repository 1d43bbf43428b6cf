//! Data sources: how the server turns a predicate into an executable
//! ("NoP") plan.
//!
//! A [`SourceSpec`] names a registered base table and lists the
//! UDF-derived predicate columns it can materialize, in canonical
//! execution order — the serving analogue of
//! `TrafQuery::nop_plan` in `pp-data`. Given a predicate, the spec emits
//! `scan → (one Process per referenced column) → select`; the PP query
//! optimizer then injects PP filters beneath the UDFs as usual.

use std::collections::HashMap;
use std::sync::Arc;

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
    /// Declaration order is execution order, so declare cheap UDFs first
    /// (mirrors the canonical column order of TRAF-20).
    pub fn with_udf(mut self, column: impl Into<String>, processor: Arc<dyn Processor>) -> Self {
        self.udfs.push((column.into(), processor));
        self
    }

    /// The registered base table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The UDF-derived columns this source can materialize, in execution
    /// order.
    pub fn columns(&self) -> Vec<&str> {
        self.udfs.iter().map(|(c, _)| c.as_str()).collect()
    }

    /// The declared `(column, processor)` pairs in execution order — the
    /// accuracy auditor replays dropped blobs through exactly these
    /// ground-truth UDFs.
    pub(crate) fn udf_processors(&self) -> impl Iterator<Item = (&String, &Arc<dyn Processor>)> {
        self.udfs.iter().map(|(c, p)| (c, p))
    }

    /// The unmodified plan for `predicate`: scan → the UDFs materializing
    /// each referenced column (in declaration order) → select. Columns the
    /// predicate does not touch are skipped, so the plan only pays for the
    /// ML inference it needs.
    pub fn nop_plan(&self, predicate: &Predicate) -> LogicalPlan {
        let used = predicate.columns();
        let mut plan = LogicalPlan::scan(&self.table);
        for (column, processor) in &self.udfs {
            if used.contains(column) {
                plan = plan.process(Arc::clone(processor));
            }
        }
        plan.select(predicate.clone())
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
    use pp_engine::schema::{Column, DataType};
    use pp_engine::udf::ClosureProcessor;
    use pp_engine::value::Value;

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
