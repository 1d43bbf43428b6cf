//! The table catalog.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::logical::LogicalPlan;
use crate::physical::ExecOptions;
use crate::provider::{MemoryProvider, TableProvider};
use crate::row::Rowset;
use crate::schema::Schema;
use crate::telemetry::SpanCollector;
use crate::{EngineError, Result};

/// Named tables visible to plans. Every table is a [`TableProvider`]: an
/// in-memory [`Rowset`] is registered as a one-group
/// [`MemoryProvider::whole`], an out-of-core table as whatever provider
/// the store hands over. Registering a name again replaces the earlier
/// table, whichever kind either was.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<dyn TableProvider>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) an in-memory table.
    pub fn register(&mut self, name: impl Into<String>, table: Rowset) {
        self.register_shared(name, Arc::new(table));
    }

    /// Registers (or replaces) a shared in-memory table without copying.
    pub fn register_shared(&mut self, name: impl Into<String>, table: Arc<Rowset>) {
        self.register_provider(name, Arc::new(MemoryProvider::whole(table)));
    }

    /// Registers (or replaces) a table provider.
    pub fn register_provider(&mut self, name: impl Into<String>, provider: Arc<dyn TableProvider>) {
        self.tables.insert(name.into(), provider);
    }

    /// Looks up a table.
    pub fn provider(&self, name: &str) -> Result<&Arc<dyn TableProvider>> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// The schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<Arc<Schema>> {
        Ok(self.provider(name)?.schema())
    }

    /// The row count of a table.
    pub fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.provider(name)?.row_count())
    }

    /// Materializes a table as a [`Rowset`]: a bare `Scan` run through the
    /// executor, so an in-memory table's rows are the registered ones and
    /// a segment table's are decoded group by group, in order.
    pub fn read_table(&self, name: &str) -> Result<Rowset> {
        crate::physical::Executor {
            catalog: self,
            opts: ExecOptions::default(),
            tel: &mut SpanCollector::detached(),
            cancel: &CancelToken::new(),
        }
        .run(&LogicalPlan::scan(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn int_schema(name: &str) -> Arc<Schema> {
        Schema::new(vec![Column::new(name, DataType::Int)]).unwrap()
    }

    fn sample_table(n: usize) -> Arc<Rowset> {
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect();
        Arc::new(Rowset::new(int_schema("x"), rows).unwrap())
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("t", Rowset::new(int_schema("x"), Vec::new()).unwrap());
        assert!(c.provider("t").is_ok());
        assert!(matches!(
            c.provider("missing"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            c.table_schema("missing"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            c.table_rows("missing"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            c.read_table("missing"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn in_memory_table_is_one_unzoned_group() {
        let mut c = Catalog::new();
        c.register_shared("t", sample_table(10));
        let p = c.provider("t").unwrap();
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.group_meta(0).rows, 10);
        assert!(!crate::provider::publishes_zone_maps(p.as_ref()));
        assert_eq!(c.table_rows("t").unwrap(), 10);
        assert_eq!(c.table_schema("t").unwrap().len(), 1);
        assert_eq!(c.read_table("t").unwrap().len(), 10);
    }

    #[test]
    fn grouped_provider_lookups() {
        let mut c = Catalog::new();
        c.register_provider(
            "disk",
            Arc::new(MemoryProvider::new(sample_table(10), 4, 1)),
        );
        let p = c.provider("disk").unwrap();
        assert_eq!(p.group_count(), 3);
        assert!(crate::provider::publishes_zone_maps(p.as_ref()));
        assert_eq!(c.table_rows("disk").unwrap(), 10);
        assert_eq!(c.read_table("disk").unwrap().len(), 10);
    }

    /// One map: whichever kind of table was registered last under a name
    /// is the table, in both directions.
    #[test]
    fn last_registration_wins() {
        let mut c = Catalog::new();
        c.register_provider("t", Arc::new(MemoryProvider::new(sample_table(10), 4, 1)));
        c.register("t", Rowset::new(int_schema("y"), Vec::new()).unwrap());
        assert_eq!(c.table_rows("t").unwrap(), 0);
        assert!(c.table_schema("t").unwrap().contains("y"));
        c.register_provider("t", Arc::new(MemoryProvider::new(sample_table(10), 4, 1)));
        assert_eq!(c.table_rows("t").unwrap(), 10);
        assert!(c.table_schema("t").unwrap().contains("x"));
    }
}
