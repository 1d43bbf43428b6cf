//! Rows and rowsets.

use std::sync::Arc;

use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// One tuple. Cloning is a reference-count bump: the cell storage is
/// shared (`Arc`-backed), so a table scan can hand out per-query row
/// copies without re-allocating every tuple. Rows are immutable after
/// construction — derived rows (e.g. Process outputs) are built fresh
/// via [`Row::extended`] or [`Row::new`].
#[derive(Debug, Clone)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Creates a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// The cell values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Cell by position.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Cell by column name, resolved against a schema.
    pub fn get_named(&self, schema: &Schema, name: &str) -> Result<&Value> {
        Ok(&self.values[schema.index_of(name)?])
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a zero-cell row.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A new row with extra cells appended (used by Process nodes).
    ///
    /// The row is allocated once, at its final size, as long as `extra`
    /// reports an exact length — a `Vec`, an array, or
    /// `iter.by_ref().take(n)` over a `Vec`'s cells all do.
    pub fn extended(&self, extra: impl IntoIterator<Item = Value>) -> Row {
        self.values.iter().cloned().chain(extra).collect()
    }

    /// Consumes the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

/// Collects cells straight into the shared slice: an iterator that knows
/// its length allocates the row once.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(cells: I) -> Self {
        Row {
            values: cells.into_iter().collect(),
        }
    }
}

/// A materialized table: a schema plus rows.
#[derive(Debug, Clone)]
pub struct Rowset {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl Rowset {
    /// Creates a rowset, validating row arity against the schema.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self> {
        for r in &rows {
            if r.len() != schema.len() {
                return Err(EngineError::InvalidPlan(format!(
                    "row arity {} does not match schema arity {}",
                    r.len(),
                    schema.len()
                )));
            }
        }
        Ok(Rowset { schema, rows })
    }

    /// An empty rowset with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Rowset {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row (arity-checked).
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::InvalidPlan(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Consumes the rowset, yielding rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn named_access() {
        let s = schema();
        let r = Row::new(vec![Value::Int(7), Value::str("suv")]);
        assert!(r.get_named(&s, "id").unwrap().sql_eq(&Value::Int(7)));
        assert!(r.get_named(&s, "missing").is_err());
    }

    #[test]
    fn arity_checked() {
        let s = schema();
        assert!(Rowset::new(s.clone(), vec![Row::new(vec![Value::Int(1)])]).is_err());
        let mut rs = Rowset::empty(s);
        assert!(rs
            .push(Row::new(vec![Value::Int(1), Value::str("x")]))
            .is_ok());
        assert!(rs.push(Row::new(vec![Value::Int(1)])).is_err());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn extended_appends_cells() {
        let r = Row::new(vec![Value::Int(1)]);
        let e = r.extended([Value::str("red")]);
        assert_eq!(e.len(), 2);
        assert!(e.get(1).sql_eq(&Value::str("red")));
        // Original untouched.
        assert_eq!(r.len(), 1);
    }
}
