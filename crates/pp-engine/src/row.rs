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
    /// yields exactly its size hint's lower bound — a `Vec`, an array, or
    /// `iter.by_ref().take(n)` over a `Vec`'s cells all do. Any other
    /// `extra` gives the same cells by a slower path.
    pub fn extended(&self, extra: impl IntoIterator<Item = Value>) -> Row {
        // Fused, so that once `extra` has run out the fill below never asks
        // it again (free for the fused iterators Process hands in).
        let mut extra = extra.into_iter().fuse();
        let len = self.values.len() + extra.size_hint().0;
        // Filled by position, the tuple is one allocation written in one
        // pass: a mapped range is an iterator of known length, which a
        // `chain` over `extra` is only for some iterators, and the slow
        // ones at that. A size hint is a bound the iterator may exceed or
        // (broken) fall short of, so either is caught and the row rebuilt.
        let mut short = 0;
        let values: Arc<[Value]> = (0..len)
            .map(|i| match self.values.get(i) {
                Some(cell) => cell.clone(),
                None => extra.next().unwrap_or_else(|| {
                    short += 1;
                    Value::Null
                }),
            })
            .collect();
        match (short, extra.next()) {
            (0, None) => Row { values },
            (_, more) => values[..len - short]
                .iter()
                .cloned()
                .chain(more)
                .chain(extra)
                .collect(),
        }
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

    /// A cell of every kind, picked by `kind`.
    fn cell(kind: u8, n: i64) -> Value {
        match kind % 7 {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Int(n),
            3 => Value::Float(f64::from_bits(n as u64)),
            4 => Value::str(format!("s{n}")),
            5 => Value::blob(pp_linalg::Features::Dense(vec![n as f64; 3])),
            _ => Value::blob(pp_linalg::Features::Sparse(
                pp_linalg::SparseVector::new(8, vec![1], vec![n as f64]).unwrap(),
            )),
        }
    }

    /// The same cell: same kind, same bits, and for a blob the same `Arc`.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Blob(x), Value::Blob(y)) => Arc::ptr_eq(x, y),
            _ => format!("{a:?}") == format!("{b:?}") && a.type_name() == b.type_name(),
        }
    }

    /// An iterator whose size hint claims `claim` exact cells, whatever it
    /// holds: the promise a size hint makes and may break.
    struct Claiming {
        cells: std::vec::IntoIter<Value>,
        claim: usize,
    }

    impl Iterator for Claiming {
        type Item = Value;
        fn next(&mut self) -> Option<Value> {
            self.claim = self.claim.saturating_sub(1);
            self.cells.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.claim, Some(self.claim))
        }
    }

    proptest::proptest! {
        /// `extended` is `Row::new` of the concatenation, cell for cell,
        /// whatever `extra` says of its length: exactly right, a lower
        /// bound of 0, nothing to add, or a size it does not keep.
        #[test]
        fn extended_is_new_of_the_concatenation(
            base in proptest::collection::vec((0u8..7, -1_000i64..1_000), 0..6),
            extra in proptest::collection::vec((0u8..7, -1_000i64..1_000), 0..6),
            off in 0usize..3,
        ) {
            let row = Row::new(base.iter().map(|&(k, n)| cell(k, n)).collect());
            let extra: Vec<Value> = extra.iter().map(|&(k, n)| cell(k, n)).collect();
            let concat = |extra: &[Value]| Row::new(row.values().iter().chain(extra).cloned().collect());
            let check = |got: Row, want: Row, how: &str| {
                let equal = got.len() == want.len()
                    && got.values().iter().zip(want.values()).all(|(a, b)| same(a, b));
                proptest::prop_assert!(equal, "{how}: {got:?} against {want:?}");
                Ok(())
            };
            check(row.extended(extra.clone()), concat(&extra), "exact")?;
            let unsized_extra = extra.iter().filter(|_| true).cloned();
            check(row.extended(unsized_extra), concat(&extra), "lower bound 0")?;
            check(row.extended([]), concat(&[]), "empty")?;
            let claim = extra.len() + 1 + off;
            let short = Claiming { cells: extra.clone().into_iter(), claim };
            check(row.extended(short), concat(&extra), "fewer than claimed")?;
            let claim = extra.len().saturating_sub(1 + off);
            let long = Claiming { cells: extra.clone().into_iter(), claim };
            check(row.extended(long), concat(&extra), "more than claimed")?;
        }
    }
}
