//! UDF templates: processors, reducers, combiners, and row filters.
//!
//! Mirrors §4 "Language support for UDFs": *processors* encapsulate row
//! manipulators producing "one or more output rows per input row" (data
//! ingestion, per-blob ML operations such as feature extraction);
//! *reducers* encapsulate operations over groups of related items
//! (context-based ML such as object tracking); *combiners* encapsulate
//! custom joins over multiple groups.
//!
//! [`RowFilter`] is the hook through which probabilistic predicates enter a
//! plan: a filter executes directly on rows (typically raw blob rows),
//! charges its own (small) cost, and drops rows that fail.
//!
//! Every UDF declares a per-input-row cost in simulated cluster seconds —
//! the `u` (UDF cost) and `c` (early-filter cost) of §3's cost model.
//!
//! A [`Processor`] has one entry point, [`Processor::process`], and it
//! returns nothing it allocated: it reads its input row where the row is
//! kept (a [`RowRef`]) and appends its output rows' cells to a buffer the
//! caller owns. The executor hands it one buffer per batch and checks
//! every call the same way, whoever wrote the processor — a whole number
//! of rows ([`output_rows`]), and nothing left behind by a call that
//! failed.

use std::sync::Arc;

use crate::batch::Batch;
use crate::row::{Row, RowRef};
use crate::schema::{Column, Schema};
use crate::value::Value;
use crate::{EngineError, Result};

/// A processor UDF: appends columns, emitting zero or more output rows per
/// input row.
///
/// A processor is scalar: the executor calls [`process`](Self::process)
/// once per row of a batch, and again per retry.
pub trait Processor: Send + Sync {
    /// Unique UDF name.
    fn name(&self) -> &str;
    /// The columns this processor appends to its input schema.
    fn output_columns(&self) -> &[Column];
    /// Simulated cluster seconds charged per *input* row.
    fn cost_per_row(&self) -> f64;
    /// Appends to `out` the cells of each output row derived from `row`,
    /// row after row: `output_columns().len()` cells per output row, so
    /// writing nothing drops the row (e.g. a detector finding no
    /// vehicles). `out` already holds other rows' cells; a processor only
    /// appends. The caller checks that a whole number of rows was written
    /// and, when the call fails, discards whatever it had written.
    ///
    /// `row` is a view, not a tuple: the input row's cells in `schema`
    /// order ([`RowRef::get`], [`RowRef::get_named`], [`RowRef::iter`]),
    /// read where they are kept — the columns earlier processors of the
    /// chain appended are read in their buffer, never copied into a tuple
    /// for this call.
    fn process(&self, row: RowRef<'_>, schema: &Schema, out: &mut Vec<Value>) -> Result<()>;
}

/// How many output rows the `cells` one [`Processor::process`] call
/// appended make up: a whole number of rows of `output_columns().len()`
/// cells each, or the call failed. (A processor that appends no column
/// passes each row through once.)
pub fn output_rows(processor: &dyn Processor, cells: usize) -> Result<usize> {
    let width = processor.output_columns().len();
    match cells.checked_rem(width) {
        Some(0) => Ok(cells / width),
        None if cells == 0 => Ok(1),
        _ => Err(EngineError::Udf(format!(
            "{}: produced {cells} cells, declared {width} output columns",
            processor.name()
        ))),
    }
}

/// One call into `processor`, all or nothing: `then` sees the cells the
/// call appended to `out`, and if either fails `out` is cut back to where
/// it was, so a failed attempt can never prefix the next one's output.
/// Everything in this crate that calls a processor calls it through here.
pub(crate) fn attempt<T>(
    processor: &dyn Processor,
    row: RowRef<'_>,
    schema: &Schema,
    out: &mut Vec<Value>,
    then: impl FnOnce(&mut [Value]) -> Result<T>,
) -> Result<T> {
    let mark = out.len();
    let result = processor
        .process(row, schema, out)
        .and_then(|()| match out.get_mut(mark..) {
            Some(fresh) => then(fresh),
            None => Err(EngineError::Udf(format!(
                "{}: removed cells from its output buffer",
                processor.name()
            ))),
        });
    if result.is_err() {
        out.truncate(mark);
    }
    result
}

/// A reducer UDF: consumes a group of related rows, emits aggregated rows.
pub trait Reducer: Send + Sync {
    /// Unique UDF name.
    fn name(&self) -> &str;
    /// Columns to group on (the "partition" of partition-shuffle-aggregate).
    fn key_columns(&self) -> &[String];
    /// The full output schema of emitted rows.
    fn output_columns(&self) -> &[Column];
    /// Simulated cluster seconds charged per input row.
    fn cost_per_row(&self) -> f64;
    /// Reduces one group (all rows sharing the key) to output rows.
    fn reduce(&self, group: &[Row], schema: &Schema) -> Result<Vec<Row>>;
}

/// A combiner UDF: a custom join over two grouped inputs.
pub trait Combiner: Send + Sync {
    /// Unique UDF name.
    fn name(&self) -> &str;
    /// Join key column on the left input.
    fn left_key(&self) -> &str;
    /// Join key column on the right input.
    fn right_key(&self) -> &str;
    /// The full output schema of emitted rows.
    fn output_columns(&self) -> &[Column];
    /// Simulated cluster seconds charged per (left + right) input row.
    fn cost_per_row(&self) -> f64;
    /// Combines the matching groups for one key value.
    fn combine(
        &self,
        left: &[Row],
        right: &[Row],
        left_schema: &Schema,
        right_schema: &Schema,
    ) -> Result<Vec<Row>>;
}

/// A row-level filter — the physical form a probabilistic predicate takes
/// inside a plan.
///
/// The executor makes every row's first attempt through
/// [`eval_batch`](Self::eval_batch), one [`Batch`] at a time, and retries
/// failed rows individually through [`passes`](Self::passes). A scalar
/// filter implements `passes` only; PP filters override `eval_batch` with
/// columnar block scoring (`pp-core`).
pub trait RowFilter: Send + Sync {
    /// Display name (e.g. `PP[t = SUV]@0.95`).
    fn name(&self) -> &str;
    /// Simulated cluster seconds charged per input row (the `c` of §3).
    fn cost_per_row(&self) -> f64;
    /// Whether the row survives the filter.
    fn passes(&self, row: &Row, schema: &Schema) -> Result<bool>;
    /// Whether the executor may degrade this filter to pass-through when
    /// it fails (see [`resilience`](crate::resilience)). Defaults to true:
    /// PP-style filters are best-effort data reduction, so letting a row
    /// through on error costs cluster time but never correctness. Filters
    /// that *gate* correctness should override this to false, making their
    /// failures fatal instead.
    fn fail_open(&self) -> bool {
        true
    }
    /// Evaluates a whole batch: one outcome per input row
    /// (`results.len() == batch.len()`), each counting as that row's
    /// *first attempt*. The default walks the batch through
    /// [`passes`](Self::passes) in row order. An override must be
    /// row-independent (row `i`'s outcome may not depend on which other
    /// rows share the batch) and bit-identical to `passes` over the same
    /// rows.
    fn eval_batch(&self, batch: &Batch<'_>) -> Vec<Result<bool>> {
        let schema = batch.schema();
        batch
            .rows()
            .iter()
            .map(|row| self.passes(row, schema))
            .collect()
    }
}

/// A [`Processor`] built from a closure, for dataset-defined UDFs.
pub struct ClosureProcessor {
    name: String,
    output_columns: Vec<Column>,
    cost_per_row: f64,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(RowRef<'_>, &Schema, &mut Vec<Value>) -> Result<()> + Send + Sync>,
}

impl ClosureProcessor {
    /// Creates a processor from a closure appending its output rows' cells
    /// (see [`Processor::process`]).
    pub fn new<F>(
        name: impl Into<String>,
        output_columns: Vec<Column>,
        cost_per_row: f64,
        f: F,
    ) -> Self
    where
        F: Fn(RowRef<'_>, &Schema, &mut Vec<Value>) -> Result<()> + Send + Sync + 'static,
    {
        ClosureProcessor {
            name: name.into(),
            output_columns,
            cost_per_row,
            f: Arc::new(f),
        }
    }

    /// Creates a 1:1 processor: `f` must append exactly one output row, and
    /// a call that appends anything else fails.
    pub fn map<F>(
        name: impl Into<String>,
        output_columns: Vec<Column>,
        cost_per_row: f64,
        f: F,
    ) -> Self
    where
        F: Fn(RowRef<'_>, &Schema, &mut Vec<Value>) -> Result<()> + Send + Sync + 'static,
    {
        let name = name.into();
        let (udf, width) = (name.clone(), output_columns.len());
        Self::new(
            name,
            output_columns,
            cost_per_row,
            move |row, schema, out| {
                let mark = out.len();
                f(row, schema, out)?;
                if out.len().checked_sub(mark) != Some(width) {
                    return Err(EngineError::Udf(format!(
                        "{udf}: a 1:1 processor must write one row of {width} cells"
                    )));
                }
                Ok(())
            },
        )
    }
}

impl std::fmt::Debug for ClosureProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureProcessor")
            .field("name", &self.name)
            .field("cost_per_row", &self.cost_per_row)
            .finish_non_exhaustive()
    }
}

impl Processor for ClosureProcessor {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_columns(&self) -> &[Column] {
        &self.output_columns
    }
    fn cost_per_row(&self) -> f64 {
        self.cost_per_row
    }
    fn process(&self, row: RowRef<'_>, schema: &Schema, out: &mut Vec<Value>) -> Result<()> {
        (self.f)(row, schema, out)
    }
}

/// A [`Reducer`] built from a closure.
pub struct ClosureReducer {
    name: String,
    key_columns: Vec<String>,
    output_columns: Vec<Column>,
    cost_per_row: f64,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&[Row], &Schema) -> Result<Vec<Row>> + Send + Sync>,
}

impl ClosureReducer {
    /// Creates a reducer from a closure over one group.
    pub fn new<F>(
        name: impl Into<String>,
        key_columns: Vec<String>,
        output_columns: Vec<Column>,
        cost_per_row: f64,
        f: F,
    ) -> Self
    where
        F: Fn(&[Row], &Schema) -> Result<Vec<Row>> + Send + Sync + 'static,
    {
        ClosureReducer {
            name: name.into(),
            key_columns,
            output_columns,
            cost_per_row,
            f: Arc::new(f),
        }
    }
}

impl std::fmt::Debug for ClosureReducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureReducer")
            .field("name", &self.name)
            .field("key_columns", &self.key_columns)
            .finish_non_exhaustive()
    }
}

impl Reducer for ClosureReducer {
    fn name(&self) -> &str {
        &self.name
    }
    fn key_columns(&self) -> &[String] {
        &self.key_columns
    }
    fn output_columns(&self) -> &[Column] {
        &self.output_columns
    }
    fn cost_per_row(&self) -> f64 {
        self.cost_per_row
    }
    fn reduce(&self, group: &[Row], schema: &Schema) -> Result<Vec<Row>> {
        (self.f)(group, schema)
    }
}

/// A [`RowFilter`] built from a closure (used for deterministic filters and
/// in tests; PPs provide their own implementation in `pp-core`).
pub struct ClosureFilter {
    name: String,
    cost_per_row: f64,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&Row, &Schema) -> Result<bool> + Send + Sync>,
}

impl ClosureFilter {
    /// Creates a filter from a predicate closure.
    pub fn new<F>(name: impl Into<String>, cost_per_row: f64, f: F) -> Self
    where
        F: Fn(&Row, &Schema) -> Result<bool> + Send + Sync + 'static,
    {
        ClosureFilter {
            name: name.into(),
            cost_per_row,
            f: Arc::new(f),
        }
    }
}

impl std::fmt::Debug for ClosureFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureFilter")
            .field("name", &self.name)
            .field("cost_per_row", &self.cost_per_row)
            .finish_non_exhaustive()
    }
}

impl RowFilter for ClosureFilter {
    fn name(&self) -> &str {
        &self.name
    }
    fn cost_per_row(&self) -> f64 {
        self.cost_per_row
    }
    fn passes(&self, row: &Row, schema: &Schema) -> Result<bool> {
        (self.f)(row, schema)
    }
}

#[cfg(test)]
/// One direct call into `p`: the cells it wrote.
pub(crate) fn written(p: &dyn Processor, row: &Row, schema: &Schema) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    p.process(RowRef::from(row), schema, &mut out).map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Column::new("x", DataType::Int)]).unwrap()
    }

    fn cells(p: &dyn Processor, row: &Row) -> Result<Vec<Value>> {
        written(p, row, &schema())
    }

    #[test]
    fn map_processor_is_one_to_one() {
        let y = || vec![Column::new("y", DataType::Int)];
        let p = ClosureProcessor::map("double", y(), 0.5, |row, _, out| {
            out.push(Value::Int(row.get(0).as_int()? * 2));
            Ok(())
        });
        let out = cells(&p, &Row::new(vec![Value::Int(21)])).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].sql_eq(&Value::Int(42)));
        assert_eq!(p.cost_per_row(), 0.5);
        assert_eq!(p.name(), "double");
        // Two rows, or none, are not 1:1.
        for n in [0, 2] {
            let p = ClosureProcessor::map("bad", y(), 0.1, move |_, _, out| {
                out.extend((0..n).map(Value::Int));
                Ok(())
            });
            assert!(matches!(
                cells(&p, &Row::new(vec![Value::Int(0)])),
                Err(EngineError::Udf(_))
            ));
        }
    }

    #[test]
    fn processor_can_fan_out_or_drop() {
        let p = ClosureProcessor::new(
            "detector",
            vec![Column::new("box", DataType::Int)],
            1.0,
            |row, _, out| {
                out.extend((0..row.get(0).as_int()?).map(Value::Int));
                Ok(())
            },
        );
        assert_eq!(cells(&p, &Row::new(vec![Value::Int(3)])).unwrap().len(), 3);
        assert!(cells(&p, &Row::new(vec![Value::Int(0)]))
            .unwrap()
            .is_empty());
    }

    /// An attempt that fails — in the UDF after it wrote, or in the
    /// caller's check of what it wrote — leaves the buffer as it was.
    #[test]
    fn a_failed_attempt_leaves_the_buffer_as_it_was() {
        let p = ClosureProcessor::new(
            "half",
            vec![Column::new("y", DataType::Int)],
            1.0,
            |row, _, out| {
                out.push(Value::Int(7));
                match row.get(0).as_int()? {
                    0 => Err(EngineError::Transient("after writing".into())),
                    _ => Ok(()),
                }
            },
        );
        let s = schema();
        let mut out = vec![Value::Int(-1)];
        let (zero, one) = ([Value::Int(0)], [Value::Int(1)]);
        let (zero, one) = (RowRef::from(&zero[..]), RowRef::from(&one[..]));
        assert!(attempt(&p, zero, &s, &mut out, |_| Ok(())).is_err());
        assert_eq!(out.len(), 1);
        let rejected = attempt(&p, one, &s, &mut out, |fresh| {
            assert_eq!(fresh.len(), 1);
            Err::<(), _>(EngineError::Udf("caller says no".into()))
        });
        assert!(rejected.is_err());
        assert_eq!(out.len(), 1);
        let fresh = attempt(&p, one, &s, &mut out, |fresh| Ok(fresh.len()));
        assert_eq!((fresh.unwrap(), out.len()), (1, 2));
    }

    #[test]
    fn closure_filter_passes() {
        let f = ClosureFilter::new("even", 0.01, |row, _| Ok(row.get(0).as_int()? % 2 == 0));
        let s = schema();
        assert!(f.passes(&Row::new(vec![Value::Int(4)]), &s).unwrap());
        assert!(!f.passes(&Row::new(vec![Value::Int(3)]), &s).unwrap());
    }

    /// The default `eval_batch` is `passes` in row order, however the
    /// input is cut into batches — errors included, each at its own row.
    #[test]
    fn default_eval_batch_equals_per_row_passes_over_ragged_batches() {
        use crate::chunk::Chunk;
        use crate::row::Rowset;
        let f = ClosureFilter::new("odd-or-bust", 0.01, |row, _| match row.get(0).as_int()? {
            n if n % 7 == 3 => Err(EngineError::Transient(format!("row {n}"))),
            n => Ok(n % 2 == 1),
        });
        let s = schema();
        let rows: Vec<Row> = (0..100).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let per_row: Vec<String> = rows
            .iter()
            .map(|row| format!("{:?}", f.passes(row, &s)))
            .collect();
        let chunk = Chunk::from_rows(Arc::new(Rowset::new(s, rows).unwrap()));
        for size in [1, 3, 7, 64, 100, 256] {
            let mut batched = Vec::new();
            for start in (0..chunk.len()).step_by(size) {
                let rows = start..(start + size).min(chunk.len());
                let out = f.eval_batch(&Batch::new(&chunk, rows.clone(), start));
                assert_eq!(out.len(), rows.len(), "batch size {size}");
                batched.extend(out.iter().map(|r| format!("{r:?}")));
            }
            assert_eq!(batched, per_row, "batch size {size}");
        }
    }

    #[test]
    fn closure_reducer_reduces() {
        let r = ClosureReducer::new(
            "count",
            vec!["x".to_string()],
            vec![
                Column::new("x", DataType::Int),
                Column::new("n", DataType::Int),
            ],
            0.2,
            |group, _schema| {
                Ok(vec![Row::new(vec![
                    group[0].get(0).clone(),
                    Value::Int(group.len() as i64),
                ])])
            },
        );
        let s = schema();
        let group = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(1)])];
        let out = r.reduce(&group, &s).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].get(1).sql_eq(&Value::Int(2)));
    }
}
