//! Rows and rowsets.

use std::sync::{Arc, OnceLock};

use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// One tuple. Cloning is a reference-count bump: the cell storage is
/// shared (`Arc`-backed), so a table scan can hand out per-query row
/// copies without re-allocating every tuple. Rows are immutable after
/// construction; a row with cells appended to it (a `Process` output) is
/// a [`RowRef`] until something asks for the tuple.
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

/// A borrowed tuple: its cells in order, wherever they are kept — a whole
/// [`Row`], or a row's own cells followed by the cells processors appended
/// to it (a row of a `Process` output, see [`Rowset`]). It is what a
/// [`Processor`](crate::udf::Processor) and a bound predicate read, so
/// neither needs the tuple built. Copying one copies two slice references.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    head: &'a [Value],
    tail: &'a [Value],
}

impl<'a> RowRef<'a> {
    /// Cell by position.
    ///
    /// # Panics
    /// If `idx` is not below [`len`](Self::len), as [`Row::get`] does.
    pub fn get(&self, idx: usize) -> &'a Value {
        match self.head.get(idx) {
            Some(cell) => cell,
            None => &self.tail[idx - self.head.len()],
        }
    }

    /// Cell by column name, resolved against a schema.
    pub fn get_named(&self, schema: &Schema, name: &str) -> Result<&'a Value> {
        Ok(self.get(schema.index_of(name)?))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// True for a zero-cell row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + Clone {
        self.head.iter().chain(self.tail)
    }

    /// The tuple, built: one allocation at its final width, each cell a
    /// clone (a blob stays the same `Arc`).
    pub fn to_row(&self) -> Row {
        self.iter().cloned().collect()
    }
}

impl<'a> From<&'a Row> for RowRef<'a> {
    fn from(row: &'a Row) -> Self {
        RowRef::from(row.values())
    }
}

impl<'a> From<&'a [Value]> for RowRef<'a> {
    fn from(cells: &'a [Value]) -> Self {
        RowRef {
            head: cells,
            tail: &[],
        }
    }
}

/// A materialized table: a schema plus rows.
///
/// The rows are kept one of two ways, and every accessor answers the same
/// for both. *Built*: one [`Row`] per row. *Deferred*: what a `Process`
/// (and a `Select` above one) hands over — each row is a row of a built
/// `base` rowset followed by `width` appended cells from one shared
/// buffer, so a UDF's output is never copied into a tuple of its own on
/// the way through the plan. [`row_ref`](Self::row_ref) reads a row where
/// it is; [`rows`](Self::rows) builds the tuples, once, on first demand.
#[derive(Clone)]
pub struct Rowset {
    schema: Arc<Schema>,
    tuples: Tuples,
}

#[derive(Clone)]
enum Tuples {
    Built(Vec<Row>),
    Deferred(Deferred),
}

#[derive(Clone)]
struct Deferred {
    /// The rows the output rows start with.
    base: Arc<Rowset>,
    /// Appended cells per row.
    width: usize,
    /// `width` cells per appended row, row after row.
    cells: Arc<Vec<Value>>,
    /// Per row: its base row, and its appended row in `cells`.
    rows: Vec<(usize, usize)>,
    /// The tuples, once asked for.
    built: OnceLock<Vec<Row>>,
}

impl Deferred {
    /// Base row `from[j]` and the `j`th run of `width` cells, per row `j`.
    fn new(base: Arc<Rowset>, width: usize, cells: Vec<Value>, from: Vec<usize>) -> Self {
        Deferred {
            base,
            width,
            cells: Arc::new(cells),
            rows: from.into_iter().enumerate().map(|(j, b)| (b, j)).collect(),
            built: OnceLock::new(),
        }
    }

    /// Row `from[j]` of these, followed by the `j`th run of `width` cells
    /// of `cells`, per row `j`: rows of the same base, wider.
    fn extend(&self, width: usize, cells: Vec<Value>, from: &[usize]) -> Deferred {
        let earlier = self.width;
        let mut out = Vec::with_capacity(from.len() * (earlier + width));
        let mut cells = cells.into_iter();
        let rows = (from.iter().enumerate())
            .map(|(j, &i)| {
                let (base, at) = self.rows[i];
                out.extend_from_slice(&self.cells[at * earlier..(at + 1) * earlier]);
                out.extend(cells.by_ref().take(width));
                (base, j)
            })
            .collect();
        Deferred {
            base: Arc::clone(&self.base),
            width: earlier + width,
            cells: Arc::new(out),
            rows,
            built: OnceLock::new(),
        }
    }

    fn row_ref(&self, i: usize) -> RowRef<'_> {
        let (base, at) = self.rows[i];
        RowRef {
            head: self.base.rows()[base].values(),
            tail: &self.cells[at * self.width..(at + 1) * self.width],
        }
    }

    /// Every row's tuple: one allocation each, and one for the vector.
    fn build(&self) -> Vec<Row> {
        (0..self.rows.len())
            .map(|i| self.row_ref(i).to_row())
            .collect()
    }

    /// The tuples, built already or now, taken out.
    fn take_rows(&mut self) -> Vec<Row> {
        self.built.take().unwrap_or_else(|| self.build())
    }
}

impl std::fmt::Debug for Rowset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rowset")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

impl Rowset {
    /// Creates a rowset, validating row arity against the schema.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self> {
        for r in &rows {
            check_arity(&schema, r.len())?;
        }
        Ok(Rowset {
            schema,
            tuples: Tuples::Built(rows),
        })
    }

    /// An empty rowset with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Rowset {
            schema,
            tuples: Tuples::Built(Vec::new()),
        }
    }

    /// Rows of `input` with cells appended: row `j` is input row `from[j]`
    /// followed by the `j`th run of `schema.len() - input.schema().len()`
    /// cells of `cells`. A deferred input is not nested: each row keeps
    /// its base row, and the cells appended to its input row go in front
    /// of the new ones.
    pub(crate) fn extend(
        input: Arc<Rowset>,
        schema: Arc<Schema>,
        cells: Vec<Value>,
        from: Vec<usize>,
    ) -> Self {
        let width = schema.len() - input.schema.len();
        debug_assert_eq!(cells.len(), from.len() * width);
        let deferred = match &input.tuples {
            Tuples::Deferred(d) => d.extend(width, cells, &from),
            Tuples::Built(_) => Deferred::new(input, width, cells, from),
        };
        Rowset {
            schema,
            tuples: Tuples::Deferred(deferred),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows as tuples. A deferred rowset builds them on the first
    /// call — one allocation per row — and keeps them.
    pub fn rows(&self) -> &[Row] {
        match &self.tuples {
            Tuples::Built(rows) => rows,
            Tuples::Deferred(d) => d.built.get_or_init(|| d.build()),
        }
    }

    /// Row `i`, read where it is kept; nothing is built.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row_ref(&self, i: usize) -> RowRef<'_> {
        match &self.tuples {
            Tuples::Built(rows) => RowRef::from(&rows[i]),
            Tuples::Deferred(d) => d.row_ref(i),
        }
    }

    /// Every row, read where it is kept, in order.
    pub fn row_refs(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> {
        (0..self.len()).map(|i| self.row_ref(i))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.tuples {
            Tuples::Built(rows) => rows.len(),
            Tuples::Deferred(d) => d.rows.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row (arity-checked).
    pub fn push(&mut self, row: Row) -> Result<()> {
        check_arity(&self.schema, row.len())?;
        match &mut self.tuples {
            Tuples::Built(rows) => rows.push(row),
            Tuples::Deferred(d) => {
                let mut rows = d.take_rows();
                rows.push(row);
                self.tuples = Tuples::Built(rows);
            }
        }
        Ok(())
    }

    /// Consumes the rowset, yielding rows.
    pub fn into_rows(self) -> Vec<Row> {
        match self.tuples {
            Tuples::Built(rows) => rows,
            Tuples::Deferred(mut d) => d.take_rows(),
        }
    }

    /// The rows `keep` names, in that order, kept the way these are: a
    /// built row is shared, a deferred one keeps pointing at its base row
    /// and appended cells.
    pub(crate) fn pick(&self, keep: &[usize]) -> Rowset {
        let tuples = match &self.tuples {
            Tuples::Built(rows) => Tuples::Built(keep.iter().map(|&i| rows[i].clone()).collect()),
            Tuples::Deferred(d) => Tuples::Deferred(Deferred {
                base: Arc::clone(&d.base),
                width: d.width,
                cells: Arc::clone(&d.cells),
                rows: keep.iter().map(|&i| d.rows[i]).collect(),
                built: OnceLock::new(),
            }),
        };
        Rowset {
            schema: self.schema.clone(),
            tuples,
        }
    }
}

fn check_arity(schema: &Schema, arity: usize) -> Result<()> {
    if arity != schema.len() {
        return Err(EngineError::InvalidPlan(format!(
            "row arity {arity} does not match schema arity {}",
            schema.len()
        )));
    }
    Ok(())
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
        let view = RowRef::from(&r);
        assert!(view
            .get_named(&s, "name")
            .unwrap()
            .sql_eq(&Value::str("suv")));
        assert!(view.get_named(&s, "missing").is_err());
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

    fn same_cells<'a>(got: impl Iterator<Item = &'a Value>, want: &[Value]) -> bool {
        let got: Vec<&Value> = got.collect();
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| same(a, b))
    }

    /// `columns` integer columns.
    fn wide(columns: usize) -> Arc<Schema> {
        let columns = (0..columns).map(|i| Column::new(format!("c{i}"), DataType::Int));
        Schema::new(columns.collect()).unwrap()
    }

    /// Whether `rows` holds exactly `want`, read in place, built, and
    /// consumed.
    fn holds(rows: &Rowset, want: &[Vec<Value>]) -> bool {
        let consumed = rows.clone().into_rows();
        rows.len() == want.len()
            && (0..want.len()).all(|i| {
                same_cells(rows.row_ref(i).iter(), &want[i])
                    && same_cells(rows.rows()[i].values().iter(), &want[i])
                    && same_cells(consumed[i].values().iter(), &want[i])
            })
    }

    #[test]
    fn an_extended_row_is_its_base_row_then_its_cells() {
        let base = Rowset::new(
            wide(1),
            vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
        )
        .unwrap();
        // Row 0 once, row 1 twice (a fan-out).
        let abc = ["a", "b", "c"].map(Value::str).to_vec();
        let once = Rowset::extend(Arc::new(base), wide(2), abc, vec![0, 1, 1]);
        let view = once.row_ref(1);
        assert_eq!(view.len(), 2);
        assert_eq!(
            format!("{:?}", view.iter().collect::<Vec<_>>()),
            "[Int(2), Str(\"b\")]"
        );
        // Picking by index keeps the rows where they are; extending again
        // puts the new cells behind the old ones, on the same base rows.
        let picked = once.pick(&[0, 2]);
        let xyz = ["x", "y", "z"].map(Value::str).to_vec();
        let twice = Rowset::extend(Arc::new(picked), wide(3), xyz, vec![0, 0, 1]);
        let cells = |v: &[(i64, &str, &str)]| -> Vec<Vec<Value>> {
            v.iter()
                .map(|&(b, p, q)| vec![Value::Int(b), Value::str(p), Value::str(q)])
                .collect()
        };
        let want = cells(&[(1, "a", "x"), (1, "a", "y"), (2, "c", "z")]);
        assert_eq!(
            format!("{:?}", twice.rows()),
            format!("{:?}", want.into_iter().map(Row::new).collect::<Vec<_>>())
        );
        // A push builds the tuples first.
        let mut pushed = twice.clone();
        pushed
            .push(Row::new(vec![
                Value::Int(9),
                Value::str("p"),
                Value::str("q"),
            ]))
            .unwrap();
        assert_eq!(pushed.len(), 4);
        assert_eq!(
            format!("{:?}", &pushed.rows()[..3]),
            format!("{:?}", twice.rows())
        );
    }

    proptest::proptest! {
        /// Rows built up the way a plan builds them — a table, then layers
        /// of appended cells, each input row making 0, 1 or 2 output rows,
        /// with picks by index in between — are the same read in place,
        /// built and consumed: `Row::new` of the base row's cells followed
        /// by every layer's, cell for cell, a blob the same `Arc`, for any
        /// arity and width (none included). An input something else still
        /// holds — the `Arc`, or a clone sharing its cells — reads the same
        /// afterwards.
        #[test]
        fn an_extended_row_is_new_of_the_concatenation(
            base in proptest::collection::vec(
                proptest::collection::vec((0u8..7, -1_000i64..1_000), 3..4), 1..6),
            arity in 0usize..4,
            layers in proptest::collection::vec((
                0usize..3,
                proptest::collection::vec((0usize..3, 0u8..7, -1_000i64..1_000, 0u8..2), 1..12),
                0u8..3,
            ), 1..4),
        ) {
            let mut want: Vec<Vec<Value>> = base
                .iter()
                .map(|cells| cells[..arity].iter().map(|&(k, n)| cell(k, n)).collect())
                .collect();
            let rows = want.iter().map(|cells| Row::new(cells.clone())).collect();
            let mut cur = Rowset::new(wide(arity), rows).unwrap();
            let mut columns = arity;
            for (width, specs, share) in layers {
                let spec = |i: usize| specs[i % specs.len()];
                let (mut from, mut cells) = (Vec::new(), Vec::new());
                for i in 0..cur.len() {
                    let (count, kind, n, _) = spec(i);
                    for c in 0..count {
                        from.push(i);
                        cells.extend((0..width).map(|w| cell(kind + w as u8, n + c as i64)));
                    }
                }
                want = from
                    .iter()
                    .enumerate()
                    .map(|(j, &i)| want[i].iter().chain(&cells[j * width..(j + 1) * width]).cloned().collect())
                    .collect();
                let input = Arc::new(cur);
                let held = match share {
                    0 => None,
                    1 => Some(Arc::clone(&input)),
                    _ => Some(Arc::new(Rowset::clone(&input))),
                };
                let before: Option<Vec<Vec<Value>>> = held
                    .as_ref()
                    .map(|held| held.row_refs().map(|row| row.iter().cloned().collect()).collect());
                columns += width;
                cur = Rowset::extend(input, wide(columns), cells, from);
                proptest::prop_assert!(holds(&cur, &want), "extended by {}", width);
                if let (Some(held), Some(before)) = (held, before) {
                    proptest::prop_assert!(holds(&held, &before), "the held input changed");
                }
                let keep: Vec<usize> = (0..cur.len()).filter(|&i| spec(i).3 == 1).collect();
                cur = cur.pick(&keep);
                want = keep.iter().map(|&i| want[i].clone()).collect();
                proptest::prop_assert!(holds(&cur, &want), "picked");
            }
        }
    }
}
