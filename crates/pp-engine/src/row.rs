//! Rows and rowsets: the engine's one in-memory layout.
//!
//! A [`Rowset`] is what a provider hands a scan for one row group, what a
//! scan hands the operator above it, and what every operator hands the
//! next. Its rows are kept in three parts, and no operator copies a row
//! into a tuple of its own on the way through a plan:
//!
//! * **Base columns**, in row groups that every rowset over them shares. A
//!   table made of tuples is one group, built from them when it is made
//!   and keeping none of them; a decoded segment group is one, and a
//!   scan gathers what it keeps of a decoded wave into one. A column holds
//!   the form it was built in and builds the other once, on first demand:
//!   cells ([`Value`]s, a blob cell the same `Arc` wherever it is read)
//!   gather one contiguous [`FeatureBlock`] the first time a kernel reads
//!   the column, and a decoded block of dense blobs builds its cells the
//!   first time something reads one.
//! * A **row map**: per row, its group and row in that group, and its run
//!   of appended cells. A filter, `Select` and a scan keep rows by index.
//! * **Appended cells**: `width` cells per row, in one shared buffer — what
//!   `Process` writes. (`Project` writes a group of its own.)
//!
//! A row has this one form inside the engine: every operator and every UDF
//! reads it where it is kept, as a [`RowRef`] ([`Rowset::row_ref`]).
//! [`Rowset::rows`] builds tuples for callers outside the engine, afresh
//! on every call.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use pp_linalg::{FeatureBlock, Features};

use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// One tuple. Cloning is a reference-count bump: the cell storage is
/// shared (`Arc`-backed). Rows are immutable after construction. A tuple
/// is what a caller hands [`Rowset::new`] and what [`Rowset::rows`] hands
/// back; the engine reads a row of a [`Rowset`] as a [`RowRef`].
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
/// [`Row`], or a row of a [`Rowset`]: its base cells in their columns,
/// then the cells processors appended to it. It is what every UDF (see
/// [`crate::udf`]), every predicate and every operator reads, so none of
/// them needs the tuple built. Copying one copies three words.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    base: &'a [BaseColumn],
    row: usize,
    tail: &'a [Value],
}

impl<'a> RowRef<'a> {
    /// Cell by position.
    ///
    /// # Panics
    /// If `idx` is not below [`len`](Self::len), as [`Row::get`] does.
    pub fn get(&self, idx: usize) -> &'a Value {
        match self.base.get(idx) {
            Some(column) => &column.cells()[self.row],
            None => &self.tail[idx - self.base.len()],
        }
    }

    /// Cell by column name, resolved against a schema.
    pub fn get_named(&self, schema: &Schema, name: &str) -> Result<&'a Value> {
        Ok(self.get(schema.index_of(name)?))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// True for a zero-cell row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + Clone {
        let row = self.row;
        (self.base.iter())
            .map(move |column| &column.cells()[row])
            .chain(self.tail)
    }

    /// The tuple, built: one allocation at its final width, each cell a
    /// clone (a blob stays the same `Arc`).
    pub fn to_row(&self) -> Row {
        self.iter().cloned().collect()
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
            base: &[],
            row: 0,
            tail: cells,
        }
    }
}

/// One column of a row group, as its source has it; see
/// [`Rowset::from_columns`].
#[derive(Debug, Clone)]
pub enum GroupColumn {
    /// One cell per row.
    Cells(Vec<Value>),
    /// A blob column whose every cell is dense with one dimension: row
    /// `i` of the block is row `i`'s vector.
    Block(FeatureBlock),
}

impl GroupColumn {
    fn len(&self) -> usize {
        match self {
            GroupColumn::Cells(cells) => cells.len(),
            GroupColumn::Block(block) => block.len(),
        }
    }
}

/// A base column: the form it was built in, and the other form, built
/// once when first asked for.
#[derive(Debug)]
pub(crate) enum BaseColumn {
    /// Cells, and the column as one block once a kernel asks for it:
    /// `None` when the cells are not dense blobs of one dimension.
    Cells {
        cells: Vec<Value>,
        block: OnceLock<Option<FeatureBlock>>,
    },
    /// A block of dense blobs, and its cells once something reads one.
    Block {
        block: FeatureBlock,
        cells: OnceLock<Vec<Value>>,
    },
}

impl From<GroupColumn> for BaseColumn {
    fn from(column: GroupColumn) -> Self {
        match column {
            GroupColumn::Cells(cells) => BaseColumn::Cells {
                cells,
                block: OnceLock::new(),
            },
            GroupColumn::Block(block) => BaseColumn::Block {
                block,
                cells: OnceLock::new(),
            },
        }
    }
}

impl BaseColumn {
    fn cells(&self) -> &[Value] {
        match self {
            BaseColumn::Cells { cells, .. } => cells,
            BaseColumn::Block { block, cells } => {
                cells.get_or_init(|| block.rows().map(dense_blob).collect())
            }
        }
    }

    fn block(&self) -> Option<&FeatureBlock> {
        match self {
            BaseColumn::Cells { cells, block } => {
                block.get_or_init(|| gather_dense(cells)).as_ref()
            }
            BaseColumn::Block { block, .. } => Some(block),
        }
    }
}

fn dense_blob(coords: &[f64]) -> Value {
    Value::blob(Features::Dense(coords.to_vec()))
}

/// Copies `cells` into one block, if every one is a dense blob of one
/// non-zero dimension.
fn gather_dense(cells: &[Value]) -> Option<FeatureBlock> {
    fn dense(cell: &Value) -> Option<&[f64]> {
        match cell {
            Value::Blob(f) => f.as_dense(),
            _ => None,
        }
    }
    let dim = dense(cells.first()?)?.len();
    if dim == 0 {
        return None;
    }
    let mut block = FeatureBlock::with_capacity(dim, cells.len());
    for cell in cells {
        block.push_dense(dense(cell)?).ok()?;
    }
    Some(block)
}

/// The base columns of one row group, all of one length.
pub(crate) type Group = Vec<BaseColumn>;

/// Where a row of a [`Rowset`] is kept: its base row, `row` of group
/// `group`, and run `at` of the appended cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub group: usize,
    pub row: usize,
    pub at: usize,
}

#[derive(Debug, Clone)]
enum RowMap {
    /// Row `i` is row `start + i` of group 0, appended run `start + i`.
    Range(Range<usize>),
    /// One slot per row.
    Slots(Vec<Slot>),
}

impl RowMap {
    fn len(&self) -> usize {
        match self {
            RowMap::Range(rows) => rows.len(),
            RowMap::Slots(slots) => slots.len(),
        }
    }

    fn slot(&self, i: usize) -> Slot {
        match self {
            RowMap::Range(rows) => {
                assert!(i < rows.len(), "row {i} out of {} rows", rows.len());
                let row = rows.start + i;
                Slot {
                    group: 0,
                    row,
                    at: row,
                }
            }
            RowMap::Slots(slots) => slots[i],
        }
    }
}

/// A materialized table: a schema plus rows, laid out as the [module
/// docs](self) describe. Every accessor answers the same whatever way a
/// row is kept.
#[derive(Clone)]
pub struct Rowset {
    schema: Arc<Schema>,
    /// The groups base rows come from; none when every row is its
    /// appended cells alone.
    groups: Arc<[Group]>,
    map: RowMap,
    /// Appended cells per row: the schema's last `width` columns.
    width: usize,
    /// `width` cells per appended run, run after run.
    cells: Arc<Vec<Value>>,
}

impl std::fmt::Debug for Rowset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rowset")
            .field("schema", &self.schema)
            .field("rows", &self.row_refs().collect::<Vec<_>>())
            .finish()
    }
}

impl Rowset {
    /// Creates a rowset, validating row arity against the schema: one
    /// group, a column of the rows' cells each (a blob the same `Arc`).
    /// No tuple is kept.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self> {
        for r in &rows {
            check_arity(&schema, r.len())?;
        }
        let column = |c| GroupColumn::Cells(rows.iter().map(|r| r.get(c).clone()).collect());
        let group = (0..schema.len()).map(|c| column(c).into()).collect();
        Ok(Rowset::of_group(schema, group, rows.len()))
    }

    /// One row group, one column per column of `schema`, all of one
    /// length: a decoded block stays a block until a cell of it is read.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<GroupColumn>) -> Result<Rowset> {
        check_arity(&schema, columns.len())?;
        let len = columns.first().map_or(0, GroupColumn::len);
        if columns.iter().any(|c| c.len() != len) {
            return Err(EngineError::InvalidPlan(
                "group columns differ in length".to_string(),
            ));
        }
        let columns = columns.into_iter().map(BaseColumn::from).collect();
        Ok(Rowset::of_group(schema, columns, len))
    }

    /// `len` rows of one group: `Project` writes its columns this way.
    pub(crate) fn of_group(schema: Arc<Schema>, group: Group, len: usize) -> Rowset {
        Rowset::of_groups(schema, vec![group], RowMap::Range(0..len))
    }

    fn of_groups(schema: Arc<Schema>, groups: Vec<Group>, map: RowMap) -> Rowset {
        Rowset {
            schema,
            groups: Arc::from(groups),
            map,
            width: 0,
            cells: Arc::default(),
        }
    }

    /// `rows` rows of appended cells alone, `schema.len()` a row, row
    /// after row in `cells`: what a group operator writes.
    pub(crate) fn of_cells(schema: Arc<Schema>, cells: Vec<Value>, rows: usize) -> Rowset {
        debug_assert_eq!(cells.len(), rows * schema.len());
        Rowset {
            width: schema.len(),
            cells: Arc::new(cells),
            ..Rowset::of_groups(schema, Vec::new(), RowMap::Range(0..rows))
        }
    }

    /// `groups`' rows at `slots`, nothing appended: what a scan gathered.
    pub(crate) fn from_groups(schema: Arc<Schema>, groups: Vec<Group>, slots: Vec<Slot>) -> Rowset {
        Rowset::of_groups(schema, groups, RowMap::Slots(slots))
    }

    /// Rows of `input` with cells appended: row `j` is input row `from[j]`
    /// followed by the `j`th run of `schema.len() - input.schema().len()`
    /// cells of `cells`. Each row keeps its base row, and the cells
    /// appended to its input row go in front of the new ones.
    pub(crate) fn extend(
        input: &Rowset,
        schema: Arc<Schema>,
        cells: Vec<Value>,
        from: Vec<usize>,
    ) -> Self {
        let width = schema.len() - input.schema.len();
        debug_assert_eq!(cells.len(), from.len() * width);
        let earlier = input.width;
        // Rows with no cells of their own yet take the new ones as they
        // are.
        let cells = if earlier == 0 {
            cells
        } else {
            let mut out = Vec::with_capacity(from.len() * (earlier + width));
            let mut cells = cells.into_iter();
            for &i in &from {
                out.extend_from_slice(input.tail(input.map.slot(i).at));
                out.extend(cells.by_ref().take(width));
            }
            out
        };
        let slots = (from.into_iter().enumerate())
            .map(|(at, i)| Slot {
                at,
                ..input.map.slot(i)
            })
            .collect();
        Rowset {
            schema,
            groups: Arc::clone(&input.groups),
            map: RowMap::Slots(slots),
            width: earlier + width,
            cells: Arc::new(cells),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows as tuples, for a caller outside the engine: built on every
    /// call, one allocation a row, each cell a clone (a blob the same
    /// `Arc`). Nothing is kept; to read rows, use
    /// [`row_refs`](Self::row_refs).
    pub fn rows(&self) -> Vec<Row> {
        self.row_refs().map(|row| row.to_row()).collect()
    }

    /// Row `i`, read where it is kept; nothing is built.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row_ref(&self, i: usize) -> RowRef<'_> {
        let slot = self.map.slot(i);
        RowRef {
            base: self.groups.get(slot.group).map_or(&[][..], Vec::as_slice),
            row: slot.row,
            tail: self.tail(slot.at),
        }
    }

    /// Every row, read where it is kept, in order.
    pub fn row_refs(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> {
        (0..self.len()).map(|i| self.row_ref(i))
    }

    fn tail(&self, at: usize) -> &[Value] {
        &self.cells[at * self.width..(at + 1) * self.width]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where row `i` is kept.
    pub(crate) fn slot(&self, i: usize) -> Slot {
        self.map.slot(i)
    }

    /// The rows at `slots` of the groups and cells this rowset keeps its
    /// rows in.
    pub(crate) fn with_slots(&self, slots: Vec<Slot>) -> Rowset {
        Rowset {
            schema: self.schema.clone(),
            groups: Arc::clone(&self.groups),
            map: RowMap::Slots(slots),
            width: self.width,
            cells: Arc::clone(&self.cells),
        }
    }

    /// Whether `other` keeps its rows in the groups and cells this
    /// rowset does, so that a slot of one is a slot of the other.
    pub(crate) fn shares_rows(&self, other: &Rowset) -> bool {
        Arc::ptr_eq(&self.groups, &other.groups)
            && Arc::ptr_eq(&self.cells, &other.cells)
            && self.width == other.width
    }

    /// The rows `keep` names, in that order, where this rowset keeps
    /// them: nothing is built and no cell is copied.
    ///
    /// # Panics
    /// If an index is out of range.
    pub fn pick(&self, keep: Vec<usize>) -> Rowset {
        self.with_slots(keep.into_iter().map(|i| self.slot(i)).collect())
    }

    /// Rows `rows`, in order, where this rowset keeps them.
    pub(crate) fn window(&self, rows: Range<usize>) -> Rowset {
        let mut out = self.with_slots(Vec::new());
        out.map = match &self.map {
            RowMap::Range(all) => RowMap::Range(all.start + rows.start..all.start + rows.end),
            RowMap::Slots(slots) => RowMap::Slots(slots[rows].to_vec()),
        };
        out
    }

    /// Column `col` of rows `rows` as one contiguous block, when the rows
    /// are one run of one group's rows and the column is a base column
    /// that is, or gathers into, a block: a window onto it, not a copy.
    pub(crate) fn block(&self, col: usize, rows: Range<usize>) -> Option<FeatureBlock> {
        if rows.is_empty() {
            return None;
        }
        let first = self.map.slot(rows.start);
        let run = match &self.map {
            RowMap::Range(_) => true,
            RowMap::Slots(slots) => (slots[rows.clone()].iter().zip(first.row..))
                .all(|(slot, row)| slot.group == first.group && slot.row == row),
        };
        let column = self.groups.get(first.group)?.get(col)?;
        let block = column.block().filter(|_| run)?;
        Some(block.slice(first.row..first.row + rows.len()))
    }

    /// Rows `kept` of `wave` — (rowset, row) pairs, in order — copied into
    /// one group of exactly their number. A column every kept row holds
    /// in a decoded block of one dimension goes into one block; any other
    /// keeps its cells (a blob the same `Arc`).
    pub(crate) fn gather(wave: &[Rowset], kept: &[(usize, usize)]) -> Group {
        let columns = wave.first().map_or(0, |rows| rows.schema.len());
        (0..columns)
            .map(|c| {
                let decoded = |&(rows, i): &(usize, usize)| wave[rows].decoded(c, i);
                let dim = kept.first().and_then(decoded).map_or(0, <[f64]>::len);
                let mut data = Vec::with_capacity(dim * kept.len());
                let blocked = dim > 0
                    && kept.iter().all(|k| {
                        decoded(k).is_some_and(|coords| {
                            data.extend_from_slice(coords);
                            coords.len() == dim
                        })
                    });
                match FeatureBlock::from_vec(dim, data) {
                    Ok(block) if blocked => GroupColumn::Block(block),
                    _ => GroupColumn::Cells(
                        (kept.iter())
                            .map(|&(rows, i)| wave[rows].row_ref(i).get(c).clone())
                            .collect(),
                    ),
                }
                .into()
            })
            .collect()
    }

    /// Base cell `col` of row `i`, if it sits in a decoded block.
    fn decoded(&self, col: usize, i: usize) -> Option<&[f64]> {
        let slot = self.map.slot(i);
        match self.groups.get(slot.group)?.get(col)? {
            BaseColumn::Block { block, .. } => Some(block.row(slot.row)),
            BaseColumn::Cells { .. } => None,
        }
    }
}

/// Fails unless a row of `arity` cells fits `schema`.
pub(crate) fn check_arity(schema: &Schema, arity: usize) -> Result<()> {
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
        let rs = Rowset::new(s, vec![Row::new(vec![Value::Int(1), Value::str("x")])]);
        assert_eq!(rs.unwrap().len(), 1);
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

    /// Whether `rows` holds exactly `want`, read in place and built.
    fn holds(rows: &Rowset, want: &[Vec<Value>]) -> bool {
        let built = rows.rows();
        rows.len() == want.len()
            && (0..want.len()).all(|i| {
                same_cells(rows.row_ref(i).iter(), &want[i])
                    && same_cells(built[i].values().iter(), &want[i])
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
        let once = Rowset::extend(&base, wide(2), abc, vec![0, 1, 1]);
        let view = once.row_ref(1);
        assert_eq!(view.len(), 2);
        assert_eq!(
            format!("{:?}", view.iter().collect::<Vec<_>>()),
            "[Int(2), Str(\"b\")]"
        );
        // Picking by index keeps the rows where they are; extending again
        // puts the new cells behind the old ones, on the same base rows.
        let picked = once.pick(vec![0, 2]);
        let xyz = ["x", "y", "z"].map(Value::str).to_vec();
        let twice = Rowset::extend(&picked, wide(3), xyz, vec![0, 0, 1]);
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
    }

    /// Rows picked out of a table read the table's cells where its
    /// columns keep them, and a table keeps none of the tuples it was
    /// made of.
    #[test]
    fn picked_rows_read_the_tables_own_cells() {
        let rows: Vec<Row> = (0..4)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
            .collect();
        let table = Rowset::new(schema(), rows.clone()).unwrap();
        assert!(rows.iter().all(|row| Arc::strong_count(&row.values) == 1));
        let picked = table.pick(vec![3, 1]);
        assert_eq!(picked.len(), 2);
        assert!(picked.row_ref(0).get(0).sql_eq(&Value::Int(3)));
        let cell = |rows: &Rowset, i: usize| rows.row_ref(i).get(1) as *const Value;
        assert_eq!(cell(&picked, 0), cell(&table, 3), "the table's own cell");
        assert_eq!(
            format!("{:?}", picked.rows()),
            format!("{:?}", [&rows[3], &rows[1]])
        );
        // A group of no columns still has its rows: a `Project` of none.
        let none = Rowset::of_group(wide(0), Vec::new(), 3);
        assert_eq!((none.len(), none.rows()[2].len()), (3, 0));
    }

    fn blobs() -> Arc<Schema> {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("blob", DataType::Blob),
        ])
        .unwrap()
    }

    fn blob_table(n: usize) -> Rowset {
        let rows = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::blob(Features::Dense(vec![i as f64, -(i as f64)])),
                ])
            })
            .collect();
        Rowset::new(blobs(), rows).unwrap()
    }

    fn decoded(n: usize) -> Rowset {
        let flat = (0..n).flat_map(|i| [i as f64, -(i as f64)]).collect();
        Rowset::from_columns(
            blobs(),
            vec![
                GroupColumn::Cells((0..n).map(|i| Value::Int(i as i64)).collect()),
                GroupColumn::Block(FeatureBlock::from_vec(2, flat).unwrap()),
            ],
        )
        .unwrap()
    }

    /// A window of a table reads the table's own cells, and a column of
    /// cells gathers its block once, for the whole group: every window
    /// over a run of the group's rows is a window onto that block, and a
    /// column that is not dense blobs records that, once.
    #[test]
    fn a_column_of_cells_gathers_its_block_once() {
        let t = blob_table(6);
        let window = t.window(2..6);
        assert_eq!(window.len(), 4);
        let blob = |rows: &Rowset, i: usize| Arc::as_ptr(rows.row_ref(i).get(1).as_blob().unwrap());
        assert_eq!(blob(&window, 0), blob(&t, 2));
        let block = window.block(1, 1..3).expect("uniformly dense");
        assert_eq!(block.as_slice(), &[3.0, -3.0, 4.0, -4.0]);
        let again = t.block(1, 3..4).expect("gathered");
        assert_eq!(again.row(0).as_ptr(), block.row(0).as_ptr());
        assert!(t.block(0, 0..6).is_none());
        // Rows out of order are no run of the group's rows.
        assert!(t.pick(vec![1, 0]).block(1, 0..2).is_none());
        assert!(t.pick(vec![1, 2]).block(1, 0..2).is_some());
    }

    /// A decoded block builds its cells, once, for whoever reads a cell:
    /// the tuples built from then on hold those cells.
    #[test]
    fn a_decoded_block_builds_its_cells_on_demand() {
        let set = decoded(4);
        let block = set.block(1, 1..4).unwrap();
        assert_eq!((block.len(), block.row(0)), (3, &[1.0, -1.0][..]));
        let cell = Arc::as_ptr(set.row_ref(2).get(1).as_blob().unwrap());
        assert_eq!(Arc::as_ptr(set.row_ref(2).get(1).as_blob().unwrap()), cell);
        assert_eq!(Arc::as_ptr(set.rows()[2].get(1).as_blob().unwrap()), cell);
    }

    /// What a scan keeps of a decoded wave is one group of exactly the
    /// kept rows: a column every kept row holds in a block stays a block,
    /// any other keeps its cells, a blob the same `Arc`.
    #[test]
    fn gathered_rows_keep_blocks_as_blocks_and_cells_as_cells() {
        let (table, set) = (blob_table(3), decoded(4));
        let wave = [set.clone(), set.window(1..4)];
        let group = Rowset::gather(&wave, &[(0, 3), (1, 0)]);
        assert!(matches!(&group[1], BaseColumn::Block { block, .. }
            if block.as_slice() == [3.0, -3.0, 1.0, -1.0]));
        let slots = (0..2)
            .map(|row| Slot {
                group: 0,
                row,
                at: 0,
            })
            .collect();
        let kept = Rowset::from_groups(blobs(), vec![group], slots);
        assert!(kept.row_ref(1).get(0).sql_eq(&Value::Int(1)));
        let mixed = Rowset::gather(&[table.clone(), set], &[(0, 2), (1, 1)]);
        assert!(matches!(&mixed[1], BaseColumn::Cells { .. }));
        assert!(Arc::ptr_eq(
            mixed[1].cells()[0].as_blob().unwrap(),
            table.row_ref(2).get(1).as_blob().unwrap()
        ));
    }

    #[test]
    fn mismatched_columns_are_rejected() {
        let cells = |n: i64| GroupColumn::Cells((0..n).map(Value::Int).collect());
        assert!(Rowset::from_columns(blobs(), vec![cells(2)]).is_err());
        assert!(Rowset::from_columns(blobs(), vec![cells(2), cells(3)]).is_err());
        assert!(Rowset::from_columns(blobs(), vec![cells(0), cells(0)])
            .unwrap()
            .is_empty());
    }

    proptest::proptest! {
        /// Rows built up the way a plan builds them — a table, then layers
        /// of appended cells, each input row making 0, 1 or 2 output rows,
        /// with picks by index in between — are the same read in place
        /// and built: `Row::new` of the base row's cells followed
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
                cur = Rowset::extend(&input, wide(columns), cells, from);
                proptest::prop_assert!(holds(&cur, &want), "extended by {}", width);
                if let (Some(held), Some(before)) = (held, before) {
                    proptest::prop_assert!(holds(&held, &before), "the held input changed");
                }
                let keep: Vec<usize> = (0..cur.len()).filter(|&i| spec(i).3 == 1).collect();
                cur = cur.pick(keep.clone());
                want = keep.iter().map(|&i| want[i].clone()).collect();
                proptest::prop_assert!(holds(&cur, &want), "picked");
            }
        }
    }
}
