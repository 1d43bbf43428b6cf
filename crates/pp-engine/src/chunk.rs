//! What a scan hands over: a decoded row group, column by column.
//!
//! A [`Chunk`] is the rows of one row group in the layout their source
//! already has. A registered [`Rowset`] is a chunk over its own rows (a
//! range of them, shared, never copied); a decoded segment group is one
//! vector of cells per scalar column and one contiguous
//! [`FeatureBlock`] per blob column. Operators read a chunk through
//! [`Batch`](crate::batch::Batch) views and turn a row into a [`Row`]
//! only when something needs the tuple — a scalar UDF, a retry, a row
//! that survived its filter.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use pp_linalg::{FeatureBlock, Features};

use crate::row::{Row, Rowset};
use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// One decoded column of a [`Chunk`].
#[derive(Debug, Clone)]
pub enum ChunkColumn {
    /// One cell per row.
    Cells(Vec<Value>),
    /// A blob column whose every cell is dense with one dimension: row
    /// `i` of the block is row `i`'s vector.
    Block(FeatureBlock),
}

impl ChunkColumn {
    fn len(&self) -> usize {
        match self {
            ChunkColumn::Cells(cells) => cells.len(),
            ChunkColumn::Block(block) => block.len(),
        }
    }

    fn cell(&self, row: usize) -> Value {
        match self {
            ChunkColumn::Cells(cells) => cells[row].clone(),
            ChunkColumn::Block(block) => Value::blob(Features::Dense(block.row(row).to_vec())),
        }
    }
}

/// Contiguous copies of a table's blob columns, one slot per column, each
/// gathered from the rows the first time a kernel reads the column and
/// kept for as long as the table is: `None` records a column that is not
/// uniformly dense.
pub(crate) type AttachedBlocks = [OnceLock<Option<FeatureBlock>>];

pub(crate) fn attached_blocks(columns: usize) -> Arc<AttachedBlocks> {
    (0..columns).map(|_| OnceLock::new()).collect()
}

#[derive(Debug)]
enum Data {
    /// Rows that already exist: `table.rows()[start..start + len]`.
    Rows {
        table: Arc<Rowset>,
        start: usize,
        blocks: Option<Arc<AttachedBlocks>>,
    },
    /// Decoded columns, one per schema column; the tuples are built on
    /// first demand.
    Columns {
        columns: Vec<ChunkColumn>,
        rows: OnceLock<Vec<Row>>,
    },
}

/// A run of rows in the layout of their source; see the [module
/// docs](self).
#[derive(Debug)]
pub struct Chunk {
    schema: Arc<Schema>,
    len: usize,
    data: Data,
}

impl Chunk {
    /// A chunk over every row of `table`.
    pub fn from_rows(table: Arc<Rowset>) -> Chunk {
        let rows = 0..table.len();
        Chunk::from_table_range(table, rows, None)
    }

    /// Rows `rows` of `table`; `blocks`, when given, are the table's own
    /// (one slot per column, indexed by table row).
    pub(crate) fn from_table_range(
        table: Arc<Rowset>,
        rows: Range<usize>,
        blocks: Option<Arc<AttachedBlocks>>,
    ) -> Chunk {
        Chunk {
            schema: table.schema().clone(),
            len: rows.len(),
            data: Data::Rows {
                table,
                start: rows.start,
                blocks,
            },
        }
    }

    /// A chunk of decoded columns, one per column of `schema`, all of one
    /// length.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<ChunkColumn>) -> Result<Chunk> {
        if columns.len() != schema.len() {
            return Err(EngineError::InvalidPlan(format!(
                "chunk arity {} does not match schema arity {}",
                columns.len(),
                schema.len()
            )));
        }
        let len = columns.first().map_or(0, ChunkColumn::len);
        if columns.iter().any(|c| c.len() != len) {
            return Err(EngineError::InvalidPlan(
                "chunk columns differ in length".to_string(),
            ));
        }
        Ok(Chunk {
            schema,
            len,
            data: Data::Columns {
                columns,
                rows: OnceLock::new(),
            },
        })
    }

    /// The schema every row conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows as tuples. A chunk of decoded columns builds all of them
    /// on the first call and keeps them.
    pub fn rows(&self) -> &[Row] {
        match &self.data {
            Data::Rows { table, start, .. } => &table.rows()[*start..*start + self.len],
            Data::Columns { columns, rows } => {
                rows.get_or_init(|| (0..self.len).map(|i| build_row(columns, i)).collect())
            }
        }
    }

    /// Row `i` as a tuple: the row itself where it exists (a
    /// reference-count bump), built from the columns otherwise.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn row(&self, i: usize) -> Row {
        match &self.data {
            Data::Columns { columns, rows } if rows.get().is_none() => {
                assert!(i < self.len, "row {i} out of a {}-row chunk", self.len);
                build_row(columns, i)
            }
            _ => self.rows()[i].clone(),
        }
    }

    /// Consumes the chunk, yielding every row as a tuple.
    pub fn into_rows(self) -> Vec<Row> {
        match self.data {
            Data::Columns { columns, rows } => rows
                .into_inner()
                .unwrap_or_else(|| (0..self.len).map(|i| build_row(&columns, i)).collect()),
            Data::Rows { .. } => self.rows().to_vec(),
        }
    }

    /// Column `col` of rows `rows` as one contiguous block, when the
    /// chunk has it that way: a decoded block column, or a registered
    /// table's attached block (gathered here on first use).
    pub(crate) fn block(&self, col: usize, rows: Range<usize>) -> Option<FeatureBlock> {
        match &self.data {
            Data::Columns { columns, .. } => match &columns[col] {
                ChunkColumn::Block(block) => Some(block.slice(rows)),
                ChunkColumn::Cells(_) => None,
            },
            Data::Rows {
                table,
                start,
                blocks,
            } => blocks.as_ref()?[col]
                .get_or_init(|| gather_dense(table.rows(), col))
                .as_ref()
                .map(|block| block.slice(start + rows.start..start + rows.end)),
        }
    }

    /// The cells of column `col` over rows `rows`, in row order.
    pub(crate) fn cells(&self, col: usize, rows: Range<usize>) -> Cells<'_> {
        match &self.data {
            Data::Columns { columns, .. } => match &columns[col] {
                ChunkColumn::Cells(cells) => Cells::Column(cells[rows].iter()),
                // A block column has no cells to borrow; its tuples do.
                ChunkColumn::Block(_) => Cells::Rows(self.rows()[rows].iter(), col),
            },
            Data::Rows { .. } => Cells::Rows(self.rows()[rows].iter(), col),
        }
    }
}

fn build_row(columns: &[ChunkColumn], i: usize) -> Row {
    columns.iter().map(|c| c.cell(i)).collect()
}

/// Copies column `col` into one block, if every cell is a dense blob of
/// one non-zero dimension.
fn gather_dense(rows: &[Row], col: usize) -> Option<FeatureBlock> {
    fn dense(row: &Row, col: usize) -> Option<&[f64]> {
        match row.get(col) {
            Value::Blob(f) => f.as_dense(),
            _ => None,
        }
    }
    let dim = dense(rows.first()?, col)?.len();
    if dim == 0 {
        return None;
    }
    let mut block = FeatureBlock::with_capacity(dim, rows.len());
    for row in rows {
        block.push_dense(dense(row, col)?).ok()?;
    }
    Some(block)
}

/// Iterator over one column's cells; see [`Chunk::cells`].
pub(crate) enum Cells<'a> {
    Rows(std::slice::Iter<'a, Row>, usize),
    Column(std::slice::Iter<'a, Value>),
}

impl<'a> Iterator for Cells<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match self {
            Cells::Rows(rows, col) => rows.next().map(|row| row.get(*col)),
            Cells::Column(cells) => cells.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("blob", DataType::Blob),
        ])
        .unwrap()
    }

    fn table(n: usize) -> Arc<Rowset> {
        let rows = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::blob(Features::Dense(vec![i as f64, -(i as f64)])),
                ])
            })
            .collect();
        Arc::new(Rowset::new(schema(), rows).unwrap())
    }

    fn decoded(n: usize) -> Chunk {
        let flat = (0..n).flat_map(|i| [i as f64, -(i as f64)]).collect();
        Chunk::from_columns(
            schema(),
            vec![
                ChunkColumn::Cells((0..n).map(|i| Value::Int(i as i64)).collect()),
                ChunkColumn::Block(FeatureBlock::from_vec(2, flat).unwrap()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn a_table_chunk_hands_out_the_tables_own_rows() {
        let t = table(5);
        let chunk = Chunk::from_table_range(Arc::clone(&t), 1..4, None);
        assert_eq!(chunk.len(), 3);
        let blob = |r: &Row| Arc::as_ptr(r.get(1).as_blob().unwrap());
        assert_eq!(blob(&chunk.row(0)), blob(&t.rows()[1]));
        assert_eq!(blob(&chunk.rows()[2]), blob(&t.rows()[3]));
        assert!(chunk.block(1, 0..3).is_none(), "nothing attached");
        assert_eq!(chunk.into_rows().len(), 3);
    }

    #[test]
    fn an_attached_block_is_gathered_once_and_windowed_by_table_row() {
        let t = table(6);
        let blocks = attached_blocks(2);
        let chunk = Chunk::from_table_range(Arc::clone(&t), 2..6, Some(Arc::clone(&blocks)));
        let block = chunk.block(1, 1..3).expect("uniformly dense");
        assert_eq!(block.as_slice(), &[3.0, -3.0, 4.0, -4.0]);
        // A second chunk of the same table reads the same buffer.
        let other = Chunk::from_table_range(t, 0..6, Some(blocks));
        let again = other.block(1, 3..4).expect("cached");
        assert_eq!(again.row(0).as_ptr(), block.row(0).as_ptr());
        // A column that is not blobs records that, once.
        assert!(other.block(0, 0..6).is_none());
    }

    #[test]
    fn decoded_columns_build_rows_on_demand() {
        let chunk = decoded(4);
        let one = chunk.row(2);
        assert_eq!(one.get(0).as_int().unwrap(), 2);
        assert_eq!(
            one.get(1).as_blob().unwrap().as_dense().unwrap(),
            &[2.0, -2.0]
        );
        let block = chunk.block(1, 1..4).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.row(0), &[1.0, -1.0]);
        // Once built, the tuples are the chunk's: `row` hands those out.
        let built = Arc::as_ptr(chunk.rows()[2].get(1).as_blob().unwrap());
        assert_eq!(Arc::as_ptr(chunk.row(2).get(1).as_blob().unwrap()), built);
        assert_eq!(chunk.cells(0, 1..3).count(), 2);
        assert_eq!(chunk.into_rows().len(), 4);
    }

    #[test]
    fn mismatched_columns_are_rejected() {
        let cells = |n: i64| ChunkColumn::Cells((0..n).map(Value::Int).collect());
        assert!(Chunk::from_columns(schema(), vec![cells(2)]).is_err());
        assert!(Chunk::from_columns(schema(), vec![cells(2), cells(3)]).is_err());
        assert!(Chunk::from_columns(schema(), vec![cells(0), cells(0)])
            .unwrap()
            .is_empty());
    }
}
