//! The batch representation the executor probes UDFs with.
//!
//! A [`Batch`] is a view over a run of rows of one [`Chunk`]. A filter
//! sees it whole ([`RowFilter::eval_batch`](crate::udf::RowFilter::eval_batch));
//! one that vectorizes asks for the blob column it reads as a
//! [`FeatureColumn`] ([`Batch::feature_column`]) and evaluates it with
//! block kernels; where the chunk already holds the column as one
//! contiguous block — a decoded row group, a registered table — the
//! batch's part of it is a window onto that block, not a copy.
//!
//! The byte-identity invariant is defined against the **scalar per-row
//! path** ([`RowFilter::passes`](crate::udf::RowFilter::passes),
//! [`Processor::process`](crate::udf::Processor::process)) — the path the
//! executor already uses for retries, i.e. what a `K=1, batch_size=1` run
//! evaluates. An `eval_batch` override must stay **bit-identical** to it:
//! a block row holds a dense feature vector bit for bit and every model
//! scores the block through the same `pp_linalg::kernels`, so this holds
//! by construction. Sparse vectors are never gathered (densifying would
//! reassociate their dot-product sums); a column containing any sparse or
//! ragged cell is scored through the gathered references instead, inside
//! the kernel itself.

use std::ops::Range;

use pp_linalg::{FeatureBatch, FeatureBlock, Features};

use crate::chunk::Chunk;
use crate::row::{Row, RowRef};
use crate::schema::Schema;
use crate::{EngineError, Result};

/// A batch of rows: what one probe step evaluates.
///
/// Feature columns come through
/// [`feature_column`](Batch::feature_column). Non-feature columns are
/// read as tuples ([`rows`](Batch::rows)); vectorizing plain predicate
/// evaluation is not where PP plans spend their time.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    chunk: &'a Chunk,
    rows: Range<usize>,
    offset: usize,
}

impl<'a> Batch<'a> {
    /// A batch over rows `rows` of `chunk`, the first of which sits at
    /// global input index `offset`.
    ///
    /// # Panics
    /// If `rows` reaches past the chunk.
    pub fn new(chunk: &'a Chunk, rows: Range<usize>, offset: usize) -> Self {
        assert!(
            rows.start <= rows.end && rows.end <= chunk.len(),
            "rows {rows:?} out of a {}-row chunk",
            chunk.len()
        );
        Batch {
            chunk,
            rows,
            offset,
        }
    }

    /// The schema every row conforms to.
    pub fn schema(&self) -> &'a Schema {
        self.chunk.schema()
    }

    /// The rows as tuples, in batch order. Over a chunk of decoded
    /// columns this builds the chunk's tuples (once); kernels that only
    /// read a feature column never call it.
    pub fn rows(&self) -> &'a [Row] {
        &self.chunk.rows()[self.rows.clone()]
    }

    /// Row `i` of the batch as a tuple, built alone where the chunk has
    /// not built its tuples (see [`Chunk::row`]).
    ///
    /// # Panics
    /// If `i` is not below [`len`](Self::len).
    pub(crate) fn row(&self, i: usize) -> Row {
        assert!(i < self.len(), "row {i} out of a {}-row batch", self.len());
        self.chunk.row(self.rows.start + i)
    }

    /// The rows in batch order, each read where its chunk keeps it: no
    /// tuple is built for a row whose cells a processor appended.
    pub fn row_refs(&self) -> impl ExactSizeIterator<Item = RowRef<'a>> + 'a {
        let chunk = self.chunk;
        self.rows.clone().map(move |i| chunk.row_ref(i))
    }

    /// Global input index of the first row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Blob column `name` of the batch as a [`FeatureColumn`].
    ///
    /// A chunk that holds the column as one block hands over the batch's
    /// window of it. Otherwise the cells are gathered in one pass, and
    /// per-row extraction reproduces the row path exactly: an unknown
    /// column yields `UnknownColumn` for every row, a non-blob cell yields
    /// `TypeMismatch` for that row — the same errors, in the same order,
    /// that `row.get_named(..).and_then(as_blob)` would produce. The
    /// gather keeps a contiguous block only when every valid cell is
    /// dense with one uniform dimension; otherwise `block` is `None` and
    /// the kernel scores through the gathered references (bit-identical
    /// to the row path by definition — it *is* the row path's data).
    pub fn feature_column(&self, name: &str) -> FeatureColumn<'a> {
        let mut col = FeatureColumn {
            refs: Vec::new(),
            block: None,
            errors: Vec::new(),
        };
        let Ok(idx) = self.schema().index_of(name) else {
            let unknown = || EngineError::UnknownColumn(name.to_string());
            col.errors = (0..self.len() as u32).map(|i| (i, unknown())).collect();
            return col;
        };
        col.block = self.chunk.block(idx, self.rows.clone());
        if col.block.is_some() {
            return col;
        }
        col.refs.reserve(self.len());
        // Rows go into the block as they are met, until a sparse or
        // ragged cell shows the column cannot be one.
        let mut gatherable = true;
        for (i, cell) in self.chunk.cells(idx, self.rows.clone()).enumerate() {
            match cell.as_blob() {
                Ok(blob) => {
                    let f: &'a Features = blob;
                    if gatherable {
                        gatherable = match f.as_dense() {
                            Some(d) => col
                                .block
                                .get_or_insert_with(|| {
                                    FeatureBlock::with_capacity(d.len(), self.len())
                                })
                                .push_dense(d)
                                .is_ok(),
                            None => false,
                        };
                    }
                    col.refs.push(f);
                }
                Err(e) => col.errors.push((i as u32, e)),
            }
        }
        if !gatherable {
            col.block = None;
        }
        col
    }
}

/// What a filter makes of one [`Batch`]
/// ([`RowFilter::eval_batch`](crate::udf::RowFilter::eval_batch)): the
/// positions in the batch of the rows that pass, ascending, and — normally
/// none — the rows whose evaluation failed, ascending, each with its
/// error. The two never share a position; a row in neither is dropped.
///
/// Collecting per-row verdicts in batch order makes one.
#[derive(Debug, Default)]
pub struct Selection {
    /// The rows that pass.
    pub passed: Vec<u32>,
    /// The rows whose evaluation failed, with the error.
    pub failed: Vec<(u32, EngineError)>,
}

impl FromIterator<Result<bool>> for Selection {
    fn from_iter<I: IntoIterator<Item = Result<bool>>>(verdicts: I) -> Self {
        let verdicts = verdicts.into_iter();
        let mut selection = Selection {
            passed: Vec::with_capacity(verdicts.size_hint().0),
            failed: Vec::new(),
        };
        for (at, verdict) in (0..).zip(verdicts) {
            match verdict {
                Ok(true) => selection.passed.push(at),
                Ok(false) => {}
                Err(e) => selection.failed.push((at, e)),
            }
        }
        selection
    }
}

/// One blob column of a [`Batch`], ready to score.
#[derive(Debug)]
pub struct FeatureColumn<'a> {
    /// The valid (blob) cells, in batch order — filled by the gather, so
    /// empty when the chunk handed over its own block.
    pub refs: Vec<&'a Features>,
    /// The valid cells as contiguous rows, present only when every one is
    /// dense with one uniform dimension: a window onto the chunk's block,
    /// or a bitwise gather of `refs`.
    pub block: Option<FeatureBlock>,
    /// The batch rows with no valid cell, ascending, each with exactly the
    /// error the row path's `get_named(..).and_then(as_blob)` would have
    /// produced. Normally empty.
    pub errors: Vec<(u32, EngineError)>,
}

impl FeatureColumn<'_> {
    /// The valid cells in the form the models score: the block when there
    /// is one, the references otherwise.
    pub fn features(&self) -> FeatureBatch<'_> {
        match &self.block {
            Some(block) => FeatureBatch::Block(block),
            None => FeatureBatch::Refs(&self.refs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Rowset;
    use crate::schema::{Column, DataType};
    use crate::value::Value;
    use std::sync::Arc;

    fn blob_schema() -> Arc<Schema> {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("blob", DataType::Blob),
        ])
        .unwrap()
    }

    fn chunk(rows: Vec<Row>) -> Chunk {
        Chunk::from_rows(Arc::new(Rowset::new(blob_schema(), rows).unwrap()))
    }

    fn dense_row(id: i64, v: Vec<f64>) -> Row {
        Row::new(vec![Value::Int(id), Value::blob(Features::Dense(v))])
    }

    #[test]
    fn batch_reports_its_shape() {
        let c = chunk(vec![
            dense_row(0, vec![1.0, 2.0]),
            dense_row(1, vec![3.0, 4.0]),
            dense_row(2, vec![5.0, 6.0]),
        ]);
        let b = Batch::new(&c, 1..3, 7);
        assert_eq!(b.len(), 2);
        assert_eq!(b.offset(), 7);
        assert!(!b.is_empty());
        assert_eq!(b.rows()[0].get(0).as_int().unwrap(), 1);
    }

    #[test]
    fn feature_column_gathers_dense_block() {
        let c = chunk(vec![
            dense_row(0, vec![1.0, 2.0]),
            dense_row(1, vec![3.0, 4.0]),
            dense_row(2, vec![5.0, 6.0]),
        ]);
        let col = Batch::new(&c, 0..3, 0).feature_column("blob");
        let block = col.block.as_ref().unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(col.refs.len(), 3);
        assert!(col.errors.is_empty());
        assert!(matches!(col.features(), FeatureBatch::Block(b) if b.len() == 3));
    }

    /// A chunk that already holds the column as a block hands the batch
    /// its rows of it: no gather, no references.
    #[test]
    fn feature_column_windows_a_decoded_block() {
        use crate::chunk::ChunkColumn;
        let whole = FeatureBlock::from_vec(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = Chunk::from_columns(
            blob_schema(),
            vec![
                ChunkColumn::Cells((0..3).map(Value::Int).collect()),
                ChunkColumn::Block(whole.clone()),
            ],
        )
        .unwrap();
        let col = Batch::new(&c, 1..3, 0).feature_column("blob");
        let block = col.block.as_ref().unwrap();
        assert_eq!(block.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(block.row(0).as_ptr(), whole.row(1).as_ptr(), "no copy");
        assert!(col.refs.is_empty() && col.errors.is_empty());
    }

    #[test]
    fn invalid_cells_become_validity_errors() {
        let c = chunk(vec![
            dense_row(0, vec![1.0, 2.0]),
            Row::new(vec![Value::Int(1), Value::Int(99)]), // not a blob
            dense_row(2, vec![5.0, 6.0]),
        ]);
        let col = Batch::new(&c, 0..3, 0).feature_column("blob");
        assert!(matches!(
            col.errors[..],
            [(
                1,
                EngineError::TypeMismatch {
                    expected: "blob",
                    ..
                }
            )]
        ));
        // The block skips the invalid row.
        let block = col.block.as_ref().unwrap();
        assert_eq!(block.len(), 2);
        assert_eq!(col.refs.len(), 2);
        assert_eq!(block.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn sparse_cells_disable_the_block() {
        use pp_linalg::SparseVector;
        let sparse = Features::Sparse(SparseVector::from_pairs(2, vec![(1, 9.0)]).unwrap());
        let c = chunk(vec![
            dense_row(0, vec![1.0, 2.0]),
            Row::new(vec![Value::Int(1), Value::blob(sparse)]),
        ]);
        let col = Batch::new(&c, 0..2, 0).feature_column("blob");
        assert!(col.block.is_none(), "sparse cells must not be densified");
        assert_eq!(col.refs.len(), 2);
        assert!(col.errors.is_empty());
        assert!(matches!(col.features(), FeatureBatch::Refs(r) if r.len() == 2));
    }

    #[test]
    fn unknown_column_errors_every_row() {
        let c = chunk(vec![dense_row(0, vec![1.0]), dense_row(1, vec![2.0])]);
        let col = Batch::new(&c, 0..2, 0).feature_column("nope");
        assert_eq!(col.errors.len(), 2);
        for (i, (at, e)) in col.errors.iter().enumerate() {
            assert_eq!(*at as usize, i);
            assert!(matches!(e, EngineError::UnknownColumn(n) if n == "nope"));
        }
        assert!(col.block.is_none());
        assert!(col.refs.is_empty());
    }

    #[test]
    fn ragged_dims_disable_the_block() {
        let c = chunk(vec![dense_row(0, vec![1.0, 2.0]), dense_row(1, vec![3.0])]);
        let col = Batch::new(&c, 0..2, 0).feature_column("blob");
        assert!(col.block.is_none());
        assert_eq!(col.refs.len(), 2);
    }
}
