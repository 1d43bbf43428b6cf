//! The batch representation the executor probes UDFs with.
//!
//! A [`Batch`] is a view over a range of rows of one [`Rowset`]. A filter
//! sees it whole ([`RowFilter::eval_batch`](crate::udf::RowFilter::eval_batch));
//! one that vectorizes asks for the blob column it reads as a
//! [`FeatureColumn`] ([`Batch::feature_column`]) and evaluates it with
//! block kernels; where the range is one run of one row group's rows and
//! the group holds the column as one contiguous block — a decoded
//! segment group, a registered table once its block is gathered — the
//! batch's part of it is a window onto that block, not a copy.
//!
//! The byte-identity invariant is defined against the **scalar per-row
//! path** ([`RowFilter::passes`](crate::udf::RowFilter::passes),
//! [`Processor::process`](crate::udf::Processor::process)), both of which
//! read a row where it is kept. An `eval_batch` override must stay
//! **bit-identical** to `passes` over the same rows, one row or many: a
//! block row holds a dense feature vector bit for bit and every model
//! scores the block through the same `pp_linalg::kernels`, so this holds
//! by construction. Sparse vectors are never gathered (densifying would
//! reassociate their dot-product sums); a column containing any sparse or
//! ragged cell is scored through the gathered references instead, inside
//! the kernel itself.

use std::ops::Range;

use pp_linalg::{FeatureBatch, FeatureBlock, Features};

use crate::row::{RowRef, Rowset};
use crate::schema::Schema;
use crate::{EngineError, Result};

/// A batch of rows: what one probe step evaluates.
///
/// Feature columns come through
/// [`feature_column`](Batch::feature_column). Non-feature columns are
/// read where the rows keep them ([`row_refs`](Batch::row_refs));
/// vectorizing plain predicate evaluation is not where PP plans spend
/// their time.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    set: &'a Rowset,
    rows: Range<usize>,
    offset: usize,
}

impl<'a> Batch<'a> {
    /// A batch over rows `rows` of `set`, the first of which sits at
    /// global input index `offset`.
    ///
    /// # Panics
    /// If `rows` reaches past the rowset.
    pub fn new(set: &'a Rowset, rows: Range<usize>, offset: usize) -> Self {
        assert!(
            rows.start <= rows.end && rows.end <= set.len(),
            "rows {rows:?} out of a {}-row rowset",
            set.len()
        );
        Batch { set, rows, offset }
    }

    /// The schema every row conforms to.
    pub fn schema(&self) -> &'a Schema {
        self.set.schema()
    }

    /// Row `at` of the batch alone, as a batch: what a retry evaluates.
    ///
    /// # Panics
    /// If `at` is not below [`len`](Self::len).
    pub(crate) fn one(&self, at: usize) -> Batch<'a> {
        assert!(
            at < self.len(),
            "row {at} out of a {}-row batch",
            self.len()
        );
        let row = self.rows.start + at;
        Batch::new(self.set, row..row + 1, self.offset + at)
    }

    /// The rows in batch order, each read where the rowset keeps it: no
    /// tuple is built.
    pub fn row_refs(&self) -> impl ExactSizeIterator<Item = RowRef<'a>> + 'a {
        let set = self.set;
        self.rows.clone().map(move |i| set.row_ref(i))
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
    /// Rows that are one run of a group holding the column as one block
    /// hand over their window of it. Otherwise the cells are gathered in
    /// one pass, and per-row extraction reproduces the row path exactly:
    /// an unknown column yields `UnknownColumn` for every row, a non-blob
    /// cell yields `TypeMismatch` for that row — the same errors, in the
    /// same order, that `row.get_named(..).and_then(as_blob)` would
    /// produce. The gather keeps a contiguous block only when every valid
    /// cell is dense with one uniform dimension; otherwise `block` is
    /// `None` and the kernel scores through the gathered references
    /// (bit-identical to the row path by definition — it *is* the row
    /// path's data).
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
        col.block = self.set.block(idx, self.rows.clone());
        if col.block.is_some() {
            return col;
        }
        col.refs.reserve(self.len());
        // Rows go into the block as they are met, until a sparse or
        // ragged cell shows the column cannot be one.
        let mut gatherable = true;
        for (i, row) in self.row_refs().enumerate() {
            match row.get(idx).as_blob() {
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

impl Selection {
    /// The verdict of a one-row batch's selection: the row's error, or
    /// whether it passed.
    pub(crate) fn verdict(mut self) -> Result<bool> {
        match self.failed.pop() {
            Some((_, e)) => Err(e),
            None => Ok(!self.passed.is_empty()),
        }
    }
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
    /// empty when the rows handed over their group's block.
    pub refs: Vec<&'a Features>,
    /// The valid cells as contiguous rows, present only when every one is
    /// dense with one uniform dimension: a window onto a group's block,
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
    use crate::row::{GroupColumn, Row};
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

    fn rowset(rows: Vec<Row>) -> Rowset {
        Rowset::new(blob_schema(), rows).unwrap()
    }

    fn dense_row(id: i64, v: Vec<f64>) -> Row {
        Row::new(vec![Value::Int(id), Value::blob(Features::Dense(v))])
    }

    #[test]
    fn batch_reports_its_shape() {
        let c = rowset(vec![
            dense_row(0, vec![1.0, 2.0]),
            dense_row(1, vec![3.0, 4.0]),
            dense_row(2, vec![5.0, 6.0]),
        ]);
        let b = Batch::new(&c, 1..3, 7);
        assert_eq!(b.len(), 2);
        assert_eq!(b.offset(), 7);
        assert!(!b.is_empty());
        let one = b.one(1);
        assert_eq!((one.len(), one.offset()), (1, 8));
        assert_eq!(one.row_refs().next().unwrap().get(0).as_int().unwrap(), 2);
    }

    /// A column of dense blob cells gathers into one block the first
    /// time a batch reads it, and every batch over a run of its rows is a
    /// window onto that block; rows picked out of order are gathered per
    /// batch.
    #[test]
    fn feature_column_windows_the_columns_gathered_block() {
        let c = rowset(vec![
            dense_row(0, vec![1.0, 2.0]),
            dense_row(1, vec![3.0, 4.0]),
            dense_row(2, vec![5.0, 6.0]),
        ]);
        let col = Batch::new(&c, 0..3, 0).feature_column("blob");
        let block = col.block.as_ref().unwrap();
        assert_eq!(block.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(col.refs.is_empty() && col.errors.is_empty());
        assert!(matches!(col.features(), FeatureBatch::Block(b) if b.len() == 3));
        let again = Batch::new(&c, 1..3, 0).feature_column("blob");
        let window = again.block.as_ref().unwrap();
        assert_eq!(window.row(0).as_ptr(), block.row(1).as_ptr(), "no copy");

        let picked = c.pick(vec![2, 0]);
        let col = Batch::new(&picked, 0..2, 0).feature_column("blob");
        assert_eq!(
            col.block.as_ref().unwrap().as_slice(),
            &[5.0, 6.0, 1.0, 2.0]
        );
        assert_eq!(col.refs.len(), 2);
    }

    /// A group that already holds the column as a block hands the batch
    /// its rows of it: no gather, no references.
    #[test]
    fn feature_column_windows_a_decoded_block() {
        let whole = FeatureBlock::from_vec(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = Rowset::from_columns(
            blob_schema(),
            vec![
                GroupColumn::Cells((0..3).map(Value::Int).collect()),
                GroupColumn::Block(whole.clone()),
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
        let c = rowset(vec![
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
        let c = rowset(vec![
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
        let c = rowset(vec![dense_row(0, vec![1.0]), dense_row(1, vec![2.0])]);
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
        let c = rowset(vec![dense_row(0, vec![1.0, 2.0]), dense_row(1, vec![3.0])]);
        let col = Batch::new(&c, 0..2, 0).feature_column("blob");
        assert!(col.block.is_none());
        assert_eq!(col.refs.len(), 2);
    }
}
