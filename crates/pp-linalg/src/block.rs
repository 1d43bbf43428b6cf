//! Contiguous row-major feature blocks for columnar batch scoring.
//!
//! A [`FeatureBlock`] stores one feature vector per row in a single
//! contiguous `f64` buffer, so batch scoring walks memory linearly and the
//! chunked kernels in [`crate::kernels`] can stream it at full bandwidth.
//! A decoded row group holds its blob column as one block; the execution
//! engine hands each batch a [`slice`](FeatureBlock::slice) of it — a
//! window onto the same buffer, not a copy.

use std::ops::Range;
use std::sync::Arc;

use crate::features::Features;
use crate::{LinalgError, Result};

/// A dense row-major block of feature vectors, all of dimension `dim`.
///
/// The rows are one contiguous run of `f64`s: row `i` is
/// `as_slice()[i*dim .. (i+1)*dim]`. The buffer behind them is shared
/// with every block [`slice`](FeatureBlock::slice)d off this one, so a
/// slice costs a reference-count bump; a block that is appended to
/// ([`push_features`], [`push_dense`]) while it shares its buffer copies
/// its own rows out first.
///
/// [`push_features`]: FeatureBlock::push_features
/// [`push_dense`]: FeatureBlock::push_dense
#[derive(Debug, Clone)]
pub struct FeatureBlock {
    dim: usize,
    data: Arc<Vec<f64>>,
    /// This block's rows are `data[window]`; both ends are multiples of
    /// `dim`.
    window: Range<usize>,
}

impl PartialEq for FeatureBlock {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.as_slice() == other.as_slice()
    }
}

impl FeatureBlock {
    /// Creates an empty block whose rows will have dimension `dim`.
    pub fn new(dim: usize) -> Self {
        FeatureBlock::with_capacity(dim, 0)
    }

    /// Creates an empty block with capacity reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        FeatureBlock {
            dim,
            data: Arc::new(Vec::with_capacity(dim.saturating_mul(rows))),
            window: 0..0,
        }
    }

    /// Wraps an already row-major buffer of `data.len() / dim` rows
    /// without copying it.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data` is not a
    /// whole number of `dim`-wide rows (any non-empty `data` at `dim` 0).
    pub fn from_vec(dim: usize, data: Vec<f64>) -> Result<Self> {
        if data.len().checked_rem(dim).unwrap_or(data.len()) != 0 {
            return Err(LinalgError::DimensionMismatch {
                expected: dim,
                actual: data.len(),
            });
        }
        Ok(FeatureBlock {
            dim,
            window: 0..data.len(),
            data: Arc::new(data),
        })
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.window.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Rows `rows` of this block as a block of their own, over the same
    /// buffer.
    ///
    /// # Panics
    /// If `rows` reaches past [`len`](FeatureBlock::len).
    pub fn slice(&self, rows: Range<usize>) -> FeatureBlock {
        assert!(
            rows.start <= rows.end && rows.end <= self.len(),
            "rows {rows:?} out of a {}-row block",
            self.len()
        );
        let at = |row: usize| self.window.start + row * self.dim;
        FeatureBlock {
            dim: self.dim,
            data: Arc::clone(&self.data),
            window: at(rows.start)..at(rows.end),
        }
    }

    /// Appends to the rows through `grow`, on a buffer this block owns
    /// alone and fills to its end.
    fn append(&mut self, grow: impl FnOnce(&mut Vec<f64>)) {
        if self.window != (0..self.data.len()) {
            self.data = Arc::new(self.as_slice().to_vec());
        }
        let data = Arc::make_mut(&mut self.data);
        grow(data);
        self.window = 0..data.len();
    }

    /// Appends a dense row.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `row.len() != dim`.
    pub fn push_dense(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        self.append(|data| data.extend_from_slice(row));
        Ok(())
    }

    /// Appends a feature vector, densifying sparse inputs in place
    /// (zero-fill then scatter — no intermediate allocation).
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `f.dim() != dim`.
    pub fn push_features(&mut self, f: &Features) -> Result<()> {
        match f {
            Features::Dense(v) => self.push_dense(v),
            Features::Sparse(s) => {
                if s.dim() != self.dim {
                    return Err(LinalgError::DimensionMismatch {
                        expected: self.dim,
                        actual: s.dim(),
                    });
                }
                self.append(|data| {
                    let base = data.len();
                    data.resize(base + s.dim(), 0.0);
                    for (i, v) in s.iter() {
                        data[base + i as usize] = v;
                    }
                });
                Ok(())
            }
        }
    }

    /// Gathers an iterator of feature vectors into a new block.
    pub fn from_features<'a, I>(dim: usize, feats: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Features>,
    {
        let iter = feats.into_iter();
        let mut block = FeatureBlock::with_capacity(dim, iter.size_hint().0);
        for f in iter {
            block.push_features(f)?;
        }
        Ok(block)
    }

    /// Borrows row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates rows in order as contiguous slices.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.as_slice().chunks_exact(self.dim.max(1))
    }

    /// The raw contiguous row-major buffer (`len() * dim()` elements).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[self.window.clone()]
    }

    /// Drops all rows.
    pub fn clear(&mut self) {
        self.window = 0..0;
    }
}

/// A unified batch of feature vectors handed to the classifiers: either
/// borrowed per-blob references (row-oriented callers) or one contiguous
/// dense block (columnar callers).
///
/// The two variants score bit-identically for dense inputs — a block row
/// is a bitwise copy of the dense vector it was gathered from, and every
/// model scores both through the same [`crate::kernels`]. Sparse inputs
/// only exist in the [`Refs`][FeatureBatch::Refs] variant (gathering a
/// sparse vector into a block would change the summation order of its
/// dot products), so callers that need cross-variant bit-identity keep
/// sparse batches in `Refs` form.
#[derive(Debug, Clone, Copy)]
pub enum FeatureBatch<'a> {
    /// Borrowed references to individual feature vectors.
    Refs(&'a [&'a Features]),
    /// A contiguous dense row-major block.
    Block(&'a FeatureBlock),
}

impl FeatureBatch<'_> {
    /// Number of feature vectors in the batch.
    pub fn len(&self) -> usize {
        match self {
            FeatureBatch::Refs(r) => r.len(),
            FeatureBatch::Block(b) => b.len(),
        }
    }

    /// True when the batch holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVector;

    #[test]
    fn push_and_read_back() {
        let mut b = FeatureBlock::new(3);
        assert!(b.is_empty());
        b.push_dense(&[1.0, 2.0, 3.0]).unwrap();
        b.push_features(&Features::Dense(vec![4.0, 5.0, 6.0]))
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.as_slice().len(), 6);
    }

    #[test]
    fn sparse_densifies_in_place() {
        let mut b = FeatureBlock::new(4);
        let s = SparseVector::from_pairs(4, vec![(1, 2.0), (3, -1.0)]).unwrap();
        b.push_features(&Features::Sparse(s)).unwrap();
        assert_eq!(b.row(0), &[0.0, 2.0, 0.0, -1.0]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut b = FeatureBlock::new(3);
        assert!(matches!(
            b.push_dense(&[1.0]),
            Err(LinalgError::DimensionMismatch {
                expected: 3,
                actual: 1
            })
        ));
        let s = SparseVector::from_pairs(5, vec![(0, 1.0)]).unwrap();
        assert!(b.push_features(&Features::Sparse(s)).is_err());
        assert!(b.is_empty(), "failed pushes must not leave partial rows");
    }

    #[test]
    fn from_features_gathers_in_order() {
        let feats = [
            Features::Dense(vec![1.0, 0.0]),
            Features::Dense(vec![0.0, 1.0]),
        ];
        let b = FeatureBlock::from_features(2, feats.iter()).unwrap();
        let rows: Vec<&[f64]> = b.rows().collect();
        assert_eq!(rows, vec![&[1.0, 0.0][..], &[0.0, 1.0][..]]);
    }

    #[test]
    fn slices_share_the_buffer_and_copy_out_before_growing() {
        let whole = FeatureBlock::from_vec(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut tail = whole.slice(1..3);
        assert_eq!((tail.len(), tail.dim()), (2, 2));
        assert_eq!(tail.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(tail.row(1).as_ptr(), whole.row(2).as_ptr(), "no copy");
        assert_eq!(tail.slice(1..2), whole.slice(2..3));
        assert!(whole.slice(3..3).is_empty());
        // Growing a window leaves the block it was cut from untouched.
        tail.push_dense(&[7.0, 8.0]).unwrap();
        assert_eq!(tail.as_slice(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(whole.len(), 3);
        assert_eq!(whole.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn from_vec_wants_whole_rows() {
        assert!(FeatureBlock::from_vec(3, vec![0.0; 4]).is_err());
        assert!(FeatureBlock::from_vec(0, vec![0.0]).is_err());
        assert_eq!(FeatureBlock::from_vec(0, vec![]).unwrap().len(), 0);
        assert_eq!(FeatureBlock::from_vec(3, vec![0.0; 6]).unwrap().len(), 2);
    }

    #[test]
    fn zero_dim_block_stays_empty() {
        let b = FeatureBlock::new(0);
        assert_eq!(b.len(), 0);
        assert!(b.rows().next().is_none());
    }
}
