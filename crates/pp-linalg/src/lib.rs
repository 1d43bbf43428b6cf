//! Numeric substrate for the probabilistic-predicates system.
//!
//! This crate provides the small, dependency-light linear-algebra and
//! statistics toolkit that the classifier layer (`pp-ml`) is built on:
//!
//! * [`dense`] — dense vectors and row-major matrices,
//! * [`sparse`] — sorted-coordinate sparse vectors (bag-of-words blobs),
//! * [`features`] — a unified dense/sparse feature representation,
//! * [`block`] — contiguous row-major feature blocks for columnar scoring,
//! * [`kernels`] — chunked auto-vectorizable dot/distance kernels with a
//!   scalar tail (the inference hot loops),
//! * [`pca`] — principal component analysis (§5.4 of the paper),
//! * [`hashing`] — feature hashing (Weinberger et al., Eq. 7 of the paper),
//! * [`kdtree`] — a k-d tree used to approximate KDE neighborhoods (§5.2),
//! * [`stats`] — percentiles, whisker summaries and online moments,
//! * [`rng`] — deterministic hashing/seeding helpers.
//!
//! Everything is deterministic given an explicit seed; nothing in this crate
//! reads the clock or global RNG state.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod dense;
pub mod features;
pub mod hashing;
pub mod kdtree;
pub mod kernels;
pub mod pca;
pub mod rng;
pub mod sparse;
pub mod stats;

pub use block::{FeatureBatch, FeatureBlock};
pub use dense::Matrix;
pub use features::Features;
pub use hashing::FeatureHasher;
pub use kdtree::KdTree;
pub use pca::Pca;
pub use sparse::SparseVector;

/// Errors produced by the numeric substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An operation required a non-empty input but received none.
    EmptyInput,
    /// A parameter was outside its valid range.
    InvalidParameter(&'static str),
    /// An iterative numeric routine failed to converge.
    DidNotConverge(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::EmptyInput => write!(f, "operation requires a non-empty input"),
            LinalgError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            LinalgError::DidNotConverge(what) => write!(f, "did not converge: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
