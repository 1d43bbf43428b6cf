//! Classifier substrate for probabilistic predicates (§5 of the paper).
//!
//! A probabilistic predicate is, at its core, a real-valued function
//! `f(ψ(x))` plus a decision threshold `th(a]` (Eq. 2). This crate provides:
//!
//! * [`dataset`] — labeled blob sets with train/validation/test splits,
//! * [`reduction`] — the dimension reducers ψ: identity, PCA, feature
//!   hashing (§5.4),
//! * [`svm`] — linear SVM via Pegasos-style SGD (§5.1),
//! * [`kde`] — kernel-density-ratio classifier with k-d-tree neighborhoods
//!   (§5.2),
//! * [`dnn`] — a small fully-connected network (§5.3),
//! * [`calibrate`] — the threshold table `th(a]` and data-reduction curve
//!   `r(a]` (Eqs. 3–4),
//! * [`pipeline`] — reducer + model + calibration bundled into a deployable
//!   scorer,
//! * [`select`] — model selection across approaches (§5.5),
//! * [`metrics`] — binary-classification metrics.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calibrate;
pub mod dataset;
pub mod dnn;
pub mod kde;
pub mod metrics;
pub mod pipeline;
pub mod reduction;
pub mod select;
pub mod svm;

pub use calibrate::Calibration;
pub use dataset::{LabeledSet, Sample};
pub use dnn::Dnn;
pub use kde::Kde;
pub use pipeline::{Approach, Pipeline, ScoreModel};
pub use reduction::Reducer;
pub use select::ModelSelection;
pub use svm::LinearSvm;

/// Errors produced by the classifier substrate.
#[derive(Debug)]
pub enum MlError {
    /// Underlying numeric error.
    Linalg(pp_linalg::LinalgError),
    /// Training requires examples of both classes.
    SingleClass,
    /// The input was empty where data was required.
    EmptyInput,
    /// A parameter was outside its valid range.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::Linalg(e) => write!(f, "linalg error: {e}"),
            MlError::SingleClass => write!(f, "training set contains a single class"),
            MlError::EmptyInput => write!(f, "empty input"),
            MlError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
        }
    }
}

impl std::error::Error for MlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pp_linalg::LinalgError> for MlError {
    fn from(e: pp_linalg::LinalgError) -> Self {
        MlError::Linalg(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MlError>;
