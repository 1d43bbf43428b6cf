//! Probabilistic predicates and the query-optimizer extension that injects
//! them — the paper's primary contribution (§5–§6, Appendices A–B).
//!
//! A [`pp::ProbabilisticPredicate`] is a trained, calibrated binary
//! classifier that mimics one predicate (usually a simple clause): it
//! executes directly on the raw blob and drops inputs unlikely to satisfy
//! the predicate. The modules here implement the full lifecycle:
//!
//! * [`pp`] — the PP type: clause + classifier pipeline + cost + `r(a]`,
//! * [`catalog`] — the trained-PP store the QO draws from,
//! * [`train`] — the "outer loop" of Fig. 3b: harvesting labeled blobs from
//!   query runs and training PPs per simple clause,
//! * [`implication`] — sound (incomplete) predicate implication checks, the
//!   `𝒫 ⇒ ℰ` side-condition of §6,
//! * [`wrangle`] — Appendix A.2's rewrite rules that improve matchability,
//! * [`expr`] — expressions (conjunctions/disjunctions) over PPs,
//! * [`combine`] — the accuracy/reduction/cost algebra of Eqs. 9–10,
//! * [`alloc`] — the accuracy-budget dynamic program of §6.2,
//! * [`order`] — PP ordering exploration (exhaustive ≤ k, edit-distance-2),
//! * [`rewrite`] — §6.1's greedy rewrite from complex predicates to
//!   candidate PP expressions (rules R1–R4),
//! * [`inject`] — plan injection and the pushdown rules of Table 11 / A.4,
//! * [`planner`] — the end-to-end QO extension of Fig. 3c,
//! * [`runtime`] — the runtime monitor: the dependent-predicate fix of
//!   Appendix A.5 plus fault-rate tracking that quarantines broken PPs,
//! * [`calibration`] — predicted-vs-observed reduction/cost records per PP,
//!   summarized into the drift signal that drives replanning.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod calibration;
pub mod catalog;
pub mod combine;
pub mod expr;
pub mod implication;
pub mod inject;
pub mod order;
pub mod planner;
pub mod pp;
pub mod rewrite;
pub mod runtime;
pub mod train;
pub mod wrangle;

pub use calibration::{
    CalibrationEntry, CalibrationRecord, CalibrationReport, CalibrationSummary, CalibrationTracker,
};
pub use catalog::{CatalogEpoch, CatalogSnapshot, PpCatalog, SnapshotGarbage, VersionedPpCatalog};
pub use expr::PpExpr;
pub use planner::{PpQueryOptimizer, QoConfig, ZonePushdownReport};
pub use pp::ProbabilisticPredicate;
pub use runtime::{MonitorConfig, QuarantineReason, RuntimeMonitor};

/// Errors produced by the PP core.
#[derive(Debug)]
pub enum PpError {
    /// Underlying classifier error.
    Ml(pp_ml::MlError),
    /// Underlying engine error.
    Engine(pp_engine::EngineError),
    /// No probabilistic predicate is applicable.
    NoApplicablePp,
    /// A parameter was outside its valid range.
    InvalidParameter(&'static str),
    /// The requested accuracy target cannot be met by any plan.
    InfeasibleAccuracy(f64),
}

impl std::fmt::Display for PpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpError::Ml(e) => write!(f, "ml error: {e}"),
            PpError::Engine(e) => write!(f, "engine error: {e}"),
            PpError::NoApplicablePp => write!(f, "no applicable probabilistic predicate"),
            PpError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            PpError::InfeasibleAccuracy(a) => write!(f, "no plan meets accuracy target {a}"),
        }
    }
}

impl std::error::Error for PpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PpError::Ml(e) => Some(e),
            PpError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pp_ml::MlError> for PpError {
    fn from(e: pp_ml::MlError) -> Self {
        PpError::Ml(e)
    }
}

impl From<pp_engine::EngineError> for PpError {
    fn from(e: pp_engine::EngineError) -> Self {
        PpError::Engine(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, PpError>;

/// Alias emphasizing the planning-time error surface: everything the query
/// optimizer ([`planner::PpQueryOptimizer`]) can fail with is a [`PpError`].
pub type PlanError = PpError;
