//! A relational query-engine substrate for machine-learning inference
//! queries over unstructured blobs (§2 and §4 of the paper).
//!
//! The paper prototypes probabilistic predicates inside Microsoft's Cosmos
//! big-data stack; this crate provides the equivalent substrate at library
//! scale: tables of rows whose cells may hold raw data blobs, a UDF
//! framework with the paper's three templates (processors, reducers,
//! combiners — §4 "Language support for UDFs"), a logical plan algebra
//! (scan / process / select / project / foreign-key join / aggregate /
//! reduce / filter), an executor, and a cost meter.
//!
//! Cost model: executing a machine-learning UDF dominates query cost
//! ("materializing the vehType and the vehColor columns takes 99.8% of the
//! query cost", Fig. 1), so every operator carries a configurable
//! per-input-row cost in *simulated cluster seconds*. The executor charges
//! those costs to a [`cost::CostMeter`]; "cluster processing time" and
//! "query latency" in the experiments are derived from the meter exactly as
//! `cost ∝ c + (1 − r)·u` (§3) predicts, which is the arithmetic the
//! paper's speed-ups exercise.

#![deny(missing_docs)]
#![warn(clippy::all)]
// The executor sits under both front doors (wire frames, segment bytes):
// failures are typed errors, not panicking shortcuts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod bytes;
pub mod cancel;
pub mod catalog;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod export;
pub mod fault;
pub mod json;
pub mod logical;
pub mod memo;
pub mod physical;
pub mod predicate;
pub mod provider;
pub mod resilience;
pub mod row;
pub mod schema;
pub mod sync;
pub mod telemetry;
pub mod udf;
pub mod value;

pub use batch::{Batch, FeatureColumn, Selection};
pub use cancel::{CancelReason, CancelToken};
pub use catalog::Catalog;
pub use cost::CostMeter;
pub use exec::{ExecutionContext, ExecutionContextBuilder};
pub use explain::{ExplainAnalyze, ExplainNode, OperatorPrediction, PredictionHints};
pub use export::{JsonlExporter, OpenMetricsExporter};
pub use fault::{FaultKind, FaultLog, FaultPlan, FaultSpec, InjectedFault};
pub use logical::LogicalPlan;
pub use memo::{memoize_plan, MemoStats, UdfMemo};
pub use predicate::{Clause, CompareOp, Predicate};
pub use provider::{
    group_may_match, kept_groups, prune_stats, publishes_zone_maps, shard_prune_stats,
    MemoryProvider, PruneStats, RowGroupMeta, TableProvider, ZoneMap,
};
pub use row::{GroupColumn, Row, RowRef, Rowset};
pub use schema::{Column, DataType, Schema};
pub use telemetry::{
    EventKind, LatencyHistogram, MetricValue, MetricsRegistry, OperatorId, OperatorSpan, QueryId,
    TelemetryEvent, TelemetrySnapshot,
};
pub use udf::{Processor, Reducer, RowFilter};
pub use value::Value;

/// Errors produced by the query engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A referenced column does not exist in the input schema.
    UnknownColumn(String),
    /// A value had the wrong type for the operation.
    TypeMismatch {
        /// What the operation expected.
        expected: &'static str,
        /// What it found.
        found: &'static str,
    },
    /// A UDF reported a failure.
    Udf(String),
    /// A plan was structurally invalid.
    InvalidPlan(String),
    /// Group-by / join keys must be hashable (no floats or blobs).
    UnhashableKey(&'static str),
    /// A UDF call failed for a transient reason (worth retrying).
    Transient(String),
    /// A UDF call stalled past its simulated deadline.
    Timeout {
        /// The operator that stalled.
        op: String,
        /// Simulated seconds the call hung before being cancelled.
        stalled_seconds: f64,
    },
    /// A UDF produced garbage it could report (an injected corrupt score,
    /// or corrupt output with no float cell to hide it in).
    CorruptOutput(String),
    /// A row deterministically crashes its UDF — retrying cannot help.
    PoisonedRow(String),
    /// The query's cancellation token fired (explicit cancel, deadline,
    /// drain, or worker panic); partial work up to the last batch
    /// boundary was charged to the cost meter.
    Cancelled {
        /// Why the token fired.
        reason: crate::cancel::CancelReason,
    },
    /// An out-of-core storage backend failed (I/O error, corrupt or
    /// truncated segment, checksum mismatch).
    Storage(String),
    /// A UDF call kept failing after all configured retries.
    RetriesExhausted {
        /// The operator that failed.
        op: String,
        /// Total attempts made (first call + retries).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<EngineError>,
    },
}

impl EngineError {
    /// Whether retrying the failed call could plausibly succeed.
    ///
    /// Transient faults, timeouts, and corrupt outputs are retryable;
    /// deterministic failures (poison rows, schema/type errors, plain UDF
    /// errors) and the terminal wrapper (retries exhausted) are not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Transient(_) | EngineError::Timeout { .. } | EngineError::CorruptOutput(_)
        )
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            EngineError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EngineError::Udf(m) => write!(f, "udf error: {m}"),
            EngineError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            EngineError::UnhashableKey(t) => write!(f, "unhashable key type: {t}"),
            EngineError::Transient(m) => write!(f, "transient failure: {m}"),
            EngineError::Timeout {
                op,
                stalled_seconds,
            } => {
                write!(f, "timeout: {op} stalled for {stalled_seconds}s")
            }
            EngineError::CorruptOutput(m) => write!(f, "corrupt output: {m}"),
            EngineError::PoisonedRow(m) => write!(f, "poisoned row: {m}"),
            EngineError::Cancelled { reason } => write!(f, "query cancelled: {reason}"),
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
