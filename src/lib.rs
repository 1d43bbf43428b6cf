//! Probabilistic predicates for machine-learning inference queries.
//!
//! A Rust reproduction of *Accelerating Machine Learning Inference with
//! Probabilistic Predicates* (Lu, Chowdhery, Kandula, Chaudhuri — SIGMOD
//! 2018). The umbrella crate re-exports the workspace's public API:
//!
//! * [`linalg`] — numeric substrate (PCA, feature hashing, k-d tree, stats),
//! * [`ml`] — PP classifiers (linear SVM, KDE, DNN), calibration and model
//!   selection (§5),
//! * [`engine`] — a relational query engine over blob tables with
//!   processor/reducer/combiner UDF templates and cost metering (§4),
//! * [`core`] — probabilistic predicates plus the query-optimizer extension
//!   that injects them (§6),
//! * [`data`] — synthetic datasets and workloads mirroring the paper's case
//!   studies (§7), including the TRAF-20 benchmark,
//! * [`baselines`] — the comparator systems of §8 (NoP, SortP, the
//!   correlation filter of Joglekar et al., a NoScope-like cascade),
//! * [`server`] — a concurrent serving runtime: plan cache, versioned PP
//!   catalog with epoch-stamped snapshots, admission control,
//!   drift-triggered replanning off the hot path, query deadlines with
//!   cooperative cancellation, bounded graceful drain, and a seeded
//!   chaos harness,
//! * [`store`] — an out-of-core columnar segment store: checksummed
//!   on-disk row groups with per-column zone maps that act as zero-cost
//!   accuracy-1.0 PPs, sharded writers, and budgeted streaming scans.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![deny(missing_docs)]

pub use pp_baselines as baselines;
pub use pp_core as core;
pub use pp_data as data;
pub use pp_engine as engine;
pub use pp_linalg as linalg;
pub use pp_ml as ml;
pub use pp_server as server;
pub use pp_store as store;

/// One-stop imports for the common workflow: build a catalog, train PPs,
/// optimize a plan, and run it through an [`ExecutionContext`].
///
/// ```
/// use probabilistic_predicates::prelude::*;
/// ```
///
/// [`ExecutionContext`]: crate::engine::exec::ExecutionContext
pub mod prelude {
    pub use pp_core::calibration::{CalibrationRecord, CalibrationReport, CalibrationSummary};
    pub use pp_core::planner::{ChosenPlan, PlanReport, PpQueryOptimizer, QoConfig};
    pub use pp_core::runtime::{QuarantineReason, RuntimeMonitor};
    pub use pp_core::train::{PpTrainer, TrainerConfig};
    pub use pp_core::wrangle::Domains;
    pub use pp_core::{CatalogEpoch, PpCatalog, VersionedPpCatalog};
    pub use pp_data::traffic::{TrafficConfig, TrafficDataset};
    pub use pp_engine::batch::{Batch, FeatureColumn};
    pub use pp_engine::cancel::{CancelReason, CancelToken};
    pub use pp_engine::cost::CostMeter;
    pub use pp_engine::exec::{ExecutionContext, ExecutionContextBuilder};
    pub use pp_engine::explain::{ExplainAnalyze, OperatorPrediction, PredictionHints};
    pub use pp_engine::export::{JsonlExporter, OpenMetricsExporter};
    pub use pp_engine::fault::{FaultPlan, FaultSpec};
    pub use pp_engine::logical::LogicalPlan;
    pub use pp_engine::predicate::{Clause, CompareOp, Predicate};
    pub use pp_engine::row::{Row, RowRef, Rowset};
    pub use pp_engine::schema::{Column, DataType, Schema};
    pub use pp_engine::telemetry::{
        EventKind, MetricsRegistry, OperatorSpan, TelemetryEvent, TelemetrySnapshot,
    };
    pub use pp_engine::udf::{ClosureFilter, ClosureProcessor};
    pub use pp_engine::value::Value;
    pub use pp_engine::{Catalog, PruneStats, TableProvider, ZoneMap};
    pub use pp_linalg::{FeatureBatch, FeatureBlock, Features};
    pub use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
    pub use pp_ml::reduction::ReducerSpec;
    pub use pp_server::{
        read_frame, read_response, serve_connection, write_frame, AdmissionConfig, CacheConfig,
        ChaosConfig, DrainReport, Frame, PlanCache, PpServer, QueryOutcome, QueryRequest,
        RejectReason, ServerConfig, ServerFaults, SourceRegistry, SourceSpec, WireOutcome,
        WireRequest, WireResponse,
    };
    pub use pp_store::{
        SegmentScan, SegmentWriter, SegmentWriterConfig, StoreError, SEGMENT_VERSION,
    };
}
