//! A long-running, thread-safe serving runtime for PP-accelerated
//! inference queries.
//!
//! The paper's pipeline — train PPs, extend the query optimizer, execute
//! the injected plan (§4–§6) — is batch-shaped: one query in, one plan
//! out. Production clusters instead run *many* concurrent queries against
//! a *changing* PP corpus. This crate closes that gap:
//!
//! * [`server::PpServer`] — accepts [`request::QueryRequest`]s (predicate +
//!   accuracy target + data source) and executes them on a bounded worker
//!   pool, many in flight at once,
//! * [`cache::PlanCache`] — memoizes optimized plans keyed by
//!   `(source, canonical predicate, exact accuracy target, catalog
//!   epoch)`; one single-flight lookup (no dogpile) is the only way a plan
//!   gets in, with hit/miss/build metrics,
//! * [`pp_core::catalog::VersionedPpCatalog`] — epoch-stamped PP-corpus
//!   snapshots, hot-swappable without pausing in-flight queries; an epoch
//!   bump invalidates exactly the superseded cache entries,
//! * [`admission`] — queue-depth limits and per-query predicted-cost
//!   budgets; overload sheds gracefully with a typed
//!   [`request::RejectReason`], never a panic,
//! * [`maintenance`] — folds every run's telemetry into a shared
//!   [`RuntimeMonitor`](pp_core::runtime::RuntimeMonitor) and, when
//!   calibration drift flags a cached plan's PPs, invalidates the entry
//!   and rebuilds it off the hot path through the cache's miss path,
//! * [`request`] / [`server`] — per-query deadlines and cooperative
//!   cancellation (a [`CancelToken`](pp_engine::cancel::CancelToken)
//!   polled at batch boundaries; partial work is billed), typed
//!   [`QueryOutcome::Cancelled`](request::QueryOutcome#variant.Cancelled)
//!   results, and a bounded graceful
//!   [`drain`](server::PpServer::drain) that never loses a ticket,
//! * [`chaos`] — seeded, replayable server-side fault injection (slow and
//!   failing plan builds, worker panics) plus a harness composing them
//!   with engine faults, cancels, publish storms, and admission pressure
//!   while checking robustness invariants,
//! * [`wire`] — a framed, length-prefixed binary request/response
//!   protocol (streaming verdict frames, typed error frames) usable over
//!   any `Read`/`Write` pair, plus
//!   [`serve_connection`] to drive a connection
//!   against a server.
//!
//! # Determinism
//!
//! Each query executes in a fresh
//! [`ExecutionContext`](pp_engine::exec::ExecutionContext) against the
//! catalog snapshot pinned at *submit* time, so a batch of requests
//! returns byte-identical per-query results and telemetry (wall clock
//! aside) whether the pool runs them serially or 16-wide — even when a
//! new PP corpus is published mid-stream.

#![deny(missing_docs)]
#![warn(clippy::all)]
// A poisoned lock or a panicking job must not take the front door down:
// outside tests, nothing in this crate may `unwrap` or `expect`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod audit;
pub mod cache;
pub mod chaos;
pub mod maintenance;
pub mod pool;
pub mod request;
pub mod server;
pub mod source;
pub mod trace;
pub mod wire;

pub use admission::AdmissionConfig;
pub use audit::{AuditConfig, AuditEntry, AuditPassReport, Auditor};
pub use cache::{CacheConfig, CacheKey, CacheStats, CachedPlan, Lookup, PlanCache};
pub use chaos::{rows_digest, run_chaos, ChaosConfig, ChaosReport, ServerFaults};
pub use pool::DrainPolicy;
pub use request::{
    QueryOutcome, QueryRequest, QueryResponse, QuerySuccess, QueryTicket, RejectReason,
};
pub use server::{DrainReport, PpServer, ServerConfig, SharedScanConfig};
pub use source::{SourceRegistry, SourceSpec};
pub use trace::{RequestStage, RequestTimeline, StageSpan};
pub use wire::{
    encode_frame, read_frame, read_response, serve_connection, write_frame, write_verdicts, Frame,
    WireError, WireErrorKind, WireOutcome, WireRequest, WireResponse, MAX_FRAME_LEN,
};

/// Errors produced by the serving runtime itself (planning and execution
/// errors surface per query inside [`QueryOutcome`], not here).
#[derive(Debug)]
pub enum ServerError {
    /// The request named a data source the registry does not know.
    UnknownSource(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownSource(s) => write!(f, "unknown data source: {s}"),
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}
