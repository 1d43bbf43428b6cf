//! The request/response surface of the serving runtime.
//!
//! A [`QueryRequest`] is the serving analogue of one TRAF-20 query: a
//! data-source name, a predicate, and the per-query accuracy target the
//! paper lets users set ("specify a desired accuracy threshold", §4).
//! Submitting one yields a [`QueryTicket`]; awaiting it yields a
//! [`QueryResponse`] whose [`QueryOutcome`] is either the result rows
//! (plus plan report and telemetry), a typed rejection, or an execution
//! error. Rejections and errors are ordinary values — an overloaded or
//! faulty server sheds load; it never panics a caller.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pp_core::catalog::CatalogEpoch;
use pp_core::planner::PlanReport;
use pp_engine::cancel::{CancelReason, CancelToken};
use pp_engine::fault::FaultPlan;
use pp_engine::predicate::Predicate;
use pp_engine::row::Rowset;
use pp_engine::telemetry::TelemetrySnapshot;

use crate::trace::RequestTimeline;

/// One inference query submitted to the server.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Name of a data source registered in the server's
    /// [`SourceRegistry`](crate::source::SourceRegistry).
    pub source: String,
    /// The WHERE predicate over the source's UDF-derived columns.
    pub predicate: Predicate,
    /// Query-level accuracy target `a` in `(0, 1]`.
    pub accuracy_target: f64,
    /// Optional seeded fault-injection plan for this query's run (chaos
    /// testing; mirrors [`pp_engine::fault`]).
    pub fault_plan: Option<FaultPlan>,
    /// Optional wall-clock budget measured from submit. When it elapses
    /// the query's cancellation token fires with
    /// [`CancelReason::DeadlineExceeded`] and the query lands as
    /// [`QueryOutcome::Cancelled`] at the next batch boundary.
    pub deadline: Option<Duration>,
    /// Optional worker-thread override for this query's executor (the
    /// server default is serial).
    pub parallelism: Option<usize>,
    /// Run in a shared-scan window with concurrent queries over the same
    /// source (see [`crate::sharedscan`]) instead of alone. Results are
    /// byte-identical either way.
    pub shared: bool,
}

impl QueryRequest {
    /// A request with the given source/predicate/accuracy and no fault
    /// plan, deadline or parallelism override. Every served query runs
    /// under the engine's one recovery policy
    /// ([`pp_engine::resilience`]).
    pub fn new(source: impl Into<String>, predicate: Predicate, accuracy_target: f64) -> Self {
        QueryRequest {
            source: source.into(),
            predicate,
            accuracy_target,
            fault_plan: None,
            deadline: None,
            parallelism: None,
            shared: false,
        }
    }

    /// Installs a seeded fault plan for this query's execution.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Gives the query a wall-clock budget measured from submit.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Asks for executor worker threads for this query (morsels are fed
    /// to a work-stealing pool; results are byte-identical at any
    /// setting). It is passed on as given: the engine clamps it to at
    /// least 1 and caps the threads at what the machine has. How the
    /// engine cuts the rows into batches and morsels is its own.
    pub fn with_parallelism(mut self, k: usize) -> Self {
        self.parallelism = Some(k);
        self
    }

    /// Routes the query through a shared-scan window.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }
}

/// Why the admission controller refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The submit queue is at its configured depth limit.
    QueueFull {
        /// Queued + running queries at rejection time.
        depth: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The optimized plan's predicted cost exceeds the per-query budget.
    CostBudgetExceeded {
        /// Predicted cluster-seconds of the chosen plan.
        predicted_cluster_seconds: f64,
        /// The configured per-query budget.
        budget_cluster_seconds: f64,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The request named a source the registry does not know.
    UnknownSource(String),
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth} in flight, limit {limit})")
            }
            RejectReason::CostBudgetExceeded {
                predicted_cluster_seconds,
                budget_cluster_seconds,
            } => write!(
                f,
                "predicted cost {predicted_cluster_seconds:.4}s exceeds budget \
                 {budget_cluster_seconds:.4}s"
            ),
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
            RejectReason::UnknownSource(s) => write!(f, "unknown data source: {s}"),
        }
    }
}

/// A successfully executed query's payload.
#[derive(Debug, Clone)]
pub struct QuerySuccess {
    /// The result rows.
    pub rows: Rowset,
    /// The catalog epoch the plan was built against (pinned at submit).
    pub epoch: CatalogEpoch,
    /// Whether the plan came from the cache (true) or was optimized for
    /// this request (false).
    pub cache_hit: bool,
    /// The optimizer's report for the executed plan.
    pub report: Arc<PlanReport>,
    /// The run's telemetry snapshot (per-query; query id is always 1).
    pub telemetry: TelemetrySnapshot,
}

/// Terminal state of one submitted query.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query ran to completion.
    Complete(Box<QuerySuccess>),
    /// The admission controller shed the query before execution.
    Rejected(RejectReason),
    /// The query was cancelled (caller request, deadline, drain, or a
    /// worker panic) after doing — and being billed for — partial work.
    Cancelled {
        /// Why the cancellation token fired.
        reason: CancelReason,
        /// Rows consumed by completed operators before the cancellation
        /// point (work the meter charged; discarded probe work is not
        /// counted, matching how it is not billed).
        rows_processed: usize,
        /// Cluster-seconds actually billed for the partial run.
        charged_cluster_seconds: f64,
    },
    /// Planning or execution failed; the message is the underlying error.
    Failed(String),
}

impl QueryOutcome {
    /// The success payload, if the query completed.
    pub fn success(&self) -> Option<&QuerySuccess> {
        match self {
            QueryOutcome::Complete(s) => Some(s),
            _ => None,
        }
    }

    /// True when the query was cancelled mid-flight.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, QueryOutcome::Cancelled { .. })
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Monotonic id assigned at submit time (unique per server).
    pub request_id: u64,
    /// What happened.
    pub outcome: QueryOutcome,
    /// The request's stage waterfall: every serving-pipeline stage it
    /// crossed (admission, queue/window, cache, execute, respond) with
    /// wall-clock durations summing exactly to end-to-end latency, plus
    /// the terminal stage it ended in (see [`crate::trace`]).
    pub timeline: RequestTimeline,
}

/// A handle to one in-flight query. Await it with
/// [`wait`][QueryTicket::wait]; dropping it abandons the response (the
/// query still runs and its telemetry is still folded into the monitor).
/// [`cancel`][QueryTicket::cancel] asks the query to stop at its next
/// batch boundary.
#[derive(Debug)]
pub struct QueryTicket {
    pub(crate) request_id: u64,
    pub(crate) rx: mpsc::Receiver<QueryResponse>,
    pub(crate) cancel: CancelToken,
}

impl QueryTicket {
    /// The id assigned to this request at submit time.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Fires this query's cancellation token with
    /// [`CancelReason::Requested`]. Returns `true` if this call latched
    /// the token (false when already cancelled or expired). The query
    /// stops at its next batch boundary; [`wait`][QueryTicket::wait] then
    /// yields [`QueryOutcome::Cancelled`] — unless it had already reached
    /// a terminal state, in which case that result stands.
    pub fn cancel(&self) -> bool {
        self.cancel.cancel(CancelReason::Requested)
    }

    /// This query's cancellation token (clone to cancel from elsewhere).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Blocks until the query reaches a terminal state. If the worker
    /// disappeared without responding (it panicked), the outcome is a
    /// [`QueryOutcome::Failed`] — callers never hang or panic.
    pub fn wait(self) -> QueryResponse {
        let request_id = self.request_id;
        self.rx.recv().unwrap_or_else(|_| QueryResponse {
            request_id,
            outcome: QueryOutcome::Failed("worker disappeared without responding".into()),
            timeline: RequestTimeline::empty(request_id),
        })
    }
}
