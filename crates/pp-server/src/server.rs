//! The serving runtime: submit queries, get tickets, await outcomes.
//!
//! [`PpServer`] owns the data catalog, the source registry, a
//! [`VersionedPpCatalog`] of trained PPs, the shared
//! [`RuntimeMonitor`], the [`PlanCache`], and a bounded worker pool. One
//! query's life:
//!
//! 1. **Submit** (caller thread): admission's depth gate either issues a
//!    permit or sheds with [`RejectReason::QueueFull`]; the current
//!    catalog snapshot is pinned to the request; a ticket is returned.
//!    The request is queued alone, or — with
//!    [`QueryRequest::shared()`] set — parked in a shared-scan window
//!    ([`crate::sharedscan`]); either way one pool job runs it, as a
//!    window of one or of many.
//! 2. **Plan** (worker thread): the plan cache answers with a memoized
//!    plan or single-flights one optimization against the *pinned*
//!    snapshot (corrections and quarantines from the shared monitor
//!    apply).
//! 3. **Admit, part 2**: the plan's predicted cluster-seconds are checked
//!    against the per-query budget; too-expensive plans are shed before
//!    any UDF runs.
//! 4. **Execute**: a fresh [`ExecutionContext`] runs the plan — per-query
//!    isolation is what makes concurrent and serial schedules
//!    byte-identical.
//! 5. **Fold**: the run's telemetry feeds the shared monitor (calibration,
//!    drift, fault quarantine) and the per-query metrics registry is
//!    merged into the server-wide one.
//!
//! Publishing a retrained corpus ([`publish_pps`][PpServer::publish_pps])
//! bumps the epoch, invalidates exactly the superseded cache entries, and
//! never pauses in-flight queries — they hold their pinned snapshots.
//!
//! # Cancellation and drain
//!
//! Every submit mints a [`CancelToken`] (deadline-armed when the request
//! carries one), registers it in the server's active-query map, and hands
//! a cancel handle back on the [`QueryTicket`]. The execution context
//! polls the token at batch boundaries; a fired token surfaces as
//! [`QueryOutcome::Cancelled`] with the partial work actually billed.
//! A worker-side `ResponseGuard` owns the admission permit and the
//! response channel, so **every** submit ends in exactly one typed
//! response — a panicking worker lands as `Failed` (and fires the token
//! with [`CancelReason::WorkerPanic`]), a drain-abandoned job lands as
//! `Cancelled`, and the ticket never hangs. [`PpServer::drain`] runs the
//! graceful-exit choreography: stop intake → grace → cancel stragglers →
//! abandon what remains → flush maintenance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pp_core::catalog::{CatalogEpoch, CatalogSnapshot, SnapshotGarbage, VersionedPpCatalog};
use pp_core::planner::{PpQueryOptimizer, QoConfig};
use pp_core::runtime::{MonitorConfig, RuntimeMonitor};
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_engine::cancel::{CancelReason, CancelToken};
use pp_engine::exec::ExecutionContext;
use pp_engine::memo::UdfMemo;
use pp_engine::sync::Mutex;
use pp_engine::telemetry::MetricsRegistry;
use pp_engine::{Catalog, EngineError};

use crate::admission::{check_cost_budget, AdmissionConfig, DepthGate, Permit};
use crate::audit::{AuditConfig, Auditor};
use crate::cache::{CacheConfig, CacheKey, CacheStats, CachedPlan, PlanCache};
use crate::chaos::ServerFaults;
use crate::maintenance::{self, MaintenanceReport};
use crate::pool::{DrainPolicy, WorkerPool};
use crate::request::{
    QueryOutcome, QueryRequest, QueryResponse, QuerySuccess, QueryTicket, RejectReason,
};
use crate::sharedscan::{Enqueued, SharedScanConfig, SharedScanCoordinator, WindowMember};
use crate::source::SourceRegistry;
use crate::trace::{RequestStage, TraceContext};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Base optimizer configuration; `accuracy_target` is overridden per
    /// request.
    pub qo: QoConfig,
    /// Runtime-monitor thresholds.
    pub monitor: MonitorConfig,
    /// Plan-cache capacity / eviction knobs.
    pub cache: CacheConfig,
    /// Seeded server-side fault injection (chaos testing); `None` (the
    /// default) injects nothing.
    pub faults: Option<ServerFaults>,
    /// Shared-scan window batching knobs (requests with
    /// [`QueryRequest::shared()`] set).
    pub sharedscan: SharedScanConfig,
    /// Online accuracy-audit knobs (see [`crate::audit`]).
    pub audit: AuditConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            qo: QoConfig::default(),
            monitor: MonitorConfig::default(),
            cache: CacheConfig::default(),
            faults: None,
            sharedscan: SharedScanConfig::default(),
            audit: AuditConfig::default(),
        }
    }
}

/// Everything workers and the maintenance pass share.
pub(crate) struct ServerInner {
    pub(crate) data: Catalog,
    pub(crate) sources: SourceRegistry,
    pub(crate) pps: VersionedPpCatalog,
    pub(crate) domains: Domains,
    pub(crate) monitor: Arc<RuntimeMonitor>,
    pub(crate) cache: PlanCache,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) config: ServerConfig,
    pub(crate) audit: Auditor,
    gate: Arc<DepthGate>,
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    /// Cancellation tokens of every query between submit and response;
    /// drain fires these, worker panics latch them.
    active: Mutex<HashMap<u64, CancelToken>>,
}

impl ServerInner {
    /// Optimizes `predicate` over `source` against a pinned snapshot,
    /// honoring the shared monitor. Used by both the query path (cache
    /// miss) and the maintenance replan.
    pub(crate) fn optimize(
        &self,
        source: &str,
        predicate: &pp_engine::predicate::Predicate,
        accuracy_target: f64,
        snapshot: &CatalogSnapshot,
    ) -> Result<CachedPlan, pp_core::PpError> {
        // Admission checked the name and the registry never changes, and a
        // cache key's source passed the same check; were that ever untrue,
        // the query fails and the maintenance replan counts a failure.
        let spec = self
            .sources
            .get(source)
            .ok_or_else(|| EngineError::UnknownTable(source.to_string()))?;
        let nop = spec.nop_plan(predicate);
        let qo = PpQueryOptimizer::new(
            snapshot.pps().clone(),
            self.domains.clone(),
            QoConfig {
                accuracy_target,
                ..self.config.qo.clone()
            },
        );
        let optimized = qo.optimize_with_monitor(&nop, &self.data, Some(&self.monitor))?;
        Ok(CachedPlan {
            plan: optimized.plan,
            report: Arc::new(optimized.report),
            predicate: predicate.clone(),
            accuracy_target,
        })
    }
}

/// Guarantees exactly one typed [`QueryResponse`] per submit. The guard
/// owns the admission permit and the response channel; the worker job
/// either `finish`es it with a real outcome, or — if the job panics or is
/// dropped unexecuted by an abandoning drain — the `Drop` impl sends the
/// appropriate terminal outcome. Either way the permit is released
/// *before* the response becomes visible, and the active-map entry is
/// removed.
pub(crate) struct ResponseGuard {
    inner: Arc<ServerInner>,
    request_id: u64,
    cancel: CancelToken,
    permit: Option<Permit>,
    tx: Option<mpsc::Sender<QueryResponse>>,
    /// The request's live trace; finalized (terminal stage stamped,
    /// per-stage histograms recorded) when the response is sent.
    pub(crate) trace: TraceContext,
}

impl ResponseGuard {
    fn finish(mut self, outcome: QueryOutcome) {
        self.respond(outcome);
    }

    fn respond(&mut self, outcome: QueryOutcome) {
        let Some(tx) = self.tx.take() else { return };
        self.inner.active.lock().remove(&self.request_id);
        // The permit is gone *before* the response is visible, so a caller
        // unblocked by `wait()` observes the slot as free.
        drop(self.permit.take());
        // Close the trace: whatever stage is current becomes the terminal
        // stage, so cancelled/failed outcomes record where they died.
        let timeline = self.trace.finish();
        for span in &timeline.stages {
            self.inner
                .metrics
                .histogram(&format!("server.stage.{}_seconds", span.name))
                .record(span.nanos as f64 / 1e9);
        }
        let kind = match &outcome {
            QueryOutcome::Complete(_) => "completed",
            QueryOutcome::Rejected(_) => "rejected",
            QueryOutcome::Cancelled { .. } => "cancelled",
            QueryOutcome::Failed(_) => "failed",
        };
        self.inner
            .metrics
            .counter(&format!(
                "server.terminal_stage_total.{}.{kind}",
                timeline.terminal
            ))
            .inc();
        let _ = tx.send(QueryResponse {
            request_id: self.request_id,
            outcome,
            timeline,
        });
    }
}

impl Drop for ResponseGuard {
    fn drop(&mut self) {
        if self.tx.is_none() {
            return; // finished normally
        }
        let outcome = if std::thread::panicking() {
            // The job panicked mid-query. Latch the token so any clones
            // observe the death, and surface a typed failure.
            self.cancel.cancel(CancelReason::WorkerPanic);
            self.inner
                .metrics
                .counter("server.worker_panics_total")
                .inc();
            self.inner.metrics.counter("server.failed_total").inc();
            QueryOutcome::Failed("worker panicked mid-query".into())
        } else {
            // The job was dropped unexecuted (an abandoning drain).
            let reason = self.cancel.reason().unwrap_or(CancelReason::Drain);
            self.inner.metrics.counter("server.cancelled_total").inc();
            QueryOutcome::Cancelled {
                reason,
                rows_processed: 0,
                charged_cluster_seconds: 0.0,
            }
        };
        self.respond(outcome);
    }
}

/// What [`PpServer::drain`] did: how much was in flight, how it ended.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Queued + running queries when the drain began.
    pub in_flight_at_drain: usize,
    /// Of those, how many reached a typed response by drain's return
    /// (completed, failed, rejected, or cancelled).
    pub responded: usize,
    /// Cancellation tokens fired with [`CancelReason::Drain`] after the
    /// grace period expired (0 on a clean drain).
    pub cancelled: usize,
    /// Queued jobs dropped unexecuted at the deadline; their tickets
    /// resolved as `Cancelled` via the response guard.
    pub abandoned: usize,
    /// True when everything finished inside the grace period — no
    /// cancellation or abandonment was needed.
    pub clean: bool,
    /// Detached workers still running a query when drain returned (their
    /// tickets resolve when the cooperative cancel lands).
    pub still_running: usize,
    /// The final maintenance flush's report.
    pub maintenance: MaintenanceReport,
}

/// The long-running serving runtime. See the [module docs](self).
pub struct PpServer {
    inner: Arc<ServerInner>,
    pool: WorkerPool,
    shared: Arc<SharedScanCoordinator>,
}

impl std::fmt::Debug for PpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpServer")
            .field("workers", &self.pool.workers())
            .field("epoch", &self.inner.pps.epoch())
            .field("cache", &self.inner.cache.stats())
            .finish()
    }
}

impl PpServer {
    /// Builds a server over owned data, sources, an initial PP corpus
    /// (published as epoch 1), and column domains.
    pub fn new(
        config: ServerConfig,
        data: Catalog,
        sources: SourceRegistry,
        initial_pps: PpCatalog,
        domains: Domains,
    ) -> Self {
        let monitor = Arc::new(RuntimeMonitor::with_config(config.monitor));
        let workers = config.workers;
        let cache = PlanCache::with_config(config.cache.clone());
        let shared = Arc::new(SharedScanCoordinator::new(config.sharedscan.clone()));
        let audit = Auditor::new(config.audit.clone());
        let inner = Arc::new(ServerInner {
            data,
            sources,
            pps: VersionedPpCatalog::new(initial_pps),
            domains,
            monitor,
            cache,
            metrics: MetricsRegistry::new(),
            config,
            audit,
            gate: Arc::new(DepthGate::new()),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
        });
        PpServer {
            inner,
            pool: WorkerPool::new(workers),
            shared,
        }
    }

    /// Admission: shutdown/source checks, depth gate, snapshot pin, id
    /// mint, cancel-token registration, and the response guard + ticket
    /// plumbing.
    fn admit(&self, request: QueryRequest) -> Result<(WindowMember, QueryTicket), RejectReason> {
        // The trace (and deadline) clock starts here, before any checks:
        // admission time is part of the latency the caller observes.
        let born = Instant::now();
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return Err(RejectReason::ShuttingDown);
        }
        if self.inner.sources.get(&request.source).is_none() {
            self.inner.metrics.counter("server.rejected_total").inc();
            return Err(RejectReason::UnknownSource(request.source));
        }
        let permit = match self
            .inner
            .gate
            .try_acquire(self.inner.config.admission.max_queue_depth)
        {
            Ok(p) => p,
            Err(reason) => {
                self.inner.metrics.counter("server.rejected_total").inc();
                return Err(reason);
            }
        };
        // Pin the catalog snapshot *now*: whatever corpus is current at
        // submit time is the corpus this query plans against, regardless
        // of when a worker picks it up or what gets published meanwhile.
        let snapshot = self.inner.pps.snapshot();
        let request_id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        // The deadline clock starts here, at submit — queue time counts.
        let cancel = match request.deadline {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        self.inner.active.lock().insert(request_id, cancel.clone());
        let (tx, rx) = mpsc::channel();
        let guard = ResponseGuard {
            inner: Arc::clone(&self.inner),
            request_id,
            cancel: cancel.clone(),
            permit: Some(permit),
            tx: Some(tx),
            trace: TraceContext::new(request_id, born),
        };
        let member = WindowMember {
            request_id,
            request,
            snapshot,
            guard,
        };
        Ok((
            member,
            QueryTicket {
                request_id,
                rx,
                cancel,
            },
        ))
    }

    /// Submits a query. Synchronous shedding (queue depth, unknown
    /// source, shutdown) comes back as `Err`; everything after admission
    /// — including the plan-cost rejection — arrives through the ticket.
    ///
    /// A request with [`QueryRequest::shared()`] set is parked in the
    /// shared-scan coordinator: concurrent queries over the same source
    /// are window-batched and executed over one shared [`UdfMemo`], so
    /// each expensive UDF runs at most once per blob per window while
    /// every query's verdicts, `PlanReport`, and `CostMeter` charges stay
    /// byte-identical to running alone (see [`crate::sharedscan`]). Any
    /// other request is queued as a window of one. Admission, deadlines,
    /// cancellation, and drain semantics are the same for both.
    pub fn submit(&self, request: QueryRequest) -> Result<QueryTicket, RejectReason> {
        let (member, ticket) = self.admit(request)?;
        let queued = if member.request.shared {
            // The window stage covers everything between admission and
            // this member's own execution: pool-queue wait, the claiming
            // worker's linger, and earlier window members' runs.
            member.guard.trace.enter(RequestStage::Window);
            match self.shared.enqueue(member) {
                Enqueued::Joined => true,
                Enqueued::Opened(window_id) => {
                    let coord = Arc::clone(&self.shared);
                    let queued = self.pool.submit(move || run_window(coord.claim(window_id)));
                    if !queued {
                        // Resolve everything parked in the window: tickets
                        // already handed out land as `Cancelled` via their
                        // guards.
                        drop(self.shared.take(window_id));
                    }
                    queued
                }
            }
        } else {
            // Admission is done; time from here to the worker picking the
            // job up is pool-queue wait.
            member.guard.trace.enter(RequestStage::Queue);
            self.pool.submit(move || run_window(vec![member]))
        };
        if !queued {
            // The pool dropped the job, and with it the guards, which
            // already tidied the active map and the permits.
            return Err(RejectReason::ShuttingDown);
        }
        Ok(ticket)
    }

    /// Queries parked in shared-scan windows not yet claimed by a worker.
    pub fn shared_pending(&self) -> usize {
        self.shared.pending()
    }

    /// Publishes a retrained PP corpus under the next epoch, invalidating
    /// exactly the cache entries planned against superseded epochs.
    /// In-flight queries keep their pinned snapshots.
    pub fn publish_pps(&self, pps: PpCatalog) -> CatalogEpoch {
        let epoch = self.inner.pps.publish(pps);
        self.inner.cache.invalidate_stale(epoch);
        self.inner.metrics.counter("server.epoch_bumps_total").inc();
        epoch
    }

    /// The currently published catalog epoch.
    pub fn epoch(&self) -> CatalogEpoch {
        self.inner.pps.epoch()
    }

    /// The shared runtime monitor (calibration, drift, quarantine state).
    pub fn monitor(&self) -> &Arc<RuntimeMonitor> {
        &self.inner.monitor
    }

    /// The online accuracy auditor (pending tasks, per-PP-expression
    /// evidence, replay cluster-seconds). Replays run inside
    /// [`maintenance_now`][Self::maintenance_now], never on the query
    /// path.
    pub fn auditor(&self) -> &crate::audit::Auditor {
        &self.inner.audit
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Server-wide metrics: per-query registries merged after every run,
    /// plus the `server.*` counters the submit/reject paths bump.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Queued + running queries.
    pub fn in_flight(&self) -> usize {
        self.inner.gate.depth()
    }

    /// Live pinned catalog snapshots per epoch — superseded epochs with a
    /// nonzero count are garbage kept alive by in-flight (or leaked)
    /// queries. The maintenance pass exports these as gauges.
    pub fn snapshot_garbage(&self) -> Vec<SnapshotGarbage> {
        self.inner.pps.pinned_snapshots()
    }

    /// Cancels one in-flight query by request id with
    /// [`CancelReason::Requested`]. Returns `false` when the id is
    /// unknown, already terminal, or already cancelled.
    pub fn cancel_query(&self, request_id: u64) -> bool {
        let token = self.inner.active.lock().get(&request_id).cloned();
        token.is_some_and(|t| t.cancel(CancelReason::Requested))
    }

    /// Runs one maintenance pass synchronously: folds nothing new (that
    /// happens per query) but checks calibration drift and re-optimizes /
    /// swaps every cached plan whose PPs drifted. It runs on the caller's
    /// thread; the server starts no timer of its own.
    pub fn maintenance_now(&self) -> MaintenanceReport {
        maintenance::run_once(&self.inner)
    }

    /// Stops intake, drains queued queries, and joins workers. Idempotent;
    /// also runs on drop. This waits however long the queued queries take;
    /// use [`drain`][PpServer::drain] for a bounded exit.
    pub fn shutdown(&mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Close shared-scan windows so their jobs claim without lingering
        // and every parked query still runs before the pool drains.
        self.shared.flush_all();
        self.pool.shutdown();
    }

    /// Gracefully winds the server down within (approximately) `timeout`:
    ///
    /// 1. **Stop intake** — new submits shed with
    ///    [`RejectReason::ShuttingDown`].
    /// 2. **Grace** — in-flight queries get 80% of the timeout to finish
    ///    on their own.
    /// 3. **Cancel** — stragglers' tokens fire with
    ///    [`CancelReason::Drain`]; the remaining 20% lets the cooperative
    ///    cancels land as typed `Cancelled` responses.
    /// 4. **Abandon** — whatever is still queued at the deadline is
    ///    dropped unexecuted; the response guards resolve those tickets
    ///    as `Cancelled`, and still-running workers are detached so a
    ///    wedged UDF cannot block the drain.
    /// 5. **Flush** — one final maintenance pass exports gauges and folds
    ///    calibration state.
    ///
    /// No ticket is ever lost: every query in flight at drain time ends
    /// in exactly one typed response (possibly after drain returns, for
    /// detached still-running workers). Idempotent with
    /// [`shutdown`][PpServer::shutdown]; also safe to call twice.
    pub fn drain(&mut self, timeout: Duration) -> DrainReport {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Close shared-scan windows: their pool jobs claim immediately,
        // so parked queries either run inside the grace period or resolve
        // as `Cancelled` when the deadline abandons their jobs.
        self.shared.flush_all();
        let in_flight_at_drain = self.inner.gate.depth();
        let grace = timeout.mul_f64(0.8);
        let clean = self.inner.gate.wait_idle(grace);
        let mut cancelled = 0usize;
        if !clean {
            let tokens: Vec<CancelToken> = self.inner.active.lock().values().cloned().collect();
            for token in &tokens {
                if token.cancel(CancelReason::Drain) {
                    cancelled += 1;
                }
            }
            self.inner.gate.wait_idle(timeout.saturating_sub(grace));
        }
        let idle = self.inner.gate.depth() == 0;
        let abandoned = self.pool.shutdown_with(if idle {
            DrainPolicy::DrainQueued
        } else {
            DrainPolicy::AbandonQueued
        });
        self.inner
            .metrics
            .counter("server.abandoned_total")
            .add(abandoned as u64);
        let maintenance = maintenance::run_once(&self.inner);
        let still_running = self.inner.gate.depth();
        DrainReport {
            in_flight_at_drain,
            responded: in_flight_at_drain.saturating_sub(still_running),
            cancelled,
            abandoned,
            clean,
            still_running,
            maintenance,
        }
    }
}

impl Drop for PpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one pool-job body: runs a window of queries in submit order, which
/// keeps execution deterministic for a fixed submission sequence. Each
/// member runs the per-query path inside its own `catch_unwind`, so a
/// panicking member (chaos or real) sheds only itself — its guard
/// resolves the ticket as `Failed` — and the siblings still run.
///
/// A claimed shared-scan window runs over one shared [`UdfMemo`] and is
/// counted in `server.sharedscan.*`; a solo query is a window of one
/// with neither.
fn run_window(members: Vec<WindowMember>) {
    let Some(first) = members.first() else { return };
    let inner = Arc::clone(&first.guard.inner);
    let memo = first.request.shared.then(|| {
        inner
            .metrics
            .counter("server.sharedscan.windows_total")
            .inc();
        inner
            .metrics
            .counter("server.sharedscan.window_queries_total")
            .add(members.len() as u64);
        // Memo keys are the source table's base columns: appended UDF
        // columns are pure functions of those, so plans applying
        // different UDF subsets still share work soundly (see
        // `pp_engine::memo`). If the table lookup fails the fallback keys
        // on whole rows — never wrong, just less sharing.
        let key_prefix = inner
            .sources
            .get(&first.request.source)
            .and_then(|spec| inner.data.table_schema(spec.table()).ok())
            .map(|schema| schema.len())
            .unwrap_or(usize::MAX);
        Arc::new(UdfMemo::new(key_prefix))
    });
    for member in members {
        let memo = memo.clone();
        // The guard moves into the closure: on a panic it drops while
        // unwinding and resolves the ticket as `Failed` with
        // `CancelReason::WorkerPanic` latched.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let outcome = run_query(&member, memo);
            member.guard.finish(outcome);
        }));
    }
    if let Some(memo) = memo {
        let stats = memo.stats();
        inner
            .metrics
            .counter("server.sharedscan.udf_invocations_total")
            .add(stats.invoked);
        inner
            .metrics
            .counter("server.sharedscan.udf_invocations_saved_total")
            .add(stats.hits);
    }
}

/// The worker-side query path: plan (via cache) → cost-admit → execute →
/// fold telemetry. Never panics on query-shaped failures; every error is
/// an outcome. (Injected chaos panics are the deliberate exception — the
/// response guard and `run_window`'s `catch_unwind` turn those into
/// `Failed`.)
fn run_query(member: &WindowMember, memo: Option<Arc<UdfMemo>>) -> QueryOutcome {
    let WindowMember {
        request_id,
        request,
        snapshot,
        guard,
    } = member;
    let (inner, request_id, cancel, trace) =
        (&*guard.inner, *request_id, &guard.cancel, &guard.trace);
    // A query cancelled while queued (drain, caller, expired deadline)
    // stops here, before planning: no work done, nothing billed.
    if let Some(reason) = cancel.reason() {
        inner.metrics.counter("server.cancelled_total").inc();
        return QueryOutcome::Cancelled {
            reason,
            rows_processed: 0,
            charged_cluster_seconds: 0.0,
        };
    }
    if let Some(faults) = &inner.config.faults {
        if faults.should_panic_worker(request_id) {
            panic!("chaos: injected worker panic");
        }
    }
    let key = CacheKey::new(
        &request.source,
        &request.predicate,
        request.accuracy_target,
        snapshot.epoch(),
    );
    // Classify the cache interaction for the trace: a plan already Ready
    // is a `hit`; otherwise `get_or_build` either single-flight-`wait`s
    // on a concurrent builder (it reports a hit) or `build`s itself.
    let ready_before = inner.cache.peek(&key).is_some();
    trace.enter(RequestStage::Cache);
    let built = inner.cache.get_or_build(&key, || {
        if let Some(faults) = &inner.config.faults {
            if let Some(delay) = faults.build_delay(request_id) {
                std::thread::sleep(delay);
            }
            if faults.should_fail_build(request_id) {
                return Err(pp_core::PpError::InvalidParameter(
                    "chaos: injected plan-build failure",
                ));
            }
        }
        inner.optimize(
            &request.source,
            &request.predicate,
            request.accuracy_target,
            snapshot,
        )
    });
    let (cached, cache_hit) = match built {
        Ok(pair) => pair,
        Err(e) => {
            inner.metrics.counter("server.failed_total").inc();
            return QueryOutcome::Failed(e.to_string());
        }
    };
    trace.note(if ready_before {
        "hit"
    } else if cache_hit {
        "wait"
    } else {
        "build"
    });
    if cache_hit {
        inner.metrics.counter("server.cache_hits_total").inc();
    }
    if let Err(reason) = check_cost_budget(&inner.config.admission, &cached.report) {
        inner.metrics.counter("server.rejected_total").inc();
        return QueryOutcome::Rejected(reason);
    }

    let mut builder = ExecutionContext::builder(&inner.data).with_cancel_token(cancel.clone());
    if let Some(memo) = memo {
        builder = builder.with_udf_memo(memo);
    }
    if let Some(fp) = &request.fault_plan {
        builder = builder.with_fault_plan(fp.clone());
    }
    if let Some(rc) = &request.resilience {
        builder = builder.with_resilience(*rc);
    }
    if let Some(k) = request.parallelism {
        builder = builder.with_parallelism(k);
    }
    if let Some(rows) = request.batch_size {
        builder = builder.with_batch_size(rows);
    }
    if let Some(rows) = request.morsel_size {
        builder = builder.with_morsel_size(rows);
    }
    let mut ctx = builder.build();
    trace.enter(RequestStage::Execute);
    let result = ctx.run(&cached.plan);
    // Fold this run into the shared state regardless of outcome: service
    // metrics always, fault rates always (they count toward quarantine
    // decisions), calibration only for clean runs (observe_run skips
    // failed spans itself, but a failed *query* has no meaningful
    // reduction to calibrate on).
    inner.metrics.merge(ctx.registry());
    let telemetry = ctx.telemetry().cloned();
    if let (Err(_), Some(t)) = (&result, &telemetry) {
        inner.monitor.observe_telemetry(t);
    }
    match result {
        Ok(rows) => {
            let Some(telemetry) = telemetry else {
                inner.metrics.counter("server.failed_total").inc();
                return QueryOutcome::Failed("run completed without a telemetry snapshot".into());
            };
            inner.monitor.observe_run(&cached.report, &telemetry);
            inner.metrics.counter("server.completed_total").inc();
            // Enqueue for the off-hot-path accuracy audit (replays happen
            // in the maintenance pass; this only records the plan Arc).
            inner.audit.observe(
                request_id,
                &request.source,
                &cached,
                &telemetry,
                rows.len(),
                &inner.metrics,
            );
            trace.enter(RequestStage::Respond);
            QueryOutcome::Complete(Box::new(QuerySuccess {
                rows,
                epoch: snapshot.epoch(),
                cache_hit,
                report: Arc::clone(&cached.report),
                telemetry,
            }))
        }
        Err(EngineError::Cancelled { reason }) => {
            // Bill what the meter actually charged: completed operators
            // plus consumed-but-interrupted batches. Discarded probe work
            // was never charged, so it is not reported either.
            let meter = ctx.meter();
            inner.metrics.counter("server.cancelled_total").inc();
            QueryOutcome::Cancelled {
                reason,
                rows_processed: meter.entries().iter().map(|e| e.rows_in).sum(),
                charged_cluster_seconds: meter.cluster_seconds(),
            }
        }
        Err(e) => {
            inner.metrics.counter("server.failed_total").inc();
            QueryOutcome::Failed(e.to_string())
        }
    }
}
