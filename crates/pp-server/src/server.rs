//! The serving runtime: submit queries, get tickets, await outcomes.
//!
//! [`PpServer`] owns the data catalog, the source registry, a
//! [`VersionedPpCatalog`] of trained PPs, the shared
//! [`RuntimeMonitor`], the [`PlanCache`], and a bounded worker pool. One
//! query's life:
//!
//! 1. **Submit** (caller thread): admission either enters the request in
//!    the server's in-flight map or, with the map full, sheds it with
//!    [`RejectReason::QueueFull`]; the current catalog snapshot is pinned
//!    to the request; a ticket is returned.
//!    The request is queued alone, or — with
//!    [`QueryRequest::shared()`] set — parked in a shared-scan window
//!    ([`crate::sharedscan`]); either way one pool job runs it, as a
//!    window of one or of many.
//! 2. **Plan** (worker thread): the plan cache answers with a memoized
//!    plan or single-flights one optimization against the *pinned*
//!    snapshot (corrections and quarantines from the shared monitor
//!    apply). The cached plan keeps the optimizer's report and PP
//!    filters, so later steps learn which PP runs, under which leaf keys,
//!    from the plan itself; a plan the monitor has since made
//!    [`stale`](RuntimeMonitor::stale) is rebuilt by the next
//!    maintenance pass.
//! 3. **Admit, part 2**: the plan's predicted cluster-seconds are checked
//!    against the per-query budget; too-expensive plans are shed before
//!    any UDF runs.
//! 4. **Execute**: a fresh [`ExecutionContext`] runs the plan — per-query
//!    isolation is what makes concurrent and serial schedules
//!    byte-identical.
//! 5. **Fold**: the run, completed or failed, feeds the shared monitor
//!    through [`observe_run`](RuntimeMonitor::observe_run) (calibration,
//!    drift, fault quarantine) and the per-query metrics registry is
//!    merged into the server-wide one.
//!
//! Publishing a retrained corpus ([`publish_pps`][PpServer::publish_pps])
//! bumps the epoch, invalidates exactly the superseded cache entries, and
//! never pauses in-flight queries — they hold their pinned snapshots.
//!
//! # Cancellation and drain
//!
//! Every admitted submit mints a [`CancelToken`] (deadline-armed when the
//! request carries one), enters it in the server's in-flight map under
//! the request's id, and hands a cancel handle back on the
//! [`QueryTicket`]. The execution context polls the token at batch
//! boundaries; a fired token surfaces as [`QueryOutcome::Cancelled`] with
//! the partial work actually billed. A worker-side `ResponseGuard` owns
//! the map entry and the response channel, so **every** submit ends in
//! exactly one typed response — a panicking worker lands as `Failed`
//! (and fires the token with [`CancelReason::WorkerPanic`]), a
//! drain-abandoned job lands as `Cancelled`, and the ticket never hangs. [`PpServer::drain`] runs the
//! graceful-exit choreography: stop intake → grace → cancel stragglers →
//! abandon what remains → flush maintenance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pp_core::catalog::{CatalogEpoch, CatalogSnapshot, VersionedPpCatalog};
use pp_core::planner::{PpQueryOptimizer, QoConfig};
use pp_core::runtime::RuntimeMonitor;
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_engine::cancel::{CancelReason, CancelToken};
use pp_engine::exec::ExecutionContext;
use pp_engine::memo::UdfMemo;
use pp_engine::sync::{Condvar, Mutex};
use pp_engine::telemetry::MetricsRegistry;
use pp_engine::{Catalog, EngineError};

use crate::admission::{check_cost_budget, AdmissionConfig};
use crate::audit::{AuditConfig, Auditor};
use crate::cache::{CacheConfig, CacheKey, CacheStats, CachedPlan, Lookup, PlanCache};
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
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    /// The cancellation token of every admitted query not yet answered,
    /// by request id: the one record of what is in flight. Admission sheds
    /// on its length, drain fires these tokens and worker panics latch
    /// them.
    active: Mutex<HashMap<u64, CancelToken>>,
    /// Notified whenever an entry leaves `active`.
    settled: Condvar,
}

impl ServerInner {
    /// Admitted queries not yet answered.
    fn in_flight(&self) -> usize {
        self.active.lock().len()
    }

    /// Blocks until no query is in flight or `timeout` elapses; returns
    /// `true` when idle.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock();
        while !active.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            active = self.settled.wait_timeout(active, deadline - now).0;
        }
        true
    }

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
            QoConfig { accuracy_target },
        );
        let optimized = qo.optimize_with_monitor(&nop, &self.data, Some(&self.monitor))?;
        Ok(CachedPlan {
            plan: optimized.plan,
            report: Arc::new(optimized.report),
            pp_filter: optimized.pp_filter,
            predicate: predicate.clone(),
            accuracy_target,
        })
    }
}

/// Guarantees exactly one typed [`QueryResponse`] per submit. The guard
/// owns the request's in-flight entry and the response channel; the
/// worker job either `finish`es it with a real outcome, or — if the job
/// panics or is dropped unexecuted by an abandoning drain — the `Drop`
/// impl sends the appropriate terminal outcome. Either way the entry
/// leaves the in-flight map *before* the response becomes visible.
pub(crate) struct ResponseGuard {
    inner: Arc<ServerInner>,
    request_id: u64,
    cancel: CancelToken,
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
        // The entry is gone *before* the response is visible, so a caller
        // unblocked by `wait()` observes the slot as free.
        self.inner.active.lock().remove(&self.request_id);
        self.inner.settled.notify_all();
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
        let monitor = Arc::new(RuntimeMonitor::new());
        let workers = config.workers;
        let cache = PlanCache::with_config(config.cache.clone());
        let shared = Arc::new(SharedScanCoordinator::new(config.sharedscan.clone()));
        let inner = Arc::new(ServerInner {
            data,
            sources,
            pps: VersionedPpCatalog::new(initial_pps),
            domains,
            monitor,
            cache,
            metrics: MetricsRegistry::new(),
            config,
            audit: Auditor::new(),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
        });
        PpServer {
            inner,
            pool: WorkerPool::new(workers),
            shared,
        }
    }

    /// Admission: shutdown/source checks, the queue-depth check with the
    /// id mint and cancel-token registration, snapshot pin, and the
    /// response guard + ticket plumbing.
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
        // The deadline clock starts here, at submit — queue time counts.
        let cancel = match request.deadline {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        let request_id = {
            let mut active = self.inner.active.lock();
            let limit = self.inner.config.admission.max_queue_depth;
            if active.len() >= limit {
                self.inner.metrics.counter("server.rejected_total").inc();
                return Err(RejectReason::QueueFull {
                    depth: active.len(),
                    limit,
                });
            }
            // Ids go to admitted requests only: audit coins key on them.
            let request_id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
            active.insert(request_id, cancel.clone());
            request_id
        };
        // Pin the catalog snapshot *now*: whatever corpus is current at
        // submit time is the corpus this query plans against, regardless
        // of when a worker picks it up or what gets published meanwhile.
        let snapshot = self.inner.pps.snapshot();
        let (tx, rx) = mpsc::channel();
        let guard = ResponseGuard {
            inner: Arc::clone(&self.inner),
            request_id,
            cancel: cancel.clone(),
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
            // already took their entries out of the in-flight map.
            return Err(RejectReason::ShuttingDown);
        }
        Ok(ticket)
    }

    /// Publishes a retrained PP corpus under the next epoch, invalidating
    /// exactly the cache entries planned against superseded epochs.
    /// In-flight queries keep their pinned snapshots.
    pub fn publish_pps(&self, pps: PpCatalog) -> CatalogEpoch {
        let epoch = self.inner.pps.publish(pps);
        self.inner.cache.invalidate(|key, _| key.epoch < epoch);
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
        self.inner.in_flight()
    }

    /// Runs one maintenance pass synchronously: folds nothing new (that
    /// happens per query) but runs the accuracy audit, invalidates every
    /// current-epoch cached plan the monitor calls
    /// [`stale`](RuntimeMonitor::stale), and rebuilds each through the
    /// cache's single-flight miss path. It runs on the caller's thread;
    /// the server starts no timer of its own.
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
        let in_flight_at_drain = self.inner.in_flight();
        let grace = timeout.mul_f64(0.8);
        let clean = self.inner.wait_idle(grace);
        let mut cancelled = 0usize;
        if !clean {
            let tokens: Vec<CancelToken> = self.inner.active.lock().values().cloned().collect();
            for token in &tokens {
                if token.cancel(CancelReason::Drain) {
                    cancelled += 1;
                }
            }
            self.inner.wait_idle(timeout.saturating_sub(grace));
        }
        let idle = self.inner.in_flight() == 0;
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
        let still_running = self.inner.in_flight();
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
    let (cached, lookup) = match built {
        Ok(pair) => pair,
        Err(e) => {
            inner.metrics.counter("server.failed_total").inc();
            return QueryOutcome::Failed(e.to_string());
        }
    };
    // A plan another caller was building is a hit that waited for it.
    trace.note(match lookup {
        Lookup::Hit => "hit",
        Lookup::Waited => "wait",
        Lookup::Built => "build",
    });
    let cache_hit = lookup != Lookup::Built;
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
    if let Some(k) = request.parallelism {
        builder = builder.with_parallelism(k);
    }
    let mut ctx = builder.build();
    trace.enter(RequestStage::Execute);
    let result = ctx.run(&cached.plan);
    // Fold this run into the shared state regardless of outcome: service
    // metrics always, and the run into the monitor, which counts faults
    // toward quarantine always and calibrates only on a run that did not
    // fail (a failed *query* has no meaningful reduction).
    inner.metrics.merge(ctx.registry());
    let telemetry = ctx.telemetry().cloned();
    if let Some(t) = &telemetry {
        inner.monitor.observe_run(&cached.report, t);
    }
    match result {
        Ok(rows) => {
            let Some(telemetry) = telemetry else {
                inner.metrics.counter("server.failed_total").inc();
                return QueryOutcome::Failed("run completed without a telemetry snapshot".into());
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;
    use crate::AuditConfig;
    use pp_core::train::{PpTrainer, TrainerConfig};
    use pp_data::traffic::{TrafficConfig, TrafficDataset};
    use pp_engine::predicate::Predicate;
    use pp_ml::pipeline::{Approach, ModelSpec};
    use pp_ml::reduction::ReducerSpec;
    use pp_ml::svm::SvmParams;

    /// The in-flight map is the queue depth: at the limit a submit is shed
    /// and gets no id, and a response frees its slot before `wait()`
    /// returns.
    #[test]
    fn admission_sheds_on_the_in_flight_map() {
        use pp_engine::predicate::{Clause, CompareOp};
        use pp_engine::row::{Row, Rowset};
        use pp_engine::schema::{Column, DataType, Schema};
        use pp_engine::udf::ClosureProcessor;
        use pp_engine::value::Value;

        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).expect("schema");
        let rows = vec![Row::new(vec![Value::Int(1)])];
        let mut catalog = Catalog::new();
        catalog.register("t", Rowset::new(schema, rows).expect("rowset"));
        // The UDF answers once per token sent, so a query stays in flight
        // until the test lets it go.
        let (release, tokens) = mpsc::channel::<()>();
        let tokens = Mutex::new(tokens);
        let udf = ClosureProcessor::map(
            "Held",
            vec![Column::new("x", DataType::Int)],
            0.01,
            move |_, _, out| {
                let _ = tokens.lock().recv();
                out.push(Value::Int(1));
                Ok(())
            },
        );
        let mut sources = SourceRegistry::new();
        sources.register("t", SourceSpec::new("t").with_udf("x", Arc::new(udf)));
        let server = PpServer::new(
            ServerConfig {
                workers: 1,
                admission: AdmissionConfig {
                    max_queue_depth: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            catalog,
            sources,
            PpCatalog::new(),
            Domains::new(),
        );
        let request = || QueryRequest::new("t", Clause::new("x", CompareOp::Eq, 1i64).into(), 0.9);
        let held = server.submit(request()).expect("admitted");
        assert_eq!(server.in_flight(), 1);
        match server.submit(request()) {
            Err(RejectReason::QueueFull { depth: 1, limit: 1 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release.send(()).expect("the UDF waits");
        assert!(held.wait().outcome.success().is_some());
        assert_eq!(server.in_flight(), 0, "answered, so out of the map");
        release.send(()).expect("the UDF waits");
        let next = server.submit(request()).expect("the slot is free");
        assert_eq!(next.request_id(), 2, "the shed submit minted no id");
        assert!(next.wait().outcome.success().is_some());
    }

    /// An audit pass scores the rows it samples through a filter of its
    /// own: the served plan's per-leaf counters count served runs only.
    #[test]
    fn an_audit_pass_leaves_the_served_filter_counters_alone() {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0xA0D17,
            ..Default::default()
        });
        let clause = TrafficDataset::pp_corpus_clauses().remove(0);
        let labeled = dataset.labeled_for_clause_range(&clause, 0..400);
        let pps = PpTrainer::new(TrainerConfig {
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(0.0025),
            ..Default::default()
        })
        .train_catalog(std::slice::from_ref(&clause), &[labeled])
        .expect("train");
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        let mut sources = SourceRegistry::new();
        let udf = dataset.udf(&clause.column).expect("known column");
        sources.register(
            "traffic",
            SourceSpec::new("traffic").with_udf(&clause.column, udf),
        );
        let server = PpServer::new(
            ServerConfig {
                workers: 1,
                audit: AuditConfig {
                    sample_fraction: 1.0,
                },
                ..Default::default()
            },
            catalog,
            sources,
            pps,
            domains,
        );
        let predicate = Predicate::from(clause);
        for _ in 0..2 {
            let request = QueryRequest::new("traffic", predicate.clone(), 0.9);
            let response = server.submit(request).expect("admitted").wait();
            assert!(response.outcome.success().is_some(), "the query completes");
        }
        let key = CacheKey::new("traffic", &predicate, 0.9, server.epoch());
        let (plan, lookup) = (server.inner.cache)
            .get_or_build(&key, || Err("the served plan is cached"))
            .expect("cached");
        assert_eq!(lookup, Lookup::Hit);
        let filter = plan.pp_filter.as_ref().expect("a PP was injected");
        let served = filter.leaf_rows_scored();
        assert_eq!(served, vec![2 * 400], "two runs over 400 frames");
        assert!(server.maintenance_now().audit.replays > 0);
        assert_eq!(filter.leaf_rows_scored(), served);
    }
}
