//! The unified execution API: [`ExecutionContext`] bundles everything a
//! query run needs — catalog, cost model, resilience policy, optional
//! fault injection, and parallelism — behind one builder. It is the only
//! way to execute a plan; the historical five-argument free functions
//! (`execute` / `execute_with`) have been removed.
//!
//! ```
//! use std::sync::Arc;
//! use pp_engine::exec::ExecutionContext;
//! use pp_engine::row::{Row, Rowset};
//! use pp_engine::schema::{Column, DataType, Schema};
//! use pp_engine::value::Value;
//! use pp_engine::{Catalog, LogicalPlan};
//!
//! let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
//! let rows = (0..8).map(|i| Row::new(vec![Value::Int(i)])).collect();
//! let mut catalog = Catalog::new();
//! catalog.register("t", Rowset::new(schema, rows).unwrap());
//!
//! let mut ctx = ExecutionContext::builder(&catalog).with_parallelism(4).build();
//! let out = ctx.run(&LogicalPlan::scan("t")).unwrap();
//! assert_eq!(out.len(), 8);
//! assert!(ctx.metrics().is_some());
//! ```
//!
//! # Determinism contract
//!
//! For a fixed plan, catalog, resilience config, and fault seed, `run`
//! returns byte-identical results, row order, operator spans, and
//! cost-meter charges for **every** `parallelism` setting — workers only
//! *probe* rows (pure retry loops keyed off row identity), while all
//! stateful accounting is replayed sequentially in global row order. See
//! the [`physical`](crate::physical) module docs for how.
//!
//! # One ledger
//!
//! The executor writes one record per operator, its
//! [`OperatorSpan`](crate::telemetry::OperatorSpan): rows, attempts,
//! retries, failures, timeouts, fail-opens, short-circuits, the breaker
//! trip, and the seconds charged. Everything else `run` leaves behind —
//! the [`CostMeter`], [`QueryMetrics`], the registry's `retries_total` /
//! `failures_total` / `breaker_trips_total` — is a view of the finished
//! spans, taken once at the end of `run`, on success and on failure
//! alike. Recovery overhead is `span.seconds − span.attempts ×
//! cost_per_row`.

use std::sync::Arc;
use std::time::Instant;

use crate::cancel::CancelToken;
use crate::catalog::Catalog;
use crate::cost::{CostMeter, CostModel, QueryMetrics};
use crate::fault::{FaultLog, FaultPlan};
use crate::logical::LogicalPlan;
use crate::memo::UdfMemo;
use crate::physical::{ExecOptions, Executor};
use crate::resilience::{ExecSession, ResilienceConfig};
use crate::row::Rowset;
use crate::telemetry::{EventKind, MetricsRegistry, QueryId, SpanCollector, TelemetrySnapshot};
use crate::Result;

/// Builder for [`ExecutionContext`]. Created by
/// [`ExecutionContext::builder`]; every knob is optional and defaults to
/// the serial, fault-free configuration the free functions used.
#[derive(Debug)]
pub struct ExecutionContextBuilder<'a> {
    catalog: &'a Catalog,
    model: CostModel,
    resilience: ResilienceConfig,
    fault_plan: Option<FaultPlan>,
    opts: ExecOptions,
    cancel: Option<CancelToken>,
    udf_memo: Option<Arc<UdfMemo>>,
}

impl<'a> ExecutionContextBuilder<'a> {
    /// Sets the cost model used for operator charging and derived metrics.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the resilience policy (retries, timeouts, breakers, fail-open).
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = config;
        self
    }

    /// Installs a seeded fault-injection plan applied to every plan passed
    /// to [`ExecutionContext::run`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the number of worker threads for row-parallel operators
    /// (clamped to at least 1; 1 means fully serial, the default). This
    /// is a request: a fan-out never spawns more threads than
    /// [`std::thread::available_parallelism`] reports, and output bytes
    /// never depend on how many it got.
    pub fn with_parallelism(mut self, k: usize) -> Self {
        self.opts = ExecOptions::new(k, self.opts.batch_size(), self.opts.morsel_size());
        self
    }

    /// Sets the number of rows per batch a probe step evaluates
    /// (clamped to at least 1; defaults to 256).
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.opts = ExecOptions::new(self.opts.parallelism(), rows, self.opts.morsel_size());
        self
    }

    /// Sets the number of rows per morsel — the contiguous row range a
    /// worker claims off the shared scheduler counter (clamped to at
    /// least 1; defaults to 1024). Smaller morsels steal more evenly;
    /// larger morsels amortize claim overhead. Output bytes never depend
    /// on the setting.
    pub fn with_morsel_size(mut self, rows: usize) -> Self {
        self.opts = ExecOptions::new(self.opts.parallelism(), self.opts.batch_size(), rows);
        self
    }

    /// Installs a cooperative [`CancelToken`] polled at batch and group
    /// boundaries of every [`ExecutionContext::run`]. A fired token stops
    /// the run with [`EngineError::Cancelled`](crate::EngineError::Cancelled),
    /// charging the cost meter for exactly the work consumed; a token
    /// that never fires changes nothing (the default is a token nobody
    /// can fire).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Installs a fresh deadline token: runs are cancelled once `deadline`
    /// has elapsed from this call. Replaces any previously installed
    /// token; use [`with_cancel_token`][Self::with_cancel_token] with
    /// [`CancelToken::with_deadline`] to share or inspect the token.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.cancel = Some(CancelToken::with_deadline(deadline));
        self
    }

    /// Installs a shared [`UdfMemo`]: every `Process` node of every plan
    /// passed to [`ExecutionContext::run`] is wrapped in a
    /// [`MemoProcessor`](crate::memo::MemoProcessor) consulting it, so
    /// contexts sharing one memo (a shared-scan window) invoke each
    /// expensive UDF at most once per distinct input row. The rewrite is
    /// applied *before* any installed fault plan, so fault shims wrap the
    /// memoized UDF and injected faults fire (and corrupt) exactly as
    /// they would solo; `CostMeter` charges, telemetry, and verdicts are
    /// unchanged by construction (see [`crate::memo`]).
    pub fn with_udf_memo(mut self, memo: Arc<UdfMemo>) -> Self {
        self.udf_memo = Some(memo);
        self
    }

    /// Finalizes the context.
    pub fn build(self) -> ExecutionContext<'a> {
        let fault_log = Arc::new(FaultLog::new());
        ExecutionContext {
            catalog: self.catalog,
            model: self.model,
            session: ExecSession::new(self.resilience),
            fault_plan: self
                .fault_plan
                .map(|fp| fp.with_log(Arc::clone(&fault_log))),
            fault_log,
            opts: self.opts,
            meter: CostMeter::new(),
            metrics: None,
            registry: MetricsRegistry::new(),
            telemetry: None,
            runs: 0,
            cancel: self.cancel.unwrap_or_default(),
            udf_memo: self.udf_memo,
        }
    }
}

/// A configured query-execution environment: catalog + cost model +
/// resilience session + optional fault plan + parallelism, with the cost
/// meter and derived [`QueryMetrics`] of the most recent run.
///
/// The context is stateful across runs the way a long-lived cluster
/// service is: circuit breakers persist from one [`run`][Self::run] to
/// the next (inspect one with [`breaker_open`][Self::breaker_open], clear
/// it with [`reset_breaker`][Self::reset_breaker]). Everything counted is
/// per run: [`telemetry`][Self::telemetry], [`meter`][Self::meter] and
/// [`metrics`][Self::metrics] always describe the latest query.
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    catalog: &'a Catalog,
    model: CostModel,
    session: ExecSession,
    fault_plan: Option<FaultPlan>,
    fault_log: Arc<FaultLog>,
    opts: ExecOptions,
    meter: CostMeter,
    metrics: Option<QueryMetrics>,
    registry: MetricsRegistry,
    telemetry: Option<TelemetrySnapshot>,
    runs: u64,
    cancel: CancelToken,
    udf_memo: Option<Arc<UdfMemo>>,
}

impl<'a> ExecutionContext<'a> {
    /// Starts building a context over `catalog` with serial, fault-free
    /// defaults.
    pub fn builder(catalog: &'a Catalog) -> ExecutionContextBuilder<'a> {
        ExecutionContextBuilder {
            catalog,
            model: CostModel::default(),
            resilience: ResilienceConfig::default(),
            fault_plan: None,
            opts: ExecOptions::default(),
            cancel: None,
            udf_memo: None,
        }
    }

    /// A context over `catalog` with all defaults (equivalent to
    /// `ExecutionContext::builder(catalog).build()`).
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::builder(catalog).build()
    }

    /// Executes `plan`, applying the installed fault plan (if any), and
    /// refreshes [`telemetry`][Self::telemetry] and the cost meter, which
    /// is filled from the run's spans. On success it also refreshes
    /// [`metrics`][Self::metrics]; on failure `metrics` stays `None` (no
    /// stale metrics from a previous run) while the telemetry snapshot
    /// and the meter record the error plus every span charged before the
    /// abort.
    pub fn run(&mut self, plan: &LogicalPlan) -> Result<Rowset> {
        let start = Instant::now();
        self.meter = CostMeter::new();
        self.metrics = None;
        self.telemetry = None;
        self.runs += 1;
        let query_id = QueryId(self.runs);
        let mut tel = SpanCollector::new(&self.registry);
        // Memoize before fault application so fault shims wrap the
        // memoized UDFs: injected faults fire identically to solo runs
        // and corrupted outputs are never cached.
        let memoized;
        let plan = match &self.udf_memo {
            Some(memo) => {
                memoized = crate::memo::memoize_plan(plan, memo);
                &memoized
            }
            None => plan,
        };
        let faulted;
        let plan = match &self.fault_plan {
            Some(fp) => {
                faulted = fp.apply(plan);
                &faulted
            }
            None => plan,
        };
        let result = Executor {
            catalog: self.catalog,
            model: &self.model,
            session: &mut self.session,
            opts: self.opts,
            tel: &mut tel,
            cancel: &self.cancel,
        }
        .run(plan);
        // Breaker transitions (trips during this run, plus any manual
        // resets since the last run) become events, in the deterministic
        // order the session recorded them.
        for t in self.session.take_transitions() {
            let kind = if t.opened {
                EventKind::BreakerOpened
            } else {
                EventKind::BreakerReset
            };
            tel.push_event(&t.op, None, kind, 1);
        }
        let injected = self.fault_log.drain();
        let wall = start.elapsed().as_nanos() as u64;

        // Registry accounting (cumulative across runs; everything here is
        // deterministic except the wall-clock gauge, which
        // `zero_wall_clock` scrubs).
        self.registry.counter("queries_total").inc();
        if result.is_err() {
            self.registry.counter("queries_failed_total").inc();
        }
        let spans = tel.spans();
        // The meter is the spans' (op, rows in, rows emitted, seconds),
        // in charge order — whether or not the run got to its end.
        for span in spans {
            self.meter.charge(
                span.op.clone(),
                span.rows_in as usize,
                span.rows_emitted as usize,
                span.seconds,
            );
        }
        let retries: u64 = spans.iter().map(|s| s.retries).sum();
        let failures: u64 = spans.iter().map(|s| s.failures).sum();
        let trips = spans.iter().filter(|s| s.breaker_tripped).count() as u64;
        self.registry.counter("retries_total").add(retries);
        self.registry.counter("failures_total").add(failures);
        self.registry.counter("breaker_trips_total").add(trips);
        self.registry
            .counter("injected_faults_total")
            .add(injected.len() as u64);
        if let Ok(out) = &result {
            self.registry
                .counter("rows_emitted_total")
                .add(out.len() as u64);
        }
        self.registry.gauge("last_run_wall_nanos").set(wall as f64);

        let error = result.as_ref().err().map(|e| e.to_string());
        self.telemetry = Some(tel.finish(
            query_id,
            injected,
            self.registry.snapshot_samples(),
            error,
            wall,
        ));
        match result {
            Ok(out) => {
                self.metrics = Some(self.meter.metrics(&self.model));
                Ok(out)
            }
            Err(e) => {
                // Explicitly guarantee the no-stale-metrics contract on
                // every error path.
                self.metrics = None;
                Err(e)
            }
        }
    }

    /// The catalog this context executes against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The cost model used for charging and metric derivation.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Worker threads used for row-parallel operators.
    pub fn parallelism(&self) -> usize {
        self.opts.parallelism()
    }

    /// Rows per batch a probe step evaluates.
    pub fn batch_size(&self) -> usize {
        self.opts.batch_size()
    }

    /// Rows per morsel claimed by scheduler workers.
    pub fn morsel_size(&self) -> usize {
        self.opts.morsel_size()
    }

    /// The cost meter of the most recent [`run`][Self::run] (empty before
    /// the first run).
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Derived cluster-seconds / latency metrics of the most recent
    /// *successful* [`run`][Self::run], or `None` before one.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        self.metrics.as_ref()
    }

    /// Whether `op`'s circuit breaker is currently open.
    pub fn breaker_open(&self, op: &str) -> bool {
        self.session.breaker_open(op)
    }

    /// Manually closes one operator's circuit breaker (e.g. after
    /// redeploying a fixed UDF).
    pub fn reset_breaker(&mut self, op: &str) {
        self.session.reset_breaker(op);
    }

    /// The telemetry snapshot of the most recent [`run`][Self::run]
    /// (successful or not), or `None` before the first run.
    pub fn telemetry(&self) -> Option<&TelemetrySnapshot> {
        self.telemetry.as_ref()
    }

    /// The cancellation token this context polls during runs (a default,
    /// never-fired token unless one was installed at build time).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The context's metrics registry: named counters/gauges/histograms
    /// accumulated across runs (including the scheduling-dependent
    /// `worker.*` namespace that is excluded from snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::resilience::RetryPolicy;
    use crate::row::Row;
    use crate::schema::{Column, DataType, Schema};
    use crate::udf::ClosureFilter;
    use crate::value::Value;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let rows = (0..64).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut c = Catalog::new();
        c.register("t", Rowset::new(schema, rows).unwrap());
        c
    }

    fn even_filter() -> Arc<ClosureFilter> {
        Arc::new(ClosureFilter::new("PP[even]", 0.01, |row, _| {
            Ok(row.get(0).as_int()? % 2 == 0)
        }))
    }

    #[test]
    fn run_resets_meter_and_sets_metrics() {
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let mut ctx = ExecutionContext::new(&cat);
        assert!(ctx.metrics().is_none());
        let out = ctx.run(&plan).unwrap();
        assert_eq!(out.len(), 32);
        let first = ctx.meter().cluster_seconds();
        assert!(first > 0.0);
        assert!(ctx.metrics().is_some());
        // A second run re-meters from zero instead of accumulating.
        ctx.run(&plan).unwrap();
        assert!((ctx.meter().cluster_seconds() - first).abs() < 1e-12);
    }

    #[test]
    fn parallel_context_matches_serial() {
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let mut serial = ExecutionContext::builder(&cat).build();
        let mut parallel = ExecutionContext::builder(&cat)
            .with_parallelism(4)
            .with_batch_size(8)
            .build();
        let a = serial.run(&plan).unwrap();
        let b = parallel.run(&plan).unwrap();
        assert_eq!(format!("{:?}", a.rows()), format!("{:?}", b.rows()));
        assert_eq!(serial.meter().entries(), parallel.meter().entries());
        let spans = |ctx: &ExecutionContext<'_>| {
            let mut snap = ctx.telemetry().unwrap().clone();
            snap.zero_wall_clock();
            snap.spans
        };
        assert_eq!(spans(&serial), spans(&parallel));
    }

    #[test]
    fn failed_run_clears_stale_metrics_and_records_error_telemetry() {
        use crate::predicate::{Clause, CompareOp, Predicate};
        let cat = catalog();
        let good = LogicalPlan::scan("t").filter(even_filter());
        // Selecting on a column the schema doesn't have fails the run.
        let bad = LogicalPlan::scan("t").select(Predicate::from(Clause::new(
            "missing",
            CompareOp::Eq,
            1i64,
        )));
        let mut ctx = ExecutionContext::new(&cat);
        ctx.run(&good).unwrap();
        assert!(ctx.metrics().is_some());
        let err = ctx.run(&bad).unwrap_err();
        assert!(matches!(err, crate::EngineError::UnknownColumn(_)));
        // Regression: the previous run's metrics must not survive a failed
        // run — callers polling `metrics()` would misattribute them.
        assert!(
            ctx.metrics().is_none(),
            "stale metrics leaked through a failed run"
        );
        // The failure is still observable: the snapshot carries the error
        // and whatever spans completed before it.
        let snap = ctx.telemetry().expect("snapshot recorded on failure");
        assert_eq!(snap.query_id, QueryId(2));
        assert!(snap.error.as_deref().unwrap().contains("missing"));
        assert!(snap.span("Scan[").is_some(), "the scan span was charged");
        assert!(snap.span("Select[").is_none(), "no charge, no span");
        // A later successful run recovers cleanly.
        ctx.run(&good).unwrap();
        assert!(ctx.metrics().is_some());
        assert_eq!(ctx.telemetry().unwrap().query_id, QueryId(3));
        assert!(ctx.telemetry().unwrap().error.is_none());
    }

    #[test]
    fn pre_cancelled_token_stops_run_before_any_charge() {
        use crate::cancel::{CancelReason, CancelToken};
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let token = CancelToken::new();
        token.cancel(CancelReason::Requested);
        let mut ctx = ExecutionContext::builder(&cat)
            .with_cancel_token(token)
            .build();
        let err = ctx.run(&plan).unwrap_err();
        assert!(matches!(
            err,
            crate::EngineError::Cancelled {
                reason: CancelReason::Requested
            }
        ));
        assert!(ctx.metrics().is_none());
        assert!(ctx.meter().entries().is_empty(), "nothing ran, no charge");
        let snap = ctx.telemetry().expect("cancelled run records telemetry");
        assert!(snap.error.as_deref().unwrap().contains("cancelled"));
    }

    #[test]
    fn mid_run_cancellation_keeps_completed_operator_charges() {
        use crate::cancel::{CancelReason, CancelToken};
        let cat = catalog();
        let token = CancelToken::new();
        let tok = token.clone();
        let trip = Arc::new(ClosureFilter::new("PP[trip]", 0.01, move |row, _| {
            if row.get(0).as_int()? == 32 {
                tok.cancel(CancelReason::Requested);
            }
            Ok(true)
        }));
        let plan = LogicalPlan::scan("t").filter(trip);
        let mut ctx = ExecutionContext::builder(&cat)
            .with_batch_size(8)
            .with_cancel_token(token)
            .build();
        let err = ctx.run(&plan).unwrap_err();
        assert!(matches!(err, crate::EngineError::Cancelled { .. }));
        // The scan completed before the token fired, so its charge stands
        // — partial-work accounting, not a rollback.
        assert!(ctx
            .meter()
            .entries()
            .iter()
            .any(|e| e.op.starts_with("Scan")));
        assert!(ctx.metrics().is_none());
    }

    #[test]
    fn unfired_token_keeps_every_schedule_byte_identical() {
        use crate::cancel::CancelToken;
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let mut plain = ExecutionContext::builder(&cat).build();
        let baseline = plain.run(&plan).unwrap();
        for k in [1usize, 2, 4, 8] {
            for b in [1usize, 7, 64] {
                let mut ctx = ExecutionContext::builder(&cat)
                    .with_parallelism(k)
                    .with_batch_size(b)
                    .with_cancel_token(CancelToken::new())
                    .build();
                let out = ctx.run(&plan).unwrap();
                assert_eq!(
                    format!("{:?}", baseline.rows()),
                    format!("{:?}", out.rows()),
                    "K={k} batch={b}"
                );
                assert_eq!(plain.meter().entries(), ctx.meter().entries());
            }
        }
    }

    #[test]
    fn fault_plan_applies_on_every_run() {
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let mut ctx = ExecutionContext::builder(&cat)
            .with_resilience(ResilienceConfig::default().with_retry(RetryPolicy::none()))
            .with_fault_plan(FaultPlan::new(7).inject("PP[even]", FaultSpec::transient(1.0)))
            .build();
        // Dead filter fails open on every row: nothing is dropped.
        let out = ctx.run(&plan).unwrap();
        assert_eq!(out.len(), 64);
        let pp = ctx.telemetry().unwrap().span("PP[even]").expect("PP ran");
        assert!(pp.failures > 0);
        assert_eq!(pp.failed_open, 64);
        // Breakers persist across runs: the second run short-circuits.
        assert!(ctx.breaker_open("PP[even]"));
        ctx.run(&plan).unwrap();
        ctx.reset_breaker("PP[even]");
        assert!(!ctx.breaker_open("PP[even]"));
    }
}
