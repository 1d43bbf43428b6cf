//! The unified execution API: [`ExecutionContext`] bundles everything a
//! query run needs — catalog, optional fault injection, and parallelism —
//! behind one builder. It is the only way to execute a plan.
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
//! assert!(ctx.meter().cluster_seconds() > 0.0);
//! ```
//!
//! # Determinism contract
//!
//! For a fixed plan, catalog, and fault seed, `run` returns byte-identical
//! results, row order, operator spans, and cost-meter charges for
//! **every** `parallelism` setting — workers only
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
//! the [`CostMeter`], the registry's `retries_total` /
//! `failures_total` / `breaker_trips_total` — is a view of the finished
//! spans, taken once at the end of `run`, on success and on failure
//! alike. Recovery overhead is `span.seconds − span.attempts ×
//! cost_per_row`.

use std::sync::Arc;
use std::time::Instant;

use crate::cancel::CancelToken;
use crate::catalog::Catalog;
use crate::cost::CostMeter;
use crate::fault::{FaultLog, FaultPlan};
use crate::logical::LogicalPlan;
use crate::memo::UdfMemo;
use crate::physical::{ExecOptions, Executor};
use crate::row::Rowset;
use crate::telemetry::{EventKind, MetricsRegistry, QueryId, SpanCollector, TelemetrySnapshot};
use crate::Result;

/// Builder for [`ExecutionContext`]. Created by
/// [`ExecutionContext::builder`]; every knob is optional and defaults to
/// the serial, fault-free configuration.
#[derive(Debug)]
pub struct ExecutionContextBuilder<'a> {
    catalog: &'a Catalog,
    fault_plan: Option<FaultPlan>,
    opts: ExecOptions,
    cancel: Option<CancelToken>,
    udf_memo: Option<Arc<UdfMemo>>,
}

impl<'a> ExecutionContextBuilder<'a> {
    /// Installs a seeded fault-injection plan applied to every plan passed
    /// to [`ExecutionContext::run`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the number of threads row-parallel operators fan out on
    /// (clamped to at least 1; 1 means fully serial, the default): the
    /// calling thread and up to `k − 1` of the process's helper threads.
    /// This is a request: a fan-out never runs on more threads than
    /// [`std::thread::available_parallelism`] reports, it spawns none
    /// (helpers are started once per process, on demand), and output
    /// bytes never depend on how many it got.
    pub fn with_parallelism(mut self, k: usize) -> Self {
        self.opts = ExecOptions::new(k, self.opts.batch_size());
        self
    }

    /// Sets the number of rows per batch a probe step evaluates
    /// (clamped to at least 1; defaults to 256). A worker claims four
    /// batches at a time. `1` is the scalar reference the determinism
    /// contract is stated against: output bytes never depend on the
    /// setting.
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.opts = ExecOptions::new(self.opts.parallelism(), rows);
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

    /// Installs a shared [`UdfMemo`]: every `Process` node of every plan
    /// passed to [`ExecutionContext::run`] is wrapped in a shim consulting
    /// it ([`memoize_plan`](crate::memo::memoize_plan)), so
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
            fault_plan: self
                .fault_plan
                .map(|fp| fp.with_log(Arc::clone(&fault_log))),
            fault_log,
            opts: self.opts,
            meter: CostMeter::new(),
            registry: MetricsRegistry::new(),
            telemetry: None,
            runs: 0,
            cancel: self.cancel.unwrap_or_default(),
            udf_memo: self.udf_memo,
        }
    }
}

/// A configured query-execution environment: catalog + optional fault
/// plan + parallelism, with the cost meter of the most recent run. Every
/// run recovers from failed UDF calls under the one fixed policy of
/// [`resilience`](crate::resilience).
///
/// A circuit breaker belongs to one fail-open filter for one run, so
/// every run starts with its breakers closed; what runs have shown about
/// a failing PP is the runtime monitor's to remember. Everything counted
/// is per run too: [`telemetry`][Self::telemetry] and [`meter`][Self::meter]
/// always describe the latest query; only the [`registry`][Self::registry]
/// accumulates across runs.
#[derive(Debug)]
pub struct ExecutionContext<'a> {
    catalog: &'a Catalog,
    fault_plan: Option<FaultPlan>,
    fault_log: Arc<FaultLog>,
    opts: ExecOptions,
    meter: CostMeter,
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
    /// is filled from the run's spans. On failure the telemetry snapshot
    /// and the meter record the error plus every span charged before the
    /// abort.
    pub fn run(&mut self, plan: &LogicalPlan) -> Result<Rowset> {
        let start = Instant::now();
        self.meter = CostMeter::new();
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
            opts: self.opts,
            tel: &mut tel,
            cancel: &self.cancel,
        }
        .run(plan);
        // One event per tripped breaker, after every operator's events.
        // Operators finish in span order and only a fail-open filter
        // trips, so span order is the order the breakers opened in.
        let opened: Vec<String> = tel
            .spans()
            .iter()
            .filter(|s| s.breaker_tripped)
            .map(|s| s.op.clone())
            .collect();
        for op in &opened {
            tel.push_event(op, None, EventKind::BreakerOpened, 1);
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
        result
    }

    /// The catalog this context executes against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The cost meter of the most recent [`run`][Self::run] (empty before
    /// the first run).
    pub fn meter(&self) -> &CostMeter {
        &self.meter
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
    use crate::row::Row;
    use crate::schema::{Column, DataType, Schema};
    use crate::udf::ClosureFilter;
    use crate::value::Value;
    use crate::EngineError;
    use std::sync::atomic::{AtomicBool, Ordering};
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
    fn run_resets_the_meter() {
        let cat = catalog();
        let plan = LogicalPlan::scan("t").filter(even_filter());
        let mut ctx = ExecutionContext::new(&cat);
        assert!(ctx.meter().entries().is_empty());
        let out = ctx.run(&plan).unwrap();
        assert_eq!(out.len(), 32);
        let first = ctx.meter().cluster_seconds();
        assert!(first > 0.0);
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
    fn failed_run_records_error_telemetry() {
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
        let err = ctx.run(&bad).unwrap_err();
        assert!(matches!(err, crate::EngineError::UnknownColumn(_)));
        // The failure is observable: the snapshot carries the error and
        // whatever spans completed before it, and so does the meter.
        let snap = ctx.telemetry().expect("snapshot recorded on failure");
        assert_eq!(snap.query_id, QueryId(2));
        assert!(snap.error.as_deref().unwrap().contains("missing"));
        assert!(snap.span("Scan[").is_some(), "the scan span was charged");
        assert!(snap.span("Select[").is_none(), "no charge, no span");
        assert_eq!(ctx.meter().entries().len(), 1, "only the scan's charge");
        // A later successful run recovers cleanly.
        ctx.run(&good).unwrap();
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
        let snap = ctx.telemetry().expect("cancelled run records telemetry");
        assert!(snap.error.as_deref().unwrap().contains("cancelled"));
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
            .with_fault_plan(FaultPlan::new(7).inject("PP[even]", FaultSpec::transient(1.0)))
            .build();
        // Dead filter fails open on every row: nothing is dropped.
        let out = ctx.run(&plan).unwrap();
        assert_eq!(out.len(), 64);
        let pp = ctx.telemetry().unwrap().span("PP[even]").expect("PP ran");
        assert!(pp.failures > 0);
        assert_eq!(pp.failed_open, 64);
        // The second run meets the same faults and trips the same breaker.
        let spans = |ctx: &ExecutionContext| {
            let mut snapshot = ctx.telemetry().unwrap().clone();
            snapshot.zero_wall_clock();
            snapshot.spans
        };
        let first = spans(&ctx);
        assert_eq!(ctx.run(&plan).unwrap().len(), 64);
        assert_eq!(spans(&ctx), first);
    }

    #[test]
    fn a_second_run_starts_with_closed_breakers() {
        let cat = catalog();
        let down = Arc::new(AtomicBool::new(true));
        let model = Arc::clone(&down);
        let filter = ClosureFilter::new("PP[even]", 0.01, move |row, _| {
            if model.load(Ordering::Relaxed) {
                return Err(EngineError::Transient("model down".into()));
            }
            Ok(row.get(0).as_int()? % 2 == 0)
        });
        let plan = LogicalPlan::scan("t").filter(Arc::new(filter));
        let mut ctx = ExecutionContext::new(&cat);
        // Run 1: the model is down, its rows fail open, and the breaker
        // trips.
        assert_eq!(ctx.run(&plan).unwrap().len(), 64);
        let pp = ctx.telemetry().unwrap().span("PP[even]").expect("PP ran");
        assert!(pp.breaker_tripped && pp.short_circuited > 0);
        // Run 2, model back: every row is scored and charged.
        down.store(false, Ordering::Relaxed);
        assert_eq!(ctx.run(&plan).unwrap().len(), 32);
        let snapshot = ctx.telemetry().unwrap();
        let pp = snapshot.span("PP[even]").expect("PP ran");
        assert_eq!(
            (pp.attempts, pp.short_circuited, pp.failed_open),
            (64, 0, 0)
        );
        assert_eq!((pp.rows_filtered, pp.breaker_tripped), (32, false));
        assert!((pp.seconds - 64.0 * 0.01).abs() < 1e-12);
        assert!(snapshot.events.is_empty());
    }
}
