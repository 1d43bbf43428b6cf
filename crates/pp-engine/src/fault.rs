//! Seeded, deterministic fault injection for UDFs and PP filters.
//!
//! A [`FaultPlan`] rewrites a logical plan, wrapping named processors and
//! row filters in shims that fail at configured rates. Failure decisions
//! are pure functions of `(seed, operator, row fingerprint, attempt
//! ordinal)` — keyed off the *row's content*, never off arrival order — so
//! a faulted run is exactly reproducible: same seed, same plan, same
//! failures, same retries, same charges, **regardless of how many worker
//! threads the partitioned executor uses or in what order partitions
//! finish**. That determinism is what makes resilience testable: the
//! integration suite asserts byte-identical outputs across repeated
//! faulted runs and across serial vs. parallel execution.
//!
//! Failure modes, applied per attempt in cumulative-probability bands:
//!
//! * **transient** — the call returns [`EngineError::Transient`]; a retry
//!   draws a fresh decision and usually succeeds.
//! * **timeout** — the call returns [`EngineError::Timeout`] after
//!   stalling `stall_seconds`; the resilience layer charges the stall
//!   (capped at [`UDF_TIMEOUT_SECS`](crate::resilience::UDF_TIMEOUT_SECS))
//!   and retries.
//! * **corrupt** — a processor emits NaN in its float output cells, and
//!   nothing catches it (a processor with no float cell fails with
//!   [`EngineError::CorruptOutput`] instead); a filter reports
//!   [`EngineError::CorruptOutput`] directly.
//! * **poison** — decided by a content fingerprint of the *row*, not the
//!   attempt, so the same rows fail on every attempt:
//!   [`EngineError::PoisonedRow`] is not retryable.

use std::cell::Cell;
use std::sync::Arc;

use pp_linalg::rng::{derive_seed, hash2, unit};

use crate::logical::LogicalPlan;
use crate::row::RowRef;
use crate::schema::{Column, Schema};
use crate::sync::Mutex;
use crate::udf::{Processor, RowFilter};
use crate::value::Value;
use crate::{EngineError, Result};

/// Per-operator fault rates (all probabilities in `[0, 1]`; the sum of
/// `transient_rate + timeout_rate + corrupt_rate` should stay ≤ 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability an attempt fails with a transient error.
    pub transient_rate: f64,
    /// Probability an attempt stalls and times out.
    pub timeout_rate: f64,
    /// Simulated seconds a timed-out attempt stalls before cancellation.
    pub stall_seconds: f64,
    /// Probability an attempt produces corrupt (NaN) output.
    pub corrupt_rate: f64,
    /// Probability a given *row* deterministically crashes the UDF.
    pub poison_rate: f64,
}

impl FaultSpec {
    /// A spec injecting only transient failures at `rate`.
    pub fn transient(rate: f64) -> Self {
        FaultSpec {
            transient_rate: rate,
            ..Default::default()
        }
    }

    /// A spec injecting only timeouts at `rate`, stalling `stall_seconds`.
    pub fn timeouts(rate: f64, stall_seconds: f64) -> Self {
        FaultSpec {
            timeout_rate: rate,
            stall_seconds,
            ..Default::default()
        }
    }

    /// A spec injecting only corrupt output at `rate`.
    pub fn corrupt(rate: f64) -> Self {
        FaultSpec {
            corrupt_rate: rate,
            ..Default::default()
        }
    }

    /// A spec poisoning a `rate` fraction of rows.
    pub fn poison(rate: f64) -> Self {
        FaultSpec {
            poison_rate: rate,
            ..Default::default()
        }
    }

    /// Adds timeouts at `rate` stalling `stall_seconds`.
    pub fn with_timeouts(mut self, rate: f64, stall_seconds: f64) -> Self {
        self.timeout_rate = rate;
        self.stall_seconds = stall_seconds;
        self
    }

    /// Adds corrupt output at `rate`.
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Adds row poisoning at `rate`.
    pub fn with_poison(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }
}

/// The category of one injected fault, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient worker failure.
    Transient,
    /// A stalled call cancelled by the timeout budget.
    Timeout,
    /// Corrupt (NaN / garbage) output.
    Corrupt,
    /// A row that deterministically crashes the UDF.
    Poison,
}

impl FaultKind {
    /// Stable lowercase name (used in the telemetry JSON export).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Poison => "poison",
        }
    }
}

/// One injected fault that actually fired, as recorded by a [`FaultLog`].
///
/// The key `(op, row_fingerprint, attempt, kind)` is a pure function of
/// the fault seed and row content, so the *set* of recorded faults is
/// identical at every parallelism and batch size; the telemetry snapshot
/// sorts by that key to also make the *order* deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The operator the fault was injected into.
    pub op: String,
    /// Content fingerprint of the affected row.
    pub row_fingerprint: u64,
    /// 0-based attempt ordinal the fault fired on (always 0 for poison).
    pub attempt: u64,
    /// The failure mode drawn.
    pub kind: FaultKind,
}

/// A concurrent log of injected faults, shared between an
/// [`ExecutionContext`](crate::exec::ExecutionContext) and the fault shims
/// its plan rewrites install. Worker threads append from the probe phase;
/// the snapshot drains and sorts, so scheduling never leaks into
/// telemetry.
#[derive(Debug, Default)]
pub struct FaultLog {
    events: Mutex<Vec<InjectedFault>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    fn record(&self, op: &str, row_fingerprint: u64, attempt: u64, kind: FaultKind) {
        self.events.lock().push(InjectedFault {
            op: op.to_string(),
            row_fingerprint,
            attempt,
            kind,
        });
    }

    /// Drains all recorded faults (unsorted).
    pub fn drain(&self) -> Vec<InjectedFault> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A seeded set of fault injections, applied to a plan by operator name.
///
/// ```
/// use pp_engine::{FaultPlan, FaultSpec};
/// # let plan = pp_engine::LogicalPlan::scan("frames");
/// let faulted = FaultPlan::new(0xFA117)
///     .inject("VehDetector", FaultSpec::transient(0.2))
///     .apply(&plan);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(String, FaultSpec)>,
    log: Option<Arc<FaultLog>>,
}

impl FaultPlan {
    /// A fault plan derived from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            log: None,
        }
    }

    /// Registers `spec` for the processor or filter whose `name()` equals
    /// `udf_name`.
    pub fn inject(mut self, udf_name: impl Into<String>, spec: FaultSpec) -> Self {
        self.specs.push((udf_name.into(), spec));
        self
    }

    /// Attaches a log that every installed shim records fired faults into.
    /// [`ExecutionContext`](crate::exec::ExecutionContext) attaches one
    /// automatically so fired faults surface in the telemetry snapshot.
    pub fn with_log(mut self, log: Arc<FaultLog>) -> Self {
        self.log = Some(log);
        self
    }

    fn spec_for(&self, name: &str) -> Option<FaultSpec> {
        self.specs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, spec)| *spec)
    }

    /// Rewrites `plan`, wrapping every matching processor / filter in a
    /// fault-injecting shim. Non-matching operators and plan structure are
    /// untouched; shims report the inner UDF's name, so plans, explain
    /// output, and cost-meter entries stay comparable with the fault-free
    /// run.
    pub fn apply(&self, plan: &LogicalPlan) -> LogicalPlan {
        match plan.map_children(|child| self.apply(child)) {
            LogicalPlan::Process { input, processor } => {
                let processor = match self.spec_for(processor.name()) {
                    Some(spec) => {
                        let seed = derive_seed(self.seed, processor.name());
                        let mut shim = FaultyProcessor::new(processor, spec, seed);
                        shim.log = self.log.clone();
                        Arc::new(shim)
                    }
                    None => processor,
                };
                LogicalPlan::Process { input, processor }
            }
            LogicalPlan::Filter { input, filter } => {
                let filter = match self.spec_for(filter.name()) {
                    Some(spec) => {
                        let seed = derive_seed(self.seed, filter.name());
                        let mut shim = FaultyFilter::new(filter, spec, seed);
                        shim.log = self.log.clone();
                        Arc::new(shim)
                    }
                    None => filter,
                };
                LogicalPlan::Filter { input, filter }
            }
            other => other,
        }
    }
}

thread_local! {
    /// The 0-based attempt ordinal of the UDF call currently being made on
    /// this thread. The resilience layer sets it around each attempt (0 for
    /// the first call on a row, 1 for the first retry, ...) so fault shims
    /// can key their decisions off `(row, attempt)` instead of a global
    /// call counter — the property that keeps fault injection independent
    /// of execution order and thread count.
    static ATTEMPT_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the per-row attempt ordinal set to `ordinal`, restoring
/// the previous value afterwards. Used by the resilience layer around every
/// UDF attempt.
pub(crate) fn with_attempt_ordinal<R>(ordinal: u64, f: impl FnOnce() -> R) -> R {
    ATTEMPT_ORDINAL.with(|c| {
        let prev = c.replace(ordinal);
        let out = f();
        c.set(prev);
        out
    })
}

/// The attempt ordinal for the UDF call in progress (0 outside a resilient
/// retry loop, i.e. for direct shim calls).
fn attempt_ordinal() -> u64 {
    ATTEMPT_ORDINAL.with(Cell::get)
}

/// Draws the fault (if any) for one attempt on one row. The decision is a
/// pure function of `(seed, row fingerprint, attempt ordinal)`: row
/// identity — not arrival order — selects the decision stream, and the
/// attempt ordinal walks it, so retries draw fresh decisions while
/// repeated runs (serial or partitioned) reproduce the same faults.
fn draw(spec: &FaultSpec, seed: u64, row: RowRef<'_>, attempt: u64) -> Option<FaultKind> {
    let u = unit(hash2(hash2(seed, row_fingerprint(row)), attempt));
    if u < spec.transient_rate {
        Some(FaultKind::Transient)
    } else if u < spec.transient_rate + spec.timeout_rate {
        Some(FaultKind::Timeout)
    } else if u < spec.transient_rate + spec.timeout_rate + spec.corrupt_rate {
        Some(FaultKind::Corrupt)
    } else {
        None
    }
}

/// One call's fault, as both shims draw it for the operator `op` on `row`:
/// the poison check, then this attempt's [`draw`], each fault recorded in
/// `log`. A poisoned row (whose error says it crashes the `what`: "UDF" or
/// "filter"), a transient failure and a timeout come back as their errors;
/// otherwise the result is `Some(FaultKind::Corrupt)`, which each shim
/// injects its own way, or `None`.
fn inject(
    spec: &FaultSpec,
    seed: u64,
    log: Option<&FaultLog>,
    op: &str,
    what: &str,
    row: RowRef<'_>,
) -> Result<Option<FaultKind>> {
    let record = |attempt, kind| {
        if let Some(log) = log {
            log.record(op, row_fingerprint(row), attempt, kind);
        }
    };
    if poisoned(spec, seed, row) {
        record(0, FaultKind::Poison);
        return Err(EngineError::PoisonedRow(format!(
            "{op}: input row crashes the {what}"
        )));
    }
    let attempt = attempt_ordinal();
    let drawn = draw(spec, seed, row, attempt);
    if let Some(kind) = drawn {
        record(attempt, kind);
    }
    match drawn {
        Some(FaultKind::Transient) => Err(EngineError::Transient(format!(
            "{op}: injected worker failure"
        ))),
        Some(FaultKind::Timeout) => Err(EngineError::Timeout {
            op: op.to_string(),
            stalled_seconds: spec.stall_seconds,
        }),
        _ => Ok(drawn),
    }
}

/// Content fingerprint over the row's hashable cells (ints, strings,
/// bools). Floats and blobs are skipped so the fingerprint is stable under
/// derived-column jitter; if a row has no hashable cells its fingerprint
/// is a constant.
fn row_fingerprint(row: RowRef<'_>) -> u64 {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for v in row.iter() {
        let cell = match v {
            Value::Int(i) => hash2(1, *i as u64),
            Value::Bool(b) => hash2(2, u64::from(*b)),
            Value::Str(s) => {
                let mut h: u64 = 3;
                for byte in s.as_bytes() {
                    h = hash2(h, u64::from(*byte));
                }
                h
            }
            _ => continue,
        };
        acc = hash2(acc, cell);
    }
    acc
}

fn poisoned(spec: &FaultSpec, seed: u64, row: RowRef<'_>) -> bool {
    spec.poison_rate > 0.0
        && unit(hash2(derive_seed(seed, "poison"), row_fingerprint(row))) < spec.poison_rate
}

/// A [`Processor`] shim injecting seeded faults around an inner processor.
///
/// The shim is stateless: every decision is a pure function of the seed,
/// the row's content fingerprint, and the attempt ordinal supplied by the
/// resilience layer, so it can be shared across the partitioned executor's
/// worker threads without losing reproducibility.
pub struct FaultyProcessor {
    inner: Arc<dyn Processor>,
    spec: FaultSpec,
    seed: u64,
    log: Option<Arc<FaultLog>>,
}

impl FaultyProcessor {
    /// Wraps `inner`, drawing fault decisions from `seed`.
    pub fn new(inner: Arc<dyn Processor>, spec: FaultSpec, seed: u64) -> Self {
        FaultyProcessor {
            inner,
            spec,
            seed,
            log: None,
        }
    }
}

impl std::fmt::Debug for FaultyProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyProcessor")
            .field("inner", &self.inner.name())
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl Processor for FaultyProcessor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn output_columns(&self) -> &[Column] {
        self.inner.output_columns()
    }
    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }
    fn process(&self, row: RowRef<'_>, schema: &Schema, out: &mut Vec<Value>) -> Result<()> {
        let log = self.log.as_deref();
        match inject(&self.spec, self.seed, log, self.name(), "UDF", row)? {
            None => self.inner.process(row, schema, out),
            Some(_) => {
                // Silent corruption: NaN out every float cell. Nothing
                // checks a processor's output, so the cells flow on.
                let inner = |out: &mut Vec<Value>| self.inner.process(row, schema, out);
                crate::udf::attempt(self.name(), out, inner, |fresh| {
                    let mut corrupted = false;
                    for cell in fresh {
                        if matches!(cell, Value::Float(_)) {
                            *cell = Value::Float(f64::NAN);
                            corrupted = true;
                        }
                    }
                    if corrupted {
                        return Ok(());
                    }
                    // No float cells to corrupt — surface a loud failure
                    // instead so the configured rate still bites (and
                    // leave none of the inner call's cells behind).
                    Err(EngineError::CorruptOutput(format!(
                        "{}: injected garbage output",
                        self.name()
                    )))
                })
            }
        }
    }
}

/// A [`RowFilter`] shim injecting seeded faults around an inner filter.
///
/// Stateless like [`FaultyProcessor`]: decisions key off the row
/// fingerprint and attempt ordinal, never off call order. The shim keeps
/// [`RowFilter::eval_batch`]'s per-row default even around a filter that
/// vectorizes, so every row draws its own fault and batching can never
/// change which faults fire.
pub struct FaultyFilter {
    inner: Arc<dyn RowFilter>,
    spec: FaultSpec,
    seed: u64,
    log: Option<Arc<FaultLog>>,
}

impl FaultyFilter {
    /// Wraps `inner`, drawing fault decisions from `seed`.
    pub fn new(inner: Arc<dyn RowFilter>, spec: FaultSpec, seed: u64) -> Self {
        FaultyFilter {
            inner,
            spec,
            seed,
            log: None,
        }
    }
}

impl std::fmt::Debug for FaultyFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyFilter")
            .field("inner", &self.inner.name())
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl RowFilter for FaultyFilter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }
    fn fail_open(&self) -> bool {
        self.inner.fail_open()
    }
    fn passes(&self, row: RowRef<'_>, schema: &Schema) -> Result<bool> {
        let log = self.log.as_deref();
        match inject(&self.spec, self.seed, log, self.name(), "filter", row)? {
            None => self.inner.passes(row, schema),
            // A filter's output is one bit; flipping it would *silently*
            // drop rows, which nothing could catch. Corruption is
            // surfaced as a detectable error instead, and fail-open keeps
            // the row.
            Some(_) => Err(EngineError::CorruptOutput(format!(
                "{}: injected garbage score",
                self.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::DataType;
    use crate::udf::{ClosureFilter, ClosureProcessor};

    fn schema() -> Arc<Schema> {
        match Schema::new(vec![Column::new("x", DataType::Int)]) {
            Ok(s) => s,
            Err(e) => panic!("schema: {e}"),
        }
    }

    fn passthrough() -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::map(
            "P",
            vec![Column::new("y", DataType::Float)],
            1.0,
            |row, _, out| {
                out.push(Value::Float(row.get(0).as_int()? as f64));
                Ok(())
            },
        ))
    }

    fn cells(p: &dyn Processor, row: &Row) -> Result<Vec<Value>> {
        crate::udf::written(p, row, &schema())
    }

    #[test]
    fn zero_rates_are_transparent() {
        let p = FaultyProcessor::new(passthrough(), FaultSpec::default(), 7);
        for i in 0..50 {
            let out = match cells(&p, &Row::new(vec![Value::Int(i)])) {
                Ok(o) => o,
                Err(e) => panic!("unexpected fault: {e}"),
            };
            assert_eq!(out.len(), 1);
        }
        assert_eq!(p.name(), "P");
        assert_eq!(p.cost_per_row(), 1.0);
    }

    #[test]
    fn transient_rate_is_roughly_respected_and_deterministic() {
        let run = || {
            let p = FaultyProcessor::new(passthrough(), FaultSpec::transient(0.3), 42);
            (0..1000)
                .map(|i| cells(&p, &Row::new(vec![Value::Int(i)])).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give identical failures");
        let failures = a.iter().filter(|&&f| f).count();
        assert!((250..350).contains(&failures), "got {failures} failures");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let stream = |seed| {
            let p = FaultyProcessor::new(passthrough(), FaultSpec::transient(0.5), seed);
            (0..64)
                .map(|i| cells(&p, &Row::new(vec![Value::Int(i)])).is_err())
                .collect::<Vec<bool>>()
        };
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn poison_is_per_row_not_per_attempt() {
        let p = FaultyProcessor::new(passthrough(), FaultSpec::poison(0.5), 9);
        let row = Row::new(vec![Value::Int(12345)]);
        let first = cells(&p, &row).is_err();
        for _ in 0..10 {
            assert_eq!(cells(&p, &row).is_err(), first);
        }
    }

    #[test]
    fn corrupt_processor_emits_nan() {
        let p = FaultyProcessor::new(passthrough(), FaultSpec::corrupt(1.0), 3);
        let out = match cells(&p, &Row::new(vec![Value::Int(1)])) {
            Ok(o) => o,
            Err(e) => panic!("corruption should be silent here: {e}"),
        };
        match out[0] {
            Value::Float(f) => assert!(f.is_nan()),
            ref other => panic!("expected NaN float, got {other:?}"),
        }
    }

    /// With no float to corrupt the shim fails loudly — and the inner
    /// call's cells, already written, do not stay behind.
    #[test]
    fn corrupt_processor_without_floats_fails_and_writes_nothing() {
        let inner = Arc::new(ClosureProcessor::map(
            "I",
            vec![Column::new("y", DataType::Int)],
            1.0,
            |_, _, out| {
                out.push(Value::Int(1));
                Ok(())
            },
        ));
        let p = FaultyProcessor::new(inner, FaultSpec::corrupt(1.0), 3);
        let mut out = vec![Value::Int(-1)];
        let row = Row::new(vec![Value::Int(1)]);
        let result = p.process(RowRef::from(&row), &schema(), &mut out);
        assert!(matches!(result, Err(EngineError::CorruptOutput(_))));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn corrupt_filter_errors_instead_of_lying() {
        let inner = Arc::new(ClosureFilter::new("F", 0.1, |_, _| Ok(true)));
        let f = FaultyFilter::new(inner, FaultSpec::corrupt(1.0), 3);
        let s = schema();
        assert!(matches!(
            f.passes(RowRef::from(&Row::new(vec![Value::Int(1)])), &s),
            Err(EngineError::CorruptOutput(_))
        ));
        assert!(f.fail_open());
    }

    #[test]
    fn timeout_carries_the_stall() {
        let p = FaultyProcessor::new(passthrough(), FaultSpec::timeouts(1.0, 30.0), 3);
        match cells(&p, &Row::new(vec![Value::Int(1)])) {
            Err(EngineError::Timeout {
                stalled_seconds, ..
            }) => {
                assert_eq!(stalled_seconds, 30.0)
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_log_records_fired_faults_with_attempt_ordinals() {
        let log = Arc::new(FaultLog::new());
        let mut p = FaultyProcessor::new(passthrough(), FaultSpec::transient(1.0), 42);
        p.log = Some(Arc::clone(&log));
        let row = Row::new(vec![Value::Int(5)]);
        let _ = cells(&p, &row);
        let _ = with_attempt_ordinal(1, || cells(&p, &row));
        assert_eq!(log.len(), 2);
        let events = log.drain();
        assert!(log.is_empty());
        assert_eq!(events[0].kind, FaultKind::Transient);
        assert_eq!(events[0].attempt, 0);
        assert_eq!(events[1].attempt, 1);
        assert_eq!(events[0].row_fingerprint, events[1].row_fingerprint);
        assert_eq!(events[0].op, "P");
    }

    #[test]
    fn apply_wraps_only_named_udfs() {
        let plan = LogicalPlan::scan("t")
            .process(passthrough())
            .filter(Arc::new(ClosureFilter::new("PP[x]", 0.1, |_, _| Ok(true))));
        let faulted = FaultPlan::new(1)
            .inject("P", FaultSpec::transient(0.1))
            .apply(&plan);
        // Structure and names are preserved.
        assert_eq!(plan.explain(), faulted.explain());
    }
}
