//! The fault-tolerant UDF execution layer: bounded retries with exponential
//! backoff, per-call timeout budgets, and per-operator circuit breakers.
//!
//! Production big-data stacks (the paper's prototype runs inside Cosmos)
//! assume UDFs fail: tasks are retried, stragglers are cancelled, and
//! repeatedly-failing operators are quarantined so one broken model cannot
//! sink a query. This module reproduces that machinery at library scale.
//! All recovery work is *charged* — retries re-pay the UDF's per-row cost,
//! backoff and stalled calls add simulated seconds — so the cost meter
//! stays an honest account of what a cluster would have spent.
//!
//! The session remembers only what recovery needs from one call to the
//! next: the config, each operator's circuit breaker, and the breaker
//! transitions not yet drained. What a call *cost* — attempts, retries,
//! failures, timeouts, overhead — travels in the [`ProbeOutcome`] that
//! [`OpFold::consume`] hands back, and the executor counts it once, into
//! the operator's [`OperatorSpan`](crate::telemetry::OperatorSpan).
//!
//! The key safety property lives one level up, in the executor: a
//! [`RowFilter`](crate::udf::RowFilter) that keeps failing *fails open*
//! (rows pass unfiltered). A probabilistic predicate is an optimization,
//! never a correctness gate, so degrading one loses data reduction but can
//! never introduce false negatives beyond the accuracy target.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{EngineError, Result};

/// A multiply-rotate string hasher (the rustc/Firefox "Fx" construction)
/// for the session's per-operator maps.
///
/// Operator names are short, trusted strings looked up several times per
/// consumed row, which made SipHash the single largest line item in the
/// serial consume fold. The keys come from the plan, not from user data,
/// so HashDoS hardening buys nothing here. Iteration order is never
/// observed, so the hasher only affects speed.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let word = u64::from_le_bytes(*w);
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
        for &b in tail {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Bounded-retry policy with exponential backoff.
///
/// Backoff is charged to the operator in simulated seconds: retry `k`
/// (1-indexed) waits `backoff_base_secs × backoff_multiplier^(k−1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Simulated seconds charged before the first retry.
    pub backoff_base_secs: f64,
    /// Growth factor applied to each subsequent backoff.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_secs: 0.05,
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// Simulated seconds of backoff before retry `k` (1-indexed).
    fn backoff_secs(&self, retry: u32) -> f64 {
        self.backoff_base_secs * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }
}

/// Tunable knobs for the execution session.
///
/// The defaults are deliberately conservative: on a fault-free run they
/// reproduce the non-resilient executor's behavior and charges exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry policy applied to every UDF call.
    pub retry: RetryPolicy,
    /// Per-call stall budget: a timed-out call is charged
    /// `min(stalled_seconds, udf_timeout_secs)` before being cancelled.
    pub udf_timeout_secs: f64,
    /// Consecutive exhausted failures before an operator's circuit breaker
    /// opens (0 disables breaking).
    pub breaker_threshold: u32,
    /// Whether row filters degrade to pass-through on failure. Disabling
    /// this makes filter errors fatal, like any other UDF error.
    pub fail_open_filters: bool,
    /// Whether processor outputs are checked for non-finite floats (NaN /
    /// ±∞), turning silent corruption into a retryable
    /// [`EngineError::CorruptOutput`].
    pub validate_outputs: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            udf_timeout_secs: 60.0,
            breaker_threshold: 5,
            fail_open_filters: true,
            validate_outputs: false,
        }
    }
}

impl ResilienceConfig {
    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-call stall budget.
    pub fn with_udf_timeout_secs(mut self, secs: f64) -> Self {
        self.udf_timeout_secs = secs;
        self
    }

    /// Sets the circuit-breaker threshold.
    pub fn with_breaker_threshold(mut self, n: u32) -> Self {
        self.breaker_threshold = n;
        self
    }

    /// Enables or disables fail-open filter degradation.
    pub fn with_fail_open_filters(mut self, on: bool) -> Self {
        self.fail_open_filters = on;
        self
    }

    /// Enables or disables NaN/∞ output validation.
    pub fn with_validate_outputs(mut self, on: bool) -> Self {
        self.validate_outputs = on;
        self
    }

    /// Runs the full retry loop for one UDF call *without* touching any
    /// session state — no circuit breakers. This is the
    /// worker-thread half of the resilient invocation: the partitioned
    /// executor probes rows in parallel, then folds the outcomes into the
    /// session sequentially via [`OpFold::consume`] so breaker
    /// evolution and charges match serial execution exactly.
    ///
    /// Every attempt runs with the fault layer's attempt ordinal set to
    /// `attempt − 1`, so injected faults key off `(seed, row, attempt)`
    /// and reproduce identically regardless of scheduling.
    pub fn probe<T>(&self, op: &str, mut call: impl FnMut() -> Result<T>) -> ProbeOutcome<T> {
        let first = crate::fault::with_attempt_ordinal(0, &mut call);
        self.resume_probe(op, first, call)
    }

    /// Continues the retry loop when the first attempt has already been
    /// made (e.g. as part of a batch evaluation): `first` is attempt 1's
    /// outcome, and `call` is invoked for retries only, each with the
    /// fault attempt ordinal advanced.
    pub fn resume_probe<T>(
        &self,
        op: &str,
        first: Result<T>,
        mut call: impl FnMut() -> Result<T>,
    ) -> ProbeOutcome<T> {
        let retry = self.retry;
        let timeout_budget = self.udf_timeout_secs;
        let mut attempts: u32 = 1;
        let mut failures: u64 = 0;
        let mut retries: u64 = 0;
        let mut timeouts: u64 = 0;
        let mut extra_seconds = 0.0;
        let mut outcome = first;

        loop {
            match outcome {
                Ok(value) => {
                    return ProbeOutcome {
                        result: Ok(value),
                        attempts,
                        failures,
                        retries,
                        timeouts,
                        extra_seconds,
                    };
                }
                Err(err) => {
                    failures += 1;
                    if let EngineError::Timeout {
                        stalled_seconds, ..
                    } = &err
                    {
                        timeouts += 1;
                        // The stalled attempt burned cluster time until the
                        // deadline cancelled it.
                        extra_seconds += stalled_seconds.min(timeout_budget);
                    }
                    let retries_used = attempts - 1;
                    if err.is_retryable() && retries_used < retry.max_retries {
                        let next_retry = retries_used + 1;
                        retries += 1;
                        extra_seconds += retry.backoff_secs(next_retry);
                        attempts += 1;
                        outcome =
                            crate::fault::with_attempt_ordinal(u64::from(attempts - 1), &mut call);
                        continue;
                    }
                    let result = if attempts > 1 {
                        Err(EngineError::RetriesExhausted {
                            op: op.to_string(),
                            attempts,
                            last: Box::new(err),
                        })
                    } else {
                        Err(err)
                    };
                    return ProbeOutcome {
                        result,
                        attempts,
                        failures,
                        retries,
                        timeouts,
                        extra_seconds,
                    };
                }
            }
        }
    }
}

/// The session-independent outcome of one UDF retry loop, produced by
/// [`ResilienceConfig::probe`] / [`ResilienceConfig::resume_probe`].
///
/// A probe is safe to compute on any worker thread; it is folded into the
/// owning [`ExecSession`]'s breaker — in deterministic row order — by
/// [`OpFold::consume`], which hands back the outcome the caller charges:
/// the probe itself, or a zero-attempt [`EngineError::BreakerOpen`] when
/// the breaker was open and the calls must count as never made.
#[derive(Debug)]
pub struct ProbeOutcome<T> {
    /// The terminal result (already wrapped in
    /// [`EngineError::RetriesExhausted`] when more than one attempt was
    /// made and all failed).
    pub result: Result<T>,
    /// UDF executions performed (first call + retries; 0 when the breaker
    /// short-circuited the call).
    pub attempts: u32,
    /// Attempts that returned an error.
    pub failures: u64,
    /// Retries performed.
    pub retries: u64,
    /// Attempts cancelled by the timeout budget.
    pub timeouts: u64,
    /// Simulated seconds of backoff + stall overhead.
    pub extra_seconds: f64,
}

#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open: bool,
}

/// One circuit-breaker state change, recorded by the session in the order
/// it happened (deterministic: transitions only occur in the serial
/// consume phase or via explicit [`ExecSession::reset_breaker`] calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The operator whose breaker changed state.
    pub op: String,
    /// `true` when the breaker opened; `false` when it was reset.
    pub opened: bool,
}

/// A stateful execution session: owns the config and the per-operator
/// circuit breakers. One session spans every
/// [`ExecutionContext::run`](crate::exec::ExecutionContext::run) of its
/// context, so breaker state persists across queries, the way a
/// long-running cluster service would track a misbehaving UDF.
#[derive(Debug, Default)]
pub struct ExecSession {
    config: ResilienceConfig,
    breakers: HashMap<String, BreakerState, FxBuild>,
    transitions: Vec<BreakerTransition>,
}

impl ExecSession {
    /// A session with the given configuration.
    pub fn new(config: ResilienceConfig) -> Self {
        ExecSession {
            config,
            ..Default::default()
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Whether `op`'s circuit breaker is currently open.
    pub fn breaker_open(&self, op: &str) -> bool {
        self.breakers.get(op).is_some_and(|b| b.open)
    }

    /// Manually reset one operator's breaker (e.g. after redeploying a
    /// fixed UDF).
    pub fn reset_breaker(&mut self, op: &str) {
        if let Some(b) = self.breakers.get_mut(op) {
            b.consecutive_failures = 0;
            if b.open {
                b.open = false;
                self.transitions.push(BreakerTransition {
                    op: op.to_string(),
                    opened: false,
                });
            }
        }
    }

    /// Drains the breaker transitions recorded since the last call, in
    /// the order they happened.
    pub fn take_transitions(&mut self) -> Vec<BreakerTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// A consume cursor for one operator: resolves the operator's breaker
    /// once (one lookup through the map entry), so a consume loop folding
    /// thousands of rows for the same operator does no per-row map
    /// lookups at all. Dropping the fold releases the session; state
    /// changes are visible immediately (the fold borrows, it does not
    /// copy).
    pub fn op_fold<'a>(&'a mut self, op: &'a str) -> OpFold<'a> {
        let breaker = match self.breakers.entry(op.to_string()) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => entry.insert(BreakerState::default()),
        };
        OpFold {
            op,
            threshold: self.config.breaker_threshold,
            breaker,
            transitions: &mut self.transitions,
        }
    }

    /// Runs one UDF call under the session's retry / timeout / breaker
    /// policy. The caller charges `attempts × cost_per_row +
    /// extra_seconds` and decides how to handle a terminal error
    /// (processors propagate, filters may fail open).
    pub fn invoke<T>(&mut self, op: &str, call: impl FnMut() -> Result<T>) -> ProbeOutcome<T> {
        let config = self.config;
        let mut fold = self.op_fold(op);
        if fold.breaker_open() {
            return fold.short_circuit();
        }
        fold.consume(Err(config.probe(op, call)))
    }
}

/// A borrowed per-operator view into an [`ExecSession`], produced by
/// [`ExecSession::op_fold`]. All reads and writes go straight to the
/// session's breaker; the value of the handle is that the entry is
/// resolved once per operator instead of once per consumed row.
pub struct OpFold<'a> {
    op: &'a str,
    threshold: u32,
    breaker: &'a mut BreakerState,
    transitions: &'a mut Vec<BreakerTransition>,
}

impl OpFold<'_> {
    /// Whether this operator's circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.breaker.open
    }

    /// Folds any number (≥ 1) of clean first attempts — one call each,
    /// none failed — in one step: what that many
    /// [`consume`](Self::consume)s of `Ok` values leave behind. Only valid
    /// while the breaker is closed.
    pub fn consume_clean(&mut self) {
        debug_assert!(!self.breaker.open);
        self.breaker.consecutive_failures = 0;
    }

    fn short_circuit<T>(&self) -> ProbeOutcome<T> {
        ProbeOutcome {
            result: Err(EngineError::BreakerOpen {
                op: self.op.to_string(),
            }),
            attempts: 0,
            failures: 0,
            retries: 0,
            timeouts: 0,
            extra_seconds: 0.0,
        }
    }

    /// Folds one row into the session — its first attempt's value, or the
    /// worker-side [`ProbeOutcome`] of its retry loop if that attempt
    /// failed — and returns the outcome to charge: breaker check and
    /// breaker evolution, exactly as if the calls had been made inline
    /// via [`ExecSession::invoke`].
    ///
    /// If the breaker is open when the row is consumed, its outcome is
    /// *discarded* and a zero-attempt [`EngineError::BreakerOpen`]
    /// short-circuit is returned in its place, because a serial executor
    /// would never have made those calls. This is what keeps parallel
    /// charges byte-identical to serial ones.
    pub fn consume<T>(
        &mut self,
        first: std::result::Result<T, ProbeOutcome<T>>,
    ) -> ProbeOutcome<T> {
        if self.breaker.open {
            return self.short_circuit();
        }
        let probe = match first {
            Ok(value) => {
                self.consume_clean();
                return ProbeOutcome {
                    result: Ok(value),
                    attempts: 1,
                    failures: 0,
                    retries: 0,
                    timeouts: 0,
                    extra_seconds: 0.0,
                };
            }
            Err(probe) => probe,
        };
        if probe.result.is_ok() {
            self.breaker.consecutive_failures = 0;
        } else {
            // Terminal failure: count toward the breaker.
            self.breaker.consecutive_failures += 1;
            if self.threshold > 0 && self.breaker.consecutive_failures >= self.threshold {
                self.breaker.open = true;
                self.transitions.push(BreakerTransition {
                    op: self.op.to_string(),
                    opened: true,
                });
            }
        }
        probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(fail_first: u32) -> impl FnMut() -> Result<u32> {
        let mut n = 0;
        move || {
            n += 1;
            if n <= fail_first {
                Err(EngineError::Transient(format!("attempt {n}")))
            } else {
                Ok(n)
            }
        }
    }

    #[test]
    fn success_needs_one_attempt_and_no_overhead() {
        let mut s = ExecSession::default();
        let inv = s.invoke("op", || Ok::<_, EngineError>(42));
        assert_eq!(inv.attempts, 1);
        assert_eq!(inv.extra_seconds, 0.0);
        assert!(matches!(inv.result, Ok(42)));
        assert_eq!((inv.failures, inv.retries, inv.timeouts), (0, 0, 0));
    }

    #[test]
    fn transient_failures_retry_with_growing_backoff() {
        let mut s = ExecSession::default();
        let inv = s.invoke("op", flaky(2));
        assert!(matches!(inv.result, Ok(3)));
        assert_eq!(inv.attempts, 3);
        // 0.05 + 0.10 of backoff.
        assert!((inv.extra_seconds - 0.15).abs() < 1e-12);
        assert_eq!(inv.retries, 2);
        assert_eq!(inv.failures, 2);
    }

    #[test]
    fn exhausted_retries_wrap_the_last_error() {
        let mut s = ExecSession::default();
        let inv = s.invoke("op", flaky(10));
        assert_eq!(inv.attempts, 4); // 1 + max_retries(3)
        match inv.result {
            Err(EngineError::RetriesExhausted { op, attempts, last }) => {
                assert_eq!(op, "op");
                assert_eq!(attempts, 4);
                assert!(matches!(*last, EngineError::Transient(_)));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn poison_is_not_retried() {
        let mut s = ExecSession::default();
        let inv = s.invoke("op", || {
            Err::<u32, _>(EngineError::PoisonedRow("row 7".into()))
        });
        assert_eq!(inv.attempts, 1);
        assert!(matches!(inv.result, Err(EngineError::PoisonedRow(_))));
    }

    #[test]
    fn timeouts_charge_at_most_the_budget() {
        let mut s = ExecSession::new(
            ResilienceConfig::default()
                .with_udf_timeout_secs(1.0)
                .with_retry(RetryPolicy::none()),
        );
        let inv = s.invoke("op", || {
            Err::<u32, _>(EngineError::Timeout {
                op: "op".into(),
                stalled_seconds: 50.0,
            })
        });
        assert!((inv.extra_seconds - 1.0).abs() < 1e-12);
        assert_eq!(inv.timeouts, 1);
    }

    #[test]
    fn breaker_opens_after_threshold_and_short_circuits() {
        let mut s = ExecSession::new(
            ResilienceConfig::default()
                .with_breaker_threshold(3)
                .with_retry(RetryPolicy::none()),
        );
        for _ in 0..3 {
            let inv = s.invoke("op", || {
                Err::<u32, _>(EngineError::Transient("down".into()))
            });
            assert_eq!(inv.attempts, 1);
        }
        assert!(s.breaker_open("op"));
        let inv = s.invoke("op", || Ok::<_, EngineError>(1));
        assert_eq!(inv.attempts, 0);
        assert!(matches!(inv.result, Err(EngineError::BreakerOpen { .. })));
        // The short-circuit charges nothing, and the trip was logged once.
        assert_eq!((inv.failures, inv.extra_seconds), (0, 0.0));
        assert_eq!(s.take_transitions().len(), 1);

        s.reset_breaker("op");
        assert!(!s.breaker_open("op"));
        let inv = s.invoke("op", || Ok::<_, EngineError>(1));
        assert!(matches!(inv.result, Ok(1)));
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut s = ExecSession::new(
            ResilienceConfig::default()
                .with_breaker_threshold(3)
                .with_retry(RetryPolicy::none()),
        );
        for round in 0..4 {
            let _ = s.invoke("op", || Err::<u32, _>(EngineError::Transient("x".into())));
            let _ = s.invoke("op", || Ok::<_, EngineError>(round));
        }
        // Failures never run consecutively, so the breaker stays closed.
        assert!(!s.breaker_open("op"));
    }

    #[test]
    fn breaker_transitions_are_logged_once_per_state_change() {
        let mut s = ExecSession::new(
            ResilienceConfig::default()
                .with_breaker_threshold(2)
                .with_retry(RetryPolicy::none()),
        );
        for _ in 0..2 {
            let _ = s.invoke("op", || Err::<u32, _>(EngineError::Transient("x".into())));
        }
        // Short-circuited calls must not re-log the open transition.
        let _ = s.invoke("op", || Ok::<_, EngineError>(1));
        s.reset_breaker("op");
        // Resetting a closed breaker logs nothing.
        s.reset_breaker("op");
        let transitions = s.take_transitions();
        assert_eq!(
            transitions,
            vec![
                BreakerTransition {
                    op: "op".into(),
                    opened: true
                },
                BreakerTransition {
                    op: "op".into(),
                    opened: false
                },
            ]
        );
        assert!(s.take_transitions().is_empty());
    }
}
