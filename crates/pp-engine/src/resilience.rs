//! The fault-tolerant UDF execution layer: bounded retries with exponential
//! backoff, per-call timeout budgets, and a circuit breaker for each
//! fail-open filter.
//!
//! Production big-data stacks (the paper's prototype runs inside Cosmos)
//! assume UDFs fail: tasks are retried, stragglers are cancelled, and
//! repeatedly-failing operators are quarantined so one broken model cannot
//! sink a query. This module reproduces that machinery at library scale.
//! All recovery work is *charged* — retries re-pay the UDF's per-row cost,
//! backoff and stalled calls add simulated seconds — so the cost meter
//! stays an honest account of what a cluster would have spent.
//!
//! [`probe`] runs one call's retry loop and touches no state: what the
//! call *cost* — attempts, retries, failures, timeouts, overhead — travels
//! in the [`ProbeOutcome`] it returns, and the executor counts it once,
//! into the operator's [`OperatorSpan`](crate::telemetry::OperatorSpan).
//!
//! The policy is fixed, as a cluster's is: every UDF call gets
//! [`MAX_RETRIES`] retries with exponential backoff, a stall is charged at
//! most [`UDF_TIMEOUT_SECS`], and a fail-open filter's breaker opens at
//! [`BREAKER_THRESHOLD`] consecutive terminal failures. On a fault-free
//! run none of it is charged.
//!
//! The key safety property lives one level up, in the executor: a
//! [`RowFilter`](crate::udf::RowFilter) that keeps failing *fails open*
//! (rows pass unfiltered). A probabilistic predicate is an optimization,
//! never a correctness gate, so degrading one loses data reduction but can
//! never introduce false negatives beyond the accuracy target. Such a
//! filter is the only operator that outlives a terminal failure, so it is
//! the only one with a circuit breaker (`Breaker`), which lives for one
//! run of that one operator. A PP that keeps failing across queries is the
//! runtime monitor's to quarantine, not a breaker's to remember.

use crate::{EngineError, Result};

/// Retries allowed after a call's first attempt.
pub const MAX_RETRIES: u32 = 3;
/// Per-call stall budget: a timed-out attempt is charged
/// `min(stalled_seconds, UDF_TIMEOUT_SECS)` before it is cancelled.
pub const UDF_TIMEOUT_SECS: f64 = 60.0;
/// Consecutive terminal failures of a fail-open filter that open its
/// circuit breaker. Any other operator stops at its first terminal
/// failure and has no breaker.
pub const BREAKER_THRESHOLD: u32 = 5;
/// Simulated seconds charged before the first retry.
const BACKOFF_BASE_SECS: f64 = 0.05;
/// Growth factor applied to each subsequent backoff.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Simulated seconds of backoff before retry `k` (1-indexed):
/// `0.05 × 2^(k−1)`.
fn backoff_secs(retry: u32) -> f64 {
    BACKOFF_BASE_SECS * BACKOFF_MULTIPLIER.powi(retry.saturating_sub(1) as i32)
}

/// Runs the full retry loop for one UDF call. It touches no state, so
/// the executor probes rows on any worker thread and then folds the
/// outcomes on the calling thread, in row order, so breaker evolution
/// and charges match serial execution exactly.
///
/// Every attempt runs with the fault layer's attempt ordinal set to
/// `attempt − 1`, so injected faults key off `(seed, row, attempt)`
/// and reproduce identically regardless of scheduling.
pub fn probe<T>(op: &str, mut call: impl FnMut() -> Result<T>) -> ProbeOutcome<T> {
    let first = crate::fault::with_attempt_ordinal(0, &mut call);
    resume_probe(op, first, call)
}

/// Continues the retry loop when the first attempt has already been
/// made (e.g. as part of a batch evaluation): `first` is attempt 1's
/// outcome, and `call` is invoked for retries only, each with the
/// fault attempt ordinal advanced.
pub fn resume_probe<T>(
    op: &str,
    first: Result<T>,
    mut call: impl FnMut() -> Result<T>,
) -> ProbeOutcome<T> {
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
                    extra_seconds += stalled_seconds.min(UDF_TIMEOUT_SECS);
                }
                let retries_used = attempts - 1;
                if err.is_retryable() && retries_used < MAX_RETRIES {
                    let next_retry = retries_used + 1;
                    retries += 1;
                    extra_seconds += backoff_secs(next_retry);
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

/// The outcome of one UDF retry loop, produced by [`probe`] /
/// [`resume_probe`]: what
/// the caller charges. A probe is safe to compute on any worker thread.
/// If a fail-open filter's breaker is open by the time its row is
/// consumed, the executor discards the probe, because a serial run would
/// never have made those calls.
#[derive(Debug)]
pub struct ProbeOutcome<T> {
    /// The terminal result (already wrapped in
    /// [`EngineError::RetriesExhausted`] when more than one attempt was
    /// made and all failed).
    pub result: Result<T>,
    /// UDF executions performed (first call + retries).
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

impl<T> ProbeOutcome<T> {
    /// A first attempt that succeeded: one call, no overhead.
    pub(crate) fn first(value: T) -> Self {
        ProbeOutcome {
            result: Ok(value),
            attempts: 1,
            failures: 0,
            retries: 0,
            timeouts: 0,
            extra_seconds: 0.0,
        }
    }
}

/// A fail-open filter's circuit breaker for one run: it opens at
/// [`BREAKER_THRESHOLD`] consecutive terminal failures and stays open,
/// and while it is open the filter's rows pass uncalled.
#[derive(Debug, Default)]
pub(crate) struct Breaker {
    consecutive_failures: u32,
}

impl Breaker {
    /// Whether the breaker is open.
    pub(crate) fn is_open(&self) -> bool {
        self.consecutive_failures >= BREAKER_THRESHOLD
    }

    /// Folds one called row's terminal outcome (`ok`: it produced a
    /// value) — or any number of successes in a row, which leave what
    /// one does — and says whether this failure opened the breaker.
    /// Only valid while the breaker is closed.
    pub(crate) fn record(&mut self, ok: bool) -> bool {
        debug_assert!(!self.is_open());
        self.consecutive_failures = if ok { 0 } else { self.consecutive_failures + 1 };
        self.is_open()
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
        let inv = probe("op", || Ok::<_, EngineError>(42));
        assert_eq!(inv.attempts, 1);
        assert_eq!(inv.extra_seconds, 0.0);
        assert!(matches!(inv.result, Ok(42)));
        assert_eq!((inv.failures, inv.retries, inv.timeouts), (0, 0, 0));
    }

    #[test]
    fn transient_failures_retry_with_growing_backoff() {
        let inv = probe("op", flaky(2));
        assert!(matches!(inv.result, Ok(3)));
        assert_eq!(inv.attempts, 3);
        // 0.05 + 0.10 of backoff.
        assert!((inv.extra_seconds - 0.15).abs() < 1e-12);
        assert_eq!(inv.retries, 2);
        assert_eq!(inv.failures, 2);
    }

    #[test]
    fn exhausted_retries_wrap_the_last_error() {
        let inv = probe("op", flaky(10));
        assert_eq!(inv.attempts, 1 + MAX_RETRIES);
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
        let inv = probe("op", || {
            Err::<u32, _>(EngineError::PoisonedRow("row 7".into()))
        });
        assert_eq!(inv.attempts, 1);
        assert!(matches!(inv.result, Err(EngineError::PoisonedRow(_))));
    }

    #[test]
    fn timeouts_charge_at_most_the_budget() {
        let inv = probe("op", || {
            Err::<u32, _>(EngineError::Timeout {
                op: "op".into(),
                stalled_seconds: 90.0,
            })
        });
        // Four attempts, each stall capped at the 60 s budget, plus
        // 0.05 + 0.10 + 0.20 of backoff.
        assert!((inv.extra_seconds - (4.0 * UDF_TIMEOUT_SECS + 0.35)).abs() < 1e-9);
        assert_eq!((inv.attempts, inv.timeouts), (4, 4));
    }

    #[test]
    fn breaker_opens_at_the_threshold_and_says_so_once() {
        let mut breaker = Breaker::default();
        let tripped: Vec<bool> = (0..BREAKER_THRESHOLD)
            .map(|_| {
                let down = || Err::<u32, _>(EngineError::PoisonedRow("down".into()));
                breaker.record(probe("op", down).result.is_ok())
            })
            .collect();
        // Only the failure that reached the threshold opened it.
        assert_eq!(tripped, [false, false, false, false, true]);
        assert!(breaker.is_open());
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut breaker = Breaker::default();
        for _ in 0..2 * BREAKER_THRESHOLD {
            assert!(!breaker.record(false));
            assert!(!breaker.record(true));
        }
        // Failures never run consecutively, so the breaker stays closed.
        assert!(!breaker.is_open());
    }
}
