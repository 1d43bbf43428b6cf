//! Deterministic chaos: seeded server-side fault injection and a harness
//! that drives a [`PpServer`] through faults while checking robustness
//! invariants.
//!
//! The engine already injects *UDF-level* faults deterministically
//! ([`pp_engine::fault`]: decisions keyed on `(seed, row fingerprint,
//! attempt)`). This module adds the *server-side* fault surface —
//! slow and failing plan builds, worker panics — with the same
//! discipline: every decision is a pure function of `(seed, request id)`,
//! so a chaos run is replayable from its seed alone.
//!
//! [`run_chaos`] composes both with operational churn (randomized
//! cancels, publish storms, admission pressure from a bounded queue) and
//! verifies, under a fixed seed:
//!
//! * **No ticket lost** — every submit ends in exactly one typed
//!   [`QueryResponse`](crate::request::QueryResponse); the "worker
//!   disappeared" fallback never fires.
//! * **Every permit released** — the depth gate returns to zero.
//! * **Cache and catalog never poisoned** — a clean probe query still
//!   plans and runs after the storm.
//! * **Byte-identity** — every query that completes returns rows
//!   byte-identical to its fault-free serial baseline. (Faults here are
//!   transient/timeout/panic shaped; they change *whether* a query
//!   completes, never *what* a completed query returns.)
//!
//! Scheduling still varies run to run — which queries land as `Cancelled`
//! vs `Complete` depends on thread timing — but the *invariants* hold on
//! every schedule, and the fault decisions themselves are replayable.

use std::time::Duration;

use pp_linalg::rng::{derive_seed, hash2};

use crate::request::{QueryOutcome, QueryRequest, QueryTicket};
use crate::server::PpServer;

/// Maps `(seed, salt, id)` to a uniform value in `[0, 1)`.
fn unit(seed: u64, salt: &str, id: u64) -> f64 {
    (hash2(derive_seed(seed, salt), id) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded server-side fault injection, installed via
/// [`ServerConfig::faults`](crate::server::ServerConfig::faults). Every
/// decision is keyed on `(seed, request id)`, so a given request always
/// draws the same faults regardless of which worker picks it up.
#[derive(Debug, Clone)]
pub struct ServerFaults {
    /// Root seed for every fault decision.
    pub seed: u64,
    /// Probability a cache-miss plan build fails with a typed
    /// `InvalidParameter` error (single-flight waiters retry, so a
    /// coalesced arrival can still succeed).
    pub plan_build_failure: f64,
    /// Probability a cache-miss plan build sleeps for
    /// [`plan_build_delay`](Self::plan_build_delay) first — widens race
    /// windows (dogpiles, publish-vs-build) without changing results.
    pub plan_build_delay_probability: f64,
    /// The injected build delay.
    pub plan_build_delay: Duration,
    /// Probability the worker panics before running the query. The panic
    /// must surface as [`QueryOutcome::Failed`] — never a hung ticket.
    pub worker_panic: f64,
}

impl ServerFaults {
    /// No faults; set individual probabilities from here.
    pub fn new(seed: u64) -> Self {
        ServerFaults {
            seed,
            plan_build_failure: 0.0,
            plan_build_delay_probability: 0.0,
            plan_build_delay: Duration::from_millis(2),
            worker_panic: 0.0,
        }
    }

    pub(crate) fn should_fail_build(&self, request_id: u64) -> bool {
        self.plan_build_failure > 0.0
            && unit(self.seed, "plan-build-failure", request_id) < self.plan_build_failure
    }

    pub(crate) fn build_delay(&self, request_id: u64) -> Option<Duration> {
        (self.plan_build_delay_probability > 0.0
            && unit(self.seed, "plan-build-delay", request_id) < self.plan_build_delay_probability)
            .then_some(self.plan_build_delay)
    }

    pub(crate) fn should_panic_worker(&self, request_id: u64) -> bool {
        self.worker_panic > 0.0 && unit(self.seed, "worker-panic", request_id) < self.worker_panic
    }
}

/// Knobs for one [`run_chaos`] storm.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the harness's own decisions (cancels); independent of the
    /// [`ServerFaults`] seed so the two fault surfaces compose freely.
    pub seed: u64,
    /// Probability a submitted query is cancelled right after submit.
    pub cancel_probability: f64,
    /// Republish the PP corpus every N submits (`None` disables the
    /// publish storm).
    pub publish_every: Option<usize>,
    /// Probability a query is submitted with [`QueryRequest::shared()`] set,
    /// exercising window formation, claiming, and per-member panic
    /// isolation under the same churn. Shared-scan execution is byte-identical to solo,
    /// so baselines need no adjustment.
    pub shared_probability: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC0FFEE,
            cancel_probability: 0.2,
            publish_every: None,
            shared_probability: 0.0,
        }
    }
}

/// What a chaos storm did and observed; the invariant checks in
/// `tests/chaos.rs` and the `chaos_soak` bench assert over these fields.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Requests offered to the server.
    pub submitted: usize,
    /// Sheds at submit (queue full / shutting down) — admission pressure
    /// working as intended.
    pub rejected_at_submit: usize,
    /// Outcomes per class.
    pub completed: usize,
    /// Queries that landed as `Cancelled` (any reason).
    pub cancelled: usize,
    /// Queries that landed as `Failed` (injected build failures, panics,
    /// retries-exhausted UDF faults).
    pub failed: usize,
    /// Queries rejected post-admission (cost budget).
    pub rejected: usize,
    /// Completed queries whose rows differed from the fault-free serial
    /// baseline. **Must be 0.**
    pub mismatches: Vec<u64>,
    /// Responses that fell back to the "worker disappeared" path — a
    /// ticket whose worker vanished without responding. **Must be 0.**
    pub lost_tickets: usize,
    /// Harness-initiated cancels.
    pub cancels_issued: usize,
    /// Submits routed through the shared-scan coordinator.
    pub shared_submits: usize,
    /// Corpus publishes performed mid-storm.
    pub publishes: usize,
    /// Replayable event log (one line per submit/cancel/publish/outcome);
    /// CI uploads this as the failure artifact.
    pub events: Vec<String>,
}

/// Digest used for byte-identity comparisons: the full debug rendering of
/// the result rows, so any divergence in any field shows up.
pub fn rows_digest(rows: &pp_engine::row::Rowset) -> String {
    format!("{:?}", rows.rows())
}

/// Drives `workload` through `server` under seeded churn and classifies
/// every outcome. `baseline` maps a request to the digest of its
/// fault-free serial result (compare with [`rows_digest`]); `publish` is
/// invoked for publish storms when [`ChaosConfig::publish_every`] is set.
///
/// The harness never panics on query-shaped failures — everything lands
/// in the [`ChaosReport`] for the caller to assert over.
pub fn run_chaos(
    server: &PpServer,
    workload: &[QueryRequest],
    baseline: impl Fn(&QueryRequest) -> String,
    mut publish: impl FnMut(usize),
    config: &ChaosConfig,
) -> ChaosReport {
    let mut report = ChaosReport::default();
    let mut tickets: Vec<(usize, QueryTicket)> = Vec::new();
    for (i, request) in workload.iter().enumerate() {
        if let Some(every) = config.publish_every {
            if every > 0 && i > 0 && i % every == 0 {
                publish(i);
                report.publishes += 1;
                report.events.push(format!("publish at={i}"));
            }
        }
        report.submitted += 1;
        let mut request = request.clone();
        request.shared |= config.shared_probability > 0.0
            && unit(config.seed, "harness-shared", i as u64) < config.shared_probability;
        let shared = request.shared;
        report.shared_submits += usize::from(shared);
        match server.submit(request) {
            Ok(ticket) => {
                report.events.push(format!(
                    "submit i={i} id={} shared={shared}",
                    ticket.request_id()
                ));
                if config.cancel_probability > 0.0
                    && unit(config.seed, "harness-cancel", i as u64) < config.cancel_probability
                {
                    ticket.cancel();
                    report.cancels_issued += 1;
                    report.events.push(format!("cancel i={i}"));
                }
                tickets.push((i, ticket));
            }
            Err(reason) => {
                report.rejected_at_submit += 1;
                report.events.push(format!("shed i={i} reason={reason}"));
            }
        }
    }
    for (i, ticket) in tickets {
        let id = ticket.request_id();
        let response = ticket.wait();
        match &response.outcome {
            QueryOutcome::Complete(success) => {
                report.completed += 1;
                let digest = rows_digest(&success.rows);
                if digest != baseline(&workload[i]) {
                    report.mismatches.push(id);
                    report.events.push(format!("MISMATCH i={i} id={id}"));
                } else {
                    report.events.push(format!("complete i={i} id={id}"));
                }
            }
            QueryOutcome::Cancelled { reason, .. } => {
                report.cancelled += 1;
                report
                    .events
                    .push(format!("cancelled i={i} id={id} reason={reason}"));
            }
            QueryOutcome::Rejected(reason) => {
                report.rejected += 1;
                report
                    .events
                    .push(format!("rejected i={i} id={id} reason={reason}"));
            }
            QueryOutcome::Failed(message) => {
                report.failed += 1;
                if message.contains("worker disappeared") {
                    report.lost_tickets += 1;
                    report.events.push(format!("LOST i={i} id={id}"));
                } else {
                    report
                        .events
                        .push(format!("failed i={i} id={id} error={message}"));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_pure_functions_of_seed_and_id() {
        let faults = ServerFaults {
            plan_build_failure: 0.3,
            worker_panic: 0.3,
            plan_build_delay_probability: 0.3,
            ..ServerFaults::new(42)
        };
        for id in 0..64 {
            assert_eq!(
                faults.should_fail_build(id),
                faults.should_fail_build(id),
                "same (seed, id) must draw the same verdict"
            );
            assert_eq!(
                faults.should_panic_worker(id),
                faults.should_panic_worker(id)
            );
            assert_eq!(faults.build_delay(id), faults.build_delay(id));
        }
        // A different seed draws a different pattern somewhere in 64 ids.
        let other = ServerFaults {
            plan_build_failure: 0.3,
            ..ServerFaults::new(43)
        };
        assert!(
            (0..64).any(|id| faults.should_fail_build(id) != other.should_fail_build(id)),
            "seeds 42 and 43 agreed on all 64 build-failure draws"
        );
    }

    #[test]
    fn unit_stays_in_range_and_covers_it() {
        let values: Vec<f64> = (0..256).map(|i| unit(7, "salt", i)).collect();
        assert!(values.iter().all(|v| (0.0..1.0).contains(v)));
        assert!(values.iter().any(|v| *v < 0.25));
        assert!(values.iter().any(|v| *v > 0.75));
    }
}
