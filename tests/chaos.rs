//! Robustness tests for `pp-server`: deadlines, cooperative cancellation,
//! graceful drain, worker-panic containment, and the seeded chaos storm.
//!
//! The invariants under test are scheduling-robust — they hold on every
//! thread interleaving — while the *fault decisions* (which request draws
//! a build failure, a panic, a cancel) are pure functions of the seeds,
//! so a failing run is replayable from its `ChaosReport::events` log.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::cancel::CancelReason;
use probabilistic_predicates::engine::{Catalog, FaultPlan, FaultSpec};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::{
    rows_digest, run_chaos, AdmissionConfig, CacheConfig, ChaosConfig, PpServer, QueryOutcome,
    QueryRequest, RejectReason, ServerConfig, ServerFaults, SourceRegistry, SourceSpec,
};
use proptest::prelude::*;

struct Fixture {
    catalog: Catalog,
    sources: SourceRegistry,
    pp_catalog: PpCatalog,
    domains: Domains,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0x9A12,
            ..Default::default()
        });
        let trainer = PpTrainer::new(TrainerConfig {
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(0.0025),
            ..Default::default()
        });
        let clauses = TrafficDataset::pp_corpus_clauses();
        let labeled: Vec<_> = clauses
            .iter()
            .map(|c| dataset.labeled_for_clause_range(c, 0..400))
            .collect();
        let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("train");
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        let mut sources = SourceRegistry::new();
        let mut spec = SourceSpec::new("traffic");
        for col in ["vehType", "vehColor", "speed", "fromI", "toI"] {
            spec = spec.with_udf(col, dataset.udf(col).expect("known column"));
        }
        sources.register("traffic", spec);
        Fixture {
            catalog,
            sources,
            pp_catalog,
            domains,
        }
    })
}

fn make_server(config: ServerConfig) -> PpServer {
    let f = fixture();
    PpServer::new(
        config,
        f.catalog.clone(),
        f.sources.clone(),
        f.pp_catalog.clone(),
        f.domains.clone(),
    )
}

/// Fault-free serial baselines: predicate display string → rows digest.
fn baselines() -> &'static std::collections::HashMap<String, String> {
    static BASELINES: OnceLock<std::collections::HashMap<String, String>> = OnceLock::new();
    BASELINES.get_or_init(|| {
        let mut server = make_server(ServerConfig {
            workers: 1,
            ..Default::default()
        });
        let mut map = std::collections::HashMap::new();
        for q in traf20_queries().into_iter().filter(|q| q.id <= 4) {
            let resp = server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .expect("baseline admitted")
                .wait();
            let s = resp.outcome.success().expect("baseline completes");
            map.insert(q.predicate.to_string(), rows_digest(&s.rows));
        }
        server.shutdown();
        map
    })
}

/// The storm workload: Q1–Q4 cycled, every third request carrying a
/// seeded *processor-targeted* engine fault plan (transient faults the
/// default retry policy usually absorbs — a retried success is
/// byte-identical, an exhausted retry is a typed `Failed`). PP operators
/// are never fault targets here: PP fail-open/quarantine legitimately
/// changes result rows, which would break the byte-identity oracle.
fn storm_workload(n: usize) -> Vec<QueryRequest> {
    let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 4).collect();
    (0..n)
        .map(|i| {
            let q = &queries[i % queries.len()];
            let mut req = QueryRequest::new("traffic", q.predicate.clone(), 0.95);
            if i % 3 == 0 {
                req = req.with_fault_plan(
                    FaultPlan::new(0x5EED ^ i as u64)
                        .inject("VehTypeClassifier", FaultSpec::transient(0.3)),
                );
            }
            req
        })
        .collect()
}

/// A deadline that has already expired at submit lands as a typed
/// `Cancelled { DeadlineExceeded }` with nothing billed — before any
/// planning or UDF work.
#[test]
fn expired_deadline_yields_typed_cancelled_outcome() {
    let mut server = make_server(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let q = &traf20_queries()[0];
    let resp = server
        .submit(
            QueryRequest::new("traffic", q.predicate.clone(), 0.95).with_deadline(Duration::ZERO),
        )
        .expect("admitted")
        .wait();
    match resp.outcome {
        QueryOutcome::Cancelled {
            reason: CancelReason::DeadlineExceeded,
            rows_processed,
            charged_cluster_seconds,
        } => {
            assert_eq!(rows_processed, 0, "no work should precede the check");
            assert_eq!(charged_cluster_seconds, 0.0, "nothing ran, nothing billed");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.metrics().counter("server.cancelled_total").get(), 1);
    assert_eq!(server.in_flight(), 0, "permit leaked");
    // A generous deadline changes nothing: same bytes as no deadline.
    let with = server
        .submit(
            QueryRequest::new("traffic", q.predicate.clone(), 0.95)
                .with_deadline(Duration::from_secs(3600)),
        )
        .unwrap()
        .wait();
    let with = with.outcome.success().expect("completes").clone();
    assert_eq!(
        rows_digest(&with.rows),
        baselines()[&q.predicate.to_string()],
        "an unfired deadline must not perturb results"
    );
    server.shutdown();
}

/// `QueryTicket::cancel` on a still-queued query resolves it as
/// `Cancelled { Requested }`; queries ahead of it are untouched.
#[test]
fn cancel_handle_stops_a_queued_query() {
    let q = &traf20_queries()[0];
    let mut server = make_server(ServerConfig {
        workers: 1,
        // Every plan build sleeps, pinning query A on the only worker
        // long enough for the cancel of queued B to land first.
        faults: Some(ServerFaults {
            plan_build_delay_probability: 1.0,
            plan_build_delay: Duration::from_millis(300),
            ..ServerFaults::new(7)
        }),
        ..Default::default()
    });
    let a = server
        .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
        .expect("A admitted");
    let b = server
        .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
        .expect("B admitted");
    assert!(b.cancel(), "first cancel must latch the token");
    assert!(!b.cancel(), "second cancel must observe the latch");
    let b_resp = b.wait();
    match b_resp.outcome {
        QueryOutcome::Cancelled {
            reason: CancelReason::Requested,
            ..
        } => {}
        // The only schedule-race: B slipped onto the worker before the
        // cancel latched and ran to completion. Legal, but with a 300 ms
        // build delay in front of it, effectively impossible.
        other => panic!("expected Cancelled(Requested), got {other:?}"),
    }
    let a_resp = a.wait();
    assert!(
        a_resp.outcome.success().is_some(),
        "A must be unaffected by B's cancel: {:?}",
        a_resp.outcome
    );
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

/// Worker panics surface as typed `Failed` responses — the ticket never
/// hangs, the permit never leaks, and the owning query's token latches
/// `WorkerPanic` so clones observe the death.
#[test]
fn worker_panic_surfaces_as_failed_never_hangs() {
    let q = &traf20_queries()[0];
    let mut server = make_server(ServerConfig {
        workers: 2,
        faults: Some(ServerFaults {
            worker_panic: 1.0,
            ..ServerFaults::new(11)
        }),
        ..Default::default()
    });
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        let token = t.cancel_token().clone();
        let resp = t.wait();
        match &resp.outcome {
            QueryOutcome::Failed(msg) => {
                assert!(msg.contains("panicked"), "unexpected failure: {msg}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(
            token.reason(),
            Some(CancelReason::WorkerPanic),
            "the owning query's token must latch the panic"
        );
    }
    assert_eq!(
        server.metrics().counter("server.worker_panics_total").get(),
        3
    );
    assert_eq!(server.in_flight(), 0, "panicked permits leaked");
    server.shutdown();
}

/// Drain terminates within (about) its timeout, sheds what it must, and
/// loses no ticket: every in-flight query ends in exactly one typed
/// response, and every permit comes back.
#[test]
fn drain_is_bounded_and_loses_nothing() {
    // Four distinct predicates → four separate plan builds, each slowed to
    // 150 ms: 2 workers cannot clear them inside the 200 ms grace, so the
    // drain must cancel stragglers.
    let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 4).collect();
    let mut server = make_server(ServerConfig {
        workers: 2,
        faults: Some(ServerFaults {
            plan_build_delay_probability: 1.0,
            plan_build_delay: Duration::from_millis(150),
            ..ServerFaults::new(13)
        }),
        ..Default::default()
    });
    let requests: Vec<_> = (0..8)
        .map(|i| {
            QueryRequest::new(
                "traffic",
                queries[i % queries.len()].predicate.clone(),
                0.95,
            )
        })
        .collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("admitted"))
        .collect();
    let timeout = Duration::from_millis(250);
    let started = Instant::now();
    let report = server.drain(timeout);
    let elapsed = started.elapsed();
    assert!(
        elapsed < timeout + Duration::from_secs(2),
        "drain overran its deadline: {elapsed:?}"
    );
    assert_eq!(report.in_flight_at_drain, 8);
    // Intake is closed.
    match server.submit(requests[0].clone()) {
        Err(RejectReason::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // Every ticket resolves to a typed outcome — none lost, none hung.
    let mut completed = 0;
    let mut cancelled = 0;
    for (t, req) in tickets.into_iter().zip(&requests) {
        let resp = t.wait();
        match &resp.outcome {
            QueryOutcome::Complete(s) => {
                completed += 1;
                assert_eq!(
                    rows_digest(&s.rows),
                    baselines()[&req.predicate.to_string()],
                    "a query that survived the drain must be byte-exact"
                );
            }
            QueryOutcome::Cancelled { reason, .. } => {
                cancelled += 1;
                assert_eq!(*reason, CancelReason::Drain, "wrong cancel reason");
            }
            QueryOutcome::Failed(msg) => {
                panic!("drain lost a ticket to a failure: {msg}")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(completed + cancelled, 8);
    assert_eq!(server.in_flight(), 0, "drain leaked permits");
    // With 100 ms builds serialized over 2 workers, 8 queries cannot all
    // finish inside the 200 ms grace: the drain must have shed some.
    assert!(cancelled > 0, "expected the drain to cancel stragglers");
    assert!(!report.clean);
}

/// A drain with a comfortable timeout is clean: everything completes,
/// nothing is cancelled or abandoned.
#[test]
fn drain_with_slack_completes_everything() {
    let q = &traf20_queries()[1];
    let mut server = make_server(ServerConfig {
        workers: 4,
        ..Default::default()
    });
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .expect("admitted")
        })
        .collect();
    let report = server.drain(Duration::from_secs(30));
    assert!(report.clean, "nothing should need cancelling: {report:?}");
    assert_eq!(report.cancelled, 0);
    assert_eq!(report.abandoned, 0);
    assert_eq!(report.still_running, 0);
    for t in tickets {
        let resp = t.wait();
        assert!(
            resp.outcome.success().is_some(),
            "clean drain must complete everything: {:?}",
            resp.outcome
        );
    }
    assert_eq!(server.in_flight(), 0);
}

/// The full seeded storm, across serial and concurrent schedules: engine
/// faults + server faults + cancels + publish storms + admission
/// pressure. Invariants checked on every schedule: no lost ticket, no
/// leaked permit, no poisoned cache/catalog, and every completed query
/// byte-identical to its fault-free serial baseline.
#[test]
fn chaos_storm_preserves_invariants_across_schedules() {
    let f = fixture();
    let workload = storm_workload(16);
    for workers in [1, 2, 4, 8] {
        let mut server = make_server(ServerConfig {
            workers,
            admission: AdmissionConfig {
                // Tight queue: admission pressure is part of the storm.
                max_queue_depth: 12,
                ..Default::default()
            },
            cache: CacheConfig { max_entries: 2 },
            faults: Some(ServerFaults {
                plan_build_failure: 0.15,
                plan_build_delay_probability: 0.3,
                plan_build_delay: Duration::from_millis(2),
                worker_panic: 0.1,
                ..ServerFaults::new(0xDEAD)
            }),
            ..Default::default()
        });
        let report = run_chaos(
            &server,
            &workload,
            |req| baselines()[&req.predicate.to_string()].clone(),
            |_| {
                server.publish_pps(f.pp_catalog.clone());
            },
            &ChaosConfig {
                seed: 0xC0FFEE,
                cancel_probability: 0.25,
                publish_every: Some(5),
            },
        );
        let ctx = format!("workers={workers} events:\n{}", report.events.join("\n"));
        assert_eq!(report.lost_tickets, 0, "lost tickets; {ctx}");
        assert!(report.mismatches.is_empty(), "divergent rows; {ctx}");
        assert_eq!(
            report.completed + report.cancelled + report.failed + report.rejected,
            report.submitted - report.rejected_at_submit,
            "outcome classes must partition the admitted set; {ctx}"
        );
        assert_eq!(server.in_flight(), 0, "permits leaked; {ctx}");
        assert!(report.publishes >= 2, "publish storm did not run; {ctx}");
        // The cache/catalog are not poisoned: a clean query still plans,
        // runs, and answers byte-identically after the storm. The probe
        // itself can draw injected faults (decisions key on request_id,
        // and the probe is just another request), so retry — each
        // resubmit draws a fresh id; only genuine poisoning persists.
        let probe = &workload[1]; // index 1: never carries a fault plan
        let digest = (0..10)
            .find_map(|_| {
                let resp = server.submit(probe.clone()).expect("probe admitted").wait();
                resp.outcome.success().map(|s| rows_digest(&s.rows))
            })
            .unwrap_or_else(|| panic!("post-storm probe never completed; {ctx}"));
        assert_eq!(
            digest,
            baselines()[&probe.predicate.to_string()],
            "post-storm probe diverged; {ctx}"
        );
        server.shutdown();
    }
}

/// Running the same storm twice with identical seeds draws identical
/// fault decisions: the set of requests that *failed from injected
/// faults* is replayable even though scheduling varies.
#[test]
fn storm_fault_decisions_replay_from_the_seed() {
    let workload = storm_workload(12);
    let run = |publish_storm: bool| {
        let f = fixture();
        // One worker: the storm repeats predicates, so with concurrent
        // workers two same-key requests race in single-flight plan
        // building and the *builder* — whose id keys the injected-failure
        // draw — is scheduling-dependent. Serial execution keeps fault
        // attribution a pure function of the seed and submit order.
        let server = make_server(ServerConfig {
            workers: 1,
            faults: Some(ServerFaults {
                plan_build_failure: 0.25,
                ..ServerFaults::new(0xABCD)
            }),
            ..Default::default()
        });
        run_chaos(
            &server,
            &workload,
            |req| baselines()[&req.predicate.to_string()].clone(),
            |_| {
                if publish_storm {
                    server.publish_pps(f.pp_catalog.clone());
                }
            },
            &ChaosConfig {
                seed: 1,
                cancel_probability: 0.0,
                publish_every: None,
            },
        )
    };
    let first = run(false);
    let second = run(false);
    assert_eq!(first.lost_tickets, 0);
    assert_eq!(second.lost_tickets, 0);
    // Build failures are keyed on (seed, request id); both runs assign the
    // same ids in submit order, so the injected-failure sets must match.
    let injected = |r: &probabilistic_predicates::server::ChaosReport| {
        let mut lines: Vec<&String> = r
            .events
            .iter()
            .filter(|e| e.contains("injected plan-build failure"))
            .collect();
        lines.sort();
        lines.into_iter().cloned().collect::<Vec<String>>()
    };
    assert_eq!(
        injected(&first),
        injected(&second),
        "fault decisions must replay from the seed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite property: *every* submit yields exactly one
    /// `QueryResponse`, across panics, cancels, epoch swaps, and drains —
    /// no ticket is ever lost, no permit ever leaks.
    #[test]
    fn every_submit_yields_exactly_one_response(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        panic_prob in 0.0f64..0.4,
        cancel_prob in 0.0f64..0.5,
        drain in 0u8..2,
    ) {
        let f = fixture();
        let workload = storm_workload(10);
        let mut server = make_server(ServerConfig {
            workers,
            admission: AdmissionConfig {
                max_queue_depth: 8,
                ..Default::default()
            },
            faults: Some(ServerFaults {
                plan_build_failure: 0.1,
                worker_panic: panic_prob,
                ..ServerFaults::new(seed)
            }),
            ..Default::default()
        });
        let report = run_chaos(
            &server,
            &workload,
            |req| baselines()[&req.predicate.to_string()].clone(),
            |_| { server.publish_pps(f.pp_catalog.clone()); },
            &ChaosConfig {
                seed: seed ^ 0x9E3779B9,
                cancel_probability: cancel_prob,
                publish_every: Some(4),
            },
        );
        prop_assert!(
            report.lost_tickets == 0,
            "lost tickets:\n{}",
            report.events.join("\n")
        );
        prop_assert!(
            report.mismatches.is_empty(),
            "mismatches:\n{}",
            report.events.join("\n")
        );
        prop_assert_eq!(
            report.completed + report.cancelled + report.failed + report.rejected,
            report.submitted - report.rejected_at_submit
        );
        prop_assert!(server.in_flight() == 0, "permits leaked");
        if drain == 1 {
            let dr = server.drain(Duration::from_millis(200));
            prop_assert_eq!(dr.in_flight_at_drain, 0);
        } else {
            server.shutdown();
        }
    }
}
