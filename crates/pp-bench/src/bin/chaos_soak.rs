//! Seeded chaos soak: drives the serving runtime through repeated fault
//! storms and checks the robustness invariants after each one.
//!
//! Each round builds a fresh [`PpServer`] with server-side fault
//! injection (slow/failing plan builds, worker panics), then runs a
//! [`run_chaos`] storm composing engine-level UDF faults, randomized
//! cancels, publish storms, and admission pressure, and finishes with a
//! bounded [`drain`](PpServer::drain). Invariants, every round:
//!
//! * no ticket lost (zero "worker disappeared" fallbacks),
//! * zero leaked admission permits,
//! * completed queries byte-identical to the fault-free serial baseline,
//! * the cache/catalog still serve a clean probe afterwards.
//!
//! ```text
//! cargo run --release -p pp-bench --bin chaos_soak -- \
//!     --rounds 4 --requests 24 --seed 3405691582 --log chaos_events.log
//! ```
//!
//! The full per-round event log is written to `--log` (the CI artifact on
//! failure); the final `RESULT` line is machine-parseable for the
//! `chaos-smoke` CI job.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::time::Duration;

use pp_bench::setup::{traffic_setup, Flags};
use pp_data::traf20::traf20_queries;
use pp_engine::fault::{FaultPlan, FaultSpec};
use pp_engine::telemetry::LatencyHistogram;
use pp_server::{
    rows_digest, run_chaos, AdmissionConfig, CacheConfig, ChaosConfig, PpServer, QueryRequest,
    ServerConfig, ServerFaults,
};

fn main() -> pp_bench::Result<()> {
    let flags = Flags::parse(&["--rounds", "--requests", "--seed", "--frames", "--log"])?;
    let rounds: usize = flags.get("--rounds")?.unwrap_or(4);
    let requests: usize = flags.get("--requests")?.unwrap_or(24);
    let seed: u64 = flags.get("--seed")?.unwrap_or(0xCAFEBABE);
    let frames: usize = flags.get("--frames")?.unwrap_or(1_200);
    let log_path: String = flags.get("--log")?.unwrap_or("chaos_events.log".into());
    let train = (frames / 4).max(200);
    let setup = traffic_setup(frames, train, 0x5E42)?;
    let sources = setup.sources()?;
    let make_server = |config: ServerConfig| {
        PpServer::new(
            config,
            setup.catalog.clone(),
            sources.clone(),
            setup.pp_catalog.clone(),
            setup.domains.clone(),
        )
    };

    // Fault-free serial baselines: predicate → rows digest.
    let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 4).collect();
    let mut baselines = std::collections::HashMap::new();
    {
        let mut server = make_server(ServerConfig {
            workers: 1,
            ..Default::default()
        });
        for q in &queries {
            let resp = server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), 0.95))
                .map_err(|e| format!("baseline Q{} rejected: {e:?}", q.id))?
                .wait();
            let s = resp
                .outcome
                .success()
                .ok_or_else(|| format!("baseline Q{} failed: {:?}", q.id, resp.outcome))?;
            baselines.insert(q.predicate.to_string(), rows_digest(&s.rows));
        }
        server.shutdown();
    }

    let workload: Vec<QueryRequest> = (0..requests)
        .map(|i| {
            let q = &queries[i % queries.len()];
            let mut req = QueryRequest::new("traffic", q.predicate.clone(), 0.95);
            if i % 3 == 0 {
                // Processor-targeted transient faults only: retried
                // successes stay byte-identical, exhausted retries land as
                // typed failures. PP-targeted faults would legitimately
                // change result rows and break the baseline oracle.
                req = req.with_fault_plan(
                    FaultPlan::new(seed ^ i as u64)
                        .inject("VehTypeClassifier", FaultSpec::transient(0.3)),
                );
            }
            req
        })
        .collect();

    let mut log = std::fs::File::create(&log_path)?;
    let mut totals = (0usize, 0usize, 0usize, 0usize, 0usize); // completed, cancelled, failed, rejected, shed
    let mut lost = 0usize;
    let mut mismatches = 0usize;
    let mut leaked = 0usize;
    let mut poisoned = 0usize;
    let mut shared_submits = 0usize;
    // Per-stage latency merged across every round's server: under faults
    // the waterfall shows *where* the storm's latency (and the cancels'
    // short-circuits) landed.
    let mut stage_totals: std::collections::BTreeMap<String, LatencyHistogram> =
        std::collections::BTreeMap::new();
    for round in 0..rounds {
        let workers = [1, 2, 4, 8][round % 4];
        let round_seed = seed.wrapping_add(round as u64);
        let mut server = make_server(ServerConfig {
            workers,
            admission: AdmissionConfig {
                max_queue_depth: (requests * 3) / 4,
                ..Default::default()
            },
            cache: CacheConfig { max_entries: 2 },
            faults: Some(ServerFaults {
                plan_build_failure: 0.15,
                plan_build_delay_probability: 0.3,
                plan_build_delay: Duration::from_millis(2),
                worker_panic: 0.1,
                ..ServerFaults::new(round_seed)
            }),
            ..Default::default()
        });
        let report = run_chaos(
            &server,
            &workload,
            |req| baselines[&req.predicate.to_string()].clone(),
            |_| {
                server.publish_pps(setup.pp_catalog.clone());
            },
            &ChaosConfig {
                seed: round_seed ^ 0x9E3779B97F4A7C15,
                cancel_probability: 0.25,
                publish_every: Some(5),
                // Route a slice of each round through the shared-scan
                // coordinator; byte-identity means the baselines apply
                // unchanged.
                shared_probability: 0.35,
            },
        );
        // Post-storm probe: the cache/catalog must still serve cleanly.
        // The probe draws injected faults like any other request (fault
        // decisions key on request_id), so retry — each resubmit gets a
        // fresh id; only genuine poisoning persists across attempts.
        let probe = &workload[1];
        let probe_ok = (0..10)
            .find_map(|_| {
                let resp = server.submit(probe.clone()).ok()?.wait();
                resp.outcome.success().map(|s| rows_digest(&s.rows))
            })
            .is_some_and(|digest| digest == baselines[&probe.predicate.to_string()]);
        let drain = server.drain(Duration::from_millis(500));
        let round_leaked = server.in_flight();
        for (name, hist) in server.metrics().histogram_samples() {
            if let Some(stage) = name
                .strip_prefix("server.stage.")
                .and_then(|s| s.strip_suffix("_seconds"))
            {
                stage_totals
                    .entry(stage.to_string())
                    .or_default()
                    .merge(&hist);
            }
        }
        writeln!(
            log,
            "# round={round} workers={workers} seed={round_seed} lost={} mismatches={} \
             leaked={round_leaked} probe_ok={probe_ok} drain_clean={}",
            report.lost_tickets,
            report.mismatches.len(),
            drain.clean,
        )?;
        for event in &report.events {
            writeln!(log, "round={round} {event}")?;
        }
        totals.0 += report.completed;
        totals.1 += report.cancelled;
        totals.2 += report.failed;
        totals.3 += report.rejected;
        totals.4 += report.rejected_at_submit;
        lost += report.lost_tickets;
        mismatches += report.mismatches.len();
        leaked += round_leaked;
        poisoned += usize::from(!probe_ok);
        shared_submits += report.shared_submits;
        println!(
            "round {round}: workers={workers} completed={} cancelled={} failed={} \
             rejected={} shed={} lost={} mismatches={} shared={} probe_ok={probe_ok}",
            report.completed,
            report.cancelled,
            report.failed,
            report.rejected,
            report.rejected_at_submit,
            report.lost_tickets,
            report.mismatches.len(),
            report.shared_submits,
        );
    }
    println!(
        "\nRESULT rounds={} completed={} cancelled={} failed={} rejected={} shed={} \
         lost_tickets={lost} mismatches={mismatches} permits_leaked={leaked} poisoned={poisoned} \
         shared_submits={shared_submits}",
        rounds, totals.0, totals.1, totals.2, totals.3, totals.4,
    );
    for stage in [
        "admission",
        "queue",
        "window",
        "cache",
        "execute",
        "respond",
    ] {
        if let Some(h) = stage_totals.get(stage) {
            if h.count() > 0 {
                println!(
                    "RESULT stage={stage} p50_ms={:.3} p99_ms={:.3} count={}",
                    h.p50() * 1e3,
                    h.p99() * 1e3,
                    h.count()
                );
            }
        }
    }
    if lost + mismatches + leaked + poisoned > 0 {
        eprintln!("invariant violation — see {}", log_path);
        std::process::exit(1);
    }
    Ok(())
}
