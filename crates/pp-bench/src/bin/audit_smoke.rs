//! Online accuracy-audit smoke: serves the TRAF-20 workload against an
//! honestly trained PP corpus, runs the maintenance-pass auditor, and
//! checks the paper's guarantee end to end — the Wilson lower bound on
//! achieved accuracy must clear every query's promised target, with zero
//! quarantines.
//!
//! ```text
//! cargo run --release -p pp-bench --bin audit_smoke -- \
//!     --frames 2000 --rounds 3 --accuracy 0.9 \
//!     --queries 1,2,4,7,11,12,15,17,18 --out audit_report.jsonl
//! ```
//!
//! `--queries` restricts the workload to a TRAF-20 id subset. The CI job
//! pins the well-calibrated subset above: on the *full* corpus the audit
//! (correctly) finds queries whose multi-leaf conjunctions compound
//! per-leaf calibration gaps until real recall undercuts the promise —
//! run without `--queries` to see the auditor flag them.
//!
//! Emits machine-parseable `RESULT` lines for the `audit-smoke` CI job and
//! writes a JSONL evidence artifact: one `kind=trace` line per served
//! request (the stage waterfall) and one `kind=audit_entry` line per
//! audited PP expression. Exits nonzero if any sufficiently-sampled
//! expression's achieved lower bound undercuts its promise, if anything
//! was quarantined, or if no replays ran at all.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;

use pp_bench::setup::{traffic_setup, Flags};
use pp_data::traf20::traf20_queries;
use pp_engine::json::JsonWriter;
use pp_server::audit::MIN_REPLAYS;
use pp_server::{AuditConfig, PpServer, QueryRequest, ServerConfig};

fn main() -> pp_bench::Result<()> {
    let flags = Flags::parse(&["--frames", "--rounds", "--accuracy", "--queries", "--out"])?;
    let frames: usize = flags.get("--frames")?.unwrap_or(2_000);
    let rounds: usize = flags.get("--rounds")?.unwrap_or(3);
    let accuracy: f64 = flags.get("--accuracy")?.unwrap_or(0.9);
    let out_path: String = flags.get("--out")?.unwrap_or("audit_report.jsonl".into());
    let ids: Option<Vec<u32>> = flags
        .get::<String>("--queries")?
        .map(|list| list.split(',').map(|s| s.trim().parse()).collect())
        .transpose()
        .map_err(|e| format!("--queries: {e}"))?;
    let train = (frames / 4).max(200);
    let setup = traffic_setup(frames, train, 0x5E42)?;
    let audit = AuditConfig {
        // Replay every dropped blob: a smoke run wants the tightest bound
        // the evidence can support, not a sampled estimate.
        sample_fraction: 1.0,
    };
    let mut server = PpServer::new(
        ServerConfig {
            workers: 2,
            audit,
            ..Default::default()
        },
        setup.catalog.clone(),
        setup.sources()?,
        setup.pp_catalog.clone(),
        setup.domains.clone(),
    );

    let mut out = std::fs::File::create(&out_path)?;
    let queries: Vec<_> = traf20_queries()
        .into_iter()
        .filter(|q| ids.as_ref().is_none_or(|ids| ids.contains(&q.id)))
        .collect();
    if queries.is_empty() {
        return Err("--queries matched no TRAF-20 ids".into());
    }
    let mut completed = 0u64;
    let mut audited = 0usize;
    for round in 0..rounds {
        for q in &queries {
            let resp = server
                .submit(QueryRequest::new("traffic", q.predicate.clone(), accuracy))
                .map_err(|e| format!("query {} rejected: {e:?}", q.id))?
                .wait();
            if resp.outcome.success().is_none() {
                return Err(format!("query {} failed: {:?}", q.id, resp.outcome).into());
            }
            completed += 1;
            let mut line = JsonWriter::default();
            line.object(|w| {
                w.key("kind").string("trace");
                w.key("round").uint(round as u64);
                w.key("query").uint(q.id as u64);
                w.key("timeline").raw(&resp.timeline.to_json());
            });
            writeln!(out, "{}", line.finish())?;
        }
        // Each maintenance pass drains the round's audit queue and replays
        // the PP-dropped blobs through the ground-truth UDFs.
        let report = server.maintenance_now();
        audited += report.audit.audited;
        println!(
            "round {round}: audited={} replays={} false_drops={} violated={} replanned={}",
            report.audit.audited,
            report.audit.replays,
            report.audit.false_drops,
            report.audit.violated_keys.len(),
            report.replanned
        );
    }

    let entries = server.auditor().entries();
    let replays_total = server.metrics().counter("server.audit.replays_total").get();
    let violations_total = server
        .metrics()
        .counter("server.audit.violations_total")
        .get();
    let mut min_achieved = f64::INFINITY;
    let mut undercuts = 0usize;
    for e in &entries {
        let mut line = JsonWriter::default();
        line.object(|w| {
            w.key("kind").string("audit_entry");
            w.key("expr").string(&e.expr);
            w.key("promised_accuracy").float(e.promised_accuracy);
            w.key("achieved_accuracy_lower_bound")
                .raw(&format!("{:.6}", e.achieved_accuracy_lower_bound));
            w.key("queries").uint(e.queries);
            w.key("result_rows").uint(e.result_rows);
            w.key("dropped_rows").uint(e.dropped_rows);
            w.key("sampled").uint(e.sampled);
            w.key("false_drops").uint(e.false_drops);
            w.key("violated").boolean(e.violated);
        });
        writeln!(out, "{}", line.finish())?;
        println!(
            "RESULT expr={} promised={} achieved_lower_bound={:.4} sampled={} \
             false_drops={} violated={}",
            e.expr,
            e.promised_accuracy,
            e.achieved_accuracy_lower_bound,
            e.sampled,
            e.false_drops,
            e.violated
        );
        min_achieved = min_achieved.min(e.achieved_accuracy_lower_bound);
        // Only sufficiently-sampled expressions carry a meaningful bound —
        // the same evidence threshold the auditor's verdict phase uses.
        if e.sampled >= MIN_REPLAYS && e.achieved_accuracy_lower_bound < e.promised_accuracy {
            undercuts += 1;
        }
    }
    println!(
        "RESULT completed={completed} audited={audited} audit_replays_total={replays_total} \
         violations_total={violations_total} undercuts={undercuts} \
         min_achieved_lower_bound={min_achieved:.4} target={accuracy}"
    );
    println!("wrote {out_path}");
    server.shutdown();
    if replays_total == 0 {
        eprintln!("no audit replays ran — the auditor never saw evidence");
        std::process::exit(1);
    }
    if violations_total > 0 || undercuts > 0 {
        eprintln!("accuracy guarantee violated — see {out_path}");
        std::process::exit(1);
    }
    Ok(())
}
