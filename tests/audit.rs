//! The online accuracy auditor, end to end: on an honestly-trained corpus
//! the audited accuracy lower bound clears the promised target and nothing
//! is quarantined; a rigged PP (trained on inverted labels, so it
//! confidently drops true matches) provably trips
//! `QuarantineReason::AccuracyViolation` and the same maintenance pass
//! replans the poisoned cache entries — after which verdicts are
//! byte-identical to a PP-free baseline. Audit evidence is a pure function
//! of the seed and the submission sequence, and enabling the auditor never
//! perturbs any query's verdicts, charges, or telemetry snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use probabilistic_predicates::core::runtime::QuarantineReason;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::predicate::{Clause, CompareOp, Predicate};
use probabilistic_predicates::engine::udf::{ClosureProcessor, Processor};
use probabilistic_predicates::engine::{
    Catalog, EngineError, RowGroupMeta, Rowset, Schema, TableProvider,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::audit::{MAX_PENDING, MAX_TASKS_PER_PASS, MIN_REPLAYS};
use probabilistic_predicates::server::{
    rows_digest, AuditConfig, PpServer, QueryOutcome, QueryRequest, QuerySuccess, ServerConfig,
    SourceRegistry, SourceSpec,
};
use probabilistic_predicates::store::{SegmentScan, SegmentWriter, SegmentWriterConfig};

struct Fixture {
    dataset: TrafficDataset,
    catalog: Catalog,
    sources: SourceRegistry,
    /// Honestly trained corpus (labels = ground truth).
    honest: PpCatalog,
    /// One PP trained on *inverted* labels: its validation curve looks
    /// healthy, but at serve time it drops exactly the true matches.
    rigged: PpCatalog,
    domains: Domains,
    suv: Predicate,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0x0B5E,
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
        let honest = trainer.train_catalog(&clauses, &labeled).expect("train");

        let suv_clause = Clause::new("vehType", CompareOp::Eq, "SUV");
        let suv = Predicate::from(suv_clause.clone());
        assert!(
            clauses.contains(&suv_clause),
            "SUV clause must be in the PP corpus"
        );
        // Inverted labels: mirrors `labeled_for_clause_range` but flips
        // each sample's truth, producing a model that scores true matches
        // LOW. Validation (on the same inverted labels) still reports a
        // great accuracy curve — exactly the failure mode only an online
        // audit against ground truth can catch.
        let inverted = dataset
            .labeled_for_clause_range(&suv_clause, 0..400)
            .negated();
        let rigged = trainer
            .train_catalog(std::slice::from_ref(&suv_clause), &[inverted])
            .expect("train rigged");

        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        let sources = registry(&dataset, |udf| udf);
        Fixture {
            dataset,
            catalog,
            sources,
            honest,
            rigged,
            domains,
            suv,
        }
    })
}

/// The `traffic` source over `dataset`'s five UDFs, `vehType`'s through
/// `wrap`.
fn registry(
    dataset: &TrafficDataset,
    wrap: impl Fn(Arc<dyn Processor>) -> Arc<dyn Processor>,
) -> SourceRegistry {
    let mut spec = SourceSpec::new("traffic");
    for col in ["vehType", "vehColor", "speed", "fromI", "toI"] {
        let udf = dataset.udf(col).expect("known column");
        spec = spec.with_udf(col, if col == "vehType" { wrap(udf) } else { udf });
    }
    let mut sources = SourceRegistry::new();
    sources.register("traffic", spec);
    sources
}

fn make_server(pps: PpCatalog, audit: AuditConfig) -> PpServer {
    let f = fixture();
    PpServer::new(
        ServerConfig {
            workers: 1,
            audit,
            ..Default::default()
        },
        f.catalog.clone(),
        f.sources.clone(),
        pps,
        f.domains.clone(),
    )
}

fn audit_config() -> AuditConfig {
    AuditConfig {
        sample_fraction: 0.5,
    }
}

fn complete(server: &PpServer, request: QueryRequest) -> Box<QuerySuccess> {
    match server.submit(request).expect("admitted").wait().outcome {
        QueryOutcome::Complete(s) => s,
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Honest corpus: the audit replays dropped blobs, the Wilson lower bound
/// on achieved accuracy clears the promised target, and nothing is
/// quarantined.
#[test]
fn honest_corpus_passes_the_audit() {
    let f = fixture();
    let server = make_server(f.honest.clone(), audit_config());
    for _ in 0..3 {
        let s = complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
        assert!(s.report.chosen.is_some(), "PP must be injected");
    }
    assert!(server.auditor().pending() > 0, "completions enqueue audits");
    let report = server.maintenance_now();
    assert_eq!(report.audit.audited, 3);
    assert!(report.audit.replays > 0, "dropped blobs must be replayed");
    assert!(report.audit.violated_keys.is_empty(), "{report:?}");
    let entries = server.auditor().entries();
    assert!(!entries.is_empty());
    for entry in &entries {
        assert!(entry.sampled >= MIN_REPLAYS, "{entry:?}");
        assert!(
            entry.achieved_accuracy_lower_bound >= entry.promised_accuracy,
            "honest PP flagged: {entry:?}"
        );
        assert!(!entry.violated);
    }
    assert!(server.monitor().broken().is_empty());
    assert!(
        server.auditor().cluster_seconds() > 0.0,
        "replay work is metered separately"
    );
    assert!(server.metrics().counter("server.audit.replays_total").get() > 0);
}

/// Rigged PP: the audit's ground-truth replay exposes the false drops,
/// quarantines the PP with a typed `AccuracyViolation`, and the *same*
/// maintenance pass replans the poisoned cache entry — after which
/// verdicts are byte-identical to a PP-free baseline.
#[test]
fn rigged_pp_is_quarantined_and_replanned() {
    let f = fixture();
    let server = make_server(f.rigged.clone(), audit_config());
    let rigged_key = f
        .rigged
        .all()
        .first()
        .map(|pp| pp.key().to_string())
        .expect("rigged corpus has one PP");

    let before = complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    assert!(before.report.chosen.is_some(), "rigged PP must be chosen");

    // The PP-free baseline: what the query *should* return.
    let baseline_server = make_server(PpCatalog::new(), audit_config());
    let baseline = complete(
        &baseline_server,
        QueryRequest::new("traffic", f.suv.clone(), 0.9),
    );
    assert!(
        rows_digest(&before.rows) != rows_digest(&baseline.rows),
        "the rigged PP must actually lose true matches for this test to bite"
    );

    let report = server.maintenance_now();
    assert!(
        report.audit.violated_keys.contains(&rigged_key),
        "audit must quarantine the rigged PP: {report:?}"
    );
    match server.monitor().why_broken(&rigged_key) {
        Some(QuarantineReason::AccuracyViolation {
            promised_millis,
            achieved_millis,
        }) => {
            assert_eq!(promised_millis, 900);
            assert!(
                achieved_millis < promised_millis,
                "achieved {achieved_millis} must undercut the promise"
            );
        }
        other => panic!("expected AccuracyViolation, got {other:?}"),
    }
    assert_eq!(report.replanned, 1, "the poisoned cache entry is replanned");

    // Post-replan, the swapped plan excludes the quarantined PP: verdicts
    // now match the PP-free baseline byte for byte.
    let after = complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    assert!(
        after.cache_hit,
        "replan swaps the entry; the key still hits"
    );
    assert_eq!(rows_digest(&after.rows), rows_digest(&baseline.rows));
}

/// Audit evidence is a pure function of the fixed seed and the
/// submission sequence: two servers fed identically produce byte-identical
/// audit entries, and changing the sample fraction changes the sampled set
/// but not what was dropped and returned.
#[test]
fn audit_evidence_replays_from_the_seed() {
    let f = fixture();
    let run = |sample_fraction: f64| {
        let server = make_server(f.honest.clone(), AuditConfig { sample_fraction });
        for _ in 0..2 {
            complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
        }
        server.maintenance_now();
        server.auditor().entries()
    };
    let first = run(0.5);
    let second = run(0.5);
    assert_eq!(first, second, "identical servers must audit identically");
    let other = run(0.4);
    assert_eq!(first.len(), other.len());
    assert!(
        first
            .iter()
            .zip(other.iter())
            .any(|(a, b)| a.sampled != b.sampled),
        "a different fraction must sample a different set"
    );
    // Totals the sampler cannot change: what was dropped and returned.
    for (a, b) in first.iter().zip(other.iter()) {
        assert_eq!(a.dropped_rows, b.dropped_rows);
        assert_eq!(a.result_rows, b.result_rows);
    }
}

/// The auditor's *replay machinery* never perturbs the queries it audits:
/// verdicts, plan reports, and wall-clock-zeroed telemetry snapshots are
/// byte-identical whether a pass replays every dropped blob or none — even
/// with maintenance passes (and their replays) interleaved between
/// submissions. Replaying every drop makes the bound exact, and the
/// honest corpus keeps its promise on each query, so no verdict
/// quarantines anything: a quarantine + replan is the auditor's *designed*
/// intervention, not a perturbation; what must be invisible is everything
/// up to that verdict.
#[test]
fn audit_never_perturbs_query_results() {
    let f = fixture();
    let run = |sample_fraction: f64| {
        let server = make_server(f.honest.clone(), AuditConfig { sample_fraction });
        let mut lines = Vec::new();
        for round in 0..3 {
            let s = complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
            let mut snap = s.telemetry.clone();
            snap.zero_wall_clock();
            // `PlanReport::optimize_seconds` is wall clock; compare the
            // deterministic planning outputs only.
            lines.push(format!(
                "round={round} digest={} predicate={} chosen={:?} telemetry={}",
                rows_digest(&s.rows),
                s.report.predicate,
                s.report.chosen,
                snap.to_json()
            ));
            // Interleave audit replays with live queries: later rounds must
            // not see any difference.
            let report = server.maintenance_now();
            assert_eq!(
                report.audit.replays > 0,
                sample_fraction > 0.0,
                "replay work runs when it samples"
            );
            assert!(report.audit.violated_keys.is_empty(), "{report:?}");
        }
        lines
    };
    let audited = run(1.0);
    let unaudited = run(0.0);
    assert_eq!(audited, unaudited);
}

/// Without a maintenance pass nothing drains the audit queue, so it is
/// bounded: past `MAX_PENDING` (four passes' worth) the oldest task is
/// dropped and counted, and the next pass still replays the newest ones.
#[test]
fn audit_queue_is_bounded_without_a_maintenance_pass() {
    let f = fixture();
    assert_eq!(MAX_PENDING, 4 * MAX_TASKS_PER_PASS);
    let server = make_server(f.honest.clone(), audit_config());
    let overflow = 3;
    for _ in 0..MAX_PENDING + overflow {
        complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    }
    assert_eq!(server.auditor().pending(), MAX_PENDING);
    assert_eq!(
        server.metrics().counter("server.audit.dropped_total").get(),
        overflow as u64
    );
    assert_eq!(server.maintenance_now().audit.audited, MAX_TASKS_PER_PASS);
    assert_eq!(server.auditor().pending(), MAX_PENDING - MAX_TASKS_PER_PASS);
}

/// Delegates to the fixture's table and counts group decodes.
#[derive(Debug)]
struct CountingProvider {
    inner: Arc<dyn TableProvider>,
    reads: AtomicUsize,
}

impl TableProvider for CountingProvider {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }
    fn group_count(&self) -> usize {
        self.inner.group_count()
    }
    fn group_meta(&self, index: usize) -> &RowGroupMeta {
        self.inner.group_meta(index)
    }
    fn read_group(&self, index: usize) -> probabilistic_predicates::engine::Result<Rowset> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_group(index)
    }
    fn resident(&self) -> bool {
        self.inner.resident()
    }
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

/// A pass decodes each source table once and shares it across the tasks
/// it drains, however many there are.
#[test]
fn an_audit_pass_reads_each_table_once() {
    let f = fixture();
    let counting = Arc::new(CountingProvider {
        inner: Arc::clone(f.catalog.provider("traffic").expect("registered")),
        reads: AtomicUsize::new(0),
    });
    let mut catalog = f.catalog.clone();
    catalog.register_provider("traffic", counting.clone());
    let server = PpServer::new(
        ServerConfig {
            workers: 1,
            audit: audit_config(),
            ..Default::default()
        },
        catalog,
        f.sources.clone(),
        f.honest.clone(),
        f.domains.clone(),
    );
    for _ in 0..3 {
        complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    }
    let before = counting.reads.load(Ordering::Relaxed);
    assert_eq!(server.maintenance_now().audit.audited, 3);
    assert_eq!(
        counting.reads.load(Ordering::Relaxed) - before,
        counting.group_count(),
        "three tasks over one table decode it once"
    );
}

/// The audit's dropped count is the run's: each entry's `dropped_rows` is
/// what the PP spans of its audited runs filtered, read off the run
/// rather than recounted against the table.
#[test]
fn the_audit_takes_its_dropped_count_from_the_runs() {
    let f = fixture();
    let server = make_server(f.honest.clone(), audit_config());
    let red = Predicate::from(Clause::new("vehColor", CompareOp::Eq, "red"));
    let mut filtered: BTreeMap<String, u64> = BTreeMap::new();
    for predicate in [&f.suv, &red, &f.suv] {
        let s = complete(
            &server,
            QueryRequest::new("traffic", predicate.clone(), 0.9),
        );
        let chosen = s.report.chosen.as_ref().expect("PP must be injected");
        let span = (s.telemetry.spans.iter())
            .find(|span| span.op == chosen.filter_op())
            .expect("the PP ran");
        *filtered.entry(chosen.expr.clone()).or_default() += span.rows_filtered;
    }
    filtered.retain(|_, dropped| *dropped > 0);
    assert!(!filtered.is_empty(), "the PPs must drop something");
    assert_eq!(server.maintenance_now().audit.audited, 3);
    let audited: BTreeMap<String, u64> = (server.auditor().entries().into_iter())
        .map(|e| (e.expr, e.dropped_rows))
        .collect();
    assert_eq!(audited, filtered);
}

/// A UDF that derives two matching rows from one blob: the replay's
/// output holds that blob twice, and the audit counts it once, as a
/// replay and, when it matches, as a false drop.
#[test]
fn a_fanned_out_replay_counts_each_blob_once() {
    let f = fixture();
    let run = |sources: SourceRegistry| {
        let server = PpServer::new(
            ServerConfig {
                workers: 1,
                audit: AuditConfig {
                    sample_fraction: 1.0,
                },
                ..Default::default()
            },
            f.catalog.clone(),
            sources,
            f.rigged.clone(),
            f.domains.clone(),
        );
        complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
        let report = server.maintenance_now().audit;
        let entries = server.auditor().entries();
        assert_eq!(entries.len(), 1);
        (report.replays, report.false_drops, entries[0].clone())
    };
    let twice = |udf: Arc<dyn Processor>| -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::new(
            format!("{}Twice", udf.name()),
            udf.output_columns().to_vec(),
            udf.cost_per_row(),
            move |row, schema, out| {
                udf.process(row, schema, out)?;
                udf.process(row, schema, out)
            },
        ))
    };
    let (replays, false_drops, once) = run(f.sources.clone());
    let (fanned_replays, fanned_false_drops, fanned) = run(registry(&f.dataset, twice));
    assert!(false_drops > 0, "the rigged PP must drop true matches");
    assert_eq!(
        fanned.result_rows,
        2 * once.result_rows,
        "every matching blob derives two rows"
    );
    assert_eq!((fanned_replays, fanned_false_drops), (replays, false_drops));
    assert_eq!(
        (fanned.sampled, fanned.false_drops),
        (once.sampled, once.false_drops)
    );
    assert_eq!(
        fanned.sampled, fanned.dropped_rows,
        "every drop is replayed"
    );
}

/// Over a segment source whose zone maps prune, the audit samples the
/// rows its run scanned: the dropped count it bounds and the rows it
/// replays describe the same pruned read, not the whole table.
#[test]
fn a_pruned_scan_is_audited_over_the_rows_it_read() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("pp-audit-pruned-{}", std::process::id()));
    let table = f.catalog.read_table("traffic").expect("registered");
    let paths = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 50 })
        .write_shards(&dir, "traffic", &table, 1)
        .expect("write");
    let mut catalog = f.catalog.clone();
    let scan = SegmentScan::open(&paths).expect("open");
    catalog.register_provider("traffic", Arc::new(scan));
    let server = PpServer::new(
        ServerConfig {
            workers: 1,
            audit: AuditConfig {
                sample_fraction: 1.0,
            },
            ..Default::default()
        },
        catalog,
        f.sources.clone(),
        f.honest.clone(),
        f.domains.clone(),
    );
    let early = Predicate::And(vec![
        f.suv.clone(),
        Predicate::from(Clause::new("frameID", CompareOp::Lt, 600i64)),
    ]);
    let s = complete(&server, QueryRequest::new("traffic", early, 0.9));
    let chosen = s.report.chosen.as_ref().expect("PP must be injected");
    let pruned: usize = s.report.zone_pushdowns.iter().map(|z| z.rows_pruned).sum();
    assert!(pruned > 0, "the zone maps must prune for this test to bite");
    let span = (s.telemetry.spans.iter())
        .find(|span| span.op == chosen.filter_op())
        .expect("the PP ran");
    assert_eq!(server.maintenance_now().audit.audited, 1);
    let entries = server.auditor().entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].dropped_rows, span.rows_filtered);
    assert_eq!(
        entries[0].sampled, entries[0].dropped_rows,
        "every drop of the read, and only those, is replayed"
    );
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// A replay is one executor run per audited query: when a UDF still fails
/// after the executor's retries, the run has no ground truth, so the task
/// gives no evidence at all — though its work is still billed.
#[test]
fn a_replay_that_fails_gives_its_task_no_evidence() {
    let f = fixture();
    let broken = Arc::new(AtomicBool::new(false));
    let flaky = |udf: Arc<dyn Processor>| -> Arc<dyn Processor> {
        let broken = Arc::clone(&broken);
        Arc::new(ClosureProcessor::map(
            udf.name().to_string(),
            udf.output_columns().to_vec(),
            udf.cost_per_row(),
            move |row, schema, out| {
                let frame = row.get_named(schema, "frameID")?.as_int()?;
                if broken.load(Ordering::Relaxed) && frame % 2 == 1 {
                    return Err(EngineError::Udf(format!("frame {frame} unreadable")));
                }
                udf.process(row, schema, out)
            },
        ))
    };
    let server = PpServer::new(
        ServerConfig {
            workers: 1,
            audit: AuditConfig {
                sample_fraction: 1.0,
            },
            ..Default::default()
        },
        f.catalog.clone(),
        registry(&f.dataset, flaky),
        f.honest.clone(),
        f.domains.clone(),
    );
    complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    // Odd frames fail from here on: every dropped even frame would still
    // replay, but the task's one run does not complete.
    broken.store(true, Ordering::Relaxed);
    let report = server.maintenance_now().audit;
    assert_eq!(
        (report.audited, report.replays, report.false_drops),
        (1, 0, 0)
    );
    let entries = server.auditor().entries();
    assert_eq!(entries.len(), 1);
    assert!(entries[0].dropped_rows > 0, "{:?}", entries[0]);
    assert_eq!((entries[0].sampled, entries[0].false_drops), (0, 0));
    assert!(
        server.auditor().cluster_seconds() > 0.0,
        "the work is billed"
    );
}
