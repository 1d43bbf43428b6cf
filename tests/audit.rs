//! The online accuracy auditor, end to end: on an honestly-trained corpus
//! the audited accuracy lower bound clears the promised target and nothing
//! is quarantined; a rigged PP (trained on inverted labels, so it
//! confidently drops true matches) provably trips
//! `QuarantineReason::AccuracyViolation` and the same maintenance pass
//! replans the poisoned cache entries — after which verdicts are
//! byte-identical to a PP-free baseline. Audit evidence is a pure function
//! of the seed and the submission sequence, and enabling the auditor never
//! perturbs any query's verdicts, charges, or telemetry snapshot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use probabilistic_predicates::core::runtime::QuarantineReason;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::predicate::{Clause, CompareOp, Predicate};
use probabilistic_predicates::engine::{Catalog, Chunk, RowGroupMeta, Schema, TableProvider};
use probabilistic_predicates::ml::dataset::{LabeledSet, Sample};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::{
    rows_digest, AuditConfig, PpServer, QueryOutcome, QueryRequest, QuerySuccess, ServerConfig,
    SourceRegistry, SourceSpec,
};

struct Fixture {
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
        let inverted = LabeledSet::new(
            (0..400)
                .map(|i| {
                    let sample = dataset.labeled_for_clause_range(&suv_clause, i..i + 1);
                    let s = &sample.samples()[0];
                    Sample::new(s.features.clone(), !s.label)
                })
                .collect(),
        )
        .expect("inverted labeled set");
        let rigged = trainer
            .train_catalog(std::slice::from_ref(&suv_clause), &[inverted])
            .expect("train rigged");

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
            honest,
            rigged,
            domains,
            suv,
        }
    })
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
        seed: 0xA0D17,
        min_replays: 20,
        ..AuditConfig::default()
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
        assert!(entry.sampled >= 20, "{entry:?}");
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
    assert!(report.needs_replan);
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

/// Audit evidence is a pure function of `(seed, submission sequence)`:
/// two servers fed identically produce byte-identical audit entries, and
/// changing the seed changes the sampled set but not the verdict counts'
/// consistency.
#[test]
fn audit_evidence_replays_from_the_seed() {
    let f = fixture();
    let run = |seed: u64| {
        let server = make_server(
            f.honest.clone(),
            AuditConfig {
                seed,
                ..audit_config()
            },
        );
        for _ in 0..2 {
            complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
        }
        server.maintenance_now();
        server.auditor().entries()
    };
    let first = run(0xA0D17);
    let second = run(0xA0D17);
    assert_eq!(first, second, "identical seeds must audit identically");
    let other = run(0xFEED);
    assert_eq!(first.len(), other.len());
    assert!(
        first
            .iter()
            .zip(other.iter())
            .any(|(a, b)| a.sampled != b.sampled),
        "a different seed must sample a different set"
    );
    // Totals the sampler cannot change: what was dropped and returned.
    for (a, b) in first.iter().zip(other.iter()) {
        assert_eq!(a.dropped_rows, b.dropped_rows);
        assert_eq!(a.result_rows, b.result_rows);
    }
}

/// The auditor's *replay machinery* never perturbs the queries it audits:
/// verdicts, plan reports, and wall-clock-zeroed telemetry snapshots are
/// byte-identical with the auditor on and off — even with maintenance
/// passes (and their replays) interleaved between submissions. The verdict
/// phase is held back (`min_replays: u64::MAX`) because a quarantine +
/// replan is the auditor's *designed* intervention, not a perturbation;
/// what must be invisible is everything up to that verdict.
#[test]
fn audit_never_perturbs_query_results() {
    let f = fixture();
    let run = |enabled: bool| {
        let server = make_server(
            f.honest.clone(),
            AuditConfig {
                enabled,
                min_replays: u64::MAX,
                ..audit_config()
            },
        );
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
            if enabled {
                assert!(report.audit.replays > 0, "replay work must actually run");
            }
            assert!(report.audit.violated_keys.is_empty(), "{report:?}");
        }
        lines
    };
    let audited = run(true);
    let unaudited = run(false);
    assert_eq!(audited, unaudited);
}

/// Without a maintenance pass nothing drains the audit queue, so it is
/// bounded: past `AuditConfig::max_pending` the oldest task is dropped
/// and counted, and the next pass still replays the newest ones.
#[test]
fn audit_queue_is_bounded_without_a_maintenance_pass() {
    let f = fixture();
    let config = AuditConfig {
        max_tasks_per_pass: 1,
        ..audit_config()
    };
    let bound = config.max_pending();
    let server = make_server(f.honest.clone(), config);
    let overflow = 3;
    for _ in 0..bound + overflow {
        complete(&server, QueryRequest::new("traffic", f.suv.clone(), 0.9));
    }
    assert_eq!(server.auditor().pending(), bound);
    assert_eq!(
        server.metrics().counter("server.audit.dropped_total").get(),
        overflow as u64
    );
    assert_eq!(server.maintenance_now().audit.audited, 1);
    assert_eq!(server.auditor().pending(), bound - 1);
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
    fn read_group(&self, index: usize) -> probabilistic_predicates::engine::Result<Chunk> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_group(index)
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
