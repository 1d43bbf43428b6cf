//! The out-of-core safety rail: scanning a segment-backed table must be
//! **byte-identical** to scanning the same rows in memory — same result
//! rows, same cost-meter charges, same telemetry snapshot (after
//! `zero_wall_clock`) — at every combination of shard count, parallelism,
//! and batch size, with and without injected faults. Zone-map
//! pruning may only *skip row groups the predicate provably cannot match*:
//! verdicts never change, and the pruned counter proves groups were
//! actually skipped.
//!
//! The golden file under `tests/golden/segment.hex` pins the exact on-disk
//! segment encoding (header, pages for every `Value` variant, zone-mapped
//! footer, trailer), so any codec change that would orphan written corpora
//! shows up as a diff. Regenerate after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test --test store`.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use probabilistic_predicates::core::expr::{PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::{PpCatalog, RuntimeMonitor};
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::bytes::Reader;
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::RowFilter;
use probabilistic_predicates::engine::{
    CancelReason, CancelToken, Catalog, Clause, Column, CompareOp, DataType, EngineError,
    FaultPlan, FaultSpec, LogicalPlan, MemoryProvider, Predicate, Row, Rowset, Schema,
    TableProvider, Value,
};
use probabilistic_predicates::linalg::sparse::SparseVector;
use probabilistic_predicates::linalg::Features;
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::store::{
    crc32, Segment, SegmentScan, SegmentWriter, SegmentWriterConfig, StoreError,
};

mod common;
#[path = "common/fail_closed.rs"]
mod fail_closed;
use fail_closed::fail_closed;

// ---------------------------------------------------------------------------
// Fixture: one TRAF corpus, served both from memory and from shard files.
// ---------------------------------------------------------------------------

struct Fixture {
    dataset: TrafficDataset,
    /// The in-memory reference catalog.
    mem_catalog: Catalog,
    /// Segment-backed catalogs at 1, 2, and 4 shards.
    shard_catalogs: Vec<(usize, Catalog)>,
    /// The shard files behind them, to reopen under a memory budget.
    shard_paths: Vec<Vec<PathBuf>>,
    /// Q1's NoP plan (`vehType = SUV`), the equivalence workhorse.
    q1_plan: LogicalPlan,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pp-store-test-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 400,
            seed: 0x5709,
            ..Default::default()
        });
        let mut mem_catalog = Catalog::new();
        dataset.register(&mut mem_catalog);
        let writer = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 32 });
        let mut shard_catalogs = Vec::new();
        let mut shard_paths = Vec::new();
        for shards in [1usize, 2, 4] {
            let dir = scratch_dir(&format!("shards{shards}"));
            let paths = writer
                .write_shards(&dir, "traffic", dataset.table(), shards)
                .expect("write shards");
            let scan = SegmentScan::open(&paths).expect("open shards");
            assert_eq!(scan.shards().len(), shards);
            let mut catalog = Catalog::new();
            catalog.register_provider("traffic", Arc::new(scan));
            shard_catalogs.push((shards, catalog));
            shard_paths.push(paths);
        }
        let q1 = traf20_queries()
            .into_iter()
            .find(|q| q.id == 1)
            .expect("Q1");
        let q1_plan = q1.nop_plan(&dataset);
        Fixture {
            dataset,
            mem_catalog,
            shard_catalogs,
            shard_paths,
            q1_plan,
        }
    })
}

/// Everything the safety rail compares: result bytes, meter charges, and
/// the wall-clock-scrubbed telemetry snapshot JSON.
fn observe(ctx: &ExecutionContext, out: &Rowset) -> (String, String, String) {
    let mut snap = ctx.telemetry().expect("snapshot after run").clone();
    snap.zero_wall_clock();
    (
        format!("{:?}", out.rows()),
        format!("{:?}", ctx.meter().entries()),
        snap.to_json(),
    )
}

/// Failed UDF attempts of the latest run, all operators together.
fn failures(ctx: &ExecutionContext) -> u64 {
    let snap = ctx.telemetry().expect("snapshot after run");
    snap.spans.iter().map(|s| s.failures).sum()
}

// ---------------------------------------------------------------------------
// Equivalence matrix.
// ---------------------------------------------------------------------------

/// The acceptance gate: a sharded on-disk scan is byte-identical to the
/// in-memory scalar reference (`K=1, batch=1`) at every (shards, K,
/// batch) combination.
#[test]
fn segment_scan_matches_in_memory_at_every_shape() {
    let f = fixture();
    let mut baseline = ExecutionContext::builder(&f.mem_catalog)
        .with_parallelism(1)
        .with_batch_size(1)
        .build();
    let out = baseline.run(&f.q1_plan).expect("in-memory run");
    let base = observe(&baseline, &out);

    for (shards, catalog) in &f.shard_catalogs {
        for k in [1usize, 4] {
            for batch in [1usize, 64] {
                let mut ctx = ExecutionContext::builder(catalog)
                    .with_parallelism(k)
                    .with_batch_size(batch)
                    .build();
                let out = ctx.run(&f.q1_plan).expect("segment run");
                let got = observe(&ctx, &out);
                let shape = format!("shards={shards} K={k} batch={batch}");
                assert_eq!(got.0, base.0, "{shape}: rows diverged");
                assert_eq!(got.1, base.1, "{shape}: charges diverged");
                assert_eq!(got.2, base.2, "{shape}: telemetry diverged");
            }
        }
    }
}

/// The identity holds under seeded fault injection: faults key off row
/// identity, which the contiguous-range sharding preserves exactly.
#[test]
fn segment_scan_matches_in_memory_under_seeded_faults() {
    let f = fixture();
    let spec = FaultSpec::transient(0.2).with_timeouts(0.05, 2.0);
    let run = |catalog: &Catalog, k: usize, batch: usize| {
        let mut ctx = ExecutionContext::builder(catalog)
            .with_fault_plan(FaultPlan::new(0x5709F).inject("VehTypeClassifier", spec))
            .with_parallelism(k)
            .with_batch_size(batch)
            .build();
        let out = ctx.run(&f.q1_plan).expect("faulted run");
        (observe(&ctx, &out), failures(&ctx))
    };
    let (base, base_failures) = run(&f.mem_catalog, 1, 1);
    assert!(base_failures > 0, "faults must fire");
    for (shards, catalog) in &f.shard_catalogs {
        for k in [1usize, 4] {
            let (got, _) = run(catalog, k, 256);
            assert_eq!(got, base, "shards={shards} K={k}: diverged");
        }
    }
}

/// A result set cell by cell, blobs by bit pattern (`Debug` prints a
/// blob as `<blob dim=N>`, hiding its values).
fn digest_bits(out: &Rowset) -> String {
    let mut text = String::new();
    for row in out.rows() {
        for cell in row.values() {
            match cell {
                Value::Blob(f) => match f.as_dense() {
                    Some(xs) => text.extend(xs.iter().map(|x| format!("{:016x}", x.to_bits()))),
                    None => text.push_str(&format!("{f:?}")),
                },
                other => text.push_str(&format!("{other:?}")),
            }
            text.push('|');
        }
        text.push('\n');
    }
    text
}

/// A single-leaf SVM PP for `clause` over the raw blob, as the filter
/// that rides a scan's stream.
fn pp_filter(f: &Fixture, clause: &Clause) -> Arc<dyn RowFilter> {
    let labeled = f.dataset.labeled_for_clause_range(clause, 0..400);
    let pp = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    })
    .train_clause(clause, &labeled)
    .expect("train")
    .remove(0);
    // 0.9: 0.95 needs 59 validation positives, and 400 frames leave 80
    // validation frames, about half of them positive.
    let planned = PlannedPpExpr::new(PpExpr::leaf(Arc::new(pp)), vec![0.9]).expect("plan");
    Arc::new(planned.into_filter("frame"))
}

/// One table source: the same rows registered as an in-memory `Rowset`
/// (one group, no zone maps), as a zone-mapped [`MemoryProvider`], and as
/// segment shards all run down the same scan, so an unpruned scan — with
/// no pushdown, or with one that rules no group out — yields the same
/// rows, the same `Scan` span, and the same charge from each. So does the
/// paper's pipeline over it, `Scan → PP filter → Process → Select`, in
/// which the filter folds the scan's waves: whatever cuts the table into
/// groups and waves — the source, its memory budget, the parallelism —
/// and with or without seeded faults on the filter, rows (blobs bit for
/// bit), spans, charges, telemetry and the resilience report equal the
/// in-memory `K = 1, batch = 1` run's.
#[test]
fn unpruned_scan_is_identical_across_table_sources() {
    let f = fixture();
    let mut grouped = Catalog::new();
    grouped.register_provider(
        "traffic",
        Arc::new(MemoryProvider::new(Arc::clone(f.dataset.table()), 32, 2)),
    );
    let keeps_all = Predicate::from(Clause::new("frameID", CompareOp::Ge, 0i64));
    for plan in [
        LogicalPlan::scan("traffic"),
        LogicalPlan::scan("traffic").with_scan_pushdown("traffic", &keeps_all),
    ] {
        let mut mem_ctx = ExecutionContext::new(&f.mem_catalog);
        let out = mem_ctx.run(&plan).expect("in-memory scan");
        assert_eq!(out.len(), f.dataset.len());
        let base = observe(&mem_ctx, &out);
        let span = mem_ctx
            .telemetry()
            .expect("snapshot")
            .span("Scan[")
            .cloned();
        let span = span.expect("scan span");
        assert_eq!(
            (span.rows_in, span.rows_out, span.rows_filtered),
            (out.len() as u64, out.len() as u64, 0)
        );
        let sources = std::iter::once(("memory provider", &grouped))
            .chain(f.shard_catalogs.iter().map(|(_, c)| ("segments", c)));
        for (label, catalog) in sources {
            let mut ctx = ExecutionContext::new(catalog);
            let out = ctx.run(&plan).expect("scan");
            assert_eq!(observe(&ctx, &out), base, "{label} diverged");
            assert_eq!(
                ctx.registry()
                    .counter("store.row_groups_pruned_total")
                    .get(),
                0,
                "{label} pruned an unprunable scan"
            );
        }
    }

    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let filter = pp_filter(f, &clause);
    let pp_op = filter.name().to_string();
    let plan = LogicalPlan::scan("traffic")
        .filter(filter)
        .process(f.dataset.udf(&clause.column).expect("the clause's UDF"))
        .select(Predicate::from(clause));
    // Every source under no budget, one group per wave, three per wave.
    let mut sources: Vec<(String, Catalog)> = vec![("rowset".into(), f.mem_catalog.clone())];
    for groups in [None, Some(1u64), Some(3)] {
        let budgeted = |provider: Arc<dyn TableProvider>,
                        with: &dyn Fn(u64) -> Arc<dyn TableProvider>| {
            let group = (0..provider.group_count())
                .map(|g| provider.group_meta(g).bytes)
                .max()
                .expect("groups");
            let mut catalog = Catalog::new();
            catalog.register_provider("traffic", groups.map_or(provider, |n| with(n * group)));
            catalog
        };
        let zoned = || MemoryProvider::new(Arc::clone(f.dataset.table()), 32, 2);
        sources.push((
            format!("memory provider, budget {groups:?}"),
            budgeted(Arc::new(zoned()), &|b| {
                Arc::new(zoned().with_memory_budget(b))
            }),
        ));
        for paths in &f.shard_paths {
            let open = || SegmentScan::open(paths).expect("open shards");
            sources.push((
                format!("{} shards, budget {groups:?}", paths.len()),
                budgeted(Arc::new(open()), &|b| {
                    Arc::new(open().with_memory_budget(b))
                }),
            ));
        }
    }
    for faulted in [false, true] {
        let run = |catalog: &Catalog, k: usize, batch: usize| {
            let mut builder = ExecutionContext::builder(catalog)
                .with_parallelism(k)
                .with_batch_size(batch);
            if faulted {
                let spec = FaultSpec::transient(0.2).with_poison(0.02);
                builder = builder.with_fault_plan(FaultPlan::new(0x5709F).inject(&pp_op, spec));
            }
            let mut ctx = builder.build();
            let out = ctx.run(&plan).expect("pipeline run");
            assert!(!out.is_empty());
            let (_, charges, telemetry) = observe(&ctx, &out);
            let pp = ctx.telemetry().expect("snapshot").span(&pp_op);
            let failed_open = pp.expect("PP span").failed_open;
            (
                digest_bits(&out),
                charges,
                telemetry,
                (failures(&ctx), failed_open),
            )
        };
        let base = run(&f.mem_catalog, 1, 1);
        let (base_failures, failed_open) = base.3;
        assert_eq!(base_failures > 0, faulted, "faults fire when injected");
        if faulted {
            assert!(failed_open > 0, "poisoned rows fail open");
        }
        for (label, catalog) in &sources {
            for k in [1usize, 2, 4] {
                let got = run(catalog, k, 256);
                let shape = format!("faulted={faulted} {label} K={k}");
                assert_eq!(got.0, base.0, "{shape}: rows diverged");
                assert_eq!(got.1, base.1, "{shape}: charges diverged");
                assert_eq!(got.2, base.2, "{shape}: telemetry diverged");
            }
        }
    }
}

/// A row group whose blob page is not uniformly dense — a sparse blob, a
/// `Null` and an `Int` among dense vectors in one group, a vector of
/// another dimension in the next — decodes to cells, not a block, so the
/// filter above the scan meets what the row path meets: the sparse cell
/// is scored as stored, the `Null` and the `Int` fail with the row
/// path's errors, in the row path's order, whether those fail open or
/// end the query. (The models treat a vector of the wrong dimension as a
/// caller bug, so the ragged group is decoded here but not scored.)
#[test]
fn an_irregular_blob_group_decodes_to_cells_and_fails_like_the_row_path() {
    use probabilistic_predicates::engine::{Batch, ExecutionContextBuilder};

    let f = fixture();
    let table = f.dataset.table();
    let blob_at = table.schema().index_of("frame").expect("blob column");
    let mut rows: Vec<Row> = table.rows()[..24].to_vec();
    let coords = rows[9].get(blob_at).as_blob().expect("blob").as_dense();
    let coords = coords.expect("traffic blobs are dense").to_vec();
    let pairs = coords.iter().enumerate().map(|(i, v)| (i as u32, *v));
    let sparse = SparseVector::from_pairs(coords.len(), pairs.filter(|(_, v)| *v != 0.0).collect());
    for (at, cell) in [
        (
            9,
            Value::blob(Features::Sparse(sparse.expect("sparse twin"))),
        ),
        (12, Value::Null),
        (14, Value::Int(7)),
        (17, Value::blob(Features::Dense(coords[1..].to_vec()))),
    ] {
        let mut cells = rows[at].values().to_vec();
        cells[blob_at] = cell;
        rows[at] = Row::new(cells);
    }
    let table = Rowset::new(table.schema().clone(), rows).expect("rowset");
    let path = scratch_dir("irregular").join("irregular.pps");
    SegmentWriter::new(SegmentWriterConfig { rows_per_group: 8 })
        .write_segment(&path, &table, 0, 1)
        .expect("write");

    // Group 0 hands over its own block; groups 1 and 2 have none to hand.
    let seg = Segment::open(&path).expect("open");
    for (g, own_block, errors) in [(0, true, 0), (1, false, 2), (2, false, 0)] {
        let chunk = seg.read_group(g).expect("decodes");
        let col = Batch::new(&chunk, 0..chunk.len(), 0).feature_column("frame");
        assert_eq!(col.block.is_some(), own_block, "group {g}");
        assert_eq!(col.refs.is_empty(), own_block, "group {g}");
        assert_eq!(col.errors.len(), errors, "group {g}");
    }

    let scored = Rowset::new(table.schema().clone(), table.rows()[..16].to_vec());
    let scored = scored.expect("rowset");
    let paths = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 8 })
        .write_shards(&scratch_dir("irregular"), "scored", &scored, 1)
        .expect("write");
    let mut mem = Catalog::new();
    mem.register("traffic", scored);
    let mut disk = Catalog::new();
    disk.register_provider(
        "traffic",
        Arc::new(
            SegmentScan::open(&paths)
                .expect("open")
                .with_memory_budget(1),
        ),
    );
    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let filter = pp_filter(f, &clause);
    let pp_op = filter.name().to_string();
    let plan = LogicalPlan::scan("traffic").filter(filter);
    for fail_open in [true, false] {
        let plan = if fail_open {
            plan.clone()
        } else {
            fail_closed(&plan)
        };
        let run = |builder: ExecutionContextBuilder<'_>| {
            let mut ctx = builder.build();
            let rows = match ctx.run(&plan) {
                Ok(out) => digest_bits(&out),
                Err(e) => format!("error: {e}"),
            };
            let mut snap = ctx.telemetry().expect("snapshot").clone();
            snap.zero_wall_clock();
            (rows, format!("{:?}", ctx.meter().entries()), snap)
        };
        let base = run(ExecutionContext::builder(&mem).with_batch_size(1));
        let pp = base.2.span(&pp_op).expect("filter span");
        if fail_open {
            assert_eq!(pp.failed_open, 2, "the Null and the Int row pass: {pp:?}");
        } else {
            assert!(base.0.starts_with("error"), "{}", base.0);
            assert_eq!(pp.attempts, 13);
        }
        for k in [1usize, 4] {
            let got = run(ExecutionContext::builder(&disk).with_parallelism(k));
            assert_eq!(got, base, "fail_open={fail_open} K={k}");
        }
    }
}

/// Every TRAF-20 query returns identical verdicts from memory and from a
/// 2-shard segment scan at default execution settings.
#[test]
fn all_traf20_queries_agree_across_backends() {
    let f = fixture();
    let (_, seg_catalog) = f
        .shard_catalogs
        .iter()
        .find(|(s, _)| *s == 2)
        .expect("2-shard catalog");
    for q in traf20_queries() {
        let plan = q.nop_plan(&f.dataset);
        let mut mem_ctx = ExecutionContext::new(&f.mem_catalog);
        let mem_out = mem_ctx.run(&plan).expect("mem run");
        let mut seg_ctx = ExecutionContext::new(seg_catalog);
        let seg_out = seg_ctx.run(&plan).expect("segment run");
        assert_eq!(
            observe(&mem_ctx, &mem_out),
            observe(&seg_ctx, &seg_out),
            "Q{} diverged across backends",
            q.id
        );
    }
}

/// A memory budget changes streaming wave sizes, never results, charges,
/// or telemetry — at any parallelism, whether the scan hands every wave
/// on as tuples (Q1's NoP plan) or a PP rides its stream.
#[test]
fn memory_budget_streams_without_changing_anything_observable() {
    let f = fixture();
    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let pp_plan = LogicalPlan::scan("traffic").filter(pp_filter(f, &clause));

    let dir = scratch_dir("budget");
    let paths = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 32 })
        .write_shards(&dir, "traffic", f.dataset.table(), 2)
        .expect("write shards");
    let open = || SegmentScan::open(&paths).expect("open");
    let group = {
        let scan = open();
        (0..scan.group_count())
            .map(|g| scan.group_meta(g).bytes)
            .max()
            .expect("groups")
    };
    for plan in [&f.q1_plan, &pp_plan] {
        let mut baseline = ExecutionContext::new(&f.mem_catalog);
        let out = baseline.run(plan).expect("in-memory run");
        let base = observe(&baseline, &out);
        // A 1-byte budget forces one-group-at-a-time waves (a single
        // group always overflows, and must still decode alone rather
        // than stall); three groups' worth makes waves of several.
        for budget in [1, 3 * group] {
            let mut catalog = Catalog::new();
            catalog.register_provider("traffic", Arc::new(open().with_memory_budget(budget)));
            for k in [1usize, 2, 4] {
                let mut ctx = ExecutionContext::builder(&catalog)
                    .with_parallelism(k)
                    .build();
                let out = ctx.run(plan).expect("budgeted run");
                assert_eq!(
                    observe(&ctx, &out),
                    base,
                    "budget {budget} K={k}: the budgeted scan diverged"
                );
            }
        }
    }
}

/// Passes every row through `inner`, and cancels the query once it meets
/// a row at or past frame `from`: a probe error in whichever wave holds
/// that frame, at whatever parallelism the probe runs.
struct CancelsFrom {
    inner: Arc<dyn RowFilter>,
    token: CancelToken,
    from: i64,
}

impl RowFilter for CancelsFrom {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }

    fn passes(&self, row: &Row, schema: &Schema) -> probabilistic_predicates::engine::Result<bool> {
        if row.get_named(schema, "frameID")?.as_int()? >= self.from {
            self.token.cancel(CancelReason::Requested);
        }
        self.inner.passes(row, schema)
    }
}

/// A page that fails its checksum in a later wave ends a budgeted
/// `Scan → PP` run the same way at every parallelism: the typed storage
/// error, the scan charged for the waves before it (the failing wave's
/// rows counted failed), and the filter for the rows it consumed, its
/// span closed failed. The decode error wins over a probe error in the
/// same wave: a filter that cancels the query on the first row it meets
/// in the failing wave changes nothing, though wherever the wave's
/// groups are probed as they decode, the group before the corrupt one
/// (four batches of eight rows) fails its next batch's cancellation
/// poll.
#[test]
fn a_corrupt_page_in_a_later_wave_fails_alike_at_every_parallelism() {
    let f = fixture();
    let dir = scratch_dir("late-crc");
    let paths = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 32 })
        .write_shards(&dir, "traffic", f.dataset.table(), 1)
        .expect("write shard");
    let seg = Segment::open(&paths[0]).expect("open");
    let group = (0..seg.group_count())
        .map(|g| seg.group_bytes(g))
        .max()
        .expect("groups");
    // Pages are laid out group by group after the 8-byte header: flip
    // the first byte of group 7, in the third wave of three groups.
    let at = 8 + (0..7).map(|g| seg.group_bytes(g)).sum::<u64>() as usize;
    let mut bytes = fs::read(&paths[0]).expect("read shard");
    bytes[at] ^= 0xFF;
    fs::write(&paths[0], &bytes).expect("corrupt shard");
    let mut catalog = Catalog::new();
    catalog.register_provider(
        "traffic",
        Arc::new(
            SegmentScan::open(&paths)
                .expect("open succeeds on an intact footer")
                .with_memory_budget(3 * group),
        ),
    );

    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let pp = pp_filter(f, &clause);
    let pp_op = pp.name().to_string();
    let table = f.dataset.table();
    let wave3 = table.rows()[6 * 32].get_named(table.schema(), "frameID");
    let wave3 = wave3.and_then(|v| v.as_int()).expect("frameID");
    let run = |k: usize, cancels: bool| {
        let token = CancelToken::new();
        let filter: Arc<dyn RowFilter> = if cancels {
            Arc::new(CancelsFrom {
                inner: Arc::clone(&pp),
                token: token.clone(),
                from: wave3,
            })
        } else {
            Arc::clone(&pp)
        };
        let mut ctx = ExecutionContext::builder(&catalog)
            .with_parallelism(k)
            .with_batch_size(8)
            .with_cancel_token(token)
            .build();
        let err = match ctx.run(&LogicalPlan::scan("traffic").filter(filter)) {
            Err(e) => e,
            Ok(_) => panic!("K={k}: a corrupt page decoded"),
        };
        let mut snap = ctx.telemetry().expect("snapshot of a failed run").clone();
        snap.zero_wall_clock();
        (err, snap)
    };
    let (base_err, base) = run(1, false);
    assert!(
        matches!(&base_err, EngineError::Storage(m) if m.contains("checksum")),
        "got {base_err:?}"
    );
    assert_eq!(base.spans.len(), 2, "the scan and the filter charge");
    let scan = base.span("Scan[").expect("scan span");
    assert_eq!(
        (scan.rows_in, scan.rows_out, scan.rows_failed),
        (
            f.dataset.len() as u64,
            6 * 32,
            f.dataset.len() as u64 - 6 * 32
        ),
        "two waves decoded, the rest failed"
    );
    let filter = base.span(&pp_op).expect("filter span");
    assert_eq!(filter.rows_in, 6 * 32, "the filter consumed two waves");
    assert_eq!(base.error.as_deref(), Some(base_err.to_string().as_str()));
    for k in [1usize, 2, 4] {
        for cancels in [false, true] {
            let (err, snap) = run(k, cancels);
            let shape = format!("K={k} cancels={cancels}");
            assert_eq!(err.to_string(), base_err.to_string(), "{shape}: error");
            assert_eq!(snap.to_json(), base.to_json(), "{shape}: telemetry");
        }
    }
}

// ---------------------------------------------------------------------------
// Zone-map pruning.
// ---------------------------------------------------------------------------

/// A pushed-down range predicate on a stored column prunes row groups
/// (counter > 0) while the query's verdicts stay identical to in-memory.
#[test]
fn zone_map_pruning_skips_groups_without_changing_verdicts() {
    let f = fixture();
    // frameID is monotone in the corpus, so a range predicate makes most
    // row groups provably non-matching.
    let pred = Predicate::from(Clause::new("frameID", CompareOp::Lt, 100i64));
    let plan = LogicalPlan::scan("traffic").select(pred.clone());
    let pushed = plan.with_scan_pushdown("traffic", &pred);

    let mut mem_ctx = ExecutionContext::new(&f.mem_catalog);
    let mem_out = mem_ctx.run(&plan).expect("mem run");

    for (shards, catalog) in &f.shard_catalogs {
        let mut ctx = ExecutionContext::new(catalog);
        let out = ctx.run(&pushed).expect("pruned run");
        assert_eq!(
            format!("{:?}", out.rows()),
            format!("{:?}", mem_out.rows()),
            "shards={shards}: pruning changed verdicts"
        );
        let pruned = ctx
            .registry()
            .counter("store.row_groups_pruned_total")
            .get();
        let scanned = ctx
            .registry()
            .counter("store.row_groups_scanned_total")
            .get();
        assert!(pruned > 0, "shards={shards}: no groups pruned");
        assert!(scanned > 0, "shards={shards}: no groups scanned");
        assert!(
            ctx.registry().counter("store.bytes_read_total").get() > 0,
            "shards={shards}: no bytes accounted"
        );
    }
}

/// The planner only reads the monitor. Planning a zone pushdown over a
/// segment-backed table reports what the zone maps prune in the
/// [`PlanReport`](probabilistic_predicates::core::planner::PlanReport) and
/// leaves the monitor's calibration digest exactly as it found it — so
/// planning the same query again and again cannot grow it.
#[test]
fn planning_a_zone_pushdown_leaves_the_monitor_as_it_was() {
    let f = fixture();
    let (_, catalog) = f.shard_catalogs.last().expect("4-shard catalog");
    let plan = LogicalPlan::scan("traffic")
        .process(f.dataset.udf("vehType").expect("vehType UDF"))
        .select(Predicate::and(
            Predicate::from(Clause::new("frameID", CompareOp::Lt, 100i64)),
            Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV")),
        ));
    let qo = PpQueryOptimizer::new(PpCatalog::new(), Domains::new(), QoConfig::default());
    let monitor = RuntimeMonitor::new();
    let key = vec!["vehType = SUV".to_string()];
    let (report, snapshot) = common::observed_run(0, "another", key, 0.7, 350, 0);
    monitor.observe_run(&report, &snapshot);
    let before = monitor.calibration_report();
    for _ in 0..3 {
        let optimized = qo
            .optimize_with_monitor(&plan, catalog, Some(&monitor))
            .expect("optimize");
        let [push] = &optimized.report.zone_pushdowns[..] else {
            panic!(
                "one pushdown expected: {:?}",
                optimized.report.zone_pushdowns
            );
        };
        assert_eq!(push.predicate, "frameID < 100");
        assert!(push.row_groups_pruned > 0 && push.row_groups_pruned < push.row_groups_total);
        assert_eq!(monitor.calibration_report(), before);
    }
    assert_eq!(before.entries.len(), 1);
}

/// An unpushed predicate must not prune anything: the scan returns every
/// row and the Select above does all the filtering.
#[test]
fn no_pushdown_means_no_pruning() {
    let f = fixture();
    let pred = Predicate::from(Clause::new("frameID", CompareOp::Lt, 100i64));
    let plan = LogicalPlan::scan("traffic").select(pred);
    let (_, catalog) = &f.shard_catalogs[0];
    let mut ctx = ExecutionContext::new(catalog);
    ctx.run(&plan).expect("run");
    assert_eq!(
        ctx.registry()
            .counter("store.row_groups_pruned_total")
            .get(),
        0
    );
}

/// `store.*` counters reach operators through the registry-level
/// OpenMetrics exposition in stable lexicographic order — and stay *out*
/// of per-run telemetry snapshots, which must remain byte-identical
/// between in-memory and on-disk scans.
#[test]
fn store_metrics_export_in_stable_order_and_stay_out_of_snapshots() {
    use probabilistic_predicates::engine::export::{openmetrics, openmetrics_registry};

    let f = fixture();
    let pred = Predicate::from(Clause::new("frameID", CompareOp::Lt, 100i64));
    let plan = LogicalPlan::scan("traffic")
        .select(pred.clone())
        .with_scan_pushdown("traffic", &pred);
    let (_, catalog) = &f.shard_catalogs[2];
    let mut ctx = ExecutionContext::new(catalog);
    ctx.run(&plan).expect("run");

    let text = openmetrics_registry(ctx.registry());
    let families = [
        "pp_store_bytes_read_total",
        "pp_store_row_groups_pruned_total",
        "pp_store_row_groups_scanned_total",
        "pp_store_rows_decoded_total",
        "pp_store_rows_materialized_total",
    ];
    let mut last = 0usize;
    for name in families {
        assert!(
            text.contains(&format!("# TYPE {name} counter\n")),
            "missing TYPE line for {name} in:\n{text}"
        );
        let at = text.find(&format!("\n{name} ")).unwrap_or_else(|| {
            panic!("missing sample for {name} in:\n{text}");
        });
        assert!(at > last, "{name} out of lexicographic order in:\n{text}");
        last = at;
    }

    // A scan with nothing riding its stream hands over every row it
    // decoded, and decodes exactly the rows of the groups it kept.
    let counter = |name: &str| ctx.registry().counter(name).get();
    let decoded = counter("store.rows_decoded_total");
    assert_eq!(decoded, counter("store.rows_materialized_total"));
    let scan = ctx.telemetry().expect("snapshot").span("Scan[").cloned();
    assert_eq!(decoded, scan.expect("scan span").rows_out);
    assert!(decoded > 0 && decoded < f.dataset.len() as u64);

    // The per-run snapshot carries no store.* samples: provider-backed
    // and in-memory runs must snapshot byte-identically.
    let snap = ctx.telemetry().expect("snapshot");
    assert!(
        snap.metrics
            .iter()
            .all(|(name, _)| !name.starts_with("store.")),
        "store.* leaked into the telemetry snapshot"
    );
    assert!(!openmetrics(snap).contains("pp_store_"));
}

// ---------------------------------------------------------------------------
// Golden encoding.
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
    assert_eq!(expected, actual, "golden mismatch for {name}");
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

/// A small corpus exercising every `Value` variant, nulls, negative and
/// extreme numerics, and both blob encodings — split into three groups so
/// the footer carries a real directory.
fn golden_rowset() -> Rowset {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("flag", DataType::Bool),
        Column::new("score", DataType::Float),
        Column::new("name", DataType::Str),
        Column::new("frame", DataType::Blob),
    ])
    .expect("schema");
    let sparse = SparseVector::new(8, vec![1, 5], vec![0.25, -3.5]).expect("sparse");
    let rows = vec![
        Row::new(vec![
            Value::Int(0),
            Value::Bool(true),
            Value::Float(1.5),
            Value::str("alpha"),
            Value::blob(Features::Dense(vec![1.0, -0.5])),
        ]),
        Row::new(vec![
            Value::Int(-7),
            Value::Bool(false),
            Value::Float(-0.0),
            Value::str(""),
            Value::blob(Features::Sparse(sparse)),
        ]),
        Row::new(vec![
            Value::Int(i64::MAX),
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
            Value::Null,
        ]),
        Row::new(vec![
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::Float(6.25e-3),
            Value::str("Δ unicode"),
            Value::blob(Features::Dense(vec![])),
        ]),
        Row::new(vec![
            Value::Null,
            Value::Bool(false),
            Value::Float(42.0),
            Value::str("zed"),
            Value::blob(Features::Dense(vec![0.0])),
        ]),
    ];
    Rowset::new(schema, rows).expect("rowset")
}

fn golden_bytes() -> Vec<u8> {
    SegmentWriter::new(SegmentWriterConfig { rows_per_group: 2 })
        .encode(&golden_rowset(), 3, 7)
        .expect("encode")
}

#[test]
fn segment_encoding_is_pinned() {
    check_golden("segment.hex", &hex(&golden_bytes()));
}

/// The golden bytes round-trip: a written file opens, exposes the right
/// shape, and decodes to the original rows bit-for-bit.
#[test]
fn golden_segment_round_trips() {
    let dir = scratch_dir("roundtrip");
    let path = dir.join("golden.pps");
    fs::write(&path, golden_bytes()).expect("write");
    let seg = Segment::open(&path).expect("open");
    assert_eq!(seg.shard(), 3);
    assert_eq!(seg.shard_count(), 7);
    assert_eq!(seg.rows(), 5);
    assert_eq!(seg.group_count(), 3);
    let table = golden_rowset();
    let mut decoded = Vec::new();
    for g in 0..seg.group_count() {
        decoded.extend(seg.read_group(g).expect("read group").into_rows());
    }
    assert_eq!(format!("{decoded:?}"), format!("{:?}", table.rows()));
}

/// The shape the bulk blob codec actually serves: a 64-dim dense blob
/// column over one full and one partial 256-row group, compared by bit
/// pattern (`Debug` prints a blob as `<blob dim=N>`, hiding its values).
#[test]
fn dense_blob_groups_round_trip_bit_for_bit() {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("frame", DataType::Blob),
    ])
    .expect("schema");
    let blob = |r: usize| -> Vec<f64> {
        (0..64)
            .map(|d| match (r + d) % 61 {
                0 => -0.0,
                1 => f64::NAN,
                2 => f64::NEG_INFINITY,
                _ => (r * 64 + d) as f64 * 0.37 - 1234.5,
            })
            .collect()
    };
    let rows: Vec<Row> = (0..300)
        .map(|r| {
            Row::new(vec![
                Value::Int(r as i64),
                Value::blob(Features::Dense(blob(r))),
            ])
        })
        .collect();
    let table = Rowset::new(schema, rows).expect("rowset");
    let path = scratch_dir("dense").join("dense.pps");
    SegmentWriter::new(SegmentWriterConfig {
        rows_per_group: 256,
    })
    .write_segment(&path, &table, 0, 1)
    .expect("write");
    let seg = Segment::open(&path).expect("open");
    let shape: Vec<usize> = (0..seg.group_count()).map(|g| seg.group_rows(g)).collect();
    assert_eq!(shape, [256, 44]);
    let decoded: Vec<Row> = (0..seg.group_count())
        .flat_map(|g| seg.read_group(g).expect("read group").into_rows())
        .collect();
    assert_eq!(decoded.len(), 300);
    for (r, row) in decoded.iter().enumerate() {
        assert_eq!(row.len(), 2);
        assert_eq!(row.get(0).as_int().expect("id"), r as i64);
        let Features::Dense(xs) = &**row.get(1).as_blob().expect("blob") else {
            panic!("row {r}: blob decoded as sparse");
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(xs), bits(&blob(r)), "row {r}");
    }
}

/// A `scan_segments`-shaped shard: 1 024 TRAF frames of 64-dim dense
/// blobs in 256-row groups, so each blob page is ≈ 129 KiB.
fn traffic_shard() -> (TrafficDataset, Vec<u8>) {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 1024,
        blob_dim: 64,
        seed: 0x5709,
        ..Default::default()
    });
    let bytes = SegmentWriter::new(SegmentWriterConfig {
        rows_per_group: 256,
    })
    .encode(dataset.table(), 0, 1)
    .expect("encode");
    (dataset, bytes)
}

/// CRC-32 bit by bit from the polynomial: an oracle that shares nothing
/// with [`crc32`].
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// One line per page of `bytes`' directory — group, column, offset,
/// length, stored CRC — and one for the whole file, asserting on the way
/// that every stored CRC is the bitwise CRC of its page.
fn page_crcs(bytes: &[u8]) -> String {
    let trailer = bytes.len() - 16;
    let footer_len = u64::from_be_bytes(bytes[trailer + 4..trailer + 12].try_into().unwrap());
    let mut cur = Reader::new(&bytes[trailer - footer_len as usize..trailer], "footer");
    cur.take(16).unwrap(); // shard, shard count, rows
    let names: Vec<String> = (0..cur.u32().unwrap())
        .map(|_| {
            let len = cur.u16().unwrap() as usize;
            let name = String::from_utf8(cur.take(len).unwrap().to_vec()).unwrap();
            cur.u8().unwrap(); // dtype
            name
        })
        .collect();
    let mut out = String::new();
    for g in 0..cur.u32().unwrap() {
        let rows = cur.u32().unwrap();
        for name in &names {
            let offset = cur.u64().unwrap();
            let len = cur.u64().unwrap();
            let crc = cur.u32().unwrap();
            cur.take(16).unwrap(); // nulls, present
            for _bound in 0..2 {
                if cur.u8().unwrap() != 0 {
                    cur.take(8).unwrap();
                }
            }
            let page = &bytes[offset as usize..(offset + len) as usize];
            assert_eq!(crc, crc32_bitwise(page), "group {g} column {name}");
            out.push_str(&format!(
                "group={g} rows={rows} col={name} offset={offset} len={len} crc={crc:08x}\n"
            ));
        }
    }
    assert!(cur.is_empty());
    out.push_str(&format!(
        "file len={} crc={:08x}\n",
        bytes.len(),
        crc32(bytes)
    ));
    out
}

/// `segment.hex`'s pages are all a few bytes long; these are the pages a
/// scan actually checksums. The golden was recorded with the one-chain
/// slice-by-16 `crc32`, so it pins the multi-chain one to the same values.
#[test]
fn large_page_checksums_are_pinned() {
    let (_, bytes) = traffic_shard();
    assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    check_golden("page_crcs.txt", &page_crcs(&bytes));
}

/// The same shard, written to disk, opens and decodes to the rows it was
/// written from, blobs bit for bit.
#[test]
fn a_traffic_shard_decodes_to_its_table() {
    let (dataset, bytes) = traffic_shard();
    let path = scratch_dir("traffic-shard").join("traffic.pps");
    fs::write(&path, &bytes).expect("write");
    let seg = Segment::open(&path).expect("open");
    assert_eq!(seg.group_count(), 4);
    let rows = (0..seg.group_count())
        .flat_map(|g| seg.read_group(g).expect("read group").into_rows())
        .collect();
    let decoded = Rowset::new(Arc::clone(seg.schema()), rows).expect("rowset");
    assert_eq!(digest_bits(&decoded), digest_bits(dataset.table()));
}

// ---------------------------------------------------------------------------
// Hardened-reader rejection: corrupt input is a typed error, never a panic.
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_is_rejected() {
    let bytes = golden_bytes();
    let dir = scratch_dir("truncate");
    let path = dir.join("t.pps");
    for cut in 0..bytes.len() {
        fs::write(&path, &bytes[..cut]).expect("write");
        match Segment::open(&path) {
            Err(_) => {}
            Ok(seg) => {
                // A cut inside trailing page padding can still parse the
                // directory; decoding must then fail, not fabricate rows.
                let all: Result<Vec<_>, _> =
                    (0..seg.group_count()).map(|g| seg.read_group(g)).collect();
                assert!(all.is_err(), "truncated at {cut}/{} decoded", bytes.len());
            }
        }
    }

    // The same holds one level in: a footer that arrives whole and sealed
    // (the trailer's length and CRC are its own) but stops early is
    // `Truncated` — as is one that declares 2^20 row groups and holds none
    // — before room for what it declares is reserved.
    let trailer = bytes.len() - 16;
    let footer_len = u64::from_be_bytes(bytes[trailer + 4..trailer + 12].try_into().unwrap());
    let (data, footer) = bytes[..trailer].split_at(trailer - footer_len as usize);
    let mut no_groups = [0u8; 24];
    no_groups[20..].copy_from_slice(&(1u32 << 20).to_be_bytes());
    let short_footers = (0..footer.len()).map(|cut| &footer[..cut]);
    for footer in short_footers.chain([&no_groups[..]]) {
        let mut sealed = data.to_vec();
        sealed.extend_from_slice(footer);
        sealed.extend_from_slice(&crc32(footer).to_be_bytes());
        sealed.extend_from_slice(&(footer.len() as u64).to_be_bytes());
        sealed.extend_from_slice(b"GSPP");
        fs::write(&path, &sealed).expect("write");
        let opened = Segment::open(&path);
        assert!(
            matches!(
                opened,
                Err(StoreError::Truncated {
                    context: "segment footer"
                })
            ),
            "footer of {} bytes: {opened:?}",
            footer.len()
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let dir = scratch_dir("magic");
    let path = dir.join("m.pps");

    let mut bytes = golden_bytes();
    bytes[0] ^= 0xFF;
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        Segment::open(&path),
        Err(StoreError::BadMagic {
            context: "segment header",
            ..
        })
    ));

    let mut bytes = golden_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF;
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        Segment::open(&path),
        Err(StoreError::BadMagic {
            context: "segment trailer",
            ..
        })
    ));
}

#[test]
fn corrupt_footer_fails_checksum() {
    let bytes = golden_bytes();
    let n = bytes.len();
    // Flip one byte inside the footer payload (just before the trailer).
    let mut corrupt = bytes.clone();
    corrupt[n - 17] ^= 0x01;
    let dir = scratch_dir("footer-crc");
    let path = dir.join("f.pps");
    fs::write(&path, &corrupt).expect("write");
    assert!(matches!(
        Segment::open(&path),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

/// Flipping any one byte of the data region leaves the footer intact, so
/// open succeeds; the group that owns the byte must then fail its page
/// checksum, and every other group must still decode to its rows.
#[test]
fn corrupt_page_fails_checksum_on_read() {
    let bytes = golden_bytes();
    let table = golden_rowset();
    let dir = scratch_dir("page-crc");
    let path = dir.join("p.pps");
    fs::write(&path, &bytes).expect("write");
    let seg = Segment::open(&path).expect("open");
    // Pages are laid out group by group from the end of the 8-byte
    // header, so group byte counts give each group's extent.
    let mut owner = Vec::new();
    for g in 0..seg.group_count() {
        owner.extend(std::iter::repeat_n(g, seg.group_bytes(g) as usize));
    }
    let footer_len = u64::from_be_bytes(
        bytes[bytes.len() - 12..bytes.len() - 4]
            .try_into()
            .expect("8 bytes"),
    ) as usize;
    assert_eq!(8 + owner.len(), bytes.len() - 16 - footer_len);

    for (i, &owning) in owner.iter().enumerate() {
        let mut corrupt = bytes.clone();
        corrupt[8 + i] ^= 0xFF;
        fs::write(&path, &corrupt).expect("write");
        let seg = Segment::open(&path).expect("open succeeds on intact footer");
        for g in 0..seg.group_count() {
            let got = seg.read_group(g);
            if g == owning {
                assert!(
                    matches!(got, Err(StoreError::ChecksumMismatch { .. })),
                    "byte {}: group {g} returned {got:?}",
                    8 + i
                );
            } else {
                let rows = got.expect("an untouched group still decodes").into_rows();
                let want = &table.rows()[2 * g..(2 * g + 2).min(table.len())];
                assert_eq!(format!("{rows:?}"), format!("{want:?}"), "byte {}", 8 + i);
            }
        }
    }
}

#[test]
fn oversized_footer_length_is_refused_before_allocation() {
    let bytes = golden_bytes();
    let n = bytes.len();
    // The trailer is `crc32 u32 · footer len u64 · magic [4]`; patch the
    // length to something absurd. The reader must refuse before trying to
    // allocate or read it.
    let mut corrupt = bytes.clone();
    let huge = (1u64 << 24) + 1; // MAX_FOOTER_LEN + 1
    corrupt[n - 12..n - 4].copy_from_slice(&huge.to_be_bytes());
    let dir = scratch_dir("oversize");
    let path = dir.join("o.pps");
    fs::write(&path, &corrupt).expect("write");
    assert!(matches!(
        Segment::open(&path),
        Err(StoreError::TooLarge { what: "footer", .. })
    ));
}

#[test]
fn empty_and_tiny_files_are_rejected() {
    let dir = scratch_dir("tiny");
    let path = dir.join("tiny.pps");
    for content in [&b""[..], b"PPSG", b"PPSG\x00\x00\x00\x01GSPP"] {
        fs::write(&path, content).expect("write");
        assert!(
            Segment::open(&path).is_err(),
            "{} bytes accepted",
            content.len()
        );
    }
}

#[test]
fn shards_with_mismatched_schemas_are_rejected() {
    let dir = scratch_dir("mismatch");
    let writer = SegmentWriter::default();
    let a = golden_rowset();
    let other = Rowset::new(
        Schema::new(vec![Column::new("x", DataType::Int)]).expect("schema"),
        vec![Row::new(vec![Value::Int(1)])],
    )
    .expect("rowset");
    let pa = dir.join("a.pps");
    let pb = dir.join("b.pps");
    writer.write_segment(&pa, &a, 0, 2).expect("write a");
    writer.write_segment(&pb, &other, 1, 2).expect("write b");
    assert!(matches!(
        SegmentScan::open(&[pa, pb]),
        Err(StoreError::Corrupt(_))
    ));
    assert!(SegmentScan::open::<PathBuf>(&[]).is_err());
}
