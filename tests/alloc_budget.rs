//! Allocation budgets for the two row-parallel UDF operators and for the
//! scan under a filter.
//!
//! The probe→consume fold hands one record per *batch* from the probe
//! phase to the consume phase, so what a PP filter allocates grows with
//! the number of batches, not rows; and so does what a processor
//! allocates, whether the UDF ran alone or behind another: the UDF writes
//! its cells into the batch's buffer
//! (`Processor::process`), consume moves them into the operator's one
//! output buffer, and no tuple is built — the result is a deferred
//! `Rowset`, whose `rows()` builds each tuple once, in one allocation,
//! when first asked, and which the wire encodes without building any.
//! Over a registered table a PP filter's survivors are row indices into
//! it and `Project` writes its cells into one column each, so a served
//! plan allocates per batch, not per output row. A segment scan under a
//! PP filter decodes a row group into a handful of column buffers,
//! gathers the rows the filter kept into columns of their own, and
//! builds a tuple only for a row that retries, alone — so it allocates
//! per group, not per survivor, and holds one wave of groups plus the
//! survivors at a time. All of it is counted here — heap
//! allocations made, and bytes held, by the calling thread during a
//! `parallelism = 1` run — which is deterministic where a timing is not,
//! and fails the moment a per-row record (a boxed outcome, a `Vec` per
//! row, a `Vec` → `Arc` copy, a tuple for a dropped blob or for a row
//! nobody asked to build) comes back.
//!
//! The runtime monitor is held to the same kind of budget: it folds every
//! observed run into fixed-size state per key, so what it holds after ten
//! thousand more runs is, to the byte, what it held before them. So is the
//! accuracy auditor: a maintenance pass leaves nothing behind, over an
//! in-memory table and over a segment table alike.
//!
//! Planning has a budget too, because for a never-repeating predicate
//! stream it is the critical path. A PP carries its key, normal form and
//! `r(1]`, a catalog lookup prepares the query's side of the implication
//! once, and the budget allocator builds nothing per allocation it tries,
//! so `PpQueryOptimizer::optimize` over TRAF-20 makes at most
//! [`OPTIMIZE_ALLOCATIONS`] allocations a call on average (427 measured;
//! 5 010 when every comparison re-formatted a key and every budget slot
//! cloned an assignment), and `alloc::allocate` makes O(leaves) of them —
//! at most [`ALLOCATE_ALLOCATIONS`] for a four-leaf conjunction (6
//! measured), however many of the grid's 16⁴ vectors it tries.
//!
//! And so are the two doors untrusted bytes come in by. One mutation
//! harness takes every frame of `tests/golden/wire_frames.hex` and the
//! segment of `tests/golden/segment.hex` through bit flips, inflated
//! lengths and counts, splices and truncation at every byte — footers and
//! pages re-sealed with their CRC, frame lengths re-patched, so that the
//! mutation reaches the decoder — and asserts a typed error or a valid
//! value, never a panic, with the decoder holding at most
//! [`DECODE_BYTES_PER_INPUT_BYTE`] bytes per byte of input. A whole
//! response stream goes through it too, into `read_response`, which must
//! answer exactly what a fold over `read_frame` answers; and decoding a
//! verdict stream costs a row its cells' vector, and a frame next to
//! nothing (no payload buffer per frame, no string per repeated
//! categorical cell).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::io::Cursor;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use probabilistic_predicates::core::alloc::{allocate, ACCURACY_GRID};
use probabilistic_predicates::core::expr::{PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::planner::{PpQueryOptimizer, QoConfig};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::{PpCatalog, RuntimeMonitor};
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::bytes::Reader;
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::{ClosureFilter, ClosureProcessor, RowFilter};
use probabilistic_predicates::engine::{
    Batch, Catalog, Clause, Column, CompareOp, DataType, EngineError, LogicalPlan, Predicate,
    RowRef, Rowset, Schema, Selection, TableProvider, Value,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::wire::{
    encode_frame, read_frame, read_response, Frame, WireError, WireOutcome, WireRequest,
    WireResponse,
};
use probabilistic_predicates::server::{
    AuditConfig, PpServer, QueryRequest, RequestTimeline, ServerConfig, SourceRegistry, SourceSpec,
    StageSpan,
};
use probabilistic_predicates::store::{
    crc32, Segment, SegmentScan, SegmentWriter, SegmentWriterConfig, StoreError,
};

mod common;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so reading it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the reallocations: a vector grown past its capacity.
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (what it frees for
    /// another thread counts against it, so signed), and the most that
    /// has been since the mark was last reset.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn resize_live(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// `System`, counting per thread; the test harness runs tests on parallel
/// threads, and a `K = 1` run does all its work on the caller's.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        resize_live(layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        REALLOCATIONS.with(|n| n.set(n.get() + 1));
        resize_live(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SMALL: usize = 12_000;
const LARGE: usize = 24_000;
const BATCH: usize = 256;

/// What the calling thread's heap did while some work ran on it.
struct Spent<T> {
    /// Allocations made.
    allocations: u64,
    /// Of those, reallocations.
    reallocations: u64,
    /// The most bytes held at once, over what was held before the work.
    peak_bytes: u64,
    /// Bytes still held when the work returned: what it handed back (for
    /// a plan, the output rows and the context's few kilobytes of
    /// telemetry).
    kept_bytes: u64,
    out: T,
}

fn counted<T>(work: impl FnOnce() -> T) -> Spent<T> {
    let before = ALLOCATIONS.with(Cell::get);
    let reallocated = REALLOCATIONS.with(Cell::get);
    let held = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(held));
    let out = work();
    Spent {
        allocations: ALLOCATIONS.with(Cell::get) - before,
        reallocations: REALLOCATIONS.with(Cell::get) - reallocated,
        peak_bytes: (PEAK.with(Cell::get) - held) as u64,
        kept_bytes: (LIVE.with(Cell::get) - held) as u64,
        out,
    }
}

/// `plan`, run serially on the calling thread.
fn run_counted(catalog: &Catalog, plan: &LogicalPlan) -> Spent<Rowset> {
    let mut ctx = ExecutionContext::builder(catalog)
        .with_parallelism(1)
        .with_batch_size(BATCH)
        .build();
    let spent = counted(|| ctx.run(plan).expect("plan runs"));
    assert!(!spent.out.is_empty(), "the plan must do some work");
    spent
}

/// The corpus every case runs over: 400 frames to train on, then up to
/// [`LARGE`] to scan.
fn dataset() -> TrafficDataset {
    TrafficDataset::generate(TrafficConfig {
        n_frames: LARGE + 400,
        seed: 0xA110C,
        ..Default::default()
    })
}

/// `Scan → PP filter` over the corpus: a linear SVM over the raw blob.
fn pp_filter_plan(dataset: &TrafficDataset) -> LogicalPlan {
    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let labeled = dataset.labeled_for_clause_range(&clause, 0..400);
    // A linear SVM over the raw blob: scored straight off the gathered
    // block (a reducer would build a vector per row inside the model).
    let pp = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        ..Default::default()
    })
    .train_clause(&clause, &labeled)
    .expect("train")
    .remove(0);
    // 0.9: 0.95 needs 59 validation positives, the clause has 41.
    let filter = PlannedPpExpr::new(PpExpr::leaf(Arc::new(pp)), vec![0.9])
        .expect("plan")
        .into_filter("frame");
    LogicalPlan::scan("traffic").filter(Arc::new(filter))
}

#[test]
fn pp_filter_allocates_per_batch_and_process_per_row() {
    let dataset = dataset();
    let tagger = Arc::new(ClosureProcessor::map(
        "Tagger",
        vec![Column::new("tag", DataType::Int)],
        0.5,
        |row, _, out| {
            out.push(Value::Int(row.len() as i64));
            Ok(())
        },
    ));

    // The same plan over a table and over one twice its size.
    let spent = |plan: &LogicalPlan| {
        let run = |rows: usize| {
            let mut catalog = Catalog::new();
            dataset.register_slice(&mut catalog, 400..400 + rows);
            run_counted(&catalog, plan).allocations
        };
        (run(SMALL), run(LARGE))
    };
    let extra_rows = (LARGE - SMALL) as u64;
    let extra_batches = extra_rows.div_ceil(BATCH as u64);

    let (small, large) = spent(&pp_filter_plan(&dataset));
    let per_batch = (large - small) as f64 / extra_batches as f64;
    assert!(
        per_batch <= 24.0,
        "PP filter: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
         {per_batch:.1} per extra batch — something allocates per row again"
    );

    // A `Process` row costs nothing of its own — not in the UDF (it
    // writes into the batch's buffer; the traffic UDFs' categoricals are
    // interned), not between probe and consume, and not for a tuple: the
    // cells go on into the operator's one output buffer and the rows stay
    // deferred. What is left is per batch.
    let assert_per_row = |what: &str, processes: u64, (small, large): (u64, u64)| {
        let per_batch = PROCESS_ALLOCATIONS_PER_BATCH * (extra_batches * processes) as f64;
        let per_row = ((large - small) as f64 - per_batch) / (extra_rows * processes) as f64;
        assert!(
            per_row <= PROCESS_ALLOCATIONS_PER_ROW,
            "{what}: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
             {per_row:.3} per extra row per Process beyond {PROCESS_ALLOCATIONS_PER_BATCH} a batch"
        );
    };
    let tagged = LogicalPlan::scan("traffic").process(tagger);
    assert_per_row("Process", 1, spent(&tagged));

    let udf = |column| dataset.udf(column).expect("a traffic UDF");
    let chain = LogicalPlan::scan("traffic")
        .process(udf("vehType"))
        .process(udf("speed"));
    assert_per_row("Process → Process", 2, spent(&chain));
}

/// What a `Process` allocates per batch of its input: the buffer the
/// batch's calls append to, and its share of the wave's vector of batch
/// records (1.32 measured).
const PROCESS_ALLOCATIONS_PER_BATCH: f64 = 2.0;
/// What it may allocate per input row beyond that (0.005 measured: its
/// output buffers' doublings).
const PROCESS_ALLOCATIONS_PER_ROW: f64 = 0.05;

/// A plan's deferred output builds its tuples when asked for them, one
/// allocation each — the tuple at its final width — and one for the
/// vector that holds them; it keeps none of them, so asked again, it
/// builds them again, in as many allocations.
#[test]
fn a_deferred_rowset_builds_each_tuple_once_in_one_allocation() {
    let dataset = dataset();
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, 400..400 + SMALL);
    let udf = |column| dataset.udf(column).expect("a traffic UDF");
    let chain = LogicalPlan::scan("traffic")
        .process(udf("vehType"))
        .process(udf("speed"))
        .select(Predicate::from(Clause::new("speed", CompareOp::Ge, 30.0)));
    let out = run_counted(&catalog, &chain).out;
    let first = counted(|| out.rows().len());
    assert_eq!(
        first.allocations,
        first.out as u64 + 1,
        "{} rows built in {} allocations",
        first.out,
        first.allocations
    );
    assert_eq!(first.kept_bytes, 0, "the rowset keeps no tuple");
    let again = counted(|| format!("{:?}", out.rows()));
    assert_eq!(again.out, format!("{:?}", out.rows()), "the same rows");
    let again = counted(|| out.rows().len());
    assert_eq!(again.allocations, first.allocations, "built again");
}

/// A scalar filter — one that reads a row where it is kept and leaves
/// `eval_batch` to its default, which walks the batch's rows in place —
/// allocates per batch, not per row: over a registered table and over a
/// segment table's decoded groups alike. (When the default built the
/// batch's tuples it cost every row of the table a tuple, and every
/// decoded blob a `Value`.)
#[test]
fn a_scalar_filter_allocates_per_batch_not_per_row() {
    let dataset = dataset();
    let even = Arc::new(ClosureFilter::new("even camera", 0.01, |row, schema| {
        Ok(row.get_named(schema, "cameraID")?.as_int()? % 2 == 0)
    }));
    let plan = LogicalPlan::scan("traffic").filter(even);
    let extra_batches = ((LARGE - SMALL) / BATCH) as f64;
    let registered = |rows: usize| {
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..400 + rows);
        run_counted(&catalog, &plan).allocations
    };
    let (small, large) = (registered(SMALL), registered(LARGE));
    let per_batch = large.saturating_sub(small) as f64 / extra_batches;
    assert!(
        per_batch <= SCALAR_FILTER_ALLOCATIONS_PER_BATCH,
        "registered: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
         {per_batch:.1} per extra batch"
    );
    // One 256-row group a batch: decode, probe, and gather the survivors.
    let dir = std::env::temp_dir().join(format!("pp-alloc-scalar-{}", std::process::id()));
    let decoded = |rows| run_counted(&segment_catalog(&dataset, &dir, rows, None), &plan);
    let (small, large) = (decoded(SMALL).allocations, decoded(LARGE).allocations);
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    let per_group = large.saturating_sub(small) as f64 / extra_batches;
    assert!(
        per_group <= SCALAR_FILTER_ALLOCATIONS_PER_GROUP,
        "decoded: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
         {per_group:.1} per extra group"
    );
}

/// What `Scan → scalar filter` allocates per extra batch of a registered
/// table (1.3 measured: the batch's selection and its share of the
/// survivors' row map) — a tuple per row would be 256 more.
const SCALAR_FILTER_ALLOCATIONS_PER_BATCH: f64 = 2.0;
/// And per extra decoded 256-row group (13.3 measured: its decode, its
/// selection and its survivors' gather); a tuple and a blob `Value` per
/// row would be 768 more.
const SCALAR_FILTER_ALLOCATIONS_PER_GROUP: f64 = 16.0;

/// TRAF-20's Q13 as the server plans it: its UDF columns, and linear SVM
/// PPs over the raw blob for every corpus clause on those columns.
struct Served {
    query: probabilistic_predicates::data::traf20::TrafQuery,
    columns: Vec<String>,
    pps: probabilistic_predicates::core::PpCatalog,
    domains: Domains,
}

fn served_q13(dataset: &TrafficDataset) -> Served {
    let query = traf20_queries()
        .into_iter()
        .find(|q| q.id == 13)
        .expect("Q13");
    let columns = query.columns();
    let clauses: Vec<_> = TrafficDataset::pp_corpus_clauses()
        .into_iter()
        .filter(|c| columns.contains(&c.column))
        .collect();
    let labeled: Vec<_> = clauses
        .iter()
        .map(|c| dataset.labeled_for_clause_range(c, 0..400))
        .collect();
    let pps = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    })
    .train_catalog(&clauses, &labeled)
    .expect("train");
    let mut domains = Domains::new();
    for (column, values) in TrafficDataset::column_domains() {
        domains.declare(column, values);
    }
    Served {
        query,
        columns,
        pps,
        domains,
    }
}

/// A TRAF-20 query served through `serve_connection` builds no tuple for
/// its output rows on the connection's thread: the verdict frames are
/// encoded from the rows where the result keeps them. Over a table four
/// times the size, the connection thread makes no more allocations for
/// the hundreds of rows more it streams. (The query runs on the server's
/// worker, which this thread's counters do not see.)
#[test]
fn a_served_traf20_query_builds_no_tuple_per_output_row() {
    use probabilistic_predicates::server::wire::serve_connection;

    let dataset = dataset();
    let Served {
        query,
        columns,
        pps,
        domains,
    } = served_q13(&dataset);
    let mut request = Vec::new();
    let wire = WireRequest::new("traffic", query.predicate.clone(), 0.95);
    probabilistic_predicates::server::wire::write_frame(&mut request, &Frame::Request(wire))
        .expect("encode");
    // (output rows, allocations on this thread) over the first `rows`
    // frames.
    let serve = |rows: usize| {
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..400 + rows);
        let mut source = SourceSpec::new("traffic");
        for column in &columns {
            source = source.with_udf(column, dataset.udf(column).expect("a traffic UDF"));
        }
        let mut sources = SourceRegistry::new();
        sources.register("traffic", source);
        let config = ServerConfig {
            workers: 1,
            ..Default::default()
        };
        let mut server = PpServer::new(config, catalog, sources, pps.clone(), domains.clone());
        // Once to warm the plan cache and count the rows, once counted.
        let mut outbox = Vec::new();
        serve_connection(&server, Cursor::new(&request), &mut outbox).expect("served");
        let response = read_response(&mut Cursor::new(&outbox)).expect("a response");
        let WireOutcome::Complete { rows: verdicts, .. } = response.outcome else {
            panic!("expected completion, got {:?}", response.outcome)
        };
        let spent = counted(|| serve_connection(&server, Cursor::new(&request), std::io::sink()));
        spent.out.expect("served");
        server.shutdown();
        (verdicts.len(), spent.allocations)
    };
    let (small_rows, small) = serve(SMALL / 4);
    let (large_rows, large) = serve(SMALL);
    let extra_rows = (large_rows - small_rows) as f64;
    assert!(extra_rows >= 256.0, "{small_rows} → {large_rows} rows");
    let per_row = large.saturating_sub(small) as f64 / extra_rows;
    assert!(
        per_row < 0.01,
        "{small} allocations streaming {small_rows} rows, {large} streaming {large_rows}: \
         {per_row:.3} per extra row"
    );
}

/// The worker's side of a served TRAF-20 query: Q13's plan as the server
/// builds it — `Scan → PP → Process → Select → Project[* except blobs]`
/// over a registered table — run in process. The filter hands its
/// survivors on as row indices into the table, `Process` appends its
/// cells and `Select` keeps rows by index, and `Project` writes its cells
/// into one column each, so the plan allocates per batch and per operator, not
/// per output row. From 12 000 rows to 24 000 (828 output rows to
/// 1 669), the allocations grow by 7.3 per extra batch, 0.40 per extra
/// output row; they grew by 28.5 per batch, 1.56 per output row, when the
/// filter cloned each survivor's tuple and `Project` built one tuple per
/// output row.
#[test]
fn a_served_traf20_plan_allocates_per_batch_not_per_output_row() {
    let dataset = dataset();
    let Served {
        query,
        columns,
        pps,
        domains,
    } = served_q13(&dataset);
    let mut source = SourceSpec::new("traffic");
    for column in &columns {
        source = source.with_udf(column, dataset.udf(column).expect("a traffic UDF"));
    }
    let catalog_of = |rows: usize| {
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..400 + rows);
        catalog
    };
    let optimized = PpQueryOptimizer::new(pps, domains, QoConfig::default())
        .optimize(&source.nop_plan(&query.predicate), &catalog_of(SMALL))
        .expect("optimize");
    assert!(optimized.pp_filter.is_some(), "the plan filters with a PP");
    let run = |rows: usize| {
        let spent = run_counted(&catalog_of(rows), &optimized.plan);
        (spent.out.len(), spent.allocations)
    };
    let (small_rows, small) = run(SMALL);
    let (large_rows, large) = run(LARGE);
    let extra = large.saturating_sub(small) as f64;
    let extra_rows = (large_rows - small_rows) as f64;
    let extra_batches = ((LARGE - SMALL) / BATCH) as f64;
    assert!(extra_rows >= 500.0, "{small_rows} → {large_rows} rows");
    assert!(
        extra <= 10.0 * extra_batches && extra < extra_rows,
        "{small} allocations for {small_rows} output rows, {large} for {large_rows}: \
         {:.1} per extra batch, {:.2} per extra output row",
        extra / extra_batches,
        extra / extra_rows
    );
}

/// `inner`, but with a transient fault: the first attempt at one input
/// row, drawn from a seed, fails, and its retry — `eval_batch` again, over
/// that row alone — succeeds.
struct FirstAttemptFails {
    inner: Arc<dyn RowFilter>,
    row: usize,
    failed: AtomicBool,
}

impl RowFilter for FirstAttemptFails {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }

    fn passes(
        &self,
        row: RowRef<'_>,
        schema: &Schema,
    ) -> probabilistic_predicates::engine::Result<bool> {
        self.inner.passes(row, schema)
    }

    fn eval_batch(&self, batch: &Batch<'_>) -> Selection {
        let mut selection = self.inner.eval_batch(batch);
        let rows = batch.offset()..batch.offset() + batch.len();
        if rows.contains(&self.row) && !self.failed.swap(true, Ordering::Relaxed) {
            let at = (self.row - batch.offset()) as u32;
            selection.passed.retain(|&p| p != at);
            let fault = EngineError::Transient("injected".into());
            let slot = selection.failed.partition_point(|(p, _)| *p < at);
            selection.failed.insert(slot, (at, fault));
        }
        selection
    }
}

/// A row whose first attempt fails on a decoded segment group is retried
/// alone, as a one-row batch read where the group keeps it: what the retry
/// allocates — its scores and selection, the fault's records — does not
/// grow with the group (8 allocations more than without the fault in a
/// 64-row group and in a 1 024-row one), where building every tuple of the group for it did (102 in a
/// 64-row group and 1 649 in a 1 024-row one), and building its own tuple
/// 12 and 8.
#[test]
fn a_retried_row_of_a_decoded_group_is_built_alone() {
    let dataset = dataset();
    let LogicalPlan::Filter { filter, .. } = pp_filter_plan(&dataset) else {
        panic!("a filter plan")
    };
    let rows = 4 * 1_024;
    let row = StdRng::seed_from_u64(0xFA17).gen_range(0..rows);
    let dir = std::env::temp_dir().join(format!("pp-alloc-retry-{}", std::process::id()));
    let frames = dataset.table().rows()[400..400 + rows].to_vec();
    let table = Rowset::new(dataset.table().schema().clone(), frames).expect("rowset");
    // Allocations of `Scan → filter` over the table as one segment shard
    // of `group`-row groups.
    let spent = |group: usize, filter: Arc<dyn RowFilter>| {
        let paths = SegmentWriter::new(SegmentWriterConfig {
            rows_per_group: group,
        })
        .write_shards(&dir, &format!("g{group}"), &table, 1)
        .expect("write");
        let mut catalog = Catalog::new();
        catalog.register_provider(
            "traffic",
            Arc::new(SegmentScan::open(&paths).expect("open")),
        );
        let plan = LogicalPlan::scan("traffic").filter(filter);
        run_counted(&catalog, &plan).allocations
    };
    let retry_costs = |group: usize| {
        let faulted = Arc::new(FirstAttemptFails {
            inner: Arc::clone(&filter),
            row,
            failed: AtomicBool::new(false),
        });
        spent(group, faulted).saturating_sub(spent(group, Arc::clone(&filter)))
    };
    let (small, large) = (retry_costs(64), retry_costs(1_024));
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    assert!(
        small.max(large) <= 8,
        "a retried row cost {small} allocations in a 64-row group, {large} in a 1 024-row one"
    );
}

/// Rows per row group of the segment shards the scan cases write.
const SEGMENT_GROUP: usize = 256;

/// A catalog over the first `rows` scan frames of `dataset` as one segment
/// shard under `dir`, scanned `groups_per_wave` groups at a time (all at
/// once if `None`).
fn segment_catalog(
    dataset: &TrafficDataset,
    dir: &Path,
    rows: usize,
    groups_per_wave: Option<u64>,
) -> Catalog {
    let frames = dataset.table().rows()[400..400 + rows].to_vec();
    let table = Rowset::new(dataset.table().schema().clone(), frames).expect("rowset");
    let paths = SegmentWriter::new(SegmentWriterConfig {
        rows_per_group: SEGMENT_GROUP,
    })
    .write_shards(dir, &format!("t{rows}"), &table, 1)
    .expect("write");
    let mut scan = SegmentScan::open(&paths).expect("open");
    if let Some(groups) = groups_per_wave {
        let group = scan.group_meta(0).bytes;
        scan = scan.with_memory_budget(groups * group);
    }
    let mut catalog = Catalog::new();
    catalog.register_provider("traffic", Arc::new(scan));
    catalog
}

/// A bare `Scan` over decoded row groups gathers every row, wave by wave,
/// into groups of its own, noted in one row map sized once for the kept
/// groups' rows; the list of kept groups and the waves' lists of decoded
/// groups are sized once too. So a scan of 94 groups, one a wave,
/// reallocates no more than a scan of one: nothing it keeps grows by
/// doubling as the table grows.
#[test]
fn a_bare_segment_scan_sizes_its_tuples_once() {
    let dataset = dataset();
    let dir = std::env::temp_dir().join(format!("pp-alloc-bare-scan-{}", std::process::id()));
    let plan = LogicalPlan::scan("traffic");
    // One group a wave: a wave's list of groups never grows.
    let one = run_counted(
        &segment_catalog(&dataset, &dir, SEGMENT_GROUP, Some(1)),
        &plan,
    );
    let many = run_counted(&segment_catalog(&dataset, &dir, LARGE, Some(1)), &plan);
    assert_eq!(many.out.len(), LARGE);
    let groups = LARGE.div_ceil(SEGMENT_GROUP);
    assert!(
        many.reallocations <= one.reallocations,
        "{} reallocations over {groups} groups, {} over one",
        many.reallocations,
        one.reallocations
    );
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// A segment table under `Scan → PP filter`: what the scan allocates
/// grows with the groups it decodes, not with the rows the filter keeps
/// or drops — the survivors of a wave are gathered into one group of
/// columns, their blobs into one block, and no tuple is built for them;
/// and under a budget of three groups what it holds at once is those
/// three groups decoded plus the survivors, however long the table is.
#[test]
fn segment_scan_under_a_pp_filter_allocates_per_group_and_per_survivor() {
    const GROUP: usize = SEGMENT_GROUP;
    let dataset = dataset();
    let plan = pp_filter_plan(&dataset);
    let dir = std::env::temp_dir().join(format!("pp-alloc-budget-{}", std::process::id()));
    let catalog_of = |rows, groups_per_wave| segment_catalog(&dataset, &dir, rows, groups_per_wave);

    let small = run_counted(&catalog_of(SMALL, None), &plan);
    let large = run_counted(&catalog_of(LARGE, None), &plan);
    let extra = (large.allocations - small.allocations) as f64;
    let extra_groups = (LARGE.div_ceil(GROUP) - SMALL.div_ceil(GROUP)) as f64;
    let extra_survivors = (large.out.len() - small.out.len()) as f64;
    let extra_dropped = (LARGE - SMALL) as f64 - extra_survivors;
    assert!(extra_survivors > 1_000.0 && extra_dropped > 5_000.0);
    // A group: its page buffer, cursors, two cell vectors, the block and
    // its `Arc`, the rowset, one batch of scores, verdicts and a record.
    // A survivor: its share of the row map's doublings (3 a survivor when
    // each was a tuple: its cells, the blob's `Arc` and its coordinates).
    let allowed = 20.0 * extra_groups + 0.1 * extra_survivors + 0.1 * extra_dropped;
    assert!(
        extra <= allowed,
        "{} allocations over {SMALL} rows, {} over {LARGE}: {extra} more for \
         {extra_groups} groups, {extra_survivors} survivors and {extra_dropped} dropped rows \
         ({allowed:.0} allowed) — a dropped blob is turned into a row again",
        small.allocations,
        large.allocations,
    );

    // Three groups decoded: the blob block, and a cell per scalar column.
    let schema = dataset.table().schema();
    let row_bytes = 64 * 8 + (schema.len() - 1) * std::mem::size_of::<Value>();
    let wave_bytes = (3 * GROUP * row_bytes) as u64;
    let above_survivors = |rows: usize| {
        let spent = run_counted(&catalog_of(rows, Some(3)), &plan);
        assert!(
            spent.kept_bytes as usize >= spent.out.len() * 64 * 8,
            "the survivors are what is kept"
        );
        assert!(
            spent.peak_bytes <= 4 * wave_bytes + spent.kept_bytes,
            "{rows} rows: {} bytes held at once, {} of them survivors, \
             against a wave of {wave_bytes}",
            spent.peak_bytes,
            spent.kept_bytes
        );
        spent.peak_bytes.saturating_sub(spent.kept_bytes) as f64
    };
    // Whole waves, so that the last one — where the most survivors are
    // held — is as large as the others.
    let whole_waves = |rows: usize| rows / (3 * GROUP) * (3 * GROUP);
    let (small, large) = (
        above_survivors(whole_waves(SMALL)),
        above_survivors(whole_waves(LARGE)),
    );
    assert!(
        (large - small).abs() <= 0.1 * small.max(large),
        "held beside the survivors: {small} bytes over {SMALL} rows, {large} over {LARGE}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// Q13's served plan — `Scan → PP → Process → Select → Project[* except
/// blobs]` — over the table as a segment shard builds no blob `Value`: the
/// PP scores each decoded group's blob block, its survivors are gathered
/// into a block of their own, the UDFs read `frameID` where it is, and the
/// projection leaves the blob behind. What the plan allocates grows with
/// the groups it decodes (19 a group measured, 256-row groups), and by
/// at most 0.1 allocations per extra survivor, where a blob `Value` alone
/// is two (its `Arc` and its coordinates): 3.1 a survivor when each was
/// built with a tuple of its own.
#[test]
fn a_served_plan_over_segment_shards_builds_no_blob_value() {
    let dataset = dataset();
    let Served {
        query,
        columns,
        pps,
        domains,
    } = served_q13(&dataset);
    let mut source = SourceSpec::new("traffic");
    for column in &columns {
        source = source.with_udf(column, dataset.udf(column).expect("a traffic UDF"));
    }
    let dir = std::env::temp_dir().join(format!("pp-alloc-served-seg-{}", std::process::id()));
    let catalog_of = |rows| segment_catalog(&dataset, &dir, rows, None);
    let optimized = PpQueryOptimizer::new(pps, domains, QoConfig::default())
        .optimize(&source.nop_plan(&query.predicate), &catalog_of(SMALL))
        .expect("optimize");
    assert!(optimized.pp_filter.is_some(), "the plan filters with a PP");
    // (allocations, rows the PP kept) over the first `rows` frames.
    let run = |rows: usize| {
        let catalog = catalog_of(rows);
        let mut ctx = ExecutionContext::builder(&catalog)
            .with_parallelism(1)
            .with_batch_size(BATCH)
            .build();
        let spent = counted(|| ctx.run(&optimized.plan).expect("plan runs"));
        let spans = &ctx.telemetry().expect("telemetry").spans;
        let pp = spans.iter().find(|s| s.op.starts_with("PP"));
        (spent.allocations, pp.expect("a PP span").rows_out)
    };
    let ((small, small_kept), (large, large_kept)) = (run(SMALL), run(LARGE));
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    let extra = large.saturating_sub(small) as f64;
    let extra_survivors = (large_kept - small_kept) as f64;
    let extra_batches = ((LARGE - SMALL) / BATCH) as f64;
    assert!(
        extra_survivors > 1_000.0,
        "{small_kept} → {large_kept} survivors"
    );
    // A group (and its batch): decode, score, record, gather, and every
    // operator above the PP over its survivors.
    let allowed = 25.0 * extra_batches + 0.1 * extra_survivors;
    assert!(
        extra <= allowed,
        "{small} allocations keeping {small_kept} rows, {large} keeping {large_kept}: \
         {extra} more for {extra_survivors} survivors ({allowed:.0} allowed)"
    );
}

/// The monitor's state is O(keys): after the first pass over a workload
/// has created every key, ten thousand further runs leave the calling
/// thread holding exactly the bytes it held before them — whether the
/// same twenty reports recur (a dashboard) or every run carries a
/// predicate string never seen before (ad-hoc traffic over the same PPs).
#[test]
fn the_monitor_holds_the_same_bytes_after_ten_thousand_more_runs() {
    let runs = common::observed_runs();
    let held_after = |monitor: &RuntimeMonitor, from: usize, to: usize, adhoc: bool| {
        for i in from..to {
            let (report, snapshot) = &runs[i % runs.len()];
            if adhoc {
                let mut report = report.clone();
                report.predicate = format!("adhoc{i} = {i}");
                monitor.observe_run(&report, snapshot);
            } else {
                monitor.observe_run(report, snapshot);
            }
        }
        LIVE.with(Cell::get)
    };
    for adhoc in [false, true] {
        let monitor = RuntimeMonitor::new();
        let warm = held_after(&monitor, 0, 100, adhoc);
        let later = held_after(&monitor, 100, 10_100, adhoc);
        assert_eq!(
            later,
            warm,
            "adhoc={adhoc}: the monitor grew by {} bytes over 10 000 runs",
            later - warm
        );
        // The runs were folded, not dropped.
        let summary = monitor
            .calibration_summary("col0 = v")
            .expect("query 0 calibrates its PP");
        assert_eq!(summary.samples, 10_100 / runs.len() as u64);
        assert!(runs.iter().all(|(report, _)| !monitor.stale(report)));
        assert!(monitor.broken().is_empty());
    }
}

/// Mean allocations of one `PpQueryOptimizer::optimize` call over TRAF-20.
const OPTIMIZE_ALLOCATIONS: f64 = 500.0;
/// Allocations of `alloc::allocate` on a four-leaf conjunction: its list
/// of leaves, the winner's accuracies and thresholds, and the planned
/// expression.
const ALLOCATE_ALLOCATIONS: u64 = 32;

/// What planning allocates is bounded per call (see the header): nothing
/// is formatted per comparison, normalized per catalog entry or built per
/// budget vector tried (the test keeps the name it had when that was a
/// DP slot).
#[test]
fn planning_allocates_per_query_not_per_comparison_or_dp_slot() {
    let (dataset, pps) = planning_corpus();
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, 600..800);
    let mut domains = Domains::new();
    for (column, values) in TrafficDataset::column_domains() {
        domains.declare(column, values);
    }

    let queries = traf20_queries();
    let qo = PpQueryOptimizer::new(pps.clone(), domains, QoConfig::default());
    let mut allocations = 0u64;
    let mut injected = 0usize;
    for q in &queries {
        let nop = q.nop_plan(&dataset);
        let spent = counted(|| qo.optimize(&nop, &catalog).expect("optimize"));
        allocations += spent.allocations;
        injected += usize::from(spent.out.report.chosen.is_some());
    }
    assert!(
        injected >= 15,
        "TRAF-20 must exercise the planner: {injected}"
    );
    let mean = allocations as f64 / queries.len() as f64;
    assert!(
        mean <= OPTIMIZE_ALLOCATIONS,
        "optimize: {mean:.0} allocations per TRAF-20 query"
    );

    // Four PPs of four different columns, conjoined: the ones with the
    // most validation positives (71 to 105), which certify 0.95 to 0.97
    // each, so the four can promise 0.8.
    let conjunction = conjoined(&pps, NEGATED_FOUR);
    let spent = counted(|| allocate(&conjunction, 0.8, 0.1).expect("allocate"));
    assert_eq!(spent.out.accuracies().len(), 4);
    assert!(
        spent.allocations <= ALLOCATE_ALLOCATIONS,
        "allocate: {} allocations for four leaves on {} grid points",
        spent.allocations,
        ACCURACY_GRID.len()
    );
}

/// The TRAF-20 corpus planning is measured on: 800 frames, PPs trained on
/// the labels of the first 600.
fn planning_corpus() -> (TrafficDataset, PpCatalog) {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 800,
        seed: 0xA110C,
        ..Default::default()
    });
    let clauses = TrafficDataset::pp_corpus_clauses();
    let labeled: Vec<_> = clauses
        .iter()
        .map(|c| dataset.labeled_for_clause_range(c, 0..600))
        .collect();
    let pps = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    })
    .train_catalog(&clauses, &labeled)
    .expect("train");
    (dataset, pps)
}

/// Four PPs of four different columns: the ones with the most validation
/// positives (71 to 105), which certify 0.95 to 0.97 each, so the four
/// can promise 0.8.
const NEGATED_FOUR: [&str; 4] = [
    "vehType != SUV",
    "vehColor != red",
    "speed >= 40",
    "fromI != pt101",
];

/// The conjunction of the PPs with these keys, in this order.
fn conjoined(pps: &PpCatalog, keys: [&str; 4]) -> PpExpr {
    PpExpr::And(
        keys.iter()
            .map(|key| {
                let pp = pps.all().iter().find(|pp| pp.key() == *key);
                PpExpr::leaf(Arc::clone(pp.expect("trained")))
            })
            .collect(),
    )
}

/// The allocator tries every certified allocation, so it finds plans a
/// budget DP keeping one cheapest entry per grid level missed: one the DP
/// called infeasible, and one it planned with less reduction.
#[test]
fn allocation_finds_the_cheapest_certified_plan() {
    let (_, pps) = planning_corpus();
    // The positive clauses' leaves certify 0.8 to 0.93 at most; the four
    // multiply to about 0.54, so a = 0.5 is feasible.
    let positive = conjoined(
        &pps,
        [
            "vehType = SUV",
            "vehColor = red",
            "speed >= 50",
            "fromI = pt101",
        ],
    );
    let planned = allocate(&positive, 0.5, 0.1).expect("a = 0.5 is feasible");
    assert_eq!(planned.accuracies(), [0.85, 0.8, 0.93, 0.8]);
    assert!((planned.estimate().accuracy - 0.5059).abs() < 1e-4);

    let planned = allocate(&conjoined(&pps, NEGATED_FOUR), 0.8, 0.1).expect("allocate");
    assert!(
        planned.estimate().reduction >= 0.562,
        "{:?}",
        planned.estimate()
    );
}

/// The auditor's state is O(expressions), not O(replays) or O(blobs
/// replayed): once a warm-up cycle has replayed every dropped blob
/// (`sample_fraction = 1.0`), a further identical cycle's maintenance pass
/// returns with the calling thread holding no more than it held going in —
/// the scans it read live for the pass. The table is in memory, and then a
/// segment, whose every read decodes fresh blob `Arc`s that state kept
/// across passes would hold on to. The pass runs on this
/// thread and serving on the worker's, which this thread's counters do not
/// see — hence the mark brackets the pass, not the cycle.
#[test]
fn the_auditor_holds_no_more_after_another_identical_cycle() {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 800,
        seed: 0xA0D17,
        ..Default::default()
    });
    let clause = TrafficDataset::pp_corpus_clauses().remove(0);
    let labeled = dataset.labeled_for_clause_range(&clause, 0..400);
    let pps = PpTrainer::new(TrainerConfig {
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(0.0025),
        ..Default::default()
    })
    .train_catalog(std::slice::from_ref(&clause), &[labeled])
    .expect("train");
    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }

    let in_memory = {
        let mut catalog = Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        catalog
    };
    let dir = std::env::temp_dir().join(format!("pp-alloc-audit-{}", std::process::id()));
    let segments = {
        let frames = dataset.table().rows()[400..800].to_vec();
        let table = Rowset::new(dataset.table().schema().clone(), frames).expect("rowset");
        let paths = SegmentWriter::new(SegmentWriterConfig {
            rows_per_group: 256,
        })
        .write_shards(&dir, "audit", &table, 1)
        .expect("write");
        let mut catalog = Catalog::new();
        let scan = SegmentScan::open(&paths).expect("open");
        catalog.register_provider("traffic", Arc::new(scan));
        catalog
    };

    for (source, catalog) in [("in memory", in_memory), ("segments", segments)] {
        let mut sources = SourceRegistry::new();
        let udf = dataset.udf(&clause.column).expect("known column");
        sources.register(
            "traffic",
            SourceSpec::new("traffic").with_udf(&clause.column, udf),
        );
        let mut server = PpServer::new(
            ServerConfig {
                workers: 1,
                audit: AuditConfig {
                    sample_fraction: 1.0,
                },
                ..Default::default()
            },
            catalog,
            sources,
            pps.clone(),
            domains.clone(),
        );

        // Four servings of one query, then the pass that audits them: what
        // the pass replayed, and what it left this thread holding.
        let cycle = || {
            for _ in 0..4 {
                // 0.9: 0.95 needs 59 validation positives, the clause has 45.
                let request = QueryRequest::new("traffic", Predicate::from(clause.clone()), 0.9);
                let response = server.submit(request).expect("admitted").wait();
                assert!(response.outcome.success().is_some(), "the query completes");
            }
            let held = LIVE.with(Cell::get);
            let replays = server.maintenance_now().audit.replays;
            (replays, LIVE.with(Cell::get) - held)
        };
        let (warm_replays, _) = cycle();
        assert!(
            warm_replays >= 400,
            "{source}: only {warm_replays} replays to hold"
        );
        for _ in 0..2 {
            let (replays, grew) = cycle();
            assert_eq!(replays, warm_replays, "{source}: the cycles are identical");
            assert!(
                grew <= 0,
                "{source}: the auditor grew by {grew} bytes over {replays} replays"
            );
        }
        assert!(server.auditor().cluster_seconds() > 0.0);
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

// ---------------------------------------------------------------------------
// Hostile bytes: one mutation harness, pointed at both front doors.
// ---------------------------------------------------------------------------

/// The most a decoder may hold at once per byte it was handed. The bounded
/// reader lets a count reserve room only for items the unread bytes could
/// still encode, so the constant is the worst ratio of an item in memory
/// to its shortest encoding — a one-byte `True` child of an `And` becomes a
/// 56-byte `Predicate`, a one-byte `Null` cell a 24-byte `Value` — times
/// three for a vector caught mid-doubling.
const DECODE_BYTES_PER_INPUT_BYTE: u64 = 3 * std::mem::size_of::<Predicate>() as u64;
/// What a decode may hold whatever its input: a path, an error's message,
/// a schema's name index.
const DECODE_FLOOR_BYTES: u64 = 4096;
/// Seeded splices tried per mutated region.
const SPLICES: usize = 2_000;

fn assert_within_budget(name: &str, kind: &str, input_len: usize, peak_bytes: u64) {
    let allowed = DECODE_FLOOR_BYTES + DECODE_BYTES_PER_INPUT_BYTE * input_len as u64;
    assert!(
        peak_bytes <= allowed,
        "{name}, {kind}: {peak_bytes} bytes held at once decoding {input_len} ({allowed} allowed)"
    );
}

/// The byte strings of a golden hex file, by the `# name` line above each
/// (the whole file under its own name where there is none).
fn golden_sections(file: &str) -> Vec<(String, Vec<u8>)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let text = std::fs::read_to_string(path).expect("golden file");
    let mut sections = Vec::new();
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("# ") {
            sections.push((name.to_string(), Vec::new()));
            continue;
        }
        if sections.is_empty() {
            sections.push((file.to_string(), Vec::new()));
        }
        let (_, bytes) = sections.last_mut().expect("pushed above");
        bytes.extend(line.as_bytes().chunks_exact(2).map(|pair| {
            let pair = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(pair, 16).expect("hex digits")
        }));
    }
    sections
}

/// Hands `check` every mutation of `region`, with its kind: each bit
/// flipped; each 2-, 4- and 8-byte window overwritten with an inflated
/// big-endian count (at every offset, so at every real length and count
/// field's own); every proper prefix; and [`SPLICES`] seeded splices — up
/// to 16 bytes of some `donors` region written over, inserted into, or
/// cut out of this one.
fn for_each_mutation(
    region: &[u8],
    donors: &[&[u8]],
    rng: &mut StdRng,
    mut check: impl FnMut(&str, &[u8]),
) {
    let mut buf = region.to_vec();
    for bit in 0..region.len() * 8 {
        buf[bit / 8] ^= 1 << (bit % 8);
        check("bit flip", &buf);
        buf[bit / 8] ^= 1 << (bit % 8);
    }
    let inflated: [(usize, &[u64]); 3] = [
        (2, &[u16::MAX as u64]),
        (4, &[1 << 16, 1 << 20, 1 << 31, u32::MAX as u64]),
        (8, &[1 << 16, 1 << 20, 1 << 31, u64::MAX]),
    ];
    for (width, counts) in inflated {
        for at in 0..(region.len() + 1).saturating_sub(width) {
            for count in counts {
                buf[at..at + width].copy_from_slice(&count.to_be_bytes()[8 - width..]);
                check("inflated count", &buf);
            }
            buf[at..at + width].copy_from_slice(&region[at..at + width]);
        }
    }
    for cut in 0..region.len() {
        check("truncation", &region[..cut]);
    }
    for _ in 0..SPLICES {
        let donor = donors[rng.gen_range(0..donors.len())];
        let width = 1 + rng.gen_range(0..donor.len().min(16));
        let from = rng.gen_range(0..donor.len() - width + 1);
        let at = rng.gen_range(0..region.len() + 1);
        let end = (at + width).min(region.len());
        buf.clear();
        buf.extend_from_slice(&region[..at]);
        match rng.gen_range(0..3u8) {
            0 => buf.extend_from_slice(&region[end..]),
            1 => {
                buf.extend_from_slice(&donor[from..from + width]);
                buf.extend_from_slice(&region[end..]);
            }
            _ => {
                buf.extend_from_slice(&donor[from..from + width]);
                buf.extend_from_slice(&region[at..]);
            }
        }
        check("splice", &buf);
    }
}

/// `"PPW1"`, the frame type byte, and the big-endian payload length.
const FRAME_HEADER_LEN: usize = 9;

/// One decode of `frame`: a typed error or a frame, within the budget;
/// and a frame that came back is a valid one — it encodes, and decodes to
/// itself again.
fn check_frame(name: &str, kind: &str, frame: &[u8]) {
    let spent = counted(|| read_frame(&mut Cursor::new(frame)));
    assert_within_budget(name, kind, frame.len(), spent.peak_bytes);
    if let Ok(Some(decoded)) = spent.out {
        let again = read_frame(&mut Cursor::new(encode_frame(&decoded)));
        let again = again.expect("what decoded encodes to a frame");
        assert_eq!(
            format!("{again:?}"),
            format!("{:?}", Some(&decoded)),
            "{name}, {kind}"
        );
    }
}

#[test]
fn mutated_golden_frames_decode_to_a_typed_error_or_a_frame_within_budget() {
    let frames = golden_sections("wire_frames.hex");
    assert_eq!(frames.len(), 7, "one golden frame of every type");
    let whole: Vec<&[u8]> = frames.iter().map(|(_, f)| f.as_slice()).collect();
    let payloads: Vec<&[u8]> = whole.iter().map(|f| &f[FRAME_HEADER_LEN..]).collect();
    // The costliest bytes there are, which no mutation of a golden frame
    // comes near: one-byte `True`s under an `And`, one more of them than a
    // power of two, so that the vector of children has just doubled.
    let bomb = Predicate::And(vec![Predicate::True; 4097]);
    let bomb = encode_frame(&Frame::Request(WireRequest::new("t", bomb, 0.5)));
    check_frame("request", "an And of 4097 Trues", &bomb);

    let mut rng = StdRng::seed_from_u64(0xF8A3E);
    for (name, frame) in &frames {
        check_frame(name, "intact", frame);
        // The frame as it stands: magic, type and the length field are
        // under mutation too, and nothing is patched up after it.
        for_each_mutation(frame, &whole, &mut rng, |kind, mutated| {
            check_frame(name, kind, mutated);
        });
        // Its payload, under a header whose length is the mutated
        // payload's, so that the payload decoder sees all of it.
        let (header, payload) = frame.split_at(FRAME_HEADER_LEN);
        let mut sealed = Vec::new();
        for_each_mutation(payload, &payloads, &mut rng, |kind, mutated| {
            sealed.clear();
            sealed.extend_from_slice(&header[..5]);
            sealed.extend_from_slice(&(mutated.len() as u32).to_be_bytes());
            sealed.extend_from_slice(mutated);
            check_frame(name, kind, &sealed);
        });
    }
}

/// What `read_response` did before it read a response through one payload
/// buffer and one string table: a fold over `read_frame`. Kept as the
/// reference the response door is held to.
fn read_response_by_frames(bytes: &[u8]) -> Result<WireResponse, WireError> {
    let reader = &mut Cursor::new(bytes);
    let mut header: Option<(u64, u64, bool, Vec<String>)> = None;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut trace: Option<RequestTimeline> = None;
    loop {
        match read_frame(reader)?.ok_or(WireError::Truncated)? {
            Frame::ResultHeader {
                request_id,
                epoch,
                cache_hit,
                columns,
            } => {
                if header.is_some() {
                    return Err(WireError::Malformed("duplicate result header".into()));
                }
                header = Some((request_id, epoch, cache_hit, columns));
            }
            Frame::VerdictBatch {
                request_id,
                rows: chunk,
            } => {
                if !matches!(&header, Some((id, ..)) if *id == request_id) {
                    return Err(WireError::Malformed("verdict batch before header".into()));
                }
                rows.extend(chunk);
            }
            Frame::Complete {
                request_id,
                total_rows,
            } => {
                let Some((id, epoch, cache_hit, columns)) = header else {
                    return Err(WireError::Malformed("complete before header".into()));
                };
                if id != request_id {
                    return Err(WireError::Malformed("complete for a different id".into()));
                }
                if rows.len() as u64 != total_rows {
                    return Err(WireError::Malformed(format!(
                        "stream carried {} rows, complete frame declared {total_rows}",
                        rows.len()
                    )));
                }
                let outcome = WireOutcome::Complete {
                    epoch,
                    cache_hit,
                    columns,
                    rows,
                };
                return Ok(WireResponse {
                    request_id,
                    outcome,
                    trace,
                });
            }
            Frame::Error {
                request_id,
                kind,
                detail,
                rows_processed,
                charged_cluster_seconds,
            } => {
                let outcome = WireOutcome::Error {
                    kind,
                    detail,
                    rows_processed,
                    charged_cluster_seconds,
                };
                return Ok(WireResponse {
                    request_id,
                    outcome,
                    trace,
                });
            }
            Frame::Trace(timeline) => {
                if trace.is_some() {
                    return Err(WireError::Malformed("duplicate trace frame".into()));
                }
                trace = Some(timeline);
            }
            Frame::Request(_) => {
                return Err(WireError::Malformed("request frame from server".into()));
            }
        }
    }
}

/// A verdict row shaped like a traffic result: two ids, two categoricals
/// and a speed. `label` picks the strings.
fn verdict_row(i: usize, label: impl Fn(usize, usize) -> String) -> Vec<Value> {
    vec![
        Value::Int(i as i64 % 8),
        Value::Int(i as i64),
        Value::str(label(i, 0)),
        Value::str(label(i, 1)),
        Value::Float(20.0 + (i % 60) as f64),
    ]
}

/// The frames of one response: a trace, the header, `rows` verdict rows
/// in batches of `per_frame`, and the completion.
fn response_stream(
    rows: usize,
    per_frame: usize,
    label: impl Fn(usize, usize) -> String,
) -> Vec<Vec<u8>> {
    let id = 7;
    let mut frames = vec![
        encode_frame(&Frame::Trace(RequestTimeline {
            trace_id: id,
            stages: vec![StageSpan {
                name: "execute".into(),
                detail: Some("hit".into()),
                nanos: 1_000,
            }],
            terminal: "respond".into(),
            total_nanos: 2_000,
        })),
        encode_frame(&Frame::ResultHeader {
            request_id: id,
            epoch: 1,
            cache_hit: true,
            columns: ["cameraID", "frameID", "vehType", "vehColor", "speed"]
                .map(String::from)
                .into(),
        }),
    ];
    let all: Vec<Vec<Value>> = (0..rows).map(|i| verdict_row(i, &label)).collect();
    for chunk in all.chunks(per_frame) {
        frames.push(encode_frame(&Frame::VerdictBatch {
            request_id: id,
            rows: chunk.to_vec(),
        }));
    }
    frames.push(encode_frame(&Frame::Complete {
        request_id: id,
        total_rows: rows as u64,
    }));
    frames
}

/// Categoricals as a traffic result carries them: a handful of values,
/// repeated down the stream.
fn categorical(i: usize, column: usize) -> String {
    ["SUV", "car", "truck", "van", "red", "white", "black"][(i * 3 + column * 5) % 7].to_string()
}

/// One `read_response` of `stream`: a typed error or a response within
/// the budget, and the one a fold over `read_frame` reads from the same
/// bytes.
fn check_response(kind: &str, stream: &[u8]) {
    let spent = counted(|| read_response(&mut Cursor::new(stream)));
    assert_within_budget("response", kind, stream.len(), spent.peak_bytes);
    assert_eq!(
        format!("{:?}", spent.out),
        format!("{:?}", read_response_by_frames(stream)),
        "response, {kind}"
    );
}

#[test]
fn mutated_response_streams_decode_like_the_frames_they_are_made_of() {
    // Two verdict batches of three rows, their strings repeating within a
    // batch and across the two.
    let frames = response_stream(6, 3, categorical);
    assert_eq!(frames.len(), 5, "trace, header, two batches, complete");
    let stream = frames.concat();
    let response = read_response(&mut Cursor::new(&stream)).expect("the stream decodes");
    assert!(matches!(&response.outcome, WireOutcome::Complete { rows, .. } if rows.len() == 6));
    check_response("intact", &stream);

    let golden = golden_sections("wire_frames.hex");
    let mut donors: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    donors.extend(golden.iter().map(|(_, f)| f.as_slice()));
    let mut rng = StdRng::seed_from_u64(0x2E5);
    // The stream as it stands: every frame's header under mutation too.
    for_each_mutation(&stream, &donors, &mut rng, check_response);
    // Each verdict batch's payload, re-sealed in place, so that the
    // straight-into-the-rows decode sees all of it.
    let payloads: Vec<&[u8]> = frames.iter().map(|f| &f[FRAME_HEADER_LEN..]).collect();
    for batch in [2, 3] {
        let (header, payload) = frames[batch].split_at(FRAME_HEADER_LEN);
        let mut sealed = Vec::new();
        for_each_mutation(payload, &payloads, &mut rng, |kind, mutated| {
            sealed.clear();
            frames[..batch]
                .iter()
                .for_each(|f| sealed.extend_from_slice(f));
            sealed.extend_from_slice(&header[..5]);
            sealed.extend_from_slice(&(mutated.len() as u32).to_be_bytes());
            sealed.extend_from_slice(mutated);
            frames[batch + 1..]
                .iter()
                .for_each(|f| sealed.extend_from_slice(f));
            check_response(kind, &sealed);
        });
    }
}

/// Verdict rows per frame in the decode budget's streams: few enough that
/// a buffer or two per frame would show against the per-row allowance.
const ROWS_PER_FRAME: usize = 16;

/// Decoding a verdict stream costs each row its cells' vector, and each
/// frame next to nothing: the payload buffer is the response's, and a
/// categorical cell seen before is an `Arc` clone, not a string
/// allocation.
#[test]
fn a_verdict_stream_decodes_in_one_allocation_a_row() {
    let decode = |rows: usize| {
        let stream = response_stream(rows, ROWS_PER_FRAME, categorical).concat();
        let spent = counted(|| read_response(&mut Cursor::new(&stream)).expect("decodes"));
        match spent.out.outcome {
            WireOutcome::Complete { rows: got, .. } => assert_eq!(got.len(), rows),
            other => panic!("expected completion, got {other:?}"),
        }
        spent.allocations
    };
    let (small, large) = (decode(2_048), decode(4_096));
    let extra_rows = 2_048.0;
    let extra_frames = extra_rows / ROWS_PER_FRAME as f64;
    let allowed = 1.1 * extra_rows + 1.0 * extra_frames;
    let extra = (large - small) as f64;
    assert!(
        extra <= allowed,
        "{small} allocations over 2 048 rows, {large} over 4 096: {:.2} per extra row, \
         {:.1} per extra frame ({allowed:.0} allowed in all)",
        extra / extra_rows,
        extra / extra_frames,
    );

    // Strings that never repeat still decode, each its own allocation once
    // the table is full, to what the frames hold.
    let distinct = |i: usize, column: usize| format!("{column}-{i}");
    let stream = response_stream(1_024, ROWS_PER_FRAME, distinct).concat();
    let response = read_response(&mut Cursor::new(&stream)).expect("decodes");
    assert_eq!(
        format!("{response:?}"),
        format!("{:?}", read_response_by_frames(&stream).expect("decodes"))
    );
}

/// Header bytes of a segment file: magic and version.
const SEGMENT_HEADER_LEN: usize = 8;

/// A segment file of `data` (header and pages) and `footer`, sealed: the
/// trailer carries this footer's CRC and length.
fn sealed_segment(data: &[u8], footer: &[u8]) -> Vec<u8> {
    let mut file = data.to_vec();
    file.extend_from_slice(footer);
    file.extend_from_slice(&crc32(footer).to_be_bytes());
    file.extend_from_slice(&(footer.len() as u64).to_be_bytes());
    file.extend_from_slice(b"GSPP");
    file
}

/// The golden segment, taken apart the way `Segment::open` reads it.
struct GoldenSegment {
    /// Header and pages: everything before the footer.
    data: Vec<u8>,
    footer: Vec<u8>,
    /// Per page, in directory order: its bytes, and where in the footer
    /// its directory entry (offset, length, CRC, zone map) begins.
    pages: Vec<(Vec<u8>, usize)>,
}

impl GoldenSegment {
    fn load() -> GoldenSegment {
        let (_, file) = golden_sections("segment.hex").remove(0);
        let trailer = file.len() - 16;
        let mut cur = Reader::new(&file[trailer + 4..], "trailer");
        let footer_start = trailer - cur.u64().expect("footer length") as usize;
        let footer = &file[footer_start..trailer];

        let walked = "the golden footer is whole";
        let mut cur = Reader::new(footer, "footer");
        cur.take(16).expect(walked); // shard, shard count, rows
        let n_cols = cur.u32().expect(walked);
        for _ in 0..n_cols {
            let name_len = cur.u16().expect(walked) as usize;
            cur.take(name_len + 1).expect(walked); // name, dtype
        }
        let mut pages = Vec::new();
        for _ in 0..cur.u32().expect(walked) {
            cur.u32().expect(walked); // rows
            for _ in 0..n_cols {
                let entry = footer.len() - cur.remaining();
                let offset = cur.u64().expect(walked) as usize;
                let len = cur.u64().expect(walked) as usize;
                cur.take(4 + 8 + 8).expect(walked); // crc, nulls, present
                for _ in 0..2 {
                    // min, then max: absent, or a tagged 8-byte value
                    if cur.u8().expect(walked) != 0 {
                        cur.take(8).expect(walked);
                    }
                }
                pages.push((file[offset..offset + len].to_vec(), entry));
            }
        }
        assert!(cur.is_empty() && pages.len() == 15, "5 columns × 3 groups");
        GoldenSegment {
            data: file[..footer_start].to_vec(),
            footer: footer.to_vec(),
            pages,
        }
    }

    /// The file with `page` for its `p`th page, sealed: the new bytes go
    /// where the footer began (the old ones stay behind, unreferenced —
    /// a page of another length would otherwise move every later one),
    /// and the directory entry points at them with their length and CRC.
    fn with_page(&self, p: usize, page: &[u8]) -> Vec<u8> {
        let (_, entry) = self.pages[p];
        let mut footer = self.footer.clone();
        footer[entry..entry + 8].copy_from_slice(&(self.data.len() as u64).to_be_bytes());
        footer[entry + 8..entry + 16].copy_from_slice(&(page.len() as u64).to_be_bytes());
        footer[entry + 16..entry + 20].copy_from_slice(&crc32(page).to_be_bytes());
        sealed_segment(&[&self.data, page].concat(), &footer)
    }
}

/// The one file every mutated segment is opened from, rewritten in place
/// (creating or truncating a file per mutation costs a thousand times the
/// decode under test).
struct ScratchFile {
    path: PathBuf,
    file: File,
}

impl ScratchFile {
    fn create() -> ScratchFile {
        let path = std::env::temp_dir().join(format!("pp-hostile-{}.pps", std::process::id()));
        let file = File::create(&path).expect("scratch file created");
        ScratchFile { path, file }
    }

    /// The path, once the file holds exactly `bytes`.
    fn holding(&self, bytes: &[u8]) -> &Path {
        self.file
            .write_all_at(bytes, 0)
            .expect("scratch file written");
        self.file
            .set_len(bytes.len() as u64)
            .expect("scratch file sized");
        &self.path
    }
}

/// One open of `file` and a read of every group it declares: typed errors
/// or chunks of the declared length, within the budget. Returns what the
/// open said.
fn check_segment(
    scratch: &ScratchFile,
    name: &str,
    kind: &str,
    file: &[u8],
) -> Result<(), StoreError> {
    let path = scratch.holding(file);
    let spent = counted(|| {
        let segment = Segment::open(path)?;
        for g in 0..segment.group_count() {
            // A group that fails to decode leaves the others readable.
            if let Ok(chunk) = segment.read_group(g) {
                assert_eq!(chunk.len(), segment.group_rows(g), "{name}, {kind}");
            }
        }
        Ok(())
    });
    assert_within_budget(name, kind, file.len(), spent.peak_bytes);
    spent.out
}

#[test]
fn mutated_golden_segment_decodes_to_typed_errors_or_chunks_within_budget() {
    let golden = GoldenSegment::load();
    let intact = sealed_segment(&golden.data, &golden.footer);
    let scratch = &ScratchFile::create();
    check_segment(scratch, "segment", "intact", &intact).expect("the golden segment opens");
    let mut rng = StdRng::seed_from_u64(0x5E6);

    // The file as it stands: header, trailer and checksummed regions under
    // mutation, nothing re-sealed — mostly the checksums' business.
    for_each_mutation(&intact, &[&intact], &mut rng, |kind, file| {
        let _ = check_segment(scratch, "file", kind, file);
    });
    // The footer, re-sealed so that its decoder is what answers.
    for_each_mutation(
        &golden.footer,
        &[&golden.footer],
        &mut rng,
        |kind, footer| {
            let file = sealed_segment(&golden.data, footer);
            let _ = check_segment(scratch, "footer", kind, &file);
        },
    );
    // Each page, re-sealed likewise; the other pages are the donors.
    let donors: Vec<&[u8]> = golden.pages.iter().map(|(page, _)| &page[..]).collect();
    for (p, (page, _)) in golden.pages.iter().enumerate() {
        for_each_mutation(page, &donors, &mut rng, |kind, page| {
            let opened = check_segment(scratch, "page", kind, &golden.with_page(p, page));
            // Only the directory's rows-per-page-byte check may refuse a
            // re-sealed page at open; anything else is for `read_group`.
            assert!(
                matches!(&opened, Ok(()) | Err(StoreError::Corrupt(_))),
                "page {p}, {kind}: {opened:?}"
            );
        });
    }

    // The file the rule was measured on: a sealed 24-byte footer with no
    // columns that declares 2^20 row groups. Room for a million directory
    // entries (56 MiB) used to be reserved before the first one turned
    // out not to be there.
    let mut footer = [0u8; 24];
    footer[20..].copy_from_slice(&(1u32 << 20).to_be_bytes());
    let file = sealed_segment(&intact[..SEGMENT_HEADER_LEN], &footer);
    assert_eq!(file.len(), 48);
    let path = scratch.holding(&file);
    let spent = counted(|| Segment::open(path));
    assert!(
        matches!(
            spent.out,
            Err(StoreError::Truncated {
                context: "segment footer"
            })
        ),
        "{:?}",
        spent.out
    );
    assert!(spent.peak_bytes < 64 * 1024, "{} bytes", spent.peak_bytes);
    std::fs::remove_file(path).expect("scratch file removed");
}
