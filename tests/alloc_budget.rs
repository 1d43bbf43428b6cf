//! Allocation budgets for the two row-parallel UDF operators and for the
//! scan under a filter.
//!
//! The probe→consume fold hands one record per *batch* from the probe
//! phase to the consume phase, so what a PP filter allocates grows with
//! the number of batches, not rows; a processor allocates what its rows
//! are made of and nothing around them. A segment scan under a PP filter
//! decodes a row group into a handful of column buffers and builds a
//! tuple only for a row the filter kept, so it allocates per group and
//! per survivor, and holds one wave of groups plus the survivors at a
//! time. All of it is counted here — heap allocations made, and bytes
//! held, by the calling thread during a `parallelism = 1` run — which is
//! deterministic where a timing is not, and fails the moment a per-row
//! record (a boxed outcome, a `Vec` per row, a `Vec` → `Arc` copy, a
//! tuple for a dropped blob) comes back.
//!
//! The runtime monitor is held to the same kind of budget: it folds every
//! observed run into fixed-size state per key, so what it holds after ten
//! thousand more runs is, to the byte, what it held before them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use probabilistic_predicates::core::expr::{PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::RuntimeMonitor;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::ClosureProcessor;
use probabilistic_predicates::engine::{
    Catalog, Column, DataType, LogicalPlan, Rowset, TableProvider, Value,
};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::store::{SegmentScan, SegmentWriter, SegmentWriterConfig};

mod common;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so reading it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
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

/// What the calling thread's heap did while `plan` ran serially.
struct Spent {
    /// Allocations made.
    allocations: u64,
    /// The most bytes held at once, over what was held before the run.
    peak_bytes: u64,
    /// Bytes still held when the run returned: the output rows (and the
    /// context's few kilobytes of telemetry).
    kept_bytes: u64,
    out: Rowset,
}

fn run_counted(catalog: &Catalog, plan: &LogicalPlan) -> Spent {
    let mut ctx = ExecutionContext::builder(catalog)
        .with_parallelism(1)
        .with_batch_size(BATCH)
        .build();
    let before = ALLOCATIONS.with(Cell::get);
    let held = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(held));
    let out = ctx.run(plan).expect("plan runs");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let peak_bytes = (PEAK.with(Cell::get) - held) as u64;
    let kept_bytes = (LIVE.with(Cell::get) - held) as u64;
    assert!(!out.is_empty(), "the plan must do some work");
    Spent {
        allocations,
        peak_bytes,
        kept_bytes,
        out,
    }
}

fn allocations_of(catalog: &Catalog, plan: &LogicalPlan) -> u64 {
    run_counted(catalog, plan).allocations
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
    let filter = PlannedPpExpr::uniform(PpExpr::leaf(Arc::new(pp)), 0.95)
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
        |row, _| Ok(vec![Value::Int(row.len() as i64)]),
    ));

    // The same plan over a table and over one twice its size.
    let spent = |plan: LogicalPlan| {
        let run = |rows: usize| {
            let mut catalog = Catalog::new();
            dataset.register_slice(&mut catalog, 400..400 + rows);
            allocations_of(&catalog, &plan)
        };
        (run(SMALL), run(LARGE))
    };
    let extra_rows = (LARGE - SMALL) as u64;
    let extra_batches = extra_rows.div_ceil(BATCH as u64);

    let (small, large) = spent(pp_filter_plan(&dataset));
    let per_batch = (large - small) as f64 / extra_batches as f64;
    assert!(
        per_batch <= 24.0,
        "PP filter: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
         {per_batch:.1} per extra batch — something allocates per row again"
    );

    let (small, large) = spent(LogicalPlan::scan("traffic").process(tagger));
    let per_row = (large - small) as f64 / extra_rows as f64;
    assert!(
        per_row <= 4.0,
        "Process: {small} allocations over {SMALL} rows, {large} over {LARGE}: \
         {per_row:.2} per extra row"
    );
}

/// A segment table under `Scan → PP filter`: what the scan allocates
/// grows with the groups it decodes and the rows the filter keeps, not
/// with the rows it drops; and under a budget of three groups what it
/// holds at once is those three groups decoded plus the survivors,
/// however long the table is.
#[test]
fn segment_scan_under_a_pp_filter_allocates_per_group_and_per_survivor() {
    const GROUP: usize = 256;
    let dataset = dataset();
    let plan = pp_filter_plan(&dataset);
    let dir = std::env::temp_dir().join(format!("pp-alloc-budget-{}", std::process::id()));
    // A catalog over the first `rows` scan frames as one segment shard,
    // scanned `groups_per_wave` groups at a time (all at once if `None`).
    let catalog_of = |rows: usize, groups_per_wave: Option<u64>| {
        let frames = dataset.table().rows()[400..400 + rows].to_vec();
        let table = Rowset::new(dataset.table().schema().clone(), frames).expect("rowset");
        let paths = SegmentWriter::new(SegmentWriterConfig {
            rows_per_group: GROUP,
        })
        .write_shards(&dir, &format!("t{rows}"), &table, 1)
        .expect("write");
        let mut scan = SegmentScan::open(&paths).expect("open");
        if let Some(groups) = groups_per_wave {
            let group = scan.group_meta(0).bytes;
            scan = scan.with_memory_budget(groups * group);
        }
        let mut catalog = Catalog::new();
        catalog.register_provider("traffic", Arc::new(scan));
        catalog
    };

    let small = run_counted(&catalog_of(SMALL, None), &plan);
    let large = run_counted(&catalog_of(LARGE, None), &plan);
    let extra = (large.allocations - small.allocations) as f64;
    let extra_groups = (LARGE.div_ceil(GROUP) - SMALL.div_ceil(GROUP)) as f64;
    let extra_survivors = (large.out.len() - small.out.len()) as f64;
    let extra_dropped = (LARGE - SMALL) as f64 - extra_survivors;
    assert!(extra_survivors > 1_000.0 && extra_dropped > 5_000.0);
    // A group (14 measured): its page buffer, cursors, two cell vectors,
    // the block and its `Arc`, the chunk, one batch of scores, verdicts
    // and a record. A survivor: the row's cells, the blob's `Arc` and its
    // coordinates.
    let allowed = 20.0 * extra_groups + 3.0 * extra_survivors + 0.1 * extra_dropped;
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
        assert!(!monitor.needs_replan() && monitor.broken().is_empty());
    }
}
