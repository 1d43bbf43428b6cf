//! Allocation budgets for the two row-parallel UDF operators.
//!
//! The probe→consume fold hands one record per *batch* from the probe
//! phase to the consume phase, so what a PP filter allocates grows with
//! the number of batches, not rows; a processor allocates what its rows
//! are made of and nothing around them. Both are counted here — heap
//! allocations made by the calling thread during a `parallelism = 1` run —
//! which is deterministic where a timing is not, and fails the moment a
//! per-row record (a boxed outcome, a `Vec` per row, a `Vec` → `Arc` copy)
//! comes back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use probabilistic_predicates::core::expr::{PlannedPpExpr, PpExpr};
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::ClosureProcessor;
use probabilistic_predicates::engine::{Catalog, Column, DataType, LogicalPlan, Value};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so reading it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting per thread; the test harness runs tests on parallel
/// threads, and a `K = 1` run does all its work on the caller's.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SMALL: usize = 12_000;
const LARGE: usize = 24_000;
const BATCH: usize = 256;

/// Allocations the calling thread makes while running `plan` serially.
fn allocations_of(catalog: &Catalog, plan: &LogicalPlan) -> u64 {
    let mut ctx = ExecutionContext::builder(catalog)
        .with_parallelism(1)
        .with_batch_size(BATCH)
        .build();
    let before = ALLOCATIONS.with(Cell::get);
    let out = ctx.run(plan).expect("plan runs");
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert!(!out.is_empty(), "the plan must do some work");
    spent
}

#[test]
fn pp_filter_allocates_per_batch_and_process_per_row() {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: LARGE + 400,
        seed: 0xA110C,
        ..Default::default()
    });
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
    let filter = Arc::new(filter);
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

    let (small, large) = spent(LogicalPlan::scan("traffic").filter(filter));
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
