//! Cross-query UDF memoization for shared-scan execution.
//!
//! The paper's premise is that the expensive UDF dominates query cost, so
//! N concurrent queries over the same source should not pay for the same
//! blob N times. A [`UdfMemo`] caches the output of every expensive
//! [`Processor`] keyed by `(op name, base-row key)`; a
//! [`MemoProcessor`] shim consults the memo before invoking the wrapped
//! UDF, so a window of queries sharing one memo invokes each UDF at most
//! once per blob while every query's *observable* behavior — verdicts,
//! `CostMeter` charges, telemetry spans, `EXPLAIN` output, fault
//! targeting — is byte-identical to running alone:
//!
//! - `CostMeter` charges are simulated (`rows_in × cost_per_row`), never a
//!   function of whether the closure actually ran, so a memo hit charges
//!   exactly what a real invocation would.
//! - [`MemoProcessor`] forwards `name()`, `output_columns()` and
//!   `cost_per_row()`, so plan rendering, telemetry span names, and
//!   [`FaultPlan`](crate::fault::FaultPlan) name-targeting see the inner
//!   UDF unchanged. The fault shim wraps *outside* the memo (the memo
//!   rewrite runs before fault application in
//!   [`ExecutionContext::run`](crate::exec::ExecutionContext::run)), so
//!   injected faults fire identically and corrupted outputs are never
//!   cached.
//! - Each query's own PP prefix still decides which rows reach the
//!   memoized `Process` node, so per-query row counts are untouched; the
//!   memo only deduplicates the *work* on the union of surviving rows.
//!
//! ## Key soundness
//!
//! Rows are keyed on a prefix of their cells — the source table's base
//! columns (set via [`UdfMemo::new`]). Columns appended by upstream
//! processors are excluded deliberately: they are themselves pure
//! functions of the base row (the same `Arc`'d processor instances are
//! shared through the source registry), so two plans that apply different
//! UDF subsets before the same processor still produce the same output for
//! the same base row. Cells are compared exactly: floats by bit pattern,
//! blobs by `Arc` pointer identity. An entry holds the `Arc`s of the blobs
//! it is keyed on, so a pointer names one blob for as long as the memo
//! can be asked about it: a segment scan decodes a fresh `Arc` per row
//! and wave, and a freed blob's address could otherwise come back as
//! another blob's.
//!
//! Errors are never cached: a failing invocation is retried (and re-drawn
//! by any fault shim) exactly as it would be solo, and leaves none of its
//! cells in the caller's buffer.
//!
//! ## What a lookup costs
//!
//! The memo keeps one table per op, which a [`MemoProcessor`] looks up by
//! name once, when it is built; no op name is hashed or compared per row.
//! A lookup hashes the row's key cells in place — the row's first cells,
//! read where the row keeps them — once, with the memo's own keyed hasher,
//! and the table's index maps that hash, unhashed again, to the newest
//! entry with it; older ones are chained behind it and told apart by exact
//! comparison. An entry is a slot in two flat arenas: its key cells, and
//! the run of cells the call appended (how many output rows that is
//! follows from the UDF's column count, as it does for a live call — see
//! [`Processor::process`]). A hit clones those cells into the caller's
//! buffer. A miss runs the UDF with no lock held and then appends its key
//! and its fresh cells to the arenas. Neither builds a key or allocates
//! anything of its own beyond the arenas' and the index's doublings, so a
//! memoized `Process` row allocates nothing, warm or cold
//! (`tests/alloc_budget.rs`).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use pp_linalg::Features;

use crate::logical::LogicalPlan;
use crate::row::RowRef;
use crate::schema::{Column, Schema};
use crate::sync::Mutex;
use crate::udf::Processor;
use crate::value::Value;
use crate::Result;

/// One row cell as an entry keeps it: exactly comparable, and holding on
/// to what it names.
#[derive(Debug)]
enum CellKey {
    Null,
    Bool(bool),
    Int(i64),
    /// Bit pattern — distinguishes `-0.0`/`0.0` and keeps NaNs keyable.
    Float(u64),
    Str(Arc<str>),
    /// Compared by `Arc` pointer identity; holding the `Arc` keeps the
    /// address from naming another blob while the entry lives.
    Blob(Arc<Features>),
}

impl CellKey {
    fn of(value: &Value) -> CellKey {
        match value {
            Value::Null => CellKey::Null,
            Value::Bool(b) => CellKey::Bool(*b),
            Value::Int(i) => CellKey::Int(*i),
            Value::Float(f) => CellKey::Float(f.to_bits()),
            Value::Str(s) => CellKey::Str(Arc::clone(s)),
            Value::Blob(b) => CellKey::Blob(Arc::clone(b)),
        }
    }

    /// Whether `value` is the cell this key was made of.
    fn is(&self, value: &Value) -> bool {
        match (self, value) {
            (CellKey::Null, Value::Null) => true,
            (CellKey::Bool(k), Value::Bool(v)) => k == v,
            (CellKey::Int(k), Value::Int(v)) => k == v,
            (CellKey::Float(k), Value::Float(v)) => *k == v.to_bits(),
            (CellKey::Str(k), Value::Str(v)) => k == v,
            (CellKey::Blob(k), Value::Blob(v)) => Arc::ptr_eq(k, v),
            _ => false,
        }
    }
}

/// Hashes `value` the way [`CellKey::is`] compares it, in place.
fn hash_cell(value: &Value, hasher: &mut impl Hasher) {
    std::mem::discriminant(value).hash(hasher);
    match value {
        Value::Null => {}
        Value::Bool(b) => b.hash(hasher),
        Value::Int(i) => i.hash(hasher),
        Value::Float(f) => f.to_bits().hash(hasher),
        Value::Str(s) => s.hash(hasher),
        Value::Blob(b) => Arc::as_ptr(b).hash(hasher),
    }
}

/// Hands a `u64` through as its own hash: a table's index is keyed by
/// hashes the memo's keyed hasher already made.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached for a `u64` key; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// One cached call: where its key cells and its appended cells begin in
/// the table's arenas (each run ends where the next slot's begins), and
/// the next older slot whose key has the same hash.
struct Slot {
    key: usize,
    cells: usize,
    older: Option<u32>,
}

/// One op's cached calls and counts.
#[derive(Default)]
struct Table {
    /// The newest slot of each key hash.
    newest: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// In insertion order.
    slots: Vec<Slot>,
    keys: Vec<CellKey>,
    cells: Vec<Value>,
    invoked: u64,
    hits: u64,
}

impl Table {
    /// The key cells of slot `i`.
    fn key(&self, i: usize) -> &[CellKey] {
        let end = self.slots.get(i + 1).map_or(self.keys.len(), |s| s.key);
        &self.keys[self.slots[i].key..end]
    }

    /// The cells slot `i`'s call appended.
    fn cells(&self, i: usize) -> &[Value] {
        let end = self.slots.get(i + 1).map_or(self.cells.len(), |s| s.cells);
        &self.cells[self.slots[i].cells..end]
    }

    /// The slot of the key hashing to `hash` whose cells are the `n`
    /// cells `key_cells` yields.
    fn find<'a>(
        &self,
        hash: u64,
        n: usize,
        key_cells: impl Iterator<Item = &'a Value> + Clone,
    ) -> Option<usize> {
        let mut at = self.newest.get(&hash).copied();
        while let Some(i) = at {
            let i = i as usize;
            let key = self.key(i);
            if key.len() == n && key.iter().zip(key_cells.clone()).all(|(k, v)| k.is(v)) {
                return Some(i);
            }
            at = self.slots[i].older;
        }
        None
    }

    /// Caches `cells` as the output of the call keyed on `key_cells`. A
    /// table of `u32::MAX` slots caches no more.
    fn insert<'a>(
        &mut self,
        hash: u64,
        key_cells: impl Iterator<Item = &'a Value>,
        cells: &[Value],
    ) {
        let Ok(slot) = u32::try_from(self.slots.len()) else {
            return;
        };
        self.slots.push(Slot {
            key: self.keys.len(),
            cells: self.cells.len(),
            older: self.newest.insert(hash, slot),
        });
        self.keys.extend(key_cells.map(CellKey::of));
        self.cells.extend_from_slice(cells);
    }
}

/// Running totals for a memo's lifetime (one shared-scan window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Real UDF invocations (memo misses that ran the wrapped closure).
    pub invoked: u64,
    /// Invocations skipped because an identical `(op, row)` was cached.
    pub hits: u64,
    /// Distinct cached entries.
    pub entries: u64,
}

/// A shared cache of expensive-UDF outputs keyed by `(op, base-row key)`.
///
/// Thread-safe; one instance is shared by every query in a shared-scan
/// window (and by that query's own morsel workers at parallelism > 1).
pub struct UdfMemo {
    /// Number of leading cells that form the key — the source table's
    /// base column count. See the module docs for why appended columns
    /// are excluded.
    key_prefix: usize,
    /// One table per op, by op name.
    tables: Mutex<HashMap<Box<str>, Arc<Mutex<Table>>>>,
    /// Keys the hash of a row's key cells; per memo, like a map's own.
    hasher: RandomState,
}

impl std::fmt::Debug for UdfMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("UdfMemo")
            .field("key_prefix", &self.key_prefix)
            .field("stats", &stats)
            .finish()
    }
}

impl UdfMemo {
    /// Creates a memo keying rows on their first `key_prefix` cells (the
    /// source table's base columns).
    pub fn new(key_prefix: usize) -> Self {
        UdfMemo {
            key_prefix,
            tables: Mutex::new(HashMap::new()),
            hasher: RandomState::new(),
        }
    }

    /// Current counters, summed over the ops.
    pub fn stats(&self) -> MemoStats {
        let tables = self.tables.lock();
        tables.values().fold(MemoStats::default(), |sum, table| {
            let table = table.lock();
            MemoStats {
                invoked: sum.invoked + table.invoked,
                hits: sum.hits + table.hits,
                entries: sum.entries + table.slots.len() as u64,
            }
        })
    }

    /// The table of the op named `op`, created on first use.
    fn table(&self, op: &str) -> Arc<Mutex<Table>> {
        let mut tables = self.tables.lock();
        if let Some(table) = tables.get(op) {
            return Arc::clone(table);
        }
        let table = Arc::new(Mutex::new(Table::default()));
        tables.insert(Box::from(op), Arc::clone(&table));
        table
    }
}

/// A name-, cost- and schema-preserving [`Processor`] shim that consults a
/// [`UdfMemo`] before invoking the wrapped UDF.
///
/// A [`Processor`] is scalar, so consulting the memo row by row is the
/// unmemoized evaluation order exactly.
pub struct MemoProcessor {
    inner: Arc<dyn Processor>,
    memo: Arc<UdfMemo>,
    /// The memo's table for `inner`'s name, shared with every other shim
    /// of the same name over the same memo.
    table: Arc<Mutex<Table>>,
}

impl MemoProcessor {
    /// Wraps `inner` so invocations consult (and populate) `memo`.
    pub fn new(inner: Arc<dyn Processor>, memo: Arc<UdfMemo>) -> Self {
        let table = memo.table(inner.name());
        MemoProcessor { inner, memo, table }
    }
}

impl std::fmt::Debug for MemoProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoProcessor")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl Processor for MemoProcessor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn output_columns(&self) -> &[Column] {
        self.inner.output_columns()
    }
    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }
    /// Appends the cached cells of `row`'s key, or — on a miss — what the
    /// wrapped UDF appends, which is then cached. Errors pass through
    /// uncached so retries (and re-drawn faults) behave exactly as they
    /// would solo.
    fn process(&self, row: RowRef<'_>, schema: &Schema, out: &mut Vec<Value>) -> Result<()> {
        let n = self.memo.key_prefix.min(row.len());
        let key_cells = row.iter().take(n);
        let mut hasher = self.memo.hasher.build_hasher();
        for cell in key_cells.clone() {
            hash_cell(cell, &mut hasher);
        }
        let hash = hasher.finish();
        {
            let mut table = self.table.lock();
            if let Some(hit) = table.find(hash, n, key_cells.clone()) {
                table.hits += 1;
                out.extend_from_slice(table.cells(hit));
                return Ok(());
            }
        }
        crate::udf::attempt(self.inner.as_ref(), row, schema, out, |fresh| {
            let mut table = self.table.lock();
            table.invoked += 1;
            // A sibling may have computed the same (pure) call meanwhile.
            if table.find(hash, n, key_cells.clone()).is_none() {
                table.insert(hash, key_cells, fresh);
            }
            Ok(())
        })
    }
}

/// Rebuilds `plan` with every `Process` node's UDF wrapped in a
/// [`MemoProcessor`] sharing `memo`. All other nodes (and the plan
/// structure, predicates, filters, costs) are untouched, so `explain()`
/// and `partitionability()` render identically.
pub fn memoize_plan(plan: &LogicalPlan, memo: &Arc<UdfMemo>) -> LogicalPlan {
    match plan.map_children(|child| memoize_plan(child, memo)) {
        LogicalPlan::Process { input, processor } => LogicalPlan::Process {
            input,
            processor: Arc::new(MemoProcessor::new(processor, Arc::clone(memo))),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::DataType;
    use crate::udf::ClosureProcessor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_udf(name: &str, calls: Arc<AtomicUsize>) -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::map(
            name,
            vec![Column::new("doubled", DataType::Int)],
            0.5,
            move |row, schema, out| {
                calls.fetch_add(1, Ordering::SeqCst);
                let v = row.get_named(schema, "id")?.as_int().unwrap_or(0);
                out.push(Value::Int(v * 2));
                Ok(())
            },
        ))
    }

    fn cells(p: &dyn Processor, row: &Row) -> Result<Vec<Value>> {
        crate::udf::written(p, row, &schema())
    }

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Column::new("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn memo_invokes_once_per_key_and_preserves_output() {
        let calls = Arc::new(AtomicUsize::new(0));
        let memo = Arc::new(UdfMemo::new(1));
        let udf = counting_udf("Doubler", Arc::clone(&calls));
        let shim = MemoProcessor::new(udf, Arc::clone(&memo));
        let row = Row::new(vec![Value::Int(21)]);
        let first = cells(&shim, &row).unwrap();
        let second = cells(&shim, &row).unwrap();
        assert_eq!(format!("{first:?}"), "[Int(42)]");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = memo.stats();
        assert_eq!((stats.invoked, stats.hits, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_each_invoke() {
        let calls = Arc::new(AtomicUsize::new(0));
        let memo = Arc::new(UdfMemo::new(1));
        let udf = counting_udf("Doubler", Arc::clone(&calls));
        let shim = MemoProcessor::new(udf, Arc::clone(&memo));
        for id in 0..4 {
            cells(&shim, &Row::new(vec![Value::Int(id)])).unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(memo.stats().hits, 0);
    }

    #[test]
    fn key_prefix_ignores_appended_columns() {
        let calls = Arc::new(AtomicUsize::new(0));
        let memo = Arc::new(UdfMemo::new(1));
        let udf = counting_udf("Doubler", Arc::clone(&calls));
        let shim = MemoProcessor::new(udf, Arc::clone(&memo));
        // Same base cell, different appended tail: one real invocation.
        let bare = Row::new(vec![Value::Int(7)]);
        let extended = Row::new(vec![Value::Int(7), Value::str("tagged")]);
        let a = cells(&shim, &bare).unwrap();
        let b = cells(&shim, &extended).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    /// The op is no part of the hash, so ops are kept apart by their
    /// tables: differently named shims over one row each invoke, and
    /// same-named ones share the entry.
    #[test]
    fn ops_are_apart_and_a_name_shares_its_entries() {
        let memo = Arc::new(UdfMemo::new(1));
        let row = Row::new(vec![Value::Int(5)]);
        let shim = |name, calls: &Arc<AtomicUsize>| {
            MemoProcessor::new(counting_udf(name, Arc::clone(calls)), Arc::clone(&memo))
        };
        let (a_calls, b_calls) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        cells(&shim("A", &a_calls), &row).unwrap();
        cells(&shim("B", &b_calls), &row).unwrap();
        assert_eq!(a_calls.load(Ordering::SeqCst), 1);
        assert_eq!(b_calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.stats().entries, 2);

        let again_calls = Arc::new(AtomicUsize::new(0));
        let again = cells(&shim("A", &again_calls), &row).unwrap();
        assert_eq!(format!("{again:?}"), "[Int(10)]");
        assert_eq!(again_calls.load(Ordering::SeqCst), 0, "A's entry answers");
        let stats = memo.stats();
        assert_eq!((stats.invoked, stats.hits, stats.entries), (2, 1, 2));
    }

    #[test]
    fn errors_are_not_cached() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let inner = {
            let attempts = Arc::clone(&attempts);
            Arc::new(ClosureProcessor::map(
                "Flaky",
                vec![Column::new("out", DataType::Int)],
                0.5,
                // Writes, then fails: neither cached nor left behind.
                move |_, _, out| {
                    out.push(Value::Int(1));
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        Err(crate::EngineError::Transient("first call fails".into()))
                    } else {
                        Ok(())
                    }
                },
            ))
        };
        let memo = Arc::new(UdfMemo::new(1));
        let shim = MemoProcessor::new(inner, Arc::clone(&memo));
        let (schema, row) = (schema(), Row::new(vec![Value::Int(0)]));
        let mut out = Vec::new();
        assert!(shim.process(RowRef::from(&row), &schema, &mut out).is_err());
        assert!(out.is_empty());
        assert!(shim.process(RowRef::from(&row), &schema, &mut out).is_ok());
        assert_eq!(out.len(), 1);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let stats = memo.stats();
        assert_eq!((stats.invoked, stats.entries), (1, 1));
    }

    #[test]
    fn float_keys_compare_by_bit_pattern() {
        assert!(
            !CellKey::of(&Value::Float(0.0)).is(&Value::Float(-0.0)),
            "0.0 and -0.0 must key separately"
        );
        assert!(CellKey::of(&Value::Float(f64::NAN)).is(&Value::Float(f64::NAN)));
    }

    /// A memo over one blob column, and a shim of a UDF writing the blob's
    /// dimension, counting its calls.
    fn blob_dim_shim(calls: &Arc<AtomicUsize>) -> (Arc<UdfMemo>, MemoProcessor, Arc<Schema>) {
        let calls = Arc::clone(calls);
        let udf = Arc::new(ClosureProcessor::map(
            "Dim",
            vec![Column::new("dim", DataType::Int)],
            0.5,
            move |row, _, out| {
                calls.fetch_add(1, Ordering::SeqCst);
                out.push(Value::Int(row.get(0).as_blob()?.dim() as i64));
                Ok(())
            },
        ));
        let memo = Arc::new(UdfMemo::new(1));
        let shim = MemoProcessor::new(udf, Arc::clone(&memo));
        let schema = Schema::new(vec![Column::new("frame", DataType::Blob)]).unwrap();
        (memo, shim, schema)
    }

    /// Blobs key by identity: equal coordinates in two `Arc`s are two keys.
    #[test]
    fn equal_blobs_in_distinct_arcs_are_two_keys() {
        let calls = Arc::new(AtomicUsize::new(0));
        let (memo, shim, schema) = blob_dim_shim(&calls);
        let mut out = Vec::new();
        for _ in 0..2 {
            let row = Row::new(vec![Value::blob(Features::Dense(vec![1.0, 2.0]))]);
            shim.process(RowRef::from(&row), &schema, &mut out).unwrap();
        }
        assert_eq!(format!("{out:?}"), "[Int(2), Int(2)]");
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(memo.stats().entries, 2);
    }

    /// An entry keeps the blobs it is keyed on alive, so their addresses
    /// cannot be reused by other blobs while the memo can match them.
    #[test]
    fn an_entry_holds_its_blob() {
        let (memo, shim, schema) = blob_dim_shim(&Arc::new(AtomicUsize::new(0)));
        let blob = Arc::new(Features::Dense(vec![1.0, 2.0]));
        let row = Row::new(vec![Value::Blob(Arc::clone(&blob))]);
        let mut out = Vec::new();
        shim.process(RowRef::from(&row), &schema, &mut out).unwrap();
        drop(row);
        assert_eq!(format!("{out:?}"), "[Int(2)]");
        assert_eq!(Arc::strong_count(&blob), 2, "the entry holds the blob");
        drop((shim, memo));
        assert_eq!(Arc::strong_count(&blob), 1, "and lets it go with the memo");
    }
}
