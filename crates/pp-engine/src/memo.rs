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
//! ## What a hit costs
//!
//! An entry is the flat run of cells the call appended (how many output
//! rows that is follows from the UDF's column count, as it does for a live
//! call — see [`Processor::process`]). A hit hashes the row's key cells in
//! place — the row's first cells, read where the row keeps them — finds
//! the entry and clones its cells into the caller's buffer: no key is
//! built and nothing is allocated, so a memoized `Process` row allocates
//! nothing (`tests/alloc_budget.rs`).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// One cached call: what it was keyed on, and the cells it appended.
struct Entry {
    op: Arc<str>,
    key: Box<[CellKey]>,
    cells: Box<[Value]>,
}

impl Entry {
    /// Whether this is the entry of `op` over the `n` key cells `key_cells`
    /// yields.
    fn is_for<'a>(&self, op: &str, n: usize, key_cells: impl Iterator<Item = &'a Value>) -> bool {
        *self.op == *op
            && self.key.len() == n
            && self.key.iter().zip(key_cells).all(|(k, v)| k.is(v))
    }
}

/// Entries by the hash of their `(op, key cells)`, which a lookup computes
/// from the row's own cells; a bucket holds the (practically never more
/// than one) entries sharing a hash, told apart by exact comparison.
type Cache = HashMap<u64, Vec<Entry>>;

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
    cache: Mutex<Cache>,
    /// Keys the hash of `(op, key cells)`; per memo, like a map's own.
    hasher: RandomState,
    invoked: AtomicU64,
    hits: AtomicU64,
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
            cache: Mutex::new(HashMap::new()),
            hasher: RandomState::new(),
            invoked: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            invoked: self.invoked.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.cache.lock().values().map(Vec::len).sum::<usize>() as u64,
        }
    }

    /// Appends to `out` what `(op, row)` produced: the cached cells, or —
    /// on a miss — what `compute` appends, which it hands back to be
    /// cached. Errors pass through uncached so retries (and re-drawn
    /// faults) behave exactly as they would solo.
    fn replay_or_invoke(
        &self,
        op: &Arc<str>,
        row: RowRef<'_>,
        out: &mut Vec<Value>,
        compute: impl FnOnce(&mut Vec<Value>) -> Result<Box<[Value]>>,
    ) -> Result<()> {
        let n = self.key_prefix.min(row.len());
        let key_cells = || row.iter().take(n);
        let mut hasher = self.hasher.build_hasher();
        op.hash(&mut hasher);
        for cell in key_cells() {
            hash_cell(cell, &mut hasher);
        }
        let hash = hasher.finish();
        let find = |bucket: &[Entry]| bucket.iter().position(|e| e.is_for(op, n, key_cells()));
        if let Some(bucket) = self.cache.lock().get(&hash) {
            if let Some(hit) = find(bucket) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.extend_from_slice(&bucket[hit].cells);
                return Ok(());
            }
        }
        let cells = compute(out)?;
        self.invoked.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.lock();
        let bucket = cache.entry(hash).or_default();
        // A sibling may have computed the same (pure) call meanwhile.
        if find(bucket).is_none() {
            bucket.push(Entry {
                op: Arc::clone(op),
                key: key_cells().map(CellKey::of).collect(),
                cells,
            });
        }
        Ok(())
    }
}

/// A name-, cost- and schema-preserving [`Processor`] shim that consults a
/// [`UdfMemo`] before invoking the wrapped UDF.
///
/// A [`Processor`] is scalar, so consulting the memo row by row is the
/// unmemoized evaluation order exactly.
pub struct MemoProcessor {
    inner: Arc<dyn Processor>,
    /// Interned once so every key shares one allocation.
    op: Arc<str>,
    memo: Arc<UdfMemo>,
}

impl MemoProcessor {
    /// Wraps `inner` so invocations consult (and populate) `memo`.
    pub fn new(inner: Arc<dyn Processor>, memo: Arc<UdfMemo>) -> Self {
        let op: Arc<str> = Arc::from(inner.name());
        MemoProcessor { inner, op, memo }
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
    fn process(&self, row: RowRef<'_>, schema: &Schema, out: &mut Vec<Value>) -> Result<()> {
        self.memo.replay_or_invoke(&self.op, row, out, |out| {
            crate::udf::attempt(self.inner.as_ref(), row, schema, out, |fresh| {
                Ok(Box::from(&*fresh))
            })
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
    use std::sync::atomic::AtomicUsize;

    fn counting_udf(calls: Arc<AtomicUsize>) -> Arc<dyn Processor> {
        Arc::new(ClosureProcessor::map(
            "Doubler",
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
        let shim = MemoProcessor::new(counting_udf(Arc::clone(&calls)), Arc::clone(&memo));
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
        let shim = MemoProcessor::new(counting_udf(Arc::clone(&calls)), Arc::clone(&memo));
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
        let shim = MemoProcessor::new(counting_udf(Arc::clone(&calls)), Arc::clone(&memo));
        // Same base cell, different appended tail: one real invocation.
        let bare = Row::new(vec![Value::Int(7)]);
        let extended = Row::new(vec![Value::Int(7), Value::str("tagged")]);
        let a = cells(&shim, &bare).unwrap();
        let b = cells(&shim, &extended).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
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
        assert_eq!(memo.stats().invoked, 1);
    }

    #[test]
    fn float_keys_compare_by_bit_pattern() {
        assert!(
            !CellKey::of(&Value::Float(0.0)).is(&Value::Float(-0.0)),
            "0.0 and -0.0 must key separately"
        );
        assert!(CellKey::of(&Value::Float(f64::NAN)).is(&Value::Float(f64::NAN)));
    }

    /// An entry keeps the blobs it is keyed on alive, so their addresses
    /// cannot be reused by other blobs while the memo can match them.
    #[test]
    fn an_entry_holds_its_blob() {
        let memo = Arc::new(UdfMemo::new(1));
        let shim = MemoProcessor::new(
            Arc::new(ClosureProcessor::map(
                "Dim",
                vec![Column::new("dim", DataType::Int)],
                0.5,
                |row, _, out| {
                    out.push(Value::Int(row.get(0).as_blob()?.dim() as i64));
                    Ok(())
                },
            )),
            Arc::clone(&memo),
        );
        let blob = Arc::new(Features::Dense(vec![1.0, 2.0]));
        let schema = Schema::new(vec![Column::new("frame", DataType::Blob)]).unwrap();
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
