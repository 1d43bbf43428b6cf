//! The executor: bottom-up evaluation of logical plans with cost
//! metering, fault-tolerant UDF dispatch, and morsel-driven
//! batch-at-a-time evaluation of row-parallel operators.
//!
//! An operator hands the one above it a materialized [`Rowset`] (no
//! volcano iterators) — with one exception, the edge the paper is about:
//! a `Filter` directly above a `Scan`, which is where every PP sits,
//! rides the scan's stream. The scan decodes one budget-sized *wave* of
//! row groups at a time into [`Chunk`]s (the rows in the layout their
//! source has: a contiguous block per blob column), the filter probes
//! and consumes the wave, and only the rows it kept are turned into
//! tuples before the wave is dropped. A blob the PP drops is never a
//! `Row`, and what is resident is one wave plus the survivors.
//!
//! The interesting quantity is the *charged* cost, not the wall clock.
//! Every operator charges `attempts × cost_per_row` simulated seconds —
//! which equals the classic `rows_in × cost_per_row` on a fault-free run
//! — plus any retry backoff and timeout stalls its UDF calls accrued.
//! The charge is written once, into the operator's [`OperatorSpan`]: the
//! span is the only ledger the executor keeps, and the
//! [`CostMeter`](crate::cost::CostMeter) is a view of the finished spans
//! taken by [`ExecutionContext::run`](crate::exec::ExecutionContext::run).
//! The [`ExecSession`] holds no counts, only the circuit breakers.
//!
//! # One path
//!
//! Every plan runs down the same path. A `Scan` streams the row groups
//! of the table's [`TableProvider`] (an
//! in-memory table is one group with no zone maps, see
//! [`MemoryProvider::whole`](crate::provider::MemoryProvider::whole),
//! hence one wave). Every operator closes through
//! `Executor::close_span`, which owns the span push;
//! `Executor::operator` brackets a body with it. `Filter` and
//! `Process` share one probe→consume fold over waves
//! (`Executor::fold_udf` — an operator above a materialized input folds
//! that input as its only wave); `Reduce` and `Combine` share one
//! group-invocation loop (`Executor::fold_groups`). Both folds count a
//! consumed UDF outcome through the same function (`record_outcome`).
//!
//! # Morsel-driven execution
//!
//! Row-parallel operators — `Filter`, `Process`, and `Select` — split
//! each chunk of their input into *morsels* (contiguous row ranges of at
//! most `ExecOptions::morsel_size`; a row group smaller than that is one
//! morsel) that a `std::thread` worker pool claims off a shared atomic
//! counter: a worker stuck on an expensive morsel never blocks the rest
//! of the input (work stealing by construction). The pool is never
//! larger than the machine: `parallelism` asks, and
//! `std::thread::available_parallelism` caps. Within a morsel, rows are
//! *probed* one [`Batch`] at a time, so a filter that overrides
//! `eval_batch` scores a blob column as a contiguous block (see
//! [`crate::batch`]). Batch boundaries are a pure function of `(chunk
//! sizes, morsel_size, batch_size)`, never of the worker count.
//! Probing touches no shared state and yields **one record per batch**:
//! the first-attempt values plus — normally none — the rows whose first
//! attempt failed, each with the outcome of its full retry loop. A
//! `Process` batch's values are one flat buffer: every
//! [`Processor::process`] call of the batch appends its cells to it (a
//! failed attempt's are cut off again), with an output-row count only for
//! a row that did not make exactly one, and consume builds each output
//! tuple once, at its final width, from the input row's cells and a slice
//! of that buffer — one allocation per output row, none per input row.
//! The main thread then *consumes* the records sequentially in global row
//! order (morsels reassembled by index), which replays circuit-breaker
//! evolution, fail-open decisions, span counters, and cost charges
//! exactly as a serial run would: a record with no failed row, met while
//! the breaker is closed, in closed form (its rows only bump counters that
//! add up), every other record row by row. Injected faults key off row
//! identity and attempt ordinal (see [`fault`](crate::fault)), and batch
//! kernels are bit-identical to the scalar per-row path, so results, row
//! order, spans, and charges are byte-identical to the scalar reference
//! (`parallelism = 1, batch_size = 1`) for every seed, every parallelism,
//! and every batch and morsel size.
//! Group-based operators (`Join`, `Aggregate`, `Reduce`, `Combine`) and
//! `Project` stay serial; see
//! [`LogicalPlan::partitionability`](crate::logical::LogicalPlan::partitionability).
//!
//! Failure semantics, per operator kind:
//!
//! * **Filter** (where PPs live): a call that still fails after retries
//!   *fails open* — the row passes unfiltered — when both the session
//!   config and the filter allow it. An open circuit breaker skips the
//!   filter entirely (rows pass, nothing is charged). Fail-open can waste
//!   downstream UDF cost but can never drop a row the exact query wanted.
//! * **Process / Reduce / Combine**: these materialize real columns, so
//!   their errors are not maskable; after retries the error propagates.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use crate::batch::Batch;
use crate::cancel::{CancelReason, CancelToken};
use crate::catalog::Catalog;
use crate::chunk::Chunk;
use crate::cost::CostModel;
use crate::logical::{AggExpr, AggFunc, LogicalPlan, ProjectItem};
use crate::predicate::Predicate;
use crate::provider::TableProvider;
use crate::resilience::{ExecSession, ProbeOutcome};
use crate::row::{Row, Rowset};
use crate::schema::{Column, Schema};
use crate::sync::Mutex;
use crate::telemetry::{Counter, EventKind, OperatorSpan, SpanCollector};
use crate::udf::{Combiner, Processor, Reducer, RowFilter};
use crate::value::{Key, Value};
use crate::{EngineError, Result};

/// Tuning knobs for the morsel-driven executor, carried through the plan
/// recursion. Every field is at least 1: [`ExecOptions::new`] is the only
/// way to build one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOptions {
    /// Worker threads asked for (1 = inline/serial); a fan-out spawns at
    /// most [`HARDWARE_THREADS`] of them.
    parallelism: usize,
    /// Rows per [`Batch`] a probe step evaluates.
    batch_size: usize,
    /// Rows per morsel — the unit workers claim off the shared counter.
    morsel_size: usize,
}

impl ExecOptions {
    /// The one place caller-supplied knobs — builder arguments, wire
    /// request fields — are clamped to at least 1.
    pub fn new(parallelism: usize, batch_size: usize, morsel_size: usize) -> Self {
        ExecOptions {
            parallelism: parallelism.max(1),
            batch_size: batch_size.max(1),
            morsel_size: morsel_size.max(1),
        }
    }

    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    pub fn morsel_size(&self) -> usize {
        self.morsel_size
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::new(1, 256, 1024)
    }
}

/// What the machine can run at once, read once: the cap on a fan-out's
/// worker threads. `parallelism` arrives from outside (a wire frame can
/// ask for four billion), and a count read from the input must not size a
/// resource.
static HARDWARE_THREADS: LazyLock<usize> =
    LazyLock::new(|| std::thread::available_parallelism().map_or(1, usize::from));

/// One morsel of an operator's input: rows `rows` of chunk number
/// `chunk`, the first of them input row `offset` of the operator.
struct Morsel {
    chunk: usize,
    rows: Range<usize>,
    offset: usize,
}

/// Runs `work` over `morsels` — row ranges for the row-parallel
/// operators, row-group indices for a scan wave — and returns one result
/// per morsel, in morsel order.
///
/// With `parallelism > 1` a scoped worker pool — `parallelism` threads,
/// but never more than there are morsels or [`HARDWARE_THREADS`], each
/// spawn counted in `spawned` — claims morsels off a shared atomic
/// counter (work stealing: no static assignment, so one slow morsel never
/// idles the pool) and the results are reassembled in morsel order —
/// bit-identical to the serial walk.
///
/// A morsel may return `Err` (cancellation, a group that fails to
/// decode); the lowest-indexed erroring morsel's error wins and the
/// other results are discarded — nothing was consumed, so nothing is
/// charged, matching how an open breaker discards unconsumed probes. A
/// worker that panics inside `work` loses its morsel; the run then fails
/// with [`CancelReason::WorkerPanic`] instead of re-raising the panic.
fn run_morsels<M, T, F>(
    morsels: &[M],
    parallelism: usize,
    spawned: &Counter,
    work: F,
) -> Result<Vec<T>>
where
    M: Sync,
    T: Send,
    F: Fn(&M) -> Result<T> + Sync,
{
    let workers = parallelism.min(morsels.len()).min(*HARDWARE_THREADS);
    if workers <= 1 {
        return morsels.iter().map(work).collect();
    }
    spawned.add(workers as u64);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T>>>> = morsels.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(morsel) = morsels.get(i) else { break };
                    let r = work(morsel);
                    if r.is_err() {
                        // First error aborts the fan-out; morsels nobody
                        // has claimed yet stay unprocessed (their results
                        // would be discarded anyway).
                        stop.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock() = Some(r);
                })
            })
            .collect();
        // Join by hand: an unjoined panicked worker would re-raise its
        // panic out of the scope. Its morsel's slot stays empty instead.
        for handle in handles {
            if handle.join().is_err() {
                stop.store(true, Ordering::Relaxed);
            }
        }
    });
    let mut out = Vec::with_capacity(morsels.len());
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Morsels are claimed in index order, so an empty slot ahead
            // of any error was claimed by a worker that panicked in it.
            None => {
                return Err(EngineError::Cancelled {
                    reason: CancelReason::WorkerPanic,
                })
            }
        }
    }
    Ok(out)
}

/// What an operator body hands to [`Executor::finish`]: its span with
/// everything but `rows_emitted`, `rows_failed` and `wall_nanos` filled
/// in, the rows it produced, and the terminal error if it stopped early
/// (the work done up to that point is still charged).
struct Finished {
    span: OperatorSpan,
    out: Rowset,
    failure: Option<EngineError>,
}

impl Finished {
    fn ok(span: OperatorSpan, out: Rowset) -> Result<Finished> {
        Ok(Finished {
            span,
            out,
            failure: None,
        })
    }
}

/// What the probe phase hands the consume phase for one batch: what the
/// clean first attempts produced, packed as the operator likes (`firsts`,
/// which consume reads back in row order), plus — normally empty — the
/// rows whose first attempt failed, by position in the batch, each with
/// the outcome of its full retry loop. Row `at` of the batch is `failed`'s
/// entry for `at` if there is one, else the next clean row of `firsts`.
struct Probed<B, T> {
    firsts: B,
    failed: Vec<(usize, ProbeOutcome<T>)>,
}

/// A `Process` batch's [`Probed::firsts`]: every cell the batch's calls
/// appended, output row after output row in input-row order — a retried
/// row's among them, where its first attempt's would have been. A row's
/// value is how many output rows it made; `ragged` holds that count for
/// the clean rows that did not make exactly one, by position in the batch.
struct Appended {
    rows: usize,
    cells: std::vec::IntoIter<Value>,
    ragged: std::iter::Peekable<std::vec::IntoIter<(usize, usize)>>,
}

/// A batch's record with where the batch sits in its wave: the chunk's
/// number and the batch's first row within that chunk.
type Located<T> = (usize, usize, T);

/// The input of an operator above a materialized one: its rows, as the
/// only wave.
fn one_wave<X>(rows: Rowset) -> impl FnMut(&mut X) -> Result<Option<Vec<Chunk>>> {
    let mut wave = Some(vec![Chunk::from_rows(Arc::new(rows))]);
    move |_| Ok(wave.take())
}

/// A scan in progress: the row groups a pushdown could not rule out,
/// decoded one memory-budget-sized wave at a time.
///
/// Pruning is zone-map satisfiability — conservative, so verdicts never
/// change. Each wave fans its groups out on the morsel scheduler (one
/// group per morsel) and reassembles them in group order, so row order —
/// and therefore every downstream result, charge, and span — is the same
/// for every provider holding the same rows, at any parallelism.
struct ScanStream<'p> {
    provider: &'p dyn TableProvider,
    kept: Vec<usize>,
    /// How many of `kept` are decoded.
    next: usize,
    /// Whether any poll has succeeded; a scan whose first poll fails
    /// never ran.
    polled: bool,
    rows: usize,
    bytes: u64,
    wall: Duration,
}

impl<'p> ScanStream<'p> {
    fn open(catalog: &'p Catalog, table: &str, pushdown: Option<&Predicate>) -> Result<Self> {
        let provider = catalog.provider(table)?.as_ref();
        Ok(ScanStream {
            provider,
            kept: crate::provider::kept_groups(provider, pushdown),
            next: 0,
            polled: false,
            rows: 0,
            bytes: 0,
            wall: Duration::ZERO,
        })
    }

    /// Decodes the next wave: kept groups, in order, until the next one
    /// would overflow the provider's budget (a single oversized group
    /// still decodes, alone). `None` once every kept group is out.
    fn next_wave(&mut self, ex: &Executor<'_>) -> Result<Option<Vec<Chunk>>> {
        if self.next == self.kept.len() {
            self.polled = true;
            return Ok(None);
        }
        let start = Instant::now();
        ex.cancel.check()?;
        let budget = self.provider.memory_budget();
        let (mut end, mut wave_bytes) = (self.next, 0u64);
        while end < self.kept.len() {
            let bytes = self.provider.group_meta(self.kept[end]).bytes;
            if end > self.next && budget.is_some_and(|cap| wave_bytes + bytes > cap) {
                break;
            }
            wave_bytes += bytes;
            end += 1;
        }
        // Group sizes are row counts, so the row-oriented batch and
        // morsel knobs don't apply here (parallelism still does).
        let chunks = run_morsels(
            &self.kept[self.next..end],
            ex.opts.parallelism,
            &ex.tel.worker_threads,
            |&g| self.provider.read_group(g),
        )?;
        self.next = end;
        self.bytes += wave_bytes;
        self.rows += chunks.iter().map(Chunk::len).sum::<usize>();
        self.wall += start.elapsed();
        self.polled = true;
        Ok(Some(chunks))
    }

    /// Charges the scan for the waves it decoded, wherever the stream
    /// stopped; `materialized` of the decoded rows left it as tuples.
    ///
    /// Charge/span contract: `rows_in` is the full table, `rows_filtered`
    /// the rows inside pruned groups (skipped without decoding),
    /// `rows_failed` those of kept groups an early stop left undecoded,
    /// and `seconds` covers only decoded rows.
    fn close(self, ex: &mut Executor<'_>, op: String, materialized: usize) {
        if !self.polled {
            return;
        }
        let store = &ex.tel.store;
        store.groups_scanned.add(self.next as u64);
        store
            .groups_pruned
            .add((self.provider.group_count() - self.kept.len()) as u64);
        store.bytes_read.add(self.bytes);
        store.rows_decoded.add(self.rows as u64);
        store.rows_materialized.add(materialized as u64);
        let total = self.provider.row_count();
        let undecoded: usize = self.kept[self.next..]
            .iter()
            .map(|&g| self.provider.group_meta(g).rows)
            .sum();
        let mut span = ex.flat_span(op, total, ex.model.scan, self.rows);
        span.rows_out = self.rows as u64;
        span.rows_failed = undecoded as u64;
        span.rows_filtered = total.saturating_sub(self.rows + undecoded) as u64;
        ex.close_span(span, self.rows, self.wall);
    }
}

/// The state one plan evaluation threads through the recursion, built by
/// [`ExecutionContext::run`](crate::exec::ExecutionContext::run).
///
/// Telemetry contract: every operator pushes exactly one [`OperatorSpan`]
/// to `tel` when it closes — the span *is* its charge, so span order is
/// charge order and [`OperatorId`](crate::telemetry::OperatorId)s are a
/// pure function of the plan shape. Spans and events are recorded only on
/// the main thread, in the deterministic consume phase; worker threads
/// touch nothing but the registry-level `worker.*` counters.
///
/// Cancellation contract: `cancel` is polled on operator entry, at the
/// start of every probe batch, at each batch record's first row in the
/// Filter/Process consume loop, before every scan wave, and before every
/// Reduce/Combine group. A consume-loop cancellation charges the work
/// consumed so far (the span closes failed and pushes a
/// [`EventKind::Cancelled`] event); a probe-phase or entry cancellation
/// charges nothing for the operator, because none of its work was
/// consumed. A token that never fires leaves every byte of output,
/// charge, and telemetry unchanged.
///
/// Early-stop contract for `Scan → Filter`: whatever ends the stream —
/// the filter's terminal error, a cancellation, a group that fails to
/// decode — each of the two is charged for what it consumed: the scan
/// for the waves it decoded, the filter for the waves it folded (its
/// span counts every row handed to it and closes failed over the rest).
/// The scan's span is pushed first, as plan order has it. An operator
/// that consumed nothing never ran: no span, no charge. A table of one
/// wave — every in-memory table — therefore charges exactly what it
/// would if the scan had materialized first.
pub(crate) struct Executor<'a> {
    pub catalog: &'a Catalog,
    pub model: &'a CostModel,
    pub session: &'a mut ExecSession,
    pub opts: ExecOptions,
    pub tel: &'a mut SpanCollector,
    pub cancel: &'a CancelToken,
}

impl Executor<'_> {
    /// Evaluates `plan` bottom-up: inputs first, then the operator's own
    /// body under [`operator`](Self::operator).
    pub(crate) fn run(&mut self, plan: &LogicalPlan) -> Result<Rowset> {
        self.cancel.check()?;
        let op = plan.op_label();
        match plan {
            LogicalPlan::Scan { table, pushdown } => self.scan(op, table, pushdown.as_ref()),
            LogicalPlan::Process { input, processor } => {
                let rows = self.run(input)?;
                self.operator(|ex| ex.process(op, rows, processor.as_ref()))
            }
            LogicalPlan::Select { input, predicate } => {
                let rows = self.run(input)?;
                self.operator(|ex| ex.select(op, rows, predicate))
            }
            LogicalPlan::Filter { input, filter } => match input.as_ref() {
                // Directly above a scan — where every PP is injected —
                // the filter rides the scan's stream.
                LogicalPlan::Scan { table, pushdown } => self.scan_filter(
                    input.op_label(),
                    table,
                    pushdown.as_ref(),
                    op,
                    filter.as_ref(),
                ),
                _ => {
                    let rows = self.run(input)?;
                    let schema = rows.schema().clone();
                    self.operator(|ex| ex.filter(op, schema, one_wave(rows), filter.as_ref()))
                }
            },
            LogicalPlan::Project { input, items } => {
                let rows = self.run(input)?;
                self.operator(|ex| ex.project(op, rows, items))
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.run(left)?;
                let r = self.run(right)?;
                self.operator(|ex| ex.join(op, l, r, left_key, right_key))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rows = self.run(input)?;
                let out_schema = plan.output_schema(self.catalog)?;
                self.operator(|ex| ex.aggregate(op, rows, out_schema, group_by, aggs))
            }
            LogicalPlan::Reduce { input, reducer } => {
                let rows = self.run(input)?;
                self.operator(|ex| ex.reduce(op, rows, reducer.as_ref()))
            }
            LogicalPlan::Combine {
                left,
                right,
                combiner,
            } => {
                let l = self.run(left)?;
                let r = self.run(right)?;
                self.operator(|ex| ex.combine(op, l, r, combiner.as_ref()))
            }
        }
    }

    /// The operator skeleton: times `body` (the operator's own phase,
    /// inputs excluded) and [`finish`](Self::finish)es what it hands
    /// back. A `body` that returns `Err` never ran for accounting
    /// purposes: no span, no charge.
    fn operator(&mut self, body: impl FnOnce(&mut Self) -> Result<Finished>) -> Result<Rowset> {
        let start = Instant::now();
        let done = body(self)?;
        self.finish(done, start.elapsed())
    }

    /// Closes a finished operator's span — failed, if it stopped early —
    /// and hands back the rows or the failure.
    fn finish(&mut self, done: Finished, wall: Duration) -> Result<Rowset> {
        let Finished {
            mut span,
            out,
            failure,
        } = done;
        if failure.is_some() {
            span.close_failed();
        }
        self.close_span(span, out.len(), wall);
        match failure {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// The one place a span is pushed, so the span's id is its place in
    /// charge order.
    fn close_span(&mut self, mut span: OperatorSpan, emitted: usize, wall: Duration) {
        span.op_id = crate::telemetry::OperatorId(self.tel.next_op_id());
        span.rows_emitted = emitted as u64;
        span.wall_nanos = wall.as_nanos() as u64;
        self.tel.push_span(span);
    }

    /// A span for an operator that charges a flat `unit` seconds for each
    /// of `n` rows.
    fn flat_span(&self, op: String, rows_in: usize, unit: f64, n: usize) -> OperatorSpan {
        let mut span = OperatorSpan::new(self.tel.next_op_id(), op, rows_in);
        span.seconds = n as f64 * unit;
        span.latency.record_n(unit, n as u64);
        span
    }

    /// Fans `work` out over the rows of `chunks` on the morsel scheduler
    /// — one record per batch, in row order, batches never straddling a
    /// chunk — polling the cancel token and bumping the `worker.*`
    /// counters once per batch. `first_row` is the input index of the
    /// first chunk's first row.
    fn probe<T: Send>(
        &self,
        chunks: &[Chunk],
        first_row: usize,
        work: impl Fn(&Batch<'_>) -> T + Sync,
    ) -> Result<Vec<Located<T>>> {
        let (step, size) = (self.opts.batch_size, self.opts.morsel_size);
        let mut morsels = Vec::new();
        let mut offset = first_row;
        for (chunk, rows) in chunks.iter().map(Chunk::len).enumerate() {
            for start in (0..rows).step_by(size) {
                morsels.push(Morsel {
                    chunk,
                    rows: start..(start + size).min(rows),
                    offset: offset + start,
                });
            }
            offset += rows;
        }
        let (cancel, worker_rows, worker_batches) =
            (self.cancel, &self.tel.worker_rows, &self.tel.worker_batches);
        let spawned = &self.tel.worker_threads;
        let records = run_morsels(&morsels, self.opts.parallelism, spawned, |m| {
            let mut out = Vec::with_capacity(m.rows.len().div_ceil(step));
            for start in m.rows.clone().step_by(step) {
                let rows = start..(start + step).min(m.rows.end);
                cancel.check()?;
                worker_rows.add(rows.len() as u64);
                worker_batches.inc();
                let offset = m.offset + (start - m.rows.start);
                let batch = Batch::new(&chunks[m.chunk], rows, offset);
                out.push((m.chunk, start, work(&batch)));
            }
            Ok(out)
        })?;
        Ok(records.into_iter().flatten().collect())
    }

    /// A `Scan` with nothing riding its stream: every decoded row leaves
    /// as a tuple.
    fn scan(&mut self, op: String, table: &str, pushdown: Option<&Predicate>) -> Result<Rowset> {
        let mut stream = ScanStream::open(self.catalog, table, pushdown)?;
        let provider = stream.provider;
        let mut rows: Vec<Row> = Vec::new();
        let stopped = loop {
            match stream.next_wave(self) {
                Ok(Some(chunks)) => {
                    for chunk in chunks {
                        if rows.is_empty() {
                            // Take the first group as decoded: a one-group
                            // (in-memory) table is scanned with one copy.
                            rows = chunk.into_rows();
                            rows.reserve(provider.row_count().saturating_sub(rows.len()));
                        } else {
                            rows.extend(chunk.into_rows());
                        }
                    }
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        stream.close(self, op, rows.len());
        match stopped {
            Some(e) => Err(e),
            None => Rowset::new(provider.schema(), rows),
        }
    }

    /// `Scan → Filter`: the filter folds the scan's waves as they are
    /// decoded, and only the rows it keeps become tuples. Both spans are
    /// pushed when the stream ends, the scan's first (see the early-stop
    /// contract on [`Executor`]).
    fn scan_filter(
        &mut self,
        scan_op: String,
        table: &str,
        pushdown: Option<&Predicate>,
        op: String,
        filter: &dyn RowFilter,
    ) -> Result<Rowset> {
        let mut stream = ScanStream::open(self.catalog, table, pushdown)?;
        let schema = stream.provider.schema();
        let start = Instant::now();
        let done = self.filter(op, schema, |ex| stream.next_wave(ex), filter);
        let wall = start.elapsed().saturating_sub(stream.wall);
        let survivors = done.as_ref().map_or(0, |done| done.out.len());
        stream.close(self, scan_op, survivors);
        self.finish(done?, wall)
    }

    fn select(&mut self, op: String, in_rows: Rowset, predicate: &Predicate) -> Result<Finished> {
        let schema = in_rows.schema().clone();
        let total = in_rows.len();
        let input = [Chunk::from_rows(Arc::new(in_rows))];
        let predicate = predicate.bind(&schema);
        let verdicts = self.probe(&input, 0, |batch| {
            batch
                .rows()
                .iter()
                .map(|row| predicate.eval(row))
                .collect::<Vec<_>>()
        })?;
        let mut out = Rowset::empty(schema);
        let verdicts = verdicts.into_iter().flat_map(|(_, _, verdicts)| verdicts);
        for (row, verdict) in input[0].rows().iter().zip(verdicts) {
            // An eval error propagates before the operator charges.
            if verdict? {
                out.push(row.clone())?;
            }
        }
        let mut span = self.flat_span(op, total, self.model.select, total);
        span.rows_out = out.len() as u64;
        span.rows_filtered = (total - out.len()) as u64;
        Finished::ok(span, out)
    }

    fn filter(
        &mut self,
        op: String,
        schema: Arc<Schema>,
        waves: impl FnMut(&mut Self) -> Result<Option<Vec<Chunk>>>,
        filter: &dyn RowFilter,
    ) -> Result<Finished> {
        // Safe degradation: a PP is pure data reduction, so on failure
        // the row passes. We lose speed-up on that row, never a result.
        let fail_open = self.session.config().fail_open_filters && filter.fail_open();
        let config = *self.session.config();
        self.fold_udf(
            &op,
            schema,
            filter.cost_per_row(),
            fail_open,
            waves,
            |batch| {
                let firsts = filter.eval_batch(batch);
                debug_assert_eq!(firsts.len(), batch.len());
                let (mut values, mut failed) = (Vec::with_capacity(firsts.len()), Vec::new());
                for (at, first) in firsts.into_iter().enumerate() {
                    match first {
                        Ok(keep) => values.push(keep),
                        err => {
                            let row = &batch.rows()[at];
                            let retry = || filter.passes(row, batch.schema());
                            failed.push((at, config.resume_probe(&op, err, retry)));
                        }
                    }
                }
                Probed {
                    firsts: values.into_iter(),
                    failed,
                }
            },
            |verdicts, _| verdicts.next(),
            |_, chunk, at, keep, out| {
                if keep {
                    out.push(chunk.row(at))?;
                }
                Ok(keep)
            },
        )
    }

    fn process(
        &mut self,
        op: String,
        in_rows: Rowset,
        processor: &dyn Processor,
    ) -> Result<Finished> {
        let out_schema = in_rows.schema().extend(processor.output_columns())?;
        let config = *self.session.config();
        let width = processor.output_columns().len();
        // A processor is scalar: a row's first attempt and its retries
        // are the same call, answering how many output rows it appended
        // to the batch's buffer. An attempt that fails — the UDF's error,
        // a part-written row, a non-finite float under `validate_outputs`
        // — is like any other failed call, and leaves no cell behind.
        let call = |row: &Row, schema: &Schema, cells: &mut Vec<Value>| {
            crate::udf::attempt(processor, row, schema, cells, |fresh| {
                let rows = crate::udf::output_rows(processor, fresh.len())?;
                if config.validate_outputs {
                    validate_cells(fresh, processor.name())?;
                }
                Ok(rows)
            })
        };
        self.fold_udf(
            &op,
            out_schema,
            processor.cost_per_row(),
            // A processor materializes real columns; its failure cannot
            // be masked.
            false,
            one_wave(in_rows),
            |batch| {
                let schema = batch.schema();
                let mut cells = Vec::with_capacity(batch.len() * width);
                let (mut ragged, mut failed) = (Vec::new(), Vec::new());
                for (at, row) in batch.rows().iter().enumerate() {
                    match call(row, schema, &mut cells) {
                        Ok(1) => {}
                        Ok(rows) => ragged.push((at, rows)),
                        err => {
                            let retry = || call(row, schema, &mut cells);
                            failed.push((at, config.resume_probe(&op, err, retry)));
                        }
                    }
                }
                let firsts = Appended {
                    rows: batch.len(),
                    cells: cells.into_iter(),
                    ragged: ragged.into_iter().peekable(),
                };
                Probed { firsts, failed }
            },
            |appended, at| {
                let ragged = &mut appended.ragged;
                (at < appended.rows).then(|| ragged.next_if(|r| r.0 == at).map_or(1, |r| r.1))
            },
            // The one place an output tuple is built: once, at its final
            // width. Every row before this one was emitted too (a row
            // `Process` cannot emit ends it), so the next unread cells
            // are this row's.
            |appended, chunk, at, rows, out| {
                for _ in 0..rows {
                    let cells = appended.cells.by_ref().take(width);
                    out.push(chunk.rows()[at].extended(cells))?;
                }
                Ok(true)
            },
        )
    }

    /// The probe→consume fold shared by Filter and Process, over the
    /// waves `next_wave` yields until it says `None`.
    ///
    /// Probe phase (workers): `probe` makes every row's first attempt one
    /// [`Batch`] at a time (vectorizable), and runs the retry loop
    /// (`resume_probe`) of each row whose first attempt failed, yielding
    /// one [`Probed`] record per batch. Pure — no session state. If the
    /// breaker is (or becomes) open, the consume phase discards the
    /// affected probes, so charges stay identical to a serial run that
    /// never made those calls.
    ///
    /// Consume phase (main thread): folds the records into the session's
    /// breaker and the operator's span in row order, driving the breaker
    /// and fail-open exactly as serial execution would. A record with no
    /// failed row, met while the breaker is closed, is folded in closed
    /// form: `n` clean consumes leave the breaker at
    /// `consecutive_failures = 0` (`OpFold::consume_clean`) and the span
    /// `n` attempts richer. Every other record walks the per-row body,
    /// which counts each consumed outcome through `record_outcome`.
    /// `first` reads the next clean row's value off the record's `firsts`
    /// (`None` past the batch's last row). `emit` receives each row — its
    /// chunk and place in it — with its `Ok` value and the same `firsts`,
    /// pushes what the row produces, and says whether the row passed
    /// (`false` = filtered). A terminal error passes the row
    /// through unchanged when `fail_open`, and stops the operator
    /// otherwise.
    ///
    /// Everything the fold accumulates — span, overhead, the input row
    /// index — is carried from wave to wave, and the session's
    /// breaker is sticky, so how the input is cut into waves changes
    /// nothing it reports. A wave that cannot be had (the scan below was
    /// cancelled or failed to decode) or probed ends the fold: one that
    /// has consumed a wave is charged for what it consumed, one that has
    /// not never ran (`Err`).
    #[allow(clippy::too_many_arguments)]
    fn fold_udf<B: Send, T: Send>(
        &mut self,
        op: &str,
        out_schema: Arc<Schema>,
        cost_per_row: f64,
        fail_open: bool,
        mut next_wave: impl FnMut(&mut Self) -> Result<Option<Vec<Chunk>>>,
        probe: impl Fn(&Batch<'_>) -> Probed<B, T> + Sync,
        mut first: impl FnMut(&mut B, usize) -> Option<T>,
        mut emit: impl FnMut(&mut B, &Chunk, usize, T, &mut Rowset) -> Result<bool>,
    ) -> Result<Finished> {
        let mut span = OperatorSpan::new(self.tel.next_op_id(), op.to_string(), 0);
        let mut out = Rowset::empty(out_schema);
        let mut extra_seconds = 0.0;
        let mut failure: Option<EngineError> = None;
        let mut clean_rows: u64 = 0;
        let mut row_idx: u64 = 0;
        let (mut handed, mut consumed_any) = (0usize, false);
        'waves: loop {
            let probed = next_wave(self).and_then(|wave| {
                let Some(chunks) = wave else { return Ok(None) };
                let first_row = handed;
                handed += chunks.iter().map(Chunk::len).sum::<usize>();
                // First attempts are attempt 0; a retry loop inside
                // `probe` numbers its own.
                let probes = self.probe(&chunks, first_row, |batch| {
                    crate::fault::with_attempt_ordinal(0, || probe(batch))
                })?;
                Ok(Some((chunks, probes)))
            });
            let (chunks, probes) = match probed {
                Ok(Some(wave)) => wave,
                Ok(None) => break,
                Err(e) if !consumed_any => return Err(e),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            // Resolve the operator's breaker once per wave; it is sticky
            // within a run (it only flips open inside `consume`), so
            // mirror it locally. The fold then does no map lookups.
            let mut fold = self.session.op_fold(op);
            let mut breaker_open = fold.breaker_open();
            for (chunk, start, Probed { mut firsts, failed }) in probes {
                let chunk = &chunks[chunk];
                if let Err(e) = self.cancel.check() {
                    self.tel
                        .push_event(op, Some(row_idx), EventKind::Cancelled, 1);
                    failure = Some(e);
                    break 'waves;
                }
                if failed.is_empty() && !breaker_open {
                    fold.consume_clean();
                    let mut n = 0;
                    while let Some(value) = first(&mut firsts, n) {
                        let passed = emit(&mut firsts, chunk, start + n, value, &mut out)?;
                        span.rows_out += u64::from(passed);
                        span.rows_filtered += u64::from(!passed);
                        n += 1;
                    }
                    span.attempts += n as u64;
                    clean_rows += n as u64;
                    row_idx += n as u64;
                    continue;
                }
                let mut failed = failed.into_iter().peekable();
                for at in 0.. {
                    let attempt = if let Some((_, probe)) = failed.next_if(|(i, _)| *i == at) {
                        Err(probe)
                    } else if let Some(value) = first(&mut firsts, at) {
                        Ok(value)
                    } else {
                        break;
                    };
                    let outcome = fold.consume(attempt);
                    breaker_open = fold.breaker_open();
                    extra_seconds += outcome.extra_seconds;
                    record_outcome(
                        self.tel,
                        &mut span,
                        Some(row_idx),
                        &outcome,
                        cost_per_row,
                        breaker_open,
                    );
                    let passed = match outcome.result {
                        Ok(value) => emit(&mut firsts, chunk, start + at, value, &mut out)?,
                        Err(_) if fail_open => {
                            span.failed_open += 1;
                            self.tel
                                .push_event(op, Some(row_idx), EventKind::FailOpen, 1);
                            out.push(chunk.row(start + at))?;
                            true
                        }
                        Err(e) => {
                            // Charge the work done, then bail.
                            failure = Some(e);
                            break 'waves;
                        }
                    };
                    span.rows_out += u64::from(passed);
                    span.rows_filtered += u64::from(!passed);
                    row_idx += 1;
                }
            }
            consumed_any = true;
        }
        if clean_rows > 0 {
            span.latency.record_n(cost_per_row, clean_rows);
        }
        span.rows_in = handed as u64;
        span.seconds = span.attempts as f64 * cost_per_row + extra_seconds;
        Ok(Finished { span, out, failure })
    }

    fn project(&mut self, op: String, in_rows: Rowset, items: &[ProjectItem]) -> Result<Finished> {
        let mut cols = Vec::with_capacity(items.len());
        let mut indices = Vec::with_capacity(items.len());
        for item in items {
            let src = in_rows.schema().column(item.source())?;
            cols.push(Column::new(item.output(), src.dtype));
            indices.push(in_rows.schema().index_of(item.source())?);
        }
        let total = in_rows.len();
        let mut out = Rowset::empty(Schema::new(cols)?);
        for row in in_rows.rows() {
            out.push(Row::new(
                indices.iter().map(|&i| row.get(i).clone()).collect(),
            ))?;
        }
        let mut span = self.flat_span(op, total, self.model.project, total);
        span.rows_out = total as u64;
        Finished::ok(span, out)
    }

    fn join(
        &mut self,
        op: String,
        l: Rowset,
        r: Rowset,
        left_key: &str,
        right_key: &str,
    ) -> Result<Finished> {
        let lk = l.schema().index_of(left_key)?;
        let rk = r.schema().index_of(right_key)?;
        // Build on the (primary-key) right side.
        let mut build: HashMap<Key, Vec<&Row>> = HashMap::new();
        for row in r.rows() {
            build.entry(row.get(rk).as_key()?).or_default().push(row);
        }
        let mut out_cols = l.schema().columns().to_vec();
        for c in r.schema().columns() {
            if c.name != *right_key {
                out_cols.push(c.clone());
            }
        }
        let mut out = Rowset::empty(Schema::new(out_cols)?);
        let mut matched_left: u64 = 0;
        for lrow in l.rows() {
            let key = lrow.get(lk).as_key()?;
            if let Some(matches) = build.get(&key) {
                matched_left += 1;
                for rrow in matches {
                    let mut cells = lrow.values().to_vec();
                    for (i, v) in rrow.values().iter().enumerate() {
                        if i != rk {
                            cells.push(v.clone());
                        }
                    }
                    out.push(Row::new(cells))?;
                }
            }
        }
        let rows_in = l.len() + r.len();
        let mut span = self.flat_span(op, rows_in, self.model.join, rows_in);
        // Unmatched left rows are dropped by the join predicate —
        // filtered, in conservation terms.
        span.rows_out = matched_left + r.len() as u64;
        span.rows_filtered = l.len() as u64 - matched_left;
        Finished::ok(span, out)
    }

    fn aggregate(
        &mut self,
        op: String,
        in_rows: Rowset,
        out_schema: Arc<Schema>,
        group_by: &[String],
        aggs: &[AggExpr],
    ) -> Result<Finished> {
        let key_idx = column_indices(in_rows.schema(), group_by)?;
        let agg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| {
                if a.func == AggFunc::Count {
                    Ok(None)
                } else {
                    in_rows.schema().index_of(&a.column).map(Some)
                }
            })
            .collect::<Result<_>>()?;
        let mut out = Rowset::empty(out_schema);
        for rows in group_first_seen(in_rows.rows(), |row| row_key(row, &key_idx))? {
            let mut cells: Vec<Value> = key_idx.iter().map(|&i| rows[0].get(i).clone()).collect();
            for (a, idx) in aggs.iter().zip(&agg_idx) {
                cells.push(eval_agg(a.func, *idx, &rows)?);
            }
            out.push(Row::new(cells))?;
        }
        let total = in_rows.len();
        let mut span = self.flat_span(op, total, self.model.aggregate, total);
        span.rows_out = total as u64;
        Finished::ok(span, out)
    }

    fn reduce(&mut self, op: String, in_rows: Rowset, reducer: &dyn Reducer) -> Result<Finished> {
        let key_idx = column_indices(in_rows.schema(), reducer.key_columns())?;
        let groups: Vec<Vec<Row>> = group_first_seen(in_rows.rows(), |row| row_key(row, &key_idx))?
            .into_iter()
            .map(owned)
            .collect();
        self.fold_groups(
            op,
            in_rows.len(),
            Schema::new(reducer.output_columns().to_vec())?,
            reducer.cost_per_row(),
            &groups,
            Vec::len,
            |group| reducer.reduce(group, in_rows.schema()),
        )
    }

    fn combine(
        &mut self,
        op: String,
        l: Rowset,
        r: Rowset,
        combiner: &dyn Combiner,
    ) -> Result<Finished> {
        let lk = l.schema().index_of(combiner.left_key())?;
        let rk = r.schema().index_of(combiner.right_key())?;
        let mut rgroups: HashMap<Key, Vec<Row>> = HashMap::new();
        for row in r.rows() {
            rgroups
                .entry(row.get(rk).as_key()?)
                .or_default()
                .push(row.clone());
        }
        // Left groups in first-seen order, each paired with the right
        // group sharing its key; a left group without one never reaches
        // the combiner.
        let mut pairs: Vec<(Vec<Row>, &Vec<Row>)> = Vec::new();
        for lg in group_first_seen(l.rows(), |row| row.get(lk).as_key())? {
            if let Some(rg) = rgroups.get(&lg[0].get(lk).as_key()?) {
                pairs.push((owned(lg), rg));
            }
        }
        self.fold_groups(
            op,
            l.len() + r.len(),
            Schema::new(combiner.output_columns().to_vec())?,
            combiner.cost_per_row(),
            &pairs,
            |(lg, rg)| lg.len() + rg.len(),
            |(lg, rg)| combiner.combine(lg, rg, l.schema(), r.schema()),
        )
    }

    /// The group-invocation loop shared by Reduce and Combine: one
    /// resilient `call` per group, serially on the main thread. Group
    /// UDFs are charged per input row; a retried group re-pays for each
    /// of its `size` rows. Input rows that reached no group (Combine's
    /// unmatched keys) count as filtered.
    #[allow(clippy::too_many_arguments)]
    fn fold_groups<G>(
        &mut self,
        op: String,
        rows_in: usize,
        out_schema: Arc<Schema>,
        cost_per_row: f64,
        groups: &[G],
        size: impl Fn(&G) -> usize,
        call: impl Fn(&G) -> Result<Vec<Row>>,
    ) -> Result<Finished> {
        let mut span = OperatorSpan::new(self.tel.next_op_id(), op.clone(), rows_in);
        let mut out = Rowset::empty(out_schema);
        let mut retried_rows: usize = 0;
        let mut extra_seconds = 0.0;
        let mut failure: Option<EngineError> = None;
        for group in groups {
            if let Err(e) = self.cancel.check() {
                self.tel.push_event(&op, None, EventKind::Cancelled, 1);
                failure = Some(e);
                break;
            }
            let n = size(group);
            let outcome = self.session.invoke(&op, || call(group));
            record_outcome(
                self.tel,
                &mut span,
                None,
                &outcome,
                n as f64 * cost_per_row,
                self.session.breaker_open(&op),
            );
            retried_rows += outcome.attempts.saturating_sub(1) as usize * n;
            extra_seconds += outcome.extra_seconds;
            match outcome.result {
                Ok(rows) => {
                    span.rows_out += n as u64;
                    for row in rows {
                        out.push(row)?;
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        span.seconds = (rows_in + retried_rows) as f64 * cost_per_row + extra_seconds;
        if failure.is_none() {
            span.rows_filtered = span.rows_in - span.rows_out;
        }
        Ok(Finished { span, out, failure })
    }
}

/// Counts one consumed UDF outcome — a row's for Filter/Process (`row` is
/// its input index), a group's for Reduce/Combine — into the operator's
/// span and event stream. This is the only place recovery work is
/// counted, and it runs on the main thread in consume order, which is what
/// the determinism contract rests on. `unit` is what one attempt costs;
/// `breaker_open` is the breaker's state after the outcome was consumed.
fn record_outcome<T>(
    tel: &mut SpanCollector,
    span: &mut OperatorSpan,
    row: Option<u64>,
    outcome: &ProbeOutcome<T>,
    unit: f64,
    breaker_open: bool,
) {
    if outcome.attempts == 0 {
        span.short_circuited += 1;
        tel.push_event(&span.op, row, EventKind::ShortCircuit, 1);
        return;
    }
    span.attempts += u64::from(outcome.attempts);
    span.retries += outcome.retries;
    span.failures += outcome.failures;
    span.timeouts += outcome.timeouts;
    if outcome.retries > 0 {
        tel.push_event(&span.op, row, EventKind::Retry, outcome.retries);
    }
    if outcome.timeouts > 0 {
        tel.push_event(&span.op, row, EventKind::Timeout, outcome.timeouts);
    }
    span.latency
        .record(f64::from(outcome.attempts) * unit + outcome.extra_seconds);
    // The breaker was closed when the calls were made (an open one
    // short-circuits with no attempts) and only a terminal error opens
    // it, so open now means this outcome tripped it.
    if outcome.result.is_err() && breaker_open {
        span.breaker_tripped = true;
    }
}

/// Rejects non-finite floats in processor output (when
/// [`ResilienceConfig::validate_outputs`](crate::resilience::ResilienceConfig)
/// is on), converting silent corruption into a retryable error.
fn validate_cells(cells: &[Value], udf: &str) -> Result<()> {
    for cell in cells {
        if let Value::Float(f) = cell {
            if !f.is_finite() {
                return Err(EngineError::CorruptOutput(format!(
                    "{udf}: non-finite float in output"
                )));
            }
        }
    }
    Ok(())
}

fn column_indices(schema: &Schema, names: &[String]) -> Result<Vec<usize>> {
    names.iter().map(|n| schema.index_of(n)).collect()
}

fn row_key(row: &Row, key_idx: &[usize]) -> Result<Vec<Key>> {
    key_idx.iter().map(|&i| row.get(i).as_key()).collect()
}

/// Groups `rows` by `key`, groups in first-seen key order and rows in
/// input order within each — which keeps grouped output deterministic.
fn group_first_seen<K: Hash + Eq>(
    rows: &[Row],
    key: impl Fn(&Row) -> Result<K>,
) -> Result<Vec<Vec<&Row>>> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    for row in rows {
        let slot = *index.entry(key(row)?).or_insert(groups.len());
        if slot == groups.len() {
            groups.push(Vec::new());
        }
        groups[slot].push(row);
    }
    Ok(groups)
}

fn owned(group: Vec<&Row>) -> Vec<Row> {
    group.into_iter().cloned().collect()
}

fn eval_agg(func: AggFunc, col: Option<usize>, rows: &[&Row]) -> Result<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(rows.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let idx = col.ok_or_else(|| EngineError::InvalidPlan("agg without column".into()))?;
            let mut sum = 0.0;
            for r in rows {
                sum += r.get(idx).as_float()?;
            }
            if func == AggFunc::Avg {
                Ok(Value::Float(sum / rows.len() as f64))
            } else {
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let idx = col.ok_or_else(|| EngineError::InvalidPlan("agg without column".into()))?;
            let mut best: Option<Value> = None;
            for r in rows {
                let v = r.get(idx).clone();
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(ord) => {
                                (func == AggFunc::Min && ord.is_lt())
                                    || (func == AggFunc::Max && ord.is_gt())
                            }
                            None => {
                                return Err(EngineError::TypeMismatch {
                                    expected: "comparable",
                                    found: v.type_name(),
                                })
                            }
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.ok_or_else(|| EngineError::InvalidPlan("MIN/MAX over empty group".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Clause, CompareOp};
    use crate::resilience::{ResilienceConfig, RetryPolicy};
    use crate::schema::DataType;
    use crate::udf::{ClosureFilter, ClosureProcessor, ClosureReducer};
    use std::sync::atomic::AtomicU64;

    fn catalog() -> Result<Catalog> {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("cam", DataType::Str),
        ])?;
        let rows = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "C1" } else { "C2" }),
                ])
            })
            .collect();
        let mut c = Catalog::new();
        c.register("frames", Rowset::new(schema, rows)?);
        Ok(c)
    }

    /// Runs `plan` under a default session; the spans are the charges.
    fn run(plan: &LogicalPlan, cat: &Catalog) -> Result<(Rowset, Vec<OperatorSpan>)> {
        let mut tel = SpanCollector::detached();
        let out = run_with(plan, cat, &mut ExecSession::default(), &mut tel)?;
        Ok((out, tel.spans().to_vec()))
    }

    fn run_with(
        plan: &LogicalPlan,
        cat: &Catalog,
        session: &mut ExecSession,
        tel: &mut SpanCollector,
    ) -> Result<Rowset> {
        run_opts(plan, cat, session, ExecOptions::default(), tel)
    }

    fn run_opts(
        plan: &LogicalPlan,
        cat: &Catalog,
        session: &mut ExecSession,
        opts: ExecOptions,
        tel: &mut SpanCollector,
    ) -> Result<Rowset> {
        Executor {
            catalog: cat,
            model: &CostModel::default(),
            session,
            opts,
            tel,
            cancel: &CancelToken::new(),
        }
        .run(plan)
    }

    fn find_op<'a>(spans: &'a [OperatorSpan], prefix: &str) -> Result<&'a OperatorSpan> {
        spans
            .iter()
            .find(|s| s.op.starts_with(prefix))
            .ok_or_else(|| EngineError::InvalidPlan(format!("no operator matching {prefix}")))
    }

    #[test]
    fn scan_returns_everything_and_charges() -> Result<()> {
        let cat = catalog()?;
        let (out, spans) = run(&LogicalPlan::scan("frames"), &cat)?;
        assert_eq!(out.len(), 10);
        assert!(find_op(&spans, "Scan")?.seconds > 0.0);
        Ok(())
    }

    #[test]
    fn process_fans_out_and_charges_udf_cost() -> Result<()> {
        let cat = catalog()?;
        let detector = Arc::new(ClosureProcessor::new(
            "Detector",
            vec![Column::new("obj", DataType::Int)],
            2.0,
            |row, _, out| {
                // Even ids produce two objects, odd ids none.
                if row.get(0).as_int()? % 2 == 0 {
                    out.extend([Value::Int(0), Value::Int(1)]);
                }
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("frames").process(detector);
        let (out, spans) = run(&plan, &cat)?;
        assert_eq!(out.len(), 10); // 5 even ids × 2 objects
                                   // UDF charged for all 10 input rows at 2.0s each.
        let udf_secs = find_op(&spans, "Process")?.seconds;
        assert!((udf_secs - 20.0).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn select_filters_rows() -> Result<()> {
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").select(Predicate::from(Clause::new(
            "cam",
            CompareOp::Eq,
            "C1",
        )));
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.len(), 5);
        Ok(())
    }

    #[test]
    fn filter_drops_and_charges_its_own_cost() -> Result<()> {
        let cat = catalog()?;
        let f = Arc::new(ClosureFilter::new("PP[test]", 0.1, |row, _| {
            Ok(row.get(0).as_int()? < 4)
        }));
        let plan = LogicalPlan::scan("frames").filter(f);
        let (out, spans) = run(&plan, &cat)?;
        assert_eq!(out.len(), 4);
        let pp = find_op(&spans, "PP[test]")?;
        assert_eq!(pp.rows_in, 10);
        assert_eq!(pp.rows_emitted, 4);
        assert!((pp.seconds - 1.0).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn project_renames() -> Result<()> {
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").project(vec![ProjectItem::Rename {
            from: "cam".into(),
            to: "camera".into(),
        }]);
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.schema().columns()[0].name, "camera");
        assert_eq!(out.rows()[0].len(), 1);
        Ok(())
    }

    #[test]
    fn fk_join_matches_keys() -> Result<()> {
        let mut cat = catalog()?;
        let dim = Schema::new(vec![
            Column::new("cam_name", DataType::Str),
            Column::new("city", DataType::Str),
        ])?;
        cat.register(
            "cams",
            Rowset::new(
                dim,
                vec![
                    Row::new(vec![Value::str("C1"), Value::str("Seattle")]),
                    Row::new(vec![Value::str("C2"), Value::str("Houston")]),
                ],
            )?,
        );
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("frames")),
            right: Box::new(LogicalPlan::scan("cams")),
            left_key: "cam".into(),
            right_key: "cam_name".into(),
        };
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.len(), 10);
        let schema = out.schema().clone();
        for row in out.rows() {
            let cam = row.get_named(&schema, "cam")?.as_str()?.to_string();
            let city = row.get_named(&schema, "city")?.as_str()?;
            if cam == "C1" {
                assert_eq!(city, "Seattle");
            } else {
                assert_eq!(city, "Houston");
            }
        }
        Ok(())
    }

    #[test]
    fn join_drops_unmatched_left_rows() -> Result<()> {
        let mut cat = catalog()?;
        let dim = Schema::new(vec![Column::new("cam_name", DataType::Str)])?;
        cat.register(
            "cams",
            Rowset::new(dim, vec![Row::new(vec![Value::str("C1")])])?,
        );
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("frames")),
            right: Box::new(LogicalPlan::scan("cams")),
            left_key: "cam".into(),
            right_key: "cam_name".into(),
        };
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.len(), 5);
        Ok(())
    }

    #[test]
    fn aggregate_counts_and_avgs() -> Result<()> {
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").aggregate(
            vec!["cam".into()],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    column: String::new(),
                    alias: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    column: "id".into(),
                    alias: "avg_id".into(),
                },
                AggExpr {
                    func: AggFunc::Min,
                    column: "id".into(),
                    alias: "min_id".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    column: "id".into(),
                    alias: "max_id".into(),
                },
            ],
        );
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.len(), 2);
        let schema = out.schema().clone();
        // First-seen order: C1 (id 0) first.
        let first = &out.rows()[0];
        assert_eq!(first.get_named(&schema, "cam")?.as_str()?, "C1");
        assert_eq!(first.get_named(&schema, "n")?.as_int()?, 5);
        assert!((first.get_named(&schema, "avg_id")?.as_float()? - 4.0).abs() < 1e-9);
        assert_eq!(first.get_named(&schema, "min_id")?.as_int()?, 0);
        assert_eq!(first.get_named(&schema, "max_id")?.as_int()?, 8);
        Ok(())
    }

    #[test]
    fn reduce_applies_per_group() -> Result<()> {
        let cat = catalog()?;
        let reducer = Arc::new(ClosureReducer::new(
            "Tracker",
            vec!["cam".into()],
            vec![
                Column::new("cam", DataType::Str),
                Column::new("track_len", DataType::Int),
            ],
            0.5,
            |group, schema| {
                let cam = group[0].get_named(schema, "cam")?.clone();
                Ok(vec![Row::new(vec![cam, Value::Int(group.len() as i64)])])
            },
        ));
        let plan = LogicalPlan::scan("frames").reduce(reducer);
        let (out, spans) = run(&plan, &cat)?;
        assert_eq!(out.len(), 2);
        let reduce_secs = find_op(&spans, "Reduce")?.seconds;
        assert!((reduce_secs - 5.0).abs() < 1e-9);
        Ok(())
    }

    /// Pairs each camera's frames with its one dimension row; camera C3
    /// exists only on the right, C2 only on the left.
    struct CamCombiner;
    impl Combiner for CamCombiner {
        fn name(&self) -> &str {
            "CamPairs"
        }
        fn left_key(&self) -> &str {
            "cam"
        }
        fn right_key(&self) -> &str {
            "cam_name"
        }
        fn output_columns(&self) -> &[Column] {
            static COLS: std::sync::OnceLock<Vec<Column>> = std::sync::OnceLock::new();
            COLS.get_or_init(|| {
                vec![
                    Column::new("cam", DataType::Str),
                    Column::new("pairs", DataType::Int),
                ]
            })
        }
        fn cost_per_row(&self) -> f64 {
            0.5
        }
        fn combine(&self, l: &[Row], r: &[Row], ls: &Schema, _: &Schema) -> Result<Vec<Row>> {
            let cam = l[0].get_named(ls, "cam")?.clone();
            Ok(vec![Row::new(vec![
                cam,
                Value::Int((l.len() * r.len()) as i64),
            ])])
        }
    }

    #[test]
    fn combine_pairs_matching_groups_and_filters_the_rest() -> Result<()> {
        let mut cat = catalog()?;
        let dim = Schema::new(vec![Column::new("cam_name", DataType::Str)])?;
        cat.register(
            "cams",
            Rowset::new(
                dim,
                vec![
                    Row::new(vec![Value::str("C3")]),
                    Row::new(vec![Value::str("C1")]),
                ],
            )?,
        );
        let plan = LogicalPlan::Combine {
            left: Box::new(LogicalPlan::scan("frames")),
            right: Box::new(LogicalPlan::scan("cams")),
            combiner: Arc::new(CamCombiner),
        };
        let (out, spans) = run(&plan, &cat)?;
        // Only C1 has both sides: 5 frames × 1 dimension row.
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].get(1).as_int()?, 5);
        let span = find_op(&spans, "Combine[CamPairs]")?;
        assert_eq!(span.op_id, crate::telemetry::OperatorId(2));
        assert_eq!((span.rows_in, span.rows_emitted), (12, 1));
        assert!((span.seconds - 6.0).abs() < 1e-9);
        // 5 + 1 rows reached the combiner; C2's 5 frames and C3's row
        // reached no group.
        assert_eq!(
            (span.rows_out, span.rows_filtered, span.attempts),
            (6, 6, 1)
        );
        assert!(span.check_conservation());
        Ok(())
    }

    /// A kernel that panics on a worker thread costs its morsel, not the
    /// process: the run ends with the typed worker-panic cancellation and
    /// the operator, whose probes were never consumed, charges nothing.
    #[test]
    fn panicking_kernel_at_k4_is_a_typed_error() -> Result<()> {
        if *HARDWARE_THREADS < 2 {
            // No fan-out on this machine: the kernel would run (and
            // panic) on the caller's own thread, as at K = 1.
            return Ok(());
        }
        let cat = catalog()?;
        let bomb = Arc::new(ClosureFilter::new("PP[bomb]", 0.1, |row, _| {
            if row.get(0).as_int()? == 7 {
                panic!("kernel bug on row 7");
            }
            Ok(true)
        }));
        let plan = LogicalPlan::scan("frames").filter(bomb);
        let mut tel = SpanCollector::detached();
        let result = run_opts(
            &plan,
            &cat,
            &mut ExecSession::default(),
            ExecOptions::new(4, 2, 2),
            &mut tel,
        );
        assert!(matches!(
            result,
            Err(EngineError::Cancelled {
                reason: CancelReason::WorkerPanic
            })
        ));
        assert_eq!(tel.spans().len(), 1, "only the scan charged");
        Ok(())
    }

    /// The consume loop polls the token at the first row of every batch
    /// record — also when `morsel_size` is not a multiple of `batch_size`,
    /// so that batches restart at every morsel (here rows 0, 100, 200) and
    /// a multiple of `batch_size` (256) starts none.
    #[test]
    fn consume_polls_cancellation_at_each_batch_records_first_row() -> Result<()> {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)])?;
        let rows = (0..300).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let in_rows = Rowset::new(schema.clone(), rows)?;
        let token = CancelToken::new();
        let mut tel = SpanCollector::detached();
        let done = Executor {
            catalog: &Catalog::new(),
            model: &CostModel::default(),
            session: &mut ExecSession::default(),
            opts: ExecOptions::new(1, 256, 100),
            tel: &mut tel,
            cancel: &token,
        }
        .fold_udf(
            "PP[poll]",
            schema,
            0.1,
            true,
            one_wave(in_rows),
            |batch| Probed {
                firsts: 0..batch.len(),
                failed: Vec::<(usize, ProbeOutcome<bool>)>::new(),
            },
            |rows, _| rows.next().map(|_| true),
            // Stands in for a caller cancelling while the fold consumes:
            // the token fires in the middle of the second batch.
            |_, chunk, at, keep, out| {
                if at == 150 {
                    token.cancel(CancelReason::Requested);
                }
                out.push(chunk.row(at))?;
                Ok(keep)
            },
        )?;
        assert!(matches!(
            done.failure,
            Some(EngineError::Cancelled {
                reason: CancelReason::Requested
            })
        ));
        // The second batch was consumed to its end and is charged; the
        // third was never started.
        assert_eq!((done.out.len(), done.span.attempts), (200, 200));
        let events = tel
            .finish(crate::telemetry::QueryId(1), vec![], vec![], None, 0)
            .events;
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].row, events[0].kind),
            (Some(200), EventKind::Cancelled)
        );
        Ok(())
    }

    #[test]
    fn float_keys_rejected() -> Result<()> {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![Column::new("f", DataType::Float)])?;
        cat.register(
            "t",
            Rowset::new(schema, vec![Row::new(vec![Value::Float(1.0)])])?,
        );
        let plan = LogicalPlan::scan("t").aggregate(
            vec!["f".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                column: String::new(),
                alias: "n".into(),
            }],
        );
        assert!(matches!(
            run(&plan, &cat),
            Err(EngineError::UnhashableKey(_))
        ));
        Ok(())
    }

    /// A filter that fails row id 0's first `fail_first` attempts with a
    /// transient error, then behaves (keeps even ids). Keying the flake off
    /// the row — not off call order — keeps the behavior identical under
    /// any partitioning.
    fn flaky_filter(fail_first: u64) -> Arc<dyn crate::udf::RowFilter> {
        let row0_attempts = AtomicU64::new(0);
        Arc::new(ClosureFilter::new("PP[flaky]", 0.1, move |row, _| {
            let id = row.get(0).as_int()?;
            if id == 0 && row0_attempts.fetch_add(1, Ordering::Relaxed) < fail_first {
                Err(EngineError::Transient("worker lost".into()))
            } else {
                Ok(id % 2 == 0)
            }
        }))
    }

    #[test]
    fn transient_filter_failures_are_retried_and_charged() -> Result<()> {
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").filter(flaky_filter(2));
        let (out, spans) = run(&plan, &cat)?;
        // Retries hid the failures entirely: same rows as a healthy run.
        assert_eq!(out.len(), 5);
        let pp = find_op(&spans, "PP[flaky]")?;
        // 12 attempts (10 rows + 2 retries on the first row) at 0.1s, plus
        // exponential backoff of 0.05s then 0.10s.
        assert!(
            (pp.seconds - (1.2 + 0.15)).abs() < 1e-9,
            "got {}",
            pp.seconds
        );
        assert_eq!(pp.retries, 2);
        assert_eq!(pp.failed_open, 0);
        Ok(())
    }

    #[test]
    fn hard_failed_filter_fails_open_then_breaker_skips_it() -> Result<()> {
        let cat = catalog()?;
        let dead = Arc::new(ClosureFilter::new("PP[dead]", 0.1, |_, _| {
            Err::<bool, _>(EngineError::Transient("model server down".into()))
        }));
        let plan = LogicalPlan::scan("frames").filter(dead);
        let mut session = ExecSession::new(
            ResilienceConfig::default()
                .with_retry(RetryPolicy::none())
                .with_breaker_threshold(3),
        );
        let mut tel = SpanCollector::detached();
        let out = run_with(&plan, &cat, &mut session, &mut tel)?;
        // Fail-open: every row passes despite the filter being dead.
        assert_eq!(out.len(), 10);
        assert!(session.breaker_open("PP[dead]"));
        let pp = find_op(tel.spans(), "PP[dead]")?;
        // 3 real failures trip the breaker; the remaining 7 rows skip the
        // call entirely.
        assert_eq!(pp.attempts, 3);
        assert_eq!(pp.short_circuited, 7);
        assert_eq!(pp.failed_open, 10);
        assert!(pp.breaker_tripped);
        // Only the 3 attempted calls are charged.
        assert!((pp.seconds - 0.3).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn fail_closed_filter_propagates_the_error() -> Result<()> {
        struct Gate;
        impl crate::udf::RowFilter for Gate {
            fn name(&self) -> &str {
                "Gate"
            }
            fn cost_per_row(&self) -> f64 {
                0.1
            }
            fn passes(&self, _: &Row, _: &Schema) -> Result<bool> {
                Err(EngineError::Transient("down".into()))
            }
            fn fail_open(&self) -> bool {
                false
            }
        }
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").filter(Arc::new(Gate));
        let mut session =
            ExecSession::new(ResilienceConfig::default().with_retry(RetryPolicy::none()));
        let err = match run_with(&plan, &cat, &mut session, &mut SpanCollector::detached()) {
            Err(e) => e,
            Ok(_) => return Err(EngineError::InvalidPlan("expected failure".into())),
        };
        assert!(matches!(err, EngineError::Transient(_)));
        Ok(())
    }

    #[test]
    fn failing_processor_propagates_after_retries() -> Result<()> {
        let cat = catalog()?;
        let broken = Arc::new(ClosureProcessor::map(
            "Broken",
            vec![Column::new("y", DataType::Int)],
            1.0,
            |_, _, _| Err(EngineError::Transient("gpu lost".into())),
        ));
        let plan = LogicalPlan::scan("frames").process(broken);
        let mut tel = SpanCollector::detached();
        let err = match run_with(&plan, &cat, &mut ExecSession::default(), &mut tel) {
            Err(e) => e,
            Ok(_) => return Err(EngineError::InvalidPlan("expected failure".into())),
        };
        match err {
            EngineError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4),
            other => return Err(other),
        }
        // The failed attempts were still charged.
        let p = find_op(tel.spans(), "Process[Broken]")?;
        assert!(p.seconds > 0.0);
        Ok(())
    }

    /// Arity is the executor's check, so it covers a `Processor` written
    /// by hand: a part-written row is a failed first attempt — counted,
    /// charged, the span closed failed — not an `InvalidPlan` out of the
    /// middle of the operator.
    #[test]
    fn a_short_row_from_any_processor_is_a_charged_udf_failure() -> Result<()> {
        struct Short(Vec<Column>);
        impl Processor for Short {
            fn name(&self) -> &str {
                "Short"
            }
            fn output_columns(&self) -> &[Column] {
                &self.0
            }
            fn cost_per_row(&self) -> f64 {
                2.0
            }
            fn process(&self, row: &Row, _: &Schema, out: &mut Vec<Value>) -> Result<()> {
                out.push(Value::Int(1));
                if row.get(0).as_int()? != 3 {
                    out.push(Value::Int(2));
                }
                Ok(())
            }
        }
        let cat = catalog()?;
        let columns = vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ];
        let plan = LogicalPlan::scan("frames").process(Arc::new(Short(columns)));
        let mut tel = SpanCollector::detached();
        match run_with(&plan, &cat, &mut ExecSession::default(), &mut tel) {
            Err(EngineError::Udf(m)) => {
                assert_eq!(m, "Short: produced 1 cells, declared 2 output columns")
            }
            other => panic!("expected a UDF error, got {other:?}"),
        }
        let p = find_op(tel.spans(), "Process[Short]")?;
        assert_eq!((p.attempts, p.failures, p.rows_emitted), (4, 1, 3));
        assert!((p.seconds - 8.0).abs() < 1e-9);
        Ok(())
    }

    /// A first attempt that writes part of a row and then fails leaves
    /// nothing in the batch's buffer: the row is its retry's cells, and
    /// its neighbours' cells stay theirs.
    #[test]
    fn a_failed_attempts_cells_never_prefix_the_retrys() -> Result<()> {
        let cat = catalog()?;
        let failed_once = AtomicBool::new(false);
        let flaky = Arc::new(ClosureProcessor::map(
            "Flaky",
            ["a", "b", "c"]
                .map(|c| Column::new(c, DataType::Int))
                .to_vec(),
            1.0,
            move |row, _, out| {
                let id = row.get(0).as_int()?;
                if id == 4 && !failed_once.swap(true, Ordering::SeqCst) {
                    out.extend([Value::Int(-1), Value::Int(-2)]);
                    return Err(EngineError::Transient("after two of three cells".into()));
                }
                out.extend([id, id * 10, id * 100].map(Value::Int));
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("frames").process(flaky);
        let (out, spans) = run(&plan, &cat)?;
        assert_eq!(find_op(&spans, "Process[Flaky]")?.retries, 1);
        assert_eq!(out.len(), 10);
        for (id, row) in (0..).zip(out.rows()) {
            let cells: Vec<i64> = row.values()[2..]
                .iter()
                .map(Value::as_int)
                .collect::<Result<_>>()?;
            assert_eq!(cells, [id, id * 10, id * 100]);
        }
        Ok(())
    }

    #[test]
    fn validation_catches_nan_output() -> Result<()> {
        let cat = catalog()?;
        let nan_gen = Arc::new(ClosureProcessor::map(
            "NanGen",
            vec![Column::new("score", DataType::Float)],
            1.0,
            |_, _, out| {
                out.push(Value::Float(f64::NAN));
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("frames").process(nan_gen);
        // Without validation the NaN flows straight through.
        let (out, _) = run(&plan, &cat)?;
        assert_eq!(out.len(), 10);
        // With validation it is a (retryable, here always-failing) error.
        let mut session = ExecSession::new(
            ResilienceConfig::default()
                .with_validate_outputs(true)
                .with_retry(RetryPolicy::none()),
        );
        let result = run_with(&plan, &cat, &mut session, &mut SpanCollector::detached());
        assert!(matches!(result, Err(EngineError::CorruptOutput(_))));
        Ok(())
    }

    #[test]
    fn default_session_matches_seed_charging() -> Result<()> {
        // The resilient executor must be charge-identical to the classic
        // one on a fault-free plan.
        let cat = catalog()?;
        let f = Arc::new(ClosureFilter::new("PP[test]", 0.1, |row, _| {
            Ok(row.get(0).as_int()? < 4)
        }));
        let plan = LogicalPlan::scan("frames").filter(f).aggregate(
            vec!["cam".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                column: String::new(),
                alias: "n".into(),
            }],
        );
        let charges = |spans: &[OperatorSpan]| -> Vec<(String, u64, u64, f64)> {
            spans
                .iter()
                .map(|s| (s.op.clone(), s.rows_in, s.rows_emitted, s.seconds))
                .collect()
        };
        let (_, a) = run(&plan, &cat)?;
        let (_, b) = run(&plan, &cat)?;
        assert_eq!(charges(&a), charges(&b));
        Ok(())
    }
}
