//! The executor: bottom-up evaluation of logical plans with cost
//! metering, fault-tolerant UDF dispatch, and morsel-driven
//! batch-at-a-time evaluation of row-parallel operators.
//!
//! An operator hands the one above it a materialized [`Rowset`] (no
//! volcano iterators), the engine's one in-memory layout: base columns in
//! shared row groups, a row map into them, and one buffer of appended
//! cells, with no tuple built (see [`crate::row`]). A scan reads one
//! budget-sized *wave* of row groups at a time, each a `Rowset` in the
//! layout its source has (a decoded blob column one contiguous block),
//! and what it keeps of a wave becomes its output in one place
//! (`Survivors`): rows of a group its provider keeps resident — a
//! registered table — by index, so the output is the table's own rows,
//! and a decoded wave's gathered into one group of columns before the
//! wave is dropped. A bare `Scan` keeps every row. A `Filter` directly
//! above a `Scan` — where every PP sits, the edge the paper is about —
//! rides the scan's stream: it probes and consumes each wave and keeps
//! the rows it passed. A blob the PP drops is never copied or built into
//! a `Value`, and what is resident is one wave plus the survivors.
//!
//! The interesting quantity is the *charged* cost, not the wall clock.
//! Every operator charges `attempts × cost_per_row` simulated seconds —
//! which equals the classic `rows_in × cost_per_row` on a fault-free run
//! — plus any retry backoff and timeout stalls its UDF calls accrued.
//! The charge is written once, into the operator's [`OperatorSpan`]: the
//! span is the only ledger the executor keeps, and the
//! [`CostMeter`](crate::cost::CostMeter) is a view of the finished spans
//! taken by [`ExecutionContext::run`](crate::exec::ExecutionContext::run).
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
//! each rowset of their input into *morsels* (contiguous row ranges of at
//! most `MORSEL_BATCHES` batches; a row group smaller than that is one
//! morsel) that the calling thread and the process's helper threads
//! claim off one shared counter: a thread stuck on an expensive morsel
//! never blocks the rest of the input (work stealing by construction).
//! A fan-out spawns no thread. Helpers are started on demand, at most
//! one fewer than `std::thread::available_parallelism`, and live as long
//! as the process; a fan-out offers them `parallelism − 1` seats (never
//! more than the machine has), and the caller claims morsels itself, so
//! a query never waits for a helper busy elsewhere. Morsel jobs own what
//! they read — the rowsets, the provider, the UDF, a bound predicate, all
//! behind `Arc`s — which is what lets a thread that outlives the call
//! run them in safe Rust. A scan wave fans out one job per row group,
//! which reads, checks and decodes it. Within a morsel, rows are
//! *probed* one [`Batch`] at a time, so a filter that overrides
//! `eval_batch` scores a blob column as a contiguous block (see
//! [`crate::batch`]). Batch boundaries are a pure function of `(group
//! sizes, batch_size)`, never of the worker count.
//! Probing touches no shared state and yields **one record per batch**:
//! the first-attempt values plus — normally none — the rows whose first
//! attempt failed, each with the outcome of its full retry loop. A
//! filter batch's values are a [`Selection`]: the positions that passed.
//! A `Process` batch's are one flat buffer: every
//! [`Processor::process`] call of the batch appends its cells to it (a
//! failed attempt's are cut off again), with an output-row count only for
//! a row that did not make exactly one — no allocation per row, and no
//! tuple: no operator builds one.
//! The calling thread then *consumes* the records sequentially in global row
//! order (morsels reassembled by index), which replays circuit-breaker
//! evolution, fail-open decisions, span counters, and cost charges
//! exactly as a serial run would: a record with no failed row, met while
//! no breaker is open, in closed form — its survivors or cells appended
//! to the operator's output in bulk, its rows only bumping counters that
//! add up — every other record row by row. Injected faults key off row
//! identity and attempt ordinal (see [`fault`](crate::fault)), and batch
//! kernels are bit-identical to the scalar per-row path, so results, row
//! order, spans, and charges are byte-identical to the scalar reference
//! (`parallelism = 1, batch_size = 1`) for every seed, every parallelism,
//! and every batch size.
//! Group-based operators (`Join`, `Aggregate`, `Reduce`, `Combine`) and
//! `Project` run serially on the caller; the group-based ones read their
//! inputs where they are kept and write their rows' cells into one
//! buffer. This dispatch is the one statement of what runs in parallel:
//! no plan annotation restates it.
//!
//! Failure semantics, per operator kind:
//!
//! * **Filter** (where PPs live): a call that still fails after retries
//!   *fails open* — the row passes unfiltered — unless
//!   [`RowFilter::fail_open`] says the filter gates correctness. A
//!   fail-open filter has a circuit breaker for the run: once it opens,
//!   the filter's remaining rows pass uncalled and uncharged. Fail-open
//!   can waste downstream UDF cost but can never drop a row the exact
//!   query wanted.
//! * **Process / Reduce / Combine**, and a fail-closed filter: a
//!   processor, reducer or combiner materializes real columns, so its
//!   errors are not maskable; the operator stops at its first call that
//!   still fails after retries, and the error propagates. Nothing outlives
//!   that failure, so none of them has a breaker.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use crate::batch::{Batch, Selection};
use crate::cancel::{CancelReason, CancelToken};
use crate::catalog::Catalog;
use crate::cost::{
    AGGREGATE_S_PER_ROW, JOIN_S_PER_ROW, PROJECT_S_PER_ROW, SCAN_S_PER_ROW, SELECT_S_PER_ROW,
};
use crate::logical::{project_columns, AggExpr, AggFunc, LogicalPlan, ProjectItem};
use crate::predicate::Predicate;
use crate::provider::TableProvider;
use crate::resilience::{self, Breaker, ProbeOutcome};
use crate::row::{Group, GroupColumn, RowRef, Rowset, Slot};
use crate::schema::{Column, Schema};
use crate::sync::{Condvar, Mutex};
use crate::telemetry::{Counter, EventKind, OperatorSpan, SpanCollector};
use crate::udf::{Combiner, Processor, Reducer, RowFilter};
use crate::value::{Key, Value};
use crate::{EngineError, Result};

/// Batches per morsel — the unit workers claim off the shared counter:
/// 1 024 rows at the default batch size.
const MORSEL_BATCHES: usize = 4;

/// Tuning knobs for the morsel-driven executor, carried through the plan
/// recursion. Every field is at least 1: [`ExecOptions::new`] is the only
/// way to build one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOptions {
    /// Threads a fan-out runs on (1 = inline/serial): the caller and at
    /// most `parallelism − 1` of the process's helper threads, never more
    /// than [`HARDWARE_THREADS`] in all.
    parallelism: usize,
    /// Rows per [`Batch`] a probe step evaluates.
    batch_size: usize,
}

impl ExecOptions {
    /// The one place caller-supplied knobs are clamped to at least 1.
    pub fn new(parallelism: usize, batch_size: usize) -> Self {
        ExecOptions {
            parallelism: parallelism.max(1),
            batch_size: batch_size.max(1),
        }
    }

    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::new(1, 256)
    }
}

/// What the machine can run at once, read once: the cap on the threads a
/// fan-out runs on, and one more than the helpers the process ever
/// starts. `parallelism` arrives from outside (a wire frame can ask for
/// four billion), and a count read from the input must not size a
/// resource.
static HARDWARE_THREADS: LazyLock<usize> =
    LazyLock::new(|| std::thread::available_parallelism().map_or(1, usize::from));

/// Runs `work`, turning a panic into the typed worker-panic
/// cancellation: inside a fan-out a panic costs its morsel, not the
/// thread that ran it. The thread's fault attempt ordinal is put back
/// too, which a retry that panicked skipped.
fn contained<T>(work: impl FnOnce() -> Result<T>) -> Result<T> {
    let caught = crate::fault::with_attempt_ordinal(0, || catch_unwind(AssertUnwindSafe(work)));
    caught.unwrap_or(Err(EngineError::Cancelled {
        reason: CancelReason::WorkerPanic,
    }))
}

/// The process's helper threads: started on demand, never more than
/// [`HARDWARE_THREADS`] − 1 of them, and alive as long as the process. A
/// fan-out offers itself here with the seats it has for helpers; an idle
/// helper takes a seat at the oldest open offer, claims morsels until
/// none is left, and goes back to waiting.
struct Helpers {
    offers: Mutex<Offers>,
    wake: Condvar,
}

struct Offers {
    /// Fan-outs that want helpers, oldest first, each with its seats
    /// still open.
    open: VecDeque<(Job, usize)>,
    /// Helper threads started so far.
    started: usize,
}

static HELPERS: Helpers = Helpers {
    offers: Mutex::new(Offers {
        open: VecDeque::new(),
        started: 0,
    }),
    wake: Condvar::new(),
};

/// A fan-out as a helper sees it: claims and runs morsels until none is
/// left to claim.
type Job = Arc<dyn Fn() + Send + Sync>;

impl Helpers {
    /// Offers `job` to `seats` helpers, first starting the ones the
    /// process lacks (each start counted in `spawned`): once as many
    /// helpers are running as the widest fan-out wanted, a fan-out starts
    /// nothing.
    fn offer(&'static self, job: &Job, seats: usize, spawned: &Counter) {
        let missing = {
            let mut offers = self.offers.lock();
            offers.open.push_back((Arc::clone(job), seats));
            let missing = seats.saturating_sub(offers.started);
            offers.started += missing;
            missing
        };
        for _ in 0..missing {
            // A helper lives as long as the process, so nothing joins it;
            // a job contains every panic of the work it runs, so none is
            // hidden by the detached handle.
            match std::thread::Builder::new()
                .name("pp-morsel-helper".into())
                .spawn(|| self.serve())
            {
                Ok(_) => spawned.inc(),
                // The caller claims every morsel nobody helps with.
                Err(_) => self.offers.lock().started -= 1,
            }
        }
        if seats == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    /// Withdraws `job`'s offer once its caller has nothing left to claim,
    /// so no helper wakes for it and nothing it owns outlives it here.
    fn retract(&self, job: &Job) {
        self.offers
            .lock()
            .open
            .retain(|(open, _)| !Arc::ptr_eq(open, job));
    }

    /// A helper's life: take a seat at the oldest open offer, help, and
    /// wait for the next. A job contains every panic of the work it runs,
    /// so no job ends a helper.
    fn serve(&self) {
        let mut offers = self.offers.lock();
        loop {
            let Some((job, seats)) = offers.open.front_mut() else {
                offers = self.wake.wait(offers);
                continue;
            };
            let job = Arc::clone(job);
            *seats -= 1;
            if *seats == 0 {
                offers.open.pop_front();
            }
            drop(offers);
            job();
            drop(job);
            offers = self.offers.lock();
        }
    }
}

/// One fan-out: the morsels and their work, owned so that helpers can
/// hold them, and the claims and results the caller and its helpers
/// share.
struct FanOut<M, T, F> {
    morsels: Vec<M>,
    work: F,
    claims: Mutex<Claims<T>>,
    /// Signalled when the last running morsel finishes while the caller
    /// waits for it.
    settled: Condvar,
}

struct Claims<T> {
    /// The next morsel to claim: morsels are claimed in index order.
    next: usize,
    /// Set by the first morsel that fails: nothing more is claimed.
    stopped: bool,
    /// Morsels claimed and not finished yet.
    running: usize,
    /// Whether the caller is waiting for `running` to reach 0.
    waiting: bool,
    /// One result per claimed morsel, by morsel index.
    slots: Vec<Option<Result<T>>>,
}

impl<M, T, F: Fn(&M) -> Result<T>> FanOut<M, T, F> {
    /// Claims and runs morsels until none is left or one has failed.
    fn drain(&self) {
        loop {
            let i = {
                let mut claims = self.claims.lock();
                if claims.stopped || claims.next == self.morsels.len() {
                    return;
                }
                claims.next += 1;
                claims.running += 1;
                claims.next - 1
            };
            let result = contained(|| (self.work)(&self.morsels[i]));
            let mut claims = self.claims.lock();
            claims.stopped |= result.is_err();
            claims.slots[i] = Some(result);
            claims.running -= 1;
            if claims.running == 0 && claims.waiting {
                self.settled.notify_one();
            }
        }
    }
}

/// One morsel of an operator's input: rows `rows` of the wave's rowset
/// number `part`, the first of them input row `offset` of the operator.
struct Morsel {
    part: usize,
    rows: Range<usize>,
    offset: usize,
}

/// A probe that morsel jobs share: what a filter or processor makes of
/// one [`Batch`], owning everything it reads.
type ProbeFn<P> = Arc<dyn Fn(&Batch<'_>) -> P + Send + Sync>;

/// What an operator body hands to [`Executor::finish`]: its span with
/// everything but `rows_emitted`, `rows_failed` and `wall_nanos` filled
/// in, the rows it produced (as a [`Rowset`] once the body is done; `O` is
/// what a fold accumulates them in), and the terminal error if it stopped
/// early (the work done up to that point is still charged).
struct Finished<O = Rowset> {
    span: OperatorSpan,
    out: O,
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

impl<O> Finished<O> {
    /// The same operator, handing over `into(out)`.
    fn map(self, into: impl FnOnce(O) -> Rowset) -> Finished {
        Finished {
            span: self.span,
            out: into(self.out),
            failure: self.failure,
        }
    }
}

/// What `Process` accumulates, for [`Rowset::extend`]: the processor's
/// cells, and per output row its input row.
struct Appending {
    cells: Vec<Value>,
    from: Vec<usize>,
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

impl Appended {
    /// How many output rows batch row `at` made, read in row order;
    /// `None` past the batch's last row.
    fn rows_of(&mut self, at: usize) -> Option<usize> {
        let ragged = &mut self.ragged;
        (at < self.rows).then(|| ragged.next_if(|r| r.0 == at).map_or(1, |r| r.1))
    }
}

/// A filter batch's [`Probed::firsts`]: the batch's length and the
/// positions its clean first attempts passed, ascending, read in row
/// order from `next` on.
struct Passed {
    rows: usize,
    passed: Vec<u32>,
    next: usize,
}

impl Passed {
    /// Whether batch row `at` passed, read in row order; `None` past the
    /// batch's last row.
    fn verdict(&mut self, at: usize) -> Option<bool> {
        let hit = self.passed.get(self.next) == Some(&(at as u32));
        self.next += usize::from(hit);
        (at < self.rows).then_some(hit)
    }
}

/// What a scan keeps — every row under a bare `Scan`, the passed ones
/// under `Scan → Filter` — and the one place they become a [`Rowset`].
/// The rows a wave keeps are noted as they are met and settled when the
/// wave is done ([`end_wave`](Self::end_wave)): rows of groups their
/// provider keeps resident are kept by index into them, and nothing is
/// copied; a decoded wave's are gathered into one group of exactly their
/// number, a blob block staying a block, so that no decoded group
/// outlives its wave and no tuple is built.
#[derive(Default)]
struct Survivors {
    resident: bool,
    /// The wave's kept rows: (group of the wave, row in it).
    wave: Vec<(usize, usize)>,
    /// Where every kept row so far is: in `table`, or in `gathered`.
    slots: Vec<Slot>,
    /// The rowset resident rows are kept in, once one is met.
    table: Option<Rowset>,
    /// The groups gathered out of decoded waves, one a wave.
    gathered: Vec<Group>,
    /// Rows gathered: what `store.rows_materialized_total` counts.
    materialized: usize,
}

impl Survivors {
    fn new(resident: bool) -> Self {
        Survivors {
            resident,
            ..Survivors::default()
        }
    }

    /// Keeps rows `rows` of the wave's group `group`, in order.
    fn keep(&mut self, group: usize, rows: impl Iterator<Item = usize>) {
        self.wave.extend(rows.map(|row| (group, row)));
    }

    /// Settles the rows kept of `wave`. Resident rows are kept by index
    /// only while every one of them is a row of one rowset; from the
    /// first that is not, every row is gathered, the ones kept by index
    /// first, so the order holds.
    fn end_wave(&mut self, wave: &[Rowset]) {
        let kept = std::mem::take(&mut self.wave);
        if kept.is_empty() {
            return;
        }
        let table = (self.table).get_or_insert_with(|| wave[0].with_slots(Vec::new()));
        if self.resident && self.gathered.is_empty() && wave.iter().all(|w| w.shares_rows(table)) {
            self.slots
                .extend(kept.iter().map(|&(g, row)| wave[g].slot(row)));
        } else {
            if self.gathered.is_empty() && !self.slots.is_empty() {
                let indexed = table.with_slots(std::mem::take(&mut self.slots));
                let all: Vec<_> = (0..indexed.len()).map(|row| (0, row)).collect();
                self.gather(&[indexed], &all);
            }
            self.gather(wave, &kept);
        }
        self.wave = kept;
        self.wave.clear();
    }

    fn gather(&mut self, wave: &[Rowset], kept: &[(usize, usize)]) {
        let group = self.gathered.len();
        let slots = (0..kept.len()).map(|row| Slot { group, row, at: 0 });
        self.slots.extend(slots);
        self.gathered.push(Rowset::gather(wave, kept));
        self.materialized += kept.len();
    }

    fn into_rowset(self, schema: Arc<Schema>) -> Rowset {
        match self.table {
            Some(table) if self.gathered.is_empty() => table.with_slots(self.slots),
            _ => Rowset::from_groups(schema, self.gathered, self.slots),
        }
    }
}

/// A batch's record with where the batch sits in its wave: the rowset's
/// number and the batch's first row within that rowset.
type Located<T> = (usize, usize, T);

/// The input of an operator above a materialized one: its rows, as the
/// only wave.
fn one_wave<X>(rows: Arc<[Rowset]>) -> impl FnMut(&mut X) -> Result<Option<Arc<[Rowset]>>> {
    let mut wave = Some(rows);
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
struct ScanStream {
    provider: Arc<dyn TableProvider>,
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

impl ScanStream {
    fn open(catalog: &Catalog, table: &str, pushdown: Option<&Predicate>) -> Result<Self> {
        let provider = Arc::clone(catalog.provider(table)?);
        Ok(ScanStream {
            kept: crate::provider::kept_groups(provider.as_ref(), pushdown),
            provider,
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
    fn next_wave(&mut self, ex: &Executor<'_>) -> Result<Option<Arc<[Rowset]>>> {
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
        // Group sizes are row counts, so the row-oriented batch size
        // doesn't apply here (parallelism still does).
        let provider = Arc::clone(&self.provider);
        let arity = self.provider.schema().len();
        let wave = ex.run_morsels(self.kept[self.next..end].to_vec(), move |&g| {
            let rows = provider.read_group(g)?;
            crate::row::check_arity(rows.schema(), arity)?;
            Ok(rows)
        })?;
        self.next = end;
        self.bytes += wave_bytes;
        self.rows += wave.iter().map(Rowset::len).sum::<usize>();
        self.wall += start.elapsed();
        self.polled = true;
        Ok(Some(wave.into()))
    }

    /// Keeps every row of every wave left — a bare `Scan`'s body; the
    /// keeping is timed as the scan's own work. The first wave that cannot
    /// be had ends it. What the rows are kept in is sized once, for every
    /// kept group.
    fn keep_all(&mut self, ex: &Executor<'_>, kept: &mut Survivors) -> Result<()> {
        let groups = &self.kept[self.next..];
        let rows = groups.iter().map(|&g| self.provider.group_meta(g).rows);
        kept.slots.reserve(rows.sum());
        kept.gathered.reserve(groups.len());
        while let Some(wave) = self.next_wave(ex)? {
            let start = Instant::now();
            for (part, rows) in wave.iter().enumerate() {
                kept.keep(part, 0..rows.len());
            }
            kept.end_wave(&wave);
            self.wall += start.elapsed();
        }
        Ok(())
    }

    /// Charges the scan for the waves it decoded, wherever the stream
    /// stopped; `materialized` of the rows it kept were gathered out of
    /// decoded groups.
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
        let mut span = ex.flat_span(op, total, SCAN_S_PER_ROW, self.rows);
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
/// the calling thread, in the deterministic consume phase; morsel jobs
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
                self.operator(|ex| ex.process(op, rows, processor))
            }
            LogicalPlan::Select { input, predicate } => {
                let rows = self.run(input)?;
                self.operator(|ex| ex.select(op, rows, predicate))
            }
            LogicalPlan::Filter { input, filter } => match input.as_ref() {
                // Directly above a scan — where every PP is injected —
                // the filter rides the scan's stream.
                LogicalPlan::Scan { table, pushdown } => {
                    self.scan_filter(input.op_label(), table, pushdown.as_ref(), op, filter)
                }
                _ => {
                    let rows = self.run(input)?;
                    let schema = rows.schema().clone();
                    let waves = one_wave(Arc::new([rows]));
                    self.operator(|ex| {
                        let done = ex.filter(op, true, waves, filter)?;
                        Ok(done.map(|kept| kept.into_rowset(schema)))
                    })
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
        let mut span = OperatorSpan::new(op, rows_in);
        span.seconds = n as f64 * unit;
        span.latency.record_n(unit, n as u64);
        span
    }

    /// Runs `work` over `morsels` — row ranges for the row-parallel
    /// operators, row groups for a scan wave — and returns one result per
    /// morsel, in morsel order.
    ///
    /// With `parallelism > 1` the fan-out runs on `parallelism` threads,
    /// but never more than there are morsels or [`HARDWARE_THREADS`]:
    /// the morsels are offered to that many less one of the process's
    /// helper threads ([`Helpers`]), and the calling thread claims
    /// morsels itself: claims come off one
    /// shared counter (work stealing: no static assignment, so one slow
    /// morsel never idles the rest), and a helper busy elsewhere never
    /// holds the query up, because the caller claims whatever nobody
    /// else has. The results are reassembled in morsel order —
    /// bit-identical to the serial walk. Once the caller has nothing left
    /// to claim it withdraws the offer and waits only for the morsels
    /// already running. The fan-out owns what it reads, so `work` and the
    /// morsels are `'static`: `Arc`s of the rowsets, the provider, the
    /// UDF.
    ///
    /// A morsel may return `Err` (cancellation, a group that fails to
    /// decode); the lowest-indexed erroring morsel's error wins and the
    /// other results are discarded — nothing was consumed, so nothing is
    /// charged, matching how an open breaker discards unconsumed probes.
    /// A morsel whose `work` panics, on the caller or a helper, fails
    /// with [`CancelReason::WorkerPanic`] instead of re-raising the
    /// panic, and the thread lives on.
    fn run_morsels<M, T, F>(&self, morsels: Vec<M>, work: F) -> Result<Vec<T>>
    where
        M: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&M) -> Result<T> + Send + Sync + 'static,
    {
        // The threads this fan-out runs on, the caller included.
        let width = self
            .opts
            .parallelism
            .min(morsels.len())
            .min(*HARDWARE_THREADS);
        if width <= 1 {
            let mut out = Vec::with_capacity(morsels.len());
            for morsel in &morsels {
                out.push(work(morsel)?);
            }
            return Ok(out);
        }
        let fan = Arc::new(FanOut {
            claims: Mutex::new(Claims {
                next: 0,
                stopped: false,
                running: 0,
                waiting: false,
                slots: morsels.iter().map(|_| None).collect(),
            }),
            morsels,
            work,
            settled: Condvar::new(),
        });
        let job: Job = {
            let fan = Arc::clone(&fan);
            Arc::new(move || fan.drain())
        };
        self.tel.worker_fanouts.inc();
        HELPERS.offer(&job, width - 1, &self.tel.worker_threads);
        fan.drain();
        HELPERS.retract(&job);
        let slots = {
            let mut claims = fan.claims.lock();
            claims.waiting = true;
            while claims.running > 0 {
                claims = fan.settled.wait(claims);
            }
            std::mem::take(&mut claims.slots)
        };
        // Morsels are claimed in index order and a fan-out stops claiming
        // only at a failed morsel, so every morsel without a result comes
        // after one with an error.
        slots.into_iter().flatten().collect()
    }

    /// Fans `probe` out over the rows of `wave` on the morsel scheduler —
    /// one record per batch, in row order, batches never straddling two
    /// of its rowsets — polling the cancel token and bumping the
    /// `worker.*` counters once per batch. `first_row` is the input index
    /// of the first rowset's first row.
    fn probe<P: Send + 'static>(
        &self,
        wave: &Arc<[Rowset]>,
        first_row: usize,
        probe: &ProbeFn<P>,
    ) -> Result<Vec<Located<P>>> {
        let step = self.opts.batch_size;
        let size = step.saturating_mul(MORSEL_BATCHES);
        let mut morsels = Vec::new();
        let mut offset = first_row;
        for (part, rows) in wave.iter().map(Rowset::len).enumerate() {
            for start in (0..rows).step_by(size) {
                morsels.push(Morsel {
                    part,
                    rows: start..(start + size).min(rows),
                    offset: offset + start,
                });
            }
            offset += rows;
        }
        let (cancel, wave, probe) = (self.cancel.clone(), Arc::clone(wave), Arc::clone(probe));
        let (worker_rows, worker_batches) = (
            self.tel.worker_rows.clone(),
            self.tel.worker_batches.clone(),
        );
        let records = self.run_morsels(morsels, move |m: &Morsel| {
            let mut out = Vec::with_capacity(m.rows.len().div_ceil(step));
            for start in m.rows.clone().step_by(step) {
                let rows = start..(start + step).min(m.rows.end);
                cancel.check()?;
                worker_rows.add(rows.len() as u64);
                worker_batches.inc();
                let offset = m.offset + (start - m.rows.start);
                let batch = Batch::new(&wave[m.part], rows, offset);
                out.push((m.part, start, probe(&batch)));
            }
            Ok(out)
        })?;
        Ok(records.into_iter().flatten().collect())
    }

    /// A `Scan` with nothing riding its stream keeps every row it
    /// decodes, as a filter above it keeps the rows it passes: over a
    /// registered table its output is the table's own rows, by index.
    fn scan(&mut self, op: String, table: &str, pushdown: Option<&Predicate>) -> Result<Rowset> {
        let mut stream = ScanStream::open(self.catalog, table, pushdown)?;
        let schema = stream.provider.schema();
        let mut kept = Survivors::new(stream.provider.resident());
        let done = stream.keep_all(self, &mut kept);
        stream.close(self, op, kept.materialized);
        done.map(|()| kept.into_rowset(schema))
    }

    /// `Scan → Filter`: the filter folds the scan's waves as they are
    /// decoded and keeps the rows it passes. Both spans are pushed when
    /// the stream ends, the scan's first (see the early-stop contract on
    /// [`Executor`]).
    fn scan_filter(
        &mut self,
        scan_op: String,
        table: &str,
        pushdown: Option<&Predicate>,
        op: String,
        filter: &Arc<dyn RowFilter>,
    ) -> Result<Rowset> {
        let mut stream = ScanStream::open(self.catalog, table, pushdown)?;
        let schema = stream.provider.schema();
        let resident = stream.provider.resident();
        let start = Instant::now();
        let done = self.filter(op, resident, |ex| stream.next_wave(ex), filter);
        let wall = start.elapsed().saturating_sub(stream.wall);
        let materialized = done.as_ref().map_or(0, |done| done.out.materialized);
        stream.close(self, scan_op, materialized);
        self.finish(done?.map(|kept| kept.into_rowset(schema)), wall)
    }

    /// `Select` evaluates its bound predicate on each row where the row is
    /// kept — a `Process` output's base cells, then its appended ones —
    /// and keeps rows by index, so a deferred input stays deferred.
    fn select(&mut self, op: String, in_rows: Rowset, predicate: &Predicate) -> Result<Finished> {
        let schema = in_rows.schema().clone();
        let total = in_rows.len();
        let input: Arc<[Rowset]> = Arc::new([in_rows]);
        let predicate = predicate.bind(&schema);
        let eval: ProbeFn<Selection> =
            Arc::new(move |batch| batch.row_refs().map(|row| predicate.eval(row)).collect());
        let mut kept = Vec::new();
        for (_, start, selection) in self.probe(&input, 0, &eval)? {
            // An eval error propagates before the operator charges.
            if let Some((_, e)) = selection.failed.into_iter().next() {
                return Err(e);
            }
            kept.extend(selection.passed.iter().map(|&at| start + at as usize));
        }
        let out = input[0].pick(kept);
        let mut span = self.flat_span(op, total, SELECT_S_PER_ROW, total);
        span.rows_out = out.len() as u64;
        span.rows_filtered = (total - out.len()) as u64;
        Finished::ok(span, out)
    }

    /// A filter's fold: it keeps the rows it passes (`resident`: whether
    /// its waves are rows kept resident anyway, see [`Survivors`]).
    fn filter(
        &mut self,
        op: String,
        resident: bool,
        waves: impl FnMut(&mut Self) -> Result<Option<Arc<[Rowset]>>>,
        filter: &Arc<dyn RowFilter>,
    ) -> Result<Finished<Survivors>> {
        // Safe degradation: a PP is pure data reduction, so on failure
        // the row passes. We lose speed-up on that row, never a result.
        // A filter that gates correctness says so with `fail_open()`.
        let fail_open = filter.fail_open();
        let (name, filter) = (op.clone(), Arc::clone(filter));
        self.fold_udf(
            &op,
            filter.cost_per_row(),
            fail_open.then_some(true),
            Survivors::new(resident),
            waves,
            move |batch| {
                let Selection { passed, failed } = filter.eval_batch(batch);
                let failed = failed
                    .into_iter()
                    .map(|(at, first)| {
                        let at = at as usize;
                        // A retry is the first call again, over the row
                        // alone.
                        let retry = || filter.eval_batch(&batch.one(at)).verdict();
                        (at, resilience::resume_probe(&name, Err(first), retry))
                    })
                    .collect();
                let firsts = Passed {
                    rows: batch.len(),
                    passed,
                    next: 0,
                };
                Probed { firsts, failed }
            },
            |firsts, part, start, out| {
                let rows = firsts.passed.iter().map(|&at| start + at as usize);
                out.keep(part, rows);
                (firsts.rows, firsts.passed.len())
            },
            Passed::verdict,
            |_, part, at, keep, out| {
                if keep {
                    out.keep(part, std::iter::once(at));
                }
                keep
            },
            Survivors::end_wave,
        )
    }

    /// `Process` hands over a deferred [`Rowset`]: each output row is its
    /// input row's base row plus the cells appended to it so far and the
    /// processor's own, all in one buffer — no tuple is built here, and a
    /// second processor reads the first one's cells where they are.
    fn process(
        &mut self,
        op: String,
        in_rows: Rowset,
        processor: &Arc<dyn Processor>,
    ) -> Result<Finished> {
        let out_schema = in_rows.schema().extend(processor.output_columns())?;
        let width = processor.output_columns().len();
        let input: Arc<[Rowset]> = Arc::new([in_rows]);
        let (name, udf) = (op.clone(), Arc::clone(processor));
        let out = Appending {
            cells: Vec::with_capacity(input[0].len() * width),
            from: Vec::with_capacity(input[0].len()),
        };
        let done = self.fold_udf(
            &op,
            processor.cost_per_row(),
            // A processor materializes real columns; its failure cannot
            // be masked.
            None,
            out,
            one_wave(Arc::clone(&input)),
            move |batch| {
                // A processor is scalar: a row's first attempt and its
                // retries are the same call, answering how many output
                // rows it appended to the batch's buffer. An attempt that
                // fails — the UDF's error or a part-written row — is like
                // any other failed call, and leaves no cell behind.
                let udf_name = udf.name();
                let call = |row: RowRef<'_>, schema: &Schema, cells: &mut Vec<Value>| {
                    let process = |out: &mut Vec<Value>| udf.process(row, schema, out);
                    crate::udf::attempt(udf_name, cells, process, |fresh| {
                        crate::udf::output_rows(udf_name, width, fresh.len())
                    })
                };
                let schema = batch.schema();
                let mut cells = Vec::with_capacity(batch.len() * width);
                let (mut ragged, mut failed) = (Vec::new(), Vec::new());
                for (at, row) in batch.row_refs().enumerate() {
                    match call(row, schema, &mut cells) {
                        Ok(1) => {}
                        Ok(rows) => ragged.push((at, rows)),
                        err => {
                            let retry = || call(row, schema, &mut cells);
                            failed.push((at, resilience::resume_probe(&name, err, retry)));
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
            // A clean batch's cells are its rows' output rows', in order.
            |appended, _, start, out| {
                let rows = appended.rows;
                let mut next = 0;
                for (at, made) in appended.ragged {
                    out.from.extend(start + next..start + at);
                    out.from.extend(std::iter::repeat_n(start + at, made));
                    next = at + 1;
                }
                out.from.extend(start + next..start + rows);
                out.cells.extend(appended.cells);
                (rows, rows)
            },
            Appended::rows_of,
            // Every row before this one was emitted too (a row `Process`
            // cannot emit ends it), so the next unread cells are this
            // row's. The input is the only rowset, so `at` is its row.
            |appended, _, at, rows, out| {
                for _ in 0..rows {
                    out.from.push(at);
                    out.cells.extend(appended.cells.by_ref().take(width));
                }
                true
            },
            |_, _| {},
        )?;
        let extend = |Appending { cells, from }| Rowset::extend(&input[0], out_schema, cells, from);
        Ok(done.map(extend))
    }

    /// The probe→consume fold shared by Filter and Process, over the
    /// waves `next_wave` yields until it says `None`.
    ///
    /// Probe phase (morsel jobs): `probe` makes every row's first attempt one
    /// [`Batch`] at a time (vectorizable), and runs the retry loop
    /// (`resume_probe`) of each row whose first attempt failed, yielding
    /// one [`Probed`] record per batch. Pure — no breaker, no counts. If
    /// the breaker is (or becomes) open, the consume phase discards the
    /// affected probes, so charges stay identical to a serial run that
    /// never made those calls.
    ///
    /// Consume phase (calling thread): folds the records into the
    /// operator's breaker and span in row order, driving the breaker and
    /// fail-open exactly as serial execution would. Only a fail-open
    /// operator (`fail_open` holds a value) has a breaker, a local of this
    /// fold: any other stops at its first terminal error. A record with no
    /// failed row, met while the breaker is closed, is folded in closed
    /// form, from its lengths: `clean` hands the record's `firsts` — the
    /// batch's rowset in the wave and first row in it — on to `out` in
    /// bulk and says how many rows the batch had and how many of them
    /// passed; `n` clean rows leave the breaker at no consecutive failures
    /// and the span `n` attempts richer. Every other record walks the
    /// per-row body, which counts each consumed outcome through
    /// `record_outcome`. `first` reads the next clean row's value off the
    /// record's `firsts` (`None` past the batch's last row). `emit`
    /// receives each row — its rowset in the wave and place in it — with
    /// its `Ok` value and the same `firsts`, pushes what the row produces
    /// into `out`, and says whether the row passed (`false` = filtered). A
    /// terminal error emits the row with the value `fail_open` holds, if it
    /// holds one (a filter's: pass the row through unchanged), and stops
    /// the operator otherwise. `end_wave` hands `out` each wave once its
    /// records are consumed, or the operator stopped in it, before the
    /// wave is dropped.
    ///
    /// Everything the fold accumulates — span, overhead, the input row
    /// index, the breaker — is carried from wave to wave, so how the
    /// input is cut into waves changes nothing it reports. A wave that
    /// cannot be had (the scan below was cancelled or failed to decode)
    /// or probed ends the fold: one that
    /// has consumed a wave is charged for what it consumed, one that has
    /// not never ran (`Err`).
    #[allow(clippy::too_many_arguments)]
    fn fold_udf<B: Send + 'static, T: Send + Copy + 'static, O>(
        &mut self,
        op: &str,
        cost_per_row: f64,
        fail_open: Option<T>,
        mut out: O,
        mut next_wave: impl FnMut(&mut Self) -> Result<Option<Arc<[Rowset]>>>,
        probe: impl Fn(&Batch<'_>) -> Probed<B, T> + Send + Sync + 'static,
        mut clean: impl FnMut(B, usize, usize, &mut O) -> (usize, usize),
        mut first: impl FnMut(&mut B, usize) -> Option<T>,
        mut emit: impl FnMut(&mut B, usize, usize, T, &mut O) -> bool,
        mut end_wave: impl FnMut(&mut O, &[Rowset]),
    ) -> Result<Finished<O>> {
        let mut span = OperatorSpan::new(op.to_string(), 0);
        let mut extra_seconds = 0.0;
        let mut failure: Option<EngineError> = None;
        let mut clean_rows: u64 = 0;
        let mut row_idx: u64 = 0;
        let (mut handed, mut consumed_any) = (0usize, false);
        let mut breaker = fail_open.map(|_| Breaker::default());
        // First attempts are attempt 0; a retry loop inside `probe`
        // numbers its own.
        let probe: ProbeFn<Probed<B, T>> =
            Arc::new(move |batch| crate::fault::with_attempt_ordinal(0, || probe(batch)));
        while failure.is_none() {
            let probed = next_wave(self).and_then(|wave| {
                let Some(wave) = wave else { return Ok(None) };
                let first_row = handed;
                handed += wave.iter().map(Rowset::len).sum::<usize>();
                let probes = self.probe(&wave, first_row, &probe)?;
                Ok(Some((wave, probes)))
            });
            let (wave, probes) = match probed {
                Ok(Some(wave)) => wave,
                Ok(None) => break,
                Err(e) if !consumed_any => return Err(e),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            'records: for (part, start, Probed { mut firsts, failed }) in probes {
                if let Err(e) = self.cancel.check() {
                    self.tel
                        .push_event(op, Some(row_idx), EventKind::Cancelled, 1);
                    failure = Some(e);
                    break;
                }
                let open = breaker.as_ref().is_some_and(Breaker::is_open);
                if failed.is_empty() && !open {
                    if let Some(breaker) = &mut breaker {
                        breaker.record(true);
                    }
                    let (n, passed) = clean(firsts, part, start, &mut out);
                    span.rows_out += passed as u64;
                    span.rows_filtered += (n - passed) as u64;
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
                    // `None`: the open breaker skipped the row's calls, which
                    // a serial run would never have made, so its probe is
                    // discarded and nothing is charged.
                    let result = match &mut breaker {
                        Some(breaker) if breaker.is_open() => {
                            span.short_circuited += 1;
                            self.tel
                                .push_event(op, Some(row_idx), EventKind::ShortCircuit, 1);
                            None
                        }
                        breaker => {
                            let outcome = attempt.map_or_else(|probe| probe, ProbeOutcome::first);
                            extra_seconds += outcome.extra_seconds;
                            record_outcome(
                                self.tel,
                                &mut span,
                                Some(row_idx),
                                &outcome,
                                cost_per_row,
                            );
                            if let Some(breaker) = breaker {
                                span.breaker_tripped |= breaker.record(outcome.result.is_ok());
                            }
                            Some(outcome.result)
                        }
                    };
                    let passed = match (result, fail_open) {
                        (Some(Ok(value)), _) => {
                            emit(&mut firsts, part, start + at, value, &mut out)
                        }
                        (_, Some(pass)) => {
                            span.failed_open += 1;
                            self.tel
                                .push_event(op, Some(row_idx), EventKind::FailOpen, 1);
                            emit(&mut firsts, part, start + at, pass, &mut out)
                        }
                        (Some(Err(e)), None) => {
                            // Charge the work done, then bail.
                            failure = Some(e);
                            break 'records;
                        }
                        (None, None) => unreachable!("only a fail-open operator has a breaker"),
                    };
                    span.rows_out += u64::from(passed);
                    span.rows_filtered += u64::from(!passed);
                    row_idx += 1;
                }
            }
            end_wave(&mut out, &wave);
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
        let (indices, cols): (Vec<usize>, Vec<Column>) = project_columns(items, in_rows.schema())?
            .into_iter()
            .unzip();
        let total = in_rows.len();
        let column =
            |i| GroupColumn::Cells(in_rows.row_refs().map(|row| row.get(i).clone()).collect());
        let columns = indices.iter().map(|&i| column(i).into()).collect();
        let out = Rowset::of_group(Schema::new(cols)?, columns, total);
        let mut span = self.flat_span(op, total, PROJECT_S_PER_ROW, total);
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
        let mut build: HashMap<Key, Vec<RowRef<'_>>> = HashMap::new();
        for row in r.row_refs() {
            build.entry(row.get(rk).as_key()?).or_default().push(row);
        }
        let mut out_cols = l.schema().columns().to_vec();
        for c in r.schema().columns() {
            if c.name != *right_key {
                out_cols.push(c.clone());
            }
        }
        let out_schema = Schema::new(out_cols)?;
        let (mut cells, mut rows) = (Vec::new(), 0);
        let mut matched_left: u64 = 0;
        for lrow in l.row_refs() {
            let key = lrow.get(lk).as_key()?;
            if let Some(matches) = build.get(&key) {
                matched_left += 1;
                for rrow in matches {
                    cells.extend(lrow.iter().cloned());
                    let right = rrow.iter().enumerate().filter(|&(i, _)| i != rk);
                    cells.extend(right.map(|(_, v)| v.clone()));
                    rows += 1;
                }
            }
        }
        let out = Rowset::of_cells(out_schema, cells, rows);
        let rows_in = l.len() + r.len();
        let mut span = self.flat_span(op, rows_in, JOIN_S_PER_ROW, rows_in);
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
        let groups = group_first_seen(in_rows.row_refs(), |row| row_key(row, &key_idx))?;
        let mut cells = Vec::with_capacity(groups.len() * out_schema.len());
        for rows in &groups {
            cells.extend(key_idx.iter().map(|&i| rows[0].get(i).clone()));
            for (a, idx) in aggs.iter().zip(&agg_idx) {
                cells.push(eval_agg(a.func, *idx, rows)?);
            }
        }
        let out = Rowset::of_cells(out_schema, cells, groups.len());
        let total = in_rows.len();
        let mut span = self.flat_span(op, total, AGGREGATE_S_PER_ROW, total);
        span.rows_out = total as u64;
        Finished::ok(span, out)
    }

    fn reduce(&mut self, op: String, in_rows: Rowset, reducer: &dyn Reducer) -> Result<Finished> {
        let key_idx = column_indices(in_rows.schema(), reducer.key_columns())?;
        let groups = group_first_seen(in_rows.row_refs(), |row| row_key(row, &key_idx))?;
        let schema = in_rows.schema();
        self.fold_groups(
            op,
            in_rows.len(),
            reducer.name(),
            reducer.output_columns(),
            reducer.cost_per_row(),
            &groups,
            Vec::len,
            |group, out| reducer.reduce(group, schema, out),
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
        let mut rgroups: HashMap<Key, Vec<RowRef<'_>>> = HashMap::new();
        for row in r.row_refs() {
            rgroups.entry(row.get(rk).as_key()?).or_default().push(row);
        }
        // Left groups in first-seen order, each paired with the right
        // group sharing its key; a left group without one never reaches
        // the combiner.
        let mut pairs = Vec::new();
        for lg in group_first_seen(l.row_refs(), |row| row.get(lk).as_key())? {
            if let Some(rg) = rgroups.get(&lg[0].get(lk).as_key()?) {
                pairs.push((lg, rg));
            }
        }
        self.fold_groups(
            op,
            l.len() + r.len(),
            combiner.name(),
            combiner.output_columns(),
            combiner.cost_per_row(),
            &pairs,
            |(lg, rg)| lg.len() + rg.len(),
            |(lg, rg), out| combiner.combine(lg, rg, l.schema(), r.schema(), out),
        )
    }

    /// The group-invocation loop shared by Reduce and Combine: one
    /// resilient `call` per group, serially on the calling thread, until
    /// the first group whose call still fails after retries. A call
    /// appends its output rows' cells to the operator's one buffer, all
    /// or nothing, as a processor's does (`udf::attempt`): a whole number
    /// of rows of the UDF's declared `columns`, or the call failed. Group
    /// UDFs are charged per input row; a retried group re-pays for each
    /// of its `size` rows. Input rows that reached no group (Combine's
    /// unmatched keys) count as filtered.
    #[allow(clippy::too_many_arguments)]
    fn fold_groups<G>(
        &mut self,
        op: String,
        rows_in: usize,
        udf: &str,
        columns: &[Column],
        cost_per_row: f64,
        groups: &[G],
        size: impl Fn(&G) -> usize,
        call: impl Fn(&G, &mut Vec<Value>) -> Result<()>,
    ) -> Result<Finished> {
        let out_schema = Schema::new(columns.to_vec())?;
        let mut span = OperatorSpan::new(op.clone(), rows_in);
        let (mut cells, mut rows) = (Vec::new(), 0);
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
            let outcome = resilience::probe(&op, || {
                crate::udf::attempt(
                    udf,
                    &mut cells,
                    |out| call(group, out),
                    |fresh| crate::udf::output_rows(udf, columns.len(), fresh.len()),
                )
            });
            record_outcome(self.tel, &mut span, None, &outcome, n as f64 * cost_per_row);
            retried_rows += outcome.attempts.saturating_sub(1) as usize * n;
            extra_seconds += outcome.extra_seconds;
            match outcome.result {
                Ok(made) => {
                    span.rows_out += n as u64;
                    rows += made;
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
        let out = Rowset::of_cells(out_schema, cells, rows);
        Ok(Finished { span, out, failure })
    }
}

/// Counts one consumed UDF outcome — a row's for Filter/Process (`row` is
/// its input index), a group's for Reduce/Combine — into the operator's
/// span and event stream. This is the only place recovery work is
/// counted, and it runs on the calling thread in consume order, which is what
/// the determinism contract rests on. `unit` is what one attempt costs.
fn record_outcome<T>(
    tel: &mut SpanCollector,
    span: &mut OperatorSpan,
    row: Option<u64>,
    outcome: &ProbeOutcome<T>,
    unit: f64,
) {
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
}

fn column_indices(schema: &Schema, names: &[String]) -> Result<Vec<usize>> {
    names.iter().map(|n| schema.index_of(n)).collect()
}

fn row_key(row: RowRef<'_>, key_idx: &[usize]) -> Result<Vec<Key>> {
    key_idx.iter().map(|&i| row.get(i).as_key()).collect()
}

/// Groups `rows` by `key`, groups in first-seen key order and rows in
/// input order within each — which keeps grouped output deterministic.
fn group_first_seen<'a, K: Hash + Eq>(
    rows: impl Iterator<Item = RowRef<'a>>,
    key: impl Fn(RowRef<'a>) -> Result<K>,
) -> Result<Vec<Vec<RowRef<'a>>>> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<RowRef<'a>>> = Vec::new();
    for row in rows {
        let slot = *index.entry(key(row)?).or_insert(groups.len());
        if slot == groups.len() {
            groups.push(Vec::new());
        }
        groups[slot].push(row);
    }
    Ok(groups)
}

fn eval_agg(func: AggFunc, col: Option<usize>, rows: &[RowRef<'_>]) -> Result<Value> {
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
    use crate::row::Row;
    use crate::schema::DataType;
    use crate::udf::{ClosureFilter, ClosureProcessor, ClosureReducer};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

    /// Runs `plan` under the one recovery policy; the spans are the
    /// charges.
    fn run(plan: &LogicalPlan, cat: &Catalog) -> Result<(Rowset, Vec<OperatorSpan>)> {
        let mut tel = SpanCollector::detached();
        let out = run_with(plan, cat, &mut tel)?;
        Ok((out, tel.spans().to_vec()))
    }

    fn run_with(plan: &LogicalPlan, cat: &Catalog, tel: &mut SpanCollector) -> Result<Rowset> {
        run_opts(plan, cat, ExecOptions::default(), tel)
    }

    fn run_opts(
        plan: &LogicalPlan,
        cat: &Catalog,
        opts: ExecOptions,
        tel: &mut SpanCollector,
    ) -> Result<Rowset> {
        Executor {
            catalog: cat,
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
            |group, schema, out| {
                let cam = group[0].get_named(schema, "cam")?.clone();
                out.extend([cam, Value::Int(group.len() as i64)]);
                Ok(())
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
        fn combine(
            &self,
            l: &[RowRef<'_>],
            r: &[RowRef<'_>],
            ls: &Schema,
            _: &Schema,
            out: &mut Vec<Value>,
        ) -> Result<()> {
            let cam = l[0].get_named(ls, "cam")?.clone();
            out.extend([cam, Value::Int((l.len() * r.len()) as i64)]);
            Ok(())
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

    /// Holds each thread that meets it until `parties` have, so that a
    /// fan-out whose morsels all meet it must have run them on that many
    /// threads, whichever claimed which. A broken pool fails the meeting
    /// after a generous wait instead of hanging the test.
    struct Gate {
        arrived: Mutex<usize>,
        all_in: Condvar,
        parties: usize,
        failed: AtomicBool,
    }

    impl Gate {
        fn new(parties: usize) -> Arc<Gate> {
            Arc::new(Gate {
                arrived: Mutex::new(0),
                all_in: Condvar::new(),
                parties,
                failed: AtomicBool::new(false),
            })
        }

        fn meet(&self) {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut arrived = self.arrived.lock();
            *arrived += 1;
            self.all_in.notify_all();
            while *arrived < self.parties {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    self.failed.store(true, Ordering::SeqCst);
                    return;
                }
                arrived = self.all_in.wait_timeout(arrived, left).0;
            }
        }

        fn met(&self) -> bool {
            !self.failed.load(Ordering::SeqCst)
        }
    }

    /// `frames` at parallelism 4, batch size 2: two morsels (rows 0..8
    /// and 8..10), so the fan-out is the caller and one helper seat on
    /// any machine with two hardware threads or more. Each morsel's
    /// first row meets `gate`, which makes the two run on two threads —
    /// the caller and a helper — and then `kernel` decides the row.
    fn gated_k4_run(gate: &Arc<Gate>, kernel: fn(i64) -> bool) -> (Result<Rowset>, SpanCollector) {
        let gate = Arc::clone(gate);
        let filter = Arc::new(ClosureFilter::new("PP[gated]", 0.1, move |row, _| {
            let id = row.get(0).as_int()?;
            if id % 8 == 0 {
                gate.meet();
            }
            Ok(kernel(id))
        }));
        let mut tel = SpanCollector::detached();
        let result = catalog().and_then(|cat| {
            run_opts(
                &LogicalPlan::scan("frames").filter(filter),
                &cat,
                ExecOptions::new(4, 2),
                &mut tel,
            )
        });
        (result, tel)
    }

    /// A kernel that panics costs its morsel, not the process, whether
    /// the caller or a helper claimed the morsel: the run ends with the
    /// typed worker-panic cancellation and the filter, whose probes were
    /// never consumed, charges nothing.
    #[test]
    fn panicking_kernel_at_k4_is_a_typed_error() {
        if *HARDWARE_THREADS < 2 {
            // No fan-out on this machine: the kernel would run (and
            // panic) on the caller's own thread, as at K = 1.
            return;
        }
        // Both morsels panic, one on the caller and one on a helper; then
        // only the first does, while its sibling on the other thread
        // succeeds.
        let kernels: [fn(i64) -> bool; 2] = [
            |_| panic!("kernel bug"),
            |id| if id < 8 { panic!("kernel bug") } else { true },
        ];
        for kernel in kernels {
            let gate = Gate::new(2);
            let (result, tel) = gated_k4_run(&gate, kernel);
            assert!(gate.met(), "the two morsels ran on one thread");
            assert!(matches!(
                result,
                Err(EngineError::Cancelled {
                    reason: CancelReason::WorkerPanic
                })
            ));
            assert_eq!(tel.spans().len(), 1, "only the scan charged");
            assert!(tel.spans()[0].op.starts_with("Scan"));
        }
    }

    /// A helper lives through the panic of a job it ran: a K = 4 run
    /// after a panicked one still fans out onto a helper, returns the
    /// K = 1 rows, and starts no thread.
    #[test]
    fn a_helper_survives_its_jobs_panic() -> Result<()> {
        if *HARDWARE_THREADS < 2 {
            return Ok(());
        }
        let panicked = Gate::new(2);
        let (result, _) = gated_k4_run(&panicked, |_| panic!("kernel bug"));
        assert!(panicked.met(), "the two morsels ran on one thread");
        assert!(result.is_err());

        let gate = Gate::new(2);
        let (rows, tel) = gated_k4_run(&gate, |id| id % 2 == 0);
        assert!(gate.met(), "no helper ran a morsel after the panic");
        let even = Arc::new(ClosureFilter::new("PP[gated]", 0.1, |row, _| {
            Ok(row.get(0).as_int()? % 2 == 0)
        }));
        let (serial, _) = run(&LogicalPlan::scan("frames").filter(even), &catalog()?)?;
        assert_eq!(
            format!("{:?}", rows?.rows()),
            format!("{:?}", serial.rows())
        );
        assert_eq!(tel.worker_fanouts.get(), 1);
        assert_eq!(
            tel.worker_threads.get(),
            0,
            "the helper was already running"
        );
        Ok(())
    }

    /// The consume loop polls the token at the first row of every batch
    /// record (here rows 0, 100, 200; the first morsel holds all three).
    #[test]
    fn consume_polls_cancellation_at_each_batch_records_first_row() -> Result<()> {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)])?;
        let rows = (0..300).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let in_rows = Rowset::new(Arc::clone(&schema), rows)?;
        let token = CancelToken::new();
        let mut tel = SpanCollector::detached();
        let done = Executor {
            catalog: &Catalog::new(),
            opts: ExecOptions::new(1, 100),
            tel: &mut tel,
            cancel: &token,
        }
        .fold_udf(
            "PP[poll]",
            0.1,
            Some(true),
            0,
            one_wave(Arc::new([in_rows])),
            |batch| Probed {
                firsts: 0..batch.len(),
                failed: Vec::<(usize, ProbeOutcome<bool>)>::new(),
            },
            // Stands in for a caller cancelling while the fold consumes:
            // the token fires in the second batch.
            |rows, _, start, out| {
                if (start..start + rows.len()).contains(&150) {
                    token.cancel(CancelReason::Requested);
                }
                *out += rows.len();
                (rows.len(), rows.len())
            },
            |rows, _| rows.next().map(|_| true),
            |_, _, _, keep, out| {
                *out += 1;
                keep
            },
            |_, _| {},
        )?;
        assert!(matches!(
            done.failure,
            Some(EngineError::Cancelled {
                reason: CancelReason::Requested
            })
        ));
        // The second batch was consumed to its end and is charged; the
        // third was never started.
        assert_eq!((done.out, done.span.attempts), (200, 200));
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

    /// Survivors of resident rows are kept by index, those of a decoded
    /// wave gathered into a group of their own; once a wave is gathered,
    /// or resident rows of a second rowset come, every row is gathered,
    /// the order kept.
    #[test]
    fn survivors_of_mixed_sources_keep_their_order() -> Result<()> {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)])?;
        let table = |ids: std::ops::Range<i64>| -> Result<Rowset> {
            let rows = ids.map(|i| Row::new(vec![Value::Int(i)])).collect();
            Rowset::new(Arc::clone(&schema), rows)
        };
        let (first, second) = (table(0..4)?, table(10..14)?);
        let decoded = Rowset::from_columns(
            Arc::clone(&schema),
            vec![crate::row::GroupColumn::Cells(
                (20..24).map(Value::Int).collect(),
            )],
        )?;
        let ids = |kept: Survivors| -> Result<Vec<i64>> {
            let out = kept.into_rowset(Arc::clone(&schema));
            out.row_refs().map(|row| row.get(0).as_int()).collect()
        };
        let wave = |rows: &Rowset, keep: &[usize], kept: &mut Survivors| {
            kept.keep(0, keep.iter().copied());
            kept.end_wave(std::slice::from_ref(rows));
        };
        let mut one_table = Survivors::new(true);
        wave(&first, &[1, 3], &mut one_table);
        wave(&first.window(0..2), &[0], &mut one_table);
        assert_eq!((one_table.gathered.len(), one_table.materialized), (0, 0));
        assert_eq!(ids(one_table)?, [1, 3, 0]);
        let mut mixed = Survivors::new(true);
        wave(&first, &[2], &mut mixed);
        wave(&second, &[0, 3], &mut mixed);
        wave(&first, &[1], &mut mixed);
        assert_eq!(ids(mixed)?, [2, 10, 13, 1]);
        let mut decoded_waves = Survivors::new(false);
        wave(&decoded, &[1], &mut decoded_waves);
        wave(&decoded, &[], &mut decoded_waves);
        wave(&decoded, &[0, 3], &mut decoded_waves);
        assert_eq!(
            decoded_waves.gathered.len(),
            2,
            "a group a wave that kept rows"
        );
        assert_eq!(ids(decoded_waves)?, [21, 20, 23]);
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
        // A poisoned row is not retried: one call, one terminal failure.
        let dead = Arc::new(ClosureFilter::new("PP[dead]", 0.1, |_, _| {
            Err::<bool, _>(EngineError::PoisonedRow("model server down".into()))
        }));
        let plan = LogicalPlan::scan("frames").filter(dead);
        let mut tel = SpanCollector::detached();
        let out = run_with(&plan, &cat, &mut tel)?;
        // Fail-open: every row passes despite the filter being dead.
        assert_eq!(out.len(), 10);
        let pp = find_op(tel.spans(), "PP[dead]")?;
        // 5 real failures trip the breaker; the remaining 5 rows skip the
        // call entirely, each short-circuited and then failed open.
        assert!(pp.breaker_tripped);
        assert_eq!(pp.attempts, 5);
        assert_eq!(pp.short_circuited, 5);
        assert_eq!(pp.failed_open, 10);
        // Only the 5 attempted calls are charged.
        assert!((pp.seconds - 0.5).abs() < 1e-9);
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
            fn passes(&self, _: RowRef<'_>, _: &Schema) -> Result<bool> {
                Err(EngineError::PoisonedRow("down".into()))
            }
            fn fail_open(&self) -> bool {
                false
            }
        }
        let cat = catalog()?;
        let plan = LogicalPlan::scan("frames").filter(Arc::new(Gate));
        let err = match run_with(&plan, &cat, &mut SpanCollector::detached()) {
            Err(e) => e,
            Ok(_) => return Err(EngineError::InvalidPlan("expected failure".into())),
        };
        assert!(matches!(err, EngineError::PoisonedRow(_)));
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
        let err = match run_with(&plan, &cat, &mut tel) {
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

    /// A processor stops at its first terminal failure, so it has no
    /// breaker to trip: the error comes back and no trip is reported
    /// anywhere.
    #[test]
    fn a_failed_processor_trips_nothing() -> Result<()> {
        let cat = catalog()?;
        let broken = Arc::new(ClosureProcessor::map(
            "Broken",
            vec![Column::new("y", DataType::Int)],
            1.0,
            |_, _, _| Err(EngineError::PoisonedRow("bad frame".into())),
        ));
        let plan = LogicalPlan::scan("frames").process(broken);
        let mut ctx = crate::exec::ExecutionContext::new(&cat);
        assert!(matches!(ctx.run(&plan), Err(EngineError::PoisonedRow(_))));
        let snapshot = ctx.telemetry().expect("a snapshot after a failed run");
        let p = snapshot.span("Process[Broken]").expect("the processor ran");
        assert_eq!((p.attempts, p.failures), (1, 1));
        assert!(!p.breaker_tripped);
        assert!(snapshot
            .events
            .iter()
            .all(|e| e.kind != EventKind::BreakerOpened));
        assert_eq!(ctx.registry().counter("breaker_trips_total").get(), 0);
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
            fn process(&self, row: RowRef<'_>, _: &Schema, out: &mut Vec<Value>) -> Result<()> {
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
        match run_with(&plan, &cat, &mut tel) {
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

    /// A reducer or a combiner appends its cells under the processor's
    /// rule: an attempt that fails leaves none of them, and a part-written
    /// row is a failed call — counted, charged, the span closed failed —
    /// not an `InvalidPlan` out of the middle of the operator. Each group
    /// UDF here writes a cell and fails transiently, is retried, and
    /// writes a row short of its two columns; every attempt finds the
    /// buffer as the groups before it left it.
    #[test]
    fn a_short_row_from_a_reducer_or_combiner_is_a_charged_udf_failure() -> Result<()> {
        use crate::sync::Mutex;
        /// Group 0 writes its row; group 1 fails as described. Notes the
        /// buffer's length at the start of every attempt.
        fn short(group: i64, out: &mut Vec<Value>, seen: &Mutex<Vec<usize>>) -> Result<()> {
            let mut seen = seen.lock();
            seen.push(out.len());
            out.push(Value::Int(group));
            match (group, seen.len()) {
                (0, _) => out.push(Value::Int(0)),
                (_, 2) => return Err(EngineError::Transient("after one cell".into())),
                _ => {}
            }
            Ok(())
        }
        let columns = vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let noted = Arc::clone(&seen);
        let reducer = Arc::new(ClosureReducer::new(
            "Short",
            vec!["cam".into()],
            columns.clone(),
            1.0,
            move |group, schema, out| {
                let cam = group[0].get_named(schema, "cam")?.as_str()?;
                short(i64::from(cam == "C2"), out, &noted)
            },
        ));
        struct ShortPairs(Vec<Column>, Arc<Mutex<Vec<usize>>>);
        impl Combiner for ShortPairs {
            fn name(&self) -> &str {
                "Short"
            }
            fn left_key(&self) -> &str {
                "cam"
            }
            fn right_key(&self) -> &str {
                "cam"
            }
            fn output_columns(&self) -> &[Column] {
                &self.0
            }
            fn cost_per_row(&self) -> f64 {
                1.0
            }
            fn combine(
                &self,
                l: &[RowRef<'_>],
                _: &[RowRef<'_>],
                ls: &Schema,
                _: &Schema,
                out: &mut Vec<Value>,
            ) -> Result<()> {
                let cam = l[0].get_named(ls, "cam")?.as_str()?;
                short(i64::from(cam == "C2"), out, &self.1)
            }
        }
        let cat = catalog()?;
        let combiner = Arc::new(ShortPairs(columns, Arc::clone(&seen)));
        let plans = [
            ("Reduce[Short]", LogicalPlan::scan("frames").reduce(reducer)),
            (
                "Combine[Short]",
                LogicalPlan::Combine {
                    left: Box::new(LogicalPlan::scan("frames")),
                    right: Box::new(LogicalPlan::scan("frames")),
                    combiner,
                },
            ),
        ];
        for (op, plan) in plans {
            seen.lock().clear();
            let mut tel = SpanCollector::detached();
            match run_with(&plan, &cat, &mut tel) {
                Err(EngineError::RetriesExhausted { attempts, last, .. }) => {
                    assert_eq!(attempts, 2, "{op}");
                    assert!(
                        matches!(*last, EngineError::Udf(ref m)
                            if m == "Short: produced 1 cells, declared 2 output columns"),
                        "{op}: {last:?}"
                    );
                }
                other => panic!("{op}: expected exhausted retries, got {other:?}"),
            }
            // Group 0's row stays; each of group 1's attempts starts behind it.
            assert_eq!(*seen.lock(), [0, 2, 2], "{op}");
            let span = find_op(tel.spans(), op)?;
            assert_eq!(
                (span.attempts, span.retries, span.failures),
                (3, 1, 2),
                "{op}"
            );
            assert!(span.rows_failed > 0 && span.seconds > 0.0, "{op}: {span:?}");
        }
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

    /// Nothing checks a processor's output: a NaN cell flows on like any
    /// other value.
    #[test]
    fn a_nan_cell_flows_on() -> Result<()> {
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
        let (out, spans) = run(&plan, &cat)?;
        assert_eq!(out.len(), 10);
        assert!(out.rows()[0].get(2).as_float()?.is_nan());
        assert_eq!(find_op(&spans, "Process[NanGen]")?.failures, 0);
        Ok(())
    }

    #[test]
    fn default_resilience_matches_seed_charging() -> Result<()> {
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
