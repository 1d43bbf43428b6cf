//! The online accuracy auditor: measures the paper's guarantee in
//! production.
//!
//! The planner promises each query an accuracy target `a` (Eq. 8–10):
//! the PP prefix may drop blobs, but the fraction of *true* result blobs
//! lost must stay below `1 - a`. Nothing in the serving path ever
//! verifies that promise — validation-set accuracy curves can drift
//! arbitrarily far from served-data reality. This module closes the
//! loop:
//!
//! 1. **Record** (`Auditor::observe`, called on the hot path): every
//!    completed query whose plan carried a PP prefix that actually
//!    dropped blobs enqueues a lightweight audit task (its cached plan
//!    `Arc`, source, result-row count, and the rows the PP dropped, read
//!    from the span of the plan's chosen filter,
//!    [`ChosenPlan::filter_op`](pp_core::planner::ChosenPlan::filter_op)).
//!    No replay work happens here.
//! 2. **Replay** (`run_pass`, called from the maintenance pass, off
//!    the hot path): each task reads the rows its plan's own `Scan`
//!    handed the PP (zone-map pushdown included; each distinct scan is
//!    read once per pass). A deterministic seeded per-`(query, row)` coin
//!    picks a configured fraction of them by their index in that read,
//!    and one batch through a filter built fresh from the cached plan's
//!    PP expression ([`CachedPlan::pp_filter`]) finds which picked rows
//!    the PP drops — fresh, so the served filter's counters count served
//!    runs only. Those rows run through the executor as a table of their
//!    own, under the source's *ground-truth* UDFs and the query predicate
//!    (the source's plan before PPs, less its project: each conjunct's
//!    select right after the last UDF it reads). Each distinct
//!    blob in the output (by `Arc`, however many rows it derived) is a
//!    **false drop**.
//!    The replay's `Process` spans are the audit's bill, summed into the
//!    auditor's own cluster-seconds — it never touches any query's bill,
//!    verdicts, or telemetry. A replay that fails (a UDF still failing
//!    after the executor's retries) gives no evidence for its task.
//! 3. **Verify** (Wilson interval): per PP expression, the false-drop
//!    fraction `f` among sampled dropped blobs gets a Wilson score upper
//!    confidence bound `f⁺` (robust at small samples and extreme rates,
//!    unlike the normal approximation). With `R` result rows and `D`
//!    dropped rows observed, achieved accuracy is bounded below by
//!    `R / (R + f⁺·D)`. When that lower bound falls under the promised
//!    `a`, the auditor raises
//!    [`QuarantineReason::AccuracyViolation`](pp_core::runtime::QuarantineReason)
//!    for every one of the plan's leaf keys through the shared
//!    [`RuntimeMonitor`](pp_core::runtime::RuntimeMonitor) — the planner
//!    then excludes those PPs, and the same maintenance pass rebuilds
//!    every cached plan that uses one, since a quarantined leaf makes a
//!    plan [`stale`](pp_core::runtime::RuntimeMonitor::stale) whatever
//!    the cause.
//!
//! Sampling is a pure function of `(SEED, request id, row index)` — the
//! row's index in its scan's read — so two servers (or two runs) with
//! identical submission sequences audit byte-identical row sets — pinned
//! by `tests/audit.rs`.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use pp_core::expr::PpExprFilter;
use pp_engine::exec::ExecutionContext;
use pp_engine::row::Rowset;
use pp_engine::sync::Mutex;
use pp_engine::telemetry::{MetricsRegistry, TelemetrySnapshot};
use pp_engine::udf::RowFilter;
use pp_engine::{Batch, LogicalPlan};
use pp_linalg::rng::{hash2, splitmix64, unit};

use crate::cache::CachedPlan;
use crate::server::ServerInner;
use crate::source::SourceSpec;

/// The accuracy audit's one setting: how much it samples. The audit is
/// always on.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Fraction of PP-dropped blobs replayed per audited query, in
    /// `[0, 1]`.
    pub sample_fraction: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            sample_fraction: 0.25,
        }
    }
}

/// Seed of the deterministic per-`(query, row)` sampling coin.
const SEED: u64 = 0xA0D17;

/// Minimum sampled replays for a PP expression before its Wilson bound
/// is trusted enough to quarantine.
pub const MIN_REPLAYS: u64 = 30;

/// Audit tasks drained per maintenance pass (backpressure bound).
pub const MAX_TASKS_PER_PASS: usize = 64;

/// The most audit tasks that wait for replay: four passes' worth. With no
/// maintenance pass draining it (the server runs one only when asked) the
/// queue would otherwise grow with every query, each task pinning a plan
/// the cache may have evicted; past the bound the oldest task is dropped
/// and counted in `server.audit.dropped_total`.
pub const MAX_PENDING: usize = 4 * MAX_TASKS_PER_PASS;

/// Wilson interval z-score of the achieved-accuracy bound (1.96 ≈ 95%
/// confidence).
const WILSON_Z: f64 = 1.96;

/// One completed query awaiting audit replay.
struct AuditTask {
    request_id: u64,
    source: String,
    plan: Arc<CachedPlan>,
    result_rows: u64,
    /// The rows the run's PP dropped.
    dropped_rows: u64,
}

/// Cumulative audit evidence for one PP expression.
#[derive(Debug, Clone, Default)]
struct ExprStats {
    leaf_keys: Vec<String>,
    promised: f64,
    queries: u64,
    result_rows: u64,
    dropped_rows: u64,
    sampled: u64,
    false_drops: u64,
    violated: bool,
}

/// Public snapshot of one PP expression's audit state.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// Display form of the plan's injected PP expression.
    pub expr: String,
    /// Canonical keys of the expression's leaf PPs.
    pub leaf_keys: Vec<String>,
    /// The strictest (smallest) accuracy promised by plans using this
    /// expression.
    pub promised_accuracy: f64,
    /// Queries audited.
    pub queries: u64,
    /// Result rows across audited queries.
    pub result_rows: u64,
    /// PP-dropped rows across audited queries.
    pub dropped_rows: u64,
    /// Dropped rows sampled and replayed through the UDF pipeline.
    pub sampled: u64,
    /// Sampled rows the ground-truth pipeline said were wrongly dropped.
    pub false_drops: u64,
    /// Wilson lower confidence bound on achieved accuracy
    /// (`R / (R + f⁺·D)`); `1.0` until any row is sampled.
    pub achieved_accuracy_lower_bound: f64,
    /// Whether this expression has triggered an accuracy quarantine.
    pub violated: bool,
}

/// What one audit pass did (folded into the
/// [`MaintenanceReport`](crate::maintenance::MaintenanceReport)).
#[derive(Debug, Clone, Default)]
pub struct AuditPassReport {
    /// Queries audited this pass.
    pub audited: usize,
    /// Dropped blobs replayed through the UDF pipeline this pass.
    pub replays: u64,
    /// Replays the ground truth flagged as false drops this pass.
    pub false_drops: u64,
    /// Leaf PP keys newly quarantined for accuracy this pass.
    pub violated_keys: Vec<String>,
}

struct AuditState {
    pending: VecDeque<AuditTask>,
    stats: BTreeMap<String, ExprStats>,
    /// Simulated cluster-seconds of every replay so far: a sum, so the
    /// state is O(expressions), not O(replays).
    audit_seconds: f64,
}

/// The server's accuracy auditor. Hot-path `observe` only enqueues; all
/// replay work happens in `run_pass`, on the thread of whoever asked for
/// the maintenance pass.
pub struct Auditor {
    state: Mutex<AuditState>,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor").finish_non_exhaustive()
    }
}

impl Auditor {
    pub(crate) fn new() -> Self {
        Auditor {
            state: Mutex::new(AuditState {
                pending: VecDeque::new(),
                stats: BTreeMap::new(),
                audit_seconds: 0.0,
            }),
        }
    }

    /// Hot-path record: enqueue a completed PP-bearing query for audit.
    /// Skips (cheaply) when the plan chose no PPs or when the PP prefix
    /// filtered nothing — there is nothing to audit.
    pub(crate) fn observe(
        &self,
        request_id: u64,
        source: &str,
        plan: &Arc<CachedPlan>,
        telemetry: &TelemetrySnapshot,
        result_rows: usize,
        metrics: &MetricsRegistry,
    ) {
        let Some(chosen) = &plan.report.chosen else {
            return;
        };
        let op = chosen.filter_op();
        let dropped = telemetry
            .spans
            .iter()
            .find(|s| s.op == op)
            .map_or(0, |s| s.rows_filtered);
        if dropped == 0 {
            return;
        }
        let mut state = self.state.lock();
        state.pending.push_back(AuditTask {
            request_id,
            source: source.to_string(),
            plan: Arc::clone(plan),
            result_rows: result_rows as u64,
            dropped_rows: dropped,
        });
        if state.pending.len() > MAX_PENDING {
            state.pending.pop_front();
            metrics.counter("server.audit.dropped_total").inc();
        }
    }

    /// Queries recorded but not yet replayed.
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Simulated cluster-seconds charged to audit replays so far —
    /// metered separately from every query's own bill.
    pub fn cluster_seconds(&self) -> f64 {
        self.state.lock().audit_seconds
    }

    /// Current audit evidence per PP expression, in stable (sorted
    /// expression) order.
    pub fn entries(&self) -> Vec<AuditEntry> {
        let state = self.state.lock();
        state
            .stats
            .iter()
            .map(|(expr, s)| AuditEntry {
                expr: expr.clone(),
                leaf_keys: s.leaf_keys.clone(),
                promised_accuracy: s.promised,
                queries: s.queries,
                result_rows: s.result_rows,
                dropped_rows: s.dropped_rows,
                sampled: s.sampled,
                false_drops: s.false_drops,
                achieved_accuracy_lower_bound: achieved_lower_bound(s),
                violated: s.violated,
            })
            .collect()
    }
}

/// Wilson score upper confidence bound on a Bernoulli proportion with
/// `hits` successes in `n` trials. Chosen over the normal approximation
/// because audit samples are small and false-drop rates sit near 0,
/// exactly where the normal interval collapses to zero width and
/// under-covers.
fn wilson_upper(hits: u64, n: u64, z: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    let p = hits as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center + half) / denom).clamp(0.0, 1.0)
}

/// Lower bound on achieved accuracy: with `R` kept result rows, `D`
/// dropped rows, and `f⁺` the Wilson upper bound on the false-drop
/// fraction, at most `f⁺·D` true results were lost, so accuracy is at
/// least `R / (R + f⁺·D)`.
///
/// The audit samples from a *finite* population (the `D` dropped rows),
/// so the half-width carries the finite-population correction
/// `√((N−n)/(N−1))`: at `sample_fraction = 1.0` every drop was replayed,
/// there is no sampling uncertainty left, and the bound collapses to the
/// exact measured rate instead of the Wilson floor `z²/(n+z²)` — which
/// would otherwise condemn highly selective queries (tiny `R`) on zero
/// observed false drops.
fn achieved_lower_bound(s: &ExprStats) -> f64 {
    if s.sampled == 0 {
        return 1.0;
    }
    let fpc = if s.sampled >= s.dropped_rows || s.dropped_rows <= 1 {
        0.0
    } else {
        let n = s.sampled as f64;
        let pop = s.dropped_rows as f64;
        ((pop - n) / (pop - 1.0)).sqrt()
    };
    let f_upper = wilson_upper(s.false_drops, s.sampled, WILSON_Z * fpc);
    let r = s.result_rows as f64;
    let lost = f_upper * s.dropped_rows as f64;
    if r + lost <= 0.0 {
        1.0
    } else {
        r / (r + lost)
    }
}

/// The deterministic sampling coin: a pure function of
/// `(SEED, request id, row index)` and the configured fraction.
fn sampled(request_id: u64, row_idx: u64, fraction: f64) -> bool {
    unit(splitmix64(SEED ^ hash2(request_id, row_idx))) < fraction
}

/// The `Scan` the plan's filter `op` rides: what the run handed its PP.
fn pp_scan<'a>(plan: &'a LogicalPlan, op: &str) -> Option<&'a LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, filter } if filter.name() == op => {
            matches!(**input, LogicalPlan::Scan { .. }).then_some(&**input)
        }
        _ => plan.children().find_map(|child| pp_scan(child, op)),
    }
}

/// What one task's replay found.
#[derive(Default)]
struct Evidence {
    /// Picked rows the PP drops, replayed.
    sampled: u64,
    /// Of those, the rows whose ground truth satisfies the predicate.
    false_drops: u64,
    /// The replay's `Process` spans' seconds.
    seconds: f64,
}

/// Picks `task`'s rows of `read` (what its plan's scan hands the PP) by
/// the coin, keeps the ones `filter`'s PP expression drops, and replays
/// them through `spec`'s ground-truth UDFs and the query predicate, as a
/// table of their own in a catalog pinned to them. The blobs in the replay's
/// output are the false drops, matched by `Arc` as
/// [`harvest_labels`](pp_core::train::harvest_labels) matches them.
fn replay(
    inner: &ServerInner,
    spec: &SourceSpec,
    task: &AuditTask,
    filter: &PpExprFilter,
    read: &Rowset,
    fraction: f64,
) -> Evidence {
    let picked = (0..read.len()).filter(|&idx| sampled(task.request_id, idx as u64, fraction));
    let picked = read.pick(picked.collect());
    // A filter of its own, so the served one's counters count served runs.
    let fresh = (filter.planned().clone()).into_filter(filter.blob_column());
    let selection = fresh.eval_batch(&Batch::new(&picked, 0..picked.len(), 0));
    // A PP filter error fails open in the engine (the row passes), so it
    // is not a drop here either.
    let mut kept = vec![false; picked.len()];
    for &at in (selection.passed.iter()).chain(selection.failed.iter().map(|(at, _)| at)) {
        kept[at as usize] = true;
    }
    let dropped: Vec<_> = (0..picked.len()).filter(|&at| !kept[at]).collect();
    if dropped.is_empty() {
        return Evidence::default();
    }
    let replays = dropped.len() as u64;
    let mut pinned = inner.data.clone();
    pinned.register(spec.table(), picked.pick(dropped));
    let mut ctx = ExecutionContext::new(&pinned);
    let out = ctx.run(&spec.udf_plan(&task.plan.predicate));
    let seconds = (ctx.telemetry().into_iter())
        .flat_map(|t| &t.spans)
        .filter(|s| s.op.starts_with("Process["))
        .map(|s| s.seconds)
        .sum();
    // A replay that failed has no ground truth: no evidence either way.
    let false_drops = out.ok().and_then(|out| {
        let blob = out.schema().index_of(filter.blob_column()).ok()?;
        let blobs = (out.row_refs())
            .filter_map(|row| row.get(blob).as_blob().ok().map(Arc::as_ptr))
            .collect::<HashSet<_>>();
        Some(blobs.len() as u64)
    });
    Evidence {
        sampled: false_drops.map_or(0, |_| replays),
        false_drops: false_drops.unwrap_or(0),
        seconds,
    }
}

/// One audit pass: drain recorded tasks (bounded), replay each task's
/// sampled dropped rows through the ground-truth pipeline, fold the
/// evidence into per-PP-expression stats, and quarantine expressions
/// whose Wilson lower bound on achieved accuracy falls below the promise.
/// Runs in the maintenance pass, never on a query worker.
pub(crate) fn run_pass(inner: &ServerInner) -> AuditPassReport {
    let fraction = inner.config.audit.sample_fraction;
    let mut report = AuditPassReport::default();
    let tasks: Vec<AuditTask> = {
        let mut state = inner.audit.state.lock();
        let n = state.pending.len().min(MAX_TASKS_PER_PASS);
        state.pending.drain(..n).collect()
    };
    // Each distinct scan is read once per pass and shared by that pass's
    // tasks; nothing outlives the pass.
    let mut reads: HashMap<String, Option<Rowset>> = HashMap::new();
    for task in tasks {
        let Some(chosen) = task.plan.report.chosen.as_ref() else {
            continue;
        };
        let Some(spec) = inner.sources.get(&task.source) else {
            continue;
        };
        let Some(filter) = &task.plan.pp_filter else {
            continue;
        };
        let Some(scan) = pp_scan(&task.plan.plan, &chosen.filter_op()) else {
            continue;
        };
        let read = reads
            .entry(scan.explain())
            .or_insert_with(|| ExecutionContext::new(&inner.data).run(scan).ok());
        let Some(read) = read else {
            continue;
        };
        let evidence = replay(inner, spec, &task, filter, read, fraction);
        report.audited += 1;
        report.replays += evidence.sampled;
        report.false_drops += evidence.false_drops;
        let mut state = inner.audit.state.lock();
        state.audit_seconds += evidence.seconds;
        let entry = state.stats.entry(chosen.expr.clone()).or_default();
        if entry.queries == 0 {
            entry.leaf_keys = chosen.leaf_keys.clone();
            entry.promised = task.plan.accuracy_target;
        } else {
            entry.promised = entry.promised.min(task.plan.accuracy_target);
        }
        entry.queries += 1;
        entry.result_rows += task.result_rows;
        entry.dropped_rows += task.dropped_rows;
        entry.sampled += evidence.sampled;
        entry.false_drops += evidence.false_drops;
    }
    // Verdict phase: quarantine every expression whose achieved-accuracy
    // lower bound crossed below its promise since the last pass.
    {
        let mut state = inner.audit.state.lock();
        for stats in state.stats.values_mut() {
            if stats.violated || stats.sampled < MIN_REPLAYS {
                continue;
            }
            let achieved = achieved_lower_bound(stats);
            if achieved < stats.promised {
                stats.violated = true;
                for key in &stats.leaf_keys {
                    inner
                        .monitor
                        .quarantine_accuracy(key, stats.promised, achieved);
                    report.violated_keys.push(key.clone());
                }
            }
        }
        inner
            .metrics
            .gauge("server.audit.cluster_seconds")
            .set(state.audit_seconds);
    }
    inner
        .metrics
        .counter("server.audit.queries_audited_total")
        .add(report.audited as u64);
    inner
        .metrics
        .counter("server.audit.replays_total")
        .add(report.replays);
    inner
        .metrics
        .counter("server.audit.false_drops_total")
        .add(report.false_drops);
    inner
        .metrics
        .counter("server.audit.violations_total")
        .add(report.violated_keys.len() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let rows: Vec<u64> = (0..10_000).collect();
        let picked: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&i| sampled(42, i, 0.25))
            .collect();
        let again: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&i| sampled(42, i, 0.25))
            .collect();
        assert_eq!(picked, again, "identical inputs sample identical sets");
        let frac = picked.len() as f64 / rows.len() as f64;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
        let other: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&i| sampled(43, i, 0.25))
            .collect();
        assert_ne!(picked, other, "different query ids sample differently");
    }

    #[test]
    fn wilson_upper_bound_behaves() {
        // No evidence: bound is vacuous.
        assert_eq!(wilson_upper(0, 0, WILSON_Z), 1.0);
        // Zero observed failures still leaves a nonzero upper bound.
        let b = wilson_upper(0, 50, WILSON_Z);
        assert!(b > 0.0 && b < 0.1, "got {b}");
        // More evidence tightens the bound.
        assert!(wilson_upper(0, 500, WILSON_Z) < b);
        // Heavy failure rates push the bound toward 1.
        assert!(wilson_upper(45, 50, WILSON_Z) > 0.8);
    }

    #[test]
    fn achieved_bound_degrades_with_false_drops() {
        let clean = ExprStats {
            result_rows: 100,
            dropped_rows: 400,
            sampled: 100,
            false_drops: 0,
            ..Default::default()
        };
        let dirty = ExprStats {
            false_drops: 60,
            ..clean.clone()
        };
        let a_clean = achieved_lower_bound(&clean);
        let a_dirty = achieved_lower_bound(&dirty);
        assert!(a_clean > 0.85, "got {a_clean}");
        assert!(a_dirty < 0.35, "got {a_dirty}");
    }

    #[test]
    fn exhaustive_replay_yields_exact_bounds() {
        // Every dropped row replayed: the finite-population correction
        // zeroes the half-width, so the bound is the measured rate — a
        // selective query (R = 2) with zero observed false drops is NOT
        // condemned by the Wilson floor.
        let clean = ExprStats {
            result_rows: 2,
            dropped_rows: 1_495,
            sampled: 1_495,
            false_drops: 0,
            ..Default::default()
        };
        assert_eq!(achieved_lower_bound(&clean), 1.0);
        let dirty = ExprStats {
            false_drops: 8,
            ..clean
        };
        // Exactly 8 true matches lost against 2 kept: 2 / (2 + 8).
        assert!((achieved_lower_bound(&dirty) - 0.2).abs() < 1e-12);
    }
}
