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
//!    dropped blobs — read from the span of the plan's chosen filter,
//!    [`ChosenPlan::filter_op`](pp_core::planner::ChosenPlan::filter_op)
//!    — enqueues a lightweight audit task (its cached plan `Arc`, source,
//!    result-row count). No replay work happens here.
//! 2. **Replay** (`run_pass`, called from the maintenance pass, off
//!    the hot path): for each task, the base table's rows are re-scored
//!    through the PP filter the cached plan carries
//!    ([`CachedPlan::pp_filter`]) to find the dropped set, a
//!    deterministic seeded per-`(query, row)` coin samples a configured
//!    fraction of them, and the sampled blobs are replayed through the
//!    source's *ground-truth* UDF pipeline (memoized per table for the
//!    pass via [`UdfMemo`], so the pass's audits of the same blob pay
//!    once, and the auditor's state stays O(expressions)). A
//!    sampled blob whose UDF-derived columns satisfy the query predicate
//!    is a **false drop**. All replay cost is summed into the auditor's
//!    own cluster-seconds — it never touches any query's bill, verdicts,
//!    or telemetry.
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
//! Sampling is a pure function of `(seed, request id, row index)`, so
//! two servers (or two runs) with identical seeds and submission
//! sequences audit byte-identical row sets — pinned by `tests/audit.rs`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use pp_engine::memo::{MemoProcessor, UdfMemo};
use pp_engine::row::{Row, RowRef, Rowset};
use pp_engine::schema::Schema;
use pp_engine::sync::Mutex;
use pp_engine::telemetry::{MetricsRegistry, TelemetrySnapshot};
use pp_engine::udf::{Processor, RowFilter};
use pp_linalg::rng::{hash2, splitmix64, unit};

use crate::cache::CachedPlan;
use crate::server::ServerInner;

/// Accuracy-audit knobs.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Master switch; `false` records nothing and replays nothing.
    pub enabled: bool,
    /// Fraction of PP-dropped blobs replayed per audited query, in
    /// `[0, 1]`.
    pub sample_fraction: f64,
    /// Seed of the deterministic per-`(query, row)` sampling coin.
    pub seed: u64,
    /// Minimum sampled replays for a PP expression before its Wilson
    /// bound is trusted enough to quarantine.
    pub min_replays: u64,
    /// Audit tasks drained per maintenance pass (backpressure bound).
    pub max_tasks_per_pass: usize,
}

/// Wilson interval z-score of the achieved-accuracy bound (1.96 ≈ 95%
/// confidence).
const WILSON_Z: f64 = 1.96;

/// How many maintenance passes' worth of tasks may wait for replay.
const PENDING_PASSES: usize = 4;

impl AuditConfig {
    /// The most audit tasks that wait for replay: a few passes' worth.
    /// With no maintenance pass draining it (the server runs one only
    /// when asked) the queue would otherwise grow with every query, each
    /// task pinning a plan the cache may have evicted;
    /// past the bound the oldest task is dropped and counted in
    /// `server.audit.dropped_total`.
    pub fn max_pending(&self) -> usize {
        self.max_tasks_per_pass.max(1) * PENDING_PASSES
    }
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            enabled: true,
            sample_fraction: 0.25,
            seed: 0xA0D17,
            min_replays: 30,
            max_tasks_per_pass: 64,
        }
    }
}

/// One completed query awaiting audit replay.
struct AuditTask {
    request_id: u64,
    source: String,
    plan: Arc<CachedPlan>,
    result_rows: u64,
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
    replay_errors: u64,
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
    /// state is O(expressions), not O(replays); the replay memo lives for
    /// one pass (`run_pass`).
    audit_seconds: f64,
}

/// The server's accuracy auditor. Hot-path `observe` only enqueues; all
/// replay work happens in `run_pass`, on the thread of whoever asked for
/// the maintenance pass.
pub struct Auditor {
    config: AuditConfig,
    state: Mutex<AuditState>,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Auditor {
    pub(crate) fn new(config: AuditConfig) -> Self {
        Auditor {
            config,
            state: Mutex::new(AuditState {
                pending: VecDeque::new(),
                stats: BTreeMap::new(),
                audit_seconds: 0.0,
            }),
        }
    }

    /// Hot-path record: enqueue a completed PP-bearing query for audit.
    /// Skips (cheaply) when disabled, when the plan chose no PPs, or
    /// when the PP prefix filtered nothing — there is nothing to audit.
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
        if !self.config.enabled {
            return;
        }
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
        });
        if state.pending.len() > self.config.max_pending() {
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
/// `(seed, request id, row index)` and the configured fraction.
fn sampled(seed: u64, request_id: u64, row_idx: u64, fraction: f64) -> bool {
    unit(splitmix64(seed ^ hash2(request_id, row_idx))) < fraction
}

/// Replays one dropped base row through `processors` (the source's
/// ground-truth UDFs, memo-wrapped) and evaluates the query predicate on
/// the derived rows. `Ok(true)` means the row *would have been* a result
/// row — a false drop. Adds every (simulated) invocation's cost to
/// `seconds`.
fn replay_row(
    row: &Row,
    base_schema: &Arc<Schema>,
    processors: &[Arc<dyn Processor>],
    predicate: &pp_engine::predicate::Predicate,
    seconds: &mut f64,
) -> Result<bool, pp_engine::EngineError> {
    let mut rows = vec![row.values().to_vec()];
    let mut schema = Arc::clone(base_schema);
    let mut cells = Vec::new();
    for proc in processors {
        let out_schema = schema.extend(proc.output_columns())?;
        let width = proc.output_columns().len();
        let mut next = Vec::with_capacity(rows.len());
        for r in &rows {
            cells.clear();
            proc.process(RowRef::from(&r[..]), &schema, &mut cells)?;
            let made = pp_engine::udf::output_rows(proc.as_ref(), cells.len())?;
            for i in 0..made {
                next.push([&r[..], &cells[i * width..(i + 1) * width]].concat());
            }
        }
        *seconds += rows.len() as f64 * proc.cost_per_row();
        rows = next;
        schema = out_schema;
    }
    let predicate = predicate.bind(&schema);
    for r in &rows {
        if predicate.eval(RowRef::from(&r[..]))? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// One audit pass: drain recorded tasks (bounded), recompute each task's
/// PP-dropped set against the base table, replay the deterministic
/// sample through the ground-truth pipeline, fold the evidence into
/// per-PP-expression stats, and quarantine expressions whose Wilson
/// lower bound on achieved accuracy falls below the promise. Runs in the
/// maintenance pass, never on a query worker.
pub(crate) fn run_pass(inner: &ServerInner) -> AuditPassReport {
    let config = &inner.config.audit;
    let mut report = AuditPassReport::default();
    if !config.enabled {
        return report;
    }
    let tasks: Vec<AuditTask> = {
        let mut state = inner.audit.state.lock();
        let n = state.pending.len().min(config.max_tasks_per_pass.max(1));
        state.pending.drain(..n).collect()
    };
    // Each table is decoded once per pass and shared, with a replay memo,
    // by that pass's tasks; nothing outlives the pass. (A segment table
    // decodes fresh blob `Arc`s on every read, so a memo kept across
    // passes would never hit again and only hold every blob it had seen.)
    let mut tables: HashMap<&str, Option<(Rowset, Arc<UdfMemo>)>> = HashMap::new();
    for task in tasks {
        let Some(chosen) = task.plan.report.chosen.as_ref() else {
            continue;
        };
        let Some(spec) = inner.sources.get(&task.source) else {
            continue;
        };
        // `read_table` decodes segment tables too, so audit replay covers
        // out-of-core sources.
        let Some((table, memo)) = tables.entry(spec.table()).or_insert_with(|| {
            let table = inner.data.read_table(spec.table()).ok()?;
            let memo = Arc::new(UdfMemo::new(table.schema().len()));
            Some((table, memo))
        }) else {
            continue;
        };
        let Some(filter) = &task.plan.pp_filter else {
            continue;
        };
        let base_schema = table.schema().clone();
        let used = task.plan.predicate.columns();
        let processors: Vec<Arc<dyn Processor>> = spec
            .udf_processors()
            .filter(|(column, _)| used.contains(*column))
            .map(|(_, p)| {
                Arc::new(MemoProcessor::new(Arc::clone(p), Arc::clone(memo))) as Arc<dyn Processor>
            })
            .collect();
        let mut dropped_rows = 0u64;
        let mut sampled_rows = 0u64;
        let mut false_drops = 0u64;
        let mut replay_errors = 0u64;
        let mut seconds = 0.0;
        for (idx, row) in table.rows().iter().enumerate() {
            // A PP filter error fails open in the engine (the row passes),
            // so it is not a drop here either.
            let dropped = matches!(filter.passes(row, &base_schema), Ok(false));
            if !dropped {
                continue;
            }
            dropped_rows += 1;
            if !sampled(
                config.seed,
                task.request_id,
                idx as u64,
                config.sample_fraction,
            ) {
                continue;
            }
            match replay_row(
                row,
                &base_schema,
                &processors,
                &task.plan.predicate,
                &mut seconds,
            ) {
                Ok(true) => {
                    sampled_rows += 1;
                    false_drops += 1;
                }
                Ok(false) => sampled_rows += 1,
                // Ground truth unavailable for this blob: not evidence in
                // either direction.
                Err(_) => replay_errors += 1,
            }
        }
        report.audited += 1;
        report.replays += sampled_rows;
        report.false_drops += false_drops;
        let mut state = inner.audit.state.lock();
        state.audit_seconds += seconds;
        let entry = state.stats.entry(chosen.expr.clone()).or_default();
        if entry.queries == 0 {
            entry.leaf_keys = chosen.leaf_keys.clone();
            entry.promised = task.plan.accuracy_target;
        } else {
            entry.promised = entry.promised.min(task.plan.accuracy_target);
        }
        entry.queries += 1;
        entry.result_rows += task.result_rows;
        entry.dropped_rows += dropped_rows;
        entry.sampled += sampled_rows;
        entry.false_drops += false_drops;
        entry.replay_errors += replay_errors;
    }
    // Verdict phase: quarantine every expression whose achieved-accuracy
    // lower bound crossed below its promise since the last pass.
    {
        let mut state = inner.audit.state.lock();
        let min_replays = config.min_replays;
        for stats in state.stats.values_mut() {
            if stats.violated || stats.sampled < min_replays {
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
            .filter(|&i| sampled(7, 42, i, 0.25))
            .collect();
        let again: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&i| sampled(7, 42, i, 0.25))
            .collect();
        assert_eq!(picked, again, "identical seeds sample identical sets");
        let frac = picked.len() as f64 / rows.len() as f64;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
        let other: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&i| sampled(7, 43, i, 0.25))
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
