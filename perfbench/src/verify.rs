//! The untimed verification pass: every distinct query's NoP (PP-free)
//! plan and PP plan run once in process, single-threaded, and every wire
//! answer is held against both.
//!
//! A request fails when it was refused, failed, cancelled or truncated,
//! when it returned a row outside the NoP answer (PPs may drop, never
//! add), or when its rows differ from the in-process answer for the same
//! query (`serve_cold`, where every request is a query of its own, holds
//! one answer in four against the in-process run; see
//! `Schedule::digest_checked`).

use std::collections::{HashMap, HashSet};

use pp_core::planner::{OptimizedQuery, PpQueryOptimizer, QoConfig};
use pp_core::PpCatalog;
use pp_engine::exec::ExecutionContext;
use pp_engine::Rowset;

use crate::loadgen::{digest_rows, Sample};
use crate::setup::Stack;
use crate::workload::{Schedule, Scheduled};

/// Threads of the verification pass (each query still runs at
/// parallelism 1, so its `CostMeter` charges are the single-threaded
/// ones).
const VERIFY_THREADS: usize = 2;

/// What one query returns in process.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The PP-free answer and its cost; only for the verified queries.
    pub nop: Option<(Vec<i64>, f64)>,
    pub pp_rows: usize,
    pub pp_digest: u64,
    pub pp_cluster_s: f64,
}

/// Optimizes a query the way the server does on a cache miss (minus the
/// runtime monitor's feedback) over the PP catalog `pps`.
fn optimize_over(stack: &Stack, scheduled: &Scheduled, pps: PpCatalog) -> OptimizedQuery {
    let nop = stack.source.nop_plan(&scheduled.request.predicate);
    PpQueryOptimizer::new(
        pps,
        stack.domains.clone(),
        QoConfig {
            accuracy_target: scheduled.request.accuracy_target,
            ..Default::default()
        },
    )
    .optimize(&nop, &stack.catalog)
    .expect("optimize the query in process")
}

/// The PP plan of a query.
pub fn optimize(stack: &Stack, scheduled: &Scheduled) -> OptimizedQuery {
    optimize_over(stack, scheduled, stack.pp_catalog.clone())
}

fn ids_of(rows: &Rowset) -> Vec<i64> {
    let at = rows
        .schema()
        .index_of("frameID")
        .expect("frameID in the output schema");
    rows.rows()
        .iter()
        .map(|r| r.get(at).as_int().expect("frameID is an int"))
        .collect()
}

/// Runs a query's PP plan and, `with_nop`, its NoP plan: what the
/// optimizer emits with no PP to inject, so a segment scan still gets its
/// zone-map pushdown.
pub fn reference(stack: &Stack, scheduled: &Scheduled, with_nop: bool) -> Reference {
    let nop = with_nop.then(|| {
        let plan = optimize_over(stack, scheduled, PpCatalog::new()).plan;
        let mut ctx = ExecutionContext::builder(&stack.catalog).build();
        let rows = ctx.run(&plan).expect("run the NoP plan in process");
        (ids_of(&rows), ctx.meter().cluster_seconds())
    });
    let optimized = optimize(stack, scheduled);
    let mut ctx = ExecutionContext::builder(&stack.catalog).build();
    let pp_rows = ctx
        .run(&optimized.plan)
        .expect("run the PP plan in process");
    Reference {
        nop,
        pp_rows: pp_rows.len(),
        pp_digest: digest_rows(pp_rows.rows().iter().map(|r| r.values())),
        pp_cluster_s: ctx.meter().cluster_seconds(),
    }
}

/// References of `query_ids`, computed on [`VERIFY_THREADS`] threads;
/// ids below `verified` also get their NoP answer.
fn references(
    stack: &Stack,
    schedule: &Schedule,
    query_ids: &[usize],
    verified: usize,
) -> HashMap<usize, Reference> {
    let per_thread = query_ids.len().div_ceil(VERIFY_THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = query_ids
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&id| (id, reference(stack, &schedule.query(id), id < verified)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread panicked"))
            .collect()
    })
}

/// Achieved accuracy `|returned ∩ NoP| / |NoP|` (1 when the NoP answer
/// is empty) and whether `returned` stays inside the NoP answer.
pub fn accuracy(returned: &[i64], nop: &[i64]) -> (f64, bool) {
    let truth: HashSet<i64> = nop.iter().copied().collect();
    let inside = returned.iter().filter(|id| truth.contains(id)).count();
    let achieved = if nop.is_empty() {
        1.0
    } else {
        inside as f64 / nop.len() as f64
    };
    (achieved, inside == returned.len())
}

/// What a query is charged: its PP plan's cluster-seconds when the
/// accuracy target was met, its NoP plan's otherwise — a result that
/// breaks the paper's contract has to be re-run without PPs.
pub fn charge(achieved: f64, target: f64, pp_cluster_s: f64, nop_cluster_s: f64) -> f64 {
    if achieved >= target {
        pp_cluster_s
    } else {
        nop_cluster_s
    }
}

/// The first wire answer to a verified query (from the warm-up pass).
#[derive(Debug, Clone)]
pub struct FirstAnswer {
    pub complete: bool,
    pub ids: Vec<i64>,
}

#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Requests whose rows differ from the in-process PP answer.
    pub mismatched: u64,
    pub verified_queries: usize,
    pub accuracy_misses: usize,
    /// Lowest achieved accuracy over the verified queries.
    pub accuracy_min: f64,
    pub cluster_s_per_query: f64,
    pub nop_cluster_s_per_query: f64,
    /// `query_id`s that failed verification (for `correct` samples).
    pub failed_queries: HashSet<usize>,
}

/// Verifies every sample and the first answers of the verified queries.
pub fn verify(
    stack: &Stack,
    schedule: &Schedule,
    first_answers: &[FirstAnswer],
    samples: &[Sample],
) -> Verdict {
    let mut query_ids: Vec<usize> = (0..first_answers.len())
        .chain(samples.iter().map(|s| s.query_id))
        .filter(|&id| schedule.digest_checked(id))
        .collect();
    query_ids.sort_unstable();
    query_ids.dedup();
    let references = references(stack, schedule, &query_ids, first_answers.len());

    let mut verdict = Verdict {
        verified_queries: first_answers.len(),
        accuracy_min: 1.0,
        ..Default::default()
    };
    let mut charged = 0.0;
    let mut nop_charged = 0.0;
    for (query_id, first) in first_answers.iter().enumerate() {
        let r = &references[&query_id];
        let (nop_ids, nop_cluster_s) = r.nop.as_ref().expect("verified queries run their NoP plan");
        let (achieved, inside) = accuracy(&first.ids, nop_ids);
        let target = schedule.query(query_id).request.accuracy_target;
        if achieved < target {
            verdict.accuracy_misses += 1;
        }
        verdict.accuracy_min = verdict.accuracy_min.min(achieved);
        charged += charge(achieved, target, r.pp_cluster_s, *nop_cluster_s);
        nop_charged += nop_cluster_s;
        if !first.complete || !inside {
            verdict.failed_queries.insert(query_id);
        }
    }
    for s in samples {
        verdict.attempted += 1;
        // An answer whose query has no reference only has to complete.
        let matches = s.complete
            && references
                .get(&s.query_id)
                .is_none_or(|r| s.rows == r.pp_rows && s.digest == r.pp_digest);
        if s.complete && !matches {
            verdict.mismatched += 1;
        }
        if !matches || verdict.failed_queries.contains(&s.query_id) {
            verdict.failed += 1;
            verdict.failed_queries.insert(s.query_id);
        }
    }
    let n = first_answers.len().max(1) as f64;
    verdict.cluster_s_per_query = charged / n;
    verdict.nop_cluster_s_per_query = nop_charged / n;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_accuracy_miss_is_charged_the_nop_plan() {
        // NoP answer of 20 frames, PP answer drops two of them: 0.90.
        let nop: Vec<i64> = (100..120).collect();
        let returned: Vec<i64> = (100..118).collect();
        let (achieved, inside) = accuracy(&returned, &nop);
        assert!((achieved - 0.90).abs() < 1e-12 && inside);
        // Target 0.95 is missed: the PP plan's 3 s do not count, the
        // query is re-run PP-free for 10 s. Target 0.90 is met.
        assert_eq!(charge(achieved, 0.95, 3.0, 10.0), 10.0);
        assert_eq!(charge(achieved, 0.90, 3.0, 10.0), 3.0);
        // A row outside the NoP answer is flagged; an empty NoP answer is
        // trivially met.
        assert!(!accuracy(&[100, 999], &nop).1);
        assert_eq!(accuracy(&[], &[]), (1.0, true));
    }
}
