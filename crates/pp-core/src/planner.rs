//! The end-to-end query-optimizer extension (Figure 3c, §6).
//!
//! "Our modified query optimizer takes two additional inputs compared to
//! the baseline QO: a list of trained probabilistic predicates and a
//! desired accuracy threshold for the query. The modified query optimizer
//! injects appropriate combinations of PPs for each query based on the
//! accuracy threshold; the PPs execute directly on the raw inputs and the
//! remaining query plan is semantically equivalent to the original."
//!
//! Pipeline: inspect the plan for pushable predicates → rewrite to
//! candidate PP expressions (§6.1) → allocate the accuracy budget per
//! candidate (§6.2's DP) → cost each plan as `c + (1 − r)·u` → pick the
//! cheapest improving plan → order its PPs → inject the filter above the
//! blob scan.

use std::sync::Arc;
use std::time::Instant;

use pp_engine::cost::CostModel;
use pp_engine::explain::{predict, OperatorPrediction, PredictionHints};
use pp_engine::logical::{LogicalPlan, OpParallelism};
use pp_engine::predicate::Predicate;
use pp_engine::schema::Schema;
use pp_engine::{prune_stats, publishes_zone_maps, Catalog};

use crate::alloc::{AccuracyGrid, BudgetDp};
use crate::catalog::PpCatalog;
use crate::combine::{plan_cost_per_blob, Estimate};
use crate::expr::{Assignment, PlannedPpExpr, PpExpr, PpExprFilter};
use crate::inject::{inject_above_scan, pushable_predicates, udf_cost_per_blob};
use crate::order::{best_order, Gate, OrderItem};
use crate::rewrite::{rewrite, RewriteConfig};
use crate::runtime::RuntimeMonitor;
use crate::wrangle::Domains;
use crate::{PpError, Result};

/// Configuration of the PP query optimizer.
#[derive(Debug, Clone)]
pub struct QoConfig {
    /// Query-level accuracy threshold `a` (§4; users "specify a desired
    /// accuracy threshold").
    pub accuracy_target: f64,
    /// Rewrite-search tunables (§6.1).
    pub rewrite: RewriteConfig,
    /// Accuracy grid for budget allocation (§6.2).
    pub grid: AccuracyGrid,
}

impl Default for QoConfig {
    fn default() -> Self {
        QoConfig {
            accuracy_target: 0.95,
            rewrite: RewriteConfig::default(),
            grid: AccuracyGrid::default(),
        }
    }
}

/// One costed candidate, for reporting (Table 10's "picked and alternate
/// plans").
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Display form of the expression.
    pub expr: String,
    /// Estimated accuracy/reduction/cost at the allocated budget.
    pub estimate: Estimate,
    /// Estimated total plan cost per blob.
    pub plan_cost: f64,
    /// Whether the accuracy budget could be allocated. Infeasible
    /// candidates are recorded with a pass-through estimate for the audit
    /// trail but never compete for the plan (and are excluded from
    /// [`PlanReport::reduction_range`]).
    pub feasible: bool,
}

/// The chosen injection for one blob table.
#[derive(Debug, Clone)]
pub struct ChosenPlan {
    /// The blob table filtered.
    pub table: String,
    /// Display form of the injected expression.
    pub expr: String,
    /// Per-leaf accuracies.
    pub leaf_accuracies: Vec<f64>,
    /// Canonical PP keys of the leaves, in execution order (parallel to
    /// [`leaf_accuracies`](Self::leaf_accuracies)).
    pub leaf_keys: Vec<String>,
    /// Estimated per-leaf reductions at the allocated accuracies.
    pub leaf_reductions: Vec<f64>,
    /// Estimated properties.
    pub estimate: Estimate,
}

impl ChosenPlan {
    /// The display name of the injected filter operator — the key for
    /// joining this plan to its telemetry span. Mirrors
    /// [`PlannedPpExpr::into_filter`]'s naming: a single leaf displays as
    /// `PP[key]` already; composites get a `PP` prefix.
    pub fn filter_op(&self) -> String {
        if self.expr.starts_with("PP[") {
            self.expr.clone()
        } else {
            format!("PP{}", self.expr)
        }
    }
}

/// One zone-map pushdown decision: the storable conjuncts of a query
/// predicate handed to a segment-backed scan, with the predicted prune
/// effect. Zone maps behave as zero-cost, accuracy-1.0 leaf PPs — they
/// only skip row groups the predicate provably cannot match, so verdicts
/// never change and no accuracy budget is spent.
#[derive(Debug, Clone)]
pub struct ZonePushdownReport {
    /// The provider-backed table the pushdown targets.
    pub table: String,
    /// Display form of the pushed-down (storable-column) predicate.
    pub predicate: String,
    /// Row groups across all shards.
    pub row_groups_total: usize,
    /// Row groups the zone maps prove cannot match — these are skipped.
    pub row_groups_pruned: usize,
    /// Rows inside the pruned groups.
    pub rows_pruned: usize,
}

/// A report of what the optimizer saw and decided.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// The (canonicalized, conjoined) predicate the QO worked from.
    pub predicate: String,
    /// Feasible plan count within the PP budget (Table 10's "# plans").
    pub feasible_count: u64,
    /// Candidates actually costed.
    pub candidates: Vec<CandidateReport>,
    /// The injected plan, if any.
    pub chosen: Option<ChosenPlan>,
    /// Downstream UDF cost per blob (`u`).
    pub udf_cost_per_blob: f64,
    /// Wall-clock optimization time in seconds (Table 9 reports 80–100ms).
    pub optimize_seconds: f64,
    /// Per-operator parallelizability of the emitted plan, in cost-meter
    /// charge order — which stages of the (possibly PP-injected) plan a
    /// partitioned executor may fan out across row partitions.
    pub partitionability: Vec<OpParallelism>,
    /// Per-operator cardinality/cost forecast for the emitted plan, in the
    /// same charge order — the "plan" side of
    /// [`ExplainAnalyze`](pp_engine::explain::ExplainAnalyze).
    pub predictions: Vec<OperatorPrediction>,
    /// Zone-map pushdowns applied to segment-backed scans, one per table.
    pub zone_pushdowns: Vec<ZonePushdownReport>,
}

impl PlanReport {
    /// The range of estimated reductions across *feasible* costed
    /// candidates (Table 10's "Est. r" column). Infeasible candidates are
    /// recorded with placeholder pass-through estimates and must not
    /// deflate the range.
    pub fn reduction_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in self.candidates.iter().filter(|c| c.feasible) {
            lo = lo.min(c.estimate.reduction);
            hi = hi.max(c.estimate.reduction);
        }
        (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
    }
}

/// The optimizer's output: a (possibly rewritten) plan plus its report.
#[derive(Debug)]
pub struct OptimizedQuery {
    /// The executable plan (original plan when no PP was injected).
    pub plan: LogicalPlan,
    /// What the optimizer considered and chose.
    pub report: PlanReport,
    /// The PP filters injected into `plan`, one per filtered table: the
    /// operators the plan runs, so their per-leaf counters
    /// ([`PpExprFilter::leaf_rows_scored`]) count what runs of `plan`
    /// scored.
    pub pp_filters: Vec<Arc<PpExprFilter>>,
}

/// The PP-aware query optimizer.
#[derive(Debug)]
pub struct PpQueryOptimizer {
    pp_catalog: PpCatalog,
    domains: Domains,
    config: QoConfig,
}

impl PpQueryOptimizer {
    /// Creates an optimizer over a trained-PP catalog.
    pub fn new(pp_catalog: PpCatalog, domains: Domains, config: QoConfig) -> Self {
        PpQueryOptimizer {
            pp_catalog,
            domains,
            config,
        }
    }

    /// The PP catalog.
    pub fn catalog(&self) -> &PpCatalog {
        &self.pp_catalog
    }

    /// Optimizes a plan (no runtime monitor).
    pub fn optimize(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<OptimizedQuery> {
        self.optimize_with_monitor(plan, catalog, None)
    }

    /// Optimizes a plan, honoring runtime feedback when a monitor is
    /// provided: predicates flagged as dependent (Appendix A.5) are
    /// limited to single-PP expressions, and candidates using a broken
    /// (fault-quarantined) PP are excluded entirely — if every candidate
    /// is broken, the query degrades to its original, PP-free plan; a leaf
    /// whose calibration drifted is costed at its corrected reduction. The
    /// monitor is only read: planning records nothing in it, so building a
    /// plan twice leaves it exactly as it was.
    pub fn optimize_with_monitor(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        monitor: Option<&RuntimeMonitor>,
    ) -> Result<OptimizedQuery> {
        let started = Instant::now();
        let pushables = pushable_predicates(plan, catalog)?;
        if pushables.is_empty() {
            return Ok(OptimizedQuery {
                plan: plan.clone(),
                report: PlanReport {
                    optimize_seconds: started.elapsed().as_secs_f64(),
                    partitionability: plan.partitionability(),
                    predictions: predict(plan, catalog, &CostModel::default(), &Default::default())
                        .unwrap_or_default(),
                    ..Default::default()
                },
                pp_filters: Vec::new(),
            });
        }
        // Conjoin pushable predicates per blob table (stacked selects).
        let mut by_table: Vec<(String, String, Vec<Predicate>)> = Vec::new();
        for p in pushables {
            match by_table.iter_mut().find(|(t, _, _)| *t == p.table) {
                Some((_, _, preds)) => preds.push(p.predicate),
                None => by_table.push((p.table, p.blob_column, vec![p.predicate])),
            }
        }

        let udf_cost = udf_cost_per_blob(plan);
        let mut out_plan = plan.clone();
        let mut hints = PredictionHints::new();
        let mut report = PlanReport {
            udf_cost_per_blob: udf_cost,
            ..Default::default()
        };
        let mut pp_filters = Vec::new();
        for (table, blob_column, mut preds) in by_table {
            let predicate = match preds.len() {
                1 => preds.swap_remove(0),
                _ => Predicate::And(preds),
            }
            .simplify();
            // Zone-map pushdown (the store's "PPs for free", §5): the
            // conjuncts evaluable over the table's *stored* columns are
            // handed to the scan, where per-group zone maps skip row
            // groups that provably cannot match. Only applies to a table
            // that publishes zone maps (an in-memory table has none, so
            // its plan carries no pushdown). Runs regardless of whether a
            // trained PP is injected — the two prune independently.
            let provider = catalog.provider(&table)?;
            let push = if publishes_zone_maps(provider.as_ref()) {
                storable_conjuncts(&predicate, &provider.schema())
            } else {
                None
            };
            if let Some(push) = push {
                let stats = prune_stats(provider.as_ref(), &push);
                report.zone_pushdowns.push(ZonePushdownReport {
                    table: table.clone(),
                    predicate: push.to_string(),
                    row_groups_total: stats.groups_total,
                    row_groups_pruned: stats.groups_pruned,
                    rows_pruned: stats.rows_pruned,
                });
                out_plan = out_plan.with_scan_pushdown(&table, &push);
            }
            let outcome = rewrite(
                &predicate,
                &self.pp_catalog,
                &self.domains,
                &self.config.rewrite,
            );
            // Dependent-predicate fix: flagged predicates may only use a
            // single PP. Broken PPs (fault-quarantined by the monitor) are
            // excluded outright — injecting a filter that keeps failing
            // would charge its cost for no reduction.
            report.predicate = predicate.to_string();
            let flagged = monitor.is_some_and(|m| m.is_flagged(&report.predicate));
            let candidates: Vec<PpExpr> = outcome
                .candidates
                .into_iter()
                .filter(|c| !flagged || c.leaf_count() == 1)
                .filter(|c| {
                    monitor.is_none_or(|m| !c.leaves().iter().any(|pp| m.is_broken(pp.key())))
                })
                .map(|c| match monitor {
                    Some(m) => apply_corrections(c, m),
                    None => c,
                })
                .collect();
            report.feasible_count = outcome.feasible_count;

            let mut dp = BudgetDp::new(self.config.accuracy_target, udf_cost, &self.config.grid);
            let mut best: Option<(f64, PlannedPpExpr)> = None;
            for cand in candidates {
                let planned = match dp.allocate(&cand) {
                    Ok(p) => p,
                    Err(PpError::InfeasibleAccuracy(_)) => {
                        // Record the candidate for the audit trail with a
                        // pass-through estimate; it cannot win the plan.
                        let passthrough = Estimate::passthrough();
                        report.candidates.push(CandidateReport {
                            expr: cand.to_string(),
                            estimate: passthrough,
                            plan_cost: plan_cost_per_blob(&passthrough, udf_cost),
                            feasible: false,
                        });
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                let cost = plan_cost_per_blob(&planned.estimate, udf_cost);
                report.candidates.push(CandidateReport {
                    expr: planned.expr.to_string(),
                    estimate: planned.estimate,
                    plan_cost: cost,
                    feasible: true,
                });
                if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                    best = Some((cost, planned));
                }
            }
            let Some((cost, planned)) = best else {
                continue;
            };
            if cost >= udf_cost {
                continue; // §3: filtering can hurt when `r ≤ c/u`
            }
            // Order the PPs for execution, then inject.
            let planned = reorder(planned)?;
            let accs = planned.assignment.accuracies().to_vec();
            let mut leaf_keys = Vec::with_capacity(accs.len());
            let mut leaf_reductions = Vec::with_capacity(accs.len());
            for (pp, &a) in planned.expr.leaves().iter().zip(&accs) {
                leaf_keys.push(pp.key().to_string());
                leaf_reductions.push(pp.reduction(a)?);
            }
            let chosen = ChosenPlan {
                table: table.clone(),
                expr: planned.expr.to_string(),
                leaf_accuracies: accs,
                leaf_keys,
                leaf_reductions,
                estimate: planned.estimate,
            };
            // Cardinality hints for the prediction pass: the injected
            // filter passes 1 − r of the scan, and of those survivors the
            // exact Select keeps the σ·a truly-matching rows the PP
            // retained (σ from the PP's validation selectivity).
            hints = hints.with_ratio(chosen.filter_op(), 1.0 - chosen.estimate.reduction);
            if let Some(pp) = self.pp_catalog.get(&predicate) {
                let survivors = 1.0 - chosen.estimate.reduction;
                if survivors > 1e-12 {
                    let ratio = pp.observed_selectivity() * chosen.estimate.accuracy / survivors;
                    hints = hints
                        .with_ratio(LogicalPlan::select_label(&predicate), ratio.clamp(0.0, 1.0));
                }
            }
            report.chosen = Some(chosen);
            let filter = Arc::new(planned.into_filter(blob_column));
            out_plan = inject_above_scan(&out_plan, &table, Arc::clone(&filter) as _)?;
            pp_filters.push(filter);
        }
        report.optimize_seconds = started.elapsed().as_secs_f64();
        report.partitionability = out_plan.partitionability();
        report.predictions =
            predict(&out_plan, catalog, &CostModel::default(), &hints).unwrap_or_default();
        Ok(OptimizedQuery {
            plan: out_plan,
            report,
            pp_filters,
        })
    }
}

/// The conjuncts of `predicate` whose columns all exist in the stored
/// `schema` — the portion a segment scan can evaluate with zone maps.
/// `None` when nothing is storable (e.g. every conjunct references
/// UDF-produced columns that only exist above a Process operator).
fn storable_conjuncts(predicate: &Predicate, schema: &Schema) -> Option<Predicate> {
    let conjuncts: Vec<Predicate> = match predicate {
        Predicate::And(ps) => ps.clone(),
        p => vec![p.clone()],
    };
    let mut kept: Vec<Predicate> = conjuncts
        .into_iter()
        .filter(|c| {
            let cols = c.columns();
            !cols.is_empty() && cols.iter().all(|col| schema.index_of(col).is_ok())
        })
        .collect();
    match kept.len() {
        0 => None,
        1 => Some(kept.swap_remove(0)),
        _ => Some(Predicate::And(kept)),
    }
}

/// Rebuilds an expression with each leaf's calibration correction applied:
/// a leaf whose key has drifted past the monitor's threshold gets its
/// reduction curve rescaled toward the observed mean
/// ([`with_reduction_scale`](crate::pp::ProbabilisticPredicate::with_reduction_scale)),
/// so allocation,
/// costing, and ordering run on the *effective* selectivity. Filter
/// verdicts are untouched — corrected plans return the same rows.
fn apply_corrections(expr: PpExpr, monitor: &RuntimeMonitor) -> PpExpr {
    match expr {
        PpExpr::Leaf(pp) => match monitor.reduction_correction(pp.key()) {
            Some(s) if (s - 1.0).abs() > 1e-12 => {
                PpExpr::Leaf(Arc::new(pp.with_reduction_scale(s)))
            }
            _ => PpExpr::Leaf(pp),
        },
        PpExpr::And(children) => PpExpr::And(
            children
                .into_iter()
                .map(|c| apply_corrections(c, monitor))
                .collect(),
        ),
        PpExpr::Or(children) => PpExpr::Or(
            children
                .into_iter()
                .map(|c| apply_corrections(c, monitor))
                .collect(),
        ),
    }
}

/// Reorders the children of every And/Or node by expected sequential cost
/// (§6.2's ordering exploration), permuting the assignment along.
fn reorder(planned: PlannedPpExpr) -> Result<PlannedPpExpr> {
    let (expr, accs) = reorder_rec(&planned.expr, planned.assignment.accuracies())?;
    let assignment = Assignment::new(accs)?;
    let estimate = expr.estimate(&assignment)?;
    Ok(PlannedPpExpr {
        expr,
        assignment,
        estimate,
    })
}

fn reorder_rec(expr: &PpExpr, accs: &[f64]) -> Result<(PpExpr, Vec<f64>)> {
    match expr {
        PpExpr::Leaf(_) => Ok((expr.clone(), accs.to_vec())),
        PpExpr::And(children) | PpExpr::Or(children) => {
            let gate = if matches!(expr, PpExpr::And(_)) {
                Gate::Conjunction
            } else {
                Gate::Disjunction
            };
            // Slice the assignment per child, recurse, and estimate each.
            let mut offset = 0usize;
            let mut rebuilt: Vec<(PpExpr, Vec<f64>, OrderItem)> =
                Vec::with_capacity(children.len());
            for child in children {
                let n = child.leaf_count();
                let slice = &accs[offset..offset + n];
                offset += n;
                let (sub, sub_accs) = reorder_rec(child, slice)?;
                let est = sub.estimate(&Assignment::new(sub_accs.clone())?)?;
                rebuilt.push((
                    sub,
                    sub_accs,
                    OrderItem {
                        cost: est.cost,
                        reduction: est.reduction,
                    },
                ));
            }
            let items: Vec<OrderItem> = rebuilt.iter().map(|(_, _, i)| *i).collect();
            let (order, _) = best_order(&items, gate);
            let mut new_children = Vec::with_capacity(rebuilt.len());
            let mut new_accs = Vec::with_capacity(accs.len());
            for &i in &order {
                new_children.push(rebuilt[i].0.clone());
                new_accs.extend_from_slice(&rebuilt[i].1);
            }
            let node = match gate {
                Gate::Conjunction => PpExpr::And(new_children),
                Gate::Disjunction => PpExpr::Or(new_children),
            };
            Ok((node, new_accs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;
    use crate::pp::ProbabilisticPredicate;
    use pp_engine::udf::ClosureProcessor;
    use pp_engine::{Clause, Column, CompareOp, DataType, Row, Rowset, Schema, Value};
    use pp_linalg::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Blob table where blob[0] > 0 ⇔ "SUV"; a UDF materializes vehType.
    fn setup(n: usize, seed: u64) -> Result<(Catalog, LogicalPlan)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            Column::new("frameID", DataType::Int),
            Column::new("frame", DataType::Blob),
        ])?;
        let rows = (0..n)
            .map(|i| {
                let pos = rng.gen_bool(0.3);
                let cx = if pos { 2.0 } else { -2.0 };
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::blob(Features::Dense(vec![
                        cx + rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ])),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.register("video", Rowset::new(schema, rows).map_err(PpError::Engine)?);
        let udf = Arc::new(ClosureProcessor::map(
            "VehType",
            vec![Column::new("vehType", DataType::Str)],
            5.0,
            |row, schema, out| {
                let blob = row.get_named(schema, "frame")?.as_blob()?;
                out.push(Value::str(if blob.to_dense()[0] > 0.0 {
                    "SUV"
                } else {
                    "sedan"
                }));
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("video")
            .process(udf)
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        Ok((cat, plan))
    }

    fn pp_catalog() -> Result<PpCatalog> {
        // A PP trained on exactly the blob geometry of `setup`.
        let mut cat = PpCatalog::new();
        let base = trained_pp(0.3, 7, 0.01);
        cat.insert(ProbabilisticPredicate::new(
            Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV")),
            base.pipeline().clone(),
            0.01,
        )?);
        Ok(cat)
    }

    #[test]
    fn injects_and_preserves_results() -> Result<()> {
        let (cat, plan) = setup(400, 1)?;
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        assert!(optimized.report.chosen.is_some(), "{:?}", optimized.report);

        let mut ctx = pp_engine::exec::ExecutionContext::new(&cat);
        let baseline = ctx.run(&plan)?;
        let baseline_secs = ctx.meter().cluster_seconds();
        let with_pp = ctx.run(&optimized.plan)?;

        // No false positives: every output row of the PP plan is an
        // output of the original plan, and cost strictly improves.
        assert!(with_pp.len() <= baseline.len());
        assert!(with_pp.len() as f64 >= 0.85 * baseline.len() as f64);
        assert!(ctx.meter().cluster_seconds() < baseline_secs);
        Ok(())
    }

    #[test]
    fn accuracy_one_keeps_everything_the_pp_guarantees() -> Result<()> {
        let (cat, plan) = setup(400, 2)?;
        let config = QoConfig {
            accuracy_target: 1.0,
            ..Default::default()
        };
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), config);
        let optimized = qo.optimize(&plan, &cat)?;
        if let Some(chosen) = &optimized.report.chosen {
            for &a in &chosen.leaf_accuracies {
                assert_eq!(a, 1.0);
            }
        }
        Ok(())
    }

    #[test]
    fn no_catalog_returns_original_plan() -> Result<()> {
        let (cat, plan) = setup(100, 3)?;
        let qo = PpQueryOptimizer::new(PpCatalog::new(), Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        assert!(optimized.report.chosen.is_none());
        assert_eq!(optimized.plan.explain(), plan.explain());
        Ok(())
    }

    #[test]
    fn report_annotates_partitionability_of_emitted_plan() -> Result<()> {
        let (cat, plan) = setup(300, 9)?;
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        assert!(optimized.report.chosen.is_some());
        let ann = &optimized.report.partitionability;
        assert_eq!(ann, &optimized.plan.partitionability());
        // The injected PP filter shows up as a partitionable stage.
        assert!(
            ann.iter()
                .any(|op| op.op.starts_with("PP") && op.partitionable),
            "{ann:?}"
        );
        // The PP-free path annotates the original plan instead.
        let bare = PpQueryOptimizer::new(PpCatalog::new(), Domains::new(), QoConfig::default())
            .optimize(&plan, &cat)?;
        assert_eq!(bare.report.partitionability, plan.partitionability());
        Ok(())
    }

    #[test]
    fn expensive_pp_not_injected_when_udf_is_cheap() -> Result<()> {
        let (cat, _) = setup(100, 4)?;
        // A UDF costing less than the PP itself.
        let udf = Arc::new(ClosureProcessor::map(
            "Cheap",
            vec![Column::new("vehType", DataType::Str)],
            1e-6,
            |_, _, out| {
                out.push(Value::str("SUV"));
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("video")
            .process(udf)
            .select(Predicate::from(Clause::new(
                "vehType",
                CompareOp::Eq,
                "SUV",
            )));
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        assert!(
            optimized.report.chosen.is_none(),
            "should not inject: {:?}",
            optimized.report.chosen
        );
        Ok(())
    }

    #[test]
    fn flagged_predicate_limited_to_single_pp() -> Result<()> {
        let (cat, plan) = setup(300, 5)?;
        // Catalog with two PPs for the same clause family so multi-PP
        // candidates exist: vehType = SUV and vehType != sedan.
        let mut ppcat = pp_catalog()?;
        let base = trained_pp(0.3, 8, 0.01);
        ppcat.insert(ProbabilisticPredicate::new(
            Predicate::from(Clause::new("vehType", CompareOp::Ne, "sedan")),
            base.pipeline().clone(),
            0.01,
        )?);
        let qo = PpQueryOptimizer::new(ppcat, Domains::new(), QoConfig::default());
        let monitor = RuntimeMonitor::new();
        monitor.observe(
            "vehType = SUV",
            crate::runtime::Observation {
                estimated_reduction: 0.9,
                observed_reduction: 0.2,
            },
        );
        let optimized = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        if let Some(chosen) = &optimized.report.chosen {
            assert_eq!(
                chosen.leaf_accuracies.len(),
                1,
                "flagged predicate must use one PP"
            );
        }
        Ok(())
    }

    #[test]
    fn broken_pp_degrades_to_original_plan() -> Result<()> {
        let (cat, plan) = setup(300, 7)?;
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        // Sanity: with a healthy monitor the PP is injected.
        let monitor = RuntimeMonitor::new();
        let healthy = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        assert!(healthy.report.chosen.is_some());
        // Quarantine the PP: the planner must fall back to the no-PP plan.
        monitor.mark_broken("vehType = SUV");
        let degraded = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        assert!(
            degraded.report.chosen.is_none(),
            "broken PP must not be injected"
        );
        assert_eq!(degraded.plan.explain(), plan.explain());
        // Restoring the PP re-enables injection.
        monitor.restore("vehType = SUV");
        let restored = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        assert!(restored.report.chosen.is_some());
        Ok(())
    }

    #[test]
    fn report_contains_candidates_and_range() -> Result<()> {
        let (cat, plan) = setup(300, 6)?;
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        assert!(!optimized.report.candidates.is_empty());
        assert!(optimized.report.candidates.iter().all(|c| c.feasible));
        assert!(optimized.report.reduction_range().is_some());
        assert!(optimized.report.udf_cost_per_blob > 0.0);
        assert_eq!(optimized.report.predicate, "vehType = SUV");
        assert!(optimized.report.optimize_seconds >= 0.0);
        Ok(())
    }

    #[test]
    fn reduction_range_ignores_infeasible_candidates() {
        let feasible = |r: f64| CandidateReport {
            expr: "PP[a]".into(),
            estimate: Estimate {
                accuracy: 0.95,
                reduction: r,
                cost: 0.01,
            },
            plan_cost: 1.0,
            feasible: true,
        };
        let mut report = PlanReport::default();
        assert!(report.reduction_range().is_none());
        // An infeasible candidate's placeholder pass-through estimate
        // (reduction 0) must not deflate the range — or define it alone.
        report.candidates.push(CandidateReport {
            expr: "PP[b]".into(),
            estimate: Estimate::passthrough(),
            plan_cost: 5.0,
            feasible: false,
        });
        assert!(report.reduction_range().is_none());
        report.candidates.push(feasible(0.4));
        report.candidates.push(feasible(0.7));
        assert_eq!(report.reduction_range(), Some((0.4, 0.7)));
    }

    #[test]
    fn report_predictions_cover_emitted_plan() -> Result<()> {
        let (cat, plan) = setup(300, 10)?;
        let qo = PpQueryOptimizer::new(pp_catalog()?, Domains::new(), QoConfig::default());
        let optimized = qo.optimize(&plan, &cat)?;
        let chosen = optimized.report.chosen.as_ref().expect("injects");
        // One prediction per operator, in charge order, names matching.
        let preds = &optimized.report.predictions;
        assert_eq!(preds.len(), optimized.report.partitionability.len());
        for (i, p) in preds.iter().enumerate() {
            assert_eq!(p.op_id.0 as usize, i);
            assert_eq!(p.op, optimized.report.partitionability[i].op);
        }
        // The injected filter's prediction carries the chosen reduction.
        let pp_pred = preds
            .iter()
            .find(|p| p.op == chosen.filter_op())
            .expect("filter predicted");
        assert!((pp_pred.reduction() - chosen.estimate.reduction).abs() < 1e-9);
        // Leaf bookkeeping is parallel to the accuracies.
        assert_eq!(chosen.leaf_keys, vec!["vehType = SUV".to_string()]);
        assert_eq!(chosen.leaf_reductions.len(), chosen.leaf_accuracies.len());
        assert!(chosen.leaf_reductions[0] > 0.0);
        // The PP-free path predicts the original plan.
        let bare = PpQueryOptimizer::new(PpCatalog::new(), Domains::new(), QoConfig::default())
            .optimize(&plan, &cat)?;
        assert_eq!(bare.report.predictions.len(), plan.partitionability().len());
        Ok(())
    }

    #[test]
    fn calibration_drift_replans_with_identical_results() -> Result<()> {
        let (cat, plan) = setup(400, 11)?;
        // Two PPs sharing one trained pipeline: at accuracy 1.0 they make
        // identical per-blob verdicts, so whichever expression the QO
        // picks, the query returns the same rows. A mimics the query
        // predicate cheaply; B mimics an implied predicate at higher cost.
        let base = trained_pp(0.3, 7, 0.01);
        let mut ppcat = PpCatalog::new();
        ppcat.insert(ProbabilisticPredicate::new(
            Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV")),
            base.pipeline().clone(),
            0.05,
        )?);
        ppcat.insert(ProbabilisticPredicate::new(
            Predicate::from(Clause::new("vehType", CompareOp::Ne, "sedan")),
            base.pipeline().clone(),
            0.2,
        )?);
        let config = QoConfig {
            accuracy_target: 1.0,
            ..Default::default()
        };
        let qo = PpQueryOptimizer::new(ppcat, Domains::new(), config);
        let monitor = RuntimeMonitor::new();
        let first = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        let first_expr = first.report.chosen.as_ref().expect("injects").expr.clone();
        let mut ctx = pp_engine::exec::ExecutionContext::new(&cat);
        let first_rows = ctx.run(&first.plan)?;

        // Runtime feedback: the cheap PP delivers almost no reduction.
        for _ in 0..2 {
            monitor.record_calibration(
                "vehType = SUV",
                crate::calibration::CalibrationRecord {
                    predicted_reduction: 0.7,
                    observed_reduction: 0.01,
                    predicted_cost: 0.05,
                    observed_cost: 0.05,
                },
            );
        }
        assert!(monitor.needs_replan());
        let second = qo.optimize_with_monitor(&plan, &cat, Some(&monitor))?;
        let chosen = second.report.chosen.as_ref().expect("still injects");
        assert_ne!(first_expr, chosen.expr, "corrected plan must differ");
        // The corrected leaf's scale shows in the report bookkeeping: its
        // estimated reduction collapsed with the correction applied.
        let second_rows = ctx.run(&second.plan)?;
        assert_eq!(
            format!("{first_rows:?}"),
            format!("{second_rows:?}"),
            "replanning must not change query results"
        );
        Ok(())
    }
}
