//! Accuracy-budget allocation across the PPs of an expression (§6.2).
//!
//! "We have to explore different allocations of the query's accuracy
//! budget to individual PPs ... The first problem translates to a dynamic
//! program which we omit for brevity."
//!
//! The DP here: discretize per-leaf accuracies onto a grid; compute for
//! every sub-expression a *curve* mapping each grid accuracy `g` to the
//! best-known (lowest plan cost) estimate whose combined accuracy is at
//! least `g`, folding children with the Eq. 9/10 algebra; read the answer
//! at the query's accuracy target. Plan cost is `c + (1 − r) · u` (§3),
//! so the objective correctly trades filter cost against saved UDF work.

use crate::combine::{conjoin, disjoin, plan_cost_per_blob, Estimate};
use crate::expr::{Assignment, PlannedPpExpr, PpExpr};
use crate::{PpError, Result};

/// The discrete per-leaf accuracy levels the DP considers.
///
/// Always contains 1.0, so any target ≤ 1 is feasible (all leaves at full
/// accuracy combine to ≥ target under conjunction; disjunction only
/// improves accuracy).
#[derive(Debug, Clone)]
pub struct AccuracyGrid {
    /// Ascending accuracy levels in (0, 1].
    points: Vec<f64>,
}

impl Default for AccuracyGrid {
    fn default() -> Self {
        AccuracyGrid::new(vec![
            0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.998, 0.999,
            1.0,
        ])
        .expect("default grid is valid")
    }
}

impl AccuracyGrid {
    /// Builds a grid; points are sorted, deduplicated, and must lie in
    /// (0, 1]. 1.0 is appended when missing.
    pub fn new(mut points: Vec<f64>) -> Result<Self> {
        if points.iter().any(|&p| !(p > 0.0 && p <= 1.0)) {
            return Err(PpError::InvalidParameter("grid points must be in (0, 1]"));
        }
        if !points.contains(&1.0) {
            points.push(1.0);
        }
        points.sort_by(f64::total_cmp);
        points.dedup();
        if points.is_empty() {
            return Err(PpError::InvalidParameter("grid must be non-empty"));
        }
        Ok(AccuracyGrid { points })
    }

    /// The grid points, ascending.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Index of the smallest grid point ≥ `a` (for reading answers).
    fn ceil_index(&self, a: f64) -> Option<usize> {
        self.points.iter().position(|&p| p >= a - 1e-12)
    }
}

/// One entry of a sub-expression's DP curve.
#[derive(Debug, Clone)]
struct CurveEntry {
    estimate: Estimate,
    /// Per-leaf accuracies for the subtree, in pre-order.
    assignment: Vec<f64>,
}

/// Allocates the accuracy budget over `expr`'s leaves to minimize plan cost
/// `c + (1 − r)·u` subject to combined accuracy ≥ `target`.
pub fn allocate(
    expr: &PpExpr,
    target: f64,
    udf_cost: f64,
    grid: &AccuracyGrid,
) -> Result<PlannedPpExpr> {
    if !(target > 0.0 && target <= 1.0) {
        return Err(PpError::InvalidParameter(
            "accuracy target must be in (0, 1]",
        ));
    }
    let curve = build_curve(expr, udf_cost, grid)?;
    let idx = grid
        .ceil_index(target)
        .ok_or(PpError::InfeasibleAccuracy(target))?;
    // The best entry at or above the target index.
    let mut best: Option<&CurveEntry> = None;
    for entry in curve.iter().skip(idx).flatten() {
        let better = match best {
            None => true,
            Some(b) => {
                plan_cost_per_blob(&entry.estimate, udf_cost)
                    < plan_cost_per_blob(&b.estimate, udf_cost) - 1e-15
            }
        };
        if better {
            best = Some(entry);
        }
    }
    let chosen = best.ok_or(PpError::InfeasibleAccuracy(target))?;
    let assignment = Assignment::new(chosen.assignment.clone())?;
    let estimate = expr.estimate(&assignment)?;
    Ok(PlannedPpExpr {
        expr: expr.clone(),
        assignment,
        estimate,
    })
}

/// Computes the DP curve for a sub-expression: `curve[i]` is the best entry
/// with combined accuracy ≥ `grid.points()[i]`, if any.
fn build_curve(
    expr: &PpExpr,
    udf_cost: f64,
    grid: &AccuracyGrid,
) -> Result<Vec<Option<CurveEntry>>> {
    let g = grid.points();
    match expr {
        PpExpr::Leaf(pp) => {
            let mut curve: Vec<Option<CurveEntry>> = vec![None; g.len()];
            // A leaf set to accuracy a achieves exactly a; it satisfies
            // every grid level ≤ a.
            for (i, &a) in g.iter().enumerate() {
                let est = Estimate {
                    accuracy: a,
                    reduction: pp.reduction(a)?,
                    cost: pp.cost_per_row(),
                };
                let entry = CurveEntry {
                    estimate: est,
                    assignment: vec![a],
                };
                for (j, slot) in curve.iter_mut().enumerate().take(i + 1) {
                    let _ = j;
                    let better = match slot {
                        None => true,
                        Some(existing) => {
                            plan_cost_per_blob(&entry.estimate, udf_cost)
                                < plan_cost_per_blob(&existing.estimate, udf_cost) - 1e-15
                        }
                    };
                    if better {
                        *slot = Some(entry.clone());
                    }
                }
            }
            Ok(curve)
        }
        PpExpr::And(children) => fold_children(children, udf_cost, grid, conjoin),
        PpExpr::Or(children) => {
            if children.is_empty() {
                return Err(PpError::InvalidParameter("empty disjunction"));
            }
            fold_children(children, udf_cost, grid, disjoin)
        }
    }
}

/// Folds child curves pairwise under a combination rule, keeping the
/// lowest-plan-cost entry per accuracy level.
fn fold_children(
    children: &[PpExpr],
    udf_cost: f64,
    grid: &AccuracyGrid,
    combine: fn(Estimate, Estimate) -> Estimate,
) -> Result<Vec<Option<CurveEntry>>> {
    let g = grid.points();
    let mut acc: Option<Vec<Option<CurveEntry>>> = None;
    for child in children {
        let child_curve = build_curve(child, udf_cost, grid)?;
        acc = Some(match acc {
            None => child_curve,
            Some(prev) => {
                let mut merged: Vec<Option<CurveEntry>> = vec![None; g.len()];
                for a_entry in prev.iter().flatten() {
                    for b_entry in child_curve.iter().flatten() {
                        let est = combine(a_entry.estimate, b_entry.estimate);
                        // The combined entry satisfies every grid level up
                        // to its achieved accuracy.
                        let Some(upto) = highest_satisfied(g, est.accuracy) else {
                            continue;
                        };
                        let mut assignment = a_entry.assignment.clone();
                        assignment.extend_from_slice(&b_entry.assignment);
                        let candidate = CurveEntry {
                            estimate: est,
                            assignment,
                        };
                        for slot in merged.iter_mut().take(upto + 1) {
                            let better = match slot {
                                None => true,
                                Some(existing) => {
                                    plan_cost_per_blob(&candidate.estimate, udf_cost)
                                        < plan_cost_per_blob(&existing.estimate, udf_cost) - 1e-15
                                }
                            };
                            if better {
                                *slot = Some(candidate.clone());
                            }
                        }
                    }
                }
                merged
            }
        });
    }
    acc.ok_or(PpError::InvalidParameter("expression has no children"))
}

/// Largest grid index whose level is satisfied by `accuracy`.
fn highest_satisfied(grid: &[f64], accuracy: f64) -> Option<usize> {
    grid.iter().rposition(|&p| p <= accuracy + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;
    use std::sync::Arc;

    fn leaf(seed: u64, cost: f64) -> PpExpr {
        PpExpr::leaf(Arc::new(trained_pp(0.3, seed, cost)))
    }

    /// The reference the DP is held against: every leaf gets the same grid
    /// accuracy — the smallest one whose combined accuracy still meets the
    /// target.
    fn allocate_uniform(expr: &PpExpr, target: f64, grid: &AccuracyGrid) -> Result<PlannedPpExpr> {
        if !(target > 0.0 && target <= 1.0) {
            return Err(PpError::InvalidParameter(
                "accuracy target must be in (0, 1]",
            ));
        }
        for &a in grid.points() {
            let assignment = Assignment::uniform(expr, a)?;
            let estimate = expr.estimate(&assignment)?;
            if estimate.accuracy >= target - 1e-12 {
                return Ok(PlannedPpExpr {
                    expr: expr.clone(),
                    assignment,
                    estimate,
                });
            }
        }
        Err(PpError::InfeasibleAccuracy(target))
    }

    #[test]
    fn grid_validation() {
        assert!(AccuracyGrid::new(vec![0.5, 0.9]).is_ok());
        assert!(AccuracyGrid::new(vec![0.0]).is_err());
        assert!(AccuracyGrid::new(vec![1.5]).is_err());
        // 1.0 appended automatically.
        let g = AccuracyGrid::new(vec![0.9]).unwrap();
        assert_eq!(g.points(), &[0.9, 1.0]);
    }

    #[test]
    fn single_leaf_allocation_meets_target() {
        let e = leaf(1, 0.001);
        let grid = AccuracyGrid::default();
        let planned = allocate(&e, 0.95, 10.0, &grid).unwrap();
        assert!(planned.estimate.accuracy >= 0.95 - 1e-12);
        // The allocator should relax accuracy down to the target (more
        // reduction), not pin it at 1.0.
        assert!(planned.assignment.accuracies()[0] <= 0.96);
    }

    #[test]
    fn conjunction_splits_budget() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        let grid = AccuracyGrid::default();
        let planned = allocate(&e, 0.95, 10.0, &grid).unwrap();
        assert!(planned.estimate.accuracy >= 0.95 - 1e-12);
        // Each leaf accuracy must exceed the overall target (they multiply).
        for &a in planned.assignment.accuracies() {
            assert!(a >= 0.95);
        }
    }

    #[test]
    fn dp_at_least_as_good_as_uniform() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(5, 0.02)]);
        let grid = AccuracyGrid::default();
        let u = 5.0;
        let dp = allocate(&e, 0.9, u, &grid).unwrap();
        let uniform = allocate_uniform(&e, 0.9, &grid).unwrap();
        assert!(
            plan_cost_per_blob(&dp.estimate, u) <= plan_cost_per_blob(&uniform.estimate, u) + 1e-9,
            "dp={:?} uniform={:?}",
            dp.estimate,
            uniform.estimate
        );
    }

    #[test]
    fn full_accuracy_target_forces_ones_under_conjunction() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        let grid = AccuracyGrid::default();
        let planned = allocate(&e, 1.0, 10.0, &grid).unwrap();
        for &a in planned.assignment.accuracies() {
            assert_eq!(a, 1.0);
        }
    }

    #[test]
    fn disjunction_requires_every_leaf_at_target() {
        // Under the dependence-safe bound a = min(a_i), every disjunct
        // must individually meet the target (no branch starvation).
        let e = PpExpr::Or(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        let grid = AccuracyGrid::default();
        let planned = allocate(&e, 0.99, 10.0, &grid).unwrap();
        assert!(planned.estimate.accuracy >= 0.99 - 1e-12);
        for &a in planned.assignment.accuracies() {
            assert!(a >= 0.99 - 1e-12, "leaf accuracy {a}");
        }
    }

    #[test]
    fn rejects_bad_targets() {
        let e = leaf(1, 0.001);
        let grid = AccuracyGrid::default();
        assert!(allocate(&e, 0.0, 1.0, &grid).is_err());
        assert!(allocate(&e, 1.5, 1.0, &grid).is_err());
        assert!(allocate_uniform(&e, 0.0, &grid).is_err());
    }

    #[test]
    fn expensive_pp_gets_disfavored_when_udf_is_cheap() {
        // With a nearly free UDF, adding filter cost is not worth it: the
        // allocator should still return a feasible plan (it cannot drop
        // leaves — that is the enumerator's job), but plan cost reflects
        // the filter burden.
        let e = leaf(3, 50.0);
        let grid = AccuracyGrid::default();
        let planned = allocate(&e, 0.95, 0.001, &grid).unwrap();
        assert!(plan_cost_per_blob(&planned.estimate, 0.001) >= 50.0);
    }
}
