//! Accuracy-budget allocation across the PPs of an expression (§6.2).
//!
//! "We have to explore different allocations of the query's accuracy
//! budget to individual PPs ... The first problem translates to a dynamic
//! program which we omit for brevity."
//!
//! The DP here: discretize per-leaf accuracies onto [`ACCURACY_GRID`];
//! compute for every sub-expression a *curve* mapping each grid accuracy
//! `g` to the best-known (lowest plan cost) estimate whose combined
//! accuracy is at least `g`, folding children with the Eq. 9/10 algebra;
//! read the answer at the query's accuracy target. Plan cost is
//! `c + (1 − r) · u` (§3), so the objective correctly trades filter cost
//! against saved UDF work.
//!
//! A fold tries every pair of entries of two curves against every grid
//! level the pair satisfies, so curve entries are `Copy`: an estimate, its
//! plan cost and a back-pointer into a per-candidate arena of operand
//! pairs. The per-leaf accuracies are spelled from the back-pointers once,
//! for the entry that won.

use std::borrow::Cow;
use std::sync::Arc;

use crate::combine::{conjoin, disjoin, plan_cost_per_blob, Estimate};
use crate::expr::{PlannedPpExpr, PpExpr};
use crate::pp::ProbabilisticPredicate;
use crate::{PpError, Result};

/// The discrete per-leaf accuracy levels the DP considers: ascending,
/// distinct, in (0, 1].
///
/// A leaf takes a level only where its validation positives certify it
/// ([`pp_ml::calibrate::certified_keep`]), so a target some leaf cannot
/// certify has no plan using that leaf; no leaf certifies 1.0, so a target
/// of 1.0 has no PP plan at all.
pub const ACCURACY_GRID: [f64; 16] = [
    0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.998, 0.999, 1.0,
];

/// Index of the smallest grid point ≥ `a` (for reading answers).
fn ceil_index(a: f64) -> Option<usize> {
    ACCURACY_GRID.iter().position(|&p| p >= a - 1e-12)
}

/// One entry of a sub-expression's DP curve. `Copy`: installing it in a
/// grid slot copies six words, whatever the subtree's size.
#[derive(Debug, Clone, Copy)]
struct CurveEntry {
    estimate: Estimate,
    /// `plan_cost_per_blob(&estimate, udf_cost)`, what entries compete on.
    plan_cost: f64,
    /// How to spell the subtree's per-leaf accuracies, should this entry
    /// end up in the winner.
    back: Back,
}

/// Where a curve entry's accuracies come from.
#[derive(Debug, Clone, Copy)]
enum Back {
    /// One leaf, set to this accuracy.
    Leaf(f64),
    /// `arena[i]`: the left operand's leaves, then the right operand's.
    Pair(usize),
}

/// `curve[i]` is the best entry with combined accuracy ≥
/// `ACCURACY_GRID[i]`, if any.
type Curve = Vec<Option<CurveEntry>>;

/// Whether an entry costing `plan_cost` takes `slot`: first seen wins
/// unless the newcomer is strictly cheaper by 1e-15.
fn beats(slot: &Option<CurveEntry>, plan_cost: f64) -> bool {
    slot.is_none_or(|held| plan_cost < held.plan_cost - 1e-15)
}

/// The budget DP for the candidates of one `optimize` call: one target,
/// one downstream UDF cost. A leaf's curve depends on nothing else but
/// the leaf, so it is built once and shared by every candidate the leaf
/// appears in.
#[derive(Debug)]
pub struct BudgetDp {
    target: f64,
    udf_cost: f64,
    /// Leaf curves by what determines them
    /// ([`same_estimates`](ProbabilisticPredicate::same_estimates)): the
    /// planner's calibration corrections mint a fresh `Arc` per candidate,
    /// so the pointer alone would not do. Holding the leaf keeps it alive
    /// for as long as its curve is.
    leaf_curves: Vec<(Arc<ProbabilisticPredicate>, Curve)>,
    /// Operand pairs of the combined entries that won a slot while the
    /// current candidate was folded; cleared per candidate.
    arena: Vec<[Back; 2]>,
}

impl BudgetDp {
    /// A DP reading its answers at `target` (validated when a candidate is
    /// [allocated](Self::allocate)) and costing plans as `c + (1 − r)·u`
    /// with `u = udf_cost`.
    pub fn new(target: f64, udf_cost: f64) -> Self {
        BudgetDp {
            target,
            udf_cost,
            leaf_curves: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Allocates the accuracy budget over `expr`'s leaves to minimize plan
    /// cost subject to combined accuracy ≥ the target.
    pub fn allocate(&mut self, expr: &PpExpr) -> Result<PlannedPpExpr> {
        let target = self.target;
        if !(target > 0.0 && target <= 1.0) {
            return Err(PpError::InvalidParameter(
                "accuracy target must be in (0, 1]",
            ));
        }
        self.build_leaf_curves(expr);
        self.arena.clear();
        let curve = fold_curve(expr, &self.leaf_curves, &mut self.arena, self.udf_cost)?;
        let idx = ceil_index(target).ok_or(PpError::InfeasibleAccuracy(target))?;
        // The best entry at or above the target index.
        let mut best: Option<CurveEntry> = None;
        for entry in curve.iter().skip(idx).flatten() {
            if beats(&best, entry.plan_cost) {
                best = Some(*entry);
            }
        }
        let chosen = best.ok_or(PpError::InfeasibleAccuracy(target))?;
        // The accuracies are spelled once, for the winner.
        let mut accuracies = Vec::with_capacity(expr.leaf_count());
        spell(chosen.back, &self.arena, &mut accuracies);
        PlannedPpExpr::new(expr.clone(), accuracies)
    }

    /// Makes sure every leaf of `expr` has its curve.
    fn build_leaf_curves(&mut self, expr: &PpExpr) {
        match expr {
            PpExpr::Leaf(pp) => {
                if !self.leaf_curves.iter().any(|(l, _)| l.same_estimates(pp)) {
                    let curve = leaf_curve(pp, self.udf_cost);
                    self.leaf_curves.push((Arc::clone(pp), curve));
                }
            }
            PpExpr::And(children) | PpExpr::Or(children) => {
                for child in children {
                    self.build_leaf_curves(child);
                }
            }
        }
    }

    /// How many of the leaves allocated so far cannot be set to the
    /// target's grid point or above: their validation positives certify no
    /// such accuracy, so every candidate using them is infeasible.
    pub(crate) fn uncertified_leaves(&self) -> usize {
        let idx = ceil_index(self.target);
        self.leaf_curves
            .iter()
            .filter(|(_, curve)| idx.is_none_or(|i| curve[i].is_none()))
            .count()
    }
}

/// Allocates the accuracy budget over `expr`'s leaves to minimize plan cost
/// `c + (1 − r)·u` subject to combined accuracy ≥ `target`: a
/// [`BudgetDp`] of one candidate.
pub fn allocate(expr: &PpExpr, target: f64, udf_cost: f64) -> Result<PlannedPpExpr> {
    BudgetDp::new(target, udf_cost).allocate(expr)
}

/// Appends the per-leaf accuracies behind `back`, in leaf pre-order.
fn spell(back: Back, arena: &[[Back; 2]], out: &mut Vec<f64>) {
    match back {
        Back::Leaf(a) => out.push(a),
        Back::Pair(i) => {
            let [left, right] = arena[i];
            spell(left, arena, out);
            spell(right, arena, out);
        }
    }
}

/// A leaf's curve: set to accuracy `a` it achieves exactly `a`, and
/// satisfies every grid level ≤ `a`. A grid point its validation positives
/// cannot certify has no entry, so no plan sets the leaf to it.
fn leaf_curve(pp: &ProbabilisticPredicate, udf_cost: f64) -> Curve {
    let mut curve: Curve = vec![None; ACCURACY_GRID.len()];
    for (i, &a) in ACCURACY_GRID.iter().enumerate() {
        let Some(reduction) = pp.certified_reduction(i) else {
            continue;
        };
        let estimate = Estimate {
            accuracy: a,
            reduction,
            cost: pp.cost_per_row(),
        };
        let entry = CurveEntry {
            estimate,
            plan_cost: plan_cost_per_blob(&estimate, udf_cost),
            back: Back::Leaf(a),
        };
        for slot in curve.iter_mut().take(i + 1) {
            if beats(slot, entry.plan_cost) {
                *slot = Some(entry);
            }
        }
    }
    curve
}

/// Computes the DP curve of a sub-expression whose leaves all have their
/// curves in `leaf_curves`, folding children pairwise under the node's
/// combination rule and keeping the lowest-plan-cost entry per accuracy
/// level.
fn fold_curve<'c>(
    expr: &PpExpr,
    leaf_curves: &'c [(Arc<ProbabilisticPredicate>, Curve)],
    arena: &mut Vec<[Back; 2]>,
    udf_cost: f64,
) -> Result<Cow<'c, [Option<CurveEntry>]>> {
    let (children, combine): (_, fn(Estimate, Estimate) -> Estimate) = match expr {
        PpExpr::Leaf(pp) => {
            let (_, curve) = leaf_curves
                .iter()
                .find(|(l, _)| l.same_estimates(pp))
                .ok_or(PpError::InvalidParameter("leaf without a curve"))?;
            return Ok(Cow::Borrowed(curve));
        }
        PpExpr::And(children) => (children, conjoin),
        PpExpr::Or(children) if children.is_empty() => {
            return Err(PpError::InvalidParameter("empty disjunction"));
        }
        PpExpr::Or(children) => (children, disjoin),
    };
    let mut acc: Option<Cow<'c, [Option<CurveEntry>]>> = None;
    for child in children {
        let child_curve = fold_curve(child, leaf_curves, arena, udf_cost)?;
        let Some(prev) = acc else {
            acc = Some(child_curve);
            continue;
        };
        let mut merged: Curve = vec![None; ACCURACY_GRID.len()];
        for a in prev.iter().flatten() {
            for b in child_curve.iter().flatten() {
                let estimate = combine(a.estimate, b.estimate);
                // The combined entry satisfies every grid level up to its
                // achieved accuracy.
                let Some(upto) = highest_satisfied(estimate.accuracy) else {
                    continue;
                };
                let plan_cost = plan_cost_per_blob(&estimate, udf_cost);
                // Its operands go into the arena the first time it wins a
                // slot; most combinations never do.
                let mut back = None;
                for slot in merged.iter_mut().take(upto + 1) {
                    if beats(slot, plan_cost) {
                        let back = *back.get_or_insert_with(|| {
                            arena.push([a.back, b.back]);
                            Back::Pair(arena.len() - 1)
                        });
                        *slot = Some(CurveEntry {
                            estimate,
                            plan_cost,
                            back,
                        });
                    }
                }
            }
        }
        acc = Some(Cow::Owned(merged));
    }
    acc.ok_or(PpError::InvalidParameter("expression has no children"))
}

/// Largest grid index whose level is satisfied by `accuracy`.
fn highest_satisfied(accuracy: f64) -> Option<usize> {
    ACCURACY_GRID.iter().rposition(|&p| p <= accuracy + 1e-12)
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
    /// accuracy — the smallest certified one whose combined accuracy still
    /// meets the target.
    fn allocate_uniform(expr: &PpExpr, target: f64) -> Result<PlannedPpExpr> {
        if !(target > 0.0 && target <= 1.0) {
            return Err(PpError::InvalidParameter(
                "accuracy target must be in (0, 1]",
            ));
        }
        for a in ACCURACY_GRID {
            match PlannedPpExpr::new(expr.clone(), vec![a; expr.leaf_count()]) {
                Ok(planned) if planned.estimate().accuracy >= target - 1e-12 => return Ok(planned),
                Ok(_) | Err(PpError::InfeasibleAccuracy(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Err(PpError::InfeasibleAccuracy(target))
    }

    #[test]
    fn grid_is_ascending_distinct_in_unit_interval_and_ends_at_one() {
        assert!(ACCURACY_GRID.iter().all(|&p| p > 0.0 && p <= 1.0));
        assert!(ACCURACY_GRID.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ACCURACY_GRID.last(), Some(&1.0));
        assert_eq!(ceil_index(0.95), Some(7));
        assert_eq!(ceil_index(0.951), Some(8));
        assert_eq!(ceil_index(0.1), Some(0));
        assert_eq!(highest_satisfied(0.949), Some(6));
        assert_eq!(highest_satisfied(0.4), None);
    }

    #[test]
    fn single_leaf_allocation_meets_target() {
        let e = leaf(1, 0.001);
        let planned = allocate(&e, 0.95, 10.0).unwrap();
        assert!(planned.estimate().accuracy >= 0.95 - 1e-12);
        // The allocator should relax accuracy down to the target (more
        // reduction), not pin it at 1.0.
        assert!(planned.accuracies()[0] <= 0.96);
    }

    #[test]
    fn conjunction_splits_budget() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        let planned = allocate(&e, 0.95, 10.0).unwrap();
        assert!(planned.estimate().accuracy >= 0.95 - 1e-12);
        // Each leaf accuracy must exceed the overall target (they multiply).
        for &a in planned.accuracies() {
            assert!(a >= 0.95);
        }
    }

    #[test]
    fn dp_at_least_as_good_as_uniform() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(5, 0.02)]);
        let u = 5.0;
        let dp = allocate(&e, 0.9, u).unwrap();
        let uniform = allocate_uniform(&e, 0.9).unwrap();
        assert!(
            plan_cost_per_blob(&dp.estimate(), u)
                <= plan_cost_per_blob(&uniform.estimate(), u) + 1e-9,
            "dp={:?} uniform={:?}",
            dp.estimate(),
            uniform.estimate()
        );
    }

    #[test]
    fn one_dp_for_many_candidates_plans_each_like_a_dp_of_its_own() {
        let (a, b, c) = (
            Arc::new(trained_pp(0.3, 1, 0.001)),
            Arc::new(trained_pp(0.3, 2, 0.004)),
            Arc::new(trained_pp(0.3, 5, 0.02)),
        );
        // Rescaled copies: a fresh `Arc` each, as the planner's corrections
        // mint them. Equal scales share a curve; a different scale must not.
        let halved = || PpExpr::leaf(Arc::new(a.with_reduction_scale(0.5)));
        let (la, lb, lc) = (PpExpr::leaf(a.clone()), PpExpr::leaf(b), PpExpr::leaf(c));
        let candidates = [
            la.clone(),
            halved(),
            PpExpr::And(vec![la.clone(), lb.clone()]),
            PpExpr::And(vec![halved(), lb.clone(), lc.clone()]),
            PpExpr::And(vec![PpExpr::Or(vec![la, lc.clone()]), halved()]),
            PpExpr::Or(vec![lb, lc]),
        ];
        // At 0.98 the three-leaf conjunction is infeasible: its leaves
        // certify no more than 0.99 each, and 0.99³ < 0.98.
        for target in [0.9, 0.95, 0.98] {
            let mut shared = BudgetDp::new(target, 5.0);
            for cand in &candidates {
                let plan = |p: Result<PlannedPpExpr>| match p {
                    Ok(p) => Some((p.accuracies().to_vec(), p.estimate())),
                    Err(PpError::InfeasibleAccuracy(_)) => None,
                    Err(e) => panic!("{cand} at {target}: {e}"),
                };
                let together = plan(shared.allocate(cand));
                let alone = plan(allocate(cand, target, 5.0));
                assert_eq!(together, alone, "{cand} at {target}");
                let flat_triple = matches!(cand, PpExpr::And(c) if c.len() == 3);
                assert_eq!(together.is_none(), flat_triple && target == 0.98);
            }
            // a, its halved copy, b and c: four curves for thirteen leaves.
            assert_eq!(shared.leaf_curves.len(), 4);
        }
    }

    #[test]
    fn an_uncertifiable_target_has_no_plan_and_counts_its_leaves() {
        // About 420 validation positives per leaf certify 0.99 but not
        // 0.995, and nothing certifies 1.0.
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        for target in [0.995, 1.0] {
            let mut dp = BudgetDp::new(target, 10.0);
            assert!(matches!(dp.allocate(&e), Err(PpError::InfeasibleAccuracy(t)) if t == target));
            assert_eq!(dp.uncertified_leaves(), 2, "target {target}");
        }
        let mut dp = BudgetDp::new(0.95, 10.0);
        assert!(dp.allocate(&e).is_ok());
        assert_eq!(dp.uncertified_leaves(), 0);
    }

    #[test]
    fn disjunction_requires_every_leaf_at_target() {
        // Under the dependence-safe bound a = min(a_i), every disjunct
        // must individually meet the target (no branch starvation).
        let e = PpExpr::Or(vec![leaf(1, 0.001), leaf(2, 0.001)]);
        let planned = allocate(&e, 0.99, 10.0).unwrap();
        assert!(planned.estimate().accuracy >= 0.99 - 1e-12);
        for &a in planned.accuracies() {
            assert!(a >= 0.99 - 1e-12, "leaf accuracy {a}");
        }
    }

    #[test]
    fn rejects_bad_targets() {
        let e = leaf(1, 0.001);
        assert!(allocate(&e, 0.0, 1.0).is_err());
        assert!(allocate(&e, 1.5, 1.0).is_err());
        assert!(allocate_uniform(&e, 0.0).is_err());
    }

    #[test]
    fn expensive_pp_gets_disfavored_when_udf_is_cheap() {
        // With a nearly free UDF, adding filter cost is not worth it: the
        // allocator should still return a feasible plan (it cannot drop
        // leaves — that is the enumerator's job), but plan cost reflects
        // the filter burden.
        let e = leaf(3, 50.0);
        let planned = allocate(&e, 0.95, 0.001).unwrap();
        assert!(plan_cost_per_blob(&planned.estimate(), 0.001) >= 50.0);
    }
}
