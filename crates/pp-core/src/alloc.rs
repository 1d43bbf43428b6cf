//! Accuracy-budget allocation across the PPs of an expression (§6.2).
//!
//! "We have to explore different allocations of the query's accuracy
//! budget to individual PPs ... The first problem translates to a dynamic
//! program which we omit for brevity."
//!
//! We search instead of programming: a leaf takes one of the
//! [`ACCURACY_GRID`] levels and an expression has at most
//! [`MAX_PPS`] leaves, so every allocation can be tried — at most 16⁴ per
//! candidate, a bound this module asserts at compile time. A DP that keeps
//! the cheapest entry per grid level of each sub-expression is not exact:
//! Eq. 9 reads a child's reduction and cost apart, so the child a cheaper
//! (or the only feasible) whole needs can be a dearer one the DP dropped.
//! The search is exact by construction, and reads every estimate through
//! the one Eq. 9/10 fold [`PpExpr::estimate`] uses, so a different
//! estimate changes the fold, not the search.
//!
//! Each leaf tries only its certified levels at or above the target's grid
//! point: Eq. 9's product and Eq. 10's min never exceed any leaf's own
//! accuracy, so a lower level cannot reach it. Both are monotone in each
//! leaf's accuracy, so a prefix of levels whose best completion (every
//! later leaf at its top level) misses the target is skipped whole: a
//! conjunction's low levels rarely reach it, while a disjunction's always
//! do and are all tried. The cheapest plan cost
//! `c + (1 − r)·u` (§3) wins, trading filter cost against saved UDF work.

use crate::combine::{plan_cost_per_blob, Estimate};
use crate::expr::{PlannedPpExpr, PpExpr};
use crate::pp::ProbabilisticPredicate;
use crate::rewrite::MAX_PPS;
use crate::{PpError, Result};

/// The discrete per-leaf accuracy levels the allocator considers:
/// ascending, distinct, in (0, 1].
///
/// A leaf takes a level only where its validation positives certify it
/// ([`pp_ml::calibrate::certified_keep`]), so a target some leaf cannot
/// certify has no plan using that leaf; no leaf certifies 1.0, so a target
/// of 1.0 has no PP plan at all.
pub const ACCURACY_GRID: [f64; 16] = [
    0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.998, 0.999, 1.0,
];

// `allocate` tries every vector of per-leaf grid levels: at most 16⁴ per
// candidate, and a larger cap or grid must stop the build here.
const _: () = assert!(ACCURACY_GRID.len().pow(MAX_PPS as u32) <= 65_536);

/// Index of the smallest grid point ≥ `a`: the level a plan for target
/// `a` must reach.
fn ceil_index(a: f64) -> Option<usize> {
    ACCURACY_GRID.iter().position(|&p| p >= a - 1e-12)
}

/// `pp`'s certified levels at or above grid index `floor`, ascending, as
/// leaf estimates.
fn certified_levels(
    pp: &ProbabilisticPredicate,
    floor: usize,
) -> impl Iterator<Item = Estimate> + '_ {
    (floor..ACCURACY_GRID.len()).filter_map(|i| {
        Some(Estimate {
            accuracy: ACCURACY_GRID[i],
            reduction: pp.certified_reduction(i)?,
            cost: pp.cost_per_row(),
        })
    })
}

/// Whether `pp` certifies some grid level at or above `target`'s. A leaf
/// that does not leaves every candidate using it without a plan.
pub(crate) fn certifies(pp: &ProbabilisticPredicate, target: f64) -> bool {
    ceil_index(target).is_some_and(|floor| certified_levels(pp, floor).next().is_some())
}

/// Allocates the accuracy budget over `expr`'s leaves to minimize plan cost
/// `c + (1 − r)·u` subject to combined accuracy ≥ `target`'s grid point.
///
/// Every vector of certified levels that can reach the target is tried,
/// the last leaf varying fastest and each leaf's levels ascending; a later
/// vector replaces the one held only if it is cheaper by more than 1e-15,
/// so ties go to the first met. Errors on a target outside (0, 1] or more
/// than [`MAX_PPS`] leaves, and with [`PpError::InfeasibleAccuracy`] when no vector reaches
/// the target.
pub fn allocate(expr: &PpExpr, target: f64, udf_cost: f64) -> Result<PlannedPpExpr> {
    if !(target > 0.0 && target <= 1.0) {
        return Err(PpError::InvalidParameter(
            "accuracy target must be in (0, 1]",
        ));
    }
    let floor = ceil_index(target).ok_or(PpError::InfeasibleAccuracy(target))?;
    let leaves = expr.leaves();
    let n = leaves.len();
    if n > MAX_PPS {
        return Err(PpError::InvalidParameter("more than MAX_PPS leaves"));
    }
    let mut levels = [[Estimate::passthrough(); ACCURACY_GRID.len()]; MAX_PPS];
    let mut counts = [0usize; MAX_PPS];
    for (leaf, pp) in leaves.iter().enumerate() {
        for level in certified_levels(pp, floor) {
            levels[leaf][counts[leaf]] = level;
            counts[leaf] += 1;
        }
    }
    if counts[..n].contains(&0) {
        return Err(PpError::InfeasibleAccuracy(target));
    }
    let mut search = Search {
        expr,
        levels: &levels,
        counts: &counts[..n],
        goal: ACCURACY_GRID[floor] - 1e-12,
        udf_cost,
        pick: [0; MAX_PPS],
        best: None,
    };
    search.descend(0)?;
    let (_, pick) = search.best.ok_or(PpError::InfeasibleAccuracy(target))?;
    let accuracies = (0..n).map(|l| levels[l][pick[l]].accuracy).collect();
    PlannedPpExpr::new(expr.clone(), accuracies)
}

/// The search over one expression's vectors of leaf levels.
struct Search<'a> {
    expr: &'a PpExpr,
    /// Each leaf's certified levels, ascending (`counts[leaf]` of them).
    levels: &'a [[Estimate; ACCURACY_GRID.len()]; MAX_PPS],
    counts: &'a [usize],
    /// The accuracy a vector must reach.
    goal: f64,
    udf_cost: f64,
    /// The vector being tried: each leaf's index into its levels.
    pick: [usize; MAX_PPS],
    /// The cheapest vector reaching the goal so far, beside its cost.
    best: Option<(f64, [usize; MAX_PPS])>,
}

impl Search<'_> {
    /// Tries every vector that keeps `pick[..depth]`, the last leaf
    /// varying fastest. Eq. 9/10's accuracy never falls as one leaf's
    /// rises, so a prefix with every later leaf at its top level bounds
    /// all the vectors that extend it: levels of leaf `depth` whose bound
    /// misses the goal are skipped, and once one reaches it the higher
    /// ones do too.
    fn descend(&mut self, depth: usize) -> Result<()> {
        if depth == self.counts.len() {
            let estimate = self.fold(depth)?;
            if estimate.accuracy >= self.goal {
                let cost = plan_cost_per_blob(&estimate, self.udf_cost);
                if self.best.is_none_or(|(held, _)| cost < held - 1e-15) {
                    self.best = Some((cost, self.pick));
                }
            }
            return Ok(());
        }
        // The last leaf's bound is the vector itself, checked below.
        let mut reachable = depth + 1 == self.counts.len();
        for level in 0..self.counts[depth] {
            self.pick[depth] = level;
            reachable = reachable || self.fold(depth + 1)?.accuracy >= self.goal;
            if reachable {
                self.descend(depth + 1)?;
            }
        }
        Ok(())
    }

    /// The estimate with the leaves before `picked` at their picked levels
    /// and the rest at their top ones.
    fn fold(&self, picked: usize) -> Result<Estimate> {
        let mut leaf = 0;
        self.expr.fold(&mut |_| {
            let level = match leaf < picked {
                true => self.pick[leaf],
                false => self.counts[leaf] - 1,
            };
            leaf += 1;
            Ok(self.levels[leaf - 1][level])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;
    use std::sync::Arc;

    fn leaf(seed: u64, cost: f64) -> PpExpr {
        PpExpr::leaf(Arc::new(trained_pp(0.3, seed, cost)))
    }

    /// A reference the search is held against: every leaf gets the same grid
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
    fn search_at_least_as_good_as_uniform() {
        let e = PpExpr::And(vec![leaf(1, 0.001), leaf(5, 0.02)]);
        let u = 5.0;
        let searched = allocate(&e, 0.9, u).unwrap();
        let uniform = allocate_uniform(&e, 0.9).unwrap();
        assert!(
            plan_cost_per_blob(&searched.estimate(), u)
                <= plan_cost_per_blob(&uniform.estimate(), u) + 1e-9,
            "searched={:?} uniform={:?}",
            searched.estimate(),
            uniform.estimate()
        );
    }

    #[test]
    fn an_uncertifiable_target_has_no_plan() {
        // About 420 validation positives per leaf certify 0.99 but not
        // 0.995, and nothing certifies 1.0.
        let pp = Arc::new(trained_pp(0.3, 1, 0.001));
        let e = PpExpr::And(vec![PpExpr::leaf(pp.clone()), leaf(2, 0.001)]);
        for target in [0.995, 1.0] {
            assert!(
                matches!(allocate(&e, target, 10.0), Err(PpError::InfeasibleAccuracy(t)) if t == target)
            );
            assert!(!certifies(&pp, target), "target {target}");
        }
        assert!(allocate(&e, 0.95, 10.0).is_ok());
        assert!(certifies(&pp, 0.95));
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
    fn rejects_more_leaves_than_the_search_is_bounded_for() {
        let e = PpExpr::And((1..=5).map(|seed| leaf(seed, 0.001)).collect());
        assert!(matches!(
            allocate(&e, 0.5, 1.0),
            Err(PpError::InvalidParameter(_))
        ));
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

    /// The leaves random expressions draw from: three PPs certifying up to
    /// 0.99 (about 420 validation positives each), one certifying up to
    /// 0.95 (about 70), and a rescaled copy of the first.
    fn pool() -> &'static [Arc<ProbabilisticPredicate>] {
        static POOL: std::sync::OnceLock<Vec<Arc<ProbabilisticPredicate>>> =
            std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            let first = trained_pp(0.3, 1, 0.001);
            vec![
                Arc::new(first.with_reduction_scale(0.5)),
                Arc::new(first),
                Arc::new(trained_pp(0.3, 2, 0.004)),
                Arc::new(trained_pp(0.3, 5, 0.02)),
                Arc::new(trained_pp(0.05, 7, 0.002)),
            ]
        })
    }

    /// Every And/Or expression over one to three leaves, by `shape`.
    fn shaped(picks: &[usize], shape: usize) -> PpExpr {
        let l = |i: usize| PpExpr::leaf(Arc::clone(&pool()[picks[i]]));
        let gate = |and: bool, es: Vec<PpExpr>| if and { PpExpr::And(es) } else { PpExpr::Or(es) };
        let and = shape.is_multiple_of(2);
        match picks.len() {
            1 => l(0),
            2 => gate(and, vec![l(0), l(1)]),
            _ => match shape / 2 % 3 {
                0 => gate(and, vec![l(0), l(1), l(2)]),
                1 => gate(and, vec![l(0), gate(!and, vec![l(1), l(2)])]),
                _ => gate(and, vec![gate(!and, vec![l(0), l(1)]), l(2)]),
            },
        }
    }

    /// The allocator's contract, by brute force over the public API: every
    /// grid vector, certified or not, planned by `PlannedPpExpr::new`; the
    /// cheapest plan cost whose accuracy reaches the target's grid point.
    fn brute_force_cost(expr: &PpExpr, target: f64, u: f64) -> Option<f64> {
        let point = ACCURACY_GRID.iter().find(|&&p| p >= target - 1e-12)?;
        let (g, n) = (ACCURACY_GRID.len(), expr.leaf_count());
        let mut best: Option<f64> = None;
        for v in 0..g.pow(n as u32) {
            let accuracies = (0..n)
                .map(|l| ACCURACY_GRID[v / g.pow(l as u32) % g])
                .collect();
            let planned = match PlannedPpExpr::new(expr.clone(), accuracies) {
                Ok(p) => p,
                Err(PpError::InfeasibleAccuracy(_)) => continue,
                Err(e) => panic!("{expr}: {e}"),
            };
            if planned.estimate().accuracy >= point - 1e-12 {
                let cost = plan_cost_per_blob(&planned.estimate(), u);
                best = Some(best.map_or(cost, |b| b.min(cost)));
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn search_matches_brute_force(
            picks in proptest::collection::vec(0usize..5, 1..4),
            shape in 0usize..6,
            target in proptest::sample::select(vec![
                0.5, 0.55, 0.8, 0.84, 0.9, 0.91, 0.95, 0.955, 0.99, 0.995,
            ]),
            udf_cost in proptest::sample::select(vec![0.001, 0.05, 1.0, 20.0]),
        ) {
            let expr = shaped(&picks, shape);
            let searched = match allocate(&expr, target, udf_cost) {
                Ok(p) => Some(plan_cost_per_blob(&p.estimate(), udf_cost)),
                Err(PpError::InfeasibleAccuracy(_)) => None,
                Err(e) => panic!("{expr} at {target}: {e}"),
            };
            let brute = brute_force_cost(&expr, target, udf_cost);
            proptest::prop_assert_eq!(searched.is_some(), brute.is_some());
            if let (Some(s), Some(b)) = (searched, brute) {
                proptest::prop_assert!((s - b).abs() <= 1e-12, "{expr} at {target}: {s} vs {b}");
            }
        }
    }
}
