//! The accuracy / reduction / cost algebra for PP combinations
//! (§6.2, Eqs. 9 and 10).
//!
//! Under the independence assumption (revisited at runtime by
//! [`crate::runtime`]):
//!
//! ```text
//! Conjunction ℰ = ℰ1 ∧ ℰ2:    a = a1·a2
//!                             r = r1 + r2 − r1·r2
//!                             c = min(c1 + (1−r1)·c2, c2 + (1−r2)·c1)
//!
//! Disjunction ℰ = ℰ1 ∨ ℰ2:    a = a1 + a2 − a1·a2
//!                             r = r1·r2
//!                             c = min(c1 + r1·c2, c2 + r2·c1)
//! ```
//!
//! Intuition (paper §6.2): conjunction accuracy degrades multiplicatively;
//! its reduction improves with diminishing returns; cost is lower when the
//! sub-expression with the better cost-to-reduction ratio runs first.

/// Estimated properties of a (sub-)expression of PPs at a particular
/// accuracy assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Expected accuracy (fraction of true positives preserved).
    pub accuracy: f64,
    /// Expected data reduction (fraction of inputs dropped).
    pub reduction: f64,
    /// Expected per-blob filtering cost in simulated seconds.
    pub cost: f64,
}

impl Estimate {
    /// A degenerate "no filtering" estimate: perfect accuracy, no
    /// reduction, no cost.
    pub fn passthrough() -> Estimate {
        Estimate {
            accuracy: 1.0,
            reduction: 0.0,
            cost: 0.0,
        }
    }
}

/// Combines two sub-expression estimates under conjunction (Eq. 9).
pub fn conjoin(e1: Estimate, e2: Estimate) -> Estimate {
    Estimate {
        accuracy: e1.accuracy * e2.accuracy,
        reduction: e1.reduction + e2.reduction - e1.reduction * e2.reduction,
        cost: (e1.cost + (1.0 - e1.reduction) * e2.cost)
            .min(e2.cost + (1.0 - e2.reduction) * e1.cost),
    }
}

/// Combines two sub-expression estimates under disjunction (Eq. 10, with
/// a dependence-safe accuracy bound).
///
/// Eq. 10's `a = a1 + a2 − a1·a2` assumes a blob rejected by one PP is
/// independently accepted by the other — catastrophically wrong for
/// *mutually exclusive* disjuncts (`t = sedan ∨ t = truck`): a sedan can
/// only be saved by the sedan PP, so assigning it accuracy 0.5 halves the
/// query's recall no matter what the truck PP does. Appendix A.5 notes
/// "the independence assumption can be replaced with an upper bound that
/// is fairly tight"; we use `a = min(a1, a2)`, which is sound under any
/// dependence (a blob satisfying disjunct i passes whenever PP_i passes,
/// so per-disjunct recall is at least a_i) and exact for disjoint
/// disjuncts with equal budgets.
pub fn disjoin(e1: Estimate, e2: Estimate) -> Estimate {
    Estimate {
        accuracy: e1.accuracy.min(e2.accuracy),
        reduction: e1.reduction * e2.reduction,
        cost: (e1.cost + e1.reduction * e2.cost).min(e2.cost + e2.reduction * e1.cost),
    }
}

/// Plan cost per input blob (§3): the filter cost plus the unfiltered
/// fraction of the downstream UDF cost `u`.
pub fn plan_cost_per_blob(e: &Estimate, udf_cost: f64) -> f64 {
    e.cost + (1.0 - e.reduction) * udf_cost
}

/// The §3 speed-up formula: `1 / (1 − r + c/u)`.
pub fn speedup(e: &Estimate, udf_cost: f64) -> f64 {
    1.0 / (1.0 - e.reduction + e.cost / udf_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: f64, r: f64, c: f64) -> Estimate {
        Estimate {
            accuracy: a,
            reduction: r,
            cost: c,
        }
    }

    #[test]
    fn paper_intuition_low_reduction_nearly_doubles() {
        // §6.2: "if two expressions have a reduction rate of 0.1, the
        // conjunction nearly doubles its data reduction to 0.19".
        let out = conjoin(e(1.0, 0.1, 1.0), e(1.0, 0.1, 1.0));
        assert!((out.reduction - 0.19).abs() < 1e-12);
    }

    #[test]
    fn paper_intuition_high_reduction_saturates() {
        // "when each reduction rate is 0.8 the conjunction only increases
        // to 0.96".
        let out = conjoin(e(1.0, 0.8, 1.0), e(1.0, 0.8, 1.0));
        assert!((out.reduction - 0.96).abs() < 1e-12);
    }

    #[test]
    fn conjunction_accuracy_multiplies() {
        let out = conjoin(e(0.95, 0.5, 1.0), e(0.9, 0.5, 1.0));
        assert!((out.accuracy - 0.855).abs() < 1e-12);
    }

    #[test]
    fn disjunction_accuracy_is_dependence_safe() {
        // min(a1, a2), not Eq. 10's independence estimate: mutually
        // exclusive disjuncts would otherwise let the allocator starve one
        // branch.
        let out = disjoin(e(0.9, 0.5, 1.0), e(0.95, 0.5, 1.0));
        assert!((out.accuracy - 0.9).abs() < 1e-12);
        assert!((out.reduction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conjunction_cost_prefers_better_ratio_first() {
        // PP1: cheap and reductive; PP2: expensive. Running PP1 first is
        // cheaper.
        let e1 = e(1.0, 0.9, 1.0);
        let e2 = e(1.0, 0.1, 10.0);
        let out = conjoin(e1, e2);
        // c1 + (1-r1)c2 = 1 + 0.1*10 = 2; c2 + (1-r2)c1 = 10 + 0.9 = 10.9.
        assert!((out.cost - 2.0).abs() < 1e-12);
        // Order of arguments must not matter.
        assert_eq!(conjoin(e1, e2), conjoin(e2, e1));
    }

    #[test]
    fn disjunction_cost_short_circuits_on_accept() {
        let e1 = e(1.0, 0.2, 1.0); // accepts 80% immediately
        let e2 = e(1.0, 0.2, 10.0);
        let out = disjoin(e1, e2);
        // c1 + r1*c2 = 1 + 0.2*10 = 3; c2 + r2*c1 = 10 + 0.2 = 10.2.
        assert!((out.cost - 3.0).abs() < 1e-12);
        assert_eq!(disjoin(e1, e2), disjoin(e2, e1));
    }

    #[test]
    fn plan_cost_and_speedup() {
        // §3: gains = 1 / (1 - r + c/u).
        let est = e(1.0, 0.5, 1.0);
        let u = 100.0;
        assert!((plan_cost_per_blob(&est, u) - 51.0).abs() < 1e-12);
        assert!((speedup(&est, u) - 1.0 / 0.51).abs() < 1e-12);
        // §3: performance can worsen when r <= c/u.
        let bad = e(1.0, 0.005, 1.0);
        assert!(speedup(&bad, u) < 1.0);
    }

    proptest::proptest! {
        #[test]
        fn algebra_stays_in_unit_ranges(
            a1 in 0.0f64..=1.0, r1 in 0.0f64..=1.0, c1 in 0.0f64..10.0,
            a2 in 0.0f64..=1.0, r2 in 0.0f64..=1.0, c2 in 0.0f64..10.0,
        ) {
            for out in [conjoin(e(a1, r1, c1), e(a2, r2, c2)), disjoin(e(a1, r1, c1), e(a2, r2, c2))] {
                proptest::prop_assert!((0.0..=1.0).contains(&out.accuracy));
                proptest::prop_assert!((-1e-12..=1.0 + 1e-12).contains(&out.reduction));
                proptest::prop_assert!(out.cost >= 0.0);
                proptest::prop_assert!(out.cost <= c1 + c2 + 1e-12);
            }
        }

        #[test]
        fn conjunction_never_reduces_reduction(
            r1 in 0.0f64..=1.0, r2 in 0.0f64..=1.0,
        ) {
            let out = conjoin(e(1.0, r1, 0.0), e(1.0, r2, 0.0));
            proptest::prop_assert!(out.reduction >= r1.max(r2) - 1e-12);
        }

        #[test]
        fn disjunction_never_increases_reduction(
            r1 in 0.0f64..=1.0, r2 in 0.0f64..=1.0,
        ) {
            let out = disjoin(e(1.0, r1, 0.0), e(1.0, r2, 0.0));
            proptest::prop_assert!(out.reduction <= r1.min(r2) + 1e-12);
        }
    }
}
