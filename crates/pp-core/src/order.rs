//! PP ordering within a conjunction or disjunction (§6.2).
//!
//! "If k is small, then all of the exponentially many orderings can be
//! explored. When k is large, we use the following heuristic: consider
//! ordering the PPs by the ratio of their intrinsic c/r(1] and then
//! consider all other orderings that are an edit-distance of at most 2 away
//! from this greedy order." Here k is always small: the planner orders the
//! children of one node of an expression of at most
//! [`MAX_PPS`](crate::rewrite::MAX_PPS) leaves, so every order is explored
//! and the heuristic has nothing to do.
//!
//! The true sequential cost of running filters in order `π` over one blob:
//!
//! * conjunction: PP i runs only on blobs every earlier PP accepted —
//!   `cost = Σ_i c_{π(i)} · Π_{j<i} (1 − r_{π(j)})`,
//! * disjunction: PP i runs only on blobs every earlier PP rejected —
//!   `cost = Σ_i c_{π(i)} · Π_{j<i} r_{π(j)}`.

/// Cost/reduction of one element to be ordered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderItem {
    /// Per-blob execution cost.
    pub cost: f64,
    /// Data reduction at the element's assigned accuracy.
    pub reduction: f64,
}

/// Whether the sequence short-circuits on reject (conjunction) or accept
/// (disjunction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Conjunction semantics: later elements see the *passed* fraction.
    Conjunction,
    /// Disjunction semantics: later elements see the *rejected* fraction.
    Disjunction,
}

/// Expected per-blob cost of executing `items` in the given order.
pub fn sequence_cost(items: &[OrderItem], order: &[usize], gate: Gate) -> f64 {
    let mut surviving = 1.0;
    let mut cost = 0.0;
    for &i in order {
        cost += items[i].cost * surviving;
        surviving *= match gate {
            Gate::Conjunction => 1.0 - items[i].reduction,
            Gate::Disjunction => items[i].reduction,
        };
    }
    cost
}

// `best_order` tries all k! orders of a node's children, k ≤ `MAX_PPS`:
// a larger cap must stop the build here, not turn into a factorial search.
const _: () = assert!(crate::rewrite::MAX_PPS <= 6);
// `alloc::allocate` tries every vector of per-leaf grid levels: at most
// 16⁴ per candidate, and a larger cap or grid must stop the build here.
const _: () = assert!(
    crate::alloc::ACCURACY_GRID
        .len()
        .pow(crate::rewrite::MAX_PPS as u32)
        <= 65_536
);

/// The cheapest execution order, and its cost: every order is tried, the
/// identity first, and a later one wins only if strictly cheaper.
pub(crate) fn best_order(items: &[OrderItem], gate: Gate) -> (Vec<usize>, f64) {
    // The identity order is the first permutation visited, so it is where
    // the search starts.
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut best = (order.clone(), sequence_cost(items, &order, gate));
    permute(&mut order, 0, &mut |perm| {
        let c = sequence_cost(items, perm, gate);
        if c < best.1 {
            best = (perm.to_vec(), c);
        }
    });
    best
}

fn permute(order: &mut Vec<usize>, start: usize, f: &mut impl FnMut(&[usize])) {
    if start == order.len() {
        f(order);
        return;
    }
    for i in start..order.len() {
        order.swap(start, i);
        permute(order, start + 1, f);
        order.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(cost: f64, reduction: f64) -> OrderItem {
        OrderItem { cost, reduction }
    }

    #[test]
    fn conjunction_prefers_reductive_cheap_first() {
        let items = [item(10.0, 0.1), item(1.0, 0.9)];
        let (order, cost) = best_order(&items, Gate::Conjunction);
        assert_eq!(order, vec![1, 0]);
        // 1 + 0.1*10 = 2.0
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disjunction_prefers_accepting_cheap_first() {
        // In a disjunction, an element with LOW reduction accepts most
        // blobs, short-circuiting the rest.
        let items = [item(1.0, 0.1), item(10.0, 0.9)];
        let (order, cost) = best_order(&items, Gate::Disjunction);
        assert_eq!(order, vec![0, 1]);
        // 1 + 0.1*10 = 2.0
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_cost_matches_eq9_pairwise() {
        // For two items, sequence cost at the better order equals Eq. 9's
        // min().
        let a = item(2.0, 0.5);
        let b = item(3.0, 0.8);
        let fwd = sequence_cost(&[a, b], &[0, 1], Gate::Conjunction);
        let bwd = sequence_cost(&[a, b], &[1, 0], Gate::Conjunction);
        let eq9 =
            (a.cost + (1.0 - a.reduction) * b.cost).min(b.cost + (1.0 - b.reduction) * a.cost);
        assert!((fwd.min(bwd) - eq9).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_beats_or_ties_any_fixed_order() {
        let items = [
            item(1.0, 0.3),
            item(2.0, 0.6),
            item(0.5, 0.1),
            item(4.0, 0.9),
        ];
        let (_, best_cost) = best_order(&items, Gate::Conjunction);
        let identity: Vec<usize> = (0..items.len()).collect();
        assert!(best_cost <= sequence_cost(&items, &identity, Gate::Conjunction) + 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(best_order(&[], Gate::Conjunction), (vec![], 0.0));
        let (order, cost) = best_order(&[item(2.0, 0.5)], Gate::Disjunction);
        assert_eq!(order, vec![0]);
        assert!((cost - 2.0).abs() < 1e-12);
    }
}
