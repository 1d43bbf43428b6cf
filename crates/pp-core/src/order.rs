//! PP ordering within a conjunction or disjunction (§6.2).
//!
//! "If k is small, then all of the exponentially many orderings can be
//! explored. When k is large, we use the following heuristic: consider
//! ordering the PPs by the ratio of their intrinsic c/r(1] and then
//! consider all other orderings that are an edit-distance of at most 2 away
//! from this greedy order."
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

/// Maximum `k` for which all `k!` orders are explored exhaustively.
pub const EXHAUSTIVE_LIMIT: usize = 5;

/// Finds a low-cost execution order.
///
/// Exhaustive for at most [`EXHAUSTIVE_LIMIT`] items; otherwise the greedy
/// c/r order plus its edit-distance-≤2 neighborhood (pairs of swaps).
pub fn best_order(items: &[OrderItem], gate: Gate) -> (Vec<usize>, f64) {
    let n = items.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    if n <= EXHAUSTIVE_LIMIT {
        // The identity order is the first permutation visited, so it is
        // where the search starts.
        let mut order: Vec<usize> = (0..n).collect();
        let mut best = (order.clone(), sequence_cost(items, &order, gate));
        permute(&mut order, 0, &mut |perm| {
            let c = sequence_cost(items, perm, gate);
            if c < best.1 {
                best = (perm.to_vec(), c);
            }
        });
        return best;
    }
    // Greedy order by intrinsic cost/reduction ratio. For disjunctions,
    // high reduction means the next PP *does* run, so greedy prefers low
    // cost relative to (1 - reduction) instead.
    let mut greedy: Vec<usize> = (0..n).collect();
    greedy.sort_by(|&a, &b| {
        let score = |i: usize| {
            let it = items[i];
            match gate {
                Gate::Conjunction => it.cost / it.reduction.max(1e-9),
                Gate::Disjunction => it.cost / (1.0 - it.reduction).max(1e-9),
            }
        };
        score(a).total_cmp(&score(b))
    });
    let mut best = (greedy.clone(), sequence_cost(items, &greedy, gate));
    // Edit-distance ≤ 2: orders reachable with at most two transpositions.
    let consider = |order: &[usize], best: &mut (Vec<usize>, f64)| {
        let c = sequence_cost(items, order, gate);
        if c < best.1 {
            *best = (order.to_vec(), c);
        }
    };
    for i in 0..n {
        for j in (i + 1)..n {
            let mut once = greedy.clone();
            once.swap(i, j);
            consider(&once, &mut best);
            for k in 0..n {
                for l in (k + 1)..n {
                    let mut twice = once.clone();
                    twice.swap(k, l);
                    consider(&twice, &mut best);
                }
            }
        }
    }
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
    fn heuristic_path_runs_for_large_k() {
        let items: Vec<OrderItem> = (0..8)
            .map(|i| item(1.0 + i as f64, 0.1 * (i + 1) as f64))
            .collect();
        let (order, cost) = best_order(&items, Gate::Conjunction);
        assert_eq!(order.len(), 8);
        assert!(cost > 0.0);
        // All indices present exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(best_order(&[], Gate::Conjunction), (vec![], 0.0));
        let (order, cost) = best_order(&[item(2.0, 0.5)], Gate::Disjunction);
        assert_eq!(order, vec![0]);
        assert!((cost - 2.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn heuristic_never_worse_than_greedy(
            costs in proptest::collection::vec(0.01f64..10.0, 6..9),
            reds in proptest::collection::vec(0.0f64..1.0, 6..9),
        ) {
            let n = costs.len().min(reds.len());
            let items: Vec<OrderItem> = (0..n).map(|i| item(costs[i], reds[i])).collect();
            for gate in [Gate::Conjunction, Gate::Disjunction] {
                let (order, cost) = best_order(&items, gate);
                proptest::prop_assert_eq!(order.len(), n);
                // The chosen order's cost must equal its recomputed cost.
                let recomputed = sequence_cost(&items, &order, gate);
                proptest::prop_assert!((cost - recomputed).abs() < 1e-9);
            }
        }
    }
}
