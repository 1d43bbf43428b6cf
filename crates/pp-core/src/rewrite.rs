//! Rewriting complex predicates to candidate expressions over PPs (§6.1).
//!
//! Given a query predicate 𝒫 and the catalog 𝒮 of trained PPs, generate
//! expressions ℰ of conjunctions/disjunctions over PPs with 𝒫 ⇒ ℰ. The
//! rewrite rules:
//!
//! ```text
//! R1: p ∧ (𝒫/p) ⇒ PP_p          (use a PP for any conjunct)
//! R2: PP_{p∧q}  ⇒ PP_p ∧ PP_q   (split a conjunction)
//! R3: PP_{p∨q}  ⇒ PP_p ∨ PP_q   (split a disjunction)
//! R4: p ∧ (𝒫/p) ⇒ ¬PP_{¬p}     (negation reuse)
//! ```
//!
//! R4 is realized at training time: §5.6 shows the classifier for `p`
//! yields the classifier for `¬p` by sign flip, so the trainer registers
//! calibrated PPs for negated clauses directly and the enumerator matches
//! them through ordinary implication (`t = SUV ⇒ t ≠ sedan` finds
//! `PP_{t≠sedan}`).
//!
//! Since "there are at least 2ⁿ choices for ℰ", the enumerator is greedy:
//! it works group-by-group over the CNF of 𝒫, keeps only the most
//! efficient implementations per group (ranked by the intrinsic `c/r(1]`
//! ratio), and bounds the number of distinct PPs per expression by a small
//! constant `k`.

use std::sync::Arc;

use pp_engine::predicate::{Clause, Predicate};

use crate::catalog::PpCatalog;
use crate::expr::PpExpr;
use crate::pp::ProbabilisticPredicate;
use crate::wrangle::{Domains, Wrangler};

/// Maximum number of PPs per expression (the paper's `k`). The budget
/// allocator tries every vector of per-leaf accuracies, so each extra leaf
/// multiplies its search by the 16 points of
/// [`ACCURACY_GRID`](crate::alloc::ACCURACY_GRID).
pub const MAX_PPS: usize = 4;
/// Cap on CNF size during normalization.
const CNF_CAP: usize = 64;
/// Maximum candidate expressions returned.
const MAX_CANDIDATES: usize = 16;
/// How many whole-group PPs may be conjoined per CNF group.
const MAX_GROUP_CONJ: usize = 2;

/// One way to cover a single CNF group with PPs.
#[derive(Debug, Clone)]
struct GroupImpl {
    expr: PpExpr,
    /// Number of distinct PPs used.
    leaves: usize,
    /// Greedy ranking score: sum of leaf `c/r(1]` ratios (lower is better).
    score: f64,
}

/// The outcome of rewriting: candidate expressions plus the feasible-plan
/// count the paper reports in Table 10.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// Candidate expressions, best-ranked first, each using ≤ [`MAX_PPS`]
    /// PPs and implied by the query predicate.
    pub candidates: Vec<PpExpr>,
    /// Total number of feasible (group-subset × implementation) plans
    /// within the PP budget — the "# plans" column of Table 10.
    pub feasible_count: u64,
}

/// Implementations (concrete, for candidate generation) plus the count of
/// feasible implementations per leaf budget (for the Table 10 statistic —
/// the full per-disjunct cross product is counted but not materialized).
struct GroupAnalysis {
    impls: Vec<GroupImpl>,
    /// `(leaf_count, number_of_feasible_impls)` pairs.
    counting: Vec<(usize, u64)>,
}

/// Rewrites `pred` into candidate PP expressions using the catalog.
pub fn rewrite(pred: &Predicate, catalog: &PpCatalog, domains: &Domains) -> RewriteOutcome {
    let wrangled = Wrangler::new(domains, catalog).wrangle(pred);
    let Some(cnf) = wrangled.to_cnf(CNF_CAP) else {
        return RewriteOutcome {
            candidates: Vec::new(),
            feasible_count: 0,
        };
    };
    // Implementations per CNF group.
    let groups: Vec<GroupAnalysis> = cnf
        .iter()
        .map(|group| analyze_group(group, catalog))
        .collect();

    let feasible_count = count_feasible(&groups);
    let candidates = enumerate_candidates(&groups);
    RewriteOutcome {
        candidates,
        feasible_count,
    }
}

/// Analyzes one CNF group `c1 ∨ … ∨ cm`.
fn analyze_group(group: &[Clause], catalog: &PpCatalog) -> GroupAnalysis {
    let mut impls: Vec<GroupImpl> = Vec::new();
    let mut counting: Vec<(usize, u64)> = Vec::new();
    let group_pred = if group.len() == 1 {
        Predicate::Clause(group[0].clone())
    } else {
        Predicate::Or(group.iter().cloned().map(Predicate::Clause).collect())
    };
    // (a) Whole-group PPs: every PP implied by the full disjunction. Each
    // is a necessary condition, so any conjunction of them is too.
    let whole: Vec<Arc<ProbabilisticPredicate>> = catalog.implied_by(&group_pred);
    for pp in &whole {
        impls.push(GroupImpl {
            expr: PpExpr::leaf(pp.clone()),
            leaves: 1,
            score: pp.efficiency_ratio(),
        });
    }
    if !whole.is_empty() {
        counting.push((1, whole.len() as u64));
    }
    // Conjunctions of whole-group PPs (strengthening the necessary
    // condition): materialize the top *non-redundant* subset — conjoining
    // a PP with one its predicate implies (s ≥ 60 ∧ s ≥ 50) adds cost but
    // no filtering power, and the independence estimate would wrongly
    // credit it with extra reduction. Count all pairs.
    if whole.len() >= 2 {
        let mut subset: Vec<Arc<ProbabilisticPredicate>> = Vec::new();
        for pp in &whole {
            if subset.len() >= MAX_GROUP_CONJ {
                break;
            }
            let redundant = subset.iter().any(|s| s.implies(pp) || pp.implies(s));
            if !redundant {
                subset.push(pp.clone());
            }
        }
        if subset.len() >= 2 {
            let score = subset.iter().map(|pp| pp.efficiency_ratio()).sum();
            let leaves = subset.len();
            impls.push(GroupImpl {
                expr: PpExpr::And(subset.into_iter().map(PpExpr::leaf).collect()),
                leaves,
                score,
            });
        }
        let pairs = (whole.len() as u64 * (whole.len() as u64 - 1)) / 2;
        counting.push((2, pairs));
    }
    // (b) Per-disjunct cover (rule R3): PP_{c1} ∨ … ∨ PP_{cm}. Options per
    // disjunct prefer the exact-match PP, then implied PPs by efficiency.
    // The paper's greedy guard: apply only when the larger clause has no
    // PP of its own, or a simple-clause PP beats it on c/r(1].
    if group.len() >= 2 {
        let exact_whole = catalog.get(&group_pred);
        let options: Vec<Vec<Arc<ProbabilisticPredicate>>> = group
            .iter()
            .map(|c| {
                let mut opts = catalog.implied_by_clause(c);
                // Exact match first.
                let exact_key = c.to_string();
                if let Some(pos) = opts.iter().position(|pp| pp.key() == exact_key) {
                    let exact = opts.remove(pos);
                    opts.insert(0, exact);
                }
                opts
            })
            .collect();
        if options.iter().all(|o| !o.is_empty()) {
            // Count the full cross product (capped to avoid overflow).
            let mut combos: u64 = 1;
            for o in &options {
                combos = combos.saturating_mul(o.len() as u64).min(1_000_000);
            }
            counting.push((group.len().min(MAX_PPS), combos));

            let picks: Vec<Arc<ProbabilisticPredicate>> =
                options.iter().map(|o| o[0].clone()).collect();
            let beats_whole = match exact_whole {
                None => true,
                Some(w) => picks
                    .iter()
                    .any(|pp| pp.efficiency_ratio() < w.efficiency_ratio()),
            };
            if beats_whole {
                // Dedupe: the same PP covering several disjuncts collapses.
                let mut unique: Vec<Arc<ProbabilisticPredicate>> = Vec::new();
                for pp in picks {
                    if !unique.iter().any(|u| u.key() == pp.key()) {
                        unique.push(pp);
                    }
                }
                let score = unique.iter().map(|pp| pp.efficiency_ratio()).sum();
                let expr = if unique.len() == 1 {
                    PpExpr::leaf(unique[0].clone())
                } else {
                    PpExpr::Or(unique.iter().map(|pp| PpExpr::leaf(pp.clone())).collect())
                };
                let leaves = unique.len();
                // Skip if identical to an existing single-leaf impl.
                let duplicate = leaves == 1
                    && impls
                        .iter()
                        .any(|i| matches!(&i.expr, PpExpr::Leaf(l) if l.key() == unique[0].key()));
                if !duplicate {
                    impls.push(GroupImpl {
                        expr,
                        leaves,
                        score,
                    });
                }
            }
        }
    }
    impls.sort_by(|a, b| a.score.total_cmp(&b.score));
    GroupAnalysis { impls, counting }
}

/// Counts feasible plans: choices of a non-empty subset of groups, one
/// implementation each, within the PP budget. (Table 10's "# plans".)
fn count_feasible(groups: &[GroupAnalysis]) -> u64 {
    // DP over groups: ways[b] = number of (subset, impl) choices using
    // exactly b PPs. Saturating arithmetic: counts are reported, not used
    // for search.
    let mut ways: Vec<u64> = vec![0; MAX_PPS + 1];
    ways[0] = 1;
    for group in groups {
        let mut next = ways.clone(); // skipping this group
        for &(leaves, count) in &group.counting {
            if leaves > MAX_PPS || count == 0 {
                continue;
            }
            for b in 0..=(MAX_PPS - leaves) {
                let add = ways[b].saturating_mul(count);
                if add > 0 {
                    next[b + leaves] = next[b + leaves].saturating_add(add);
                }
            }
        }
        ways = next;
    }
    ways.iter().sum::<u64>().saturating_sub(1) // exclude the empty subset
}

/// Greedy candidate enumeration: group combinations in efficiency order.
fn enumerate_candidates(groups: &[GroupAnalysis]) -> Vec<PpExpr> {
    let mut candidates: Vec<(f64, PpExpr)> = Vec::new();
    // Order groups by the score of their best implementation.
    let mut group_order: Vec<usize> = (0..groups.len())
        .filter(|&g| !groups[g].impls.is_empty())
        .collect();
    group_order.sort_by(|&a, &b| {
        groups[a].impls[0]
            .score
            .total_cmp(&groups[b].impls[0].score)
    });

    // Single-group candidates: every implementation of every group.
    for &g in &group_order {
        for gi in &groups[g].impls {
            if gi.leaves <= MAX_PPS {
                candidates.push((gi.score, gi.expr.clone()));
            }
        }
    }
    // Multi-group conjunctions. When the cross product of implementation
    // choices is small, explore it exhaustively; otherwise fall back to
    // greedy chains that vary one group's choice at a time.
    if group_order.len() >= 2 {
        let product: usize = group_order.iter().map(|&g| groups[g].impls.len()).product();
        if product <= MAX_CANDIDATES {
            cartesian_chains(groups, &group_order, &mut candidates);
        } else {
            vary_one_chains(groups, &group_order, &mut candidates);
        }
    }
    // Rank, dedupe by display form, cap.
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (_, expr) in candidates {
        let key = expr.to_string();
        if seen.insert(key) {
            out.push(expr);
            if out.len() >= MAX_CANDIDATES {
                break;
            }
        }
    }
    out
}

/// Whether `expr` implies, or is implied by, a part of a chain: the pair
/// filters no more than the stronger of the two alone, while the
/// independence estimate would credit it with both reductions (the rule
/// `analyze_group` applies within a group).
fn redundant_in(parts: &[PpExpr], expr: &PpExpr) -> bool {
    parts
        .iter()
        .any(|part| mimics_implied(part, expr) || mimics_implied(expr, part))
}

/// Does `p`'s mimicked predicate imply `q`'s? Sound and incomplete: it
/// reasons through the leaves' prepared implication, building nothing.
fn mimics_implied(p: &PpExpr, q: &PpExpr) -> bool {
    match (p, q) {
        (_, PpExpr::And(qs)) => qs.iter().all(|q| mimics_implied(p, q)),
        (PpExpr::Or(ps), _) => ps.iter().all(|p| mimics_implied(p, q)),
        (PpExpr::Leaf(a), PpExpr::Leaf(b)) => a.implies(b),
        (PpExpr::And(ps), _) => ps.iter().any(|p| mimics_implied(p, q)),
        (PpExpr::Leaf(_), PpExpr::Or(qs)) => qs.iter().any(|q| mimics_implied(p, q)),
    }
}

/// All combinations of one implementation per group (small cross products
/// only), including sub-chains that skip trailing groups over budget.
fn cartesian_chains(groups: &[GroupAnalysis], order: &[usize], out: &mut Vec<(f64, PpExpr)>) {
    fn rec(
        groups: &[GroupAnalysis],
        order: &[usize],
        pos: usize,
        parts: &mut Vec<PpExpr>,
        leaves: usize,
        score: f64,
        out: &mut Vec<(f64, PpExpr)>,
    ) {
        if pos == order.len() {
            if parts.len() >= 2 {
                out.push((score, PpExpr::And(parts.clone())));
            }
            return;
        }
        for gi in &groups[order[pos]].impls {
            if leaves + gi.leaves <= MAX_PPS && !redundant_in(parts, &gi.expr) {
                parts.push(gi.expr.clone());
                rec(
                    groups,
                    order,
                    pos + 1,
                    parts,
                    leaves + gi.leaves,
                    score + gi.score,
                    out,
                );
                parts.pop();
            }
        }
        // Also allow skipping this group.
        rec(groups, order, pos + 1, parts, leaves, score, out);
    }
    rec(groups, order, 0, &mut Vec::new(), 0, 0.0, out);
}

/// Greedy chains (best impl per group), varying one group's choice at a
/// time, one chain per greedy-order starting point.
fn vary_one_chains(groups: &[GroupAnalysis], order: &[usize], out: &mut Vec<(f64, PpExpr)>) {
    let build = |choice: &dyn Fn(usize) -> usize, start: usize| -> Option<(f64, PpExpr)> {
        let mut parts = Vec::new();
        let mut leaves = 0usize;
        let mut score = 0.0;
        for (i, &g) in order.iter().enumerate().skip(start) {
            let idx = choice(i).min(groups[g].impls.len() - 1);
            let gi = &groups[g].impls[idx];
            if leaves + gi.leaves > MAX_PPS || redundant_in(&parts, &gi.expr) {
                continue;
            }
            parts.push(gi.expr.clone());
            leaves += gi.leaves;
            score += gi.score;
        }
        (parts.len() >= 2).then_some((score, PpExpr::And(parts)))
    };
    for start in 0..order.len() {
        if let Some(c) = build(&|_| 0, start) {
            out.push(c);
        }
    }
    // Vary one group's implementation to its second choice.
    for vary in 0..order.len() {
        if groups[order[vary]].impls.len() >= 2 {
            if let Some(c) = build(&|i| usize::from(i == vary), 0) {
                out.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::implies;
    use crate::pp::tests::trained_pp;
    use pp_engine::{CompareOp, Value};

    /// Builds a TRAF-like catalog over vehicle type equality / inequality
    /// and speed boundary PPs (the §8.2 corpus shape).
    fn traf_catalog() -> PpCatalog {
        let mut cat = PpCatalog::new();
        let mut seed = 0u64;
        let mut add = |cat: &mut PpCatalog, pred: Predicate| {
            seed += 1;
            let base = trained_pp(0.3, seed, 0.001);
            cat.insert(ProbabilisticPredicate::new(pred, base.pipeline().clone(), 0.001).unwrap());
        };
        for t in ["sedan", "SUV", "truck", "van"] {
            add(
                &mut cat,
                Predicate::from(Clause::new("t", CompareOp::Eq, t)),
            );
            add(
                &mut cat,
                Predicate::from(Clause::new("t", CompareOp::Ne, t)),
            );
        }
        for v in [40.0, 50.0, 60.0] {
            add(
                &mut cat,
                Predicate::from(Clause::new("s", CompareOp::Ge, v)),
            );
        }
        for v in [65.0, 70.0] {
            add(
                &mut cat,
                Predicate::from(Clause::new("s", CompareOp::Le, v)),
            );
        }
        cat
    }

    fn domains() -> Domains {
        let mut d = Domains::new();
        d.declare(
            "t",
            vec![
                Value::str("sedan"),
                Value::str("SUV"),
                Value::str("truck"),
                Value::str("van"),
            ],
        );
        d
    }

    #[test]
    fn disjunction_gets_or_and_negation_covers() {
        // t ∈ {SUV, van}: the paper's first Table 10 row.
        let pred = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        );
        let cat = traf_catalog();
        let out = rewrite(&pred, &cat, &domains());
        assert!(!out.candidates.is_empty());
        assert!(out.feasible_count >= 3, "count={}", out.feasible_count);
        // Candidates include an OR of the two equality PPs.
        let has_or = out.candidates.iter().any(|c| {
            c.to_string().contains("PP[t = SUV]") && c.to_string().contains("PP[t = van]")
        });
        assert!(
            has_or,
            "{:?}",
            out.candidates
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
        // Whole-group inequality PPs appear too (t≠sedan is implied).
        let has_ne = out.candidates.iter().any(|c| c.to_string().contains("!="));
        assert!(has_ne);
        // Every candidate is a necessary condition.
        for c in &out.candidates {
            assert!(implies(&pred, &c.mimicked()), "not implied: {c}");
        }
    }

    #[test]
    fn range_check_conjoins_boundary_pps() {
        // s > 60 ∧ s < 65: the paper's second Table 10 row.
        let pred = Predicate::and(
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 65.0)),
        );
        let cat = traf_catalog();
        let out = rewrite(&pred, &cat, &domains());
        assert!(!out.candidates.is_empty());
        // The best multi-group candidate conjoins a ≥60-side PP with a
        // ≤65-side PP.
        let has_conj = out.candidates.iter().any(|c| {
            let s = c.to_string();
            s.contains("s >= 60") && s.contains("s <= 65")
        });
        assert!(
            has_conj,
            "{:?}",
            out.candidates
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
        for c in &out.candidates {
            assert!(implies(&pred, &c.mimicked()), "not implied: {c}");
        }
    }

    #[test]
    fn four_clause_predicate_counts_many_plans() {
        // s > 60 ∧ s < 65 ∧ c = white ∧ t ∈ {SUV, van}: Table 10 row 3 has
        // hundreds of feasible plans; ours must at least grow well beyond
        // the 2-clause case.
        let mut cat = traf_catalog();
        let base = trained_pp(0.3, 99, 0.001);
        cat.insert(
            ProbabilisticPredicate::new(
                Predicate::from(Clause::new("c", CompareOp::Eq, "white")),
                base.pipeline().clone(),
                0.001,
            )
            .unwrap(),
        );
        let two_clause = Predicate::and(
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 65.0)),
        );
        let four_clause = Predicate::And(vec![
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 65.0)),
            Predicate::from(Clause::new("c", CompareOp::Eq, "white")),
            Predicate::or(
                Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
                Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
            ),
        ]);
        let d = domains();
        let small = rewrite(&two_clause, &cat, &d);
        let big = rewrite(&four_clause, &cat, &d);
        assert!(
            big.feasible_count > small.feasible_count,
            "big={} small={}",
            big.feasible_count,
            small.feasible_count
        );
        for c in &big.candidates {
            assert!(implies(&four_clause, &c.mimicked()), "not implied: {c}");
            assert!(c.leaf_count() <= MAX_PPS);
        }
    }

    #[test]
    fn halved_catalog_reduces_plans_but_keeps_coverage() {
        // Table 10's bottom half: drop half the PPs; plans shrink, but the
        // disjunction stays covered through inequality PPs.
        let pred = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        );
        let full = traf_catalog();
        let mut halved = traf_catalog();
        halved.retain(|pp| !pp.key().starts_with("t ="));
        let d = domains();
        let out_full = rewrite(&pred, &full, &d);
        let out_half = rewrite(&pred, &halved, &d);
        assert!(out_half.feasible_count < out_full.feasible_count);
        assert!(!out_half.candidates.is_empty());
        for c in &out_half.candidates {
            assert!(implies(&pred, &c.mimicked()));
        }
    }

    #[test]
    fn no_catalog_no_candidates() {
        let pred = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        let cat = PpCatalog::new();
        let out = rewrite(&pred, &cat, &domains());
        assert!(out.candidates.is_empty());
        assert_eq!(out.feasible_count, 0);
    }

    #[test]
    fn budget_k_limits_leaf_count() {
        // Five leaves would cover every group: one per speed bound, two
        // for the vehicle-type disjunction, one for the colour.
        let pred = Predicate::And(vec![
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 65.0)),
            Predicate::or(
                Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
                Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
            ),
            Predicate::from(Clause::new("c", CompareOp::Eq, "white")),
        ]);
        let mut cat = traf_catalog();
        let base = trained_pp(0.3, 99, 0.001);
        cat.insert(
            ProbabilisticPredicate::new(
                Predicate::from(Clause::new("c", CompareOp::Eq, "white")),
                base.pipeline().clone(),
                0.001,
            )
            .unwrap(),
        );
        let out = rewrite(&pred, &cat, &domains());
        for c in &out.candidates {
            assert!(c.leaf_count() <= MAX_PPS, "too many PPs: {c}");
        }
        // The cap binds: the widest candidates stop at exactly k.
        assert!(
            out.candidates.iter().any(|c| c.leaf_count() == MAX_PPS),
            "{:?}",
            out.candidates
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
    }
}
