//! Sound (but incomplete) predicate implication.
//!
//! The QO may only use a PP combination ℰ when it "is semantically implied
//! by the original query predicate; i.e., the PP combination has to be a
//! necessary condition of the query predicate (since we use PPs to drop
//! blobs that are unlikely to satisfy the predicate)" (§3). This module
//! provides the `𝒫 ⇒ 𝒬` check: it never claims an implication that does
//! not hold, though it may miss some that do (it reasons syntactically over
//! CNF with single-column interval logic).

use pp_engine::predicate::{Clause, Cnf, CompareOp, Predicate};

/// Does clause `p` imply clause `q`? Sound; complete for same-column
/// comparisons over totally ordered values.
pub fn clause_implies(p: &Clause, q: &Clause) -> bool {
    if p.column != q.column {
        return false;
    }
    let (pv, qv) = (&p.value, &q.value);
    let cmp = match pv.sql_cmp(qv) {
        Some(c) => c,
        None => {
            // Incomparable constants: only exact matches can be decided.
            return p.op == q.op && pv.sql_eq(qv);
        }
    };
    use std::cmp::Ordering::*;
    use CompareOp::*;
    match (p.op, q.op) {
        // x = v1 ⇒ q exactly when the constant v1 satisfies q.
        (Eq, Eq) => cmp == Equal,
        (Eq, Ne) => cmp != Equal,
        (Eq, Lt) => cmp == Less,
        (Eq, Le) => cmp != Greater,
        (Eq, Gt) => cmp == Greater,
        (Eq, Ge) => cmp != Less,
        // x > v1 ⇒ ...
        (Gt, Gt) => cmp != Less, // v1 >= v2
        (Gt, Ge) => cmp != Less, // x > v1 >= v2 ⇒ x >= v2 (indeed x > v2)
        (Gt, Ne) => cmp != Less, // x > v1 >= v2 ⇒ x != v2
        // x >= v1 ⇒ ...
        (Ge, Ge) => cmp != Less,    // v1 >= v2
        (Ge, Gt) => cmp == Greater, // v1 > v2
        (Ge, Ne) => cmp == Greater,
        // x < v1 ⇒ ...
        (Lt, Lt) => cmp != Greater, // v1 <= v2
        (Lt, Le) => cmp != Greater,
        (Lt, Ne) => cmp != Greater,
        // x <= v1 ⇒ ...
        (Le, Le) => cmp != Greater,
        (Le, Lt) => cmp == Less, // v1 < v2
        (Le, Ne) => cmp == Less,
        // x != v1 ⇒ x != v2 only when v1 = v2.
        (Ne, Ne) => cmp == Equal,
        _ => false,
    }
}

/// Cap on CNF size used during implication checking.
const CNF_CAP: usize = 256;

/// The left side of `p ⇒ q`, prepared once to be tested against many
/// `q`: whether `p` simplifies to `FALSE`, and its CNF. A catalog lookup
/// prepares the query's predicate and tests every PP's stored
/// [`nnf`](crate::pp::ProbabilisticPredicate::nnf) against it.
#[derive(Debug)]
pub struct Antecedent {
    is_false: bool,
    /// `None` when `p` is too complex to normalize (or a constant).
    cnf: Option<Cnf>,
}

impl Antecedent {
    /// Prepares `p`.
    pub fn new(p: &Predicate) -> Self {
        Antecedent {
            is_false: matches!(p.simplify(), Predicate::False),
            cnf: p.to_cnf(CNF_CAP),
        }
    }

    /// Does the prepared `p` imply `q`, given as `q.to_nnf().simplify()`?
    /// Sound and incomplete.
    pub fn implies(&self, q_nnf: &Predicate) -> bool {
        match q_nnf {
            Predicate::True => true,
            Predicate::False => self.is_false,
            _ if self.is_false => true,
            // No CNF: too complex, give up (soundly).
            q => self.cnf.as_ref().is_some_and(|cnf| implies_cnf(cnf, q)),
        }
    }
}

/// Does `p ⇒ q`? Sound and incomplete. The one-shot form of
/// [`Antecedent::implies`].
pub fn implies(p: &Predicate, q: &Predicate) -> bool {
    Antecedent::new(p).implies(&q.to_nnf().simplify())
}

/// CNF-against-NNF implication: every case is a *sufficient* syntactic
/// condition.
fn implies_cnf(cnf: &[Vec<Clause>], q: &Predicate) -> bool {
    match q {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Clause(qc) => {
            // Some conjunct group must force qc: every disjunct in the
            // group implies qc.
            cnf.iter()
                .any(|group| !group.is_empty() && group.iter().all(|c| clause_implies(c, qc)))
        }
        Predicate::And(qs) => qs.iter().all(|sub| implies_cnf(cnf, sub)),
        Predicate::Or(qs) => {
            // Either some disjunct is individually implied, or some
            // conjunct group maps every one of its disjuncts into the OR.
            if qs.iter().any(|sub| implies_cnf(cnf, sub)) {
                return true;
            }
            cnf.iter().any(|group| {
                !group.is_empty()
                    && group.iter().all(|c| {
                        qs.iter().any(|sub| match sub {
                            Predicate::Clause(qc) => clause_implies(c, qc),
                            _ => implies_cnf(&[vec![c.clone()]], sub),
                        })
                    })
            })
        }
        Predicate::Not(_) => false, // q is NNF; Not only wraps clauses, which to_nnf removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::Value;

    fn cl(col: &str, op: CompareOp, v: impl Into<Value>) -> Clause {
        Clause::new(col, op, v)
    }

    #[test]
    fn clause_comparisons() {
        use CompareOp::*;
        // x > 70 ⇒ x > 60
        assert!(clause_implies(&cl("s", Gt, 70.0), &cl("s", Gt, 60.0)));
        assert!(!clause_implies(&cl("s", Gt, 50.0), &cl("s", Gt, 60.0)));
        // x > 60 ⇒ x >= 60
        assert!(clause_implies(&cl("s", Gt, 60.0), &cl("s", Ge, 60.0)));
        // x >= 60 ⇒ x > 60 is FALSE
        assert!(!clause_implies(&cl("s", Ge, 60.0), &cl("s", Gt, 60.0)));
        // x >= 61 ⇒ x > 60
        assert!(clause_implies(&cl("s", Ge, 61.0), &cl("s", Gt, 60.0)));
        // x < 5 ⇒ x <= 10
        assert!(clause_implies(&cl("s", Lt, 5.0), &cl("s", Le, 10.0)));
        // x = 5 ⇒ x < 10, x != 7, x >= 5
        assert!(clause_implies(&cl("s", Eq, 5.0), &cl("s", Lt, 10.0)));
        assert!(clause_implies(&cl("s", Eq, 5.0), &cl("s", Ne, 7.0)));
        assert!(clause_implies(&cl("s", Eq, 5.0), &cl("s", Ge, 5.0)));
        assert!(!clause_implies(&cl("s", Eq, 5.0), &cl("s", Gt, 5.0)));
        // x != 5 ⇒ x != 5 only.
        assert!(clause_implies(&cl("s", Ne, 5.0), &cl("s", Ne, 5.0)));
        assert!(!clause_implies(&cl("s", Ne, 5.0), &cl("s", Ne, 6.0)));
        // Different columns never imply.
        assert!(!clause_implies(&cl("s", Gt, 70.0), &cl("t", Gt, 60.0)));
        // Strings: equality only.
        assert!(clause_implies(&cl("t", Eq, "SUV"), &cl("t", Ne, "van")));
        assert!(clause_implies(&cl("t", Eq, "SUV"), &cl("t", Eq, "SUV")));
        assert!(!clause_implies(&cl("t", Eq, "SUV"), &cl("t", Eq, "van")));
    }

    #[test]
    fn conjunction_implies_its_parts() {
        // p ∧ rest ⇒ p  (rule R1's justification)
        let p = Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("c", CompareOp::Eq, "red")),
        );
        assert!(implies(
            &p,
            &Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"))
        ));
        assert!(implies(
            &p,
            &Predicate::from(Clause::new("c", CompareOp::Eq, "red"))
        ));
        assert!(!implies(
            &p,
            &Predicate::from(Clause::new("c", CompareOp::Eq, "blue"))
        ));
    }

    #[test]
    fn disjunction_is_implied_by_parts_and_by_itself() {
        let p_or_q = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        );
        // p ⇒ p ∨ q
        assert!(implies(
            &Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            &p_or_q
        ));
        // p ∨ q ⇒ p ∨ q  (the R3 pattern: the whole OR maps into the OR)
        assert!(implies(&p_or_q, &p_or_q));
        // p ∨ q does NOT imply p.
        assert!(!implies(
            &p_or_q,
            &Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"))
        ));
    }

    #[test]
    fn paper_table3_example() {
        // 𝒫 = (p ∨ q) ∧ ¬r ∧ rest
        let p = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        let q = Predicate::from(Clause::new("t", CompareOp::Eq, "van"));
        let not_r = Predicate::not(Predicate::from(Clause::new("c", CompareOp::Eq, "red")));
        let rest = Predicate::from(Clause::new("s", CompareOp::Gt, 60.0));
        let pred = Predicate::And(vec![
            Predicate::or(p.clone(), q.clone()),
            not_r.clone(),
            rest,
        ]);
        // 𝒫 ⇒ p ∨ q
        assert!(implies(&pred, &Predicate::or(p.clone(), q.clone())));
        // 𝒫 ⇒ ¬r  (i.e. c != red)
        assert!(implies(
            &pred,
            &Predicate::from(Clause::new("c", CompareOp::Ne, "red"))
        ));
        // 𝒫 ⇒ (p ∨ q) ∧ ¬r
        assert!(implies(
            &pred,
            &Predicate::and(
                Predicate::or(p.clone(), q.clone()),
                Predicate::from(Clause::new("c", CompareOp::Ne, "red"))
            )
        ));
        // 𝒫 does not imply p alone.
        assert!(!implies(&pred, &p));
    }

    #[test]
    fn relaxed_comparisons_are_implied() {
        // s > 60 ∧ s < 65 ⇒ s > 50 ∧ s < 70 (the wrangler's relaxation).
        let p = Predicate::and(
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 65.0)),
        );
        let relaxed = Predicate::and(
            Predicate::from(Clause::new("s", CompareOp::Gt, 50.0)),
            Predicate::from(Clause::new("s", CompareOp::Lt, 70.0)),
        );
        assert!(implies(&p, &relaxed));
        assert!(!implies(&relaxed, &p));
    }

    #[test]
    fn negation_normalizes_before_checking() {
        // ¬(t = SUV) ⇒ t != SUV.
        let p = Predicate::not(Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")));
        assert!(implies(
            &p,
            &Predicate::from(Clause::new("t", CompareOp::Ne, "SUV"))
        ));
    }

    #[test]
    fn constants() {
        let c = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        assert!(implies(&c, &Predicate::True));
        assert!(!implies(&c, &Predicate::False));
        assert!(implies(&Predicate::False, &c));
    }

    #[test]
    fn incompleteness_is_sound() {
        // x > 3 ∨ x < 5 is a tautology but the checker won't prove
        // True ⇒ it; it must simply return false (sound, incomplete).
        let tautology = Predicate::or(
            Predicate::from(Clause::new("x", CompareOp::Gt, 3.0)),
            Predicate::from(Clause::new("x", CompareOp::Lt, 5.0)),
        );
        assert!(!implies(&Predicate::True, &tautology));
    }

    /// `implies` as it was before the antecedent could be prepared: both
    /// sides normalized per call. The reference the prepared form is held
    /// against.
    fn implies_per_call(p: &Predicate, q: &Predicate) -> bool {
        let q = q.to_nnf().simplify();
        match &q {
            Predicate::True => return true,
            Predicate::False => return matches!(p.simplify(), Predicate::False),
            _ => {}
        }
        if matches!(p.simplify(), Predicate::False) {
            return true;
        }
        match p.to_cnf(CNF_CAP) {
            Some(cnf) => implies_cnf(&cnf, &q),
            None => false,
        }
    }

    /// Random predicates over a vocabulary small enough that implications
    /// between two of them are common.
    fn arb_predicate() -> impl proptest::strategy::Strategy<Value = Predicate> {
        use proptest::prelude::*;
        let ops = || {
            proptest::sample::select(vec![
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ])
        };
        let leaf = prop_oneof![
            (ops(), proptest::sample::select(vec![40.0, 50.0, 60.0]))
                .prop_map(|(op, v)| Predicate::from(cl("s", op, v))),
            (ops(), proptest::sample::select(vec!["SUV", "van"]))
                .prop_map(|(op, v)| Predicate::from(cl("t", op, v))),
            proptest::sample::select(vec![Predicate::True, Predicate::False]),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Predicate::And),
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Predicate::Or),
                inner.prop_map(Predicate::not),
            ]
        })
    }

    proptest::proptest! {
        /// One prepared antecedent answers for every consequent what the
        /// per-call check answers for the pair.
        #[test]
        fn prepared_antecedent_agrees_with_the_per_call_check(
            p in arb_predicate(),
            qs in proptest::collection::vec(arb_predicate(), 1..6),
        ) {
            let prepared = Antecedent::new(&p);
            for q in &qs {
                let expected = implies_per_call(&p, q);
                proptest::prop_assert!(
                    prepared.implies(&q.to_nnf().simplify()) == expected,
                    "prepared: {p} ⇒ {q} should be {expected}"
                );
                proptest::prop_assert!(
                    implies(&p, q) == expected,
                    "one-shot: {p} ⇒ {q} should be {expected}"
                );
            }
        }
    }
}
