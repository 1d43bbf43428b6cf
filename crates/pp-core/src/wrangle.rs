//! Predicate wrangling (Appendix A.2).
//!
//! "The input query predicate is sent to a wrangler which greedily improves
//! matchability with available PPs." Two of the paper's rules need explicit
//! rewriting; the others fall out of implication matching:
//!
//! * **Not-equals**: over a finite discrete domain, `t ≠ v ⇒ ⋁_{u ≠ v}
//!   t = u`. Applied when every equality disjunct has an available PP.
//! * **No-predicate**: `TRUE ⇔ ⋁_{u ∈ domain} C = u` — exposes PP
//!   opportunities even for queries without a predicate (A.2's last rule);
//!   available through [`Wrangler::expand_true`].
//! * **Comparison relaxation** (`s > 60 ⇒ s > 50`) needs no rewriting here:
//!   the catalog's [`crate::catalog::PpCatalog::implied_by_clause`] lookup
//!   already matches any PP whose clause is implied, which subsumes
//!   relaxation (and range checks decompose into comparisons in CNF).

use std::collections::HashMap;

use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_engine::Value;

use crate::catalog::PpCatalog;

/// Finite discrete domains for (UDF-generated) predicate columns, e.g.
/// `vehType ∈ {sedan, SUV, truck, van}`.
#[derive(Debug, Clone, Default)]
pub struct Domains {
    map: HashMap<String, Vec<Value>>,
}

impl Domains {
    /// An empty domain registry.
    pub fn new() -> Self {
        Domains::default()
    }

    /// Declares a column's finite domain.
    pub fn declare(&mut self, column: impl Into<String>, values: Vec<Value>) {
        self.map.insert(column.into(), values);
    }

    /// The domain of a column, when declared.
    pub fn get(&self, column: &str) -> Option<&[Value]> {
        self.map.get(column).map(Vec::as_slice)
    }
}

/// The wrangler: rewrites predicates toward forms the PP catalog covers.
#[derive(Debug)]
pub struct Wrangler<'a> {
    domains: &'a Domains,
    catalog: &'a PpCatalog,
}

impl<'a> Wrangler<'a> {
    /// Creates a wrangler over the given domains and PP catalog.
    pub fn new(domains: &'a Domains, catalog: &'a PpCatalog) -> Self {
        Wrangler { domains, catalog }
    }

    /// Rewrites a predicate, expanding clauses whose rewritten form is
    /// better covered by the catalog. The result is logically equivalent to
    /// the input (all rewrites here are ⇔ given the declared domains).
    pub fn wrangle(&self, pred: &Predicate) -> Predicate {
        let nnf = pred.to_nnf().simplify();
        self.wrangle_rec(&nnf).simplify()
    }

    fn wrangle_rec(&self, pred: &Predicate) -> Predicate {
        match pred {
            Predicate::Clause(c) => self.wrangle_clause(c),
            Predicate::And(ps) => Predicate::And(ps.iter().map(|p| self.wrangle_rec(p)).collect()),
            Predicate::Or(ps) => Predicate::Or(ps.iter().map(|p| self.wrangle_rec(p)).collect()),
            other => other.clone(),
        }
    }

    fn wrangle_clause(&self, c: &Clause) -> Predicate {
        // A clause that already has direct or implied PP coverage is left
        // alone.
        if !self.catalog.implied_by_clause(c).is_empty() {
            return Predicate::Clause(c.clone());
        }
        match c.op {
            CompareOp::Ne => self.expand_ne(c),
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                self.expand_comparison(c)
            }
            _ => Predicate::Clause(c.clone()),
        }
    }

    /// `t ≠ v ⇒ ⋁ t = u` over the domain, when every disjunct is covered.
    fn expand_ne(&self, c: &Clause) -> Predicate {
        let Some(domain) = self.domains.get(&c.column) else {
            return Predicate::Clause(c.clone());
        };
        let mut disjuncts = Vec::new();
        for v in domain {
            if v.sql_eq(&c.value) {
                continue;
            }
            let eq = Clause::new(c.column.clone(), CompareOp::Eq, v.clone());
            if self.catalog.implied_by_clause(&eq).is_empty() {
                return Predicate::Clause(c.clone()); // incomplete coverage
            }
            disjuncts.push(Predicate::Clause(eq));
        }
        if disjuncts.is_empty() {
            return Predicate::Clause(c.clone());
        }
        Predicate::Or(disjuncts)
    }

    /// Comparison over a finite discrete domain: `s > v ⇒ ⋁_{u > v} s = u`.
    fn expand_comparison(&self, c: &Clause) -> Predicate {
        let Some(domain) = self.domains.get(&c.column) else {
            return Predicate::Clause(c.clone());
        };
        let mut disjuncts = Vec::new();
        for v in domain {
            if !c.op.eval(v, &c.value) {
                continue;
            }
            let eq = Clause::new(c.column.clone(), CompareOp::Eq, v.clone());
            if self.catalog.implied_by_clause(&eq).is_empty() {
                return Predicate::Clause(c.clone());
            }
            disjuncts.push(Predicate::Clause(eq));
        }
        if disjuncts.is_empty() {
            return Predicate::Clause(c.clone());
        }
        Predicate::Or(disjuncts)
    }

    /// The no-predicate rule: the disjunction over a column's whole domain
    /// (`1 ⇔ ⋁ C = u`), usable to inject PPs into predicate-free queries
    /// whose downstream UDFs implicitly filter on `column`.
    pub fn expand_true(&self, column: &str) -> Option<Predicate> {
        let domain = self.domains.get(column)?;
        if domain.is_empty() {
            return None;
        }
        Some(Predicate::Or(
            domain
                .iter()
                .map(|v| Predicate::from(Clause::new(column, CompareOp::Eq, v.clone())))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;
    use crate::pp::ProbabilisticPredicate;

    fn catalog_with(preds: &[Predicate]) -> PpCatalog {
        let mut cat = PpCatalog::new();
        for (i, p) in preds.iter().enumerate() {
            let base = trained_pp(0.3, i as u64 + 1, 0.001);
            cat.insert(
                ProbabilisticPredicate::new(p.clone(), base.pipeline().clone(), 0.001).unwrap(),
            );
        }
        cat
    }

    fn veh_domains() -> Domains {
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
    fn ne_expands_when_equalities_covered() {
        // Paper A.2: "type != SUV ⇒ type = truck ∨ type = car".
        let cat = catalog_with(&[
            Predicate::from(Clause::new("t", CompareOp::Eq, "sedan")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "truck")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        ]);
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let out = w.wrangle(&Predicate::from(Clause::new("t", CompareOp::Ne, "SUV")));
        match out {
            Predicate::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn ne_kept_when_directly_covered() {
        let cat = catalog_with(&[Predicate::from(Clause::new("t", CompareOp::Ne, "SUV"))]);
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let c = Predicate::from(Clause::new("t", CompareOp::Ne, "SUV"));
        assert_eq!(w.wrangle(&c), c);
    }

    #[test]
    fn ne_kept_when_coverage_incomplete() {
        // Missing PP for t = van: the expansion would not be fully covered.
        let cat = catalog_with(&[
            Predicate::from(Clause::new("t", CompareOp::Eq, "sedan")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "truck")),
        ]);
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let c = Predicate::from(Clause::new("t", CompareOp::Ne, "SUV"));
        assert_eq!(w.wrangle(&c), c);
    }

    #[test]
    fn comparison_expands_over_discrete_domain() {
        let mut domains = Domains::new();
        domains.declare(
            "s",
            vec![
                Value::Int(40),
                Value::Int(50),
                Value::Int(60),
                Value::Int(70),
            ],
        );
        let cat = catalog_with(&[
            Predicate::from(Clause::new("s", CompareOp::Eq, 60i64)),
            Predicate::from(Clause::new("s", CompareOp::Eq, 70i64)),
        ]);
        let w = Wrangler::new(&domains, &cat);
        let out = w.wrangle(&Predicate::from(Clause::new("s", CompareOp::Gt, 55i64)));
        match out {
            Predicate::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn negation_normalized_then_expanded() {
        // NOT (t = SUV) normalizes to t != SUV, which then expands.
        let cat = catalog_with(&[
            Predicate::from(Clause::new("t", CompareOp::Eq, "sedan")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "truck")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        ]);
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let out = w.wrangle(&Predicate::not(Predicate::from(Clause::new(
            "t",
            CompareOp::Eq,
            "SUV",
        ))));
        assert!(matches!(out, Predicate::Or(_)));
    }

    #[test]
    fn expand_true_covers_domain() {
        let cat = PpCatalog::new();
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let out = w.expand_true("t").unwrap();
        match out {
            Predicate::Or(parts) => assert_eq!(parts.len(), 4),
            other => panic!("expected Or, got {other}"),
        }
        assert!(w.expand_true("unknown").is_none());
    }

    #[test]
    fn wrangling_preserves_semantics() {
        use pp_engine::{Column, DataType, Row, Schema};
        let cat = catalog_with(&[
            Predicate::from(Clause::new("t", CompareOp::Eq, "sedan")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "truck")),
            Predicate::from(Clause::new("t", CompareOp::Eq, "van")),
        ]);
        let domains = veh_domains();
        let w = Wrangler::new(&domains, &cat);
        let pred = Predicate::from(Clause::new("t", CompareOp::Ne, "SUV"));
        let wrangled = w.wrangle(&pred);
        let schema = Schema::new(vec![Column::new("t", DataType::Str)]).unwrap();
        for v in ["sedan", "SUV", "truck", "van"] {
            let row = Row::new(vec![Value::str(v)]);
            assert_eq!(
                pred.eval((&row).into(), &schema).unwrap(),
                wrangled.eval((&row).into(), &schema).unwrap(),
                "value {v}"
            );
        }
    }
}
