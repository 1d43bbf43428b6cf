//! Query predicates: simple clauses and boolean combinations.
//!
//! The paper builds PPs "for clauses of the form f(g_i(b), ...) ϕ v, where
//! ... ϕ is an operator that can be =, ≠, <, ≤, >, ≥ and v is a constant"
//! (§3, Scope). A [`Clause`] is such a comparison against a named column
//! (the column being the output of some UDF chain); a [`Predicate`] is an
//! arbitrary and/or/not combination of clauses. The QO layer (pp-core)
//! works with the normal forms provided here.

use std::collections::BTreeSet;
use std::fmt;

use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::{EngineError, Result};

/// Comparison operators ϕ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CompareOp {
    /// The operator such that `a ¬ϕ b ⇔ ¬(a ϕ b)`.
    pub fn negate(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Ge => CompareOp::Lt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Le => CompareOp::Gt,
        }
    }

    /// Evaluates the operator against two values with SQL semantics
    /// (NULL compares false; incomparable types compare false except `≠`).
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CompareOp::Eq => left.sql_eq(right),
            CompareOp::Ne => {
                // NULL ≠ x is false under SQL three-valued logic.
                if matches!(left, Value::Null) || matches!(right, Value::Null) {
                    false
                } else {
                    !left.sql_eq(right)
                }
            }
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                match left.sql_cmp(right) {
                    None => false,
                    Some(ord) => match self {
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::Le => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    },
                }
            }
        }
    }

    /// SQL token for display.
    pub fn token(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A simple clause: `column ϕ constant`.
#[derive(Debug, Clone)]
pub struct Clause {
    /// The (UDF-generated) column the clause tests.
    pub column: String,
    /// The comparison operator.
    pub op: CompareOp,
    /// The constant operand.
    pub value: Value,
}

impl Clause {
    /// Creates a clause.
    pub fn new(column: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Self {
        Clause {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates against a row.
    pub fn eval(&self, row: &Row, schema: &Schema) -> Result<bool> {
        let cell = row.get_named(schema, &self.column)?;
        Ok(self.op.eval(cell, &self.value))
    }

    /// The clause `¬(column ϕ v)` as a positive clause.
    pub fn negated(&self) -> Clause {
        Clause {
            column: self.column.clone(),
            op: self.op.negate(),
            value: self.value.clone(),
        }
    }
}

impl PartialEq for Clause {
    fn eq(&self, other: &Self) -> bool {
        self.column == other.column && self.op == other.op && self.value.sql_eq(&other.value)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op.token(), self.value)
    }
}

/// A boolean combination of clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (queries with no WHERE).
    True,
    /// Always false.
    False,
    /// A simple clause.
    Clause(Clause),
    /// Logical negation.
    Not(Box<Predicate>),
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
}

/// Conjunctive normal form: AND of ORs of (possibly negated-rewritten)
/// clauses.
pub type Cnf = Vec<Vec<Clause>>;

impl From<Clause> for Predicate {
    /// The canonical way to lift a [`Clause`] into a [`Predicate`]:
    /// `Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"))`.
    fn from(clause: Clause) -> Self {
        Predicate::Clause(clause)
    }
}

impl Predicate {
    /// Convenience: conjunction of two predicates.
    pub fn and(a: Predicate, b: Predicate) -> Predicate {
        Predicate::And(vec![a, b])
    }

    /// Convenience: disjunction of two predicates.
    pub fn or(a: Predicate, b: Predicate) -> Predicate {
        Predicate::Or(vec![a, b])
    }

    /// Convenience: negation.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator
    pub fn not(p: Predicate) -> Predicate {
        Predicate::Not(Box::new(p))
    }

    /// Evaluates against a row. To evaluate many rows of one schema,
    /// [`bind`](Self::bind) once instead.
    pub fn eval(&self, row: &Row, schema: &Schema) -> Result<bool> {
        self.bind(schema).eval(row)
    }

    /// The predicate with every clause's column resolved against `schema`
    /// once, for evaluating rows of that schema.
    pub fn bind<'p>(&'p self, schema: &Schema) -> BoundPredicate<'p> {
        BoundPredicate(Bound::new(self, schema))
    }

    /// Column names the predicate references.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Clause(c) => {
                out.insert(c.column.clone());
            }
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Negation normal form: all `Not`s pushed into clauses (negating their
    /// operators), and `True`/`False` propagated.
    pub fn to_nnf(&self) -> Predicate {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, negate: bool) -> Predicate {
        match self {
            Predicate::True => {
                if negate {
                    Predicate::False
                } else {
                    Predicate::True
                }
            }
            Predicate::False => {
                if negate {
                    Predicate::True
                } else {
                    Predicate::False
                }
            }
            Predicate::Clause(c) => {
                if negate {
                    Predicate::Clause(c.negated())
                } else {
                    Predicate::Clause(c.clone())
                }
            }
            Predicate::Not(p) => p.nnf_inner(!negate),
            Predicate::And(ps) => {
                let children: Vec<Predicate> = ps.iter().map(|p| p.nnf_inner(negate)).collect();
                if negate {
                    Predicate::Or(children)
                } else {
                    Predicate::And(children)
                }
            }
            Predicate::Or(ps) => {
                let children: Vec<Predicate> = ps.iter().map(|p| p.nnf_inner(negate)).collect();
                if negate {
                    Predicate::And(children)
                } else {
                    Predicate::Or(children)
                }
            }
        }
    }

    /// Structural simplification: flattens nested And/Or, drops neutral
    /// elements, and short-circuits absorbing elements.
    pub fn simplify(&self) -> Predicate {
        match self {
            Predicate::And(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Predicate::True => {}
                        Predicate::False => return Predicate::False,
                        Predicate::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match <[Predicate; 1]>::try_from(out) {
                    Ok([only]) => only,
                    Err(out) if out.is_empty() => Predicate::True,
                    Err(out) => Predicate::And(out),
                }
            }
            Predicate::Or(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    match p.simplify() {
                        Predicate::False => {}
                        Predicate::True => return Predicate::True,
                        Predicate::Or(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match <[Predicate; 1]>::try_from(out) {
                    Ok([only]) => only,
                    Err(out) if out.is_empty() => Predicate::False,
                    Err(out) => Predicate::Or(out),
                }
            }
            Predicate::Not(p) => match p.simplify() {
                Predicate::True => Predicate::False,
                Predicate::False => Predicate::True,
                Predicate::Not(inner) => *inner,
                other => Predicate::Not(Box::new(other)),
            },
            other => other.clone(),
        }
    }

    /// Conjunctive normal form as a list of OR-clause lists.
    ///
    /// Returns `None` when distribution would exceed `max_disjuncts`
    /// conjuncts (CNF can be exponentially large) or when the predicate
    /// simplifies to a constant.
    pub fn to_cnf(&self, max_disjuncts: usize) -> Option<Cnf> {
        let nnf = self.to_nnf().simplify();
        let mut cnf = Self::cnf_rec(&nnf, max_disjuncts)?;
        // Deduplicate identical disjunction groups.
        cnf.dedup_by(|a, b| a == b);
        Some(cnf)
    }

    fn cnf_rec(p: &Predicate, cap: usize) -> Option<Cnf> {
        match p {
            Predicate::True => Some(vec![]),
            Predicate::False => None,
            Predicate::Clause(c) => Some(vec![vec![c.clone()]]),
            Predicate::And(ps) => {
                let mut out: Cnf = Vec::new();
                for sub in ps {
                    let mut part = Self::cnf_rec(sub, cap)?;
                    out.append(&mut part);
                    if out.len() > cap {
                        return None;
                    }
                }
                Some(out)
            }
            Predicate::Or(ps) => {
                // Distribute: OR over CNFs is the cross product of their
                // conjunct groups.
                let mut acc: Cnf = vec![vec![]];
                for sub in ps {
                    let part = Self::cnf_rec(sub, cap)?;
                    if part.is_empty() {
                        // Sub-predicate is True: the whole OR is True.
                        return Some(vec![]);
                    }
                    let mut next: Cnf = Vec::with_capacity(acc.len() * part.len());
                    for group in &acc {
                        for pg in &part {
                            let mut merged = group.clone();
                            merged.extend(pg.iter().cloned());
                            next.push(merged);
                        }
                    }
                    if next.len() > cap {
                        return None;
                    }
                    acc = next;
                }
                Some(acc)
            }
            Predicate::Not(_) => unreachable!("NNF has no Not nodes"),
        }
    }

    /// All simple clauses appearing anywhere in the predicate (after NNF).
    pub fn clauses(&self) -> Vec<Clause> {
        let mut out = Vec::new();
        fn walk(p: &Predicate, out: &mut Vec<Clause>) {
            match p {
                Predicate::Clause(c) => out.push(c.clone()),
                Predicate::Not(p) => walk(p, out),
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
                _ => {}
            }
        }
        walk(&self.to_nnf(), &mut out);
        out
    }
}

/// A [`Predicate`] bound to one schema ([`Predicate::bind`]): each clause
/// reads its cell by position instead of looking its column up per row.
#[derive(Debug)]
pub struct BoundPredicate<'p>(Bound<'p>);

impl BoundPredicate<'_> {
    /// Evaluates against a row of the schema the predicate was bound to,
    /// with [`Predicate::eval`]'s verdicts and short-circuit order: a
    /// clause naming a column the schema lacks fails with
    /// `UnknownColumn` in each row that reaches it.
    pub fn eval(&self, row: &Row) -> Result<bool> {
        self.0.eval(row.values())
    }
}

#[derive(Debug)]
enum Bound<'p> {
    Const(bool),
    /// The clause and its column's position, `None` if the schema lacks it.
    Clause(&'p Clause, Option<usize>),
    Not(Box<Bound<'p>>),
    And(Vec<Bound<'p>>),
    Or(Vec<Bound<'p>>),
}

impl<'p> Bound<'p> {
    fn new(p: &'p Predicate, schema: &Schema) -> Self {
        let all = |ps: &'p [Predicate]| ps.iter().map(|p| Bound::new(p, schema)).collect();
        match p {
            Predicate::True => Bound::Const(true),
            Predicate::False => Bound::Const(false),
            Predicate::Clause(c) => Bound::Clause(c, schema.index_of(&c.column).ok()),
            Predicate::Not(p) => Bound::Not(Box::new(Bound::new(p, schema))),
            Predicate::And(ps) => Bound::And(all(ps)),
            Predicate::Or(ps) => Bound::Or(all(ps)),
        }
    }

    fn eval(&self, values: &[Value]) -> Result<bool> {
        match self {
            Bound::Const(verdict) => Ok(*verdict),
            Bound::Clause(c, Some(at)) => Ok(c.op.eval(&values[*at], &c.value)),
            Bound::Clause(c, None) => Err(EngineError::UnknownColumn(c.column.clone())),
            Bound::Not(p) => Ok(!p.eval(values)?),
            Bound::And(ps) => {
                for p in ps {
                    if !p.eval(values)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Bound::Or(ps) => {
                for p in ps {
                    if p.eval(values)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::False => write!(f, "FALSE"),
            Predicate::Clause(c) => write!(f, "{c}"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" AND "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" OR "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new(vec![
            Column::new("t", DataType::Str),
            Column::new("s", DataType::Float),
        ])
        .unwrap()
    }

    fn row(t: &str, s: f64) -> Row {
        Row::new(vec![Value::str(t), Value::Float(s)])
    }

    #[test]
    fn clause_eval() {
        let sch = schema();
        let c = Clause::new("t", CompareOp::Eq, "SUV");
        assert!(c.eval(&row("SUV", 0.0), &sch).unwrap());
        assert!(!c.eval(&row("van", 0.0), &sch).unwrap());
        let c2 = Clause::new("s", CompareOp::Gt, 60.0);
        assert!(c2.eval(&row("SUV", 61.0), &sch).unwrap());
        assert!(!c2.eval(&row("SUV", 60.0), &sch).unwrap());
    }

    #[test]
    fn op_negation_roundtrip() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn predicate_eval_combinators() {
        let sch = schema();
        // t = SUV AND s > 60
        let p = Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
        );
        assert!(p.eval(&row("SUV", 65.0), &sch).unwrap());
        assert!(!p.eval(&row("SUV", 50.0), &sch).unwrap());
        assert!(!p.eval(&row("van", 65.0), &sch).unwrap());
        let q = Predicate::not(p);
        assert!(q.eval(&row("van", 65.0), &sch).unwrap());
    }

    /// A bound clause naming a column the schema lacks fails only the
    /// rows whose short-circuit walk reaches it.
    #[test]
    fn bound_missing_column_fails_the_rows_that_reach_it() {
        let sch = schema();
        let p = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("nope", CompareOp::Gt, 1.0)),
        );
        let bound = p.bind(&sch);
        assert!(bound.eval(&row("SUV", 0.0)).unwrap());
        assert!(matches!(
            bound.eval(&row("van", 0.0)),
            Err(EngineError::UnknownColumn(c)) if c == "nope"
        ));
    }

    #[test]
    fn nnf_pushes_negations() {
        // NOT (a AND NOT b) => NOT a OR b
        let p = Predicate::not(Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::not(Predicate::from(Clause::new("s", CompareOp::Gt, 60.0))),
        ));
        let nnf = p.to_nnf();
        // Must contain no Not nodes.
        fn has_not(p: &Predicate) -> bool {
            match p {
                Predicate::Not(_) => true,
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(has_not),
                _ => false,
            }
        }
        assert!(!has_not(&nnf));
        // Semantics preserved on sample rows.
        let sch = schema();
        for r in [row("SUV", 65.0), row("SUV", 50.0), row("van", 65.0)] {
            assert_eq!(p.eval(&r, &sch).unwrap(), nnf.eval(&r, &sch).unwrap());
        }
    }

    #[test]
    fn simplify_flattens_and_short_circuits() {
        let c = Predicate::from(Clause::new("t", CompareOp::Eq, "SUV"));
        let p = Predicate::And(vec![
            Predicate::True,
            Predicate::And(vec![c.clone(), Predicate::True]),
        ]);
        assert_eq!(p.simplify(), c);
        let q = Predicate::Or(vec![Predicate::True, c.clone()]);
        assert_eq!(q.simplify(), Predicate::True);
        let r = Predicate::And(vec![Predicate::False, c.clone()]);
        assert_eq!(r.simplify(), Predicate::False);
        let s = Predicate::Or(vec![]);
        assert_eq!(s.simplify(), Predicate::False);
    }

    #[test]
    fn cnf_of_dnf_distributes() {
        // (a AND b) OR c  =>  (a OR c) AND (b OR c)
        let a = Clause::new("t", CompareOp::Eq, "SUV");
        let b = Clause::new("s", CompareOp::Gt, 60.0);
        let c = Clause::new("t", CompareOp::Eq, "van");
        let p = Predicate::or(
            Predicate::and(Predicate::Clause(a.clone()), Predicate::Clause(b.clone())),
            Predicate::Clause(c.clone()),
        );
        let cnf = p.to_cnf(16).unwrap();
        assert_eq!(cnf.len(), 2);
        assert!(cnf.iter().any(|g| g.contains(&a) && g.contains(&c)));
        assert!(cnf.iter().any(|g| g.contains(&b) && g.contains(&c)));
    }

    #[test]
    fn cnf_respects_cap() {
        // OR of 8 conjunction pairs blows up; a small cap returns None.
        let mut ors = Vec::new();
        for i in 0..8 {
            ors.push(Predicate::and(
                Predicate::from(Clause::new("s", CompareOp::Gt, i as f64)),
                Predicate::from(Clause::new("s", CompareOp::Lt, (i + 10) as f64)),
            ));
        }
        let p = Predicate::Or(ors);
        assert!(p.to_cnf(16).is_none());
        assert!(p.to_cnf(10_000).is_some());
    }

    #[test]
    fn cnf_preserves_semantics() {
        let sch = schema();
        let p = Predicate::or(
            Predicate::and(
                Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
                Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
            ),
            Predicate::not(Predicate::from(Clause::new("t", CompareOp::Eq, "van"))),
        );
        let cnf = p.to_cnf(64).unwrap();
        let rows = [
            row("SUV", 65.0),
            row("SUV", 10.0),
            row("van", 65.0),
            row("van", 10.0),
            row("truck", 0.0),
        ];
        for r in &rows {
            let direct = p.eval(r, &sch).unwrap();
            let via_cnf = cnf
                .iter()
                .all(|group| group.iter().any(|c| c.eval(r, &sch).unwrap_or(false)));
            assert_eq!(direct, via_cnf, "row {:?}", r.values()[0].to_string());
        }
    }

    #[test]
    fn clauses_collects_all() {
        let p = Predicate::or(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::not(Predicate::from(Clause::new("s", CompareOp::Gt, 60.0))),
        );
        let cs = p.clauses();
        assert_eq!(cs.len(), 2);
        // The negated clause appears with its operator flipped.
        assert!(cs.iter().any(|c| c.op == CompareOp::Le));
    }

    #[test]
    fn columns_collected() {
        let p = Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
        );
        let cols = p.columns();
        assert!(cols.contains("t") && cols.contains("s"));
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::and(
            Predicate::from(Clause::new("t", CompareOp::Eq, "SUV")),
            Predicate::from(Clause::new("s", CompareOp::Gt, 60.0)),
        );
        assert_eq!(p.to_string(), "(t = SUV) AND (s > 60)");
    }
}
