//! Expressions over probabilistic predicates, and their execution as plan
//! filters.
//!
//! The QO assembles conjunctions/disjunctions of available PPs (§6);
//! [`PpExpr`] is that expression tree. After the accuracy-budget allocator
//! assigns a per-leaf accuracy, a [`PlannedPpExpr`] can be executed: the
//! injected query plans of Figures 7 and 8 — conjunctions short-circuit on
//! the first rejecting PP, disjunctions accept on the first accepting PP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pp_engine::batch::Batch;
use pp_engine::udf::RowFilter;
use pp_engine::{Predicate, Row, Schema};
use pp_linalg::{FeatureBatch, Features};

use crate::combine::{conjoin_all, disjoin_all, Estimate};
use crate::pp::ProbabilisticPredicate;
use crate::{PpError, Result};

/// An expression over PPs: a leaf PP, a conjunction, or a disjunction.
#[derive(Debug, Clone)]
pub enum PpExpr {
    /// One probabilistic predicate.
    Leaf(Arc<ProbabilisticPredicate>),
    /// All sub-expressions must accept (Figure 8).
    And(Vec<PpExpr>),
    /// At least one sub-expression must accept (Figure 7).
    Or(Vec<PpExpr>),
}

impl PpExpr {
    /// A leaf expression.
    pub fn leaf(pp: Arc<ProbabilisticPredicate>) -> PpExpr {
        PpExpr::Leaf(pp)
    }

    /// Leaves in pre-order (the indexing used by accuracy assignments).
    pub fn leaves(&self) -> Vec<&Arc<ProbabilisticPredicate>> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Arc<ProbabilisticPredicate>>) {
        match self {
            PpExpr::Leaf(pp) => out.push(pp),
            PpExpr::And(es) | PpExpr::Or(es) => {
                for e in es {
                    e.collect_leaves(out);
                }
            }
        }
    }

    /// Number of distinct PPs used (the `k` the QO bounds, §6.1).
    pub fn leaf_count(&self) -> usize {
        self.leaves().len()
    }

    /// The predicate this expression certifies: any blob failing the
    /// expression fails this predicate (under perfect classifiers). The QO
    /// checks `query predicate ⇒ mimicked()`.
    pub fn mimicked(&self) -> Predicate {
        match self {
            PpExpr::Leaf(pp) => pp.predicate().clone(),
            PpExpr::And(es) => Predicate::And(es.iter().map(|e| e.mimicked()).collect()),
            PpExpr::Or(es) => Predicate::Or(es.iter().map(|e| e.mimicked()).collect()),
        }
    }

    /// Estimates accuracy, reduction, and cost under a per-leaf accuracy
    /// assignment (Eqs. 9–10, assuming independence).
    pub fn estimate(&self, assignment: &Assignment) -> Result<Estimate> {
        let mut next_leaf = 0usize;
        self.estimate_rec(assignment, &mut next_leaf)
    }

    fn estimate_rec(&self, assignment: &Assignment, next_leaf: &mut usize) -> Result<Estimate> {
        match self {
            PpExpr::Leaf(pp) => {
                let a = assignment.accuracy(*next_leaf)?;
                *next_leaf += 1;
                Ok(Estimate {
                    accuracy: a,
                    reduction: pp.reduction(a)?,
                    cost: pp.cost_per_row(),
                })
            }
            PpExpr::And(es) => {
                let parts: Result<Vec<Estimate>> = es
                    .iter()
                    .map(|e| e.estimate_rec(assignment, next_leaf))
                    .collect();
                Ok(conjoin_all(parts?))
            }
            PpExpr::Or(es) => {
                if es.is_empty() {
                    return Err(PpError::InvalidParameter("empty disjunction"));
                }
                let parts: Result<Vec<Estimate>> = es
                    .iter()
                    .map(|e| e.estimate_rec(assignment, next_leaf))
                    .collect();
                Ok(disjoin_all(parts?))
            }
        }
    }

    /// Runtime decision for one blob under a per-leaf accuracy assignment,
    /// with short-circuit evaluation.
    pub fn passes(&self, blob: &Features, assignment: &Assignment) -> Result<bool> {
        let mut next_leaf = 0usize;
        self.passes_rec(blob, assignment, &mut next_leaf)
    }

    fn passes_rec(
        &self,
        blob: &Features,
        assignment: &Assignment,
        next_leaf: &mut usize,
    ) -> Result<bool> {
        match self {
            PpExpr::Leaf(pp) => {
                let a = assignment.accuracy(*next_leaf)?;
                *next_leaf += 1;
                pp.passes(blob, a)
            }
            PpExpr::And(es) => {
                let mut verdict = true;
                for e in es {
                    // Leaf numbering must advance even after a rejection, so
                    // evaluate all children but short-circuit the *expensive*
                    // part — classifier scoring — via the verdict flag.
                    if verdict {
                        verdict = e.passes_rec(blob, assignment, next_leaf)?;
                    } else {
                        e.skip_leaves(next_leaf);
                    }
                }
                Ok(verdict)
            }
            PpExpr::Or(es) => {
                let mut verdict = false;
                for e in es {
                    if !verdict {
                        verdict = e.passes_rec(blob, assignment, next_leaf)?;
                    } else {
                        e.skip_leaves(next_leaf);
                    }
                }
                Ok(verdict)
            }
        }
    }

    fn skip_leaves(&self, next_leaf: &mut usize) {
        *next_leaf += self.leaf_count();
    }
}

/// [`PpExpr::passes`] over a batch, one leaf at a time: each leaf scores
/// only the rows that reach it (Figures 7 and 8), held as a selection
/// vector of positions into the batch's valid cells.
struct LeafWalk<'a> {
    features: FeatureBatch<'a>,
    assignment: &'a Assignment,
    rows_scored: &'a [AtomicU64],
    /// Pre-order index of the next leaf, as in `passes_rec`.
    next_leaf: usize,
    /// The batch's verdicts: `Ok(false)` until the walk decides otherwise,
    /// or the error of a row without a valid cell.
    out: Vec<pp_engine::Result<bool>>,
    /// The batch row of each valid cell.
    row_of: Vec<u32>,
}

impl LeafWalk<'_> {
    /// Evaluates `expr` on the rows in `sel`, all of which reach it.
    /// Afterwards `sel` holds the rows whose verdict is `keep` and those
    /// whose verdict is `!keep` have been appended to `moved`; a row that
    /// met a threshold that did not resolve is in neither and has that
    /// error for its verdict. An empty selection scores nothing but still
    /// numbers the leaves it passes over.
    fn eval(&mut self, expr: &PpExpr, sel: &mut Vec<u32>, keep: bool, moved: &mut Vec<u32>) {
        match expr {
            PpExpr::Leaf(pp) => self.leaf(pp, sel, keep, moved),
            PpExpr::And(es) | PpExpr::Or(es) => {
                // A row stays with a conjunction while its children accept
                // it and with a disjunction while they reject it; any other
                // verdict decides the row.
                let stay = matches!(expr, PpExpr::And(_));
                if keep == stay {
                    for e in es {
                        self.eval(e, sel, stay, moved);
                    }
                } else {
                    let mut undecided = std::mem::take(sel);
                    for e in es {
                        self.eval(e, &mut undecided, stay, sel);
                    }
                    moved.append(&mut undecided);
                }
            }
        }
    }

    fn leaf(
        &mut self,
        pp: &ProbabilisticPredicate,
        sel: &mut Vec<u32>,
        keep: bool,
        moved: &mut Vec<u32>,
    ) {
        let leaf = self.next_leaf;
        self.next_leaf += 1;
        if sel.is_empty() {
            return;
        }
        let pipeline = pp.pipeline();
        let threshold = self
            .assignment
            .accuracy(leaf)
            .and_then(|a| Ok(pipeline.calibration().threshold(a)?));
        let threshold = match threshold {
            Ok(threshold) => threshold,
            Err(e) => {
                let e = format!("pp filter: {e}");
                for p in sel.drain(..) {
                    let row = self.row_of[p as usize] as usize;
                    self.out[row] = Err(pp_engine::EngineError::Udf(e.clone()));
                }
                return;
            }
        };
        self.rows_scored[leaf].fetch_add(sel.len() as u64, Ordering::Relaxed);
        // The first leaf meets every row of the batch, in order, and takes
        // the contiguous pass over the whole column; later leaves score the
        // rows left, in place — gathering them would copy about as many
        // bytes as scoring reads.
        let scores = if leaf == 0 {
            pipeline.score_many(&self.features)
        } else {
            pipeline.score_selected(&self.features, sel)
        };
        let mut at = 0;
        sel.retain(|&p| {
            let verdict = scores[at] >= threshold;
            at += 1;
            if verdict != keep {
                moved.push(p);
            }
            verdict == keep
        });
    }
}

impl std::fmt::Display for PpExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (children, gate) = match self {
            PpExpr::Leaf(pp) => return write!(f, "PP[{}]", pp.key()),
            PpExpr::And(es) => (es, " ∧ "),
            PpExpr::Or(es) => (es, " ∨ "),
        };
        f.write_str("(")?;
        for (i, child) in children.iter().enumerate() {
            if i > 0 {
                f.write_str(gate)?;
            }
            child.fmt(f)?;
        }
        f.write_str(")")
    }
}

/// Per-leaf accuracy assignment (pre-order leaf indexing).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    accuracies: Vec<f64>,
}

impl Assignment {
    /// An assignment from explicit per-leaf accuracies.
    pub fn new(accuracies: Vec<f64>) -> Result<Self> {
        for &a in &accuracies {
            if !(a > 0.0 && a <= 1.0) {
                return Err(PpError::InvalidParameter("accuracies must be in (0, 1]"));
            }
        }
        Ok(Assignment { accuracies })
    }

    /// The same accuracy for every leaf.
    pub fn uniform(expr: &PpExpr, a: f64) -> Result<Self> {
        Assignment::new(vec![a; expr.leaf_count()])
    }

    /// Accuracy of leaf `idx`.
    pub fn accuracy(&self, idx: usize) -> Result<f64> {
        self.accuracies
            .get(idx)
            .copied()
            .ok_or(PpError::InvalidParameter(
                "assignment shorter than leaf count",
            ))
    }

    /// All accuracies, in leaf pre-order.
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }
}

/// A fully planned expression: accuracies assigned and properties
/// estimated, ready to execute as a plan filter.
#[derive(Debug, Clone)]
pub struct PlannedPpExpr {
    /// The expression.
    pub expr: PpExpr,
    /// Per-leaf accuracies.
    pub assignment: Assignment,
    /// Estimated accuracy/reduction/cost under the assignment.
    pub estimate: Estimate,
}

impl PlannedPpExpr {
    /// Plans an expression at a uniform per-leaf accuracy.
    pub fn uniform(expr: PpExpr, a: f64) -> Result<Self> {
        let assignment = Assignment::uniform(&expr, a)?;
        let estimate = expr.estimate(&assignment)?;
        Ok(PlannedPpExpr {
            expr,
            assignment,
            estimate,
        })
    }

    /// Wraps into an engine [`RowFilter`] reading the blob from the named
    /// column.
    pub fn into_filter(self, blob_column: impl Into<String>) -> PpExprFilter {
        let display = self.expr.to_string();
        let name = if display.starts_with("PP[") {
            display
        } else {
            format!("PP{display}")
        };
        PpExprFilter {
            name,
            blob_column: blob_column.into(),
            leaf_rows_scored: (0..self.expr.leaf_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            planned: self,
        }
    }
}

/// The physical form of an injected PP expression: an engine row filter
/// that reads the raw blob column and applies the expression.
#[derive(Debug)]
pub struct PpExprFilter {
    name: String,
    blob_column: String,
    planned: PlannedPpExpr,
    /// Rows each leaf (pre-order) has scored in batches, over the filter's
    /// life.
    leaf_rows_scored: Box<[AtomicU64]>,
}

impl PpExprFilter {
    /// The planned expression this filter executes.
    pub fn planned(&self) -> &PlannedPpExpr {
        &self.planned
    }

    /// How many rows each leaf, in pre-order, has scored in
    /// [`eval_batch`](RowFilter::eval_batch) since the filter was built,
    /// summed over every run that used it: the rows that reached the leaf
    /// undecided, which is what the per-row walk scores there. (A leaf
    /// whose threshold did not resolve scores nothing.) It is a property of
    /// the rows, so it is the same at every parallelism and batch size.
    pub fn leaf_rows_scored(&self) -> Vec<u64> {
        self.leaf_rows_scored
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .collect()
    }
}

impl RowFilter for PpExprFilter {
    fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-blob cost (short-circuiting already reflected in the
    /// estimate's cost term).
    fn cost_per_row(&self) -> f64 {
        self.planned.estimate.cost
    }

    fn passes(&self, row: &Row, schema: &Schema) -> pp_engine::Result<bool> {
        let blob = row.get_named(schema, &self.blob_column)?.as_blob()?;
        self.planned
            .expr
            .passes(blob, &self.planned.assignment)
            .map_err(|e| pp_engine::EngineError::Udf(format!("pp filter: {e}")))
    }

    /// Vectorized evaluation, one leaf at a time over a selection vector
    /// of the rows still undecided: a conjunction drops from it the rows a
    /// child rejects, a disjunction passes the rows a child accepts, and a
    /// row that meets a leaf whose threshold did not resolve takes that
    /// leaf's error. A leaf's threshold is resolved once per batch. The
    /// first leaf, which every row reaches, scores the whole blob column
    /// ([`Pipeline::score_many`](pp_ml::Pipeline::score_many)); later
    /// leaves only the selected rows, where they lie
    /// ([`Pipeline::score_selected`](pp_ml::Pipeline::score_selected)). A
    /// column the batch has as a dense
    /// [`FeatureBlock`](pp_linalg::FeatureBlock) — the chunk's own, or
    /// gathered — is scored off the block; otherwise (sparse/ragged cells)
    /// through gathered references. Decisions, row order and per-row errors
    /// are bit-identical to calling [`passes`][RowFilter::passes] per row:
    /// every row reaches the leaves it reaches there, the block holds the
    /// same cells bit for bit, and every path scores through the same
    /// `pp_linalg` kernels.
    fn eval_batch(&self, batch: &Batch<'_>) -> Vec<pp_engine::Result<bool>> {
        let mut col = batch.feature_column(&self.blob_column);
        // Rows without a valid cell report its error; the others start out
        // dropped, and the walk passes or fails them by position.
        let mut out = Vec::with_capacity(batch.len());
        let mut row_of = Vec::with_capacity(batch.len());
        let mut errors = std::mem::take(&mut col.errors).into_iter().peekable();
        for at in 0..batch.len() as u32 {
            match errors.next_if(|(i, _)| *i == at) {
                Some((_, e)) => out.push(Err(e)),
                None => {
                    out.push(Ok(false));
                    row_of.push(at);
                }
            }
        }
        let mut walk = LeafWalk {
            features: col.features(),
            assignment: &self.planned.assignment,
            rows_scored: &self.leaf_rows_scored,
            next_leaf: 0,
            out,
            row_of,
        };
        let mut passed: Vec<u32> = (0..walk.row_of.len() as u32).collect();
        let mut dropped = Vec::with_capacity(passed.len());
        walk.eval(&self.planned.expr, &mut passed, true, &mut dropped);
        for p in passed {
            walk.out[walk.row_of[p as usize] as usize] = Ok(true);
        }
        walk.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::tests::trained_pp;

    fn leaf(seed: u64) -> PpExpr {
        PpExpr::leaf(Arc::new(trained_pp(0.3, seed, 0.001)))
    }

    #[test]
    fn leaf_count_and_preorder() {
        let e = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        assert_eq!(e.leaf_count(), 3);
        assert_eq!(e.leaves().len(), 3);
    }

    #[test]
    fn estimate_matches_combine_algebra() {
        let e = PpExpr::And(vec![leaf(1), leaf(2)]);
        let assign = Assignment::uniform(&e, 0.95).unwrap();
        let est = e.estimate(&assign).unwrap();
        let leaves = e.leaves();
        let r1 = leaves[0].reduction(0.95).unwrap();
        let r2 = leaves[1].reduction(0.95).unwrap();
        assert!((est.reduction - (r1 + r2 - r1 * r2)).abs() < 1e-12);
        assert!((est.accuracy - 0.95 * 0.95).abs() < 1e-12);
    }

    #[test]
    fn passes_and_semantics() {
        let e = PpExpr::And(vec![leaf(1), leaf(2)]);
        let assign = Assignment::uniform(&e, 0.95).unwrap();
        let pos = Features::Dense(vec![2.5, 0.0]);
        let neg = Features::Dense(vec![-2.5, 0.0]);
        assert!(e.passes(&pos, &assign).unwrap());
        assert!(!e.passes(&neg, &assign).unwrap());
    }

    #[test]
    fn passes_or_semantics() {
        // Or with one PP trained normally and one with inverted geometry
        // still accepts when either accepts.
        let e = PpExpr::Or(vec![leaf(1), leaf(2)]);
        let assign = Assignment::uniform(&e, 0.95).unwrap();
        let pos = Features::Dense(vec![2.5, 0.0]);
        assert!(e.passes(&pos, &assign).unwrap());
    }

    #[test]
    fn nested_short_circuit_keeps_leaf_indexing() {
        // And(reject-first): second child's leaves must still be numbered
        // consistently — verified by using per-leaf distinct accuracies and
        // asserting no index error.
        let e = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        let assign = Assignment::new(vec![1.0, 0.95, 0.9]).unwrap();
        let neg = Features::Dense(vec![-2.5, 0.0]);
        assert!(!e.passes(&neg, &assign).unwrap());
    }

    #[test]
    fn assignment_validation() {
        assert!(Assignment::new(vec![0.5, 1.0]).is_ok());
        assert!(Assignment::new(vec![0.0]).is_err());
        assert!(Assignment::new(vec![1.1]).is_err());
        let e = leaf(1);
        let a = Assignment::new(vec![]).unwrap();
        assert!(e.estimate(&a).is_err());
    }

    #[test]
    fn display_renders() {
        let e = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        let s = e.to_string();
        assert!(s.contains("∧") && s.contains("∨") && s.contains("PP[t = SUV]"));
    }

    #[test]
    fn filter_integrates_with_engine() {
        use pp_engine::{Column, DataType, Row, Schema, Value};
        let planned = PlannedPpExpr::uniform(leaf(1), 0.95).unwrap();
        let filter = planned.into_filter("blob");
        let schema = Schema::new(vec![Column::new("blob", DataType::Blob)]).unwrap();
        let pos = Row::new(vec![Value::blob(Features::Dense(vec![2.5, 0.0]))]);
        let neg = Row::new(vec![Value::blob(Features::Dense(vec![-2.5, 0.0]))]);
        assert!(filter.passes(&pos, &schema).unwrap());
        assert!(!filter.passes(&neg, &schema).unwrap());
        assert!(filter.cost_per_row() > 0.0);
        assert!(filter.name().starts_with("PP"));
    }

    #[test]
    fn batch_filter_matches_per_row_path() {
        use pp_engine::{Chunk, Column, DataType, Row, Rowset, Schema, Value};
        let expr = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        let planned = PlannedPpExpr::uniform(expr, 0.95).unwrap();
        let filter = planned.into_filter("blob");
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("blob", DataType::Blob),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..32)
            .map(|i| {
                let x = (i as f64) * 0.3 - 4.0;
                Row::new(vec![
                    Value::Int(i),
                    Value::blob(Features::Dense(vec![x, 0.5 - 0.1 * x])),
                ])
            })
            .collect();
        let chunk = Chunk::from_rows(Arc::new(Rowset::new(schema.clone(), rows.clone()).unwrap()));
        let batched = filter.eval_batch(&Batch::new(&chunk, 0..rows.len(), 0));
        assert_eq!(batched.len(), rows.len());
        for (row, b) in rows.iter().zip(batched) {
            assert_eq!(filter.passes(row, &schema).unwrap(), b.unwrap());
        }
    }

    #[test]
    fn batch_filter_reports_per_row_errors() {
        use pp_engine::{Chunk, Column, DataType, Row, Rowset, Schema, Value};
        let planned = PlannedPpExpr::uniform(leaf(1), 0.95).unwrap();
        let filter = planned.into_filter("blob");
        let schema = Schema::new(vec![Column::new("blob", DataType::Blob)]).unwrap();
        let rows = vec![
            Row::new(vec![Value::blob(Features::Dense(vec![2.5, 0.0]))]),
            Row::new(vec![Value::Int(7)]), // wrong type: this row errors
            Row::new(vec![Value::blob(Features::Dense(vec![-2.5, 0.0]))]),
        ];
        let chunk = Chunk::from_rows(Arc::new(Rowset::new(schema, rows).unwrap()));
        let out = filter.eval_batch(&Batch::new(&chunk, 0..3, 0));
        assert!(out[0].as_ref().is_ok_and(|&b| b));
        assert!(out[1].is_err());
        assert!(out[2].as_ref().is_ok_and(|&b| !b));
    }

    #[test]
    fn mimicked_predicate_structure() {
        let e = PpExpr::Or(vec![leaf(1), leaf(2)]);
        match e.mimicked() {
            Predicate::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }
}
