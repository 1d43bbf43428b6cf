//! Expressions over probabilistic predicates, and their execution as plan
//! filters.
//!
//! The QO assembles conjunctions/disjunctions of available PPs (§6);
//! [`PpExpr`] is that expression tree. The accuracy-budget allocator fixes
//! each leaf's accuracy `a`, and a [`PlannedPpExpr`] resolves each leaf's
//! threshold `th(a]` once, when it is built (Eqs. 2–3). Executed, it is the
//! injected query plan of Figures 7 and 8: a leaf passes a blob iff its
//! score is at least its threshold, conjunctions short-circuit on the
//! first rejecting PP, disjunctions accept on the first accepting PP.

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

    /// Leaves in pre-order (the indexing of per-leaf accuracies and thresholds).
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

    /// Estimates accuracy, reduction, and cost under per-leaf accuracies,
    /// one per leaf in pre-order (Eqs. 9–10, assuming independence).
    pub fn estimate(&self, accuracies: &[f64]) -> Result<Estimate> {
        if accuracies.len() != self.leaf_count() {
            return Err(PpError::InvalidParameter("one accuracy per leaf"));
        }
        let mut next_leaf = 0usize;
        self.estimate_rec(accuracies, &mut next_leaf)
    }

    fn estimate_rec(&self, accuracies: &[f64], next_leaf: &mut usize) -> Result<Estimate> {
        match self {
            PpExpr::Leaf(pp) => {
                let a = accuracies[*next_leaf];
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
                    .map(|e| e.estimate_rec(accuracies, next_leaf))
                    .collect();
                Ok(conjoin_all(parts?))
            }
            PpExpr::Or(es) => {
                if es.is_empty() {
                    return Err(PpError::InvalidParameter("empty disjunction"));
                }
                let parts: Result<Vec<Estimate>> = es
                    .iter()
                    .map(|e| e.estimate_rec(accuracies, next_leaf))
                    .collect();
                Ok(disjoin_all(parts?))
            }
        }
    }

    /// The decision for one blob, with short-circuit evaluation: a leaf
    /// passes it iff its score is at least the leaf's threshold, taken from
    /// `thresholds` in pre-order.
    fn passes_rec(&self, blob: &Features, thresholds: &[f64], next_leaf: &mut usize) -> bool {
        match self {
            PpExpr::Leaf(pp) => {
                let threshold = thresholds[*next_leaf];
                *next_leaf += 1;
                pp.score(blob) >= threshold
            }
            PpExpr::And(es) => {
                let mut verdict = true;
                for e in es {
                    // Leaf numbering must advance even after a rejection, so
                    // evaluate all children but short-circuit the *expensive*
                    // part — classifier scoring — via the verdict flag.
                    if verdict {
                        verdict = e.passes_rec(blob, thresholds, next_leaf);
                    } else {
                        e.skip_leaves(next_leaf);
                    }
                }
                verdict
            }
            PpExpr::Or(es) => {
                let mut verdict = false;
                for e in es {
                    if !verdict {
                        verdict = e.passes_rec(blob, thresholds, next_leaf);
                    } else {
                        e.skip_leaves(next_leaf);
                    }
                }
                verdict
            }
        }
    }

    fn skip_leaves(&self, next_leaf: &mut usize) {
        *next_leaf += self.leaf_count();
    }
}

/// [`PlannedPpExpr::passes`] over a batch, one leaf at a time: each leaf
/// scores only the rows that reach it (Figures 7 and 8), held as a
/// selection vector of positions into the batch's valid cells.
struct LeafWalk<'a> {
    features: FeatureBatch<'a>,
    thresholds: &'a [f64],
    rows_scored: &'a [AtomicU64],
    /// Pre-order index of the next leaf, as in `passes_rec`.
    next_leaf: usize,
    /// The batch's verdicts: `Ok(false)` until the walk passes the row, or
    /// the error of a row without a valid cell.
    out: Vec<pp_engine::Result<bool>>,
    /// The batch row of each valid cell.
    row_of: Vec<u32>,
}

impl LeafWalk<'_> {
    /// Evaluates `expr` on the rows in `sel`, all of which reach it.
    /// Afterwards `sel` holds the rows whose verdict is `keep` and those
    /// whose verdict is `!keep` have been appended to `moved`. An empty
    /// selection scores nothing but still numbers the leaves it passes
    /// over.
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
        let threshold = self.thresholds[leaf];
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

/// A fully planned expression: each leaf's accuracy, the threshold it
/// resolves to, and the estimate they give, ready to execute as a plan
/// filter.
#[derive(Debug, Clone)]
pub struct PlannedPpExpr {
    expr: PpExpr,
    /// Per-leaf accuracies `a`, in pre-order.
    accuracies: Vec<f64>,
    /// Per-leaf thresholds `th(a]`, in pre-order.
    thresholds: Vec<f64>,
    /// Estimated accuracy/reduction/cost at `accuracies`.
    estimate: Estimate,
}

impl PlannedPpExpr {
    /// Plans `expr` at `accuracies`, one per leaf in pre-order: resolves
    /// each leaf's certified `th(a]` and estimates the whole (Eqs. 9–10).
    /// Errors unless there is exactly one accuracy per leaf, each in
    /// `(0, 1]`, and [`PpError::InfeasibleAccuracy`] when a leaf's validation
    /// positives cannot certify its accuracy — so no plan carries an
    /// uncertified threshold.
    pub fn new(expr: PpExpr, accuracies: Vec<f64>) -> Result<Self> {
        let estimate = expr.estimate(&accuracies)?;
        let thresholds = expr
            .leaves()
            .iter()
            .zip(&accuracies)
            .map(|(pp, &a)| {
                pp.certified_threshold(a)
                    .ok_or(PpError::InfeasibleAccuracy(a))
            })
            .collect::<Result<_>>()?;
        Ok(PlannedPpExpr {
            expr,
            accuracies,
            thresholds,
            estimate,
        })
    }

    /// The expression.
    pub fn expr(&self) -> &PpExpr {
        &self.expr
    }

    /// Per-leaf accuracies, in pre-order.
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    /// Per-leaf thresholds `th(a]`, in pre-order.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Estimated accuracy/reduction/cost at the planned accuracies.
    pub fn estimate(&self) -> Estimate {
        self.estimate
    }

    /// The decision for one blob, with short-circuit evaluation: `true`
    /// keeps it.
    pub(crate) fn passes(&self, blob: &Features) -> bool {
        self.expr.passes_rec(blob, &self.thresholds, &mut 0)
    }

    /// Wraps into an engine [`RowFilter`] reading the blob from the named
    /// column.
    pub fn into_filter(self, blob_column: impl Into<String>) -> PpExprFilter {
        PpExprFilter {
            name: filter_name(&self.expr.to_string()),
            blob_column: blob_column.into(),
            leaf_rows_scored: (0..self.expr.leaf_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            planned: self,
        }
    }
}

/// The operator name of the filter that runs the PP expression displayed
/// as `expr`, and so of its telemetry span: a single leaf displays as
/// `PP[key]` already; a composite gets a `PP` prefix.
pub fn filter_name(expr: &str) -> String {
    if expr.starts_with("PP[") {
        expr.to_string()
    } else {
        format!("PP{expr}")
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
    /// undecided, which is what the per-row walk scores there. It is a
    /// property of the rows, so it is the same at every parallelism and
    /// batch size.
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
        Ok(self.planned.passes(blob))
    }

    /// Vectorized evaluation, one leaf at a time over a selection vector
    /// of the rows still undecided: a conjunction drops from it the rows a
    /// child rejects, a disjunction passes the rows a child accepts. The
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
            thresholds: &self.planned.thresholds,
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

    /// `expr` planned at accuracy `a` for every leaf.
    fn planned_at(expr: PpExpr, a: f64) -> PlannedPpExpr {
        let n = expr.leaf_count();
        PlannedPpExpr::new(expr, vec![a; n]).unwrap()
    }

    #[test]
    fn estimate_matches_combine_algebra() {
        let e = PpExpr::And(vec![leaf(1), leaf(2)]);
        let est = e.estimate(&[0.95, 0.95]).unwrap();
        let leaves = e.leaves();
        let r1 = leaves[0].reduction(0.95).unwrap();
        let r2 = leaves[1].reduction(0.95).unwrap();
        assert!((est.reduction - (r1 + r2 - r1 * r2)).abs() < 1e-12);
        assert!((est.accuracy - 0.95 * 0.95).abs() < 1e-12);
        assert!(e.estimate(&[0.95]).is_err());
    }

    #[test]
    fn passes_and_semantics() {
        let planned = planned_at(PpExpr::And(vec![leaf(1), leaf(2)]), 0.95);
        assert!(planned.passes(&Features::Dense(vec![2.5, 0.0])));
        assert!(!planned.passes(&Features::Dense(vec![-2.5, 0.0])));
    }

    #[test]
    fn passes_or_semantics() {
        // Or with one PP trained normally and one with inverted geometry
        // still accepts when either accepts.
        let planned = planned_at(PpExpr::Or(vec![leaf(1), leaf(2)]), 0.95);
        assert!(planned.passes(&Features::Dense(vec![2.5, 0.0])));
    }

    #[test]
    fn nested_short_circuit_keeps_leaf_indexing() {
        // And(reject-first): the second child's leaves must still be
        // numbered consistently — distinct per-leaf accuracies, and the
        // verdict is the per-leaf pipelines' own.
        let e = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        let planned = PlannedPpExpr::new(e, vec![0.99, 0.95, 0.9]).unwrap();
        let neg = Features::Dense(vec![-2.5, 0.0]);
        assert!(!planned.passes(&neg));
        let pos = Features::Dense(vec![2.5, 0.0]);
        let leaves = planned.expr().leaves();
        let by_leaf = |i: usize, a: f64| leaves[i].pipeline().passes(&pos, a).unwrap();
        let want = by_leaf(0, 0.99) && (by_leaf(1, 0.95) || by_leaf(2, 0.9));
        assert_eq!(planned.passes(&pos), want);
    }

    #[test]
    fn new_rejects_a_wrong_number_of_accuracies() {
        let e = PpExpr::And(vec![leaf(1), leaf(2)]);
        for accuracies in [vec![], vec![0.95], vec![0.95; 3]] {
            assert!(matches!(
                PlannedPpExpr::new(e.clone(), accuracies),
                Err(PpError::InvalidParameter(_))
            ));
        }
        assert!(PlannedPpExpr::new(e, vec![0.95; 2]).is_ok());
    }

    #[test]
    fn new_rejects_accuracies_outside_the_unit_interval() {
        for a in [0.0, -0.5, 1.1, f64::NAN] {
            let e = PpExpr::Or(vec![leaf(1), leaf(2)]);
            assert!(PlannedPpExpr::new(e, vec![0.95, a]).is_err(), "a = {a}");
        }
        assert!(PlannedPpExpr::new(leaf(1), vec![0.99]).is_ok());
    }

    #[test]
    fn new_rejects_an_accuracy_the_leaf_cannot_certify() {
        // About 420 validation positives certify 0.99 (299 needed) but not
        // 0.995 (598), and no sample certifies 1.0.
        for a in [0.995, 1.0] {
            let e = PpExpr::And(vec![leaf(1), leaf(2)]);
            assert!(
                matches!(
                    PlannedPpExpr::new(e, vec![0.9, a]),
                    Err(PpError::InfeasibleAccuracy(x)) if x == a
                ),
                "a = {a}"
            );
        }
    }

    #[test]
    fn new_resolves_each_leaf_threshold_once_and_exactly() {
        let e = PpExpr::And(vec![leaf(1), PpExpr::Or(vec![leaf(2), leaf(3)])]);
        let accuracies = vec![0.99, 0.95, 0.9];
        let planned = PlannedPpExpr::new(e, accuracies.clone()).unwrap();
        assert_eq!(planned.accuracies(), &accuracies[..]);
        assert_eq!(planned.thresholds().len(), 3);
        for ((pp, &a), &th) in planned
            .expr()
            .leaves()
            .iter()
            .zip(&accuracies)
            .zip(planned.thresholds())
        {
            let want = pp.pipeline().calibration().threshold(a).unwrap();
            assert_eq!(th.to_bits(), want.to_bits(), "{} at {a}", pp.key());
        }
        assert_eq!(
            planned.estimate(),
            planned.expr().estimate(&accuracies).unwrap()
        );
    }

    #[test]
    fn rescaled_leaves_keep_their_thresholds() {
        // A reduction correction moves estimates, never thresholds, so a
        // rescaled PP decides exactly as the unscaled one.
        let pp = trained_pp(0.3, 6, 0.001);
        let plain = planned_at(PpExpr::leaf(Arc::new(pp.clone())), 0.95);
        for scale in [0.5, 2.0] {
            let scaled = PpExpr::leaf(Arc::new(pp.with_reduction_scale(scale)));
            let scaled = planned_at(scaled, 0.95);
            assert_eq!(
                scaled.thresholds()[0].to_bits(),
                plain.thresholds()[0].to_bits()
            );
            assert_ne!(scaled.estimate(), plain.estimate());
        }
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
        let filter = planned_at(leaf(1), 0.95).into_filter("blob");
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
        let filter = planned_at(expr, 0.95).into_filter("blob");
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
        let filter = planned_at(leaf(1), 0.95).into_filter("blob");
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
