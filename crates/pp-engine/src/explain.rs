//! `EXPLAIN ANALYZE`: joining planner predictions to executed spans.
//!
//! The PP query optimizer picks plans from *estimated* cost, reduction,
//! and accuracy (Eq. 9/10, the §6.2 accuracy-budget DP); the telemetry
//! subsystem records what *happened*. This module connects the two: a
//! [`predict`] pass walks a plan in cost-meter charge order and emits one
//! [`OperatorPrediction`] per operator, and [`ExplainAnalyze::analyze`]
//! joins those predictions to the [`TelemetrySnapshot`] spans of an actual
//! run by [`OperatorId`], producing an annotated plan tree with per-node
//! relative errors — the raw material for the calibration feedback loop
//! (mis-estimated r(a) curves show up as large reduction errors, stale
//! per-row costs as large seconds errors).
//!
//! Join key: the operator id is the 0-based index of the operator in
//! cost-meter charge order — a pure function of plan shape: every walker,
//! the executor included, visits [`LogicalPlan::children`] before the
//! node, so prediction `i` describes span `OperatorId(i)` and both carry
//! the node's [`LogicalPlan::op_label`].
//! The join is validated on both sides: a name mismatch is an
//! [`EngineError::InvalidPlan`], a span with no predicted node is an
//! orphan, and a node without a span (a run that aborted early) is left
//! unjoined.
//!
//! Determinism: [`ExplainAnalyze::to_json`] serializes only deterministic
//! span fields (no wall-clock nanos, no latency histograms), so for a
//! fixed plan, catalog, and fault seed the JSON is byte-identical at every
//! parallelism and batch size — the same contract the telemetry snapshot
//! honors after [`TelemetrySnapshot::zero_wall_clock`].

use std::collections::BTreeMap;

use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::json::JsonWriter;
use crate::logical::LogicalPlan;
use crate::telemetry::{OperatorId, OperatorSpan, QueryId, TelemetrySnapshot};
use crate::{EngineError, Result};

/// Planner-supplied per-operator selectivity hints, keyed by operator
/// display name.
///
/// A ratio is the predicted output cardinality per input row: `1 − r` for
/// an injected PP filter with estimated reduction `r`, the predicate's
/// residual selectivity for a `Select`, and so on. Operators without a
/// hint predict pass-through (ratio 1.0); `Join`/`Combine` ratios are
/// relative to the *left* input (foreign-key join semantics).
#[derive(Debug, Clone, Default)]
pub struct PredictionHints {
    ratios: BTreeMap<String, f64>,
}

impl PredictionHints {
    /// No hints: every operator predicts pass-through cardinality.
    pub fn new() -> Self {
        PredictionHints::default()
    }

    /// Sets the predicted output-rows-per-input-row ratio for the operator
    /// named `op` (clamped to `[0, +∞)`; NaN is ignored).
    pub fn with_ratio(mut self, op: impl Into<String>, ratio: f64) -> Self {
        if ratio.is_finite() && ratio >= 0.0 {
            self.ratios.insert(op.into(), ratio);
        }
        self
    }

    /// The hint for `op`, if any.
    pub fn ratio(&self, op: &str) -> Option<f64> {
        self.ratios.get(op).copied()
    }
}

/// The planner's forecast for one operator, in cost-meter charge order.
///
/// Cardinalities are fractional expectations, not integers: a PP with
/// estimated reduction 0.83 over 400 rows predicts 68.0 output rows.
/// Predicted seconds mirror the executor's charge formulas (rows × the
/// [`CostModel`] rate for relational operators, rows × declared
/// per-row cost for UDFs), so on a fault-free run with the same cost
/// model the seconds error is zero by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorPrediction {
    /// Operator id this prediction describes (charge-order index).
    pub op_id: OperatorId,
    /// Operator display name (matches the span and cost-meter entry).
    pub op: String,
    /// Predicted input cardinality.
    pub rows_in: f64,
    /// Predicted output cardinality.
    pub rows_out: f64,
    /// Predicted charged cluster seconds.
    pub seconds: f64,
}

impl OperatorPrediction {
    /// Predicted fraction of input rows surviving (1.0 on empty input).
    pub fn selectivity(&self) -> f64 {
        if self.rows_in <= 0.0 {
            1.0
        } else {
            self.rows_out / self.rows_in
        }
    }

    /// Predicted data reduction: `1 − selectivity`, floored at 0 (fan-out
    /// operators can emit more rows than they read).
    pub fn reduction(&self) -> f64 {
        (1.0 - self.selectivity()).max(0.0)
    }
}

/// Predicts per-operator cardinalities and charged seconds for `plan`
/// against `catalog`, in cost-meter charge order.
///
/// Scan cardinalities come from the catalog; downstream cardinalities
/// thread bottom-up through the `hints` ratios. The traversal is
/// [`LogicalPlan::children`] before the node, so `predictions[i]`
/// describes [`OperatorId`]`(i)`.
pub fn predict(
    plan: &LogicalPlan,
    catalog: &Catalog,
    model: &CostModel,
    hints: &PredictionHints,
) -> Result<Vec<OperatorPrediction>> {
    let mut out = Vec::new();
    predict_into(plan, catalog, model, hints, &mut out)?;
    Ok(out)
}

/// Recursive worker: predicts the subtree, pushes this node's entry after
/// its inputs (charge order), and returns the predicted output
/// cardinality.
fn predict_into(
    plan: &LogicalPlan,
    catalog: &Catalog,
    model: &CostModel,
    hints: &PredictionHints,
    out: &mut Vec<OperatorPrediction>,
) -> Result<f64> {
    // Recurse inputs first so `out.len()` is this node's charge index.
    let mut rows_in = 0.0;
    let mut left_rows = 0.0;
    for (i, child) in plan.children().enumerate() {
        let rows = predict_into(child, catalog, model, hints, out)?;
        if i == 0 {
            left_rows = rows;
        }
        rows_in += rows;
    }
    if let LogicalPlan::Scan { table, .. } = plan {
        rows_in = catalog.table_rows(table)? as f64;
    }
    let idx = out.len();
    let op = plan.op_label();
    let ratio = hints.ratio(&op).unwrap_or(1.0);
    let (rows_out, seconds) = match plan {
        // A scan with a pushdown predicts zone-map pruning *exactly* (zone
        // maps are static, an accuracy-1.0 PP): rows_out and seconds cover
        // only the rows surviving group pruning, which is precisely what
        // the executor emits and charges. A table without zone maps
        // prunes nothing.
        LogicalPlan::Scan { table, pushdown } => {
            let kept = match pushdown {
                Some(pred) => {
                    let provider = catalog.provider(table)?;
                    rows_in
                        - crate::provider::prune_stats(provider.as_ref(), pred).rows_pruned as f64
                }
                None => rows_in,
            };
            (kept * ratio, kept * model.scan)
        }
        LogicalPlan::Process { processor, .. } => {
            (rows_in * ratio, rows_in * processor.cost_per_row())
        }
        LogicalPlan::Select { .. } => (rows_in * ratio, rows_in * model.select),
        LogicalPlan::Filter { filter, .. } => (rows_in * ratio, rows_in * filter.cost_per_row()),
        LogicalPlan::Project { .. } => (rows_in * ratio, rows_in * model.project),
        // Foreign-key join: each probe-side row matches; ratio scales the
        // left (probe) cardinality.
        LogicalPlan::Join { .. } => (left_rows * ratio, rows_in * model.join),
        LogicalPlan::Aggregate { .. } => (rows_in * ratio, rows_in * model.aggregate),
        LogicalPlan::Reduce { reducer, .. } => (rows_in * ratio, rows_in * reducer.cost_per_row()),
        LogicalPlan::Combine { combiner, .. } => {
            (left_rows * ratio, rows_in * combiner.cost_per_row())
        }
    };
    out.push(OperatorPrediction {
        op_id: OperatorId(idx as u32),
        op,
        rows_in,
        rows_out,
        seconds,
    });
    Ok(rows_out)
}

/// One node of the annotated plan tree: the prediction, the joined span
/// (absent when the run aborted before the operator charged), and the
/// node's input subtrees.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Charge-order operator id (the join key).
    pub op_id: OperatorId,
    /// Operator display name.
    pub op: String,
    /// The planner's forecast.
    pub predicted: OperatorPrediction,
    /// The executed span, joined by op id; `None` if the operator never
    /// charged (e.g. the run aborted upstream).
    pub actual: Option<OperatorSpan>,
    /// Input subtrees (left before right), in plan order.
    pub children: Vec<ExplainNode>,
}

/// Signed relative error `(actual − predicted) / predicted`; `None` when
/// the prediction is (near) zero but something was observed.
fn rel_err(predicted: f64, actual: f64) -> Option<f64> {
    if predicted.abs() > 1e-12 {
        Some((actual - predicted) / predicted)
    } else if actual.abs() <= 1e-12 {
        Some(0.0)
    } else {
        None
    }
}

impl ExplainNode {
    /// Relative error of the predicted output cardinality against the
    /// span's emitted rows (`None` if unjoined or the prediction was zero
    /// while rows were emitted).
    pub fn rows_error(&self) -> Option<f64> {
        let span = self.actual.as_ref()?;
        rel_err(self.predicted.rows_out, span.rows_emitted as f64)
    }

    /// Relative error of the predicted charged seconds against the span's
    /// charged seconds.
    pub fn seconds_error(&self) -> Option<f64> {
        let span = self.actual.as_ref()?;
        rel_err(self.predicted.seconds, span.seconds)
    }
}

/// The joined plan-vs-actual tree for one executed query.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// Which run the actuals came from.
    pub query_id: QueryId,
    /// The annotated plan tree (root = top operator).
    pub root: ExplainNode,
    orphans: Vec<OperatorSpan>,
}

impl ExplainAnalyze {
    /// Joins `predictions` (from [`predict`], threaded through
    /// `PlanReport::predictions`) to the spans of `snapshot` over the
    /// shape of `plan`.
    ///
    /// Errors with [`EngineError::InvalidPlan`] when the predictions do
    /// not describe this plan (count or name mismatch) or a span's name
    /// disagrees with the operator at its id — either means the caller
    /// joined artifacts from different plans.
    pub fn analyze(
        plan: &LogicalPlan,
        predictions: &[OperatorPrediction],
        snapshot: &TelemetrySnapshot,
    ) -> Result<ExplainAnalyze> {
        let mut operators = 0usize;
        let root = build_node(plan, predictions, snapshot, &mut operators)?;
        if predictions.len() != operators {
            return Err(EngineError::InvalidPlan(format!(
                "{} predictions for a plan with {operators} operators",
                predictions.len()
            )));
        }
        let orphans: Vec<OperatorSpan> = snapshot
            .spans
            .iter()
            .filter(|s| s.op_id.0 as usize >= operators)
            .cloned()
            .collect();
        Ok(ExplainAnalyze {
            query_id: snapshot.query_id,
            root,
            orphans,
        })
    }

    /// Spans in the snapshot with no corresponding plan operator (never
    /// produced by a healthy run; non-empty means plan and snapshot do not
    /// belong together).
    pub fn orphan_spans(&self) -> &[OperatorSpan] {
        &self.orphans
    }

    /// All nodes flattened in charge (execution) order.
    pub fn nodes(&self) -> Vec<&ExplainNode> {
        let mut out = Vec::new();
        collect_nodes(&self.root, &mut out);
        out.sort_by_key(|n| n.op_id.0);
        out
    }

    /// Nodes whose prediction found no span — the run aborted before the
    /// operator charged. Empty on a completed run.
    pub fn unjoined_nodes(&self) -> Vec<&ExplainNode> {
        self.nodes()
            .into_iter()
            .filter(|n| n.actual.is_none())
            .collect()
    }

    /// The human-readable ANALYZE tree (root first, inputs indented), one
    /// line per operator: predicted vs actual rows, reduction, and charged
    /// seconds, with signed relative-error annotations.
    pub fn render(&self) -> String {
        let mut out = format!("EXPLAIN ANALYZE (query {})\n", self.query_id.0);
        render_node(&self.root, 0, &mut out);
        if !self.orphans.is_empty() {
            out.push_str(&format!("  ! {} orphan span(s)\n", self.orphans.len()));
        }
        out
    }

    /// Stable-order JSON of the annotated tree. Only deterministic fields
    /// are serialized (no wall-clock nanos, no latency buckets), so for a
    /// fixed plan/catalog/fault-seed the output is byte-identical at every
    /// parallelism × batch size.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(2048);
        w.object(|w| {
            w.key("query_id").uint(self.query_id.0);
            w.key("orphan_spans").uint(self.orphans.len() as u64);
            w.key("plan");
            node_json(w, &self.root);
        });
        w.finish()
    }
}

fn collect_nodes<'a>(node: &'a ExplainNode, out: &mut Vec<&'a ExplainNode>) {
    for child in &node.children {
        collect_nodes(child, out);
    }
    out.push(node);
}

fn build_node(
    plan: &LogicalPlan,
    predictions: &[OperatorPrediction],
    snapshot: &TelemetrySnapshot,
    next: &mut usize,
) -> Result<ExplainNode> {
    let children = plan
        .children()
        .map(|child| build_node(child, predictions, snapshot, next))
        .collect::<Result<Vec<_>>>()?;
    let idx = *next;
    *next += 1;
    let op = plan.op_label();
    let predicted = predictions
        .get(idx)
        .ok_or_else(|| EngineError::InvalidPlan(format!("no prediction for operator #{idx}")))?;
    if predicted.op != op {
        return Err(EngineError::InvalidPlan(format!(
            "prediction #{idx} is for {:?}, plan operator is {op:?}",
            predicted.op
        )));
    }
    let actual = snapshot.spans.iter().find(|s| s.op_id.0 as usize == idx);
    if let Some(span) = actual {
        if span.op != op {
            return Err(EngineError::InvalidPlan(format!(
                "span #{idx} is {:?}, plan operator is {op:?}",
                span.op
            )));
        }
    }
    Ok(ExplainNode {
        op_id: OperatorId(idx as u32),
        op,
        predicted: predicted.clone(),
        actual: actual.cloned(),
        children,
    })
}

/// Formats a signed relative error as e.g. `+3.1%`, or `n/a`.
fn fmt_err(err: Option<f64>) -> String {
    match err {
        Some(e) => format!("{:+.1}%", e * 100.0),
        None => "n/a".to_string(),
    }
}

fn render_node(node: &ExplainNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth + 1);
    let p = &node.predicted;
    match &node.actual {
        Some(s) => {
            out.push_str(&format!(
                "{indent}#{} {}  rows {:.0}→{} ({})  red {:.2}→{:.2}  sec {:.3e}→{:.3e} ({})\n",
                node.op_id.0,
                node.op,
                p.rows_out,
                s.rows_emitted,
                fmt_err(node.rows_error()),
                p.reduction(),
                s.reduction(),
                p.seconds,
                s.seconds,
                fmt_err(node.seconds_error()),
            ));
        }
        None => {
            out.push_str(&format!(
                "{indent}#{} {}  rows {:.0}→—  red {:.2}→—  sec {:.3e}→— (never ran)\n",
                node.op_id.0,
                node.op,
                p.rows_out,
                p.reduction(),
                p.seconds,
            ));
        }
    }
    for child in &node.children {
        render_node(child, depth + 1, out);
    }
}

fn node_json(w: &mut JsonWriter, node: &ExplainNode) {
    let p = &node.predicted;
    w.object(|w| {
        w.key("op_id").uint(u64::from(node.op_id.0));
        w.key("op").string(&node.op);
        w.key("predicted").object(|w| {
            w.key("rows_in").float(p.rows_in);
            w.key("rows_out").float(p.rows_out);
            w.key("selectivity").float(p.selectivity());
            w.key("reduction").float(p.reduction());
            w.key("seconds").float(p.seconds);
        });
        w.key("actual").optional(node.actual.as_ref(), |w, s| {
            w.object(|w| {
                s.counters_json(w);
                w.key("reduction").float(s.reduction());
                w.key("seconds").float(s.seconds);
            })
        });
        w.key("rows_error")
            .optional(node.rows_error(), JsonWriter::float);
        w.key("seconds_error")
            .optional(node.seconds_error(), JsonWriter::float);
        w.key("children").array(&node.children, node_json);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionContext;
    use crate::predicate::{Clause, CompareOp, Predicate};
    use crate::row::{Row, Rowset};
    use crate::schema::{Column, DataType, Schema};
    use crate::udf::ClosureFilter;
    use crate::value::Value;
    use std::sync::Arc;

    fn int_catalog(n: i64) -> Catalog {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let rows = (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut c = Catalog::new();
        c.register("t", Rowset::new(schema, rows).unwrap());
        c
    }

    fn even_filter() -> Arc<ClosureFilter> {
        Arc::new(ClosureFilter::new("PP[even]", 0.002, |row, _| {
            Ok(row.get(0).as_int()? % 2 == 0)
        }))
    }

    fn plan() -> LogicalPlan {
        LogicalPlan::scan("t")
            .filter(even_filter())
            .select(Predicate::from(Clause::new("id", CompareOp::Lt, 10i64)))
    }

    #[test]
    fn predictions_follow_charge_order_and_hints() {
        let cat = int_catalog(100);
        let hints = PredictionHints::new()
            .with_ratio("PP[even]", 0.5)
            .with_ratio("Select[id < 10]", 0.1);
        let preds = predict(&plan(), &cat, &CostModel::default(), &hints).unwrap();
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].op, "Scan[t]");
        assert_eq!(preds[1].op, "PP[even]");
        assert_eq!(preds[2].op, "Select[id < 10]");
        assert_eq!(preds[0].rows_out, 100.0);
        assert_eq!(preds[1].rows_out, 50.0);
        assert!((preds[1].reduction() - 0.5).abs() < 1e-12);
        assert!((preds[2].rows_out - 5.0).abs() < 1e-12);
        // Predicted seconds mirror the charge formulas.
        assert!((preds[1].seconds - 100.0 * 0.002).abs() < 1e-12);
        for (i, p) in preds.iter().enumerate() {
            assert_eq!(p.op_id.0 as usize, i);
        }
    }

    #[test]
    fn analyze_joins_all_spans_on_a_clean_run() {
        let cat = int_catalog(100);
        let plan = plan();
        let hints = PredictionHints::new().with_ratio("PP[even]", 0.5);
        let preds = predict(&plan, &cat, &CostModel::default(), &hints).unwrap();
        let mut ctx = ExecutionContext::new(&cat);
        ctx.run(&plan).unwrap();
        let snap = ctx.telemetry().unwrap().clone();
        let tree = ExplainAnalyze::analyze(&plan, &preds, &snap).unwrap();
        assert!(tree.orphan_spans().is_empty());
        assert!(tree.unjoined_nodes().is_empty());
        let nodes = tree.nodes();
        assert_eq!(nodes.len(), 3);
        for node in &nodes {
            let span = snap
                .spans
                .iter()
                .find(|s| s.op_id == node.op_id)
                .expect("span");
            assert_eq!(
                node.actual.as_ref().unwrap().rows_emitted,
                span.rows_emitted
            );
        }
        // The even filter halved the input exactly: zero rows error.
        let pp = nodes.iter().find(|n| n.op == "PP[even]").unwrap();
        assert_eq!(pp.rows_error(), Some(0.0));
        assert_eq!(pp.seconds_error(), Some(0.0));
        let rendered = tree.render();
        assert!(rendered.contains("EXPLAIN ANALYZE"));
        assert!(rendered.contains("PP[even]"));
        let json = tree.to_json();
        assert!(json.starts_with("{\"query_id\":"));
        assert!(json.contains("\"rows_error\":0"));
    }

    #[test]
    fn analyze_rejects_mismatched_predictions() {
        let cat = int_catalog(10);
        let plan = plan();
        let mut preds =
            predict(&plan, &cat, &CostModel::default(), &PredictionHints::new()).unwrap();
        let mut ctx = ExecutionContext::new(&cat);
        ctx.run(&plan).unwrap();
        let snap = ctx.telemetry().unwrap().clone();
        // Too few predictions.
        assert!(matches!(
            ExplainAnalyze::analyze(&plan, &preds[..2], &snap),
            Err(EngineError::InvalidPlan(_))
        ));
        // Right count, wrong operator name.
        preds[1].op = "PP[odd]".into();
        assert!(matches!(
            ExplainAnalyze::analyze(&plan, &preds, &snap),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn unjoined_nodes_survive_missing_spans() {
        let cat = int_catalog(10);
        let plan = plan();
        let preds = predict(&plan, &cat, &CostModel::default(), &PredictionHints::new()).unwrap();
        let mut ctx = ExecutionContext::new(&cat);
        ctx.run(&plan).unwrap();
        let mut snap = ctx.telemetry().unwrap().clone();
        snap.spans.truncate(1); // pretend the run aborted after the scan
        let tree = ExplainAnalyze::analyze(&plan, &preds, &snap).unwrap();
        assert_eq!(tree.unjoined_nodes().len(), 2);
        assert!(tree.render().contains("never ran"));
    }
}
