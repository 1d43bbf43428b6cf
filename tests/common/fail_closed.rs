//! A test-only adapter that makes a row filter fail closed
//! (`#[path = "common/fail_closed.rs"] mod fail_closed;`).

use std::sync::Arc;

use probabilistic_predicates::engine::udf::RowFilter;
use probabilistic_predicates::engine::{Batch, LogicalPlan, Result, RowRef, Schema, Selection};

/// Runs `inner` unchanged but declares it correctness-gating
/// (`fail_open() == false`), so the executor turns its failures into the
/// run's error instead of passing the row.
pub struct FailClosed(pub Arc<dyn RowFilter>);

impl RowFilter for FailClosed {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn cost_per_row(&self) -> f64 {
        self.0.cost_per_row()
    }
    fn passes(&self, row: RowRef<'_>, schema: &Schema) -> Result<bool> {
        self.0.passes(row, schema)
    }
    fn fail_open(&self) -> bool {
        false
    }
    fn eval_batch(&self, batch: &Batch<'_>) -> Selection {
        self.0.eval_batch(batch)
    }
}

/// `plan` with every row filter wrapped in [`FailClosed`].
pub fn fail_closed(plan: &LogicalPlan) -> LogicalPlan {
    match plan.map_children(fail_closed) {
        LogicalPlan::Filter { input, filter } => LogicalPlan::Filter {
            input,
            filter: Arc::new(FailClosed(filter)),
        },
        other => other,
    }
}
