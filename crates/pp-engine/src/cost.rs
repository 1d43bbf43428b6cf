//! Cost metering: simulated cluster processing time and modeled latency.
//!
//! The paper measures "two metrics: cluster processing time and query
//! latency ... Cluster processing time is the overall cluster resource
//! usage and includes the cost of executing PPs, and query latency is the
//! end-to-end user waiting time taking PP overhead into account" (§8.2).
//!
//! Here, every operator charges `rows_in × cost_per_row` simulated seconds
//! to the meter (a UDF's declared rate, or one of the `*_S_PER_ROW`
//! constants below). Latency is modeled on top of the same ledger: each
//! operator stage contributes `seconds /` [`DEGREE_OF_PARALLELISM`] plus
//! [`STAGE_OVERHEAD_S`], so plans with more serialized stages (e.g.
//! SortP's predicate chains) pay proportionally more latency — matching the
//! paper's observation that "serializing the predicates (and UDFs) leads to
//! longer critical paths".

/// Per-operator execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operator display name.
    pub op: String,
    /// Rows consumed.
    pub rows_in: usize,
    /// Rows produced.
    pub rows_out: usize,
    /// Simulated cluster seconds charged.
    pub seconds: f64,
}

// Built-in per-row costs for relational operators (UDFs carry their own),
// in simulated cluster seconds per input row. They are deliberately tiny
// relative to ML-UDF costs — the paper's premise is that UDFs dominate
// ("materialization cost ... would dominate", §2).

/// Reading one row from a table.
pub const SCAN_S_PER_ROW: f64 = 1e-7;
/// Evaluating a predicate on one row.
pub const SELECT_S_PER_ROW: f64 = 1e-6;
/// Projecting one row.
pub const PROJECT_S_PER_ROW: f64 = 5e-7;
/// Hash-join work per (build + probe) row.
pub const JOIN_S_PER_ROW: f64 = 2e-6;
/// Grouped-aggregation work per row.
pub const AGGREGATE_S_PER_ROW: f64 = 1e-6;
/// Modeled degree of parallelism for latency (cluster task slots).
pub const DEGREE_OF_PARALLELISM: f64 = 16.0;
/// Modeled per-stage scheduling overhead in seconds.
pub const STAGE_OVERHEAD_S: f64 = 0.05;

/// Accumulates per-operator charges for one query execution.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    entries: Vec<OpStats>,
}

impl CostMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Records one operator's execution.
    pub fn charge(&mut self, op: impl Into<String>, rows_in: usize, rows_out: usize, seconds: f64) {
        self.entries.push(OpStats {
            op: op.into(),
            rows_in,
            rows_out,
            seconds,
        });
    }

    /// All recorded operator stats, in execution order.
    pub fn entries(&self) -> &[OpStats] {
        &self.entries
    }

    /// Total simulated cluster seconds.
    pub fn cluster_seconds(&self) -> f64 {
        self.entries.iter().map(|e| e.seconds).sum()
    }

    /// Modeled end-to-end latency: each operator stage contributes
    /// `seconds /` [`DEGREE_OF_PARALLELISM`] plus [`STAGE_OVERHEAD_S`].
    pub fn latency_seconds(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.seconds / DEGREE_OF_PARALLELISM + STAGE_OVERHEAD_S)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = CostMeter::new();
        m.charge("Scan", 100, 100, 0.5);
        m.charge("Process[VehDetector]", 100, 80, 10.0);
        assert_eq!(m.entries().len(), 2);
        assert!((m.cluster_seconds() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn latency_model_penalizes_stages() {
        let mut one_stage = CostMeter::new();
        one_stage.charge("A", 10, 10, 160.0);
        let mut two_stages = CostMeter::new();
        two_stages.charge("A", 10, 10, 80.0);
        two_stages.charge("B", 10, 10, 80.0);
        assert_eq!(one_stage.cluster_seconds(), two_stages.cluster_seconds());
        let (l1, l2) = (one_stage.latency_seconds(), two_stages.latency_seconds());
        assert!(l2 > l1);
        let spread = 160.0 / DEGREE_OF_PARALLELISM;
        assert!((l1 - (spread + STAGE_OVERHEAD_S)).abs() < 1e-12);
        assert!((l2 - (spread + 2.0 * STAGE_OVERHEAD_S)).abs() < 1e-12);
    }
}
