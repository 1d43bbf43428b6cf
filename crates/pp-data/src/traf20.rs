//! The TRAF-20 benchmark (§8.2, Table 7).
//!
//! "We created a benchmark, TRAF-20, with 20 inference queries ... Five
//! predicate columns are generated by different machine learning UDFs,
//! including vehicle color c and type t, speed s and direction (from i /
//! to o). The queries mimic retrieval of vehicles that meet a specified
//! predicate (e.g., an over-speed truck or an illegal turn). TRAF-20 has
//! complex predicates including disjunctions and conjunctions of range,
//! equality and inequality checks. Each query is equally likely to have
//! between one and four predicate clauses."

use std::sync::Arc;

use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_engine::udf::Processor;
use pp_engine::LogicalPlan;

use crate::traffic::TrafficDataset;

/// One benchmark query.
#[derive(Debug, Clone)]
pub struct TrafQuery {
    /// Query number (1–20).
    pub id: u32,
    /// Short description (Table 7's type codes: E equality, I inequality,
    /// N numeric, R range, C conjunction, D disjunction).
    pub kind: &'static str,
    /// The WHERE predicate.
    pub predicate: Predicate,
}

impl TrafQuery {
    /// The predicate columns this query needs materialized, in canonical
    /// UDF order.
    pub fn columns(&self) -> Vec<String> {
        const ORDER: [&str; 5] = ["vehType", "vehColor", "speed", "fromI", "toI"];
        let used = self.predicate.columns();
        ORDER
            .iter()
            .filter(|c| used.contains(**c))
            .map(|c| c.to_string())
            .collect()
    }

    /// The unmodified ("NoP") plan: scan → all needed UDFs → select.
    pub fn nop_plan(&self, dataset: &TrafficDataset) -> LogicalPlan {
        let scan = LogicalPlan::scan("traffic");
        (self.udfs(dataset).into_iter())
            .fold(scan, LogicalPlan::process)
            .select(self.predicate.clone())
    }

    /// NoP's UDFs with each top-level conjunct's select right after the
    /// last of them it reads ([`LogicalPlan::placed`]), as a served plan
    /// is built: NoP's rows, and no UDF runs on a row an earlier conjunct
    /// rejected.
    pub fn placed_plan(&self, dataset: &TrafficDataset) -> LogicalPlan {
        let scan = LogicalPlan::scan("traffic");
        LogicalPlan::placed(scan, &self.udfs(dataset), self.predicate.conjuncts())
    }

    fn udfs(&self, dataset: &TrafficDataset) -> Vec<Arc<dyn Processor>> {
        // `columns` names only UDF columns, so every one has its UDF.
        (self.columns().iter())
            .filter_map(|col| dataset.udf(col))
            .collect()
    }

    /// Number of simple clauses in the predicate.
    pub fn clause_count(&self) -> usize {
        self.predicate.clauses().len()
    }
}

fn c(col: &str, op: CompareOp, v: impl Into<pp_engine::Value>) -> Predicate {
    Predicate::from(Clause::new(col, op, v))
}

/// The 20 queries. Q1/Q2/Q4/Q7/Q8/Q14/Q20 match the examples printed in
/// the paper's Table 7; the rest follow its clause-count distribution
/// (five queries per clause count 1–4) and operator mix.
pub fn traf20_queries() -> Vec<TrafQuery> {
    use CompareOp::*;
    let q = |id, kind, predicate| TrafQuery {
        id,
        kind,
        predicate,
    };
    vec![
        // --- one clause ---
        q(1, "E", c("vehType", Eq, "SUV")),
        q(2, "N", c("speed", Gt, 60.0)),
        q(3, "E", c("vehColor", Eq, "red")),
        q(4, "I", c("vehColor", Ne, "white")),
        q(5, "N", c("speed", Lt, 40.0)),
        // --- two clauses ---
        q(
            6,
            "EC",
            Predicate::and(c("vehType", Eq, "van"), c("vehColor", Eq, "silver")),
        ),
        q(
            7,
            "NR",
            Predicate::and(c("speed", Gt, 60.0), c("speed", Lt, 65.0)),
        ),
        q(
            8,
            "ER",
            Predicate::or(c("vehType", Eq, "sedan"), c("vehType", Eq, "truck")),
        ),
        q(
            9,
            "ER",
            Predicate::or(c("vehColor", Eq, "red"), c("vehColor", Eq, "black")),
        ),
        q(
            10,
            "NC",
            Predicate::and(c("speed", Gt, 50.0), c("vehType", Eq, "truck")),
        ),
        // --- three clauses ---
        q(
            11,
            "EC",
            Predicate::And(vec![
                c("vehType", Eq, "SUV"),
                c("speed", Gt, 55.0),
                c("vehColor", Eq, "black"),
            ]),
        ),
        q(
            12,
            "ECD",
            Predicate::and(
                c("fromI", Eq, "pt303"),
                Predicate::or(c("toI", Eq, "pt335"), c("toI", Eq, "pt306")),
            ),
        ),
        q(
            13,
            "IC",
            Predicate::and(
                Predicate::and(c("vehColor", Ne, "white"), c("vehType", Eq, "SUV")),
                c("speed", Gt, 45.0),
            ),
        ),
        q(
            14,
            "ECD",
            Predicate::and(
                Predicate::or(c("vehType", Eq, "truck"), c("vehType", Eq, "van")),
                c("speed", Gt, 50.0),
            ),
        ),
        q(
            15,
            "NRC",
            Predicate::And(vec![
                c("speed", Gt, 60.0),
                c("speed", Lt, 70.0),
                c("vehColor", Eq, "white"),
            ]),
        ),
        // --- four clauses ---
        q(
            16,
            "EC",
            Predicate::And(vec![
                c("vehType", Eq, "SUV"),
                c("vehColor", Eq, "red"),
                c("fromI", Eq, "pt335"),
                c("toI", Eq, "pt211"),
            ]),
        ),
        q(
            17,
            "ECD",
            Predicate::And(vec![
                Predicate::or(c("vehColor", Eq, "red"), c("vehColor", Eq, "black")),
                c("vehType", Eq, "SUV"),
                c("speed", Gt, 45.0),
            ]),
        ),
        q(
            18,
            "EC",
            Predicate::And(vec![
                c("vehColor", Eq, "red"),
                c("fromI", Eq, "pt101"),
                c("toI", Eq, "pt400"),
                c("speed", Gt, 40.0),
            ]),
        ),
        q(
            19,
            "NRC",
            Predicate::And(vec![
                c("speed", Gt, 60.0),
                c("speed", Lt, 65.0),
                c("vehType", Eq, "sedan"),
                c("vehColor", Eq, "silver"),
            ]),
        ),
        q(
            20,
            "ECD",
            Predicate::And(vec![
                Predicate::or(c("vehType", Eq, "SUV"), c("vehType", Eq, "van")),
                c("vehColor", Eq, "white"),
                c("speed", Gt, 60.0),
                c("speed", Lt, 65.0),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficConfig;
    use pp_engine::exec::ExecutionContext;
    use pp_engine::Catalog;

    #[test]
    fn twenty_queries_with_clause_distribution() {
        let qs = traf20_queries();
        assert_eq!(qs.len(), 20);
        let mut by_count = [0usize; 5];
        for q in &qs {
            let n = q.clause_count().min(4);
            by_count[n] += 1;
        }
        assert_eq!(by_count[1], 5, "{by_count:?}");
        assert_eq!(by_count[2], 5, "{by_count:?}");
        assert_eq!(by_count[3], 5, "{by_count:?}");
        assert_eq!(by_count[4], 5, "{by_count:?}");
        // IDs unique 1..=20.
        let mut ids: Vec<u32> = qs.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn columns_are_minimal_and_ordered() {
        let qs = traf20_queries();
        let q7 = qs.iter().find(|q| q.id == 7).unwrap();
        assert_eq!(q7.columns(), vec!["speed"]);
        let q16 = qs.iter().find(|q| q.id == 16).unwrap();
        assert_eq!(q16.columns(), vec!["vehType", "vehColor", "fromI", "toI"]);
    }

    #[test]
    fn nop_plans_execute_and_match_ground_truth() {
        let d = TrafficDataset::generate(TrafficConfig {
            n_frames: 400,
            ..Default::default()
        });
        let mut cat = Catalog::new();
        d.register(&mut cat);
        let mut ctx = ExecutionContext::new(&cat);
        for q in traf20_queries() {
            let plan = q.nop_plan(&d);
            let out = ctx.run(&plan).unwrap();
            // Cross-check row count against ground truth evaluation.
            let truth: usize = (0..d.len())
                .filter(|&i| eval_truth(&q.predicate, &d, i))
                .count();
            assert_eq!(out.len(), truth, "Q{}", q.id);
            assert!(ctx.meter().cluster_seconds() > 0.0);
        }
    }

    fn eval_truth(p: &Predicate, d: &TrafficDataset, frame: usize) -> bool {
        match p {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Clause(c) => d.clause_truth(c, frame),
            Predicate::Not(p) => !eval_truth(p, d, frame),
            Predicate::And(ps) => ps.iter().all(|p| eval_truth(p, d, frame)),
            Predicate::Or(ps) => ps.iter().any(|p| eval_truth(p, d, frame)),
        }
    }

    #[test]
    fn selectivities_span_a_wide_range() {
        let d = TrafficDataset::generate(TrafficConfig {
            n_frames: 3_000,
            ..Default::default()
        });
        let mut sels: Vec<f64> = traf20_queries()
            .iter()
            .map(|q| {
                (0..d.len())
                    .filter(|&i| eval_truth(&q.predicate, &d, i))
                    .count() as f64
                    / d.len() as f64
            })
            .collect();
        sels.sort_by(f64::total_cmp);
        // Some very selective queries (< 2%) and some broad ones (> 25%).
        assert!(sels[0] < 0.02, "min {:?}", sels[0]);
        assert!(*sels.last().unwrap() > 0.25, "max {:?}", sels.last());
    }
}
