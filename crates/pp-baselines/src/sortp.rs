//! SortP: rank-ordered execution of predicates and their generating UDFs
//! (Deshpande et al. \[17\] / Babu et al. \[7\], as configured in §8.2).
//!
//! The query predicate is decomposed into CNF groups; each group needs
//! some subset of the ML UDFs. Groups are ordered by the classic rank
//! `cost / drop-rate`: a group that is cheap to materialize and drops many
//! rows runs first, so later (expensive) UDFs see fewer rows. Unlike PPs,
//! every surviving row still pays every UDF eventually — SortP "still
//! require\[s\] predicate columns to be available on the inputs", which is
//! why its speed-ups are modest (average 1.2× in Figure 10).

use std::collections::BTreeSet;

use pp_data::traf20::TrafQuery;
use pp_data::traffic::TrafficDataset;
use pp_engine::predicate::{Clause, Predicate};
use pp_engine::LogicalPlan;

/// Builds the SortP plan for a TRAF query: interleaved UDF/select stages
/// in rank order, estimated on a ground-truth sample of `sample` frames.
pub fn sortp_plan(dataset: &TrafficDataset, query: &TrafQuery, sample: usize) -> LogicalPlan {
    let Some(cnf) = query.predicate.to_cnf(64) else {
        // Non-decomposable predicate: fall back to the NoP plan.
        return query.nop_plan(dataset);
    };
    let n = dataset.len().min(sample.max(1));
    // Per CNF group: needed columns, UDF cost of the *new* columns, and
    // pass rate on the sample.
    struct Group {
        clauses: Vec<Clause>,
        columns: BTreeSet<String>,
        pass_rate: f64,
    }
    let groups: Vec<Group> = cnf
        .into_iter()
        .map(|clauses| {
            let columns: BTreeSet<String> = clauses.iter().map(|c| c.column.clone()).collect();
            let passed = (0..n)
                .filter(|&i| clauses.iter().any(|c| dataset.clause_truth(c, i)))
                .count();
            Group {
                clauses,
                columns,
                pass_rate: passed as f64 / n as f64,
            }
        })
        .collect();

    // Rank order: cost of newly materialized columns divided by drop rate.
    // Computed greedily because a group's marginal cost depends on which
    // columns earlier groups already materialized.
    let udf_cost = |col: &str| -> f64 {
        dataset
            .udf(col)
            .map(|u| u.cost_per_row())
            .unwrap_or(f64::INFINITY)
    };
    let mut remaining: Vec<usize> = (0..groups.len()).collect();
    let mut materialized: BTreeSet<String> = BTreeSet::new();
    let mut plan = LogicalPlan::scan("traffic");
    while let Some((pos, &gi)) = remaining.iter().enumerate().min_by(|(_, &a), (_, &b)| {
        let rank = |g: &Group| {
            let new_cost: f64 = g
                .columns
                .iter()
                .filter(|c| !materialized.contains(*c))
                .map(|c| udf_cost(c))
                .sum();
            let drop = (1.0 - g.pass_rate).max(1e-9);
            new_cost / drop
        };
        rank(&groups[a]).total_cmp(&rank(&groups[b]))
    }) {
        remaining.remove(pos);
        let group = &groups[gi];
        for col in &group.columns {
            // A column no UDF makes is left for the select to reject, as
            // in the NoP plan.
            if materialized.insert(col.clone()) {
                if let Some(udf) = dataset.udf(col) {
                    plan = plan.process(udf);
                }
            }
        }
        let pred = if group.clauses.len() == 1 {
            Predicate::Clause(group.clauses[0].clone())
        } else {
            Predicate::Or(
                group
                    .clauses
                    .iter()
                    .cloned()
                    .map(Predicate::Clause)
                    .collect(),
            )
        };
        plan = plan.select(pred);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::traf20::traf20_queries;
    use pp_data::traffic::TrafficConfig;
    use pp_engine::exec::ExecutionContext;
    use pp_engine::Catalog;

    fn setup() -> (TrafficDataset, Catalog) {
        let d = TrafficDataset::generate(TrafficConfig {
            n_frames: 600,
            ..Default::default()
        });
        let mut cat = Catalog::new();
        d.register(&mut cat);
        (d, cat)
    }

    #[test]
    fn sortp_matches_nop_results_on_all_queries() {
        let (d, cat) = setup();
        let mut ctx = ExecutionContext::new(&cat);
        for q in traf20_queries() {
            let nop = ctx.run(&q.nop_plan(&d)).unwrap();
            let sorted = ctx.run(&sortp_plan(&d, &q, 200)).unwrap();
            assert_eq!(nop.len(), sorted.len(), "Q{}", q.id);
        }
    }

    #[test]
    fn sortp_never_costs_more_than_nop_on_multi_udf_queries() {
        let (d, cat) = setup();
        let mut ctx = ExecutionContext::new(&cat);
        for q in traf20_queries() {
            if q.columns().len() < 2 {
                continue;
            }
            ctx.run(&q.nop_plan(&d)).unwrap();
            let m1 = ctx.meter().clone();
            ctx.run(&sortp_plan(&d, &q, 200)).unwrap();
            let m2 = ctx.meter().clone();
            assert!(
                m2.cluster_seconds() <= m1.cluster_seconds() * 1.001,
                "Q{}: sortp {} vs nop {}",
                q.id,
                m2.cluster_seconds(),
                m1.cluster_seconds()
            );
        }
    }

    #[test]
    fn sortp_improves_some_query() {
        let (d, cat) = setup();
        let mut ctx = ExecutionContext::new(&cat);
        let mut improved = 0usize;
        for q in traf20_queries() {
            if q.columns().len() < 2 {
                continue;
            }
            ctx.run(&q.nop_plan(&d)).unwrap();
            let nop_secs = ctx.meter().cluster_seconds();
            ctx.run(&sortp_plan(&d, &q, 200)).unwrap();
            if ctx.meter().cluster_seconds() < 0.95 * nop_secs {
                improved += 1;
            }
        }
        assert!(improved >= 3, "only {improved} queries improved");
    }

    #[test]
    fn single_clause_query_is_plain() {
        let (d, _) = setup();
        let q = traf20_queries().into_iter().find(|q| q.id == 1).unwrap();
        let plan = sortp_plan(&d, &q, 100);
        let text = plan.explain();
        assert!(text.contains("VehTypeClassifier"));
        assert!(text.contains("Select"));
    }
}
