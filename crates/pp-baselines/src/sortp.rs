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

/// Builds the SortP plan for a TRAF query: its CNF groups in rank order,
/// estimated on a ground-truth sample of `sample` frames, with their UDFs
/// in the order the groups first need them and each group's select right
/// after the last UDF it reads ([`LogicalPlan::placed`]).
pub fn sortp_plan(dataset: &TrafficDataset, query: &TrafQuery, sample: usize) -> LogicalPlan {
    let Some(groups) = rank_order(dataset, query, sample) else {
        // Non-decomposable predicate: fall back to the NoP plan.
        return query.nop_plan(dataset);
    };
    let mut columns: Vec<&String> = Vec::new();
    for column in groups.iter().flat_map(|g| &g.columns) {
        if !columns.contains(&column) {
            columns.push(column);
        }
    }
    // A column no UDF makes is left for its select to reject, as in the
    // NoP plan.
    let stages: Vec<_> = columns.iter().filter_map(|c| dataset.udf(c)).collect();
    let conjuncts = groups
        .into_iter()
        .map(|g| match <[Clause; 1]>::try_from(g.clauses) {
            Ok([clause]) => Predicate::Clause(clause),
            Err(clauses) => Predicate::Or(clauses.into_iter().map(Predicate::Clause).collect()),
        });
    LogicalPlan::placed("traffic", &stages, conjuncts)
}

/// One CNF group: its clauses, the columns they read, and its pass rate
/// on the sample.
struct Group {
    clauses: Vec<Clause>,
    columns: BTreeSet<String>,
    pass_rate: f64,
}

/// The query's CNF groups in rank order, `None` when the predicate has no
/// CNF within the cap. The rank is the cost of the columns a group adds
/// divided by its drop rate, so a group that is cheap to materialize and
/// drops many rows runs first; it is chosen greedily because a group's
/// added cost depends on the columns earlier groups already need.
fn rank_order(dataset: &TrafficDataset, query: &TrafQuery, sample: usize) -> Option<Vec<Group>> {
    let cnf = query.predicate.to_cnf(64)?;
    let n = dataset.len().min(sample.max(1));
    let mut remaining: Vec<Group> = cnf
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
    let udf_cost = |col: &str| -> f64 {
        dataset
            .udf(col)
            .map(|u| u.cost_per_row())
            .unwrap_or(f64::INFINITY)
    };
    let mut ordered: Vec<Group> = Vec::with_capacity(remaining.len());
    loop {
        let rank = |g: &Group| {
            let needed = |c: &String| ordered.iter().any(|o| o.columns.contains(c));
            let new_cost: f64 = (g.columns.iter())
                .filter(|c| !needed(c))
                .map(|c| udf_cost(c))
                .sum();
            new_cost / (1.0 - g.pass_rate).max(1e-9)
        };
        let next = (remaining.iter().enumerate())
            .min_by(|(_, a), (_, b)| rank(a).total_cmp(&rank(b)))
            .map(|(pos, _)| pos);
        match next {
            Some(pos) => ordered.push(remaining.remove(pos)),
            None => return Some(ordered),
        }
    }
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
    fn placement_is_the_interleaved_rank_order() {
        // Per group in rank order: the UDFs of the columns no earlier group
        // needs, then the group's select. The rank makes a group whose
        // columns are all made cost nothing, so it runs before any group
        // that needs a new UDF, and placement yields this same plan.
        let (d, _) = setup();
        for q in traf20_queries() {
            let groups = rank_order(&d, &q, 200).expect("TRAF-20 has a CNF");
            let mut plan = LogicalPlan::scan("traffic");
            let mut made: Vec<&String> = Vec::new();
            for g in &groups {
                for column in &g.columns {
                    if !made.contains(&column) {
                        made.push(column);
                        plan = plan.process(d.udf(column).expect("a UDF column"));
                    }
                }
                let clauses = g.clauses.iter().cloned().map(Predicate::Clause);
                plan = plan.select(match g.clauses.len() {
                    1 => Predicate::Clause(g.clauses[0].clone()),
                    _ => Predicate::Or(clauses.collect()),
                });
            }
            assert_eq!(
                sortp_plan(&d, &q, 200).explain(),
                plan.explain(),
                "Q{}",
                q.id
            );
        }
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
