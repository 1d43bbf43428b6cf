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

use pp_data::traf20::TrafQuery;
use pp_data::traffic::TrafficDataset;
use pp_engine::logical::Placement;
use pp_engine::predicate::Predicate;
use pp_engine::LogicalPlan;

/// Builds the SortP plan for a TRAF query: its CNF groups in rank order
/// ([`LogicalPlan::rank_order`], the planner's ranker), with pass rates
/// measured on a ground-truth sample of `sample` frames, their UDFs in
/// the order the groups first need them and each group's select right
/// after the last UDF it reads ([`LogicalPlan::placed`]).
pub fn sortp_plan(dataset: &TrafficDataset, query: &TrafQuery, sample: usize) -> LogicalPlan {
    let Some((stages, groups)) = ranked_groups(dataset, query, sample) else {
        // Non-decomposable predicate: fall back to the NoP plan.
        return query.nop_plan(dataset);
    };
    LogicalPlan::placed(LogicalPlan::scan("traffic"), &stages, groups)
}

/// The query's UDFs and CNF groups (one predicate each), in rank order;
/// `None` when the predicate has no CNF within the cap. A group's pass
/// rate is the share of the sample's frames whose ground truth satisfies
/// it; the UDFs are declared in the order the CNF's groups first read
/// their columns, which is also the order when ranking gains nothing.
fn ranked_groups(dataset: &TrafficDataset, query: &TrafQuery, sample: usize) -> Option<Placement> {
    let cnf = query.predicate.to_cnf(64)?;
    let n = dataset.len().min(sample.max(1));
    let mut columns: Vec<&String> = Vec::new();
    for clause in cnf.iter().flatten() {
        if !columns.contains(&&clause.column) {
            columns.push(&clause.column);
        }
    }
    // A column no UDF makes is left for its select to reject, as in the
    // NoP plan.
    let stages: Vec<_> = columns.iter().filter_map(|c| dataset.udf(c)).collect();
    let groups: Vec<(Predicate, f64)> = (cnf.iter())
        .map(|clauses| {
            let passed = (0..n)
                .filter(|&i| clauses.iter().any(|c| dataset.clause_truth(c, i)))
                .count();
            let group = match clauses.as_slice() {
                [clause] => Predicate::Clause(clause.clone()),
                _ => Predicate::Or(clauses.iter().cloned().map(Predicate::Clause).collect()),
            };
            (group, passed as f64 / n as f64)
        })
        .collect();
    Some(
        LogicalPlan::rank_order(&stages, &groups)
            .unwrap_or_else(|| (stages, groups.into_iter().map(|(g, _)| g).collect())),
    )
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
            let (_, groups) = ranked_groups(&d, &q, 200).expect("TRAF-20 has a CNF");
            let mut plan = LogicalPlan::scan("traffic");
            let mut made: Vec<String> = Vec::new();
            for g in groups {
                for column in g.columns() {
                    if !made.contains(&column) {
                        plan = plan.process(d.udf(&column).expect("a UDF column"));
                        made.push(column);
                    }
                }
                plan = plan.select(g);
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
