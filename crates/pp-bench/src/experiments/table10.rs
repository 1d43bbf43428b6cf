//! Table 10: the query optimizer in action — for example predicates, the
//! number of feasible PP combinations, the range of estimated reductions,
//! the picked plan, and alternates; repeated with a halved PP corpus.
//!
//! Paper: "for many queries, the QO has a meaningful choice to make ...
//! the combination picked by the QO can have multiple PPs even when the
//! predicate has only a single clause ... data reduction rates of the best
//! possible PP combination decrease but not substantially" when half the
//! corpus is dropped.

use pp_core::alloc::allocate;
use pp_core::combine::plan_cost_per_blob;
use pp_core::rewrite::rewrite;
use pp_engine::predicate::{Clause, CompareOp, Predicate};

use crate::setup::traffic_setup;
use crate::table::{f3, Table};
use crate::{least, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table10",
    paper: "Table 10",
    checks: &[
        "the full corpus offers 19 / 27 / 1594 feasible plans for the 1- / 2- / 4-clause \
         predicates",
        "deviation: the range predicate's picked plan is the lower boundary PP alone, not the \
         paper's two boundary PPs conjoined: a conjunction must certify each leaf above the \
         target",
        "halving the corpus collapses the choice space: no count grows and their sum falls \
         below a tenth",
        "the best estimated reduction survives halving for every predicate (within 0.005)",
    ],
    run,
};

fn example_predicates() -> Vec<(&'static str, Predicate)> {
    fn c(col: &str, op: CompareOp, v: impl Into<pp_engine::Value>) -> Predicate {
        Predicate::from(Clause::new(col, op, v))
    }
    vec![
        (
            "t IN (SUV, van)",
            Predicate::or(
                c("vehType", CompareOp::Eq, "SUV"),
                c("vehType", CompareOp::Eq, "van"),
            ),
        ),
        (
            "s > 60 AND s < 65",
            Predicate::and(
                c("speed", CompareOp::Gt, 60.0),
                c("speed", CompareOp::Lt, 65.0),
            ),
        ),
        (
            "s > 60 AND s < 65 AND c = white AND t IN (SUV, van)",
            Predicate::And(vec![
                c("speed", CompareOp::Gt, 60.0),
                c("speed", CompareOp::Lt, 65.0),
                c("vehColor", CompareOp::Eq, "white"),
                Predicate::or(
                    c("vehType", CompareOp::Eq, "SUV"),
                    c("vehType", CompareOp::Eq, "van"),
                ),
            ]),
        ),
    ]
}

fn run() -> Result<Report> {
    let setup = traffic_setup(4_000, 1_500, 0xF1A)?;
    let udf_cost = 0.05; // representative downstream UDF cost per blob
    let mut report = Report::default();
    // Per corpus, per predicate: (feasible plans, picked expr, its est. r).
    let mut picked: Vec<Vec<(u64, String, f64)>> = Vec::new();

    for (corpus_label, drop_half) in [("full corpus", false), ("half the PPs dropped", true)] {
        let mut catalog = setup.pp_catalog.clone();
        if drop_half {
            // Drop every other PP per the paper's "randomly dropped half"
            // (deterministic here: keep even-indexed entries).
            let dropped: std::collections::BTreeSet<String> = (catalog.all().iter().skip(1))
                .step_by(2)
                .map(|pp| pp.key().to_string())
                .collect();
            catalog.retain(|pp| !dropped.contains(pp.key()));
        }
        let mut table = Table::new(format!(
            "Table 10 — QO plan exploration ({corpus_label}, {} PPs)",
            catalog.len()
        ))
        .headers([
            "predicate",
            "# plans",
            "est. r range",
            "picked (est. r)",
            "alternates (est. r)",
        ]);
        let mut per_predicate = Vec::new();
        for (label, pred) in example_predicates() {
            let outcome = rewrite(&pred, &catalog, &setup.domains);
            let mut costed: Vec<(String, f64, f64)> = Vec::new(); // (expr, r, plan cost)
            for cand in &outcome.candidates {
                if let Ok(planned) = allocate(cand, 0.95, udf_cost) {
                    costed.push((
                        planned.expr().to_string(),
                        planned.estimate().reduction,
                        plan_cost_per_blob(&planned.estimate(), udf_cost),
                    ));
                }
            }
            costed.sort_by(|a, b| a.2.total_cmp(&b.2));
            let range = if costed.is_empty() {
                "-".to_string()
            } else {
                let rs = || costed.iter().map(|c| c.1);
                format!("{}–{}", f3(least(rs())), f3(most(rs())))
            };
            let show = |c: &(String, f64, f64)| format!("{} ({})", c.0, f3(c.1));
            table.row([
                label.to_string(),
                outcome.feasible_count.to_string(),
                range,
                costed.first().map_or("-".to_string(), show),
                costed
                    .iter()
                    .skip(1)
                    .take(2)
                    .map(show)
                    .collect::<Vec<_>>()
                    .join("; "),
            ]);
            let (expr, r) = costed
                .first()
                .map_or((String::new(), 0.0), |c| (c.0.clone(), c.1));
            per_predicate.push((outcome.feasible_count, expr, r));
        }
        report.table(&table);
        picked.push(per_predicate);
    }
    report.line("Paper (Table 10): 4 / 18 / 216 feasible plans on the full 32-PP corpus;");
    report.line("picked plans reach r = 0.42 / 0.79 / 0.77; halving the corpus shrinks the");
    report.line("plan count but best reductions drop only slightly (e.g. 0.42 → 0.40).");

    let (full, half) = (&picked[0], &picked[1]);
    let counts = |c: &[(u64, String, f64)]| c.iter().map(|p| p.0).collect::<Vec<_>>();
    report.check(
        counts(full) == [19, 27, 1594],
        format!("{:?}", counts(full)),
    );
    report.check(full[1].1 == "PP[speed >= 60]", full[1].1.clone());
    report.check(
        full.iter().zip(half).all(|(f, h)| h.0 <= f.0)
            && 10 * counts(half).iter().sum::<u64>() < counts(full).iter().sum(),
        format!("{:?} → {:?}", counts(full), counts(half)),
    );
    let drop = most(full.iter().zip(half).map(|(f, h)| f.2 - h.2));
    report.check(drop < 0.005, format!("largest drop {}", f3(drop)));
    Ok(report)
}
