//! Table 9: training and inference overhead for deploying PPs in online
//! query processing, detailed for representative queries plus the TRAF-20
//! average.
//!
//! Columns mirror the paper: PP construction time (normalized to a
//! single-thread 15K-row corpus), number of PPs in the chosen plan, PP
//! inference cost per row, subsequent-UDF cost per row, predicate
//! selectivity, and the reduction in cluster processing time vs. NoP.

use pp_data::traf20::traf20_queries;
use pp_engine::exec::ExecutionContext;

use crate::setup::traffic_setup;
use crate::table::{f2, secs, Table};
use crate::{mean_of, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table09",
    paper: "Table 9",
    checks: &[
        "every chosen plan uses 1–4 PPs",
        "PP inference costs less per row than the UDFs it bypasses on every query, and at \
         least 10× less on average",
        "average cluster-time reduction is at least the paper's 59 %",
        "construction amortizes within one run: each query's PPs (15K-row corpus) cost less \
         to build than the cluster time one execution saves",
        "QO time is negligible: under a thousandth of the cluster time its plan saves, on \
         every query",
    ],
    run,
};

struct QueryRow {
    id: u32,
    construction_s: f64,
    n_pps: usize,
    pp_inference: f64,
    sub_udf: f64,
    selectivity: f64,
    reduction: f64,
    saved_s: f64,
    optimize_s: f64,
}

fn run() -> Result<Report> {
    let setup = traffic_setup(6_000, 1_500, 0xF19)?;
    let qo = setup.optimizer(0.95);
    let mut ctx = ExecutionContext::builder(&setup.catalog)
        .with_parallelism(4)
        .build();
    let detail_ids = [4u32, 8, 20];
    let input_rows = setup.catalog.table_rows("traffic")?;
    // Construction time of the PPs a plan uses, scaled to a 15K-row
    // training corpus as in the paper's table.
    let per_pp_train = setup.train_seconds / setup.pp_catalog.len().max(1) as f64;
    let scale_15k = 15_000.0 / setup.train_frames as f64;

    let mut rows: Vec<QueryRow> = Vec::new();
    for q in &traf20_queries() {
        let nop_plan = q.nop_plan(&setup.dataset);
        let nop_out = ctx.run(&nop_plan)?;
        let nop_cost = ctx.meter().cluster_seconds();
        let optimized = qo.optimize(&nop_plan, &setup.catalog)?;
        ctx.run(&optimized.plan)?;
        let pp_cost = ctx.meter().cluster_seconds();
        let chosen = optimized.report.chosen.as_ref();
        let n_pps = chosen.map_or(0, |c| c.leaf_accuracies.len());
        rows.push(QueryRow {
            id: q.id,
            construction_s: per_pp_train * n_pps as f64 * scale_15k,
            n_pps,
            pp_inference: chosen.map_or(0.0, |c| c.estimate.cost),
            sub_udf: optimized.report.udf_cost_per_blob,
            selectivity: nop_out.len() as f64 / input_rows as f64,
            reduction: 1.0 - pp_cost / nop_cost,
            saved_s: nop_cost - pp_cost,
            optimize_s: optimized.report.optimize_seconds,
        });
    }

    let mut table = Table::new("Table 9 — PP deployment overhead (a = 0.95)").headers([
        "query",
        "PP cons. (15K rows)",
        "#PPs",
        "PP inf./row",
        "Sub.UDF/row",
        "selectivity",
        "reduction",
        "QO time",
    ]);
    for r in rows.iter().filter(|r| detail_ids.contains(&r.id)) {
        table.row([
            format!("Q{}", r.id),
            secs(r.construction_s),
            r.n_pps.to_string(),
            secs(r.pp_inference),
            secs(r.sub_udf),
            f2(r.selectivity),
            format!("{}%", f2(r.reduction * 100.0)),
            secs(r.optimize_s),
        ]);
    }
    let mean = |f: &dyn Fn(&QueryRow) -> f64| mean_of(&rows, f);
    table.row([
        "Avg.".to_string(),
        secs(mean(&|r| r.construction_s)),
        format!("{:.1}", mean(&|r| r.n_pps as f64)),
        secs(mean(&|r| r.pp_inference)),
        secs(mean(&|r| r.sub_udf)),
        f2(mean(&|r| r.selectivity)),
        format!("{}%", f2(mean(&|r| r.reduction) * 100.0)),
        secs(mean(&|r| r.optimize_s)),
    ]);
    let mut report = Report::default();
    report.table(&table);
    report.line("Paper (Table 9): construction 27–155s per query's PPs (15K rows), 1–4 PPs,");
    report.line("inference 2–12ms/row vs UDFs 23–85ms/row, avg reduction 59% of cluster time,");
    report.line("QO translation 80–100ms.");

    let pps = rows.iter().map(|r| r.n_pps);
    let (fewest, largest) = (pps.clone().min().unwrap_or(0), pps.max().unwrap_or(0));
    report.check(
        fewest >= 1 && largest <= 4,
        format!("{fewest}–{largest} PPs"),
    );
    let cheaper = rows.iter().filter(|r| r.pp_inference < r.sub_udf).count();
    let times = mean(&|r| r.sub_udf) / mean(&|r| r.pp_inference);
    report.check(
        cheaper == rows.len() && times >= 10.0,
        format!(
            "{cheaper} of {} queries, {times:.1}× on average",
            rows.len()
        ),
    );
    let reduction = mean(&|r| r.reduction);
    report.check(reduction >= 0.59, format!("{}%", f2(reduction * 100.0)));
    let construction = most(rows.iter().map(|r| r.construction_s / r.saved_s));
    report.check(
        construction < 1.0,
        format!("at most {construction:.1e} of one run's saving"),
    );
    let planning = most(rows.iter().map(|r| r.optimize_s / r.saved_s));
    report.check(
        planning < 1e-3,
        format!("at most {planning:.1e} of the saving"),
    );
    Ok(report)
}
