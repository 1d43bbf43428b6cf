//! Table 9: training and inference overhead for deploying PPs in online
//! query processing, detailed for representative queries plus the TRAF-20
//! average.
//!
//! Columns mirror the paper: PP construction time (normalized to a
//! single-thread 15K-row corpus), number of PPs in the chosen plan, PP
//! inference cost per row, subsequent-UDF cost per row, predicate
//! selectivity, and the reduction in cluster processing time vs. NoP.

use pp_bench::setup::traffic_setup;
use pp_bench::table::{f2, secs, Table};
use pp_data::traf20::traf20_queries;
use pp_engine::exec::ExecutionContext;

fn main() {
    let setup = traffic_setup(6_000, 1_500, 0xF19);
    let qo = setup.optimizer(0.95);
    let mut ctx = ExecutionContext::builder(&setup.catalog)
        .with_parallelism(4)
        .build();
    let queries = traf20_queries();
    let detail_ids = [4u32, 8, 20];

    struct RowOut {
        construction_s: f64,
        n_pps: usize,
        pp_inference: f64,
        sub_udf: f64,
        selectivity: f64,
        reduction: f64,
        optimize_s: f64,
    }
    let mut rows: Vec<(u32, RowOut)> = Vec::new();
    for q in &queries {
        let nop_plan = q.nop_plan(&setup.dataset);
        let nop_out = ctx.run(&nop_plan).expect("NoP");
        let nop_cost = ctx.meter().cluster_seconds();
        let optimized = qo.optimize(&nop_plan, &setup.catalog).expect("QO");
        ctx.run(&optimized.plan).expect("PP plan");
        let n_pps = optimized
            .report
            .chosen
            .as_ref()
            .map_or(0, |c| c.leaf_accuracies.len());
        // Construction time of the PPs this query's plan uses, scaled to a
        // 15K-row training corpus as in the paper's table.
        let per_pp_train = setup.train_seconds / setup.pp_catalog.len().max(1) as f64;
        let scale_15k = 15_000.0 / setup.train_frames as f64;
        let input_rows = setup.catalog.table_rows("traffic").expect("registered");
        rows.push((
            q.id,
            RowOut {
                construction_s: per_pp_train * n_pps as f64 * scale_15k,
                n_pps,
                pp_inference: optimized
                    .report
                    .chosen
                    .as_ref()
                    .map_or(0.0, |c| c.estimate.cost),
                sub_udf: optimized.report.udf_cost_per_blob,
                selectivity: nop_out.len() as f64 / input_rows as f64,
                reduction: 1.0 - ctx.meter().cluster_seconds() / nop_cost,
                optimize_s: optimized.report.optimize_seconds,
            },
        ));
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
    for (id, r) in rows.iter().filter(|(id, _)| detail_ids.contains(id)) {
        table.row([
            format!("Q{id}"),
            secs(r.construction_s),
            r.n_pps.to_string(),
            secs(r.pp_inference),
            secs(r.sub_udf),
            f2(r.selectivity),
            format!("{}%", f2(r.reduction * 100.0)),
            secs(r.optimize_s),
        ]);
    }
    let mean = |f: &dyn Fn(&RowOut) -> f64| {
        rows.iter().map(|(_, r)| f(r)).sum::<f64>() / rows.len() as f64
    };
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
    table.print();
    println!("Paper (Table 9): construction 27–155s per query's PPs (15K rows), 1–4 PPs,");
    println!("inference 2–12ms/row vs UDFs 23–85ms/row, avg reduction 59% of cluster time,");
    println!("QO translation 80–100ms.");
}
