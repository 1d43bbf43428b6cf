//! Figure 10: end-to-end TRAF-20 evaluation — speed-up in cluster
//! processing time relative to the unmodified plan (NoP).
//!
//! "Every scheme uses fewer resources than NoP ... SortP has a small
//! speed-up (average is 1.2×) ... With an accuracy target of 1.0, queries
//! receive an average speed-up of 1.4×. For a relaxed accuracy target of
//! 0.95, resource usage improvement ranges from 1.52× to 12.5× ... and the
//! average query in TRAF-20 speeds up by 3.2×."
//!
//! Also verifies the no-false-positive property: every row returned by a
//! PP plan is a row of the NoP plan, and the measured accuracy (fraction
//! of NoP output preserved) meets the target.

use pp_bench::setup::traffic_setup;
use pp_bench::table::{f2, speedup, Table};
use pp_data::traf20::traf20_queries;
use pp_engine::exec::ExecutionContext;

fn main() {
    let setup = traffic_setup(6_000, 1_500, 0xF16);
    println!(
        "PP corpus: {} PPs trained on {} frames in {:.1}s\n",
        setup.pp_catalog.len(),
        setup.train_frames,
        setup.train_seconds
    );
    let mut ctx = ExecutionContext::builder(&setup.catalog)
        .with_parallelism(4)
        .build();
    let queries = traf20_queries();
    let targets = [0.95, 0.98, 1.0];

    struct RowOut {
        id: u32,
        selectivity: f64,
        sortp: f64,
        pp: [f64; 3],
        acc: [f64; 3],
    }
    let mut rows: Vec<RowOut> = Vec::new();
    let mut sortp_speedups = Vec::new();
    let mut pp_speedups: Vec<Vec<f64>> = vec![Vec::new(); targets.len()];

    for q in &queries {
        let nop_plan = q.nop_plan(&setup.dataset);
        let nop_out = ctx.run(&nop_plan).expect("NoP execution");
        let nop_cost = ctx.meter().cluster_seconds();
        let input_rows = setup.catalog.table_rows("traffic").expect("registered");
        let selectivity = nop_out.len() as f64 / input_rows as f64;

        // SortP.
        let sortp_plan = pp_baselines::sortp::sortp_plan(&setup.dataset, q, 500);
        let sortp_out = ctx.run(&sortp_plan).expect("SortP execution");
        assert_eq!(sortp_out.len(), nop_out.len(), "SortP must be exact");
        let sortp_speedup = nop_cost / ctx.meter().cluster_seconds();
        sortp_speedups.push(sortp_speedup);

        // PP at each accuracy target.
        let mut pp = [0.0; 3];
        let mut acc = [0.0; 3];
        for (ti, &target) in targets.iter().enumerate() {
            let qo = setup.optimizer(target);
            let optimized = qo.optimize(&nop_plan, &setup.catalog).expect("QO");
            let out = ctx.run(&optimized.plan).expect("PP execution");
            // No false positives: PP output ⊆ NoP output.
            assert!(
                out.len() <= nop_out.len(),
                "Q{}: PP produced extra rows",
                q.id
            );
            pp[ti] = nop_cost / ctx.meter().cluster_seconds();
            acc[ti] = if nop_out.is_empty() {
                1.0
            } else {
                out.len() as f64 / nop_out.len() as f64
            };
            pp_speedups[ti].push(pp[ti]);
        }
        rows.push(RowOut {
            id: q.id,
            selectivity,
            sortp: sortp_speedup,
            pp,
            acc,
        });
    }

    // Rank by PP@0.95 speed-up, as in the figure.
    rows.sort_by(|a, b| a.pp[0].total_cmp(&b.pp[0]));
    let mut table = Table::new("Figure 10 — TRAF-20 cluster-time speed-up over NoP (ranked)")
        .headers([
            "query", "sel", "SortP", "PP a=.95", "PP a=.98", "PP a=1.0", "acc@.95", "acc@1.0",
        ]);
    for r in &rows {
        table.row([
            format!("Q{}", r.id),
            f2(r.selectivity),
            speedup(r.sortp),
            speedup(r.pp[0]),
            speedup(r.pp[1]),
            speedup(r.pp[2]),
            f2(r.acc[0]),
            f2(r.acc[2]),
        ]);
    }
    table.print();
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    println!(
        "averages: SortP {} | PP@0.95 {} | PP@0.98 {} | PP@1.0 {}",
        speedup(avg(&sortp_speedups)),
        speedup(avg(&pp_speedups[0])),
        speedup(avg(&pp_speedups[1])),
        speedup(avg(&pp_speedups[2])),
    );
    println!(
        "max PP@0.95 speed-up: {}",
        speedup(pp_speedups[0].iter().cloned().fold(f64::MIN, f64::max))
    );
    println!(
        "\nPaper (Fig 10): SortP ≈ 1.2x avg; PP@1.0 ≈ 1.4x avg; PP@0.95 ranges to 12.5x, avg 3.2x."
    );
}
