//! Figure 10: end-to-end TRAF-20 evaluation — speed-up in cluster
//! processing time relative to the unmodified plan (NoP), for SortP and for
//! PP plans at three accuracy targets, with the accuracy each PP plan
//! achieved (the fraction of NoP's output it preserved). Beside SortP,
//! PP+placement is the a = 0.95 PP plan optimized over the placed plan,
//! where each conjunct runs right after the last UDF it reads, as a served
//! plan does.
//!
//! "Every scheme uses fewer resources than NoP ... SortP has a small
//! speed-up (average is 1.2×) ... With an accuracy target of 1.0, queries
//! receive an average speed-up of 1.4×. For a relaxed accuracy target of
//! 0.95, resource usage improvement ranges from 1.52× to 12.5× ... and the
//! average query in TRAF-20 speeds up by 3.2×."

use std::collections::HashSet;

use pp_data::traf20::traf20_queries;
use pp_engine::exec::ExecutionContext;
use pp_engine::row::Rowset;

use crate::setup::traffic_setup;
use crate::table::{f2, f3, speedup, Table};
use crate::{least, mean_of, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "fig10",
    paper: "Fig 10",
    checks: &[
        "no scheme's cluster time exceeds NoP's on any query (to 0.1 %: SortP's reordered \
         selects are not free)",
        "average speed-up: SortP < PP@0.95 and PP@1.0 ≤ PP@0.98 ≤ PP@0.95",
        "speed-up grows as selectivity falls: the ten least selective queries average more \
         PP@0.95 speed-up than the ten most selective",
        "SortP returns exactly NoP's frames and every PP plan a subset of them",
        "deviation: PP@1.0 is NoP's plan on every query (1×, the paper's 1.4×): no finite \
         validation sample certifies full recall",
        "the accuracy contract holds at a = 0.95 on at least 19 of 20 queries, and no query \
         returns less than 0.9 of NoP's output",
        "PP+placement costs no more than PP@0.95 on any query (to 0.1 %: its extra selects \
         are not free) and returns exactly PP@0.95's frames",
    ],
    run,
};

const TARGETS: [f64; 3] = [0.95, 0.98, 1.0];

struct QueryRow {
    id: u32,
    selectivity: f64,
    /// Speed-up over NoP: SortP, then PP at each of `TARGETS`.
    speedup: [f64; 4],
    /// Speed-up over NoP of PP+placement.
    placed: f64,
    /// Achieved accuracy of the PP plan at each of `TARGETS`.
    acc: [f64; 3],
}

/// The frame ids of a TRAF result (column 1 of every TRAF-20 output).
fn frames(out: &Rowset) -> Result<HashSet<i64>> {
    let ids = out.row_refs().map(|row| Ok(row.get(1).as_int()?));
    ids.collect()
}

fn run() -> Result<Report> {
    let mut report = Report::default();
    let setup = traffic_setup(6_000, 1_500, 0xF16)?;
    report.line(format!(
        "PP corpus: {} PPs trained on {} frames in {:.1}s\n",
        setup.pp_catalog.len(),
        setup.train_frames,
        setup.train_seconds
    ));
    let mut ctx = ExecutionContext::builder(&setup.catalog)
        .with_parallelism(4)
        .build();
    let input_rows = setup.catalog.table_rows("traffic")?;

    let mut rows: Vec<QueryRow> = Vec::new();
    let mut wrong_frames = 0usize;
    let mut placed_differs = 0usize;
    for q in &traf20_queries() {
        let nop_plan = q.nop_plan(&setup.dataset);
        let nop_out = ctx.run(&nop_plan)?;
        let nop_cost = ctx.meter().cluster_seconds();
        let nop_frames = frames(&nop_out)?;

        let sortp_plan = pp_baselines::sortp::sortp_plan(&setup.dataset, q, 500);
        wrong_frames += usize::from(frames(&ctx.run(&sortp_plan)?)? != nop_frames);
        let mut speedup = [nop_cost / ctx.meter().cluster_seconds(), 0.0, 0.0, 0.0];
        let mut acc = [1.0; 3];
        let mut pp95_frames = HashSet::new();
        for (ti, &target) in TARGETS.iter().enumerate() {
            let qo = setup.optimizer(target);
            let out = ctx.run(&qo.optimize(&nop_plan, &setup.catalog)?.plan)?;
            let out_frames = frames(&out)?;
            wrong_frames += usize::from(!out_frames.is_subset(&nop_frames));
            speedup[ti + 1] = nop_cost / ctx.meter().cluster_seconds();
            if !nop_out.is_empty() {
                acc[ti] = out.len() as f64 / nop_out.len() as f64;
            }
            if ti == 0 {
                pp95_frames = out_frames;
            }
        }
        let placed_plan = (setup.optimizer(TARGETS[0]))
            .optimize(&q.placed_plan(&setup.dataset), &setup.catalog)?
            .plan;
        placed_differs += usize::from(frames(&ctx.run(&placed_plan)?)? != pp95_frames);
        rows.push(QueryRow {
            id: q.id,
            selectivity: nop_out.len() as f64 / input_rows as f64,
            speedup,
            placed: nop_cost / ctx.meter().cluster_seconds(),
            acc,
        });
    }

    // Rank by PP@0.95 speed-up, as in the figure.
    rows.sort_by(|a, b| a.speedup[1].total_cmp(&b.speedup[1]));
    let mut table = Table::new("Figure 10 — TRAF-20 cluster-time speed-up over NoP (ranked)")
        .headers([
            "query",
            "sel",
            "SortP",
            "PP+placement",
            "PP a=.95",
            "PP a=.98",
            "PP a=1.0",
            "acc@.95",
            "acc@1.0",
        ]);
    for r in &rows {
        let [sortp, pp95, pp98, pp100] = r.speedup.map(speedup);
        let cells = [
            f2(r.selectivity),
            sortp,
            speedup(r.placed),
            pp95,
            pp98,
            pp100,
            f2(r.acc[0]),
            f2(r.acc[2]),
        ];
        table.row(std::iter::once(format!("Q{}", r.id)).chain(cells));
    }
    report.table(&table);
    let avg = [0, 1, 2, 3].map(|i| mean_of(&rows, |r| r.speedup[i]));
    let [sortp, pp95, pp98, pp100] = avg.map(speedup);
    let placed = speedup(mean_of(&rows, |r| r.placed));
    report.line(format!(
        "averages: SortP {sortp} | PP+placement {placed} | PP@0.95 {pp95} | PP@0.98 {pp98} | \
         PP@1.0 {pp100}"
    ));
    let max95 = most(rows.iter().map(|r| r.speedup[1]));
    report.line(format!("max PP@0.95 speed-up: {}", speedup(max95)));
    report.line(
        "\nPaper (Fig 10): SortP ≈ 1.2x avg; PP@1.0 ≈ 1.4x avg; PP@0.95 ranges to 12.5x, avg 3.2x.",
    );

    let slowest = least(rows.iter().flat_map(|r| r.speedup));
    report.check(
        slowest >= 1.0 - 1e-3,
        format!("smallest speed-up {slowest:.6}x"),
    );
    report.check(
        avg[0] < avg[1] && avg[3] <= avg[2] && avg[2] <= avg[1],
        format!("{sortp} < {pp95}; {pp100} ≤ {pp98} ≤ {pp95}"),
    );
    rows.sort_by(|a, b| a.selectivity.total_cmp(&b.selectivity));
    let (rare, common) = rows.split_at(rows.len() / 2);
    let (rare, common) = (
        mean_of(rare, |r| r.speedup[1]),
        mean_of(common, |r| r.speedup[1]),
    );
    report.check(
        rare > common,
        format!("{} against {}", speedup(rare), speedup(common)),
    );
    report.check(
        wrong_frames == 0,
        format!("{wrong_frames} of 80 results differ"),
    );
    let fastest100 = most(rows.iter().map(|r| r.speedup[3]));
    let slowest100 = least(rows.iter().map(|r| r.speedup[3]));
    report.check(
        (fastest100 - 1.0).abs() < 1e-9 && (slowest100 - 1.0).abs() < 1e-9,
        format!("{}–{}", speedup(slowest100), speedup(fastest100)),
    );
    let under = rows.iter().filter(|r| r.acc[0] < TARGETS[0]).count();
    let worst = least(rows.iter().map(|r| r.acc[0]));
    report.check(
        under <= 1 && worst >= 0.9,
        format!(
            "{under} of {} under target, worst {}",
            rows.len(),
            f3(worst)
        ),
    );
    // Cost ratio PP+placement / PP@0.95 is the inverse of the speed-up ratio.
    let worst_placed = most(rows.iter().map(|r| r.speedup[1] / r.placed));
    report.check(
        worst_placed <= 1.0 + 1e-3 && placed_differs == 0,
        format!(
            "costliest at {worst_placed:.6}× PP@0.95's cluster time; {placed_differs} of {} \
             results differ",
            rows.len()
        ),
    );
    Ok(report)
}
