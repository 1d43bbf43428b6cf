//! Table 8: normalized average query latency (including PP training and
//! inference overhead) on TRAF-20 with different input sizes.
//!
//! Paper: NoP at {33, 67, 100} GB normalizes to {0.37, 0.69, 1}; PP at
//! a = 0.95 reaches {0.22, 0.39, 0.61} — latency grows with input size for
//! both, with PP at ~60% of NoP throughout. We scale in frames instead of
//! GB (three proportional input sizes).

use pp_data::traf20::traf20_queries;
use pp_engine::exec::ExecutionContext;
use pp_engine::LogicalPlan;

use crate::setup::traffic_setup;
use crate::table::{f2, Table};
use crate::{least, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table08",
    paper: "Table 8",
    checks: &[
        "latency grows linearly with input for NoP and PP: at 1/3 and 2/3 of the frames each \
         is within 0.05 of 1/3 and 2/3 of its full-size latency",
        "the PP/NoP latency ratio, all overheads included, is scale-independent: its spread \
         over the three sizes is under 0.05",
        "deviation: the ratio is below the paper's 0.6 at every size",
    ],
    run,
};

const SCALES: [usize; 3] = [2_000, 4_000, 6_000];

fn run() -> Result<Report> {
    let train_frames = 1_500;
    let queries = traf20_queries();

    // The PP corpus is trained once per scale on the same leading frames
    // (the online setting); its cost is amortized over the 20 queries.
    let mut nop_latency = [0.0; 3];
    let mut pp_latency = [0.0; 3];
    for (si, &scale) in SCALES.iter().enumerate() {
        let setup = traffic_setup(train_frames + scale, train_frames, 0xF18)?;
        let qo = setup.optimizer(0.95);
        let mut ctx = ExecutionContext::builder(&setup.catalog)
            .with_parallelism(4)
            .build();
        let mut latency = |plan: &LogicalPlan| -> Result<f64> {
            ctx.run(plan)?;
            Ok(ctx.meter().latency_seconds())
        };
        for q in &queries {
            let nop_plan = q.nop_plan(&setup.dataset);
            nop_latency[si] += latency(&nop_plan)?;
            let optimized = qo.optimize(&nop_plan, &setup.catalog)?;
            // PP latency includes the optimizer's planning time and the
            // (amortized) PP-corpus training overhead.
            pp_latency[si] += latency(&optimized.plan)?
                + optimized.report.optimize_seconds
                + setup.train_seconds / queries.len() as f64;
        }
        nop_latency[si] /= queries.len() as f64;
        pp_latency[si] /= queries.len() as f64;
    }

    let norm = nop_latency[2];
    let mut table = Table::new("Table 8 — normalized average query latency (TRAF-20)").headers(
        std::iter::once("system".to_string()).chain(SCALES.map(|s| format!("{s} frames"))),
    );
    for (system, latency) in [("NoP", nop_latency), ("PP (a=0.95)", pp_latency)] {
        table.row(std::iter::once(system.to_string()).chain(latency.map(|l| f2(l / norm))));
    }
    let ratio = [0, 1, 2].map(|i| pp_latency[i] / nop_latency[i]);
    let mut report = Report::default();
    report.table(&table);
    report.line(format!(
        "PP/NoP latency ratio per scale: {} {} {}",
        f2(ratio[0]),
        f2(ratio[1]),
        f2(ratio[2]),
    ));
    report.line("\nPaper (Table 8): NoP 0.37 / 0.69 / 1; PP 0.22 / 0.39 / 0.61 — PP latency");
    report.line("≈ 60% of NoP at every scale, improvements holding as input grows.");

    let shares = [nop_latency, pp_latency].map(|l| [l[0] / l[2], l[1] / l[2]]);
    report.check(
        shares
            .iter()
            .all(|s| (s[0] - 1.0 / 3.0).abs() < 0.05 && (s[1] - 2.0 / 3.0).abs() < 0.05),
        format!(
            "NoP {} / {}, PP {} / {}",
            f2(shares[0][0]),
            f2(shares[0][1]),
            f2(shares[1][0]),
            f2(shares[1][1])
        ),
    );
    let (lo, hi) = (least(ratio), most(ratio));
    report.check(hi - lo < 0.05, format!("{}–{}", f2(lo), f2(hi)));
    report.check(hi < 0.6, format!("largest {}", f2(hi)));
    Ok(report)
}
