//! Table 5: the latency to train and test PPs of different types, and the
//! optimality gap for different accuracy targets.
//!
//! "Optimality" = `avg_p( r_p(a] / (1 − s_p) )`: the fraction of
//! maximally-droppable blobs the PP actually drops. Paper values: 0.28 to
//! 0.55 at a = 1; much closer to optimal at a = 0.9.

use pp_linalg::stats::mean;
use pp_ml::pipeline::Pipeline;

use crate::setup::{approach_by_name, corpus, reductions, split601020};
use crate::table::{f3, secs, Table};
use crate::{most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table05",
    paper: "Table 5",
    checks: &[
        "the DNN costs at least 10× more to train per 1K rows than the SVM or the KDE",
        "the KDE is the costliest model to test, at least 3× the SVM and the DNN",
        "the optimality gap narrows at relaxed accuracy: every row is closer to optimal at \
         a = 0.9 than at a = 1",
        "deviation: every test time is under the paper's smallest, 1 ms per blob",
        "deviation: SVM ≪ KDE is not reproduced — FH+SVM and PCA+KDE train within 2× of \
         each other",
    ],
    run,
};

fn run() -> Result<Report> {
    let n = 4_000;
    let cats = 8;
    let mut table = Table::new("Table 5 — PP costs and optimality gap").headers([
        "dataset",
        "approach",
        "train (per 1K rows)",
        "test (per blob)",
        "optimality a=1",
        "optimality a=0.9",
    ]);
    // Per row: [train s / 1K rows, test s / blob, optimality a=1, a=0.9].
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for (ds, approach_name) in [
        ("UCF101", "PCA + KDE"),
        ("LSHTC", "FH + SVM"),
        ("COCO", "DNN"),
    ] {
        let c = corpus(ds, n, 0x7AB5)?;
        let approach = approach_by_name(approach_name)?;
        let mut cells: [Vec<f64>; 4] = Default::default();
        for cat in 0..cats.min(c.categories().len()) {
            let (train, val, _) = split601020(&c.labeled(cat), 0x7AB5 + cat as u64)?;
            let Ok(p) = Pipeline::train(&approach, &train, &val, 0x7AB5 + cat as u64) else {
                continue;
            };
            // Selectivity from the same validation set the reduction
            // curve is computed on, so optimality stays in [0, 1].
            let s_p = p.calibration().selectivity();
            if s_p >= 1.0 {
                continue;
            }
            let [r1, r90] = reductions(&p, [1.0, 0.9])?;
            cells[0].push(p.train_seconds() / train.len() as f64 * 1_000.0);
            cells[1].push(p.test_seconds_per_blob());
            cells[2].push(r1 / (1.0 - s_p));
            cells[3].push(r90 / (1.0 - s_p));
        }
        let row = cells.map(|c| mean(&c));
        table.row([
            ds.to_string(),
            approach_name.to_string(),
            secs(row[0]),
            secs(row[1]),
            f3(row[2]),
            f3(row[3]),
        ]);
        rows.push(row);
    }
    let mut report = Report::default();
    report.table(&table);
    report.line("Paper (Table 5): train 1–110s per 1K rows (SVM ≪ KDE ≪ DNN), test 1–10ms;");
    report.line("optimality 0.28–0.55 at a=1, 0.77–0.87 at a=0.9.");

    let (kde, svm, dnn) = (rows[0], rows[1], rows[2]);
    let trains = format!("{} / {} / {}", secs(svm[0]), secs(kde[0]), secs(dnn[0]));
    report.check(10.0 * svm[0].max(kde[0]) <= dnn[0], trains.clone());
    report.check(
        3.0 * svm[1].max(dnn[1]) <= kde[1],
        format!(
            "SVM {}, KDE {}, DNN {}",
            secs(svm[1]),
            secs(kde[1]),
            secs(dnn[1])
        ),
    );
    report.check(
        rows.iter().all(|r| r[3] > r[2]),
        rows.iter()
            .map(|r| format!("{} → {}", f3(r[2]), f3(r[3])))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let slowest = most(rows.iter().map(|r| r[1]));
    report.check(slowest < 1e-3, format!("slowest {}", secs(slowest)));
    report.check(svm[0].max(kde[0]) < 2.0 * svm[0].min(kde[0]), trains);
    Ok(report)
}
