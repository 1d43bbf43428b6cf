//! Figure 9: whisker plots of PP data-reduction rates across datasets.
//!
//! "With a strict accuracy target a = 1, the PPs already achieve
//! substantial data reduction. Half of the PPs on UCF101 filter more than
//! 50% of the input. ... a small trade-off in accuracy leads to much
//! larger improvements in the reduction rates."
//!
//! For each corpus we train the Figure 9 technique (FH+SVM for LSHTC,
//! PCA+KDE for SUNAttribute/UCF101, DNN for COCO/ImageNet) on every
//! category and summarize the validation reduction `r(a]` at
//! a ∈ {1.0, 0.99, 0.9} as min / p25 / p50 / p75 / max / mean.

use pp_linalg::stats::Whisker;

use crate::setup::{corpus, paper_approach, reductions, train_category};
use crate::table::{f3, Table};
use crate::{Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "fig09",
    paper: "Fig 9",
    checks: &[
        "no PP's r(a] falls as a relaxes 1.0 → 0.99 → 0.9",
        "UCF101 median r(1.0] > 0.5",
        "relaxing a from 1.0 to 0.9 buys ≥ 0.2 mean reduction on LSHTC and COCO",
        "deviation: ImageNet is nearly flat, mean r(0.9] − r(1.0] < 0.05",
        "deviation: r(0.99] = r(1.0] for at least a quarter of the PPs (⌈a·m⌉ quantizes)",
    ],
    run,
};

const ACCURACIES: [f64; 3] = [1.0, 0.99, 0.9];

fn run() -> Result<Report> {
    let datasets = ["LSHTC", "SUNAttribute", "COCO", "ImageNet", "UCF101"];
    let n = 5_000;
    let mut table = Table::new("Figure 9 — data reduction r(a] across datasets").headers([
        "dataset",
        "technique",
        "a",
        "min",
        "p25",
        "p50",
        "p75",
        "max",
        "mean",
        "#PPs",
    ]);
    // Per dataset, per trained PP: r at each accuracy.
    let mut all: Vec<Vec<[f64; 3]>> = Vec::new();
    for name in datasets {
        let c = corpus(name, n, 0xF19)?;
        let approach = paper_approach(name)?;
        let mut pps: Vec<[f64; 3]> = Vec::new();
        for cat in 0..c.categories().len().min(10) {
            if let Some(pipeline) = train_category(&c, cat, &approach, 0x916 + cat as u64)? {
                pps.push(reductions(&pipeline, ACCURACIES)?);
            }
        }
        for (ai, a) in ACCURACIES.iter().enumerate() {
            let w =
                Whisker::of(&column(&pps, ai)).ok_or_else(|| format!("{name}: no PP trained"))?;
            table.row([
                name.to_string(),
                approach.name(),
                format!("{a}"),
                f3(w.min),
                f3(w.p25),
                f3(w.p50),
                f3(w.p75),
                f3(w.max),
                f3(w.mean),
                pps.len().to_string(),
            ]);
        }
        all.push(pps);
    }
    let mut report = Report::default();
    report.table(&table);
    report.line("Paper (Fig 9): reductions grow as a relaxes; UCF101 median > 0.5 at a = 1;");
    report.line("1% accuracy trade-off buys ~20% extra reduction on COCO/ImageNet/LSHTC.");

    let mean = |d: usize, ai: usize| pp_linalg::stats::mean(&column(&all[d], ai));
    let total = all.iter().map(Vec::len).sum::<usize>();
    let falling = all
        .iter()
        .flatten()
        .filter(|r| r[0] > r[1] || r[1] > r[2])
        .count();
    report.check(falling == 0, format!("{falling} of {total} PPs fall"));
    let ucf_median = Whisker::of(&column(&all[4], 0)).map_or(f64::NAN, |w| w.p50);
    report.check(ucf_median > 0.5, format!("median {}", f3(ucf_median)));
    let (lshtc, coco) = (mean(0, 2) - mean(0, 0), mean(2, 2) - mean(2, 0));
    report.check(
        lshtc >= 0.2 && coco >= 0.2,
        format!("LSHTC +{}, COCO +{}", f3(lshtc), f3(coco)),
    );
    let imagenet = mean(3, 2) - mean(3, 0);
    report.check(imagenet < 0.05, format!("ImageNet +{}", f3(imagenet)));
    let tied = all.iter().flatten().filter(|r| r[0] == r[1]).count();
    report.check(4 * tied >= total, format!("{tied} of {total} PPs"));
    Ok(report)
}

fn column(pps: &[[f64; 3]], ai: usize) -> Vec<f64> {
    pps.iter().map(|r| r[ai]).collect()
}
