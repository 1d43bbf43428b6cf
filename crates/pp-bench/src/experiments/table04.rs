//! Table 4: data reduction achieved by PPs using different techniques.
//!
//! Paper shape to reproduce:
//! * UCF101 — PCA+KDE beats PCA+SVM and Raw+SVM by ~10% absolute;
//! * COCO / ImageNet — the DNN beats an SVM (by 20–40% absolute at
//!   relaxed accuracies);
//! * cross-training — DNN PPs trained on COCO and applied to ImageNet are
//!   "not as good as PPs trained on the same dataset but ... perform
//!   reasonably well especially at relaxed accuracy targets".

use pp_ml::dataset::LabeledSet;
use pp_ml::pipeline::Pipeline;

use crate::setup::{approach_by_name, corpus, reductions, split601020};
use crate::table::{f3, Table};
use crate::{least, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table04",
    paper: "Table 4",
    checks: &[
        "every winner the paper reports wins here at every accuracy: PCA+KDE over both SVMs \
         on UCF101, the DNN over Raw+SVM on COCO and on ImageNet",
        "the DNN's margin over the SVM on COCO and ImageNet is at least the paper's 0.2 at \
         a = 0.9",
        "the cross-trained DNN (COCO → ImageNet) is never above the native one",
        "deviation: the SVM loss on UCF101 is total, both SVM rows under 0.15 at every \
         accuracy",
        "deviation: the cross-training gap is at most 0.03 at every accuracy",
    ],
    run,
};

const ACCURACIES: [f64; 3] = [1.0, 0.99, 0.9];
const N: usize = 4_000;
const CATS: usize = 8;
const SEED: u64 = 0x7AB4;

/// Mean validation reduction of the named approach over the categories
/// `sets` yields a `(train, val)` pair for; untrainable ones are skipped.
fn mean_reductions(
    approach_name: &str,
    mut sets: impl FnMut(usize) -> Result<Option<(LabeledSet, LabeledSet)>>,
) -> Result<[f64; 3]> {
    let approach = approach_by_name(approach_name)?;
    let mut sums = [0.0; 3];
    let mut count = 0usize;
    for cat in 0..CATS {
        let Some((train, val)) = sets(cat)? else {
            continue;
        };
        let Ok(p) = Pipeline::train(&approach, &train, &val, SEED + cat as u64) else {
            continue;
        };
        count += 1;
        for (sum, r) in sums.iter_mut().zip(reductions(&p, ACCURACIES)?) {
            *sum += r;
        }
    }
    Ok(sums.map(|s| s / count.max(1) as f64))
}

fn run() -> Result<Report> {
    let mut rows: Vec<(&str, &str, [f64; 3])> = Vec::new();
    for (ds, approach) in [
        ("UCF101", "PCA + KDE"),
        ("UCF101", "PCA + SVM"),
        ("UCF101", "Raw + SVM"),
        ("COCO", "DNN"),
        ("COCO", "Raw + SVM"),
        ("ImageNet", "DNN"),
        ("ImageNet", "Raw + SVM"),
    ] {
        let c = corpus(ds, N, SEED)?;
        let r = mean_reductions(approach, |cat| {
            if cat >= c.categories().len() {
                return Ok(None);
            }
            let (train, val, _) = split601020(&c.labeled(cat), SEED + cat as u64)?;
            Ok(Some((train, val)))
        })?;
        rows.push((ds, approach, r));
    }
    // Cross-training: train on COCO blobs; calibrate the threshold table on
    // ImageNet validation data (the deployment domain).
    let coco = corpus("COCO", N, SEED)?;
    let imagenet = corpus("ImageNet", N, SEED + 1)?;
    let cross = mean_reductions("DNN", |cat| {
        let (coco_train, _, _) = split601020(&coco.labeled(cat), SEED + cat as u64)?;
        let (_, img_val, _) = split601020(&imagenet.labeled(cat), SEED + 100 + cat as u64)?;
        Ok(Some((coco_train, img_val)))
    })?;
    rows.push(("ImageNet", "DNN trained on COCO", cross));

    let mut table = Table::new("Table 4 — reduction by PP technique")
        .headers(["dataset", "approach", "r(1.0]", "r(0.99]", "r(0.9]"]);
    for (ds, approach, r) in &rows {
        table.row([
            ds.to_string(),
            approach.to_string(),
            f3(r[0]),
            f3(r[1]),
            f3(r[2]),
        ]);
    }
    let mut report = Report::default();
    report.table(&table);
    report.line("Paper (Table 4): PCA+KDE > {PCA,Raw}+SVM on UCF101 (~10% absolute);");
    report.line("DNN > SVM on COCO/ImageNet (20–40%); cross-trained DNN slightly below native,");
    report.line("closing the gap at relaxed accuracy targets.");

    // The smallest margin of row `w` over row `l` across the accuracies.
    let margin = |w: usize, l: usize| least((0..3).map(|i| rows[w].2[i] - rows[l].2[i]));
    let wins = [margin(0, 1), margin(0, 2), margin(3, 4), margin(5, 6)];
    report.check(
        wins.iter().all(|&m| m > 0.0),
        format!("smallest margins {}", wins.map(f3).join(" / ")),
    );
    let at_09 = [rows[3].2[2] - rows[4].2[2], rows[5].2[2] - rows[6].2[2]];
    report.check(
        at_09.iter().all(|&m| m >= 0.2),
        format!("COCO +{}, ImageNet +{}", f3(at_09[0]), f3(at_09[1])),
    );
    let native_over_cross = margin(5, 7);
    report.check(
        native_over_cross >= 0.0,
        format!("native leads by at least {}", f3(native_over_cross)),
    );
    let svm_best = most(rows[1].2.into_iter().chain(rows[2].2));
    report.check(svm_best < 0.15, format!("best SVM cell {}", f3(svm_best)));
    let gap = -margin(7, 5);
    report.check(gap <= 0.03, format!("largest gap {}", f3(gap)));
    Ok(report)
}
