//! Figures 15/16: demonstration of PP confidences on individual blobs.
//!
//! Figure 15 shows, for a dozen COCO images, the confidence each of four
//! PPs assigns; the gap between confidences for present and absent labels
//! is large, so thresholds achieve high reduction at full accuracy.
//! Figure 16 repeats with PPs trained on COCO applied to ImageNet.

use pp_ml::pipeline::Pipeline;

use crate::setup::{approach_by_name, corpus, split601020};
use crate::table::{f2, Table};
use crate::{Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "fig15",
    paper: "Figs 15/16",
    checks: &[
        "on the COCO blobs shown, every present label's confidence exceeds every absent \
         label's by at least 0.5",
        "the separation persists cross-domain: the same holds for the COCO-trained PPs on \
         the ImageNet blobs shown",
    ],
    run,
};

/// Squashes a raw classifier score into a [0, 1] confidence.
fn confidence(score: f64) -> f64 {
    1.0 / (1.0 + (-score).exp())
}

fn run() -> Result<Report> {
    let n = 4_000;
    let pp_classes = [0usize, 1, 2, 3];
    let coco = corpus("COCO", n, 0xF15)?;
    let imagenet = corpus("ImageNet", n, 0xF15 + 1)?;
    let approach = approach_by_name("DNN")?;

    // Train one PP per class on COCO.
    let mut pps: Vec<Pipeline> = Vec::new();
    for &k in &pp_classes {
        let (train, val, _) = split601020(&coco.labeled(k), 0xF15 + k as u64)?;
        pps.push(Pipeline::train(&approach, &train, &val, 0xF15 + k as u64)?);
    }

    let mut report = Report::default();
    for (corpus_ref, title) in [
        (&coco, "Figure 15 — PP confidences on COCO blobs"),
        (&imagenet, "Figure 16 — COCO-trained PPs on ImageNet blobs"),
    ] {
        let mut table = Table::new(title).headers([
            "blob",
            "true labels",
            "PP[class0]",
            "PP[class1]",
            "PP[class2]",
            "PP[class3]",
        ]);
        // Pick 12 interesting blobs: ensure some positives per PP class.
        let mut shown = 0usize;
        let mut need: Vec<usize> = pp_classes.to_vec();
        // Lowest confidence given to a present label, highest to an absent.
        let (mut present, mut absent) = (f64::MAX, f64::MIN);
        for (i, blob) in corpus_ref.blobs().iter().enumerate() {
            let labels: Vec<usize> = pp_classes
                .iter()
                .copied()
                .filter(|&k| corpus_ref.labeled(k).samples()[i].label)
                .collect();
            let wanted =
                labels.iter().any(|l| need.contains(l)) || (labels.is_empty() && shown < 4);
            if !wanted {
                continue;
            }
            need.retain(|k| !labels.contains(k));
            let label_str = if labels.is_empty() {
                "(none of 0–3)".to_string()
            } else {
                labels
                    .iter()
                    .map(|l| format!("class{l}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let confs: Vec<f64> = pps.iter().map(|p| confidence(p.score(blob))).collect();
            for (k, &conf) in pp_classes.iter().zip(&confs) {
                if labels.contains(k) {
                    present = present.min(conf);
                } else {
                    absent = absent.max(conf);
                }
            }
            table.row(
                [format!("blob{i}"), label_str]
                    .into_iter()
                    .chain(confs.into_iter().map(f2)),
            );
            shown += 1;
            if shown >= 12 {
                break;
            }
        }
        report.table(&table);
        report.check(
            present - absent >= 0.5,
            format!(
                "present ≥ {}, absent ≤ {} over {shown} blobs",
                f2(present),
                f2(absent)
            ),
        );
    }
    report.line("Paper (Figs 15/16): confidences for present labels sit well above absent");
    report.line("ones, so per-PP thresholds drop most irrelevant blobs at accuracy 1.0; the");
    report.line("gap narrows (but persists) for cross-domain application.");
    Ok(report)
}
