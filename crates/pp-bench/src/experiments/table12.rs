//! Appendix B, Table 12: comparison with NoScope on coral-like video.
//!
//! Paper: on the 12-hour coral clip, both the NoScope cascade and the
//! PP-based pipeline eliminate > 99% of frames during pre-processing and
//! reach 3 000×–8 200× speed-ups at ~0.98 accuracy; the PP pipeline uses a
//! plain SVM ("SVM filters are easier to train and execute and do not
//! require a GPU"). A second stream ("square") exercises a busier scene.

use pp_baselines::noscope::{run_cascade, CascadeConfig, CascadeOutcome, FilterKind};
use pp_data::video_stream::{VideoStream, VideoStreamConfig};

use crate::table::{f3, Table};
use crate::{least, most, Experiment, Report, Result};

pub(crate) const EXPERIMENT: Experiment = Experiment {
    id: "table12",
    paper: "Table 12",
    checks: &[
        "pre-processing removes at least 97 % of the frames in every row",
        "the early filter resolves at least 93 % of what is left in every row",
        "every pipeline is at least 500× cheaper than the reference detector on every frame",
        "at a = 0.98 on coral the SVM pipeline beats the shallow-DNN cascade on cost at no \
         lower accuracy",
        "the busier square stream is harder: the same pipeline speeds up less than on coral",
        "deviation: at a = 0.998 the SVM pipeline is the slower of the two and the more \
         accurate",
        "deviation: achieved accuracy trails its target in every row, by at most 0.15",
        "deviation: the peak speed-up stays under the paper's 8 200× on a stream at least \
         ten times as selective as coral's 0.2 %",
    ],
    run,
};

fn run() -> Result<Report> {
    let coral = VideoStream::generate(VideoStreamConfig {
        n_frames: 60_000,
        seed: 0xC0A1,
        ..Default::default()
    });
    // "square": busier street scene — more motion bursts, more objects.
    let square = VideoStream::generate(VideoStreamConfig {
        n_frames: 30_000,
        burst_start_prob: 0.003,
        object_in_burst_prob: 0.4,
        seed: 0x50A2,
        ..Default::default()
    });
    let mut report = Report::default();
    report.line(format!(
        "coral: {} frames, selectivity {:.4}; square: {} frames, selectivity {:.4}\n",
        coral.len(),
        coral.selectivity(),
        square.len(),
        square.selectivity()
    ));

    let mut table =
        Table::new("Table 12 — NoScope-like vs PP pipeline on video streams").headers([
            "system",
            "video",
            "pre-proc reduction",
            "early drop",
            "speed-up",
            "accuracy",
            "#ref calls",
        ]);
    let mut outcomes = Vec::new();
    for (system, filter, target, video, stream) in [
        (
            "NoScope-like",
            FilterKind::ShallowDnn,
            0.998,
            "coral",
            &coral,
        ),
        (
            "NoScope-like",
            FilterKind::ShallowDnn,
            0.98,
            "coral",
            &coral,
        ),
        ("PP", FilterKind::MaskedSvmPp, 0.998, "coral", &coral),
        ("PP", FilterKind::MaskedSvmPp, 0.98, "coral", &coral),
        ("PP", FilterKind::MaskedSvmPp, 0.98, "square", &square),
    ] {
        let out = run_cascade(
            stream,
            &CascadeConfig {
                filter,
                target_accuracy: target,
                ..Default::default()
            },
        )?;
        table.row([
            format!("{system} (a={target})"),
            video.to_string(),
            f3(out.pre_reduction),
            f3(out.early_drop),
            format!("{:.0}x", out.speedup),
            f3(out.accuracy),
            out.reference_invocations.to_string(),
        ]);
        outcomes.push((target, out));
    }
    report.table(&table);
    report.line("Paper (Table 12): pre-proc reduction ≥ 0.993, early drop ~0.9, speed-ups");
    report.line("3000x–8200x on coral at accuracy 0.98–0.998; square is harder (1300x, 0.91).");

    let pre = least(outcomes.iter().map(|(_, o)| o.pre_reduction));
    report.check(pre >= 0.97, format!("least {}", f3(pre)));
    let early = least(outcomes.iter().map(|(_, o)| o.early_drop));
    report.check(early >= 0.93, format!("least {}", f3(early)));
    let slowest = least(outcomes.iter().map(|(_, o)| o.speedup));
    report.check(slowest >= 500.0, format!("least {slowest:.0}x"));
    let [(_, dnn_998), (_, dnn_98), (_, pp_998), (_, pp_98), (_, pp_square)] = &outcomes[..] else {
        return Err("five cascade runs expected".into());
    };
    let versus = |pp: &CascadeOutcome, dnn: &CascadeOutcome| {
        format!(
            "PP {:.0}x at {} against {:.0}x at {}",
            pp.speedup,
            f3(pp.accuracy),
            dnn.speedup,
            f3(dnn.accuracy)
        )
    };
    report.check(
        pp_98.speedup > dnn_98.speedup && pp_98.accuracy >= dnn_98.accuracy,
        versus(pp_98, dnn_98),
    );
    report.check(
        pp_square.speedup < pp_98.speedup,
        format!("{:.0}x against {:.0}x", pp_square.speedup, pp_98.speedup),
    );
    report.check(
        pp_998.speedup < dnn_998.speedup && pp_998.accuracy > dnn_998.accuracy,
        versus(pp_998, dnn_998),
    );
    let gaps = || outcomes.iter().map(|(a, o)| a - o.accuracy);
    let (narrowest, widest) = (least(gaps()), most(gaps()));
    report.check(
        narrowest > 0.0 && widest <= 0.15,
        format!("gaps {}–{}", f3(narrowest), f3(widest)),
    );
    let peak = most(outcomes.iter().map(|(_, o)| o.speedup));
    report.check(
        peak < 8200.0 && coral.selectivity() >= 0.02,
        format!("peak {peak:.0}x at selectivity {:.4}", coral.selectivity()),
    );
    Ok(report)
}
