//! The runtime monitor as a fold: running sums give the summaries the
//! per-record log gave, and concurrent observers lose nothing.
//!
//! [`RuntimeMonitor`] keeps, per key, sums instead of the records they
//! are sums of. Two things have to hold for that to be a pure
//! simplification: every figure and every threshold decision the log
//! produced comes out of the sums (a property test, with the old
//! per-record formula kept here as the reference), and eight threads
//! observing at once leave the counters eight serial observers would
//! (`observe_run` takes one lock for a whole run).

use probabilistic_predicates::core::calibration::{CalibrationRecord, CalibrationSummary};
use probabilistic_predicates::core::planner::PlanReport;
use probabilistic_predicates::core::runtime::{
    RuntimeMonitor, CALIBRATION_ERROR_THRESHOLD, CALIBRATION_MIN_SAMPLES,
};
use probabilistic_predicates::engine::telemetry::TelemetrySnapshot;

mod common;

/// What `CalibrationTracker::summary` computed while it still held every
/// record: each mean accumulated as `Σ xᵢ/n`, in arrival order.
fn per_record_summary(records: &[CalibrationRecord]) -> CalibrationSummary {
    let n = records.len() as f64;
    let mut s = CalibrationSummary {
        samples: records.len() as u64,
        ..Default::default()
    };
    for r in records {
        s.reduction_bias += r.reduction_error() / n;
        s.reduction_mae += r.reduction_error().abs() / n;
        s.cost_bias += r.cost_error() / n;
        s.cost_mae += r.cost_error().abs() / n;
        s.mean_predicted_reduction += r.predicted_reduction / n;
        s.mean_observed_reduction += r.observed_reduction / n;
    }
    s
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

proptest::proptest! {
    /// On any stream of records the running sums yield the per-record
    /// summary to 1e-12, the same `drifted` bit and the same reduction
    /// correction — in arrival order and reversed (the summary does not
    /// depend on order beyond float association). Each case lands on a
    /// chosen side of both drift constants: fewer records than
    /// [`CALIBRATION_MIN_SAMPLES`] or enough, and every error within
    /// [`CALIBRATION_ERROR_THRESHOLD`] or every error past it.
    #[test]
    fn running_sums_match_the_per_record_formula(
        stream in proptest::collection::vec(
            (0.05f64..=1.0, 0.0f64..=1.0, 0.0f64..0.5, 0.0f64..0.5),
            CALIBRATION_MIN_SAMPLES as usize..80,
        ),
        under_sampled in 0u8..2,
        drifting in 0u8..2,
    ) {
        let (under_sampled, drifting) = (under_sampled == 1, drifting == 1);
        let len = if under_sampled {
            CALIBRATION_MIN_SAMPLES as usize - 1
        } else {
            stream.len()
        };
        let records: Vec<CalibrationRecord> = stream[..len]
            .iter()
            .map(|&(predicted_reduction, magnitude, predicted_cost, observed_cost)| {
                // |predicted − observed|, on the chosen side of the
                // threshold; the sign keeps the observation in [0, 1].
                let error = if drifting {
                    CALIBRATION_ERROR_THRESHOLD + 0.01 + magnitude * 0.3
                } else {
                    magnitude * (CALIBRATION_ERROR_THRESHOLD - 0.01)
                };
                let observed_reduction = if predicted_reduction >= 0.5 {
                    predicted_reduction - error
                } else {
                    predicted_reduction + error
                };
                CalibrationRecord {
                    predicted_reduction,
                    observed_reduction,
                    predicted_cost,
                    observed_cost,
                }
            })
            .collect();
        let reference = per_record_summary(&records);
        let drifted = reference.samples >= CALIBRATION_MIN_SAMPLES
            && reference.reduction_mae > CALIBRATION_ERROR_THRESHOLD;
        proptest::prop_assert_eq!(drifted, !under_sampled && drifting);
        let correction = if drifted { reference.correction_factor() } else { None };

        let forward = RuntimeMonitor::new();
        let backward = RuntimeMonitor::new();
        for r in &records {
            forward.record_calibration("k", *r);
        }
        for r in records.iter().rev() {
            backward.record_calibration("k", *r);
        }
        for monitor in [&forward, &backward] {
            let got = monitor.calibration_summary("k").expect("recorded");
            proptest::prop_assert_eq!(got.samples, reference.samples);
            for (a, b) in [
                (got.reduction_bias, reference.reduction_bias),
                (got.reduction_mae, reference.reduction_mae),
                (got.cost_bias, reference.cost_bias),
                (got.cost_mae, reference.cost_mae),
                (got.mean_predicted_reduction, reference.mean_predicted_reduction),
                (got.mean_observed_reduction, reference.mean_observed_reduction),
            ] {
                proptest::prop_assert!(close(a, b), "{} vs {}", a, b);
            }
            let report = monitor.calibration_report();
            proptest::prop_assert_eq!(report.entry("k").map(|e| e.drifted), Some(drifted));
            proptest::prop_assert_eq!(monitor.needs_replan(), drifted);
            match (monitor.reduction_correction("k"), correction) {
                (Some(a), Some(b)) => proptest::prop_assert!(close(a, b), "{} vs {}", a, b),
                (a, b) => proptest::prop_assert_eq!(a, b),
            }
        }
    }
}

/// Everything the monitor counts in integers, per key of the workload.
fn counters(
    monitor: &RuntimeMonitor,
    runs: &[(PlanReport, TelemetrySnapshot)],
) -> Vec<(String, u64, u64, u64)> {
    let mut rows: Vec<_> = runs
        .iter()
        .flat_map(|(report, _)| {
            let chosen = report.chosen.clone().expect("every run has a chosen plan");
            chosen.leaf_keys.into_iter().chain([chosen.expr])
        })
        .map(|key| {
            let faults = monitor.fault_stats(&key);
            let samples = monitor.calibration_summary(&key).map_or(0, |s| s.samples);
            (key, samples, faults.calls, faults.failures)
        })
        .collect();
    rows.sort();
    rows
}

/// Eight threads × 1 000 `observe_run` calls leave the per-key sample
/// counts and fault counters of the same 8 000 calls made one after the
/// other: a run is folded in under one lock, so no increment is lost and
/// none is seen half-applied.
#[test]
fn concurrent_observers_count_what_serial_ones_do() {
    const THREADS: usize = 8;
    const CALLS: usize = 1_000;
    let runs = common::observed_runs();
    let observe = |monitor: &RuntimeMonitor, thread: usize| {
        for i in 0..CALLS {
            let (report, snapshot) = &runs[(thread * 3 + i) % runs.len()];
            monitor.observe_run(report, snapshot);
        }
    };
    let serial = RuntimeMonitor::new();
    for thread in 0..THREADS {
        observe(&serial, thread);
    }
    let concurrent = RuntimeMonitor::new();
    // All eight start observing at once, so their runs interleave.
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (concurrent, start) = (&concurrent, &start);
            scope.spawn(move || {
                start.wait();
                observe(concurrent, thread);
            });
        }
    });
    let expected = counters(&serial, &runs);
    assert_eq!(counters(&concurrent, &runs), expected);
    let samples: u64 = expected.iter().map(|(_, samples, ..)| samples).sum();
    assert_eq!(samples, (THREADS * CALLS) as u64, "one sample per run");
    assert_eq!(concurrent.broken(), serial.broken());
    assert_eq!(concurrent.needs_replan(), serial.needs_replan());
}
