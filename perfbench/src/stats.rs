//! Order statistics for the benchmark's timings.

/// Samples that must lie beyond a percentile before it may be reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice by linear
/// interpolation between closest ranks; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns its `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether `samples` measurements leave at least [`MIN_SAMPLES_BEYOND`]
/// of them above the `q`-quantile.
pub fn percentile_supported(samples: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 = 0.09999…` so 100 samples support p90.
    (samples as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_SAMPLES_BEYOND
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method): rank `k·(n+1)/4`, interpolated
/// between the two closest values. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound. `None` for fewer than two
/// values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(values)?;
    let med = median(&mut values.to_vec());
    (med != 0.0).then(|| (q3 - q1).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert!((quantile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
        let mut unsorted = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut unsorted), 2.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_samples_beyond_the_percentile() {
        // p95 needs 10 samples beyond it: 200 measurements.
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(200, 0.95));
        assert!(percentile_supported(100, 0.90));
        assert!(!percentile_supported(99, 0.90));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1000, 0.99));
        // The highest percentile 150 samples support is p90, not p95.
        assert!(percentile_supported(150, 0.90) && !percentile_supported(150, 0.95));
        assert!(!percentile_supported(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: it extrapolates.
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles_exclusive(&[1.0]).is_none());
        assert!(iqr_share(&[0.0, 0.0, 0.0]).is_none());
    }
}
