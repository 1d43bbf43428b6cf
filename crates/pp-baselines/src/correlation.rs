//! The correlation-based early filter of Joglekar et al. \[27\].
//!
//! "One recent work observes that if existing column(s) in the data are
//! correlated with user-defined predicates, then a function over those
//! column(s) can be used to bypass the user-defined predicate" (§9). As in
//! the paper's §8.1 comparison, "we use their code and treat each dimension
//! of our blobs as an input column": the filter discretizes each blob
//! dimension into buckets, estimates per-bucket pass probabilities, keeps
//! the most informative dimensions, and scores blobs by summed log-odds.
//! Calibration reuses the same threshold machinery as PPs, so the
//! accuracy-target semantics are identical and the comparison is fair.
//!
//! Expected behavior (Table 6): useful on sparse text, where a dimension
//! *is* a word and words correlate with labels; nearly useless on dense
//! ML blobs, where "a dimension ... hardly means anything, and the
//! correlation is usually over some complex possibly non-linear
//! combination of multiple dimensions". The `pca` option reproduces the
//! paper's "PCA + Joglekar et al." row.

use pp_linalg::{Features, Pca};
use pp_ml::calibrate::Calibration;
use pp_ml::dataset::LabeledSet;
use pp_ml::{MlError, Result};

/// Configuration of the correlation filter.
#[derive(Debug, Clone, Copy)]
pub struct CorrelationConfig {
    /// Histogram buckets per dimension.
    pub buckets: usize,
    /// Number of most-informative dimensions used at test time. Kept small
    /// by default: the original system "maintains state per distinct value
    /// of the correlated input columns" and its extension to multiple
    /// columns is "exponential in # of predicates and per distinct
    /// combined value" (§3), so it keys on a handful of columns at most.
    pub top_dims: usize,
    /// Project onto this many principal components first (the "PCA +
    /// Joglekar" variant).
    pub pca: Option<usize>,
    /// Cap on rows used to fit the PCA basis (full-corpus eigensolves on
    /// high-dimensional text are prohibitively cubic).
    pub pca_fit_sample: usize,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            buckets: 8,
            top_dims: 4,
            pca: None,
            pca_fit_sample: 300,
        }
    }
}

/// Per-dimension bucket statistics.
#[derive(Debug, Clone)]
struct DimModel {
    dim: usize,
    min: f64,
    width: f64,
    /// Log-odds of passing per bucket.
    log_odds: Vec<f64>,
}

impl DimModel {
    fn bucket(&self, v: f64) -> usize {
        if self.width <= 0.0 {
            return 0;
        }
        (((v - self.min) / self.width) as isize).clamp(0, self.log_odds.len() as isize - 1) as usize
    }
}

/// A trained correlation filter.
#[derive(Debug, Clone)]
pub struct CorrelationFilter {
    pca: Option<Pca>,
    dims: Vec<DimModel>,
    calibration: Calibration,
}

impl CorrelationFilter {
    /// Trains on labeled blobs and calibrates on a validation set.
    pub fn train(train: &LabeledSet, val: &LabeledSet, config: &CorrelationConfig) -> Result<Self> {
        if train.is_empty() || val.is_empty() {
            return Err(MlError::EmptyInput);
        }
        if config.buckets < 2 {
            return Err(MlError::InvalidParameter("buckets must be >= 2"));
        }
        let n_pos = train.positives();
        if n_pos == 0 || n_pos == train.len() {
            return Err(MlError::SingleClass);
        }
        let pca = match config.pca {
            Some(k) => {
                let sample = train.subsample(config.pca_fit_sample, 0);
                let feats = sample.features_owned();
                Some(Pca::fit(&feats, k)?)
            }
            None => None,
        };
        let project = |x: &Features| -> Vec<f64> {
            match &pca {
                Some(p) => p.project(x),
                None => x.to_dense(),
            }
        };
        let rows: Vec<(Vec<f64>, bool)> = train
            .iter()
            .map(|s| (project(&s.features), s.label))
            .collect();
        let d = rows[0].0.len();
        let prior = n_pos as f64 / train.len() as f64;
        let prior_lo = (prior / (1.0 - prior)).ln();

        // Build per-dimension bucket stats and score informativeness.
        let mut scored: Vec<(f64, DimModel)> = Vec::with_capacity(d);
        for dim in 0..d {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (v, _) in &rows {
                lo = lo.min(v[dim]);
                hi = hi.max(v[dim]);
            }
            let width = ((hi - lo) / config.buckets as f64).max(0.0);
            let mut model = DimModel {
                dim,
                min: lo,
                width,
                log_odds: vec![0.0; config.buckets],
            };
            let mut pos = vec![0.0f64; config.buckets];
            let mut tot = vec![0.0f64; config.buckets];
            for (v, label) in &rows {
                let b = model.bucket(v[dim]);
                tot[b] += 1.0;
                if *label {
                    pos[b] += 1.0;
                }
            }
            // Laplace-smoothed log-odds relative to the prior.
            let mut info = 0.0;
            for b in 0..config.buckets {
                let p = (pos[b] + prior) / (tot[b] + 1.0);
                let lo_b = (p / (1.0 - p).max(1e-9)).ln() - prior_lo;
                model.log_odds[b] = lo_b;
                info += tot[b] / rows.len() as f64 * lo_b.abs();
            }
            scored.push((info, model));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let dims: Vec<DimModel> = scored
            .into_iter()
            .take(config.top_dims)
            .map(|(_, m)| m)
            .collect();

        // Calibrate on validation scores (same machinery as PPs).
        let calibration = Calibration::from_scored(
            val.iter()
                .map(|s| (summed_log_odds(pca.as_ref(), &dims, &s.features), s.label)),
        )?;
        Ok(CorrelationFilter {
            pca,
            dims,
            calibration,
        })
    }

    /// The filter's score for a blob (higher = more likely to pass).
    pub fn score(&self, x: &Features) -> f64 {
        summed_log_odds(self.pca.as_ref(), &self.dims, x)
    }

    /// Predicted data reduction at accuracy `a`.
    pub fn reduction(&self, a: f64) -> Result<f64> {
        self.calibration.reduction(a)
    }

    /// The decision at accuracy `a`.
    pub fn passes(&self, x: &Features, a: f64) -> Result<bool> {
        Ok(self.score(x) >= self.calibration.threshold(a)?)
    }

    /// The calibration table.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }
}

/// The summed log-odds of `x`'s bucket in each kept dimension, after the
/// optional PCA projection.
fn summed_log_odds(pca: Option<&Pca>, dims: &[DimModel], x: &Features) -> f64 {
    let v = match pca {
        Some(p) => p.project(x),
        None => x.to_dense(),
    };
    dims.iter().map(|m| m.log_odds[m.bucket(v[m.dim])]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::corpora::{lshtc_like, ucf101_like};

    #[test]
    fn works_on_sparse_text() {
        let corpus = lshtc_like(1_000, 1);
        let set = corpus.labeled(0);
        let (train, val, _) = set.split(0.6, 0.2, 2).unwrap();
        let f = CorrelationFilter::train(
            &train,
            &val,
            &CorrelationConfig {
                top_dims: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let r = f.reduction(0.9).unwrap();
        assert!(r > 0.1, "reduction on sparse text: {r}");
    }

    #[test]
    fn pp_beats_correlation_on_dense_blobs() {
        // Table 6: on dense ML blobs, PPs achieve several times the
        // reduction of the correlation baseline.
        use pp_ml::kde::KdeParams;
        use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
        use pp_ml::reduction::ReducerSpec;
        let corpus = ucf101_like(1_000, 2);
        let set = corpus.labeled(0);
        let (train, val, _) = set.split(0.6, 0.2, 3).unwrap();
        let f = CorrelationFilter::train(&train, &val, &CorrelationConfig::default()).unwrap();
        let corr_r = f.reduction(0.99).unwrap();
        let pp = Pipeline::train(
            &Approach {
                reducer: ReducerSpec::Pca {
                    k: 12,
                    fit_sample: 400,
                },
                model: ModelSpec::Kde(KdeParams::default()),
            },
            &train,
            &val,
            4,
        )
        .unwrap();
        let pp_r = pp.reduction(0.99).unwrap();
        assert!(
            pp_r > corr_r + 0.15,
            "pp {pp_r:.3} should clearly beat correlation {corr_r:.3}"
        );
    }

    #[test]
    fn pca_variant_trains() {
        let corpus = ucf101_like(600, 4);
        let set = corpus.labeled(1);
        let (train, val, _) = set.split(0.6, 0.2, 5).unwrap();
        let f = CorrelationFilter::train(
            &train,
            &val,
            &CorrelationConfig {
                pca: Some(8),
                ..Default::default()
            },
        )
        .unwrap();
        let r = f.reduction(0.9).unwrap();
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn rejects_degenerate_input() {
        let corpus = ucf101_like(100, 6);
        let set = corpus.labeled(0);
        let (train, val, _) = set.split(0.6, 0.2, 7).unwrap();
        assert!(CorrelationFilter::train(
            &LabeledSet::empty(),
            &val,
            &CorrelationConfig::default()
        )
        .is_err());
        assert!(CorrelationFilter::train(
            &train,
            &LabeledSet::empty(),
            &CorrelationConfig::default()
        )
        .is_err());
        let bad = CorrelationConfig {
            buckets: 1,
            ..Default::default()
        };
        assert!(CorrelationFilter::train(&train, &val, &bad).is_err());
    }

    #[test]
    fn accuracy_guarantee_holds_on_validation() {
        let corpus = lshtc_like(800, 8);
        let set = corpus.labeled(1);
        let (train, val, _) = set.split(0.6, 0.2, 9).unwrap();
        let f = CorrelationFilter::train(
            &train,
            &val,
            &CorrelationConfig {
                top_dims: 64,
                ..Default::default()
            },
        )
        .unwrap();
        for a in [0.9, 0.99, 1.0] {
            let th = f.calibration().threshold(a).unwrap();
            assert!(f.calibration().accuracy_at_threshold(th) >= a - 1e-12);
        }
    }
}
