//! Standard experiment setup shared by the bench binaries.

use std::time::Instant;

use pp_core::planner::{PpQueryOptimizer, QoConfig};
use pp_core::train::{PpTrainer, TrainerConfig};
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_data::corpora::{self, Corpus};
use pp_data::traffic::{TrafficConfig, TrafficDataset};
use pp_engine::Catalog;
use pp_ml::dataset::LabeledSet;
use pp_ml::dnn::DnnParams;
use pp_ml::kde::KdeParams;
use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
use pp_ml::reduction::ReducerSpec;
use pp_ml::svm::SvmParams;

/// Builds a corpus by paper-dataset name.
///
/// # Panics
/// Panics on an unknown name (bench binaries hard-code valid names).
pub fn corpus(name: &str, n: usize, seed: u64) -> Corpus {
    match name {
        "LSHTC" => corpora::lshtc_like(n, seed),
        "SUNAttribute" => corpora::sun_like(n, seed),
        "COCO" => corpora::coco_like(n, seed),
        "ImageNet" => corpora::imagenet_like(n, seed),
        "UCF101" => corpora::ucf101_like(n, seed),
        other => panic!("unknown corpus: {other}"),
    }
}

/// The PP technique the paper's Figure 9 caption assigns to each dataset
/// ("# indicates PPs that use feature hashing + SVM, * indicates PPs with
/// PCA + KDE and ^ indicates PPs with a DNN").
pub fn paper_approach(corpus_name: &str) -> Approach {
    match corpus_name {
        "LSHTC" => Approach {
            reducer: ReducerSpec::FeatureHash { dr: 2048 },
            model: ModelSpec::Svm(SvmParams::default()),
        },
        "SUNAttribute" | "UCF101" => Approach {
            reducer: ReducerSpec::Pca {
                k: 12,
                fit_sample: 1_000,
            },
            model: ModelSpec::Kde(KdeParams::default()),
        },
        "COCO" | "ImageNet" => Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Dnn(image_dnn_params()),
        },
        other => panic!("unknown corpus: {other}"),
    }
}

/// DNN hyper-parameters for the image corpora ("the DNN used for PPs here
/// has 8 convolutional layers followed by a fully connected layer and is
/// relatively very light-weight" — ours is a small MLP tuned for the
/// sign-randomized embedding structure).
pub fn image_dnn_params() -> DnnParams {
    DnnParams {
        hidden: vec![64, 32],
        epochs: 80,
        learning_rate: 0.003,
        ..Default::default()
    }
}

/// Named approaches for the technique-comparison tables.
pub fn approach_by_name(name: &str) -> Approach {
    match name {
        "FH + SVM" => Approach {
            reducer: ReducerSpec::FeatureHash { dr: 2048 },
            model: ModelSpec::Svm(SvmParams::default()),
        },
        "PCA + KDE" => Approach {
            reducer: ReducerSpec::Pca {
                k: 12,
                fit_sample: 1_000,
            },
            model: ModelSpec::Kde(KdeParams::default()),
        },
        "PCA + SVM" => Approach {
            reducer: ReducerSpec::Pca {
                k: 12,
                fit_sample: 1_000,
            },
            model: ModelSpec::Svm(SvmParams::default()),
        },
        "Raw + SVM" => Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        },
        "Raw + KDE" => Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Kde(KdeParams::default()),
        },
        "DNN" => Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Dnn(image_dnn_params()),
        },
        other => panic!("unknown approach: {other}"),
    }
}

/// The standard 60/20/20 split of §8.1.
pub fn split601020(set: &LabeledSet, seed: u64) -> (LabeledSet, LabeledSet, LabeledSet) {
    set.split(0.6, 0.2, seed).expect("valid fractions")
}

/// Trains a pipeline for one corpus category with the 60/20/20 split;
/// `None` when the category is untrainable (single-class after split).
pub fn train_category(
    corpus: &Corpus,
    category: usize,
    approach: &Approach,
    seed: u64,
) -> Option<Pipeline> {
    let set = corpus.labeled(category);
    let (train, val, _) = split601020(&set, seed);
    match Pipeline::train(approach, &train, &val, seed) {
        Ok(p) => Some(p),
        Err(pp_ml::MlError::SingleClass) | Err(pp_ml::MlError::EmptyInput) => None,
        Err(e) => panic!("training failed: {e}"),
    }
}

/// Empirical accuracy and reduction of a pipeline on a held-out test set
/// at accuracy target `a`.
pub fn test_metrics(pipeline: &Pipeline, test: &LabeledSet, a: f64) -> pp_ml::metrics::Confusion {
    pp_ml::metrics::Confusion::from_pairs(test.iter().map(|s| {
        (
            s.label,
            pipeline
                .passes(&s.features, a)
                .expect("valid accuracy target"),
        )
    }))
}

/// A fully prepared TRAF-20 environment (§8.2's online setting).
pub struct TrafSetup {
    /// The generated surveillance dataset (training + evaluation frames).
    pub dataset: TrafficDataset,
    /// Engine catalog with the *evaluation* slice registered as `traffic`.
    pub catalog: Catalog,
    /// Trained PP corpus.
    pub pp_catalog: PpCatalog,
    /// Declared column domains for the wrangler.
    pub domains: Domains,
    /// Wall-clock seconds spent training the PP corpus.
    pub train_seconds: f64,
    /// Number of frames used for PP training.
    pub train_frames: usize,
}

impl TrafSetup {
    /// A PP query optimizer over this setup at the given accuracy target.
    pub fn optimizer(&self, accuracy_target: f64) -> PpQueryOptimizer {
        PpQueryOptimizer::new(
            self.pp_catalog.clone(),
            self.domains.clone(),
            QoConfig {
                accuracy_target,
                ..Default::default()
            },
        )
    }
}

/// Simulated per-blob PP execution cost (Table 9 reports 2–3ms per PP).
pub const PP_COST_PER_ROW: f64 = 2.5e-3;

/// Builds the TRAF-20 environment: generates `n_frames` of surveillance
/// video, trains the PP corpus (all SVM, §8.2) on the first `train_frames`
/// using an 80/20 train/validation split, and registers the remaining
/// frames as the query input.
pub fn traffic_setup(n_frames: usize, train_frames: usize, seed: u64) -> TrafSetup {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames,
        seed,
        ..Default::default()
    });
    let train_frames = train_frames.min(n_frames / 2);
    let started = Instant::now();
    let trainer = PpTrainer::new(TrainerConfig {
        train_frac: 0.8,
        val_frac: 0.2,
        approach_override: Some(approach_by_name("Raw + SVM")),
        cost_per_row: Some(PP_COST_PER_ROW),
        train_negations: true,
        seed,
        ..Default::default()
    });
    let clauses = TrafficDataset::pp_corpus_clauses();
    let labeled: Vec<LabeledSet> = clauses
        .iter()
        .map(|c| dataset.labeled_for_clause_range(c, 0..train_frames))
        .collect();
    let pp_catalog = trainer
        .train_catalog(&clauses, &labeled)
        .expect("PP corpus training");
    let train_seconds = started.elapsed().as_secs_f64();

    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, train_frames..n_frames);
    TrafSetup {
        dataset,
        catalog,
        pp_catalog,
        domains,
        train_seconds,
        train_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_dispatch() {
        assert_eq!(corpus("LSHTC", 50, 1).name, "LSHTC");
        assert_eq!(corpus("UCF101", 50, 1).name, "UCF101");
    }

    #[test]
    fn paper_approaches_match_figure9_caption() {
        assert_eq!(paper_approach("LSHTC").name(), "FH + SVM");
        assert_eq!(paper_approach("SUNAttribute").name(), "PCA + KDE");
        assert_eq!(paper_approach("UCF101").name(), "PCA + KDE");
        assert_eq!(paper_approach("COCO").name(), "DNN");
        assert_eq!(paper_approach("ImageNet").name(), "DNN");
    }

    #[test]
    fn traffic_setup_trains_a_catalog() {
        let s = traffic_setup(800, 400, 3);
        // 26 base clauses, most trainable, each with a negation twin.
        assert!(
            s.pp_catalog.len() >= 30,
            "catalog size {}",
            s.pp_catalog.len()
        );
        assert!(s.train_seconds > 0.0);
        // The registered table excludes the training slice.
        assert_eq!(s.catalog.table_rows("traffic").unwrap(), 400);
    }

    #[test]
    fn train_category_handles_degenerate() {
        let c = corpus("UCF101", 200, 2);
        let p = train_category(&c, 0, &approach_by_name("Raw + SVM"), 3);
        assert!(p.is_some());
    }
}
