//! Standard experiment setup shared by the bench binaries.

use std::str::FromStr;
use std::time::Instant;

use pp_core::planner::{OptimizedQuery, PpQueryOptimizer, QoConfig};
use pp_core::train::{PpTrainer, TrainerConfig};
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_data::corpora::{self, Corpus};
use pp_data::traf20::{traf20_queries, TrafQuery};
use pp_data::traffic::{TrafficConfig, TrafficDataset};
use pp_engine::exec::ExecutionContext;
use pp_engine::{Catalog, FaultPlan, FaultSpec, TelemetrySnapshot};
use pp_ml::dataset::LabeledSet;
use pp_ml::dnn::DnnParams;
use pp_ml::kde::KdeParams;
use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
use pp_ml::reduction::ReducerSpec;
use pp_ml::svm::SvmParams;
use pp_server::{SourceRegistry, SourceSpec};

use crate::Result;

/// Builds a corpus by paper-dataset name.
pub fn corpus(name: &str, n: usize, seed: u64) -> Result<Corpus> {
    Ok(match name {
        "LSHTC" => corpora::lshtc_like(n, seed),
        "SUNAttribute" => corpora::sun_like(n, seed),
        "COCO" => corpora::coco_like(n, seed),
        "ImageNet" => corpora::imagenet_like(n, seed),
        "UCF101" => corpora::ucf101_like(n, seed),
        other => return Err(format!("unknown corpus: {other}").into()),
    })
}

/// The PP technique the paper's Figure 9 caption assigns to each dataset
/// ("# indicates PPs that use feature hashing + SVM, * indicates PPs with
/// PCA + KDE and ^ indicates PPs with a DNN").
pub fn paper_approach(corpus_name: &str) -> Result<Approach> {
    approach_by_name(match corpus_name {
        "LSHTC" => "FH + SVM",
        "SUNAttribute" | "UCF101" => "PCA + KDE",
        "COCO" | "ImageNet" => "DNN",
        other => return Err(format!("unknown corpus: {other}").into()),
    })
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

/// Named approaches for the technique-comparison tables:
/// `<reducer> + <model>`, or `DNN` on raw features.
pub fn approach_by_name(name: &str) -> Result<Approach> {
    let pca = ReducerSpec::Pca {
        k: 12,
        fit_sample: 1_000,
    };
    let (reducer, model) = match name {
        "FH + SVM" => (
            ReducerSpec::FeatureHash { dr: 2048 },
            ModelSpec::Svm(SvmParams::default()),
        ),
        "PCA + KDE" => (pca, ModelSpec::Kde(KdeParams::default())),
        "PCA + SVM" => (pca, ModelSpec::Svm(SvmParams::default())),
        "Raw + SVM" => (ReducerSpec::Identity, ModelSpec::Svm(SvmParams::default())),
        "DNN" => (ReducerSpec::Identity, ModelSpec::Dnn(image_dnn_params())),
        other => return Err(format!("unknown approach: {other}").into()),
    };
    Ok(Approach { reducer, model })
}

/// The standard 60/20/20 split of §8.1.
pub fn split601020(set: &LabeledSet, seed: u64) -> Result<(LabeledSet, LabeledSet, LabeledSet)> {
    Ok(set.split(0.6, 0.2, seed)?)
}

/// Trains a pipeline for one corpus category with the 60/20/20 split;
/// `None` when the category is untrainable (single-class after split).
pub fn train_category(
    corpus: &Corpus,
    category: usize,
    approach: &Approach,
    seed: u64,
) -> Result<Option<Pipeline>> {
    let (train, val, _) = split601020(&corpus.labeled(category), seed)?;
    match Pipeline::train(approach, &train, &val, seed) {
        Ok(p) => Ok(Some(p)),
        Err(pp_ml::MlError::SingleClass) | Err(pp_ml::MlError::EmptyInput) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Validation reductions `r(a]` of a pipeline at each accuracy target.
pub fn reductions<const N: usize>(pipeline: &Pipeline, accuracies: [f64; N]) -> Result<[f64; N]> {
    let mut out = [0.0; N];
    for (r, a) in out.iter_mut().zip(accuracies) {
        *r = pipeline.reduction(a)?;
    }
    Ok(out)
}

/// Empirical accuracy and reduction of a pipeline on a held-out test set
/// at accuracy target `a`.
pub fn test_metrics(
    pipeline: &Pipeline,
    test: &LabeledSet,
    a: f64,
) -> Result<pp_ml::metrics::Confusion> {
    let pairs: Vec<(bool, bool)> = test
        .iter()
        .map(|s| Ok((s.label, pipeline.passes(&s.features, a)?)))
        .collect::<Result<_>>()?;
    Ok(pp_ml::metrics::Confusion::from_pairs(pairs))
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
            QoConfig { accuracy_target },
        )
    }

    /// The serving-side registry for this setup: source `traffic` with
    /// the five ground-truth UDFs that materialize its predicate columns.
    pub fn sources(&self) -> Result<SourceRegistry> {
        let mut spec = SourceSpec::new("traffic");
        for col in ["vehType", "vehColor", "speed", "fromI", "toI"] {
            let udf = self.dataset.udf(col).ok_or("unknown UDF column")?;
            spec = spec.with_udf(col, udf);
        }
        let mut sources = SourceRegistry::new();
        sources.register("traffic", spec);
        Ok(sources)
    }
}

/// TRAF-20 Q1 planned at a = 0.95 and executed twice at parallelism 4:
/// clean, and with seeded transient faults and timeouts on the plan's PP
/// filter — the pair of runs `explain_report` prints from.
pub struct CleanAndFaulted {
    /// The query (TRAF-20 Q1).
    pub query: TrafQuery,
    /// Its PP plan and the optimizer's report.
    pub optimized: OptimizedQuery,
    /// Telemetry of the clean run.
    pub clean: TelemetrySnapshot,
    /// Telemetry of the faulted run.
    pub faulted: TelemetrySnapshot,
}

/// Builds the [`CleanAndFaulted`] pair.
pub fn clean_and_faulted_q1() -> Result<CleanAndFaulted> {
    let setup = traffic_setup(2_000, 500, 0xF16)?;
    let query = traf20_queries().swap_remove(0);
    let nop_plan = query.nop_plan(&setup.dataset);
    let optimized = setup.optimizer(0.95).optimize(&nop_plan, &setup.catalog)?;
    let run = |fault_plan: Option<FaultPlan>| -> Result<TelemetrySnapshot> {
        let mut builder = ExecutionContext::builder(&setup.catalog).with_parallelism(4);
        if let Some(fault_plan) = fault_plan {
            builder = builder.with_fault_plan(fault_plan);
        }
        let mut ctx = builder.build();
        ctx.run(&optimized.plan)?;
        Ok(ctx.telemetry().ok_or("no telemetry after a run")?.clone())
    };
    let Some(chosen) = &optimized.report.chosen else {
        return Err("the optimized plan carries no PP filter".into());
    };
    // Transient faults + occasional timeouts on the plan's PP filter.
    let fault_plan = FaultPlan::new(0xBAD5EED).inject(
        chosen.filter_op(),
        FaultSpec::transient(0.08).with_timeouts(0.02, 90.0),
    );
    let clean = run(None)?;
    let faulted = run(Some(fault_plan))?;
    Ok(CleanAndFaulted {
        query,
        optimized,
        clean,
        faulted,
    })
}

/// The command line as `--flag value` pairs, restricted to `known` flags.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Reads the process arguments; an unknown flag or a flag without a
    /// value is an error.
    pub fn parse(known: &[&str]) -> Result<Self> {
        let mut it = std::env::args().skip(1);
        let mut pairs = Vec::new();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag}").into());
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            pairs.push((flag, value));
        }
        Ok(Flags(pairs))
    }

    /// The last value given for `flag`, parsed; `None` when absent.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.0.iter().rev().find(|(f, _)| f == flag);
        value
            .map(|(_, v)| v.parse().map_err(|e| format!("{flag} {v}: {e}").into()))
            .transpose()
    }
}

/// Simulated per-blob PP execution cost (Table 9 reports 2–3ms per PP).
pub const PP_COST_PER_ROW: f64 = 2.5e-3;

/// Builds the TRAF-20 environment: generates `n_frames` of surveillance
/// video, trains the PP corpus (all SVM, §8.2) on the first `train_frames`
/// using an 80/20 train/validation split, and registers the remaining
/// frames as the query input.
pub fn traffic_setup(n_frames: usize, train_frames: usize, seed: u64) -> Result<TrafSetup> {
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
        approach_override: Some(approach_by_name("Raw + SVM")?),
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
    let pp_catalog = trainer.train_catalog(&clauses, &labeled)?;
    let train_seconds = started.elapsed().as_secs_f64();

    let mut domains = Domains::new();
    for (col, values) in TrafficDataset::column_domains() {
        domains.declare(col, values);
    }
    let mut catalog = Catalog::new();
    dataset.register_slice(&mut catalog, train_frames..n_frames);
    Ok(TrafSetup {
        dataset,
        catalog,
        pp_catalog,
        domains,
        train_seconds,
        train_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_dispatch() {
        assert!(corpus("MNIST", 50, 1).is_err());
        assert!(approach_by_name("GBDT").is_err());
        assert_eq!(corpus("LSHTC", 50, 1).unwrap().name, "LSHTC");
        assert_eq!(corpus("UCF101", 50, 1).unwrap().name, "UCF101");
    }

    #[test]
    fn paper_approaches_match_figure9_caption() {
        assert_eq!(paper_approach("LSHTC").unwrap().name(), "FH + SVM");
        assert_eq!(paper_approach("SUNAttribute").unwrap().name(), "PCA + KDE");
        assert_eq!(paper_approach("UCF101").unwrap().name(), "PCA + KDE");
        assert_eq!(paper_approach("COCO").unwrap().name(), "DNN");
        assert_eq!(paper_approach("ImageNet").unwrap().name(), "DNN");
    }

    #[test]
    fn traffic_setup_trains_a_catalog() {
        let s = traffic_setup(800, 400, 3).unwrap();
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
        let c = corpus("UCF101", 200, 2).unwrap();
        let p = train_category(&c, 0, &approach_by_name("Raw + SVM").unwrap(), 3).unwrap();
        assert!(p.is_some());
    }
}
