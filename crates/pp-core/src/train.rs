//! The training "outer loop" (Figure 3b).
//!
//! "In a batch system, we use historical queries to infer the simple
//! clauses that appear frequently ... we can generate the labeled corpus by
//! annotating the query plans; i.e., the first query to use a certain
//! clause will output labeled input in addition to its query results."
//!
//! [`harvest_labels`] implements exactly that annotation: it executes the
//! UDF-materializing portion of a query over a blob table and records, per
//! input blob, whether each requested clause held on any derived output
//! row. [`PpTrainer`] then builds calibrated PPs per clause — including,
//! optionally, the sign-flipped PPs for negated clauses (§5.6).

use std::collections::HashMap;
use std::sync::Arc;

use pp_engine::logical::LogicalPlan;
use pp_engine::predicate::{Clause, Predicate};
use pp_engine::{Catalog, DataType, EngineError};
use pp_ml::dataset::{LabeledSet, Sample};
use pp_ml::pipeline::{Approach, Pipeline};
use pp_ml::select::{select_model, SelectionConfig};

use crate::catalog::PpCatalog;
use crate::pp::ProbabilisticPredicate;
use crate::{PpError, Result};

/// Executes `materialize_plan` and produces one labeled blob set per
/// clause, in the source table's row order.
///
/// The plan must preserve the blob column in its output (blobs are shared
/// `Arc`s, so identity survives all relational operators). Blobs that
/// produce no output rows (e.g. frames where the detector found nothing)
/// are labeled negative for every clause — the implicit filtering of §2.
pub fn harvest_labels(
    catalog: &Catalog,
    table: &str,
    blob_column: &str,
    materialize_plan: &LogicalPlan,
    clauses: &[Clause],
) -> Result<Vec<LabeledSet>> {
    let source = Arc::new(catalog.read_table(table)?);
    let blob_idx = source.schema().index_of(blob_column)?;
    if source.schema().columns()[blob_idx].dtype != DataType::Blob {
        return Err(PpError::Engine(EngineError::TypeMismatch {
            expected: "blob",
            found: "non-blob column",
        }));
    }
    // Run the materializing plan (costs irrelevant here — training time is
    // accounted separately) over this very materialization: labels are
    // matched by blob identity, and a table that decodes its rows on every
    // read would hand the plan different `Arc`s than `source` holds.
    let mut pinned = catalog.clone();
    pinned.register_shared(table, Arc::clone(&source));
    let out = pp_engine::exec::ExecutionContext::new(&pinned).run(materialize_plan)?;
    let out_schema = out.schema().clone();
    let out_blob_idx = out_schema.index_of(blob_column)?;

    // Per blob (by Arc pointer), per clause: did any derived row satisfy it?
    let mut passed: HashMap<usize, Vec<bool>> = HashMap::new();
    for row in out.rows() {
        let blob = row.get(out_blob_idx).as_blob()?;
        let ptr = Arc::as_ptr(blob) as usize;
        let flags = passed
            .entry(ptr)
            .or_insert_with(|| vec![false; clauses.len()]);
        for (i, clause) in clauses.iter().enumerate() {
            if !flags[i] && clause.eval(row, &out_schema)? {
                flags[i] = true;
            }
        }
    }
    // Assemble one labeled set per clause, in source order.
    let mut sets: Vec<LabeledSet> = (0..clauses.len()).map(|_| LabeledSet::empty()).collect();
    for row in source.rows() {
        let blob = row.get(blob_idx).as_blob()?;
        let ptr = Arc::as_ptr(blob) as usize;
        let flags = passed.get(&ptr);
        for (i, set) in sets.iter_mut().enumerate() {
            let label = flags.is_some_and(|f| f[i]);
            set.push(Sample::new((**blob).clone(), label))
                .map_err(PpError::Ml)?;
        }
    }
    Ok(sets)
}

/// Configuration for PP training.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Fraction of labeled data used for training (§5.6 splits the rest
    /// off for validation/calibration).
    pub train_frac: f64,
    /// Fraction used for validation/calibration.
    pub val_frac: f64,
    /// Model-selection settings (§5.5). Ignored when `approach_override`
    /// is set.
    pub selection: SelectionConfig,
    /// Skip model selection and train this approach directly.
    pub approach_override: Option<Approach>,
    /// Simulated per-blob execution cost for trained PPs; `None` uses the
    /// measured wall-clock inference cost.
    pub cost_per_row: Option<f64>,
    /// Also register the sign-flipped PP for the negated clause (§5.6).
    pub train_negations: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            train_frac: 0.8,
            val_frac: 0.2,
            selection: SelectionConfig::default(),
            approach_override: None,
            cost_per_row: None,
            train_negations: true,
            seed: 0,
        }
    }
}

/// Trains probabilistic predicates per simple clause.
#[derive(Debug, Clone, Default)]
pub struct PpTrainer {
    config: TrainerConfig,
}

impl PpTrainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        PpTrainer { config }
    }

    /// Trains the PP for one clause from its labeled blob set, returning
    /// the PP (and the negated-clause PP when configured).
    pub fn train_clause(
        &self,
        clause: &Clause,
        labeled: &LabeledSet,
    ) -> Result<Vec<ProbabilisticPredicate>> {
        let (train, val, _test) = labeled
            .split(
                self.config.train_frac,
                self.config.val_frac,
                self.config.seed,
            )
            .map_err(PpError::Ml)?;
        let approach = match &self.config.approach_override {
            Some(a) => a.clone(),
            None => {
                let selection = select_model(&train, &val, &self.config.selection)?;
                selection.best().approach.clone()
            }
        };
        let pipeline = Pipeline::train(&approach, &train, &val, self.config.seed)?;
        let mut out = Vec::new();
        if self.config.train_negations {
            let neg_pipeline = pipeline.negated(&val)?;
            out.push(self.wrap(Predicate::Clause(clause.negated()), neg_pipeline)?);
        }
        out.insert(0, self.wrap(Predicate::Clause(clause.clone()), pipeline)?);
        Ok(out)
    }

    fn wrap(&self, predicate: Predicate, pipeline: Pipeline) -> Result<ProbabilisticPredicate> {
        match self.config.cost_per_row {
            Some(c) => ProbabilisticPredicate::new(predicate, pipeline, c),
            None => Ok(ProbabilisticPredicate::from_measured(predicate, pipeline)),
        }
    }

    /// Trains PPs for many clauses into a catalog; clauses whose labeled
    /// sets are single-class (untrainable) are skipped.
    pub fn train_catalog(&self, clauses: &[Clause], labeled: &[LabeledSet]) -> Result<PpCatalog> {
        if clauses.len() != labeled.len() {
            return Err(PpError::InvalidParameter(
                "clauses and labeled sets must align",
            ));
        }
        let mut catalog = PpCatalog::new();
        for (clause, set) in clauses.iter().zip(labeled) {
            match self.train_clause(clause, set) {
                Ok(pps) => {
                    for pp in pps {
                        catalog.insert(pp);
                    }
                }
                Err(PpError::Ml(pp_ml::MlError::SingleClass))
                | Err(PpError::Ml(pp_ml::MlError::EmptyInput)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::udf::ClosureProcessor;
    use pp_engine::{Column, CompareOp, Row, Rowset, Schema, Value};
    use pp_linalg::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A blob table where blob[0] > 0 means "SUV" (the UDF recovers this),
    /// plus the materializing UDF plan.
    fn setup(n: usize, seed: u64) -> (Catalog, LogicalPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            Column::new("frameID", DataType::Int),
            Column::new("frame", DataType::Blob),
        ])
        .unwrap();
        let rows = (0..n)
            .map(|i| {
                let pos = rng.gen_bool(0.4);
                let cx = if pos { 2.0 } else { -2.0 };
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::blob(Features::Dense(vec![
                        cx + rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ])),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.register("video", Rowset::new(schema, rows).unwrap());
        let udf = Arc::new(ClosureProcessor::map(
            "VehType",
            vec![Column::new("vehType", DataType::Str)],
            5.0,
            |row, schema, out| {
                let blob = row.get_named(schema, "frame")?.as_blob()?;
                let v = blob.to_dense();
                out.push(Value::str(if v[0] > 0.0 { "SUV" } else { "sedan" }));
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("video").process(udf);
        (cat, plan)
    }

    #[test]
    fn harvest_matches_ground_truth() {
        let (cat, plan) = setup(100, 1);
        let clause = Clause::new("vehType", CompareOp::Eq, "SUV");
        let sets = harvest_labels(&cat, "video", "frame", &plan, &[clause]).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 100);
        // Labels must match the latent rule blob[0] > 0.
        for s in sets[0].iter() {
            let v = s.features.to_dense();
            assert_eq!(s.label, v[0] > 0.0);
        }
    }

    #[test]
    fn harvest_labels_dropped_blobs_negative() {
        // A detector that drops frames with blob[0] <= 0 entirely.
        let (cat, _) = setup(50, 2);
        let detector = Arc::new(ClosureProcessor::new(
            "Detector",
            vec![Column::new("vehType", DataType::Str)],
            5.0,
            |row, schema, out| {
                let blob = row.get_named(schema, "frame")?.as_blob()?;
                if blob.to_dense()[0] > 0.0 {
                    out.push(Value::str("SUV"));
                }
                Ok(())
            },
        ));
        let plan = LogicalPlan::scan("video").process(detector);
        let clause = Clause::new("vehType", CompareOp::Eq, "SUV");
        let sets = harvest_labels(&cat, "video", "frame", &plan, &[clause]).unwrap();
        for s in sets[0].iter() {
            assert_eq!(s.label, s.features.to_dense()[0] > 0.0);
        }
    }

    #[test]
    fn trainer_builds_working_pp_and_negation() {
        let (cat, plan) = setup(600, 3);
        let clause = Clause::new("vehType", CompareOp::Eq, "SUV");
        let sets =
            harvest_labels(&cat, "video", "frame", &plan, std::slice::from_ref(&clause)).unwrap();
        let trainer = PpTrainer::new(TrainerConfig {
            cost_per_row: Some(0.01),
            ..base_config()
        });
        let pps = trainer.train_clause(&clause, &sets[0]).unwrap();
        assert_eq!(pps.len(), 2);
        assert_eq!(pps[0].key(), "vehType = SUV");
        assert_eq!(pps[1].key(), "vehType != SUV");
        assert!(pps[0].reduction(0.95).unwrap() > 0.2);
        // The negated PP must behave inversely.
        let pos_blob = Features::Dense(vec![2.5, 0.0]);
        assert!(pps[0].pipeline().passes(&pos_blob, 0.95).unwrap());
        assert!(!pps[1].pipeline().passes(&pos_blob, 0.95).unwrap());
    }

    fn base_config() -> TrainerConfig {
        TrainerConfig {
            train_frac: 0.8,
            val_frac: 0.2,
            selection: SelectionConfig {
                allow_dnn: false,
                ..Default::default()
            },
            approach_override: None,
            cost_per_row: None,
            train_negations: true,
            seed: 0,
        }
    }

    #[test]
    fn train_catalog_skips_single_class() {
        let (cat, plan) = setup(200, 4);
        let good = Clause::new("vehType", CompareOp::Eq, "SUV");
        let impossible = Clause::new("vehType", CompareOp::Eq, "spaceship");
        let sets = harvest_labels(
            &cat,
            "video",
            "frame",
            &plan,
            &[good.clone(), impossible.clone()],
        )
        .unwrap();
        let trainer = PpTrainer::new(TrainerConfig {
            cost_per_row: Some(0.01),
            ..base_config()
        });
        let pp_cat = trainer.train_catalog(&[good, impossible], &sets).unwrap();
        // Only the trainable clause (plus its negation) lands.
        assert_eq!(pp_cat.len(), 2);
    }

    #[test]
    fn mismatched_lengths_error() {
        let trainer = PpTrainer::new(base_config());
        let err = trainer.train_catalog(&[Clause::new("x", CompareOp::Eq, 1i64)], &[]);
        assert!(err.is_err());
    }
}
