//! The DETRAC-like traffic-surveillance dataset (§7 Case 4).
//!
//! Each frame carries one vehicle with latent attributes — type, color,
//! speed, entry ("from") and exit ("to") intersection — that drive both
//! the raw blob features (attribute embeddings plus noise) and the ground
//! truth the ML UDFs recover. The UDFs play the role of the paper's
//! "vehicle detection, color and type classification, traffic flow
//! estimation" operators: each reads the frame, charges its (large)
//! simulated per-row cost, and emits the attribute column.

use std::sync::Arc;

use pp_engine::predicate::{Clause, CompareOp};
use pp_engine::udf::{ClosureProcessor, Processor};
use pp_engine::{Catalog, Column, DataType, Row, Rowset, Schema, Value};
use pp_linalg::Features;
use pp_ml::dataset::{LabeledSet, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::{add_noise, embedding, weighted_choice};

/// Vehicle types, as in DETRAC's annotations.
pub const VEH_TYPES: [&str; 4] = ["sedan", "SUV", "truck", "van"];
/// Vehicle colors, as manually annotated by the paper's authors.
pub const VEH_COLORS: [&str; 5] = ["red", "black", "white", "silver", "other"];
/// Traffic intersections (the paper's `ptX` identifiers).
pub const INTERSECTIONS: [&str; 6] = ["pt101", "pt211", "pt303", "pt306", "pt335", "pt400"];

/// Where the blob column, `frame`, sits in the traffic table.
const FRAME_COLUMN: usize = 2;

/// Latent ground truth for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTruth {
    /// Vehicle type.
    pub veh_type: &'static str,
    /// Vehicle color.
    pub color: &'static str,
    /// Speed in mph (0–80).
    pub speed: f64,
    /// Entry intersection.
    pub from: &'static str,
    /// Exit intersection.
    pub to: &'static str,
}

/// Per-UDF simulated costs in cluster seconds per row — chosen in the
/// tens-of-milliseconds range the paper's Table 9 reports for subsequent
/// UDFs.
#[derive(Debug, Clone, Copy)]
pub struct UdfCosts {
    /// vehType classifier.
    pub veh_type: f64,
    /// vehColor classifier.
    pub color: f64,
    /// Speed estimator (optical-flow-style, pricier).
    pub speed: f64,
    /// Entry-intersection tracker.
    pub from: f64,
    /// Exit-intersection tracker.
    pub to: f64,
}

impl Default for UdfCosts {
    fn default() -> Self {
        UdfCosts {
            veh_type: 0.025,
            color: 0.023,
            speed: 0.030,
            from: 0.016,
            to: 0.016,
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of frames.
    pub n_frames: usize,
    /// Blob dimensionality.
    pub blob_dim: usize,
    /// Number of cameras (round-robin over frames).
    pub cameras: usize,
    /// UDF cost model.
    pub udf_costs: UdfCosts,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            n_frames: 2_000,
            blob_dim: 64,
            cameras: 8,
            udf_costs: UdfCosts::default(),
            seed: 0,
        }
    }
}

/// The generated dataset: blob table, ground truth, and UDFs.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    config: TrafficConfig,
    truths: Arc<Vec<FrameTruth>>,
    table: Arc<Rowset>,
}

impl TrafficDataset {
    /// Generates the dataset.
    pub fn generate(config: TrafficConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let type_w = [0.50, 0.20, 0.10, 0.20];
        let color_w = [0.08, 0.25, 0.30, 0.22, 0.15];
        let mut truths = Vec::with_capacity(config.n_frames);
        let mut rows = Vec::with_capacity(config.n_frames);
        for i in 0..config.n_frames {
            let veh_type = VEH_TYPES[weighted_choice(&type_w, &mut rng)];
            let color = VEH_COLORS[weighted_choice(&color_w, &mut rng)];
            // Speed: bulk between 25 and 65, with a fast tail.
            let speed = if rng.gen_bool(0.15) {
                rng.gen_range(60.0..80.0)
            } else {
                rng.gen_range(20.0..62.0)
            };
            let from = INTERSECTIONS[rng.gen_range(0..INTERSECTIONS.len())];
            let to = loop {
                let t = INTERSECTIONS[rng.gen_range(0..INTERSECTIONS.len())];
                if t != from {
                    break t;
                }
            };
            let truth = FrameTruth {
                veh_type,
                color,
                speed,
                from,
                to,
            };
            let blob = Self::render(&truth, &config, &mut rng);
            rows.push(Row::new(vec![
                Value::Int((i % config.cameras) as i64),
                Value::Int(i as i64),
                Value::blob(blob),
            ]));
            truths.push(truth);
        }
        let schema = Schema::new(vec![
            Column::new("cameraID", DataType::Int),
            Column::new("frameID", DataType::Int),
            Column::new("frame", DataType::Blob),
        ]);
        // Three distinct names, and three cells in every row above.
        let Ok(table) = schema.and_then(|schema| Rowset::new(schema, rows)) else {
            unreachable!("the traffic table is well-formed by construction")
        };
        TrafficDataset {
            truths: Arc::new(truths),
            table: Arc::new(table),
            config,
        }
    }

    /// Renders the raw frame blob from its latent attributes: a linear mix
    /// of attribute embeddings plus noise (SVM-learnable per clause, which
    /// is why the paper's 32 TRAF PPs "are all trained using SVMs").
    fn render(truth: &FrameTruth, config: &TrafficConfig, rng: &mut StdRng) -> Features {
        let d = config.blob_dim;
        let seed = 0x7AF1C; // embeddings shared across dataset instances
        let mut v = vec![0.0; d];
        pp_linalg::dense::axpy(
            2.2,
            &embedding(d, &format!("type-{}", truth.veh_type), seed),
            &mut v,
        );
        pp_linalg::dense::axpy(
            2.0,
            &embedding(d, &format!("color-{}", truth.color), seed),
            &mut v,
        );
        let speed_signal = (truth.speed / 80.0 - 0.5) * 4.0;
        pp_linalg::dense::axpy(speed_signal, &embedding(d, "speed-direction", seed), &mut v);
        pp_linalg::dense::axpy(
            1.5,
            &embedding(d, &format!("from-{}", truth.from), seed),
            &mut v,
        );
        pp_linalg::dense::axpy(
            1.5,
            &embedding(d, &format!("to-{}", truth.to), seed),
            &mut v,
        );
        add_noise(&mut v, 0.3, rng);
        Features::Dense(v)
    }

    /// The dataset's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.truths.len()
    }

    /// True when the dataset has no frames.
    pub fn is_empty(&self) -> bool {
        self.truths.is_empty()
    }

    /// Ground truth for a frame.
    pub fn truth(&self, frame: usize) -> &FrameTruth {
        &self.truths[frame]
    }

    /// Registers the blob table as `traffic` in an engine catalog.
    pub fn register(&self, catalog: &mut Catalog) {
        catalog.register_shared("traffic", self.table.clone());
    }

    /// Registers only a frame range as `traffic` (online setting: PPs are
    /// trained on the first chunk of the stream and queries run on the
    /// rest, §8.2).
    pub fn register_slice(&self, catalog: &mut Catalog, range: std::ops::Range<usize>) {
        let rows: Vec<Row> = self.table.rows()[range].to_vec();
        // The rows are the table's own, so they fit its schema.
        let Ok(slice) = Rowset::new(self.table.schema().clone(), rows) else {
            unreachable!("a slice of a table fits the table's schema")
        };
        catalog.register("traffic", slice);
    }

    /// Like [`Self::labeled_for_clause`] but restricted to a frame range.
    pub fn labeled_for_clause_range(
        &self,
        clause: &Clause,
        range: std::ops::Range<usize>,
    ) -> LabeledSet {
        // Collected unchecked: every frame is a blob rendered at
        // `config.blob_dim`, so the samples share one dimension.
        range
            .map(|i| {
                let Value::Blob(blob) = self.table.rows()[i].get(FRAME_COLUMN) else {
                    unreachable!("`generate` puts a blob in every frame cell")
                };
                Sample::new((**blob).clone(), self.clause_truth(clause, i))
            })
            .collect()
    }

    /// The blob table.
    pub fn table(&self) -> &Arc<Rowset> {
        &self.table
    }

    /// The ML UDF materializing one predicate column
    /// (`vehType`, `vehColor`, `speed`, `fromI`, `toI`).
    pub fn udf(&self, column: &str) -> Option<Arc<dyn Processor>> {
        type TruthGetter = Box<dyn Fn(&FrameTruth) -> Value + Send + Sync>;
        // A categorical is one of a handful of strings: build each once
        // and hand out clones, a reference-count bump instead of a string
        // allocation per row.
        fn interned(
            domain: &'static [&'static str],
            pick: fn(&FrameTruth) -> &'static str,
        ) -> TruthGetter {
            let values: Vec<Value> = domain.iter().map(Value::str).collect();
            Box::new(move |t| {
                let label = pick(t);
                match domain.iter().position(|d| *d == label) {
                    Some(i) => values[i].clone(),
                    None => Value::str(label),
                }
            })
        }
        let truths = self.truths.clone();
        let costs = self.config.udf_costs;
        let (name, dtype, cost, get): (&str, DataType, f64, TruthGetter) = match column {
            "vehType" => (
                "VehTypeClassifier",
                DataType::Str,
                costs.veh_type,
                interned(&VEH_TYPES, |t| t.veh_type),
            ),
            "vehColor" => (
                "VehColorClassifier",
                DataType::Str,
                costs.color,
                interned(&VEH_COLORS, |t| t.color),
            ),
            "speed" => (
                "SpeedEstimator",
                DataType::Float,
                costs.speed,
                Box::new(|t: &FrameTruth| Value::Float(t.speed)),
            ),
            "fromI" => (
                "EntryTracker",
                DataType::Str,
                costs.from,
                interned(&INTERSECTIONS, |t| t.from),
            ),
            "toI" => (
                "ExitTracker",
                DataType::Str,
                costs.to,
                interned(&INTERSECTIONS, |t| t.to),
            ),
            _ => return None,
        };
        let out_col = Column::new(column, dtype);
        Some(Arc::new(ClosureProcessor::map(
            name,
            vec![out_col],
            cost,
            move |row, schema, out| {
                let frame = row.get_named(schema, "frameID")?.as_int()? as usize;
                let truth = truths.get(frame).ok_or_else(|| {
                    pp_engine::EngineError::Udf(format!("frame {frame} out of range"))
                })?;
                out.push(get(truth));
                Ok(())
            },
        )))
    }

    /// The finite domains of the predicate columns (for the wrangler).
    pub fn column_domains() -> Vec<(String, Vec<Value>)> {
        vec![
            ("vehType".into(), VEH_TYPES.iter().map(Value::str).collect()),
            (
                "vehColor".into(),
                VEH_COLORS.iter().map(Value::str).collect(),
            ),
            (
                "fromI".into(),
                INTERSECTIONS.iter().map(Value::str).collect(),
            ),
            ("toI".into(), INTERSECTIONS.iter().map(Value::str).collect()),
        ]
    }

    /// Evaluates a clause against a frame's ground truth.
    pub fn clause_truth(&self, clause: &Clause, frame: usize) -> bool {
        let t = &self.truths[frame];
        let value = match clause.column.as_str() {
            "vehType" => Value::str(t.veh_type),
            "vehColor" => Value::str(t.color),
            "speed" => Value::Float(t.speed),
            "fromI" => Value::str(t.from),
            "toI" => Value::str(t.to),
            _ => return false,
        };
        clause.op.eval(&value, &clause.value)
    }

    /// Builds the labeled blob set for one clause directly from ground
    /// truth (equivalent to harvesting labels by running the UDF plan —
    /// the UDFs recover the truth exactly).
    pub fn labeled_for_clause(&self, clause: &Clause) -> LabeledSet {
        self.labeled_for_clause_range(clause, 0..self.len())
    }

    /// The PP training corpus of §8.2: equality clauses for the
    /// categorical columns plus boundary comparisons for speed ("PPs for
    /// speed are of the type s ≥ v1 ∈ {40, 50, 60} or s ≤ v2 ∈ {65, 70}").
    /// Inequality (≠) PPs come free via negation training (§5.6).
    pub fn pp_corpus_clauses() -> Vec<Clause> {
        let mut out = Vec::new();
        for t in VEH_TYPES {
            out.push(Clause::new("vehType", CompareOp::Eq, t));
        }
        for c in VEH_COLORS {
            out.push(Clause::new("vehColor", CompareOp::Eq, c));
        }
        for v in [40.0, 50.0, 60.0] {
            out.push(Clause::new("speed", CompareOp::Ge, v));
        }
        for v in [65.0, 70.0] {
            out.push(Clause::new("speed", CompareOp::Le, v));
        }
        for i in INTERSECTIONS {
            out.push(Clause::new("fromI", CompareOp::Eq, i));
            out.push(Clause::new("toI", CompareOp::Eq, i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::exec::ExecutionContext;
    use pp_engine::{LogicalPlan, Predicate};

    fn small() -> TrafficDataset {
        TrafficDataset::generate(TrafficConfig {
            n_frames: 300,
            ..Default::default()
        })
    }

    #[test]
    fn attribute_distributions_are_plausible() {
        let d = TrafficDataset::generate(TrafficConfig {
            n_frames: 3_000,
            ..Default::default()
        });
        let sedans = (0..d.len())
            .filter(|&i| d.truth(i).veh_type == "sedan")
            .count();
        let s = sedans as f64 / d.len() as f64;
        assert!((0.4..0.6).contains(&s), "sedan share {s}");
        let fast = (0..d.len()).filter(|&i| d.truth(i).speed > 60.0).count();
        let f = fast as f64 / d.len() as f64;
        assert!((0.1..0.3).contains(&f), "fast share {f}");
        let reds = (0..d.len()).filter(|&i| d.truth(i).color == "red").count();
        let r = reds as f64 / d.len() as f64;
        assert!((0.03..0.15).contains(&r), "red share {r}");
    }

    #[test]
    fn udfs_recover_ground_truth() {
        let d = small();
        let mut cat = Catalog::new();
        d.register(&mut cat);
        let plan = LogicalPlan::scan("traffic")
            .process(d.udf("vehType").unwrap())
            .process(d.udf("speed").unwrap());
        let mut ctx = ExecutionContext::new(&cat);
        let out = ctx.run(&plan).unwrap();
        assert_eq!(out.len(), d.len());
        let schema = out.schema().clone();
        for row in out.rows() {
            let frame = row.get_named(&schema, "frameID").unwrap().as_int().unwrap() as usize;
            let t = row.get_named(&schema, "vehType").unwrap().as_str().unwrap();
            assert_eq!(t, d.truth(frame).veh_type);
            let s = row.get_named(&schema, "speed").unwrap().as_float().unwrap();
            assert_eq!(s, d.truth(frame).speed);
        }
        // UDF costs were charged.
        let secs = ctx.meter().cluster_seconds();
        let expect = d.len() as f64 * (0.025 + 0.030);
        assert!((secs - expect).abs() / expect < 0.01, "secs={secs}");
    }

    #[test]
    fn clause_truth_matches_select() {
        let d = small();
        let mut cat = Catalog::new();
        d.register(&mut cat);
        let clause = Clause::new("vehType", CompareOp::Eq, "SUV");
        let plan = LogicalPlan::scan("traffic")
            .process(d.udf("vehType").unwrap())
            .select(Predicate::Clause(clause.clone()));
        let out = ExecutionContext::new(&cat).run(&plan).unwrap();
        let truth_count = (0..d.len()).filter(|&i| d.clause_truth(&clause, i)).count();
        assert_eq!(out.len(), truth_count);
    }

    #[test]
    fn labeled_sets_are_svm_learnable() {
        use pp_ml::pipeline::{Approach, ModelSpec, Pipeline};
        use pp_ml::reduction::ReducerSpec;
        use pp_ml::svm::SvmParams;
        let d = TrafficDataset::generate(TrafficConfig {
            n_frames: 1_200,
            ..Default::default()
        });
        for clause in [
            Clause::new("vehType", CompareOp::Eq, "SUV"),
            Clause::new("speed", CompareOp::Ge, 60.0),
        ] {
            let set = d.labeled_for_clause(&clause);
            let (train, val, _) = set.split(0.7, 0.3, 1).unwrap();
            let pp = Pipeline::train(
                &Approach {
                    reducer: ReducerSpec::Identity,
                    model: ModelSpec::Svm(SvmParams::default()),
                },
                &train,
                &val,
                2,
            )
            .unwrap();
            let r = pp.reduction(0.95).unwrap();
            assert!(r > 0.3, "clause {clause}: r={r}");
        }
    }

    #[test]
    fn corpus_clause_inventory() {
        let clauses = TrafficDataset::pp_corpus_clauses();
        // 4 types + 5 colors + 5 speed boundaries + 12 intersections.
        assert_eq!(clauses.len(), 26);
        assert!(clauses.iter().any(|c| c.to_string() == "speed >= 60"));
        assert!(clauses.iter().any(|c| c.to_string() == "toI = pt335"));
    }

    #[test]
    fn unknown_udf_is_none() {
        let d = small();
        assert!(d.udf("nope").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.truth(42), b.truth(42));
    }
}
