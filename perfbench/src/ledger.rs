//! The outside-in per-layer ledger: after a traced run's load window,
//! each layer's public functions are replayed on a fixed sample of the
//! workload's queries and timed from here, as spans. Nothing inside the
//! program is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use pp_core::ProbabilisticPredicate;
use pp_engine::exec::ExecutionContext;
use pp_engine::{LogicalPlan, Rowset, Value};
use pp_linalg::block::{FeatureBatch, FeatureBlock};
use pp_linalg::kernels;
use pp_server::{encode_frame, Frame};
use pp_store::Segment;

use crate::setup::Stack;
use crate::span::Recorder;
use crate::stats::median;
use crate::verify::optimize;
use crate::workload::Schedule;

/// Queries replayed per workload: the first ids of its distinct set.
/// The segment scans take ~100× longer each, so fewer of them (two
/// TRAF-20 queries, each as a full scan and three pruned windows).
const REPLAY_QUERIES: usize = 40;
const REPLAY_QUERIES_ON_DISK: usize = 8;
/// Rows of the registered frames the scoring replays walk.
const REPLAY_ROWS: usize = 12_000;
/// Verdict rows per wire frame, as `pp_server::wire` chunks them.
const VERDICT_CHUNK_ROWS: usize = 256;
/// Repetitions of each timed call; the median is reported.
const REPS: usize = 3;

/// Per-layer numbers measured by replay (the rest come from the load
/// window's samples and the server's counters).
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub wire_encode_response_ns_per_row: f64,
    pub planner_optimize_us_per_query: f64,
    pub planner_candidates_per_query: f64,
    pub planner_predicted_reduction_mean: f64,
    pub engine_run_us_per_query_k1: f64,
    pub engine_run_us_per_query_k2: f64,
    pub engine_udf_rows_per_input_row: f64,
    pub engine_pp_rows_scored_per_input_row: f64,
    pub engine_residual_share: f64,
    pub ml_score_ns_per_row: f64,
    pub linalg_block_dot_ns_per_row: f64,
    pub linalg_bytes_per_row: f64,
    pub store_read_group_ns_per_row: f64,
    pub store_bytes_read_per_row: f64,
}

/// Median wall nanoseconds of `REPS` calls of `f`, each recorded as a
/// span.
fn timed(recorder: &mut Recorder, name: &'static str, seq: u64, mut f: impl FnMut()) -> f64 {
    let mut nanos: Vec<f64> = (0..REPS)
        .map(|_| recorder.time(name, 0, seq, &mut f) as f64)
        .collect();
    median(&mut nanos)
}

fn run_plan(stack: &Stack, plan: &LogicalPlan, parallelism: usize) -> (Rowset, ExecCounts) {
    let mut ctx = ExecutionContext::builder(&stack.catalog)
        .with_parallelism(parallelism)
        .build();
    let rows = ctx.run(plan).expect("replay the optimized plan");
    let mut counts = ExecCounts::default();
    for e in ctx.meter().entries() {
        // The meter names a UDF's operator `Process[<udf>]` and an
        // injected PP filter by the filter's own `PP…` display name.
        if e.op.starts_with("Process[") {
            counts.udf_ops += 1;
            counts.udf_rows += e.rows_in;
        } else if e.op.starts_with("PP") {
            counts.pp_rows += e.rows_in;
        }
    }
    (rows, counts)
}

#[derive(Debug, Clone, Copy, Default)]
struct ExecCounts {
    udf_ops: usize,
    udf_rows: usize,
    pp_rows: usize,
}

pub fn replay(stack: &Stack, schedule: &Schedule, recorder: &mut Recorder) -> Replayed {
    let mut out = Replayed::default();
    let queries = schedule.verified_queries().min(if stack.kind.on_disk() {
        REPLAY_QUERIES_ON_DISK
    } else {
        REPLAY_QUERIES
    });
    let n = queries as f64;

    // planner + engine, query by query.
    let mut optimize_ns = 0.0;
    let mut candidates = 0usize;
    let mut predicted_reduction = 0.0;
    let (mut run_k1_ns, mut run_k2_ns) = (0.0, 0.0);
    let (mut udf_share, mut pp_share) = (0.0, 0.0);
    let mut pp_rows_scored = 0usize;
    let mut input_rows_total = 0usize;
    let mut leaves: BTreeMap<String, Arc<ProbabilisticPredicate>> = BTreeMap::new();
    let (mut encode_ns, mut encode_rows) = (0.0, 0usize);
    for query_id in 0..queries {
        let scheduled = schedule.query(query_id);
        let seq = query_id as u64;
        let mut optimized = None;
        optimize_ns += timed(recorder, "planner.optimize", seq, || {
            optimized = Some(black_box(optimize(stack, black_box(&scheduled))));
        });
        let optimized = optimized.expect("timed at least once");
        candidates += optimized.report.candidates.len();
        if let Some(chosen) = &optimized.report.chosen {
            predicted_reduction += chosen.estimate.reduction;
            for key in &chosen.leaf_keys {
                if let Some(pp) = stack.pp_catalog.all().iter().find(|pp| pp.key() == *key) {
                    leaves.insert(key.clone(), Arc::clone(pp));
                }
            }
        }
        run_k1_ns += timed(recorder, "engine.run_k1", seq, || {
            black_box(run_plan(stack, &optimized.plan, 1));
        });
        run_k2_ns += timed(recorder, "engine.run_k2", seq, || {
            black_box(run_plan(stack, &optimized.plan, 2));
        });
        let (answer, counts) = run_plan(stack, &optimized.plan, 1);
        let input = scheduled.input_rows.max(1);
        input_rows_total += input;
        if counts.udf_ops > 0 {
            udf_share += counts.udf_rows as f64 / (counts.udf_ops * input) as f64;
        }
        pp_share += counts.pp_rows as f64 / input as f64;
        pp_rows_scored += counts.pp_rows;

        // wire: the server-side encoding of this query's verdict stream.
        let frames: Vec<Frame> = answer
            .rows()
            .chunks(VERDICT_CHUNK_ROWS)
            .map(|chunk| Frame::VerdictBatch {
                request_id: seq,
                rows: chunk.iter().map(|r| r.values().to_vec()).collect(),
            })
            .collect();
        if !frames.is_empty() {
            encode_ns += timed(recorder, "wire.encode_response", seq, || {
                for frame in &frames {
                    black_box(encode_frame(black_box(frame)));
                }
            });
            encode_rows += answer.len();
        }
    }
    out.planner_optimize_us_per_query = optimize_ns / n / 1e3;
    out.planner_candidates_per_query = candidates as f64 / n;
    out.planner_predicted_reduction_mean = predicted_reduction / n;
    out.engine_run_us_per_query_k1 = run_k1_ns / n / 1e3;
    out.engine_run_us_per_query_k2 = run_k2_ns / n / 1e3;
    out.engine_udf_rows_per_input_row = udf_share / n;
    out.engine_pp_rows_scored_per_input_row = pp_share / n;
    out.wire_encode_response_ns_per_row = encode_ns / encode_rows.max(1) as f64;

    // ml + linalg: every PP leaf the sampled plans use, over the same blobs.
    let blob_at = stack
        .registered
        .schema()
        .index_of("frame")
        .expect("blob column");
    let blobs: Vec<_> = stack
        .registered
        .rows()
        .iter()
        .take(REPLAY_ROWS)
        .map(|r| match r.get(blob_at) {
            Value::Blob(f) => Arc::clone(f),
            other => panic!("frame column holds {}", other.type_name()),
        })
        .collect();
    let dim = blobs.first().map_or(0, |f| f.dim());
    let block = FeatureBlock::from_features(dim, blobs.iter().map(|f| &**f))
        .expect("uniform blob dimensions");
    let rows = block.len().max(1) as f64;
    let mut score_ns = 0.0;
    for (i, pp) in leaves.values().enumerate() {
        score_ns += timed(recorder, "ml.score_many", i as u64, || {
            black_box(
                pp.pipeline()
                    .score_many(&FeatureBatch::Block(black_box(&block))),
            );
        });
    }
    out.ml_score_ns_per_row = score_ns / leaves.len().max(1) as f64 / rows;
    let weights: Vec<f64> = (0..dim).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut dots = Vec::with_capacity(block.len());
    let dot_ns = timed(recorder, "linalg.block_dot", 0, || {
        dots.clear();
        kernels::block_dot(black_box(block.as_slice()), black_box(&weights), &mut dots);
        black_box(&dots);
    });
    out.linalg_block_dot_ns_per_row = dot_ns / rows;
    out.linalg_bytes_per_row = (dim * std::mem::size_of::<f64>()) as f64;

    // store: decode every row group of every shard.
    let mut store_ns_per_row = 0.0;
    if let Some(seg) = &stack.segments {
        let shards: Vec<Segment> = seg
            .paths
            .iter()
            .map(|p| Segment::open(p).expect("open segment shard"))
            .collect();
        let mut bytes = 0u64;
        for shard in &shards {
            bytes += (0..shard.group_count())
                .map(|g| shard.group_bytes(g))
                .sum::<u64>();
        }
        let read_ns = timed(recorder, "store.read_groups", 0, || {
            for shard in &shards {
                for g in 0..shard.group_count() {
                    black_box(shard.read_group(g).expect("read row group"));
                }
            }
        });
        store_ns_per_row = read_ns / seg.rows.max(1) as f64;
        out.store_read_group_ns_per_row = store_ns_per_row;
        out.store_bytes_read_per_row = bytes as f64 / seg.rows.max(1) as f64;
    }

    // engine time the scoring and decode replays do not account for.
    let scoring_ns = pp_rows_scored as f64 * out.ml_score_ns_per_row;
    let decode_ns = input_rows_total as f64 * store_ns_per_row;
    if run_k1_ns > 0.0 {
        out.engine_residual_share = (1.0 - (scoring_ns + decode_ns) / run_k1_ns).max(0.0);
    }
    out
}
