//! One run of one workload: set-up (several times, median reported),
//! cache warm-up over the wire, the closed-loop load window, the in-process
//! verification pass, and for a traced run the per-layer ledger.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pp_server::{CacheStats, PpServer, WireOutcome};

use crate::ledger::{replay, Replayed};
use crate::loadgen::{frame_ids, Conn, Driver, Sample, STAGES};
use crate::machine::{MemoryKernel, Probe, Probed, Stopwatch, QUIET_QUANTILE};
use crate::setup::{SegmentStats, Stack, SCAN_MEMORY_BUDGET};
use crate::span::{self_times, write_jsonl, Recorder, Span};
use crate::spec::{END_TO_END, PER_LAYER, SETUP_REPS, WARMUP_SECONDS};
use crate::stats::{median, percentile_supported, quantile};
use crate::verify::{verify, FirstAnswer};
use crate::workload::{Kind, Schedule};

/// Share of a traced run's seconds measured with span recording off, as
/// the base for `trace.overhead_share`.
const TRACE_BASELINE_SHARE: f64 = 0.3;

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where segment shards go (removed when the run ends).
    pub scratch: PathBuf,
    /// Where the span JSONL of a traced run is left.
    pub out_dir: PathBuf,
}

/// Metric values under their contract names.
pub type Metrics = Vec<(&'static str, f64)>;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (`--trace 0`) or the per-layer ones.
    pub metrics: Metrics,
    /// Everything else worth a line in the human-readable report.
    pub notes: Vec<(String, String)>,
}

fn note(notes: &mut Vec<(String, String)>, key: &str, value: impl ToString) {
    notes.push((key.to_string(), value.to_string()));
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Sends every verified distinct query once over one connection, in id
/// order: this fills the plan cache for the workloads that repeat
/// queries, and keeps each query's first answer for the accuracy check.
fn warm_pass(stack: &Stack, schedule: &Schedule) -> (Vec<FirstAnswer>, Vec<Sample>) {
    let epoch = Instant::now();
    let mut firsts = Vec::with_capacity(schedule.verified_queries());
    let mut conns = [Conn::new(stack.connect())];
    let mut recorder = Recorder::new(epoch, 0);
    let samples = Driver {
        request: &|i| {
            let mut scheduled = schedule.query(i as usize);
            // The shared-scan path is what the load window measures;
            // warming through the solo path keeps its counters to that
            // window.
            scheduled.request.shared = false;
            scheduled
        },
        first_seq: 0,
        epoch,
        stop_ns: u64::MAX,
        trace_from_ns: u64::MAX,
        max_requests: schedule.verified_queries() as u64,
        milestone: (u64::MAX, &|| {}),
    }
    .run(&mut conns, &mut recorder, |response| {
        firsts.push(match &response.outcome {
            WireOutcome::Complete { columns, rows, .. } => FirstAnswer {
                complete: true,
                ids: frame_ids(columns, rows),
            },
            WireOutcome::Error { .. } => FirstAnswer {
                complete: false,
                ids: Vec::new(),
            },
        });
    });
    (firsts, samples)
}

/// A stretch of the load loop, in nanoseconds since its epoch.
type Stretch = std::ops::Range<u64>;

struct Loaded {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    /// The machine's speed all along the loop.
    probed: Probed,
    /// The measured stretch with span recording off (all of an untraced
    /// run's seconds).
    base: Stretch,
    /// The stretch with span recording on; traced runs only.
    traced: Option<Stretch>,
    /// `VmHWM` when the workload's milestone request was answered, if it
    /// has one and the loop got there.
    milestone_rss_mb: Option<f64>,
}

/// The closed-loop load: a discarded warm-up, then the measured seconds
/// (on a traced run split into an untraced base and a traced part). One
/// generator thread drives every connection in lockstep rounds, so one
/// round — one request, or on `shared_pairs` one pair — is in flight at a
/// time.
fn load(stack: &Stack, schedule: &Schedule, cfg: &RunConfig, first_seq: u64) -> Loaded {
    let warm_end = ns(WARMUP_SECONDS);
    let end = ns(WARMUP_SECONDS + cfg.seconds);
    let base_end = if cfg.traced {
        ns(WARMUP_SECONDS + cfg.seconds * TRACE_BASELINE_SHARE)
    } else {
        end
    };
    let kind = schedule.kind();
    let milestone_rss_kb = Cell::new(0);
    let at_milestone = || milestone_rss_kb.set(peak_rss_kb());
    let milestone = kind
        .rss_after_requests()
        .map_or(u64::MAX, |n| first_seq + n);
    let mut conns: Vec<Conn> = (0..kind.connections())
        .map(|_| Conn::new(stack.connect()))
        .collect();
    let epoch = Instant::now();
    let probe = Probe::start(epoch);
    let mut recorder = Recorder::new(epoch, 1);
    let samples = Driver {
        request: &|i| schedule.request(i),
        first_seq,
        epoch,
        stop_ns: end,
        trace_from_ns: if cfg.traced { base_end } else { u64::MAX },
        max_requests: u64::MAX,
        milestone: (milestone, &at_milestone),
    }
    .run(&mut conns, &mut recorder, |_| {});
    let milestone_rss_kb = milestone_rss_kb.get();
    Loaded {
        samples,
        spans: recorder.into_spans(),
        probed: probe.finish(),
        base: warm_end..base_end,
        traced: cfg.traced.then_some(base_end..end),
        milestone_rss_mb: (milestone_rss_kb > 0).then_some(milestone_rss_kb as f64 / 1024.0),
    }
}

/// The value of a mean unit of work of a stretch (see [`typical`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Typical {
    value: f64,
    /// Shapes seen in the stretch, and how often the rarest one was.
    shapes: usize,
    fewest_samples: usize,
}

/// What the load loop's timings are made of. `units` are `(shape, value)`
/// pairs of one stretch; every unit of a shape does the same work.
///
/// Per shape, the *quiet* value counts — the [`QUIET_QUANTILE`] of the
/// shape's values. What the host does to a unit (a stolen time slice, a
/// cold cache after one, a core that has to be woken) only ever adds to
/// it, and among the dozens to hundreds of repetitions of a shape in a run
/// the fastest ones were hit by next to none of that, in a quiet phase of
/// the host and in a noisy one alike; the very fastest is left out because
/// a CPU clock read while another thread still runs can come out short.
/// The result is the mean over the shapes: a mean unit on an undisturbed
/// machine.
fn typical(units: &[(usize, f64)]) -> Typical {
    let mut by_shape: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(shape, value) in units {
        by_shape.entry(shape).or_default().push(value);
    }
    let shapes = by_shape.len();
    Typical {
        fewest_samples: by_shape.values().map(Vec::len).min().unwrap_or(0),
        value: by_shape
            .values_mut()
            .map(|values| quantile(values, QUIET_QUANTILE))
            .sum::<f64>()
            / shapes.max(1) as f64,
        shapes,
    }
}

/// What a stretch of the load loop measured.
struct Measured<'a> {
    /// Verified-correct requests that completed in the stretch.
    completed: Vec<&'a Sample>,
    /// Those of them that also started in it, in schedule order.
    started: Vec<&'a Sample>,
    /// Requests sent in the stretch, whatever became of them.
    sent: usize,
    seconds: f64,
    /// Nominal over measured machine speed during the stretch.
    speed: f64,
}

/// One unit of work: a request, or on a lockstep workload a round.
struct Unit {
    shape: usize,
    queries: usize,
    /// First request written → last answer decoded, nanoseconds.
    latency_ns: f64,
    /// CPU time of the whole process meanwhile, nanoseconds.
    cpu_ns: f64,
}

impl<'a> Measured<'a> {
    fn new(
        stretch: &Stretch,
        probed: &Probed,
        samples: &'a [Sample],
        ok: impl Fn(&Sample) -> bool,
    ) -> Self {
        let completed: Vec<&Sample> = samples
            .iter()
            .filter(|s| ok(s) && stretch.contains(&(s.start_ns + s.latency_ns)))
            .collect();
        Measured {
            started: completed
                .iter()
                .copied()
                .filter(|s| stretch.contains(&s.start_ns))
                .collect(),
            completed,
            sent: samples
                .iter()
                .filter(|s| stretch.contains(&s.start_ns))
                .count(),
            seconds: (stretch.end - stretch.start) as f64 / 1e9,
            speed: probed.speed(stretch.start, stretch.end),
        }
    }

    /// The units of work of the stretch. A lockstep client waits for every
    /// answer of a round before it goes on, so there a unit is the round,
    /// under the shape of its first member, and not its members, which
    /// would split half and half into "ran first" and "ran second".
    fn units(&self, kind: Kind) -> Vec<Unit> {
        let round = kind.connections();
        self.started
            .chunk_by(|a, b| a.seq / round as u64 == b.seq / round as u64)
            .filter(|members| members.len() == round)
            .map(|members| {
                let start = members.iter().map(|s| s.start_ns).min().unwrap_or(0);
                let end = members.iter().map(|s| s.start_ns + s.latency_ns).max();
                Unit {
                    shape: members[0].shape,
                    queries: round,
                    latency_ns: (end.unwrap_or(0) - start) as f64,
                    cpu_ns: members[0].cpu_ns as f64,
                }
            })
            .collect()
    }

    /// CPU nanoseconds a mean query cost, at the nominal machine speed.
    fn cpu_per_query(&self, kind: Kind) -> Typical {
        let units: Vec<(usize, f64)> = self
            .units(kind)
            .iter()
            .map(|u| (u.shape, u.cpu_ns / u.queries as f64))
            .collect();
        let mut cost = typical(&units);
        cost.value *= self.speed;
        cost
    }
}

fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let schedule = Schedule::new(cfg.kind, cfg.seed);
    let mut notes: Vec<(String, String)> = Vec::new();
    note(&mut notes, "workload", cfg.kind.name());
    note(&mut notes, "frames", cfg.kind.frames());
    note(&mut notes, "train_frames", cfg.kind.train_frames());

    // Set-up, several times over; the last stack serves the run. A traced
    // run reports no set-up time, so it sets up once.
    let reps = if cfg.traced { 1 } else { SETUP_REPS };
    let mut setup_seconds = Vec::with_capacity(reps);
    let mut last: Option<Stack> = None;
    let reference = MemoryKernel::new();
    for rep in 0..reps {
        if let Some(stack) = last.take() {
            drop(stack.shutdown());
        }
        let speed = reference.speed();
        let watch = Stopwatch::start();
        let stack = Stack::build(cfg.kind, &cfg.scratch);
        let (wall, granted) = watch.stop();
        setup_seconds.push(granted * speed);
        let t = stack.times;
        note(
            &mut notes,
            &format!("setup.rep{rep}"),
            format!(
                "{:.4} s = {granted:.4} s granted of {wall:.4} s at memory speed {speed:.4} = generate {:.4} + train {:.4} + register {:.4} + server {:.4}",
                granted * speed, t.generate, t.train, t.register, t.server_start
            ),
        );
        last = Some(stack);
    }
    drop(reference);
    let stack = last.expect("at least one set-up");
    let setup_s = median(&mut setup_seconds);
    let started = Instant::now();
    let (firsts, warm_samples) = warm_pass(&stack, &schedule);
    note(
        &mut notes,
        "setup.warm_pass_s",
        format!("{:.4} s", started.elapsed().as_secs_f64()),
    );
    let segments: Option<SegmentStats> = stack.segments.clone();
    if let Some(seg) = &segments {
        note(&mut notes, "segments.file_bytes", seg.file_bytes);
        note(
            &mut notes,
            "segments.memory_budget_bytes",
            SCAN_MEMORY_BUDGET,
        );
    }

    // Load.
    let cache_before = stack.server.cache_stats();
    let first_seq = match schedule.distinct() {
        Some(_) => 0,
        // The warm pass already sent the verified prefix of the stream.
        None => schedule.verified_queries() as u64,
    };
    let loaded = load(&stack, &schedule, cfg, first_seq);
    let cache_after = stack.server.cache_stats();

    // Verify, untimed.
    let mut all_samples = warm_samples;
    all_samples.extend(loaded.samples.iter().cloned());
    let started = Instant::now();
    let verdict = verify(&stack, &schedule, &firsts, &all_samples);
    note(
        &mut notes,
        "verify.seconds",
        format!("{:.3}", started.elapsed().as_secs_f64()),
    );
    let queries = verdict.verified_queries.max(1) as f64;
    note(
        &mut notes,
        "verify.distinct_queries",
        verdict.verified_queries,
    );
    note(
        &mut notes,
        "verify.accuracy_misses",
        verdict.accuracy_misses,
    );
    note(
        &mut notes,
        "accuracy_miss_share",
        format!("{} ratio", verdict.accuracy_misses as f64 / queries),
    );
    note(&mut notes, "verify.accuracy_min", verdict.accuracy_min);
    note(
        &mut notes,
        "verify.nop_cluster_s_per_query",
        verdict.nop_cluster_s_per_query,
    );
    note(&mut notes, "verify.mismatched", verdict.mismatched);
    note(
        &mut notes,
        "failed_share",
        format!(
            "{} ratio",
            verdict.failed as f64 / verdict.attempted.max(1) as f64
        ),
    );

    // Replay the layers (traced runs only), then stop the server so its
    // counters are final.
    let mut replay_recorder = Recorder::new(Instant::now(), 0xFF);
    let replayed = cfg.traced.then(|| {
        let started = Instant::now();
        let r = replay(&stack, &schedule, &mut replay_recorder);
        note(
            &mut notes,
            "replay.seconds",
            format!("{:.3}", started.elapsed().as_secs_f64()),
        );
        r
    });
    let server = stack.shutdown();

    let ok = |s: &Sample| s.complete && !verdict.failed_queries.contains(&s.query_id);
    let base = Measured::new(&loaded.base, &loaded.probed, &loaded.samples, ok);
    let cost = base.cpu_per_query(cfg.kind);
    let (from, to) = (loaded.base.start, loaded.base.end);
    note(
        &mut notes,
        "probe.samples",
        loaded.probed.samples_in(from, to),
    );
    note(
        &mut notes,
        "probe.kernel_us",
        loaded.probed.kernel_ns(from, to).unwrap_or(0.0) / 1e3,
    );
    note(&mut notes, "probe.speed", base.speed);
    note(&mut notes, "cpu.shapes", cost.shapes);
    note(&mut notes, "cpu.fewest_samples", cost.fewest_samples);

    // What the wall clock saw of the same stretch: the host's doing as
    // much as the program's, so reported and not gated.
    let units = base.units(cfg.kind);
    let mut latencies: Vec<f64> = units.iter().map(|u| u.latency_ns).collect();
    let quiet: Vec<(usize, f64)> = units.iter().map(|u| (u.shape, u.latency_ns)).collect();
    let rows: usize = base.completed.iter().map(|s| s.input_rows).sum();
    note(&mut notes, "latency.samples", latencies.len());
    note(
        &mut notes,
        "latency.p95_supported",
        percentile_supported(latencies.len(), 0.95),
    );
    for (name, value, unit) in [
        (
            "queries_per_s",
            base.completed.len() as f64 / base.seconds,
            "1/s",
        ),
        ("rows_per_s", rows as f64 / base.seconds, "1/s"),
        ("quiet_ms", ms(typical(&quiet).value), "ms"),
        ("p50_ms", ms(quantile(&mut latencies, 0.5)), "ms"),
        ("p95_ms", ms(quantile(&mut latencies, 0.95)), "ms"),
    ] {
        note(
            &mut notes,
            &format!("wall.{name}"),
            format!("{value} {unit}"),
        );
    }

    let metrics = if let Some(stretch) = &loaded.traced {
        let traced = Measured::new(stretch, &loaded.probed, &loaded.samples, ok);
        let mut spans = loaded.spans;
        spans.extend(replay_recorder.into_spans());
        let path = cfg
            .out_dir
            .join(format!("spans-{}-{}.jsonl", cfg.kind.name(), cfg.seed));
        write_jsonl(&path, &spans).expect("write the span JSONL");
        note(&mut notes, "spans.path", path.display());
        note(&mut notes, "spans.count", spans.len());
        per_layer(&Ledger {
            kind: cfg.kind,
            base: &base,
            traced: &traced,
            spans: &spans,
            server: &server,
            cache: (cache_before, cache_after),
            replayed: &replayed.expect("traced runs replay the layers"),
            segments: segments.as_ref(),
        })
    } else {
        vec![
            ("setup_s", setup_s),
            ("cpu_ms_per_query", ms(cost.value)),
            ("cluster_s_per_query", verdict.cluster_s_per_query),
            (
                "accuracy_met_share",
                1.0 - verdict.accuracy_misses as f64 / queries,
            ),
            (
                "peak_rss_mb",
                loaded
                    .milestone_rss_mb
                    .unwrap_or(peak_rss_kb() as f64 / 1024.0),
            ),
        ]
    };

    // A run emits exactly the contract's metrics, in its order.
    let emitted: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    let contract: Vec<&str> = if cfg.traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(
        emitted, contract,
        "emitted metrics differ from the contract"
    );

    RunResult {
        correct: verdict.failed == 0 && verdict.attempted > 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    }
}

/// What the per-layer ledger is computed from.
struct Ledger<'a> {
    kind: Kind,
    base: &'a Measured<'a>,
    traced: &'a Measured<'a>,
    spans: &'a [Span],
    server: &'a PpServer,
    /// Plan-cache counters before and after the load loop.
    cache: (CacheStats, CacheStats),
    replayed: &'a Replayed,
    segments: Option<&'a SegmentStats>,
}

/// The per-layer metrics of a traced run, in contract order.
fn per_layer(l: &Ledger<'_>) -> Metrics {
    let samples: &[&Sample] = &l.traced.started;
    let sum = |f: &dyn Fn(&Sample) -> u64| samples.iter().map(|s| f(s) as f64).sum::<f64>();
    let counter = |name: &str| l.server.metrics().counter(name).get() as f64;
    let r = l.replayed;

    // server: the stage waterfall each response carried.
    let stage = |name: &str, q: f64| {
        let i = STAGES.iter().position(|s| *s == name).expect("known stage");
        let mut v: Vec<f64> = samples
            .iter()
            .map(|s| s.stage_ns[i] as f64)
            .filter(|&n| n > 0.0)
            .collect();
        quantile(&mut v, q) / 1e3
    };
    let mut encode: Vec<f64> = samples.iter().map(|s| s.encode_ns as f64).collect();
    let mut server_totals: Vec<f64> = samples.iter().map(|s| s.server_total_ns as f64).collect();

    // cache: counters over the whole load loop.
    let (before, after) = l.cache;
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;

    // sharedscan and store: final counters of the stopped server.
    let windows = counter("server.sharedscan.windows_total");
    let members = counter("server.sharedscan.window_queries_total");
    let invoked = counter("server.sharedscan.udf_invocations_total");
    let saved = counter("server.sharedscan.udf_invocations_saved_total");
    let pruned = counter("store.row_groups_pruned_total");
    let scanned = counter("store.row_groups_scanned_total");

    // No scaling ratio from a one-thread box (ROADMAP aim 1): 0 stands
    // for "refused".
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = if hardware_threads > 1 {
        share(r.engine_run_us_per_query_k1, r.engine_run_us_per_query_k2)
    } else {
        eprintln!("perfbench: engine.parallel_speedup refused: one hardware thread");
        0.0
    };

    // trace: the ledger's honesty check.
    let cost_base = l.base.cpu_per_query(l.kind).value;
    let cost_traced = l.traced.cpu_per_query(l.kind).value;
    let selfs: HashMap<u64, u64> = self_times(l.spans).into_iter().collect();
    let (mut request_ns, mut unexplained_ns) = (0.0, 0.0);
    for s in l.spans.iter().filter(|s| s.name == "request") {
        request_ns += s.nanos() as f64;
        unexplained_ns += selfs[&s.id] as f64;
    }

    vec![
        ("wire.encode_request_ns", median(&mut encode)),
        (
            "wire.decode_response_ns_per_row",
            share(sum(&|s| s.decode_ns), sum(&|s| s.rows as u64)),
        ),
        (
            "wire.encode_response_ns_per_row",
            r.wire_encode_response_ns_per_row,
        ),
        (
            "wire.bytes_per_response",
            share(sum(&|s| s.response_bytes as u64), samples.len() as f64),
        ),
        ("server.admission_p50_us", stage("admission", 0.5)),
        ("server.queue_p50_us", stage("queue", 0.5)),
        ("server.queue_p95_us", stage("queue", 0.95)),
        ("server.window_p50_us", stage("window", 0.5)),
        ("server.cache_p50_us", stage("cache", 0.5)),
        ("server.execute_p50_us", stage("execute", 0.5)),
        ("server.respond_p50_us", stage("respond", 0.5)),
        ("server.p99_ms", ms(quantile(&mut server_totals, 0.99))),
        (
            "server.stage_sum_share",
            share(sum(&|s| s.server_total_ns), sum(&|s| s.latency_ns)),
        ),
        ("cache.hit_share", share(hits, hits + misses)),
        ("cache.builds", (after.builds - before.builds) as f64),
        ("cache.evicted", (after.evicted - before.evicted) as f64),
        ("sharedscan.window_size_mean", share(members, windows)),
        (
            "sharedscan.udf_calls_saved_share",
            share(saved, invoked + saved),
        ),
        (
            "planner.optimize_us_per_query",
            r.planner_optimize_us_per_query,
        ),
        (
            "planner.candidates_per_query",
            r.planner_candidates_per_query,
        ),
        (
            "planner.predicted_reduction_mean",
            r.planner_predicted_reduction_mean,
        ),
        ("engine.run_us_per_query_k1", r.engine_run_us_per_query_k1),
        ("engine.run_us_per_query_k2", r.engine_run_us_per_query_k2),
        ("engine.parallel_speedup", speedup),
        (
            "engine.udf_rows_per_input_row",
            r.engine_udf_rows_per_input_row,
        ),
        (
            "engine.pp_rows_scored_per_input_row",
            r.engine_pp_rows_scored_per_input_row,
        ),
        ("engine.residual_share", r.engine_residual_share),
        ("ml.score_ns_per_row", r.ml_score_ns_per_row),
        ("linalg.block_dot_ns_per_row", r.linalg_block_dot_ns_per_row),
        ("linalg.bytes_per_row", r.linalg_bytes_per_row),
        ("store.read_group_ns_per_row", r.store_read_group_ns_per_row),
        ("store.bytes_read_per_row", r.store_bytes_read_per_row),
        ("store.groups_pruned_share", share(pruned, pruned + scanned)),
        (
            "store.write_rows_per_s",
            l.segments
                .map_or(0.0, |s| share(s.rows as f64, s.write_seconds)),
        ),
        ("loadgen.sent", l.traced.sent as f64),
        ("loadgen.completed", l.traced.completed.len() as f64),
        ("loadgen.samples", samples.len() as f64),
        (
            "loadgen.client_busy_share",
            share(sum(&|s| s.busy_ns), l.traced.seconds * 1e9),
        ),
        (
            "trace.overhead_share",
            share(cost_traced - cost_base, cost_base),
        ),
        ("trace.unexplained_share", share(unexplained_ns, request_ns)),
    ]
}

/// The directories a run writes into, both next to the benchmark's
/// executable — inside the checkout's build directory, never the working
/// tree: a per-process scratch directory and a lasting output directory.
pub fn work_dirs() -> (PathBuf, PathBuf) {
    let exe = std::env::current_exe().expect("path of the benchmark executable");
    let base = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    let scratch = base
        .join("perfbench-scratch")
        .join(std::process::id().to_string());
    let out = base.join("perfbench-out");
    for dir in [&scratch, &out] {
        std::fs::create_dir_all(dir).expect("create a work directory");
    }
    (scratch, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_is_the_mean_over_the_shapes_of_the_quiet_value_per_shape() {
        // Shape 7 three times, one of them with 9 ms stolen; shape 2 once.
        let units = [(7, 4.0e6), (2, 1.0e6), (7, 13.0e6), (7, 3.0e6)];
        let t = typical(&units);
        assert_eq!((t.shapes, t.fewest_samples), (2, 1));
        // The quiet quantile of 3, 4, 13 lies that share of the way from
        // 3 to 13, two steps, so between 3 and 4.
        let quiet = 3.0e6 + QUIET_QUANTILE * 2.0 * 1.0e6;
        assert!(
            (t.value - (quiet + 1.0e6) / 2.0).abs() < 1e-3,
            "{}",
            t.value
        );
        let none = typical(&[]);
        assert_eq!((none.value, none.shapes, none.fewest_samples), (0.0, 0, 0));
    }

    /// One short traced run end to end: the answers verify, every
    /// per-layer metric of the contract is emitted (`run` asserts the
    /// names), and the ledger shows what `serve_cold` is for.
    #[test]
    fn a_traced_serve_cold_run_verifies_and_fills_the_ledger() {
        let (scratch, out_dir) = work_dirs();
        let result = run(&RunConfig {
            kind: Kind::ServeCold,
            seed: 11,
            seconds: 1.0,
            traced: true,
            scratch: scratch.clone(),
            out_dir: out_dir.clone(),
        });
        let _ = std::fs::remove_dir_all(&scratch);
        assert!(result.correct, "{} requests failed", result.failed);
        assert!(result.attempted > 400, "the warm pass alone sends 400");
        let metric = |name: &str| {
            result
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("a per-layer metric")
        };
        assert!(metric("cache.hit_share") <= 0.05);
        assert!(metric("cache.builds") > 0.0);
        assert!(metric("planner.optimize_us_per_query") > 0.0);
        assert_eq!(metric("store.read_group_ns_per_row"), 0.0);
        assert_eq!(metric("sharedscan.udf_calls_saved_share"), 0.0);
        let spans = std::fs::read_to_string(out_dir.join("spans-serve_cold-11.jsonl"))
            .expect("the span JSONL");
        assert!(spans.lines().any(|l| l.contains("\"name\": \"request\"")));
        assert!(spans
            .lines()
            .any(|l| l.contains("\"name\": \"planner.optimize\"")));
    }
}
