//! Multi-query equivalence suite for cross-query shared-scan batching
//! (`PpServer::submit` of a `QueryRequest::shared()` request).
//!
//! The contract under test: window-batched queries share expensive UDF
//! work (each UDF runs at most once per blob per window — asserted with
//! counting UDF shims *and* the server's `server.sharedscan.*` metrics)
//! while every per-query observable — verdict rows, `PlanReport`,
//! `CostMeter` charges, telemetry snapshot — is byte-identical to the
//! same query submitted solo, across parallelism × batch size,
//! under mid-window epoch publishes, and under injected worker
//! panics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use probabilistic_predicates::core::catalog::CatalogEpoch;
use probabilistic_predicates::core::train::{PpTrainer, TrainerConfig};
use probabilistic_predicates::core::wrangle::Domains;
use probabilistic_predicates::core::PpCatalog;
use probabilistic_predicates::data::traf20::traf20_queries;
use probabilistic_predicates::data::traffic::{TrafficConfig, TrafficDataset};
use probabilistic_predicates::engine::{Column, MetricValue, Processor, RowRef, Schema};
use probabilistic_predicates::ml::pipeline::{Approach, ModelSpec};
use probabilistic_predicates::ml::reduction::ReducerSpec;
use probabilistic_predicates::ml::svm::SvmParams;
use probabilistic_predicates::server::{
    PpServer, QueryOutcome, QueryRequest, QuerySuccess, ServerConfig, ServerFaults,
    SharedScanConfig, SourceRegistry, SourceSpec,
};

const UDF_COLUMNS: [&str; 5] = ["vehType", "vehColor", "speed", "fromI", "toI"];
const TABLE_ROWS: u64 = 400;

/// A pass-through UDF shim that counts actual invocations of the wrapped
/// processor — the ground truth the memo metrics are checked against.
struct CountingUdf {
    inner: Arc<dyn Processor>,
    calls: Arc<AtomicU64>,
}

impl Processor for CountingUdf {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn output_columns(&self) -> &[Column] {
        self.inner.output_columns()
    }
    fn cost_per_row(&self) -> f64 {
        self.inner.cost_per_row()
    }
    fn process(
        &self,
        row: RowRef<'_>,
        schema: &Schema,
        out: &mut Vec<probabilistic_predicates::engine::Value>,
    ) -> probabilistic_predicates::engine::Result<()> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.process(row, schema, out)
    }
}

struct Fixture {
    dataset: TrafficDataset,
    catalog: probabilistic_predicates::engine::Catalog,
    pp_catalog: PpCatalog,
    domains: Domains,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: 800,
            seed: 0x9A12,
            ..Default::default()
        });
        let trainer = PpTrainer::new(TrainerConfig {
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(0.0025),
            ..Default::default()
        });
        let clauses = TrafficDataset::pp_corpus_clauses();
        let labeled: Vec<_> = clauses
            .iter()
            .map(|c| dataset.labeled_for_clause_range(c, 0..400))
            .collect();
        let pp_catalog = trainer.train_catalog(&clauses, &labeled).expect("train");
        let mut domains = Domains::new();
        for (col, values) in TrafficDataset::column_domains() {
            domains.declare(col, values);
        }
        let mut catalog = probabilistic_predicates::engine::Catalog::new();
        dataset.register_slice(&mut catalog, 400..800);
        Fixture {
            dataset,
            catalog,
            pp_catalog,
            domains,
        }
    })
}

/// Per-test source registry: fresh counting shims around the fixture's
/// UDFs so invocation counts never bleed between (parallel) tests.
/// `extra_sources` registers additional names over the same table.
fn counted_sources(extra_sources: &[&str]) -> (SourceRegistry, BTreeMap<String, Arc<AtomicU64>>) {
    let f = fixture();
    let mut counts = BTreeMap::new();
    let mut sources = SourceRegistry::new();
    for name in std::iter::once("traffic").chain(extra_sources.iter().copied()) {
        let mut spec = SourceSpec::new("traffic");
        for col in UDF_COLUMNS {
            let calls = Arc::new(AtomicU64::new(0));
            spec = spec.with_udf(
                col,
                Arc::new(CountingUdf {
                    inner: f.dataset.udf(col).expect("known column"),
                    calls: Arc::clone(&calls),
                }),
            );
            counts.insert(format!("{name}.{col}"), calls);
        }
        sources.register(name, spec);
    }
    (sources, counts)
}

fn make_server(
    workers: usize,
    sharedscan: SharedScanConfig,
    faults: Option<ServerFaults>,
    extra_sources: &[&str],
) -> (PpServer, BTreeMap<String, Arc<AtomicU64>>) {
    let f = fixture();
    let (sources, counts) = counted_sources(extra_sources);
    let server = PpServer::new(
        ServerConfig {
            workers,
            sharedscan,
            faults,
            ..Default::default()
        },
        f.catalog.clone(),
        sources,
        f.pp_catalog.clone(),
        f.domains.clone(),
    );
    (server, counts)
}

fn total_calls(counts: &BTreeMap<String, Arc<AtomicU64>>) -> u64 {
    counts.values().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// One canonical line per success covering every per-query observable:
/// epoch, cache-hit flag, full verdict rows, the optimizer's report
/// (wall-clock zeroed), and the telemetry snapshot (wall-clock zeroed;
/// includes the `CostMeter` charges).
fn canonical(s: &QuerySuccess) -> String {
    let mut tel = s.telemetry.clone();
    tel.zero_wall_clock();
    let mut report = (*s.report).clone();
    report.optimize_seconds = 0.0;
    format!(
        "epoch={} hit={} rows={:?} report={report:?} tel={}",
        s.epoch,
        s.cache_hit,
        s.rows.rows(),
        tel.to_json()
    )
}

fn wait_success(server: &PpServer, mut req: QueryRequest, shared: bool) -> QuerySuccess {
    req.shared = shared;
    let ticket = server.submit(req).expect("admitted");
    match ticket.wait().outcome {
        QueryOutcome::Complete(s) => *s,
        other => panic!("expected completion, got {other:?}"),
    }
}

fn traf_requests(parallelism: usize, batch: usize) -> Vec<QueryRequest> {
    traf20_queries()
        .into_iter()
        .filter(|q| q.id <= 4)
        .map(|q| {
            QueryRequest::new("traffic", q.predicate, 0.95)
                .with_parallelism(parallelism)
                .with_batch_size(batch)
        })
        .collect()
}

/// A coordinator that holds the window open until all `n` members join:
/// `max_window = n` flushes the window the instant the last one arrives,
/// and the generous linger keeps an early-claiming worker waiting.
fn full_window(n: usize) -> SharedScanConfig {
    SharedScanConfig {
        max_window: n,
        window_wait: Some(Duration::from_secs(30)),
    }
}

/// The acceptance matrix: four concurrent TRAF-20 queries sharing one
/// source, window-batched, must answer byte-identically to solo across
/// parallelism {1,4} × batch size {1,64} — while the window
/// saves UDF work (counted two ways: shim counters and server metrics).
#[test]
fn shared_window_matches_solo_across_parallelism_batch() {
    for parallelism in [1usize, 4] {
        for batch in [1usize, 64] {
            let requests = traf_requests(parallelism, batch);

            // Solo baseline: fresh counters, strictly sequential.
            let (mut solo, solo_counts) = make_server(2, SharedScanConfig::default(), None, &[]);
            let solo_lines: Vec<String> = requests
                .iter()
                .map(|r| canonical(&wait_success(&solo, r.clone(), false)))
                .collect();
            let solo_total = total_calls(&solo_counts);
            solo.shutdown();
            // A solo query is a window of one that is not counted as one.
            for (name, value) in solo.metrics().samples() {
                if name.starts_with("server.sharedscan.") {
                    assert_eq!(value, MetricValue::Counter(0), "solo run bumped {name}");
                }
            }

            // Shared: all four land in one window.
            let (mut shared, shared_counts) = make_server(2, full_window(4), None, &[]);
            let tickets: Vec<_> = requests
                .iter()
                .map(|r| shared.submit(r.clone().shared()).expect("admitted"))
                .collect();
            let shared_lines: Vec<String> = tickets
                .into_iter()
                .map(|t| match t.wait().outcome {
                    QueryOutcome::Complete(s) => canonical(&s),
                    other => panic!("shared query did not complete: {other:?}"),
                })
                .collect();
            // Shutdown joins the pool, so the window job has flushed
            // its memo stats into the server counters by the time we
            // read them.
            shared.shutdown();
            let shared_total = total_calls(&shared_counts);
            let invoked = shared
                .metrics()
                .counter("server.sharedscan.udf_invocations_total")
                .get();
            let saved = shared
                .metrics()
                .counter("server.sharedscan.udf_invocations_saved_total")
                .get();
            let windows = shared
                .metrics()
                .counter("server.sharedscan.windows_total")
                .get();
            let window_queries = shared
                .metrics()
                .counter("server.sharedscan.window_queries_total")
                .get();

            let ctx = format!("k={parallelism} batch={batch}");
            assert_eq!(
                solo_lines, shared_lines,
                "{ctx}: shared-scan output diverged from solo"
            );
            assert_eq!(windows, 1, "{ctx}: expected one window");
            assert_eq!(window_queries, 4, "{ctx}");
            // The shim counts actual UDF invocations; the memo metric
            // must agree, and lookups (invoked + saved) must equal the
            // solo run's call count exactly — same executions, shared.
            assert_eq!(invoked, shared_total, "{ctx}");
            assert_eq!(invoked + saved, solo_total, "{ctx}");
            assert!(
                saved > 0,
                "{ctx}: overlapping queries must share UDF work (invoked={invoked})"
            );
            // At most once per blob per (source, UDF) within the window.
            for (op, calls) in &shared_counts {
                assert!(
                    calls.load(Ordering::Relaxed) <= TABLE_ROWS,
                    "{ctx}: {op} ran more than once per blob"
                );
            }
        }
    }
}

/// The sharpest form of the once-per-blob guarantee: four copies of the
/// same query in one window invoke each UDF exactly as often as one solo
/// run does — the other three are pure memo hits.
#[test]
fn identical_queries_pay_for_each_blob_exactly_once() {
    let q = &traf20_queries()[0];
    let req = QueryRequest::new("traffic", q.predicate.clone(), 0.95);

    let (mut solo, solo_counts) = make_server(2, SharedScanConfig::default(), None, &[]);
    let solo_line = canonical(&wait_success(&solo, req.clone(), false));
    let solo_total = total_calls(&solo_counts);
    solo.shutdown();

    let (mut shared, shared_counts) = make_server(2, full_window(4), None, &[]);
    let tickets: Vec<_> = (0..4)
        .map(|_| shared.submit(req.clone().shared()).expect("admitted"))
        .collect();
    let mut lines = Vec::new();
    for t in tickets {
        match t.wait().outcome {
            QueryOutcome::Complete(s) => lines.push(canonical(&s)),
            other => panic!("shared query did not complete: {other:?}"),
        }
    }
    // Joining the pool first makes the window job's stats flush visible.
    shared.shutdown();
    let shared_total = total_calls(&shared_counts);
    let saved = shared
        .metrics()
        .counter("server.sharedscan.udf_invocations_saved_total")
        .get();

    // Identical predicate: the first member builds the plan, the other
    // three hit the cache — exactly like four sequential solo submits.
    // Rows/report/telemetry are identical either way.
    for (i, line) in lines.iter().enumerate() {
        let expected = if i == 0 {
            solo_line.clone()
        } else {
            solo_line.replace("hit=false", "hit=true")
        };
        assert_eq!(line, &expected, "member {i}");
    }
    assert_eq!(
        shared_total, solo_total,
        "window must pay each blob exactly once"
    );
    assert_eq!(saved, 3 * solo_total, "three members ride entirely free");
}

/// Members pin their catalog snapshot at submit: a corpus publish while
/// the window is still forming leaves earlier members on the old epoch
/// and later members on the new one, with identical verdicts.
#[test]
fn mid_window_epoch_publish_pins_each_member_snapshot() {
    let f = fixture();
    let requests = traf_requests(1, 64);

    let (mut solo, _) = make_server(2, SharedScanConfig::default(), None, &[]);
    let solo_rows: Vec<String> = requests
        .iter()
        .map(|r| format!("{:?}", wait_success(&solo, r.clone(), false).rows.rows()))
        .collect();
    solo.shutdown();

    let (mut shared, _) = make_server(2, full_window(4), None, &[]);
    let mut tickets = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        if i == 2 {
            // Mid-window hot swap (same corpus content, new epoch).
            assert_eq!(shared.publish_pps(f.pp_catalog.clone()), CatalogEpoch(2));
        }
        tickets.push(shared.submit(r.clone().shared()).expect("admitted"));
    }
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait().outcome {
            QueryOutcome::Complete(s) => {
                let expected_epoch = if i < 2 {
                    CatalogEpoch(1)
                } else {
                    CatalogEpoch(2)
                };
                assert_eq!(s.epoch, expected_epoch, "member {i} pinned the wrong epoch");
                assert_eq!(
                    format!("{:?}", s.rows.rows()),
                    solo_rows[i],
                    "member {i} rows diverged"
                );
            }
            other => panic!("member {i} did not complete: {other:?}"),
        }
    }
    shared.shutdown();
}

/// An injected worker panic mid-window sheds only the affected member:
/// siblings in the same window still complete byte-identically to solo,
/// and the panicked member's ticket resolves as a typed `Failed`.
#[test]
fn worker_panic_mid_window_sheds_only_the_affected_member() {
    let requests = traf_requests(1, 64);

    let (mut solo, _) = make_server(2, SharedScanConfig::default(), None, &[]);
    let solo_lines: Vec<String> = requests
        .iter()
        .map(|r| canonical(&wait_success(&solo, r.clone(), false)))
        .collect();
    solo.shutdown();

    // Panic probability 0.5: with this seed some request ids 1..=4 draw a
    // panic and some do not (asserted below), so the test covers both the
    // shed member and the surviving siblings in one window.
    let faults = ServerFaults {
        worker_panic: 0.5,
        ..ServerFaults::new(0xBAD5EED)
    };
    let (mut shared, _) = make_server(2, full_window(4), Some(faults), &[]);
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| shared.submit(r.clone().shared()).expect("admitted"))
        .collect();
    let mut completed = 0;
    let mut failed = 0;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait().outcome {
            QueryOutcome::Complete(s) => {
                completed += 1;
                assert_eq!(
                    canonical(&s),
                    solo_lines[i],
                    "surviving member {i} diverged"
                );
            }
            QueryOutcome::Failed(detail) => {
                failed += 1;
                assert!(
                    detail.contains("panicked"),
                    "member {i} failed for the wrong reason: {detail}"
                );
            }
            other => panic!("member {i}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(completed + failed, 4, "every ticket resolves");
    assert!(completed > 0, "seed must leave at least one survivor");
    assert!(failed > 0, "seed must panic at least one member");
    assert_eq!(
        shared.metrics().counter("server.worker_panics_total").get(),
        failed as u64
    );
    shared.shutdown();
}

/// Shutdown with members still parked in an unclaimed window never loses
/// a ticket: every member resolves (executed by the flushed window job or
/// cancelled by its guard).
#[test]
fn shutdown_flushes_parked_windows_without_losing_tickets() {
    let requests = traf_requests(1, 64);
    // max_window larger than the submit count: the window would linger
    // until the 30s wait without the shutdown flush.
    let (mut shared, _) = make_server(1, full_window(8), None, &[]);
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| shared.submit(r.clone().shared()).expect("admitted"))
        .collect();
    let start = std::time::Instant::now();
    shared.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "shutdown must flush the lingering window, not wait it out"
    );
    for t in tickets {
        match t.wait().outcome {
            QueryOutcome::Complete(_) | QueryOutcome::Cancelled { .. } => {}
            other => panic!("parked member lost: {other:?}"),
        }
    }
}

/// A randomized mix of concurrent queries — overlapping and disjoint
/// sources, differing accuracy targets, solo and shared submits, an
/// optional mid-stream publish — always yields solo-identical outputs
/// for every completed query.
#[derive(Debug, Clone)]
struct MixEntry {
    query_idx: usize,
    source: &'static str,
    accuracy: f64,
    shared: bool,
}

fn mix_entries(seed: u64, len: usize) -> Vec<MixEntry> {
    // splitmix64 over the seed: deterministic, replayable mixes.
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| MixEntry {
            query_idx: (next() % 4) as usize,
            source: ["traffic", "traffic-alt"][(next() % 2) as usize],
            accuracy: [0.9, 0.95][(next() % 2) as usize],
            shared: next() % 2 == 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_query_mixes_match_solo(
        mix_seed in 0u64..1_000_000,
        len in 2usize..7,
        publish_sel in 0u8..2,
    ) {
        let mix = mix_entries(mix_seed, len);
        let publish_mid = publish_sel == 1;
        let f = fixture();
        let queries: Vec<_> = traf20_queries().into_iter().filter(|q| q.id <= 4).collect();
        let build = |e: &MixEntry| {
            QueryRequest::new(e.source, queries[e.query_idx].predicate.clone(), e.accuracy)
                .with_batch_size(64)
        };

        // Solo digests per distinct (source, query, accuracy).
        let (mut solo, _) = make_server(2, SharedScanConfig::default(), None, &["traffic-alt"]);
        let mut baselines: BTreeMap<String, String> = BTreeMap::new();
        for e in &mix {
            let key = format!("{}#{}#{}", e.source, e.query_idx, e.accuracy);
            baselines.entry(key).or_insert_with(|| {
                let s = wait_success(&solo, build(e), false);
                format!("{:?}", s.rows.rows())
            });
        }
        solo.shutdown();

        // The storm server windows whatever the mix shares.
        let sharedscan = SharedScanConfig {
            max_window: 4,
            window_wait: Some(Duration::from_millis(50)),
        };
        let (mut server, _) = make_server(3, sharedscan, None, &["traffic-alt"]);
        let mut tickets = Vec::new();
        for (i, e) in mix.iter().enumerate() {
            if publish_mid && i == mix.len() / 2 {
                server.publish_pps(f.pp_catalog.clone());
            }
            let mut request = build(e);
            request.shared = e.shared;
            tickets.push(server.submit(request).expect("admitted"));
        }
        for (e, t) in mix.iter().zip(tickets) {
            let key = format!("{}#{}#{}", e.source, e.query_idx, e.accuracy);
            match t.wait().outcome {
                QueryOutcome::Complete(s) => {
                    prop_assert!(
                        format!("{:?}", s.rows.rows()) == baselines[&key],
                        "entry {:?} diverged", e
                    );
                }
                other => {
                    prop_assert!(false, "entry {:?} did not complete: {:?}", e, other);
                }
            }
        }
        server.shutdown();
    }
}
