//! Query-lifecycle observability: a metrics registry, per-operator span
//! records, and a serializable [`TelemetrySnapshot`] for every
//! [`ExecutionContext::run`](crate::exec::ExecutionContext::run).
//!
//! The paper evaluates PPs by cluster-seconds and data reduction *per
//! operator* (§7, Tables 8–10); this module makes those quantities — plus
//! the resilience machinery's retries, fail-opens, and breaker transitions
//! — first-class observable state instead of a post-hoc cost blob. The
//! snapshot is the feedstock for adaptive re-planning: feeding it to
//! `pp-core`'s `RuntimeMonitor` turns observed per-PP selectivity into
//! drift history and explainable quarantine decisions.
//!
//! # Determinism contract
//!
//! Telemetry extends the executor's determinism guarantee (see
//! [`physical`](crate::physical)): for a fixed plan, catalog, and fault
//! seed, the [`TelemetrySnapshot`] — spans, events,
//! injected-fault log, and snapshot-eligible metrics — is **byte-identical
//! after [`TelemetrySnapshot::zero_wall_clock`]** at every `parallelism`
//! and `batch_size`. Three rules make that hold:
//!
//! * Spans and events are recorded only in the executor's *consume* phase,
//!   which folds worker probe outcomes sequentially in global row order —
//!   worker threads never write telemetry state directly, they only return
//!   per-row probe results that are merged deterministically (the PR 2
//!   merge contract).
//! * Injected-fault events key off `(operator, row fingerprint, attempt)`
//!   and are sorted by that key in the snapshot, so the log is independent
//!   of partition scheduling.
//! * Scheduling-dependent counters (the `worker.*` namespace, bumped
//!   lock-free from worker threads) live only in the context-level
//!   [`MetricsRegistry`] and are excluded from the snapshot, as are the
//!   context's parallelism/batch knobs themselves. The storage-backend
//!   `store.*` namespace (row groups scanned/pruned, bytes read, rows
//!   decoded and rows turned into tuples by scans) is excluded for the
//!   same reason: a segment-backed scan must snapshot byte-identically
//!   to its in-memory twin.
//!
//! Latency histograms bucket *simulated* per-row seconds (charged cost),
//! not wall time, so p50/p99 are reproducible; wall-clock fields are the
//! only nondeterministic state and are zeroed for comparison.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::InjectedFault;
use crate::json::JsonWriter;
use crate::sync::Mutex;

/// Stable identifier of one query run within an
/// [`ExecutionContext`](crate::exec::ExecutionContext): the 1-based run
/// ordinal. Deterministic — two contexts that execute the same sequence of
/// plans assign the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// Stable identifier of one operator invocation within a query: the
/// 0-based index in cost-meter charge order (bottom-up execution order),
/// which is a pure function of the plan shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub u32);

/// Number of log2 buckets in a [`LatencyHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram over simulated latencies.
///
/// Bucket `i` counts values whose simulated duration in integer
/// nanoseconds `n` satisfies `2^(i-1) ≤ n < 2^i` (bucket 0 holds exact
/// zeros). Recording is O(1); quantiles are answered from bucket upper
/// bounds, so they are conservative within a factor of 2 — plenty for
/// spotting skew between operators whose costs differ by orders of
/// magnitude.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_index(seconds: f64) -> usize {
        let nanos = (seconds.max(0.0) * 1e9) as u64;
        if nanos == 0 {
            0
        } else {
            (HISTOGRAM_BUCKETS - nanos.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one simulated duration.
    pub fn record(&mut self, seconds: f64) {
        self.record_n(seconds, 1);
    }

    /// Records `n` occurrences of the same simulated duration.
    pub fn record_n(&mut self, seconds: f64, n: u64) {
        self.buckets[Self::bucket_index(seconds)] += n;
        self.count += n;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The upper bound (in seconds) of the bucket containing the `q`
    /// quantile.
    ///
    /// Edge cases are total, never a panic or an out-of-range bucket:
    ///
    /// * an **empty histogram** returns `0.0` for every `q`;
    /// * **`q <= 0.0`** clamps to rank 1 — the upper bound of the first
    ///   non-empty bucket (the minimum recorded value's bucket);
    /// * **`q >= 1.0`** clamps to rank `count` — the upper bound of the
    ///   last non-empty bucket (the maximum's bucket);
    /// * a **NaN** `q` is treated as `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q };
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    ((1u128 << i) - 1) as f64 * 1e-9
                };
            }
        }
        ((1u128 << (HISTOGRAM_BUCKETS - 1)) - 1) as f64 * 1e-9
    }

    /// Median (upper bucket bound).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile (upper bucket bound).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The upper bound, in seconds, of bucket `i` (`+Inf` conceptually for
    /// the last bucket; this returns its finite bound). Bucket 0 holds
    /// sub-nanosecond values, so its bound is `0.0`.
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            ((1u128 << i.min(HISTOGRAM_BUCKETS - 1)) - 1) as f64 * 1e-9
        }
    }

    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A lock-free counter handle from a [`MetricsRegistry`]. Cloning shares
/// the underlying cell, so handles can be carried into worker threads.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge handle (an `f64` stored as bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared histogram handle. Buckets are atomics, so worker threads can
/// record concurrently; note that concurrently-recorded histograms are
/// registry-level telemetry and are *not* part of the deterministic
/// snapshot (span histograms are recorded serially in the consume phase).
#[derive(Debug)]
pub struct SharedHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        SharedHistogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }
}

impl SharedHistogram {
    /// Records one simulated duration.
    pub fn record(&self, seconds: f64) {
        self.buckets[LatencyHistogram::bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot into an owned [`LatencyHistogram`].
    pub fn load(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (i, b) in self.buckets.iter().enumerate() {
            h.buckets[i] = b.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h
    }

    /// Adds every bucket of an owned histogram into this shared one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (i, &c) in other.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
    }
}

/// One named sample exported from a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
}

/// A metrics registry: named counters, gauges, and histograms whose
/// handles are cheap atomics ("lock-free-enough": registration takes a
/// short mutex, every increment is a single atomic op). One registry lives
/// in each [`ExecutionContext`](crate::exec::ExecutionContext) and
/// accumulates across runs; worker threads bump `worker.*` counters
/// concurrently.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<SharedHistogram>>>,
}

impl MetricsRegistry {
    /// A fresh registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The shared histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<SharedHistogram> {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// All counters and gauges as `(name, value)` pairs in lexicographic
    /// name order (stable export order).
    pub fn samples(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = Vec::new();
        for (name, c) in self.counters.lock().iter() {
            out.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in self.gauges.lock().iter() {
            out.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All histograms as `(name, loaded snapshot)` pairs in lexicographic
    /// name order (stable export order). Deliberately separate from
    /// [`samples`][Self::samples]: histograms record wall-clock stage
    /// durations, so they never participate in the byte-identical
    /// deterministic snapshots.
    pub fn histogram_samples(&self) -> Vec<(String, LatencyHistogram)> {
        let out: Vec<(String, LatencyHistogram)> = self
            .histograms
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), h.load()))
            .collect();
        // BTreeMap iteration is already name-ordered; collect preserves it.
        out
    }

    /// Samples eligible for the deterministic snapshot: everything except
    /// the scheduling-dependent `worker.*` namespace and the
    /// storage-backend `store.*` namespace (those depend on whether a
    /// table is served from memory or from segments — a segment-backed
    /// scan must snapshot byte-identically to its in-memory twin).
    pub fn snapshot_samples(&self) -> Vec<(String, MetricValue)> {
        self.samples()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("worker.") && !name.starts_with("store."))
            .collect()
    }

    /// Folds another registry into this one: counters are **summed**,
    /// gauges take the **max** of the two values, and histograms are
    /// **bucket-merged**. Names absent on either side are treated as
    /// zero/empty, so merging is commutative over any starting registry:
    /// folding a set of per-query registries into a service-level one
    /// yields the same samples in any order.
    pub fn merge(&self, other: &MetricsRegistry) {
        // Read `other` fully before touching `self` so merging a registry
        // into itself (or concurrent cross-merges) cannot deadlock.
        let counters: Vec<(String, u64)> = other
            .counters
            .lock()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges: Vec<(String, f64)> = other
            .gauges
            .lock()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms: Vec<(String, LatencyHistogram)> = other
            .histograms
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), h.load()))
            .collect();
        for (name, v) in counters {
            self.counter(&name).add(v);
        }
        for (name, v) in gauges {
            let mine = self.gauge(&name);
            mine.set(mine.get().max(v));
        }
        for (name, h) in histograms {
            self.histogram(&name).merge(&h);
        }
    }
}

/// What happened, in one recorded [`TelemetryEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A UDF call was retried (count = retries for that row).
    Retry,
    /// An attempt was cancelled by the timeout budget.
    Timeout,
    /// A filter passed a row because its call failed and it degrades
    /// fail-open.
    FailOpen,
    /// A call was skipped because the operator's breaker was open.
    ShortCircuit,
    /// A fail-open filter's circuit breaker opened. A run pushes one per
    /// tripped span, in span order, after every operator's events.
    BreakerOpened,
    /// The query's cancellation token fired and the operator stopped at
    /// a batch/group boundary.
    Cancelled,
}

impl EventKind {
    /// Stable lowercase name (used in the JSON export).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Retry => "retry",
            EventKind::Timeout => "timeout",
            EventKind::FailOpen => "fail_open",
            EventKind::ShortCircuit => "short_circuit",
            EventKind::BreakerOpened => "breaker_opened",
            EventKind::Cancelled => "cancelled",
        }
    }
}

/// One structured execution event, recorded in deterministic consume-phase
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Operator display name.
    pub op: String,
    /// Global row index within the operator's input, when row-scoped.
    pub row: Option<u64>,
    /// What happened.
    pub kind: EventKind,
    /// Multiplicity (e.g. number of retries for the row).
    pub count: u64,
}

/// Per-operator span: row accounting, resilience counters, charged cost,
/// and a simulated-latency histogram for one operator invocation.
///
/// Row accounting obeys the conservation invariant checked by
/// [`check_conservation`][Self::check_conservation]:
/// `rows_in == rows_out + rows_filtered + rows_failed`, where `rows_out`
/// counts *input* rows that passed through successfully (including
/// fail-open passes), `rows_filtered` counts input rows dropped by a
/// verdict (filter/select false, unmatched join keys), and `rows_failed`
/// counts input rows lost to a terminal error (the failing row plus any
/// rows the abort left unprocessed). `rows_emitted` is the operator's
/// actual output cardinality — it differs from `rows_out` for fan-out
/// (process) and group-based (aggregate/reduce/combine/join) operators.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpan {
    /// Stable operator id (charge order within the query).
    pub op_id: OperatorId,
    /// Operator display name (matches the cost-meter entry).
    pub op: String,
    /// Input rows consumed.
    pub rows_in: u64,
    /// Input rows that passed through successfully.
    pub rows_out: u64,
    /// Input rows dropped by a verdict.
    pub rows_filtered: u64,
    /// Input rows lost to a terminal failure (or left unprocessed by one).
    pub rows_failed: u64,
    /// Output rows produced.
    pub rows_emitted: u64,
    /// UDF executions performed (first calls + retries); 0 for non-UDF
    /// operators.
    pub attempts: u64,
    /// Retries performed.
    pub retries: u64,
    /// Attempts that returned an error.
    pub failures: u64,
    /// Attempts cancelled by the timeout budget.
    pub timeouts: u64,
    /// Rows passed via fail-open degradation.
    pub failed_open: u64,
    /// Calls skipped because the breaker was open.
    pub short_circuited: u64,
    /// Whether the operator's circuit breaker tripped during this span
    /// (only a fail-open filter has one).
    pub breaker_tripped: bool,
    /// Simulated cluster seconds charged (matches the cost meter).
    pub seconds: f64,
    /// Per-input-row simulated latency distribution.
    pub latency: LatencyHistogram,
    /// Wall-clock nanoseconds spent in this operator's own phase
    /// (excluding child operators). Nondeterministic; zeroed by
    /// [`TelemetrySnapshot::zero_wall_clock`].
    pub wall_nanos: u64,
}

impl OperatorSpan {
    /// A span with nothing counted yet. Its id is assigned when the
    /// executor pushes it, so it is the span's place in charge order.
    pub(crate) fn new(op: impl Into<String>, rows_in: usize) -> Self {
        OperatorSpan {
            op_id: OperatorId(0),
            op: op.into(),
            rows_in: rows_in as u64,
            rows_out: 0,
            rows_filtered: 0,
            rows_failed: 0,
            rows_emitted: 0,
            attempts: 0,
            retries: 0,
            failures: 0,
            timeouts: 0,
            failed_open: 0,
            short_circuited: 0,
            breaker_tripped: false,
            seconds: 0.0,
            latency: LatencyHistogram::new(),
            wall_nanos: 0,
        }
    }

    /// Assigns every input row not yet accounted as passed or filtered to
    /// `rows_failed` — called when the operator aborts on a terminal
    /// error, so conservation holds on error paths too.
    pub(crate) fn close_failed(&mut self) {
        self.rows_failed = self.rows_in - self.rows_out - self.rows_filtered;
    }

    /// Data reduction achieved: `1 − rows_emitted / rows_in` (0.0 on empty
    /// input).
    pub fn reduction(&self) -> f64 {
        if self.rows_in == 0 {
            0.0
        } else {
            1.0 - self.rows_emitted as f64 / self.rows_in as f64
        }
    }

    /// Whether the row-conservation invariant holds.
    pub fn check_conservation(&self) -> bool {
        self.rows_in == self.rows_out + self.rows_filtered + self.rows_failed
    }
}

/// A serializable snapshot of one query run's telemetry. Field order in
/// [`to_json`][Self::to_json] matches declaration order and is stable
/// across releases; wall-clock fields are the only nondeterministic state
/// (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Which run of the context this snapshot describes.
    pub query_id: QueryId,
    /// Per-operator spans in charge (execution) order.
    pub spans: Vec<OperatorSpan>,
    /// Structured events in deterministic consume order (capped; see
    /// [`events_dropped`][Self::events_dropped]).
    pub events: Vec<TelemetryEvent>,
    /// Events discarded past the cap.
    pub events_dropped: u64,
    /// Injected faults that actually fired, sorted by
    /// `(op, row fingerprint, attempt, kind)`.
    pub injected_faults: Vec<InjectedFault>,
    /// Snapshot-eligible registry samples (cumulative across the context's
    /// runs; excludes the scheduling-dependent `worker.*` namespace and
    /// the storage-backend `store.*` namespace).
    pub metrics: Vec<(String, MetricValue)>,
    /// Terminal error of the run, if it failed.
    pub error: Option<String>,
    /// Wall-clock nanoseconds for the whole run. Nondeterministic.
    pub wall_nanos: u64,
}

impl TelemetrySnapshot {
    /// The span for an operator whose display name starts with `prefix`.
    pub fn span(&self, prefix: &str) -> Option<&OperatorSpan> {
        self.spans.iter().find(|s| s.op.starts_with(prefix))
    }

    /// All spans violating the row-conservation invariant (empty on a
    /// healthy snapshot — asserted by the test suite).
    pub fn conservation_violations(&self) -> Vec<&OperatorSpan> {
        self.spans
            .iter()
            .filter(|s| !s.check_conservation())
            .collect()
    }

    /// Total injected faults recorded.
    pub fn injected_fault_count(&self) -> u64 {
        self.injected_faults.len() as u64
    }

    /// Total retries across all spans.
    pub fn total_retries(&self) -> u64 {
        self.spans.iter().map(|s| s.retries).sum()
    }

    /// Zeroes every wall-clock field (span `wall_nanos`, snapshot
    /// `wall_nanos`, and any `*wall_nanos` metric), leaving only
    /// deterministic state — two runs of the same plan/seed then compare
    /// byte-identical at any parallelism or batch size.
    pub fn zero_wall_clock(&mut self) {
        self.wall_nanos = 0;
        for s in &mut self.spans {
            s.wall_nanos = 0;
        }
        for (name, value) in &mut self.metrics {
            if name.ends_with("wall_nanos") {
                *value = match value {
                    MetricValue::Counter(_) => MetricValue::Counter(0),
                    MetricValue::Gauge(_) => MetricValue::Gauge(0.0),
                };
            }
        }
    }

    /// Serializes to JSON with stable field order. Hand-rolled (the
    /// workspace builds offline, without serde); floats use Rust's
    /// shortest-roundtrip formatting, so equal values serialize equally.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.object(|w| {
            w.key("query_id").uint(self.query_id.0);
            w.key("spans").array(&self.spans, span_json);
            w.key("events").array(&self.events, event_json);
            w.key("events_dropped").uint(self.events_dropped);
            w.key("injected_faults")
                .array(&self.injected_faults, fault_json);
            w.key("metrics").object(|w| {
                for (name, value) in &self.metrics {
                    match value {
                        MetricValue::Counter(c) => w.key(name).uint(*c),
                        MetricValue::Gauge(g) => w.key(name).float(*g),
                    };
                }
            });
            w.key("error")
                .optional(self.error.as_deref(), JsonWriter::string);
            w.key("wall_nanos").uint(self.wall_nanos);
        });
        w.finish()
    }
}

/// A float as a JSON number; non-finite values (which JSON cannot
/// represent) render as `null`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and every control character — the one string escaper the
/// workspace's hand-rolled JSON writers share.
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl OperatorSpan {
    /// Writes the row and resilience counters, `rows_in` through
    /// `breaker_tripped`, as keys of the object `w` is inside — the part
    /// of a span the snapshot and EXPLAIN ANALYZE both export.
    pub(crate) fn counters_json(&self, w: &mut JsonWriter) {
        for (name, v) in [
            ("rows_in", self.rows_in),
            ("rows_out", self.rows_out),
            ("rows_filtered", self.rows_filtered),
            ("rows_failed", self.rows_failed),
            ("rows_emitted", self.rows_emitted),
            ("attempts", self.attempts),
            ("retries", self.retries),
            ("failures", self.failures),
            ("timeouts", self.timeouts),
            ("failed_open", self.failed_open),
            ("short_circuited", self.short_circuited),
        ] {
            w.key(name).uint(v);
        }
        w.key("breaker_tripped").boolean(self.breaker_tripped);
    }
}

fn span_json(w: &mut JsonWriter, s: &OperatorSpan) {
    w.object(|w| {
        w.key("op_id").uint(u64::from(s.op_id.0));
        w.key("op").string(&s.op);
        s.counters_json(w);
        w.key("seconds").float(s.seconds);
        w.key("latency_buckets")
            .array(s.latency.nonzero_buckets(), |w, (bucket, count)| {
                w.array([bucket as u64, count], |w, n| {
                    w.uint(n);
                });
            });
        w.key("wall_nanos").uint(s.wall_nanos);
    });
}

fn event_json(w: &mut JsonWriter, e: &TelemetryEvent) {
    w.object(|w| {
        w.key("op").string(&e.op);
        w.key("row").optional(e.row, JsonWriter::uint);
        w.key("kind").string(e.kind.name());
        w.key("count").uint(e.count);
    });
}

fn fault_json(w: &mut JsonWriter, f: &InjectedFault) {
    w.object(|w| {
        w.key("op").string(&f.op);
        w.key("row_fingerprint").uint(f.row_fingerprint);
        w.key("attempt").uint(f.attempt);
        w.key("kind").string(f.kind.name());
    });
}

/// Default cap on recorded events per run; overflow increments
/// [`TelemetrySnapshot::events_dropped`] instead of growing unboundedly.
pub const DEFAULT_MAX_EVENTS: usize = 4096;

/// The executor-side recorder: accumulates spans and events during one
/// `run`, then finalizes into a [`TelemetrySnapshot`]. All writes happen
/// on the main thread in consume order (see the module docs), so the
/// collector needs no synchronization.
#[derive(Debug)]
pub(crate) struct SpanCollector {
    spans: Vec<OperatorSpan>,
    events: Vec<TelemetryEvent>,
    events_dropped: u64,
    max_events: usize,
    /// `worker.rows_probed_total` handle, bumped from worker threads.
    pub worker_rows: Counter,
    /// `worker.batches_total` handle, bumped from worker threads.
    pub worker_batches: Counter,
    /// `worker.threads_spawned_total` handle: helper threads the run's
    /// fan-outs started. The process starts at most one fewer than the
    /// machine has hardware threads, all told, so a run spawns none once
    /// an earlier one as wide has run.
    pub worker_threads: Counter,
    /// `worker.fanouts_total` handle: fan-outs the run offered to the
    /// helper threads — however many of them, or none, took a seat.
    pub worker_fanouts: Counter,
    /// The `store.*` handles.
    pub store: StoreCounters,
}

/// The registry-level `store.*` counters a scan bumps when it closes.
#[derive(Debug, Default)]
pub(crate) struct StoreCounters {
    /// `store.row_groups_scanned_total`: groups decoded.
    pub groups_scanned: Counter,
    /// `store.row_groups_pruned_total`: groups a pushdown ruled out.
    pub groups_pruned: Counter,
    /// `store.bytes_read_total`: encoded bytes of the decoded groups.
    pub bytes_read: Counter,
    /// `store.rows_decoded_total`: rows in the decoded groups.
    pub rows_decoded: Counter,
    /// `store.rows_materialized_total`: rows a scan gathered out of
    /// decoded waves — every row under a bare `Scan`, a filter's survivors
    /// under `Scan → Filter`. A registered table's rows are kept by index
    /// and count 0.
    pub rows_materialized: Counter,
}

impl StoreCounters {
    /// The handles registered under `registry`.
    pub(crate) fn of(registry: &MetricsRegistry) -> Self {
        StoreCounters {
            groups_scanned: registry.counter("store.row_groups_scanned_total"),
            groups_pruned: registry.counter("store.row_groups_pruned_total"),
            bytes_read: registry.counter("store.bytes_read_total"),
            rows_decoded: registry.counter("store.rows_decoded_total"),
            rows_materialized: registry.counter("store.rows_materialized_total"),
        }
    }
}

impl SpanCollector {
    /// A collector whose `worker.*` and `store.*` handles are registered
    /// under `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        SpanCollector {
            spans: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            max_events: DEFAULT_MAX_EVENTS,
            worker_rows: registry.counter("worker.rows_probed_total"),
            worker_batches: registry.counter("worker.batches_total"),
            worker_threads: registry.counter("worker.threads_spawned_total"),
            worker_fanouts: registry.counter("worker.fanouts_total"),
            store: StoreCounters::of(registry),
        }
    }

    /// A collector detached from any registry: a run no one observes
    /// (`Catalog::read_table`), and the unit tests.
    pub(crate) fn detached() -> Self {
        SpanCollector::new(&MetricsRegistry::new())
    }

    /// Next operator id (charge order).
    pub(crate) fn next_op_id(&self) -> u32 {
        self.spans.len() as u32
    }

    pub(crate) fn push_span(&mut self, span: OperatorSpan) {
        self.spans.push(span);
    }

    /// Spans recorded so far (charge order).
    pub(crate) fn spans(&self) -> &[OperatorSpan] {
        &self.spans
    }

    pub(crate) fn push_event(&mut self, op: &str, row: Option<u64>, kind: EventKind, count: u64) {
        if self.events.len() >= self.max_events {
            self.events_dropped += count.max(1);
            return;
        }
        self.events.push(TelemetryEvent {
            op: op.to_string(),
            row,
            kind,
            count,
        });
    }

    pub(crate) fn finish(
        self,
        query_id: QueryId,
        mut injected_faults: Vec<InjectedFault>,
        metrics: Vec<(String, MetricValue)>,
        error: Option<String>,
        wall_nanos: u64,
    ) -> TelemetrySnapshot {
        injected_faults.sort_by(|a, b| {
            (&a.op, a.row_fingerprint, a.attempt, a.kind.name()).cmp(&(
                &b.op,
                b.row_fingerprint,
                b.attempt,
                b.kind.name(),
            ))
        });
        TelemetrySnapshot {
            query_id,
            spans: self.spans,
            events: self.events,
            events_dropped: self.events_dropped,
            injected_faults,
            metrics,
            error,
            wall_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::new();
        h.record(0.0); // bucket 0
        h.record(1e-9); // 1 ns → bucket 1
        h.record(3e-9); // 3 ns → bucket 2
        h.record(1.0); // 1e9 ns → bucket 30
        assert_eq!(h.count(), 4);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(buckets[2], (2, 1));
        assert_eq!(buckets[3].1, 1);
        assert!(buckets[3].0 >= 30);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::new();
        h.record_n(1e-6, 99); // ~1 µs
        h.record_n(1.0, 1); // 1 s tail
        assert!(h.p50() >= 1e-6 && h.p50() < 3e-6);
        assert!(h.p99() >= 1e-6);
        assert!(h.quantile(1.0) >= 1.0);
        assert_eq!(LatencyHistogram::new().p99(), 0.0);
    }

    #[test]
    fn histogram_quantile_edge_cases_are_total() {
        // Empty: every q answers 0.0, out-of-range and NaN included.
        let empty = LatencyHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0.0, "empty histogram, q={q}");
        }
        let mut h = LatencyHistogram::new();
        h.record_n(1e-6, 10); // first non-empty bucket
        h.record_n(1.0, 1); // last non-empty bucket
        let lo = h.quantile(1e-9); // smallest positive rank
        let hi = h.quantile(1.0);
        // q <= 0.0 clamps to rank 1: the minimum's bucket bound.
        assert_eq!(h.quantile(0.0), lo);
        assert_eq!(h.quantile(-3.5), lo);
        assert!((1e-6..3e-6).contains(&lo), "lo={lo}");
        // q >= 1.0 clamps to rank count: the maximum's bucket bound.
        assert_eq!(h.quantile(7.0), hi);
        assert!(hi >= 1.0, "hi={hi}");
        // NaN behaves as q = 0.0, not a panic or bogus bucket.
        assert_eq!(h.quantile(f64::NAN), lo);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(1e-6);
        let mut b = LatencyHistogram::new();
        b.record_n(1e-6, 3);
        a.merge(&b);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn registry_counters_and_gauges_share_state() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("queries_total");
        let c2 = r.counter("queries_total");
        c1.add(2);
        c2.inc();
        assert_eq!(r.counter("queries_total").get(), 3);
        r.gauge("last_wall_nanos").set(1.5);
        assert_eq!(r.gauge("last_wall_nanos").get(), 1.5);
        let samples = r.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, "last_wall_nanos");
        assert_eq!(samples[1].1, MetricValue::Counter(3));
    }

    #[test]
    fn worker_namespace_excluded_from_snapshot_samples() {
        let r = MetricsRegistry::new();
        r.counter("worker.batches_total").add(7);
        r.counter("queries_total").inc();
        let snap = r.snapshot_samples();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "queries_total");
        assert_eq!(r.samples().len(), 2);
    }

    fn sample_registry(queries: u64, wall: f64, latencies: &[f64]) -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("queries_total").add(queries);
        r.gauge("last_run_wall_nanos").set(wall);
        for &l in latencies {
            r.histogram("query_latency_seconds").record(l);
        }
        r
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_merges_histograms() {
        let service = MetricsRegistry::new();
        service.counter("queries_total").add(5);
        service.gauge("last_run_wall_nanos").set(10.0);
        let per_query = sample_registry(3, 25.0, &[1e-6, 1e-3]);
        service.merge(&per_query);
        assert_eq!(service.counter("queries_total").get(), 8);
        assert_eq!(service.gauge("last_run_wall_nanos").get(), 25.0);
        assert_eq!(service.histogram("query_latency_seconds").load().count(), 2);
        // Names absent on one side materialize as zero/empty, not a panic.
        let sparse = MetricsRegistry::new();
        sparse.counter("rows_emitted_total").add(7);
        service.merge(&sparse);
        assert_eq!(service.counter("rows_emitted_total").get(), 7);
    }

    #[test]
    fn merge_is_commutative() {
        let r1 = sample_registry(3, 25.0, &[1e-6, 1e-3]);
        r1.counter("retries_total").add(2);
        let r2 = sample_registry(4, 11.0, &[1e-6]);
        r2.gauge("queue_depth").set(9.0);

        let ab = MetricsRegistry::new();
        ab.merge(&r1);
        ab.merge(&r2);
        let ba = MetricsRegistry::new();
        ba.merge(&r2);
        ba.merge(&r1);

        assert_eq!(ab.samples(), ba.samples());
        assert_eq!(
            ab.histogram("query_latency_seconds").load(),
            ba.histogram("query_latency_seconds").load()
        );
    }

    #[test]
    fn merge_with_self_does_not_deadlock() {
        let r = sample_registry(2, 5.0, &[1e-6]);
        r.merge(&r);
        assert_eq!(r.counter("queries_total").get(), 4);
        assert_eq!(r.gauge("last_run_wall_nanos").get(), 5.0);
        assert_eq!(r.histogram("query_latency_seconds").load().count(), 2);
    }

    #[test]
    fn shared_histogram_is_thread_safe() {
        let h = Arc::new(SharedHistogram::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..100 {
                        h.record(1e-6);
                    }
                });
            }
        });
        assert_eq!(h.load().count(), 400);
    }

    #[test]
    fn span_conservation_and_reduction() {
        let mut s = OperatorSpan::new("PP[x]", 100);
        s.rows_out = 40;
        s.rows_filtered = 60;
        s.rows_emitted = 40;
        assert!(s.check_conservation());
        assert!((s.reduction() - 0.6).abs() < 1e-12);
        s.rows_filtered = 10;
        assert!(!s.check_conservation());
        s.close_failed();
        assert!(s.check_conservation());
        assert_eq!(s.rows_failed, 50);
        // Empty input: reduction defined as 0.
        assert_eq!(OperatorSpan::new("e", 0).reduction(), 0.0);
    }

    #[test]
    fn snapshot_json_is_stable_and_escaped() {
        let mut collector = SpanCollector::detached();
        let mut span = OperatorSpan::new("PP[\"quoted\"]", 10);
        span.rows_out = 10;
        span.rows_emitted = 10;
        span.latency.record_n(1e-6, 10);
        collector.push_span(span);
        collector.push_event("PP[\"quoted\"]", Some(3), EventKind::Retry, 2);
        let snap = collector.finish(
            QueryId(1),
            Vec::new(),
            vec![("queries_total".into(), MetricValue::Counter(1))],
            None,
            12345,
        );
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"query_id\":1,\"spans\":[{\"op_id\":0,"));
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"kind\":\"retry\""));
        assert!(a.contains("\"queries_total\":1"));
        assert!(a.ends_with("\"wall_nanos\":12345}"));
    }

    #[test]
    fn zero_wall_clock_scrubs_all_wall_fields() {
        let collector = SpanCollector::detached();
        let mut snap = collector.finish(
            QueryId(1),
            Vec::new(),
            vec![
                ("last_run_wall_nanos".into(), MetricValue::Gauge(42.0)),
                ("queries_total".into(), MetricValue::Counter(1)),
            ],
            None,
            999,
        );
        snap.spans.push({
            let mut s = OperatorSpan::new("Scan[t]", 1);
            s.wall_nanos = 17;
            s
        });
        snap.zero_wall_clock();
        assert_eq!(snap.wall_nanos, 0);
        assert_eq!(snap.spans[0].wall_nanos, 0);
        assert_eq!(snap.metrics[0].1, MetricValue::Gauge(0.0));
        assert_eq!(snap.metrics[1].1, MetricValue::Counter(1));
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut c = SpanCollector::detached();
        c.max_events = 2;
        for i in 0..5 {
            c.push_event("op", Some(i), EventKind::FailOpen, 1);
        }
        let snap = c.finish(QueryId(1), Vec::new(), Vec::new(), None, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3);
    }
}
