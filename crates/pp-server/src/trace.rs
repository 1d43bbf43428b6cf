//! End-to-end request tracing through the serving stack.
//!
//! The serving pipeline (admission gate → plan cache → shared-scan
//! window → worker pool → engine execution → response send) was a
//! telemetry black hole between `submit` and the ticket resolving: a
//! p99 regression could not be attributed to queue wait vs. plan build
//! vs. execution. This module closes that gap:
//!
//! * a [`TraceContext`] is minted inside
//!   [`PpServer::submit`](crate::server::PpServer::submit)'s admission
//!   and rides the worker-side response guard through every stage the
//!   request crosses,
//! * each stage transition (`TraceContext::enter`) closes the previous
//!   stage against a monotonic clock, so the per-stage durations of the
//!   finished [`RequestTimeline`] **sum exactly** to the end-to-end
//!   latency (`total_nanos`) by construction,
//! * the terminal stage — whatever stage was current when the response
//!   was sent — is stamped into the timeline, so `Cancelled`/`Failed`
//!   outcomes record *where* the request died (queued, planning,
//!   executing, …),
//! * the finished timeline is attached to every
//!   [`QueryResponse`](crate::request::QueryResponse), aggregated into
//!   per-stage latency histograms (`server.stage.<name>_seconds`) and
//!   terminal-stage counters
//!   (`server.terminal_stage_total.<stage>.<outcome>`) in the server
//!   [`MetricsRegistry`](pp_engine::telemetry::MetricsRegistry), and
//!   propagated over the wire protocol as a
//!   [`Frame::Trace`](crate::wire::Frame::Trace) frame.
//!
//! Durations are wall clock and therefore excluded from the
//! determinism contract; the timeline *structure* — trace id aside, the
//! stage-name sequence, stage details, and terminal stage — is
//! deterministic for a fixed submission sequence, which
//! [`RequestTimeline::zero_durations`] lets tests pin byte-identically
//! across parallelism × batch size × batch mode ± seeded faults.

use std::time::Instant;

use pp_engine::json::JsonWriter;
use pp_engine::sync::Mutex;

/// A pipeline stage a request can occupy. Stages are entered in
/// submission order and never revisited; the wall-clock interval between
/// consecutive entries is attributed to the stage being left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStage {
    /// Admission control: shutdown/source checks, the depth gate, the
    /// catalog-snapshot pin, and ticket plumbing (caller thread).
    Admission,
    /// Parked in the worker pool's FIFO queue (requests without
    /// [`QueryRequest::shared()`](crate::request::QueryRequest::shared())).
    Queue,
    /// Parked in a shared-scan window: pool queue wait, the claiming
    /// worker's linger, and any earlier window members' execution
    /// (requests with
    /// [`QueryRequest::shared()`](crate::request::QueryRequest::shared())).
    Window,
    /// Plan-cache interaction: a memoized hit, a single-flight wait on a
    /// concurrent builder, or a fresh optimization (see the span's
    /// detail).
    Cache,
    /// Engine execution of the optimized plan.
    Execute,
    /// Building and sending the typed response.
    Respond,
}

impl RequestStage {
    /// Stable, lowercase stage name used in timelines, metric names, and
    /// the wire encoding.
    pub fn name(self) -> &'static str {
        match self {
            RequestStage::Admission => "admission",
            RequestStage::Queue => "queue",
            RequestStage::Window => "window",
            RequestStage::Cache => "cache",
            RequestStage::Execute => "execute",
            RequestStage::Respond => "respond",
        }
    }
}

/// One closed stage of a finished [`RequestTimeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (see [`RequestStage::name`]).
    pub name: String,
    /// Optional stage annotation — e.g. the cache stage records `hit`,
    /// `wait` (single-flight), or `build`.
    pub detail: Option<String>,
    /// Wall-clock nanoseconds spent in this stage.
    pub nanos: u64,
}

/// The per-request stage waterfall: every stage the request crossed, in
/// order, with wall-clock durations that sum exactly to `total_nanos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTimeline {
    /// The trace id — equal to the request id minted at submit.
    pub trace_id: u64,
    /// Closed stages in the order they were entered.
    pub stages: Vec<StageSpan>,
    /// The stage that was current when the response was sent: `respond`
    /// for completed queries; the stage the request died in for
    /// cancelled/failed/rejected ones.
    pub terminal: String,
    /// End-to-end wall-clock nanoseconds from admission to response.
    /// Always exactly the sum of the stage durations.
    pub total_nanos: u64,
}

impl RequestTimeline {
    /// A timeline with no recorded stages — used when the worker
    /// disappeared before a traced response could be produced.
    pub fn empty(trace_id: u64) -> Self {
        RequestTimeline {
            trace_id,
            stages: Vec::new(),
            terminal: "unknown".into(),
            total_nanos: 0,
        }
    }

    /// The stage-name sequence, in entry order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name.as_str()).collect()
    }

    /// Nanoseconds recorded for the named stage, if it was crossed.
    pub fn stage_nanos(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// A copy with every duration (and the trace id) zeroed: the
    /// deterministic *structure* of the timeline — stage sequence,
    /// details, terminal stage — with the wall clock removed. Two
    /// executions of the same submission sequence produce byte-identical
    /// `zero_durations().to_json()` regardless of parallelism, batch
    /// size, batch mode, or seeded faults.
    pub fn zero_durations(&self) -> RequestTimeline {
        RequestTimeline {
            trace_id: 0,
            stages: self
                .stages
                .iter()
                .map(|s| StageSpan {
                    name: s.name.clone(),
                    detail: s.detail.clone(),
                    nanos: 0,
                })
                .collect(),
            terminal: self.terminal.clone(),
            total_nanos: 0,
        }
    }

    /// Stable-order JSON rendering (hand-rolled, like every exporter in
    /// this workspace — field order is fixed, no map iteration).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128);
        w.object(|w| {
            w.key("trace_id").uint(self.trace_id);
            w.key("total_nanos").uint(self.total_nanos);
            w.key("terminal").string(&self.terminal);
            w.key("stages").array(&self.stages, |w, s| {
                w.object(|w| {
                    w.key("stage").string(&s.name);
                    if let Some(d) = &s.detail {
                        w.key("detail").string(d);
                    }
                    w.key("nanos").uint(s.nanos);
                });
            });
        });
        w.finish()
    }
}

struct TraceState {
    /// Monotonic instant the current stage was entered.
    last: Instant,
    current: RequestStage,
    detail: Option<&'static str>,
    closed: Vec<StageSpan>,
}

/// The live, thread-safe trace of one in-flight request. Minted at
/// admission (caller thread), carried by the response guard across the
/// pool boundary (worker thread), finalized when the response is sent.
pub struct TraceContext {
    trace_id: u64,
    born: Instant,
    state: Mutex<TraceState>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("trace_id", &self.trace_id)
            .finish_non_exhaustive()
    }
}

impl TraceContext {
    /// Starts a trace whose first stage is [`RequestStage::Admission`],
    /// entered at `born` (captured when admission began, before the id
    /// was minted).
    pub(crate) fn new(trace_id: u64, born: Instant) -> Self {
        TraceContext {
            trace_id,
            born,
            state: Mutex::new(TraceState {
                last: born,
                current: RequestStage::Admission,
                detail: None,
                closed: Vec::with_capacity(5),
            }),
        }
    }

    /// Enters `stage`, closing the previous stage with the wall-clock
    /// time since it was entered.
    pub(crate) fn enter(&self, stage: RequestStage) {
        let now = Instant::now();
        let mut state = self.state.lock();
        let elapsed = now.saturating_duration_since(state.last);
        let span = StageSpan {
            name: state.current.name().into(),
            detail: state.detail.take().map(Into::into),
            nanos: elapsed.as_nanos() as u64,
        };
        state.closed.push(span);
        state.last = now;
        state.current = stage;
    }

    /// Annotates the *current* stage (e.g. cache `hit` / `wait` /
    /// `build`); the detail lands on the span when the stage is closed.
    pub(crate) fn note(&self, detail: &'static str) {
        self.state.lock().detail = Some(detail);
    }

    /// Closes the current (terminal) stage and produces the finished
    /// timeline. The same `now` closes the last stage and computes the
    /// total, so stage durations always sum exactly to `total_nanos`.
    pub(crate) fn finish(&self) -> RequestTimeline {
        let now = Instant::now();
        let mut state = self.state.lock();
        let elapsed = now.saturating_duration_since(state.last);
        let terminal = state.current.name().to_string();
        let span = StageSpan {
            name: terminal.clone(),
            detail: state.detail.take().map(Into::into),
            nanos: elapsed.as_nanos() as u64,
        };
        state.closed.push(span);
        state.last = now;
        let stages = std::mem::take(&mut state.closed);
        let total_nanos = stages.iter().map(|s| s.nanos).sum();
        debug_assert_eq!(
            total_nanos,
            now.saturating_duration_since(self.born).as_nanos() as u64,
            "stage durations must sum to end-to-end latency"
        );
        RequestTimeline {
            trace_id: self.trace_id,
            stages,
            terminal,
            total_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_sum_to_total() {
        let trace = TraceContext::new(7, Instant::now());
        trace.enter(RequestStage::Queue);
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.enter(RequestStage::Cache);
        trace.note("build");
        trace.enter(RequestStage::Execute);
        trace.enter(RequestStage::Respond);
        let timeline = trace.finish();
        assert_eq!(
            timeline.stage_names(),
            vec!["admission", "queue", "cache", "execute", "respond"]
        );
        assert_eq!(timeline.terminal, "respond");
        assert_eq!(
            timeline.total_nanos,
            timeline.stages.iter().map(|s| s.nanos).sum::<u64>()
        );
        assert_eq!(timeline.stages[1].name, "queue");
        assert!(timeline.stage_nanos("queue").unwrap() >= 2_000_000);
        assert_eq!(timeline.stages[2].detail.as_deref(), Some("build"));
    }

    #[test]
    fn terminal_stage_records_where_the_request_died() {
        let trace = TraceContext::new(3, Instant::now());
        trace.enter(RequestStage::Queue);
        let timeline = trace.finish();
        assert_eq!(timeline.terminal, "queue");
        assert_eq!(timeline.stage_names(), vec!["admission", "queue"]);
    }

    #[test]
    fn zeroed_json_is_structure_only() {
        let trace = TraceContext::new(42, Instant::now());
        trace.enter(RequestStage::Queue);
        trace.enter(RequestStage::Cache);
        trace.note("hit");
        trace.enter(RequestStage::Execute);
        trace.enter(RequestStage::Respond);
        let z = trace.finish().zero_durations();
        assert_eq!(
            z.to_json(),
            "{\"trace_id\":0,\"total_nanos\":0,\"terminal\":\"respond\",\"stages\":[\
             {\"stage\":\"admission\",\"nanos\":0},\
             {\"stage\":\"queue\",\"nanos\":0},\
             {\"stage\":\"cache\",\"detail\":\"hit\",\"nanos\":0},\
             {\"stage\":\"execute\",\"nanos\":0},\
             {\"stage\":\"respond\",\"nanos\":0}]}"
        );
    }

    #[test]
    fn untrusted_stage_names_render_as_valid_json() {
        // Stage names and details arrive as arbitrary strings in a wire
        // `Trace` frame.
        let mut t = RequestTimeline::empty(1);
        t.stages.push(StageSpan {
            name: "\t\u{1}\"".into(),
            detail: Some("\r".into()),
            nanos: 0,
        });
        assert!(
            t.to_json()
                .contains(r#"{"stage":"\t\u0001\"","detail":"\r","nanos":0}"#),
            "{}",
            t.to_json()
        );
    }

    #[test]
    fn empty_timeline_shape() {
        let t = RequestTimeline::empty(9);
        assert_eq!(t.trace_id, 9);
        assert!(t.stages.is_empty());
        assert_eq!(t.terminal, "unknown");
        assert_eq!(t.total_nanos, 0);
    }
}
