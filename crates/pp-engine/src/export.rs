//! Metric and telemetry exporters: OpenMetrics/Prometheus text exposition
//! and append-only JSONL sinks.
//!
//! The telemetry subsystem deliberately keeps its in-memory types
//! scrape-agnostic; this module is the boundary where they leave the
//! process. Two formats ship:
//!
//! * [`openmetrics`] renders a [`TelemetrySnapshot`] as Prometheus /
//!   OpenMetrics text exposition — registry samples first (lexicographic
//!   name order), then query-level gauges, then one labeled series per
//!   span field — terminated by the OpenMetrics `# EOF` marker.
//! * [`JsonlExporter`] appends one [`TelemetrySnapshot::to_json`] line per
//!   snapshot to any [`io::Write`] sink.
//!
//! Determinism: both formats serialize in fixed field/family order with
//! Rust's shortest-roundtrip float formatting, so after
//! [`TelemetrySnapshot::zero_wall_clock`] the exported bytes are identical
//! at every parallelism and batch size — pinned by the golden-file tests
//! in `tests/exporters.rs`.

use std::io::{self, Write};

use crate::telemetry::{MetricValue, MetricsRegistry, OperatorSpan, TelemetrySnapshot};

/// Sanitizes a registry metric name into the Prometheus grammar
/// (`[a-zA-Z0-9_:]`, here always prefixed `pp_`): every other character
/// becomes `_`, e.g. `events.dropped_total` → `pp_events_dropped_total`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    if !name.starts_with("pp_") {
        out.push_str("pp_");
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the Prometheus text format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: counters as integers, gauges with Rust's
/// shortest-roundtrip float formatting.
fn format_value(value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => format!("{g}"),
    }
}

fn write_samples(out: &mut String, samples: &[(String, MetricValue)]) {
    for (name, value) in samples {
        let name = sanitize_metric_name(name);
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
        };
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        out.push_str(&format!("{name} {}\n", format_value(value)));
    }
}

/// Per-span gauge families exported by [`openmetrics`], in output order.
#[allow(clippy::type_complexity)]
const SPAN_FAMILIES: &[(&str, fn(&OperatorSpan) -> String)] = &[
    ("pp_operator_rows_in", |s| s.rows_in.to_string()),
    ("pp_operator_rows_out", |s| s.rows_out.to_string()),
    ("pp_operator_rows_filtered", |s| s.rows_filtered.to_string()),
    ("pp_operator_rows_failed", |s| s.rows_failed.to_string()),
    ("pp_operator_rows_emitted", |s| s.rows_emitted.to_string()),
    ("pp_operator_attempts", |s| s.attempts.to_string()),
    ("pp_operator_retries", |s| s.retries.to_string()),
    ("pp_operator_failures", |s| s.failures.to_string()),
    ("pp_operator_timeouts", |s| s.timeouts.to_string()),
    ("pp_operator_failed_open", |s| s.failed_open.to_string()),
    ("pp_operator_short_circuited", |s| {
        s.short_circuited.to_string()
    }),
    ("pp_operator_breaker_tripped", |s| {
        if s.breaker_tripped { "1" } else { "0" }.to_string()
    }),
    ("pp_operator_reduction", |s| format!("{}", s.reduction())),
    ("pp_operator_seconds", |s| format!("{}", s.seconds)),
    ("pp_operator_wall_nanos", |s| s.wall_nanos.to_string()),
];

/// Renders one snapshot as Prometheus/OpenMetrics text exposition.
///
/// Layout (fixed): registry samples, query-level gauges
/// (`pp_query_events_dropped`, `pp_query_injected_faults`,
/// `pp_query_wall_nanos`), then one `# TYPE`-headed family per span field
/// with `query`/`op_id`/`op` labels, and a terminating `# EOF`.
pub fn openmetrics(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(4096);
    write_samples(&mut out, &snapshot.metrics);
    let q = snapshot.query_id.0;
    for (name, value) in [
        ("pp_query_events_dropped", snapshot.events_dropped),
        ("pp_query_injected_faults", snapshot.injected_fault_count()),
        ("pp_query_wall_nanos", snapshot.wall_nanos),
    ] {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name}{{query=\"{q}\"}} {value}\n"));
    }
    for (family, value_of) in SPAN_FAMILIES {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for span in &snapshot.spans {
            out.push_str(&format!(
                "{family}{{query=\"{q}\",op_id=\"{}\",op=\"{}\"}} {}\n",
                span.op_id.0,
                escape_label(&span.op),
                value_of(span)
            ));
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Renders a registry's counter/gauge samples — and its latency
/// histograms as cumulative-bucket Prometheus histogram families — as
/// Prometheus/OpenMetrics text exposition (lexicographic name order,
/// `# EOF`-terminated). Histogram `le` bounds are the power-of-two bucket
/// upper bounds in seconds; only non-empty buckets plus the mandatory
/// `+Inf` bucket and `_count` line are emitted.
pub fn openmetrics_registry(registry: &MetricsRegistry) -> String {
    let mut out = String::with_capacity(1024);
    write_samples(&mut out, &registry.samples());
    for (name, hist) in registry.histogram_samples() {
        let name = sanitize_metric_name(&name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in hist.nonzero_buckets() {
            cumulative += count;
            let le = crate::telemetry::LatencyHistogram::bucket_upper_bound(i);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_count {}\n",
            hist.count(),
            hist.count()
        ));
    }
    out.push_str("# EOF\n");
    out
}

/// Writes OpenMetrics text exposition to a sink; each exported snapshot
/// is one complete, `# EOF`-terminated exposition.
#[derive(Debug)]
pub struct OpenMetricsExporter<W: Write> {
    writer: W,
}

impl<W: Write> OpenMetricsExporter<W> {
    /// Wraps a sink.
    pub fn new(writer: W) -> Self {
        OpenMetricsExporter { writer }
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Writes one snapshot's exposition.
    pub fn export(&mut self, snapshot: &TelemetrySnapshot) -> io::Result<()> {
        self.writer.write_all(openmetrics(snapshot).as_bytes())
    }
}

/// Appends one JSON line per snapshot
/// ([`TelemetrySnapshot::to_json`] + `\n`) to a sink — the append-only
/// JSONL format log shippers ingest natively.
#[derive(Debug)]
pub struct JsonlExporter<W: Write> {
    writer: W,
}

impl<W: Write> JsonlExporter<W> {
    /// Wraps a sink.
    pub fn new(writer: W) -> Self {
        JsonlExporter { writer }
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Appends one snapshot's JSON line.
    pub fn export(&mut self, snapshot: &TelemetrySnapshot) -> io::Result<()> {
        self.writer.write_all(snapshot.to_json().as_bytes())?;
        self.writer.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::QueryId;

    fn empty_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            query_id: QueryId(7),
            spans: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            injected_faults: Vec::new(),
            metrics: vec![
                ("queries_total".into(), MetricValue::Counter(2)),
                ("rows.scanned".into(), MetricValue::Gauge(1.5)),
            ],
            error: None,
            wall_nanos: 0,
        }
    }

    #[test]
    fn sanitizes_names_into_prometheus_grammar() {
        assert_eq!(sanitize_metric_name("queries_total"), "pp_queries_total");
        assert_eq!(sanitize_metric_name("rows.scanned"), "pp_rows_scanned");
        assert_eq!(sanitize_metric_name("pp_already"), "pp_already");
        assert_eq!(sanitize_metric_name("a-b c"), "pp_a_b_c");
    }

    #[test]
    fn exposition_has_type_lines_and_eof() {
        let text = openmetrics(&empty_snapshot());
        assert!(text.contains("# TYPE pp_queries_total counter\n"));
        assert!(text.contains("pp_queries_total 2\n"));
        assert!(text.contains("# TYPE pp_rows_scanned gauge\n"));
        assert!(text.contains("pp_rows_scanned 1.5\n"));
        assert!(text.contains("pp_query_injected_faults{query=\"7\"} 0\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label(r#"PP[a "b" \ c]"#), r#"PP[a \"b\" \\ c]"#);
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn registry_exposition_matches_samples() {
        let reg = MetricsRegistry::default();
        reg.counter("calls_total").add(3);
        reg.gauge("depth").set(2.25);
        let text = openmetrics_registry(&reg);
        assert!(text.contains("pp_calls_total 3\n"));
        assert!(text.contains("pp_depth 2.25\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn registry_exposition_renders_histograms() {
        let reg = MetricsRegistry::default();
        reg.histogram("server.stage.execute_seconds").record(0.5);
        reg.histogram("server.stage.execute_seconds").record(0.5);
        let text = openmetrics_registry(&reg);
        assert!(
            text.contains("# TYPE pp_server_stage_execute_seconds histogram\n"),
            "{text}"
        );
        assert!(
            text.contains("pp_server_stage_execute_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("pp_server_stage_execute_seconds_count 2\n"),
            "{text}"
        );
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn exporters_write_to_sinks() {
        let snap = empty_snapshot();
        let mut om = OpenMetricsExporter::new(Vec::new());
        om.export(&snap).unwrap();
        let bytes = om.into_inner();
        assert_eq!(String::from_utf8(bytes).unwrap(), openmetrics(&snap));

        let mut jl = JsonlExporter::new(Vec::new());
        jl.export(&snap).unwrap();
        jl.export(&snap).unwrap();
        let text = String::from_utf8(jl.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], snap.to_json());
        assert_eq!(lines[0], lines[1]);
    }
}
