//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written as JSONL when a traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; spans of one request
/// share its sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span sink; each load-generator thread owns one and
/// they are concatenated after the run, so recording takes no lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// `lane` keeps ids of different recorders apart.
    pub fn new(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a closed span and returns its id (for its children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        seq: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            seq,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a span and returns its nanoseconds.
    pub fn time(&mut self, name: &'static str, parent: u64, seq: u64, f: impl FnOnce()) -> u64 {
        let start = self.now_ns();
        f();
        let end = self.now_ns();
        self.record(name, parent, seq, start, end);
        end - start
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover (children of one span never overlap here).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut covered: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.nanos();
    }
    spans
        .iter()
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.nanos().saturating_sub(children))
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"seq\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.seq, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(Instant::now(), 3);
        let root = r.record("request", 0, 9, 100, 1_100);
        let child = r.record("server.execute", root, 9, 200, 700);
        r.record("engine.scan", child, 9, 250, 350);
        r.record("wire.decode_response", root, 9, 800, 1_000);
        let spans = r.into_spans();
        assert!(spans.iter().all(|s| s.id >> 40 == 3 && s.seq == 9));
        let selfs: std::collections::HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&root], 1_000 - 500 - 200);
        assert_eq!(selfs[&child], 500 - 100);
    }
}
