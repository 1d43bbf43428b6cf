//! The closed-loop load generator: `WireRequest`s over loopback TCP, one
//! code path whether or not spans are recorded.
//!
//! A connection writes one request frame, buffers the raw response frames
//! up to the terminal one, then decodes the buffer with `read_response`.
//! Buffering first keeps transport + server time and client decode time
//! apart without a second code path for the traced run.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use pp_engine::Value;
use pp_server::{
    encode_frame, read_response, Frame, RequestTimeline, WireOutcome, WireResponse, MAX_FRAME_LEN,
};

use crate::span::Recorder;
use crate::workload::Scheduled;

/// The wire protocol's framing, as documented in `pp_server::wire`:
/// `magic(4) | type(1) | len(4, big-endian) | payload`, with `complete`
/// and `error` the two frames that end a response.
const WIRE_MAGIC: [u8; 4] = *b"PPW1";
const FRAME_HEADER_LEN: usize = 9;
const FRAME_TYPE_COMPLETE: u8 = 0x04;
const FRAME_TYPE_ERROR: u8 = 0x05;

/// Server stages in waterfall order (a solo request skips `window`, a
/// shared one skips `queue`).
pub const STAGES: [&str; 6] = [
    "admission",
    "queue",
    "window",
    "cache",
    "execute",
    "respond",
];

/// What came back for one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the schedule.
    pub seq: u64,
    pub query_id: usize,
    /// What costs the same every time it is sent (see `Scheduled::shape`).
    pub shape: usize,
    pub input_rows: usize,
    /// Request write start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Request write start → last response frame decoded.
    pub latency_ns: u64,
    /// The response completed with a verdict stream (not an error frame).
    pub complete: bool,
    pub rows: usize,
    /// Order-sensitive digest of the verdict rows (see [`digest_rows`]).
    pub digest: u64,
    pub response_bytes: usize,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// Client CPU spent on this request: encode + decode + digest.
    pub busy_ns: u64,
    /// Server stage durations from the response's `Trace` frame, in
    /// [`STAGES`] order, and their total.
    pub stage_ns: [u64; 6],
    pub server_total_ns: u64,
    /// CPU time all threads of the process ran during the round this
    /// request was part of (with one connection, during this request): the
    /// round is all that is in flight, so this is what it cost.
    pub cpu_ns: u64,
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            reader: BufReader::with_capacity(
                64 * 1024,
                stream.try_clone().expect("clone the socket"),
            ),
            writer: stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, frame: &[u8]) {
        self.writer.write_all(frame).expect("write request frame");
    }

    /// Buffers raw frames up to and including the terminal one.
    fn receive(&mut self) -> &[u8] {
        self.buf.clear();
        loop {
            let at = self.buf.len();
            self.buf.resize(at + FRAME_HEADER_LEN, 0);
            self.reader
                .read_exact(&mut self.buf[at..])
                .expect("read frame header");
            assert_eq!(self.buf[at..at + 4], WIRE_MAGIC, "bad frame magic");
            let ty = self.buf[at + 4];
            let len = u32::from_be_bytes(self.buf[at + 5..at + 9].try_into().expect("4 bytes"));
            assert!(len <= MAX_FRAME_LEN, "frame of {len} bytes exceeds the cap");
            let body = self.buf.len();
            self.buf.resize(body + len as usize, 0);
            self.reader
                .read_exact(&mut self.buf[body..])
                .expect("read frame payload");
            if ty == FRAME_TYPE_COMPLETE || ty == FRAME_TYPE_ERROR {
                return &self.buf;
            }
        }
    }
}

/// FNV-1a over the verdict rows in stream order: every int, float and
/// string cell by value, blobs by dimension and squared norm (decoded
/// blobs are new allocations, so identity cannot be compared).
pub fn digest_rows<'a>(rows: impl Iterator<Item = &'a [Value]>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for row in rows {
        for cell in row {
            match cell {
                Value::Null => mix(&[0]),
                Value::Bool(b) => mix(&[1, u8::from(*b)]),
                Value::Int(i) => mix(&i.to_le_bytes()),
                Value::Float(x) => mix(&x.to_bits().to_le_bytes()),
                Value::Str(s) => mix(s.as_bytes()),
                Value::Blob(f) => {
                    mix(&(f.dim() as u64).to_le_bytes());
                    mix(&f.sq_norm().to_bits().to_le_bytes());
                }
            }
        }
        mix(&[0xFF]);
    }
    h
}

/// The `frameID` of every verdict row, in stream order.
pub fn frame_ids(columns: &[String], rows: &[Vec<Value>]) -> Vec<i64> {
    let at = columns
        .iter()
        .position(|c| c == "frameID")
        .expect("verdict rows carry frameID");
    rows.iter()
        .map(|r| r[at].as_int().expect("frameID is an int"))
        .collect()
}

fn stage_nanos(timeline: Option<&RequestTimeline>) -> ([u64; 6], u64) {
    let mut out = [0u64; 6];
    let Some(t) = timeline else { return (out, 0) };
    for span in &t.stages {
        if let Some(i) = STAGES.iter().position(|s| *s == span.name) {
            out[i] += span.nanos;
        }
    }
    (out, t.total_nanos)
}

/// One request in flight on one connection.
struct InFlight {
    seq: u64,
    query_id: usize,
    shape: usize,
    input_rows: usize,
    start_ns: u64,
    encode_ns: u64,
    sent_ns: u64,
}

/// Drives `conns` in lockstep rounds — write one request per connection,
/// then read every answer in the same order — until `stop_ns`. With one
/// connection this is a plain closed loop.
///
/// Spans are recorded for requests starting at or after `trace_from_ns`
/// (`u64::MAX` records none). `run` returns every sample and hands each
/// decoded response to `keep` first.
pub struct Driver<'a> {
    /// The request sent `i`-th.
    pub request: &'a dyn Fn(u64) -> Scheduled,
    /// Sequence number of the first request.
    pub first_seq: u64,
    pub epoch: Instant,
    pub stop_ns: u64,
    pub trace_from_ns: u64,
    /// Stop after this many requests even if `stop_ns` is not reached.
    pub max_requests: u64,
    /// Called once, when the request with this sequence number has been
    /// answered.
    pub milestone: (u64, &'a dyn Fn()),
}

impl Driver<'_> {
    pub fn run(
        &self,
        conns: &mut [Conn],
        recorder: &mut Recorder,
        mut keep: impl FnMut(&WireResponse),
    ) -> Vec<Sample> {
        let now = |epoch: Instant| epoch.elapsed().as_nanos() as u64;
        let mut samples = Vec::new();
        let mut flights: Vec<InFlight> = Vec::with_capacity(conns.len());
        let mut next = self.first_seq;
        loop {
            flights.clear();
            let cpu0 = crate::machine::process_cpu_ns();
            let first = samples.len();
            for conn in conns.iter_mut() {
                if now(self.epoch) >= self.stop_ns {
                    break;
                }
                let seq = next;
                if seq >= self.max_requests {
                    break;
                }
                next += 1;
                let scheduled = (self.request)(seq);
                let start_ns = now(self.epoch);
                let frame = encode_frame(&Frame::Request(scheduled.request));
                let encoded_ns = now(self.epoch);
                conn.send(&frame);
                flights.push(InFlight {
                    seq,
                    query_id: scheduled.query_id,
                    shape: scheduled.shape,
                    input_rows: scheduled.input_rows,
                    start_ns,
                    encode_ns: encoded_ns - start_ns,
                    sent_ns: now(self.epoch),
                });
            }
            if flights.is_empty() {
                return samples;
            }
            for (conn, flight) in conns.iter_mut().zip(&flights) {
                let bytes = conn.receive();
                let received_ns = now(self.epoch);
                let response = read_response(&mut &bytes[..]).expect("decode response");
                let decoded_ns = now(self.epoch);
                let (complete, rows, digest) = match &response.outcome {
                    WireOutcome::Complete { rows, .. } => (
                        true,
                        rows.len(),
                        digest_rows(rows.iter().map(Vec::as_slice)),
                    ),
                    WireOutcome::Error { .. } => (false, 0, 0),
                };
                let end_ns = now(self.epoch);
                let (stage_ns, server_total_ns) = stage_nanos(response.trace.as_ref());
                let sample = Sample {
                    seq: flight.seq,
                    query_id: flight.query_id,
                    shape: flight.shape,
                    input_rows: flight.input_rows,
                    start_ns: flight.start_ns,
                    latency_ns: end_ns - flight.start_ns,
                    complete,
                    rows,
                    digest,
                    response_bytes: bytes.len(),
                    encode_ns: flight.encode_ns,
                    decode_ns: decoded_ns - received_ns,
                    busy_ns: flight.encode_ns + (end_ns - received_ns),
                    stage_ns,
                    server_total_ns,
                    cpu_ns: 0,
                };
                if flight.start_ns >= self.trace_from_ns {
                    record_request_spans(
                        recorder,
                        flight,
                        &sample,
                        received_ns,
                        decoded_ns,
                        end_ns,
                    );
                }
                keep(&response);
                samples.push(sample);
                if flight.seq == self.milestone.0 {
                    (self.milestone.1)();
                }
            }
            let cpu = crate::machine::process_cpu_ns() - cpu0;
            for s in &mut samples[first..] {
                s.cpu_ns = cpu;
            }
        }
    }
}

/// The request span and its children: the client-side wire calls as
/// timed, and the server's stage waterfall hung from the moment the
/// request was written (the server's clock is not the client's, so the
/// stages are laid end to end from there).
fn record_request_spans(
    recorder: &mut Recorder,
    flight: &InFlight,
    sample: &Sample,
    received_ns: u64,
    decoded_ns: u64,
    end_ns: u64,
) {
    let seq = flight.seq;
    let root = recorder.record("request", 0, seq, flight.start_ns, end_ns);
    recorder.record(
        "wire.encode_request",
        root,
        seq,
        flight.start_ns,
        flight.start_ns + flight.encode_ns,
    );
    let mut at = flight.sent_ns;
    for (name, nanos) in SERVER_SPAN_NAMES.iter().zip(sample.stage_ns) {
        if nanos > 0 {
            recorder.record(name, root, seq, at, at + nanos);
            at += nanos;
        }
    }
    recorder.record("wire.decode_response", root, seq, received_ns, decoded_ns);
    recorder.record("loadgen.digest", root, seq, decoded_ns, end_ns);
}

const SERVER_SPAN_NAMES: [&str; 6] = [
    "server.admission",
    "server.queue",
    "server.window",
    "server.cache",
    "server.execute",
    "server.respond",
];

#[cfg(test)]
mod tests {
    use super::*;
    use pp_linalg::Features;

    #[test]
    fn digest_depends_on_values_and_order_but_not_blob_identity() {
        let row = |id: i64, color: &str| {
            vec![
                Value::Int(id),
                Value::blob(Features::Dense(vec![0.5, 1.5])),
                Value::str(color),
                Value::Float(61.25),
            ]
        };
        let a = [row(1, "red"), row(2, "black")];
        let same = [row(1, "red"), row(2, "black")];
        let swapped = [row(2, "black"), row(1, "red")];
        let other = [row(1, "red"), row(2, "white")];
        let d = |rows: &[Vec<Value>]| digest_rows(rows.iter().map(Vec::as_slice));
        assert_eq!(d(&a), d(&same));
        assert_ne!(d(&a), d(&swapped));
        assert_ne!(d(&a), d(&other));
        assert_ne!(d(&a), d(&a[..1]));
        assert_eq!(
            frame_ids(&["frameID".into(), "frame".into()], &a),
            vec![1, 2]
        );
    }
}
