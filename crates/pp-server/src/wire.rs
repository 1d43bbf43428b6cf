//! A framed, HTTP/gRPC-shaped request/response protocol fronting
//! [`PpServer`].
//!
//! The serving runtime's in-process API ([`PpServer::submit`]) hands back
//! a [`QueryTicket`](crate::request::QueryTicket); a real deployment sits
//! behind a socket. This module defines the byte protocol for that front
//! door — a length-prefixed binary codec usable over any
//! [`Read`]/[`Write`] pair (TCP stream, Unix socket, in-memory buffer) —
//! plus [`serve_connection`], which drives one connection against a
//! server.
//!
//! # Framing
//!
//! Every frame is `magic(4) | type(1) | len(4, big-endian) | payload`:
//!
//! | type | frame | payload |
//! |------|-------|---------|
//! | `0x01` | request | [`WireRequest`] |
//! | `0x02` | result header | request id, epoch, cache-hit flag, column names |
//! | `0x03` | verdict batch | request id + a chunk of result rows |
//! | `0x04` | complete | request id + total row count |
//! | `0x05` | error | request id, typed kind, detail, partial-work billing |
//! | `0x06` | trace | the request's [`RequestTimeline`] stage waterfall |
//!
//! Every admitted query's response stream opens with one `trace` frame
//! carrying its [`RequestTimeline`] (per-stage wall-clock durations plus
//! the terminal stage — see [`crate::trace`]), so clients can render a
//! stage waterfall without any extra round trip. A successful query then
//! streams `result header`, zero or more `verdict batch` frames (chunked
//! [`VERDICT_CHUNK_ROWS`] rows at a time, so a client renders verdicts
//! incrementally instead of buffering the full result), then `complete`
//! whose row count lets the client verify it missed nothing. Anything
//! else — admission sheds, cost rejections, cancellations/deadlines,
//! execution failures, malformed input — arrives as exactly one typed
//! `error` frame (synchronous sheds carry no trace: the request never
//! admitted).
//!
//! Frames larger than [`MAX_FRAME_LEN`] are rejected *before* any payload
//! allocation ([`WireError::FrameTooLarge`]), truncated payloads surface
//! as [`WireError::Truncated`], and predicate decoding enforces a nesting
//! bound ([`WireError::DepthExceeded`]) so hostile bytes cannot blow the
//! stack. `tests/wire.rs` pins the exact byte layout with golden files.
//!
//! Payloads decode through [`pp_engine::bytes::Reader`], the bounded
//! reader the segment store uses too, under its one rule: a count read
//! from the payload is held to the unread bytes
//! ([`Reader::expect_items`], with the fewest bytes one item can take)
//! before room for that many items is reserved — so what a frame makes
//! the decoder hold is linear in the bytes the peer actually sent.
//!
//! # Request payload
//!
//! | field | encoding |
//! |-------|----------|
//! | source | length-prefixed UTF-8 |
//! | predicate | tagged tree, depth ≤ [`MAX_PREDICATE_DEPTH`] |
//! | accuracy target | `f64` bits; the decoder refuses NaN and anything outside `(0, 1]` |
//! | deadline (ms) | option flag + `u64` |
//! | parallelism, batch size, morsel size | option flag + `u32`, each; requests, not reservations — the engine clamps each to ≥ 1 and caps threads at the machine's |
//! | *reserved* | one byte: the encoder writes `0`; the decoder accepts `0`–`2` and ignores the value (`PPW1` clients sent a batch-mode selector here, which no longer selects anything) |
//! | shared | one byte, non-zero = shared-scan window |
//!
//! # Values on the wire
//!
//! All [`Value`] variants round-trip, including blobs (dense or sparse
//! feature vectors, encoded by value). One caveat: in-process blob
//! equality is `Arc` pointer identity, so a *decoded* blob is a distinct
//! value from the catalog's copy even when its coordinates match —
//! verdict rows are for reading out, not for feeding back in.
//!
//! [`read_response`] reads every frame of a response into one payload
//! buffer, which grows only with the bytes that arrive, and decodes
//! verdict rows straight into the response's row vector. Its strings go
//! through a table scoped to the response and bounded at 256 distinct
//! strings: a categorical cell repeated down the stream (`vehType`,
//! `vehColor`, …) decodes to a clone of the first one's `Arc<str>`, so
//! decoded strings of one response may share storage. Past the bound a
//! new string gets an allocation of its own. ([`read_frame`] decodes each
//! frame with a table of its own.)

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

use pp_engine::bytes::{put_u32, put_u64, put_words, Reader, Truncated};
use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_engine::value::Value;
use pp_engine::Row;
use pp_linalg::features::Features;
use pp_linalg::sparse::SparseVector;

use crate::request::{QueryOutcome, QueryRequest};
use crate::server::PpServer;
use crate::trace::{RequestTimeline, StageSpan};

/// Frame magic: protocol name + version.
pub const MAGIC: [u8; 4] = *b"PPW1";
/// Hard ceiling on a frame's payload length; larger headers are rejected
/// before any allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;
/// Result rows per verdict-batch frame.
pub const VERDICT_CHUNK_ROWS: usize = 256;
/// Maximum predicate nesting accepted by the decoder.
pub const MAX_PREDICATE_DEPTH: u32 = 64;
/// Most distinct strings the string table of one [`read_response`] holds.
const STRING_TABLE_ENTRIES: usize = 256;

const TYPE_REQUEST: u8 = 0x01;
const TYPE_RESULT_HEADER: u8 = 0x02;
const TYPE_VERDICT_BATCH: u8 = 0x03;
const TYPE_COMPLETE: u8 = 0x04;
const TYPE_ERROR: u8 = 0x05;
const TYPE_TRACE: u8 = 0x06;

/// Decode/encode/transport failures of the wire codec.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown frame-type byte.
    UnknownFrameType(u8),
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
    /// The payload ended before its declared structure did.
    Truncated,
    /// Structurally invalid payload (bad tag, bad UTF-8, bad float...).
    Malformed(String),
    /// Predicate nesting exceeded [`MAX_PREDICATE_DEPTH`].
    DepthExceeded,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::DepthExceeded => {
                write!(f, "predicate nesting exceeds {MAX_PREDICATE_DEPTH}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A query as it crosses the wire. Maps onto [`QueryRequest`] minus the
/// in-process testing knobs (fault plans, resilience overrides).
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Registered source name.
    pub source: String,
    /// The WHERE predicate.
    pub predicate: Predicate,
    /// Accuracy target `a` in `(0, 1]`; a Request frame carrying anything
    /// else (NaN included) decodes to [`WireError::Malformed`].
    pub accuracy_target: f64,
    /// Optional deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Optional executor parallelism override.
    pub parallelism: Option<u32>,
    /// Optional rows-per-batch override.
    pub batch_size: Option<u32>,
    /// Optional rows-per-morsel override.
    pub morsel_size: Option<u32>,
    /// Run in a shared-scan window ([`QueryRequest::shared()`]) instead of
    /// alone.
    pub shared: bool,
}

impl WireRequest {
    /// A request with the given source/predicate/accuracy and every
    /// optional knob unset (solo execution).
    pub fn new(source: impl Into<String>, predicate: Predicate, accuracy_target: f64) -> Self {
        WireRequest {
            source: source.into(),
            predicate,
            accuracy_target,
            deadline_ms: None,
            parallelism: None,
            batch_size: None,
            morsel_size: None,
            shared: false,
        }
    }

    /// The in-process request this wire request stands for.
    pub fn to_query_request(&self) -> QueryRequest {
        let mut req = QueryRequest::new(
            self.source.clone(),
            self.predicate.clone(),
            self.accuracy_target,
        );
        if let Some(ms) = self.deadline_ms {
            req = req.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(k) = self.parallelism {
            req = req.with_parallelism(k as usize);
        }
        if let Some(rows) = self.batch_size {
            req = req.with_batch_size(rows as usize);
        }
        if let Some(rows) = self.morsel_size {
            req = req.with_morsel_size(rows as usize);
        }
        req.shared = self.shared;
        req
    }
}

/// Why a query came back as an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Shed by admission or the cost budget ([`RejectReason`]-shaped).
    ///
    /// [`RejectReason`]: crate::request::RejectReason
    Rejected,
    /// Cancelled (caller, deadline, drain, worker panic).
    Cancelled,
    /// Planning or execution failed.
    Failed,
    /// The server could not decode the request.
    Malformed,
}

impl WireErrorKind {
    fn code(self) -> u8 {
        match self {
            WireErrorKind::Rejected => 1,
            WireErrorKind::Cancelled => 2,
            WireErrorKind::Failed => 3,
            WireErrorKind::Malformed => 4,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            1 => WireErrorKind::Rejected,
            2 => WireErrorKind::Cancelled,
            3 => WireErrorKind::Failed,
            4 => WireErrorKind::Malformed,
            other => return Err(WireError::Malformed(format!("error kind {other}"))),
        })
    }
}

/// One decoded frame.
///
/// No `PartialEq`: [`Value`] deliberately has none (blob equality is
/// pointer identity in-process); tests compare frames via `Debug`.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Client → server: run this query.
    Request(WireRequest),
    /// Server → client: the query completed; rows follow.
    ResultHeader {
        /// Server-assigned request id (echoed on every later frame).
        request_id: u64,
        /// Catalog epoch the query planned against.
        epoch: u64,
        /// Whether the plan came from the cache.
        cache_hit: bool,
        /// Output column names, in row order.
        columns: Vec<String>,
    },
    /// Server → client: a chunk of verdict rows.
    VerdictBatch {
        /// Request id.
        request_id: u64,
        /// Up to [`VERDICT_CHUNK_ROWS`] rows of output cells.
        rows: Vec<Vec<Value>>,
    },
    /// Server → client: the verdict stream is complete.
    Complete {
        /// Request id.
        request_id: u64,
        /// Total rows streamed — clients verify against what they saw.
        total_rows: u64,
    },
    /// Server → client: the request's stage waterfall. Sent once per
    /// admitted query, *before* the terminal `ResultHeader`/`Error`
    /// frames, so response collectors terminate on the same frame they
    /// always did.
    Trace(RequestTimeline),
    /// Server → client: the query ended without a verdict stream.
    Error {
        /// Request id (0 when the request never reached admission).
        request_id: u64,
        /// What class of ending this was.
        kind: WireErrorKind,
        /// Human-readable detail.
        detail: String,
        /// Rows consumed before a cancellation landed (0 otherwise).
        rows_processed: u64,
        /// Simulated cluster-seconds billed before the ending.
        charged_cluster_seconds: f64,
    },
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

/// A length-prefixed UTF-8 string, borrowed from the payload.
fn get_str<'a>(cur: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let len = cur.u32()? as usize;
    std::str::from_utf8(cur.take(len)?)
        .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
}

fn get_string(cur: &mut Reader<'_>) -> Result<String, WireError> {
    get_str(cur).map(str::to_owned)
}

/// Fewest payload bytes a string takes: its length prefix.
const MIN_STRING_LEN: usize = 4;

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The strings decoded so far in one response: a string seen before comes
/// back as a clone of the first one's `Arc`. At most
/// [`STRING_TABLE_ENTRIES`] are kept; past that, a new string is still
/// decoded, just not remembered. The strings are the peer's bytes, so the
/// set keeps the standard library's keyed hasher.
#[derive(Default)]
struct StringTable(HashSet<Arc<str>>);

impl StringTable {
    fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(seen) = self.0.get(s) {
            return Arc::clone(seen);
        }
        let fresh = Arc::<str>::from(s);
        if self.0.len() < STRING_TABLE_ENTRIES {
            self.0.insert(Arc::clone(&fresh));
        }
        fresh
    }
}

// ---------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_BLOB_DENSE: u8 = 5;
const VAL_BLOB_SPARSE: u8 = 6;

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_string(out, s);
        }
        Value::Blob(features) => match features.as_ref() {
            Features::Dense(coords) => {
                out.push(VAL_BLOB_DENSE);
                put_u32(out, coords.len() as u32);
                let words = coords.iter().map(|c| c.to_bits().to_be_bytes());
                put_words(out, coords.len(), words);
            }
            Features::Sparse(sv) => {
                out.push(VAL_BLOB_SPARSE);
                put_u32(out, sv.dim() as u32);
                put_u32(out, sv.nnz() as u32);
                let entries = sv.iter().map(|(idx, val)| {
                    let mut entry = [0u8; 12];
                    entry[..4].copy_from_slice(&idx.to_be_bytes());
                    entry[4..].copy_from_slice(&val.to_bits().to_be_bytes());
                    entry
                });
                put_words(out, sv.nnz(), entries);
            }
        },
    }
}

fn get_value(cur: &mut Reader<'_>, strings: &mut StringTable) -> Result<Value, WireError> {
    Ok(match cur.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(cur.u8()? != 0),
        VAL_INT => Value::Int(cur.i64()?),
        VAL_FLOAT => Value::Float(cur.f64()?),
        VAL_STR => Value::Str(strings.get(get_str(cur)?)),
        VAL_BLOB_DENSE => {
            let n = cur.u32()? as usize;
            let words = cur.words::<8>(n)?;
            let coords = words.iter().map(|w| f64::from_bits(u64::from_be_bytes(*w)));
            Value::blob(Features::Dense(coords.collect()))
        }
        VAL_BLOB_SPARSE => {
            let dim = cur.u32()? as usize;
            let nnz = cur.u32()? as usize;
            let entries = cur.words::<12>(nnz)?;
            let mut indices = Vec::with_capacity(nnz);
            let mut values = Vec::with_capacity(nnz);
            for &[i0, i1, i2, i3, val @ ..] in entries {
                indices.push(u32::from_be_bytes([i0, i1, i2, i3]));
                values.push(f64::from_bits(u64::from_be_bytes(val)));
            }
            let sv = SparseVector::new(dim, indices, values)
                .map_err(|e| WireError::Malformed(format!("sparse blob: {e}")))?;
            Value::blob(Features::Sparse(sv))
        }
        other => return Err(WireError::Malformed(format!("value tag {other}"))),
    })
}

// ---------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------

const PRED_TRUE: u8 = 0;
const PRED_FALSE: u8 = 1;
const PRED_CLAUSE: u8 = 2;
const PRED_NOT: u8 = 3;
const PRED_AND: u8 = 4;
const PRED_OR: u8 = 5;

fn compare_op_code(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    }
}

fn compare_op_from(code: u8) -> Result<CompareOp, WireError> {
    Ok(match code {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        other => return Err(WireError::Malformed(format!("compare op {other}"))),
    })
}

fn put_predicate(out: &mut Vec<u8>, predicate: &Predicate) {
    match predicate {
        Predicate::True => out.push(PRED_TRUE),
        Predicate::False => out.push(PRED_FALSE),
        Predicate::Clause(clause) => {
            out.push(PRED_CLAUSE);
            put_string(out, &clause.column);
            out.push(compare_op_code(clause.op));
            put_value(out, &clause.value);
        }
        Predicate::Not(inner) => {
            out.push(PRED_NOT);
            put_predicate(out, inner);
        }
        Predicate::And(children) => {
            out.push(PRED_AND);
            put_u32(out, children.len() as u32);
            for child in children {
                put_predicate(out, child);
            }
        }
        Predicate::Or(children) => {
            out.push(PRED_OR);
            put_u32(out, children.len() as u32);
            for child in children {
                put_predicate(out, child);
            }
        }
    }
}

fn get_predicate(
    cur: &mut Reader<'_>,
    depth: u32,
    strings: &mut StringTable,
) -> Result<Predicate, WireError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(WireError::DepthExceeded);
    }
    Ok(match cur.u8()? {
        PRED_TRUE => Predicate::True,
        PRED_FALSE => Predicate::False,
        PRED_CLAUSE => {
            let column = get_string(cur)?;
            let op = compare_op_from(cur.u8()?)?;
            let value = get_value(cur, strings)?;
            Predicate::Clause(Clause::new(column, op, value))
        }
        PRED_NOT => Predicate::Not(Box::new(get_predicate(cur, depth + 1, strings)?)),
        PRED_AND => Predicate::And(get_children(cur, depth, strings)?),
        PRED_OR => Predicate::Or(get_children(cur, depth, strings)?),
        other => return Err(WireError::Malformed(format!("predicate tag {other}"))),
    })
}

/// The children of an `And`/`Or` node. Each is at least its tag byte, so a
/// count beyond the unread bytes fails here; the vector still grows with
/// the children actually decoded rather than being reserved from the
/// count, because up to [`MAX_PREDICATE_DEPTH`] nested nodes could each
/// lay claim to the same unread bytes.
fn get_children(
    cur: &mut Reader<'_>,
    depth: u32,
    strings: &mut StringTable,
) -> Result<Vec<Predicate>, WireError> {
    let n = cur.u32()? as usize;
    cur.expect_items(n, 1)?;
    (0..n)
        .map(|_| get_predicate(cur, depth + 1, strings))
        .collect()
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

fn put_option_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn get_option_u64(cur: &mut Reader<'_>) -> Result<Option<u64>, WireError> {
    Ok(match cur.u8()? {
        0 => None,
        1 => Some(cur.u64()?),
        other => return Err(WireError::Malformed(format!("option flag {other}"))),
    })
}

fn put_option_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
        None => out.push(0),
    }
}

fn get_option_u32(cur: &mut Reader<'_>) -> Result<Option<u32>, WireError> {
    Ok(match cur.u8()? {
        0 => None,
        1 => Some(cur.u32()?),
        other => return Err(WireError::Malformed(format!("option flag {other}"))),
    })
}

/// Appends a verdict batch's payload; `rows` yields each row's cells.
fn put_verdict_batch<'r>(
    out: &mut Vec<u8>,
    request_id: u64,
    rows: impl ExactSizeIterator<Item = &'r [Value]>,
) {
    put_u64(out, request_id);
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for cell in row {
            put_value(out, cell);
        }
    }
}

/// Decodes a verdict batch's payload, appending its rows to `rows`;
/// returns the batch's request id.
fn get_verdict_batch(
    cur: &mut Reader<'_>,
    strings: &mut StringTable,
    rows: &mut Vec<Vec<Value>>,
) -> Result<u64, WireError> {
    let request_id = cur.u64()?;
    let n = cur.u32()? as usize;
    // A row is at least its cell count, a cell at least its tag.
    cur.expect_items(n, 4)?;
    rows.reserve(n);
    for _ in 0..n {
        let cells = cur.u32()? as usize;
        cur.expect_items(cells, 1)?;
        let mut row = Vec::with_capacity(cells);
        for _ in 0..cells {
            row.push(get_value(cur, strings)?);
        }
        rows.push(row);
    }
    Ok(request_id)
}

/// Appends one frame to `out`: the header, then whatever `payload`
/// writes, then the header's length field patched to cover it — the
/// payload is encoded where it is sent from, never copied behind a header.
fn put_frame(out: &mut Vec<u8>, ty: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&MAGIC);
    out.push(ty);
    put_u32(out, 0);
    let body = out.len();
    payload(out);
    let len = (out.len() - body) as u32;
    out[body - 4..body].copy_from_slice(&len.to_be_bytes());
}

fn frame_type(frame: &Frame) -> u8 {
    match frame {
        Frame::Request(_) => TYPE_REQUEST,
        Frame::ResultHeader { .. } => TYPE_RESULT_HEADER,
        Frame::VerdictBatch { .. } => TYPE_VERDICT_BATCH,
        Frame::Complete { .. } => TYPE_COMPLETE,
        Frame::Error { .. } => TYPE_ERROR,
        Frame::Trace(_) => TYPE_TRACE,
    }
}

fn put_payload(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Request(req) => {
            put_string(out, &req.source);
            put_predicate(out, &req.predicate);
            put_u64(out, req.accuracy_target.to_bits());
            put_option_u64(out, req.deadline_ms);
            put_option_u32(out, req.parallelism);
            put_option_u32(out, req.batch_size);
            put_option_u32(out, req.morsel_size);
            out.push(0); // reserved, see the module docs
            out.push(u8::from(req.shared));
        }
        Frame::ResultHeader {
            request_id,
            epoch,
            cache_hit,
            columns,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *epoch);
            out.push(u8::from(*cache_hit));
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_string(out, c);
            }
        }
        Frame::VerdictBatch { request_id, rows } => {
            put_verdict_batch(out, *request_id, rows.iter().map(Vec::as_slice));
        }
        Frame::Complete {
            request_id,
            total_rows,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *total_rows);
        }
        Frame::Error {
            request_id,
            kind,
            detail,
            rows_processed,
            charged_cluster_seconds,
        } => {
            put_u64(out, *request_id);
            out.push(kind.code());
            put_string(out, detail);
            put_u64(out, *rows_processed);
            put_u64(out, charged_cluster_seconds.to_bits());
        }
        Frame::Trace(timeline) => {
            put_u64(out, timeline.trace_id);
            put_string(out, &timeline.terminal);
            put_u64(out, timeline.total_nanos);
            put_u32(out, timeline.stages.len() as u32);
            for stage in &timeline.stages {
                put_string(out, &stage.name);
                match &stage.detail {
                    Some(d) => {
                        out.push(1);
                        put_string(out, d);
                    }
                    None => out.push(0),
                }
                put_u64(out, stage.nanos);
            }
        }
    }
}

/// What every [`Reader`] over a frame payload reports when it runs short.
const PAYLOAD: &str = "frame payload";

/// Fails unless the payload has been read to its end.
fn payload_read(cur: &Reader<'_>) -> Result<(), WireError> {
    if !cur.is_empty() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after payload",
            cur.remaining()
        )));
    }
    Ok(())
}

fn decode_payload(ty: u8, payload: &[u8], strings: &mut StringTable) -> Result<Frame, WireError> {
    let cur = &mut Reader::new(payload, PAYLOAD);
    let frame = match ty {
        TYPE_REQUEST => {
            let source = get_string(cur)?;
            let predicate = get_predicate(cur, 0, strings)?;
            let accuracy_target = cur.f64()?;
            // NaN fails the comparison too.
            if !(accuracy_target > 0.0 && accuracy_target <= 1.0) {
                return Err(WireError::Malformed(format!(
                    "accuracy target {accuracy_target} outside (0, 1]"
                )));
            }
            let deadline_ms = get_option_u64(cur)?;
            let parallelism = get_option_u32(cur)?;
            let batch_size = get_option_u32(cur)?;
            let morsel_size = get_option_u32(cur)?;
            // Formerly the batch-mode selector: the values old clients
            // could send are accepted and ignored.
            match cur.u8()? {
                0..=2 => {}
                other => return Err(WireError::Malformed(format!("reserved byte {other}"))),
            }
            let shared = cur.u8()? != 0;
            Frame::Request(WireRequest {
                source,
                predicate,
                accuracy_target,
                deadline_ms,
                parallelism,
                batch_size,
                morsel_size,
                shared,
            })
        }
        TYPE_RESULT_HEADER => {
            let request_id = cur.u64()?;
            let epoch = cur.u64()?;
            let cache_hit = cur.u8()? != 0;
            let n = cur.u32()? as usize;
            cur.expect_items(n, MIN_STRING_LEN)?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(get_string(cur)?);
            }
            Frame::ResultHeader {
                request_id,
                epoch,
                cache_hit,
                columns,
            }
        }
        TYPE_VERDICT_BATCH => {
            let mut rows = Vec::new();
            let request_id = get_verdict_batch(cur, strings, &mut rows)?;
            Frame::VerdictBatch { request_id, rows }
        }
        TYPE_COMPLETE => Frame::Complete {
            request_id: cur.u64()?,
            total_rows: cur.u64()?,
        },
        TYPE_ERROR => {
            let request_id = cur.u64()?;
            let kind = WireErrorKind::from_code(cur.u8()?)?;
            let detail = get_string(cur)?;
            let rows_processed = cur.u64()?;
            let charged_cluster_seconds = cur.f64()?;
            Frame::Error {
                request_id,
                kind,
                detail,
                rows_processed,
                charged_cluster_seconds,
            }
        }
        TYPE_TRACE => {
            let trace_id = cur.u64()?;
            let terminal = get_string(cur)?;
            let total_nanos = cur.u64()?;
            let n = cur.u32()? as usize;
            // A stage is at least a name, a detail flag and its nanos.
            cur.expect_items(n, MIN_STRING_LEN + 1 + 8)?;
            let mut stages = Vec::with_capacity(n);
            for _ in 0..n {
                let name = get_string(cur)?;
                let detail = match cur.u8()? {
                    0 => None,
                    1 => Some(get_string(cur)?),
                    other => return Err(WireError::Malformed(format!("detail flag {other}"))),
                };
                let nanos = cur.u64()?;
                stages.push(StageSpan {
                    name,
                    detail,
                    nanos,
                });
            }
            Frame::Trace(RequestTimeline {
                trace_id,
                stages,
                terminal,
                total_nanos,
            })
        }
        other => return Err(WireError::UnknownFrameType(other)),
    };
    payload_read(cur)?;
    Ok(frame)
}

/// Encodes `frame` into its exact wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, frame_type(frame), |out| put_payload(out, frame));
    out
}

/// Writes one frame to `writer` (no flush — callers batch and flush).
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), WireError> {
    writer.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Reads one frame from `reader`. Returns `Ok(None)` on a clean
/// end-of-stream (the connection closed *between* frames); EOF anywhere
/// inside a frame is [`WireError::Truncated`], and any other transport
/// failure [`WireError::Io`] (an interrupted read is retried).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Frame>, WireError> {
    let mut payload = Vec::new();
    match read_frame_into(reader, &mut payload)? {
        Some(ty) => Ok(Some(decode_payload(
            ty,
            &payload,
            &mut StringTable::default(),
        )?)),
        None => Ok(None),
    }
}

/// Reads one frame's header and its payload into `payload`, replacing what
/// was there; returns the frame type, or `None` on a clean end-of-stream.
fn read_frame_into<R: Read>(
    reader: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, WireError> {
    let mut magic = [0u8; 4];
    let mut filled = 0;
    while filled < magic.len() {
        match reader.read(&mut magic[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    // `read_exact` and `read_to_end` retry interrupted reads themselves.
    let cut_short = |e: std::io::Error| match e.kind() {
        ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(e),
    };
    let mut head = [0u8; 5];
    reader.read_exact(&mut head).map_err(cut_short)?;
    let [ty, len @ ..] = head;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    // The buffer grows with the bytes that arrive, not with the length the
    // header declares: a peer that promises 16 MiB and sends none holds none.
    payload.clear();
    reader
        .by_ref()
        .take(u64::from(len))
        .read_to_end(payload)
        .map_err(cut_short)?;
    if payload.len() < len as usize {
        return Err(WireError::Truncated);
    }
    Ok(Some(ty))
}

/// A fully collected response, assembled from the frame stream by
/// [`read_response`].
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Server-assigned request id (0 when the request never admitted).
    pub request_id: u64,
    /// How the query ended.
    pub outcome: WireOutcome,
    /// The request's stage waterfall from the server's `Trace` frame;
    /// `None` when the request was shed before admission (no trace
    /// exists) or the server predates the frame.
    pub trace: Option<RequestTimeline>,
}

/// The client-visible ending of a wire query.
#[derive(Debug, Clone)]
pub enum WireOutcome {
    /// The verdict stream completed.
    Complete {
        /// Catalog epoch the query planned against.
        epoch: u64,
        /// Whether the plan came from the server's cache.
        cache_hit: bool,
        /// Output column names.
        columns: Vec<String>,
        /// All verdict rows, batches concatenated in stream order.
        rows: Vec<Vec<Value>>,
    },
    /// The query ended with a typed error frame.
    Error {
        /// Error class.
        kind: WireErrorKind,
        /// Human-readable detail.
        detail: String,
        /// Rows consumed before a cancellation landed.
        rows_processed: u64,
        /// Simulated cluster-seconds billed.
        charged_cluster_seconds: f64,
    },
}

/// Collects one query's response frames (header, verdict batches,
/// complete/error) into a [`WireResponse`]. Verifies the `complete`
/// frame's row count against the rows actually streamed.
///
/// Reads exactly what [`read_frame`] in a loop would, to the same
/// response or error, with one payload buffer and one string table (see
/// the module docs) for the whole response.
pub fn read_response<R: Read>(reader: &mut R) -> Result<WireResponse, WireError> {
    let mut header: Option<(u64, u64, bool, Vec<String>)> = None;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut trace: Option<RequestTimeline> = None;
    let mut payload = Vec::new();
    let mut strings = StringTable::default();
    loop {
        let ty = read_frame_into(reader, &mut payload)?.ok_or(WireError::Truncated)?;
        if ty == TYPE_VERDICT_BATCH {
            // Straight into the response's rows, checked in the order
            // `decode_payload` then the header test would check them.
            let cur = &mut Reader::new(&payload, PAYLOAD);
            let request_id = get_verdict_batch(cur, &mut strings, &mut rows)?;
            payload_read(cur)?;
            if !matches!(&header, Some((id, ..)) if *id == request_id) {
                return Err(WireError::Malformed("verdict batch before header".into()));
            }
            continue;
        }
        match decode_payload(ty, &payload, &mut strings)? {
            Frame::ResultHeader {
                request_id,
                epoch,
                cache_hit,
                columns,
            } => {
                if header.is_some() {
                    return Err(WireError::Malformed("duplicate result header".into()));
                }
                header = Some((request_id, epoch, cache_hit, columns));
            }
            Frame::VerdictBatch { .. } => unreachable!("verdict batches are decoded above"),
            Frame::Complete {
                request_id,
                total_rows,
            } => {
                let Some((id, epoch, cache_hit, columns)) = header else {
                    return Err(WireError::Malformed("complete before header".into()));
                };
                if id != request_id {
                    return Err(WireError::Malformed("complete for a different id".into()));
                }
                if rows.len() as u64 != total_rows {
                    return Err(WireError::Malformed(format!(
                        "stream carried {} rows, complete frame declared {total_rows}",
                        rows.len()
                    )));
                }
                return Ok(WireResponse {
                    request_id,
                    outcome: WireOutcome::Complete {
                        epoch,
                        cache_hit,
                        columns,
                        rows,
                    },
                    trace,
                });
            }
            Frame::Error {
                request_id,
                kind,
                detail,
                rows_processed,
                charged_cluster_seconds,
            } => {
                return Ok(WireResponse {
                    request_id,
                    outcome: WireOutcome::Error {
                        kind,
                        detail,
                        rows_processed,
                        charged_cluster_seconds,
                    },
                    trace,
                });
            }
            Frame::Trace(timeline) => {
                if trace.is_some() {
                    return Err(WireError::Malformed("duplicate trace frame".into()));
                }
                trace = Some(timeline);
            }
            Frame::Request(_) => {
                return Err(WireError::Malformed("request frame from server".into()));
            }
        }
    }
}

/// Serves one connection: reads request frames off `reader` until the
/// peer closes, runs each against `server` (solo or shared-scan per the
/// request's `shared` flag), and streams the typed response frames to
/// `writer`. Returns the number of requests served.
///
/// Requests on one connection run sequentially (HTTP/1.1-shaped); open
/// several connections for concurrency — the server side multiplexes
/// fine, and shared-scan windows form across connections. A malformed
/// request gets a typed error frame before the connection closes with the
/// decode error.
pub fn serve_connection<R: Read, W: Write>(
    server: &PpServer,
    mut reader: R,
    mut writer: W,
) -> Result<u64, WireError> {
    let mut served = 0u64;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(served),
            Err(e) => {
                // Best-effort typed goodbye; the transport may be gone.
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        request_id: 0,
                        kind: WireErrorKind::Malformed,
                        detail: e.to_string(),
                        rows_processed: 0,
                        charged_cluster_seconds: 0.0,
                    },
                );
                let _ = writer.flush();
                return Err(e);
            }
        };
        let Frame::Request(wire_req) = frame else {
            let e = WireError::Malformed("client sent a non-request frame".into());
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    request_id: 0,
                    kind: WireErrorKind::Malformed,
                    detail: e.to_string(),
                    rows_processed: 0,
                    charged_cluster_seconds: 0.0,
                },
            );
            let _ = writer.flush();
            return Err(e);
        };
        match server.submit(wire_req.to_query_request()) {
            Ok(ticket) => {
                let request_id = ticket.request_id();
                let response = ticket.wait();
                // The trace precedes the terminal frames so collectors
                // still terminate on `Complete`/`Error` as before.
                write_frame(&mut writer, &Frame::Trace(response.timeline))?;
                write_outcome(&mut writer, request_id, response.outcome)?;
            }
            Err(reject) => {
                write_frame(
                    &mut writer,
                    &Frame::Error {
                        request_id: 0,
                        kind: WireErrorKind::Rejected,
                        detail: reject.to_string(),
                        rows_processed: 0,
                        charged_cluster_seconds: 0.0,
                    },
                )?;
            }
        }
        writer.flush()?;
        served += 1;
    }
}

/// Streams one query outcome as response frames.
fn write_outcome<W: Write>(
    writer: &mut W,
    request_id: u64,
    outcome: QueryOutcome,
) -> Result<(), WireError> {
    match outcome {
        QueryOutcome::Complete(success) => {
            let columns: Vec<String> = success
                .rows
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            write_frame(
                writer,
                &Frame::ResultHeader {
                    request_id,
                    epoch: success.epoch.0,
                    cache_hit: success.cache_hit,
                    columns,
                },
            )?;
            let all = success.rows.rows();
            // Each chunk is encoded from the borrowed rows into one
            // buffer, reused from frame to frame.
            let mut frame = Vec::new();
            for chunk in all.chunks(VERDICT_CHUNK_ROWS) {
                frame.clear();
                put_frame(&mut frame, TYPE_VERDICT_BATCH, |out| {
                    put_verdict_batch(out, request_id, chunk.iter().map(Row::values));
                });
                writer.write_all(&frame)?;
            }
            write_frame(
                writer,
                &Frame::Complete {
                    request_id,
                    total_rows: all.len() as u64,
                },
            )
        }
        QueryOutcome::Rejected(reason) => write_frame(
            writer,
            &Frame::Error {
                request_id,
                kind: WireErrorKind::Rejected,
                detail: reason.to_string(),
                rows_processed: 0,
                charged_cluster_seconds: 0.0,
            },
        ),
        QueryOutcome::Cancelled {
            reason,
            rows_processed,
            charged_cluster_seconds,
        } => write_frame(
            writer,
            &Frame::Error {
                request_id,
                kind: WireErrorKind::Cancelled,
                detail: reason.name().to_string(),
                rows_processed: rows_processed as u64,
                charged_cluster_seconds,
            },
        ),
        QueryOutcome::Failed(detail) => write_frame(
            writer,
            &Frame::Error {
                request_id,
                kind: WireErrorKind::Failed,
                detail,
                rows_processed: 0,
                charged_cluster_seconds: 0.0,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string seen before is the first one's `Arc`; strings that never
    /// repeat still decode to themselves, and the table stops growing at
    /// its bound however many of them go by.
    #[test]
    fn the_string_table_shares_repeats_and_stays_bounded() {
        let mut strings = StringTable::default();
        let first = strings.get("SUV");
        assert!(Arc::ptr_eq(&first, &strings.get("SUV")));
        for i in 0..4 * STRING_TABLE_ENTRIES {
            let s = format!("distinct-{i}");
            assert_eq!(&*strings.get(&s), s);
            assert!(strings.0.len() <= STRING_TABLE_ENTRIES);
        }
        assert_eq!(strings.0.len(), STRING_TABLE_ENTRIES);
        assert!(Arc::ptr_eq(&first, &strings.get("SUV")), "kept while full");
        let late = "distinct-999999";
        assert!(!Arc::ptr_eq(&strings.get(late), &strings.get(late)));
    }
}
