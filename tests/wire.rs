//! Wire-protocol tests: golden byte layouts, round-trip identity, hostile
//! input rejection, and `serve_connection` end-to-end over in-memory
//! buffers.
//!
//! The golden file under `tests/golden/wire_frames.hex` pins the exact
//! byte encoding of every frame type (including all `Value` variants and
//! a nested predicate), so any codec change that would break deployed
//! clients shows up as a diff. Regenerate after an intentional protocol
//! change with `UPDATE_GOLDEN=1 cargo test --test wire`.

use std::fs;
use std::io::{Cursor, Read};
use std::path::PathBuf;
use std::sync::Arc;

use probabilistic_predicates::engine::udf::ClosureProcessor;
use probabilistic_predicates::engine::{
    Catalog, Clause, Column, CompareOp, DataType, Predicate, Row, Rowset, Schema, Value,
};
use probabilistic_predicates::linalg::features::Features;
use probabilistic_predicates::linalg::sparse::SparseVector;
use probabilistic_predicates::server::wire::{
    encode_frame, read_frame, read_response, serve_connection, write_frame, Frame, WireError,
    WireErrorKind, WireOutcome, WireRequest, MAX_FRAME_LEN,
};
use probabilistic_predicates::server::{
    PpServer, RequestTimeline, ServerConfig, SourceRegistry, SourceSpec, StageSpan,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
    assert_eq!(expected, actual, "golden mismatch for {name}");
}

/// `"PPW1"`, the frame type byte, and the big-endian payload length.
const FRAME_HEADER_LEN: usize = 9;

fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

/// Every frame type with every value variant and a nested predicate —
/// the representative corpus the goldens and round-trips run over.
fn corpus() -> Vec<(&'static str, Frame)> {
    let sparse = SparseVector::new(8, vec![1, 5], vec![0.25, -3.5]).unwrap();
    let predicate = Predicate::And(vec![
        Predicate::Clause(Clause::new("vehType", CompareOp::Eq, Value::str("SUV"))),
        Predicate::Or(vec![
            Predicate::Clause(Clause::new("speed", CompareOp::Ge, Value::Float(42.5))),
            Predicate::Not(Box::new(Predicate::Clause(Clause::new(
                "fromI",
                CompareOp::Ne,
                Value::Int(-7),
            )))),
        ]),
        Predicate::True,
    ]);
    let mut request = WireRequest::new("traffic", predicate, 0.95);
    request.deadline_ms = Some(1500);
    request.parallelism = Some(4);
    request.batch_size = Some(64);
    request.morsel_size = Some(128);
    request.shared = true;

    vec![
        ("request", Frame::Request(request)),
        (
            "request_minimal",
            Frame::Request(WireRequest::new("t", Predicate::False, 0.5)),
        ),
        (
            "result_header",
            Frame::ResultHeader {
                request_id: 7,
                epoch: 2,
                cache_hit: true,
                columns: vec!["id".into(), "blob".into(), "vehType".into()],
            },
        ),
        (
            "verdict_batch",
            Frame::VerdictBatch {
                request_id: 7,
                rows: vec![
                    vec![
                        Value::Int(3),
                        Value::blob(Features::Dense(vec![1.0, -0.5, 0.0])),
                        Value::str("SUV"),
                    ],
                    vec![
                        Value::Null,
                        Value::blob(Features::Sparse(sparse)),
                        Value::Bool(false),
                    ],
                ],
            },
        ),
        (
            "complete",
            Frame::Complete {
                request_id: 7,
                total_rows: 2,
            },
        ),
        (
            "trace",
            Frame::Trace(RequestTimeline {
                trace_id: 7,
                total_nanos: 6_000,
                terminal: "respond".into(),
                stages: vec![
                    StageSpan {
                        name: "admission".into(),
                        detail: None,
                        nanos: 1_000,
                    },
                    StageSpan {
                        name: "cache".into(),
                        detail: Some("hit".into()),
                        nanos: 2_000,
                    },
                    StageSpan {
                        name: "execute".into(),
                        detail: None,
                        nanos: 3_000,
                    },
                ],
            }),
        ),
        (
            "error",
            Frame::Error {
                request_id: 9,
                kind: WireErrorKind::Cancelled,
                detail: "deadline_exceeded".into(),
                rows_processed: 17,
                charged_cluster_seconds: 0.125,
            },
        ),
    ]
}

/// The byte layout of every frame type is pinned by a golden file, and
/// decode(encode(frame)) is an identity (checked via `Debug`, then via a
/// second encode — byte-identical).
#[test]
fn frame_encodings_match_golden_and_round_trip() {
    let mut golden = String::new();
    for (name, frame) in corpus() {
        let bytes = encode_frame(&frame);
        golden.push_str(&format!("# {name}\n{}", hex(&bytes)));

        let decoded = read_frame(&mut Cursor::new(&bytes))
            .expect("decodes")
            .expect("not EOF");
        assert_eq!(
            format!("{decoded:?}"),
            format!("{frame:?}"),
            "{name}: decode(encode(..)) changed the frame"
        );
        assert_eq!(
            encode_frame(&decoded),
            bytes,
            "{name}: re-encode is not byte-identical"
        );
    }
    check_golden("wire_frames.hex", &golden);
}

/// Clean EOF between frames is `Ok(None)`; EOF anywhere inside a frame is
/// a typed `Truncated` error, never a panic or a hang.
///
/// The same holds one level in: a frame of any type that arrives whole
/// but whose payload stops early (declared length = what is there) is
/// `Truncated` too — for a blob literal, a column list, a verdict batch's
/// rows and cells or a trace's stages, before room for the declared count
/// is reserved.
#[test]
fn truncation_at_every_byte_is_rejected() {
    let sparse = SparseVector::new(8, vec![1, 5], vec![0.25, -3.5]).unwrap();
    let blob_literals = Predicate::And(vec![
        Predicate::Clause(Clause::new(
            "blob",
            CompareOp::Eq,
            Value::blob(Features::Dense(vec![1.0, -0.5, 0.0])),
        )),
        Predicate::Clause(Clause::new(
            "blob",
            CompareOp::Ne,
            Value::blob(Features::Sparse(sparse)),
        )),
    ]);
    let mut frames: Vec<Frame> = corpus().into_iter().map(|(_, frame)| frame).collect();
    frames.extend([
        Frame::Request(WireRequest::new("t", blob_literals, 0.5)),
        // What a verdict stream is made of: rows carrying a dense blob.
        Frame::VerdictBatch {
            request_id: 7,
            rows: (0..3)
                .map(|i| vec![Value::Int(i), Value::blob(Features::Dense(awkward_f64s()))])
                .collect(),
        },
    ]);
    assert!(matches!(read_frame(&mut Cursor::new(&[][..])), Ok(None)));
    for frame in &frames {
        let bytes = encode_frame(frame);
        for cut in 1..bytes.len() {
            match read_frame(&mut Cursor::new(&bytes[..cut])) {
                Err(WireError::Truncated) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
        for cut in FRAME_HEADER_LEN..bytes.len() {
            let mut short = bytes[..cut].to_vec();
            let payload_len = (cut - FRAME_HEADER_LEN) as u32;
            short[5..FRAME_HEADER_LEN].copy_from_slice(&payload_len.to_be_bytes());
            match read_frame(&mut Cursor::new(&short)) {
                Err(WireError::Truncated) => {}
                other => {
                    panic!("payload of {payload_len} bytes: expected Truncated, got {other:?}")
                }
            }
        }
    }
}

/// Floats whose bit patterns a careless codec would not keep: NaNs with
/// payloads and either sign, both zeros, both infinities, a subnormal.
fn awkward_f64s() -> Vec<f64> {
    [
        0x7ff8_0000_0000_0001u64,
        0xfff4_dead_beef_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
    ]
    .map(f64::from_bits)
    .into_iter()
    .chain([0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25e-300])
    .collect()
}

/// Dense and sparse blobs survive `encode_frame` → `read_frame` bit for
/// bit (the bulk word conversion is a copy, not an arithmetic round trip).
#[test]
fn blobs_round_trip_bit_for_bit() {
    let coords = awkward_f64s();
    let indices: Vec<u32> = (0..coords.len() as u32).map(|i| i * 7 + 1).collect();
    let sparse = SparseVector::new(100, indices.clone(), coords.clone()).unwrap();
    let frame = Frame::VerdictBatch {
        request_id: 1,
        rows: vec![
            vec![
                Value::blob(Features::Dense(coords.clone())),
                Value::str("é"),
            ],
            vec![Value::blob(Features::Sparse(sparse)), Value::Null],
            vec![Value::blob(Features::Dense(vec![])), Value::str("")],
        ],
    };
    let decoded = read_frame(&mut Cursor::new(encode_frame(&frame)))
        .expect("decodes")
        .expect("not EOF");
    let Frame::VerdictBatch { rows, .. } = decoded else {
        panic!("expected a verdict batch, got {decoded:?}");
    };
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let dense = rows[0][0].as_blob().unwrap().as_dense().unwrap();
    assert_eq!(bits(dense), bits(&coords));
    assert_eq!(rows[0][1].as_str().unwrap(), "é");
    match &**rows[1][0].as_blob().unwrap() {
        Features::Sparse(sv) => {
            assert_eq!(sv.dim(), 100);
            let (idx, vals): (Vec<u32>, Vec<f64>) = sv.iter().unzip();
            assert_eq!(idx, indices);
            assert_eq!(bits(&vals), bits(&coords));
        }
        other => panic!("expected a sparse blob, got {other:?}"),
    }
    assert!(rows[2][0].as_blob().unwrap().as_dense().unwrap().is_empty());
    assert_eq!(rows[2][1].as_str().unwrap(), "");
}

/// A blob literal's declared element count is checked against the bytes
/// actually present before anything is allocated for it.
#[test]
fn blob_literal_count_beyond_the_payload_is_truncated() {
    for (tag, counts) in [(5u8, 1), (6u8, 2)] {
        // request: source "t", predicate = clause("c", Eq, blob literal)
        let mut payload = vec![0, 0, 0, 1, b't', 2, 0, 0, 0, 1, b'c', 0, tag];
        for _ in 0..counts {
            payload.extend_from_slice(&u32::MAX.to_be_bytes());
        }
        let mut frame = b"PPW1\x01".to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        assert!(
            matches!(
                read_frame(&mut Cursor::new(&frame)),
                Err(WireError::Truncated)
            ),
            "value tag {tag}"
        );
    }
}

#[test]
fn oversized_bad_magic_unknown_type_and_trailing_bytes_are_rejected() {
    // Oversized: the declared length alone must trigger rejection (the
    // payload is never allocated or read).
    let mut oversized = b"PPW1\x01".to_vec();
    oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
    match read_frame(&mut Cursor::new(&oversized)) {
        Err(WireError::FrameTooLarge { len, max }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    let bad_magic = b"HTTP\x01\x00\x00\x00\x00".to_vec();
    assert!(matches!(
        read_frame(&mut Cursor::new(&bad_magic)),
        Err(WireError::BadMagic(_))
    ));

    let unknown = b"PPW1\x7f\x00\x00\x00\x00".to_vec();
    assert!(matches!(
        read_frame(&mut Cursor::new(&unknown)),
        Err(WireError::UnknownFrameType(0x7f))
    ));

    // A complete frame with junk appended *inside* the declared payload.
    let mut padded = encode_frame(&Frame::Complete {
        request_id: 1,
        total_rows: 0,
    });
    padded.push(0xAA);
    let len_at = 5;
    let declared = u32::from_be_bytes(padded[len_at..len_at + 4].try_into().unwrap());
    padded[len_at..len_at + 4].copy_from_slice(&(declared + 1).to_be_bytes());
    assert!(matches!(
        read_frame(&mut Cursor::new(&padded)),
        Err(WireError::Malformed(_))
    ));

    // An accuracy target that is not one: NaN, or outside `(0, 1]`.
    let with_target = |a: f64| {
        let request = WireRequest::new("t", Predicate::False, a);
        read_frame(&mut Cursor::new(encode_frame(&Frame::Request(request))))
    };
    for not_a_target in [f64::NAN, -1.0, 0.0, 7.0] {
        assert!(
            matches!(with_target(not_a_target), Err(WireError::Malformed(_))),
            "accuracy target {not_a_target}"
        );
    }
    for target in [f64::MIN_POSITIVE, 1.0] {
        assert!(
            matches!(with_target(target), Ok(Some(Frame::Request(_)))),
            "accuracy target {target}"
        );
    }
}

/// The request's reserved byte (second to last; `PPW1` clients sent a
/// batch-mode selector there): every value those clients could send
/// decodes to the same request and re-encodes as `0`; anything else is
/// malformed.
#[test]
fn reserved_request_byte_accepts_legacy_values_and_ignores_them() {
    let canonical = encode_frame(&corpus().remove(0).1);
    let reserved_at = canonical.len() - 2;
    assert_eq!(canonical[reserved_at], 0);
    for legacy in 0..=2u8 {
        let mut bytes = canonical.clone();
        bytes[reserved_at] = legacy;
        let decoded = read_frame(&mut Cursor::new(&bytes))
            .unwrap()
            .expect("one frame");
        assert_eq!(encode_frame(&decoded), canonical, "legacy value {legacy}");
    }
    let mut bytes = canonical;
    bytes[reserved_at] = 3;
    assert!(matches!(
        read_frame(&mut Cursor::new(&bytes)),
        Err(WireError::Malformed(_))
    ));
}

/// A transport that ends every read at byte `at` of `bytes` and then fails
/// there: once if the error is `Interrupted`, every time otherwise.
struct FailingAt {
    bytes: Cursor<Vec<u8>>,
    at: u64,
    kind: std::io::ErrorKind,
    failed: bool,
}

impl Read for FailingAt {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let pos = self.bytes.position();
        let once = self.kind == std::io::ErrorKind::Interrupted;
        if pos == self.at && !(once && self.failed) {
            self.failed = true;
            return Err(self.kind.into());
        }
        let room = if pos < self.at {
            buf.len().min((self.at - pos) as usize)
        } else {
            buf.len()
        };
        self.bytes.read(&mut buf[..room])
    }
}

/// `read_frame` tells a transport failure from a frame that stopped short,
/// wherever in the frame it strikes: an interrupted read is retried (as
/// `read_exact` does), a timed-out one is `Io` with its kind — in the
/// magic, the header or the payload — and only the end of the stream is
/// `Truncated`. `read_response` reads frames the same way.
#[test]
fn transport_errors_are_io_and_interrupted_reads_are_retried() {
    let frame = corpus().remove(2).1;
    let bytes = encode_frame(&frame);
    let want = format!("{:?}", Some(&frame));
    let reader = |at: usize, kind| FailingAt {
        bytes: Cursor::new(bytes.clone()),
        at: at as u64,
        kind,
        failed: false,
    };
    for at in 0..bytes.len() {
        let got = read_frame(&mut reader(at, std::io::ErrorKind::Interrupted));
        assert_eq!(format!("{:?}", got.expect("retried")), want, "byte {at}");
        match read_frame(&mut reader(at, std::io::ErrorKind::TimedOut)) {
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::TimedOut => {}
            other => panic!("timed out at byte {at}: expected Io(TimedOut), got {other:?}"),
        }
        match read_response(&mut reader(at, std::io::ErrorKind::TimedOut)) {
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::TimedOut => {}
            other => panic!("response timed out at byte {at}: got {other:?}"),
        }
    }
    // At the frame's end the frame is whole: the failure is the next read's.
    let mut stream = reader(bytes.len(), std::io::ErrorKind::Interrupted);
    assert!(read_frame(&mut stream).expect("whole").is_some());
    assert!(matches!(read_frame(&mut stream), Ok(None)));
}

/// A predicate nested beyond the decoder's depth cap is rejected instead
/// of recursing toward a stack overflow.
#[test]
fn predicate_depth_bomb_is_rejected() {
    let mut bomb = Predicate::Clause(Clause::new("c", CompareOp::Eq, Value::Int(0)));
    for _ in 0..100 {
        bomb = Predicate::Not(Box::new(bomb));
    }
    let bytes = encode_frame(&Frame::Request(WireRequest::new("t", bomb, 0.9)));
    assert!(matches!(
        read_frame(&mut Cursor::new(&bytes)),
        Err(WireError::DepthExceeded)
    ));
}

/// A tiny server over a plain integer table (no trained PPs): enough to
/// drive `serve_connection` end-to-end without the traffic fixture.
fn tiny_server() -> PpServer {
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
    let rows = (0..600).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Rowset::new(schema, rows).unwrap());
    let tagger = Arc::new(ClosureProcessor::map(
        "Tagger",
        vec![Column::new("tag", DataType::Int)],
        0.001,
        |row, _, out| {
            out.push(Value::Int(row.get(0).as_int()? % 10));
            Ok(())
        },
    ));
    let mut sources = SourceRegistry::new();
    sources.register("tiny", SourceSpec::new("t").with_udf("tag", tagger));
    PpServer::new(
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
        catalog,
        sources,
        probabilistic_predicates::core::PpCatalog::new(),
        probabilistic_predicates::core::wrangle::Domains::new(),
    )
}

fn tag_request(shared: bool) -> WireRequest {
    let mut req = WireRequest::new(
        "tiny",
        Predicate::Clause(Clause::new("tag", CompareOp::Eq, Value::Int(3))),
        0.9,
    );
    req.batch_size = Some(64);
    req.shared = shared;
    req
}

/// `serve_connection` end to end over in-memory buffers: requests in,
/// streamed typed responses out, both solo and shared routes. The rows
/// crossing the wire are the same rows the in-process API returns, and a
/// >256-row result exercises the multi-frame verdict stream.
#[test]
fn serve_connection_streams_solo_and_shared_results() {
    let mut server = tiny_server();

    // In-process truth for the same query.
    let expected = {
        let q = tag_request(false).to_query_request();
        let s = server.submit(q).unwrap().wait();
        let s = s.outcome.success().expect("completes").clone();
        let cells: Vec<Vec<Value>> = s.rows.rows().iter().map(|r| r.values().to_vec()).collect();
        format!("{cells:?}")
    };

    let mut inbox = Vec::new();
    write_frame(&mut inbox, &Frame::Request(tag_request(false))).unwrap();
    write_frame(&mut inbox, &Frame::Request(tag_request(true))).unwrap();
    // Unknown source: served as a typed error frame, connection stays up.
    write_frame(
        &mut inbox,
        &Frame::Request(WireRequest::new("nope", Predicate::True, 0.9)),
    )
    .unwrap();

    let mut outbox = Vec::new();
    let served = serve_connection(&server, Cursor::new(inbox), &mut outbox).unwrap();
    assert_eq!(served, 3);

    let mut reader = Cursor::new(&outbox[..]);
    for label in ["solo", "shared"] {
        let response = read_response(&mut reader).unwrap();
        match response.outcome {
            WireOutcome::Complete {
                epoch,
                columns,
                rows,
                ..
            } => {
                assert_eq!(epoch, 1, "{label}");
                assert_eq!(columns, ["id", "tag"], "{label}");
                assert_eq!(rows.len(), 60, "{label}");
                assert_eq!(format!("{rows:?}"), expected, "{label}: wire rows diverged");
            }
            other => panic!("{label}: expected completion, got {other:?}"),
        }
    }
    let rejected = read_response(&mut reader).unwrap();
    assert_eq!(rejected.request_id, 0, "pre-admission reject has id 0");
    match rejected.outcome {
        WireOutcome::Error { kind, detail, .. } => {
            assert_eq!(kind, WireErrorKind::Rejected);
            assert!(detail.contains("nope"), "detail: {detail}");
        }
        other => panic!("expected error outcome, got {other:?}"),
    }
    server.shutdown();
}

/// A frame may ask for threads; the machine decides how many. A request
/// for four billion workers over one-row morsels is answered with the rows
/// of the `K = 1` run, and no fan-out it caused spawned more threads than
/// the machine has (at most one fan-out per operator: the table is one
/// wave).
#[test]
fn a_frame_asking_for_four_billion_threads_gets_the_machines() {
    let mut server = tiny_server();
    let serve = |req: WireRequest| {
        let mut inbox = Vec::new();
        write_frame(&mut inbox, &Frame::Request(req)).unwrap();
        let mut outbox = Vec::new();
        serve_connection(&server, Cursor::new(inbox), &mut outbox).unwrap();
        match read_response(&mut Cursor::new(&outbox[..]))
            .unwrap()
            .outcome
        {
            WireOutcome::Complete { rows, .. } => format!("{rows:?}"),
            other => panic!("expected completion, got {other:?}"),
        }
    };
    let spawned = || {
        server
            .metrics()
            .counter("worker.threads_spawned_total")
            .get()
    };
    let operators = {
        let run = server
            .submit(tag_request(false).to_query_request())
            .unwrap()
            .wait();
        let success = run.outcome.success().expect("completes");
        success.telemetry.spans.len() as u64
    };

    let mut serial = tag_request(false);
    serial.parallelism = Some(1);
    let expected = serve(serial);
    assert_eq!(spawned(), 0, "K = 1 runs on the calling thread");

    let mut hostile = tag_request(false);
    hostile.parallelism = Some(4_000_000_000);
    hostile.morsel_size = Some(1);
    assert_eq!(serve(hostile), expected, "rows diverged from the K = 1 run");
    let machine = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    assert!(
        spawned() <= operators * machine,
        "{} threads for {operators} operators on {machine} hardware threads",
        spawned()
    );
    if machine > 1 {
        assert!(
            spawned() > 0,
            "the fan-out was asked for and did not happen"
        );
    }
    server.shutdown();
}

/// A full result larger than one verdict chunk arrives across several
/// `VerdictBatch` frames whose concatenation `read_response` validates
/// against the `Complete` frame's row count.
#[test]
fn large_results_stream_across_multiple_verdict_frames() {
    let mut server = tiny_server();
    // tag >= 0 matches all 600 rows → 3 chunks of ≤256.
    let mut req = WireRequest::new(
        "tiny",
        Predicate::Clause(Clause::new("tag", CompareOp::Ge, Value::Int(0))),
        0.9,
    );
    req.batch_size = Some(64);

    let mut inbox = Vec::new();
    write_frame(&mut inbox, &Frame::Request(req)).unwrap();
    let mut outbox = Vec::new();
    serve_connection(&server, Cursor::new(inbox), &mut outbox).unwrap();

    let mut reader = Cursor::new(&outbox[..]);
    let mut batches = 0;
    loop {
        match read_frame(&mut reader).unwrap().expect("stream complete") {
            Frame::Trace(_) | Frame::ResultHeader { .. } => {}
            Frame::VerdictBatch { rows, .. } => {
                assert!(rows.len() <= 256);
                batches += 1;
            }
            Frame::Complete { total_rows, .. } => {
                assert_eq!(total_rows, 600);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(batches, 3, "600 rows must stream as 3 chunks");
    server.shutdown();
}

/// Garbage on the wire: the connection dies with a decode error *after*
/// sending the client a typed `Malformed` error frame.
#[test]
fn malformed_input_gets_a_typed_error_frame_then_hangup() {
    let mut server = tiny_server();
    let mut outbox = Vec::new();
    let result = serve_connection(
        &server,
        Cursor::new(b"GET / HTTP/1.1\r\n".to_vec()),
        &mut outbox,
    );
    assert!(matches!(result, Err(WireError::BadMagic(_))));
    let response = read_response(&mut Cursor::new(&outbox[..])).unwrap();
    assert_eq!(response.request_id, 0);
    match response.outcome {
        WireOutcome::Error { kind, .. } => assert_eq!(kind, WireErrorKind::Malformed),
        other => panic!("expected malformed error frame, got {other:?}"),
    }
    server.shutdown();
}
