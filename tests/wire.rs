//! Wire-protocol tests: golden byte layouts, round-trip identity, hostile
//! input rejection, and `serve_connection` end-to-end over in-memory
//! buffers.
//!
//! The golden file under `tests/golden/wire_frames.hex` pins the exact
//! byte encoding of every frame type (including every `Value` variant a
//! frame carries and a nested predicate), so any codec change that would
//! break deployed clients shows up as a diff. Regenerate after an
//! intentional protocol change with `UPDATE_GOLDEN=1 cargo test --test
//! wire`.

use std::fs;
use std::io::{Cursor, Read};
use std::path::PathBuf;
use std::sync::Arc;

use probabilistic_predicates::engine::exec::ExecutionContext;
use probabilistic_predicates::engine::udf::ClosureProcessor;
use probabilistic_predicates::engine::{
    Catalog, Clause, Column, CompareOp, DataType, LogicalPlan, Predicate, Row, Rowset, Schema,
    Value,
};
use probabilistic_predicates::linalg::features::Features;
use probabilistic_predicates::linalg::sparse::SparseVector;
use probabilistic_predicates::server::wire::{
    encode_frame, read_frame, read_response, serve_connection, write_frame, write_verdicts, Frame,
    WireError, WireErrorKind, WireOutcome, WireRequest, MAX_FRAME_LEN,
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

/// Every frame type with every value variant a frame can carry (a blob
/// has no wire form) and a nested predicate — the representative corpus
/// the goldens and round-trips run over.
fn corpus() -> Vec<(&'static str, Frame)> {
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
                columns: vec!["id".into(), "vehType".into()],
            },
        ),
        (
            "verdict_batch",
            Frame::VerdictBatch {
                request_id: 7,
                rows: vec![
                    vec![Value::Int(3), Value::str("SUV")],
                    vec![Value::Null, Value::Bool(false)],
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

/// The bytes of the golden frame `# name` in `wire_frames.hex`.
fn golden_frame(name: &str) -> Vec<u8> {
    let text = fs::read_to_string(golden_path("wire_frames.hex")).expect("golden file");
    let mut lines = text
        .lines()
        .skip_while(|l| *l != format!("# {name}"))
        .skip(1);
    let hex: String = lines
        .by_ref()
        .take_while(|l| !l.starts_with("# "))
        .collect();
    unhex(&hex)
}

/// The bytes `hex` spells, two digits a byte.
fn unhex(hex: &str) -> Vec<u8> {
    let pairs = hex
        .as_bytes()
        .chunks(2)
        .map(|p| std::str::from_utf8(p).expect("ascii"));
    pairs
        .map(|p| u8::from_str_radix(p, 16).expect("hex"))
        .collect()
}

/// What `write_verdicts` streams for `rows`, and what `encode_frame`
/// makes of the same rows built into tuples, 256 to a frame.
fn verdict_frames(rows: &Rowset) -> (Vec<u8>, Vec<u8>) {
    let mut streamed = Vec::new();
    write_verdicts(&mut streamed, 7, rows).expect("written");
    let tuples = rows.rows();
    let built = tuples.chunks(256).flat_map(|chunk| {
        let rows = chunk.iter().map(|r| r.values().to_vec()).collect();
        encode_frame(&Frame::VerdictBatch {
            request_id: 7,
            rows,
        })
    });
    (streamed, built.collect())
}

/// Verdict frames are encoded from the rows where a plan's result keeps
/// them — a `Process` output's appended cells in their buffer — and are
/// the bytes `Frame::VerdictBatch` encodes for the same rows built into
/// tuples: for the golden frame's rows, made by a processor over a table
/// of their first cells; for a ragged processor's output, where a base
/// row repeats, over several frames and behind a `Select`; and for a
/// result with no rows, which is no frame at all.
#[test]
fn verdict_frames_from_a_deferred_result_are_the_frames_of_its_tuples() {
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
    let rows = vec![Row::new(vec![Value::Int(3)]), Row::new(vec![Value::Null])];
    let mut catalog = Catalog::new();
    catalog.register("golden", Rowset::new(schema.clone(), rows).unwrap());
    let tag = Arc::new(ClosureProcessor::map(
        "Tag",
        vec![Column::new("vehType", DataType::Str)],
        0.1,
        |row, _, out| {
            out.push(match row.get(0) {
                Value::Int(_) => Value::str("SUV"),
                _ => Value::Bool(false),
            });
            Ok(())
        },
    ));
    let run = |catalog: &Catalog, plan: &LogicalPlan| {
        ExecutionContext::new(catalog)
            .run(plan)
            .expect("the plan runs")
    };
    let golden = run(&catalog, &LogicalPlan::scan("golden").process(tag));
    let (streamed, built) = verdict_frames(&golden);
    assert_eq!(streamed, golden_frame("verdict_batch"), "the golden frame");
    assert_eq!(streamed, built);

    // Id `i` makes `i % 3` rows: none, one, or its base row twice.
    let ids = (0..900).map(|i| Row::new(vec![Value::Int(i)]));
    catalog.register("ids", Rowset::new(schema, ids.collect()).unwrap());
    let ragged = Arc::new(ClosureProcessor::new(
        "Ragged",
        vec![Column::new("copy", DataType::Int)],
        0.1,
        |row, _, out| {
            let id = row.get(0).as_int()?;
            out.extend((0..id % 3).map(|k| Value::Int(-k)));
            Ok(())
        },
    ));
    let fanned = LogicalPlan::scan("ids").process(ragged);
    let kept = |min: i64| {
        let plan = fanned
            .clone()
            .select(Predicate::from(Clause::new("id", CompareOp::Ge, min)));
        run(&catalog, &plan)
    };
    let (all, some, none) = (run(&catalog, &fanned), kept(450), kept(900));
    assert_eq!((all.len(), some.len(), none.len()), (900, 450, 0));
    for (label, rows) in [("fanned out", &all), ("selected", &some), ("empty", &none)] {
        let (streamed, built) = verdict_frames(rows);
        assert_eq!(streamed, built, "{label}");
    }
    assert!(
        verdict_frames(&none).0.is_empty(),
        "an empty result has no frame"
    );
}

/// Clean EOF between frames is `Ok(None)`; EOF anywhere inside a frame is
/// a typed `Truncated` error, never a panic or a hang.
///
/// The same holds one level in: a frame of any type that arrives whole
/// but whose payload stops early (declared length = what is there) is
/// `Truncated` too — for a column list, a verdict batch's rows and cells
/// or a trace's stages, before room for the declared count is reserved.
#[test]
fn truncation_at_every_byte_is_rejected() {
    let mut frames: Vec<Frame> = corpus().into_iter().map(|(_, frame)| frame).collect();
    // What a verdict stream is made of: rows of ids, strings and floats.
    frames.push(Frame::VerdictBatch {
        request_id: 7,
        rows: (0..3)
            .map(|i| vec![Value::Int(i), Value::str("SUV"), Value::Float(-0.0)])
            .collect(),
    });
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

/// A blob, dense or sparse.
fn blobs() -> [Value; 2] {
    let sparse = SparseVector::new(8, vec![1, 5], vec![0.25, -3.5]).unwrap();
    [
        Value::blob(Features::Dense(vec![1.0, -0.5, 0.0])),
        Value::blob(Features::Sparse(sparse)),
    ]
}

/// A blob has no wire form: a blob literal in a request's predicate is
/// written as its reserved tag alone, and the request decodes to
/// `Malformed`, at the predicate's root or nested. So does a literal as
/// the removed blob codec wrote it (tag 5 dense, 6 sparse, then counts).
#[test]
fn a_blob_tag_in_a_request_predicate_is_malformed() {
    for blob in blobs() {
        let clause = Predicate::Clause(Clause::new("frame", CompareOp::Eq, blob));
        let nested = Predicate::And(vec![
            Predicate::True,
            Predicate::Not(Box::new(clause.clone())),
        ]);
        for predicate in [clause, nested] {
            let request = Frame::Request(WireRequest::new("t", predicate, 0.5));
            match read_frame(&mut Cursor::new(encode_frame(&request))) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }
    for (tag, counts) in [(5u8, 1), (6u8, 2)] {
        // request: source "t", predicate = clause("c", Eq, blob literal)
        let mut payload = vec![0, 0, 0, 1, b't', 2, 0, 0, 0, 1, b'c', 0, tag];
        for _ in 0..counts {
            payload.extend_from_slice(&u32::MAX.to_be_bytes());
        }
        let mut frame = b"PPW1\x01".to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        match read_frame(&mut Cursor::new(&frame)) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("value tag {tag}: expected Malformed, got {other:?}"),
        }
    }
}

/// A blob cell in a verdict batch is written as its reserved tag alone,
/// and the batch decodes to `Malformed`, read alone or as part of a
/// response.
#[test]
fn a_blob_tag_in_a_verdict_batch_is_malformed() {
    for blob in blobs() {
        let rows = vec![
            vec![Value::Int(1), Value::str("SUV")],
            vec![Value::Int(2), blob],
        ];
        let batch = encode_frame(&Frame::VerdictBatch {
            request_id: 7,
            rows,
        });
        match read_frame(&mut Cursor::new(&batch)) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        let response = [golden_frame("result_header"), batch].concat();
        match read_response(&mut Cursor::new(&response)) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
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

/// The golden `request` frame as `PPW1` clients that sized the engine's
/// work sent it: the same request, with a batch size of 64 and a morsel
/// size of 128 in the two slots that are reserved now.
const SIZED_REQUEST: &str = "\
    5050573101000000760000000774726166666963040000000302000000077665\
    6854797065000400000003535556050000000202000000057370656564050340\
    4540000000000003020000000566726f6d490102fffffffffffffff9003fee66\
    66666666660100000000000005dc0100000004010000004001000000800001";

/// A frame that still sets sizes decodes to the request without them, and
/// the server runs it as it runs that request: the same rows, the same
/// operator spans and the same number of probe batches
/// (`worker.batches_total`) — the engine cuts the rows, not the client.
#[test]
fn a_frame_that_sets_sizes_runs_as_the_request_without_them() {
    let bytes = unhex(SIZED_REQUEST);
    let Some(Frame::Request(sized)) = read_frame(&mut Cursor::new(&bytes)).expect("decodes") else {
        panic!("expected a request frame");
    };
    assert_eq!(
        encode_frame(&Frame::Request(sized.clone())),
        golden_frame("request"),
        "the sizes are read and dropped"
    );
    let mut plain = WireRequest::new(
        sized.source.clone(),
        sized.predicate.clone(),
        sized.accuracy_target,
    );
    plain.deadline_ms = sized.deadline_ms;
    plain.parallelism = sized.parallelism;
    plain.shared = sized.shared;

    let mut server = sized_server(3000);
    let batches = || server.metrics().counter("worker.batches_total").get();
    let run = |inbox: Vec<u8>, request: &WireRequest| {
        let before = batches();
        let mut outbox = Vec::new();
        serve_connection(&server, Cursor::new(inbox), &mut outbox).unwrap();
        let rows = match read_response(&mut Cursor::new(&outbox[..]))
            .unwrap()
            .outcome
        {
            WireOutcome::Complete { rows, .. } => format!("{rows:?}"),
            other => panic!("expected completion, got {other:?}"),
        };
        let served = batches() - before;
        let response = server.submit(request.to_query_request()).unwrap().wait();
        let mut telemetry = response
            .outcome
            .success()
            .expect("completes")
            .telemetry
            .clone();
        telemetry.zero_wall_clock();
        (rows, served, format!("{:?}", telemetry.spans))
    };
    let mut inbox = Vec::new();
    write_frame(&mut inbox, &Frame::Request(plain.clone())).unwrap();
    let want = run(inbox, &plain);
    assert!(want.1 > 0, "the request probed batches");
    assert_eq!(run(bytes, &sized), want);
    server.shutdown();
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

/// A UDF `name` appending column `column`, computed from the row's id.
fn id_udf(
    name: &str,
    column: &str,
    dtype: DataType,
    f: impl Fn(i64) -> Value + Send + Sync + 'static,
) -> Arc<ClosureProcessor> {
    Arc::new(ClosureProcessor::map(
        name,
        vec![Column::new(column, dtype)],
        0.001,
        move |row, _, out| {
            out.push(f(row.get(0).as_int()?));
            Ok(())
        },
    ))
}

/// A tiny server over a plain integer table of 600 rows (no trained PPs):
/// enough to drive `serve_connection` end-to-end without the traffic
/// fixture.
fn tiny_server() -> PpServer {
    sized_server(600)
}

/// The tiny server over `rows` ids. Besides `tiny` (`tag = id % 10`) it
/// serves `traffic`, with the columns the golden request's predicate reads.
fn sized_server(rows: i64) -> PpServer {
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
    let rows = (0..rows).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let mut catalog = Catalog::new();
    catalog.register("t", Rowset::new(schema, rows).unwrap());
    let mut sources = SourceRegistry::new();
    let tagger = id_udf("Tagger", "tag", DataType::Int, |id| Value::Int(id % 10));
    sources.register("tiny", SourceSpec::new("t").with_udf("tag", tagger));
    let types = ["SUV", "sedan", "truck"];
    let traffic = SourceSpec::new("t")
        .with_udf(
            "vehType",
            id_udf("TypeOf", "vehType", DataType::Str, move |id| {
                Value::str(types[id as usize % 3])
            }),
        )
        .with_udf(
            "speed",
            id_udf("SpeedOf", "speed", DataType::Float, |id| {
                Value::Float((id % 80) as f64)
            }),
        )
        .with_udf(
            "fromI",
            id_udf("FromOf", "fromI", DataType::Int, |id| {
                Value::Int(id % 9 - 8)
            }),
        );
    sources.register("traffic", traffic);
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
    req.shared = shared;
    req
}

/// `serve_connection` end to end over in-memory buffers: requests in,
/// streamed typed responses out, with the inert `shared` byte clear and
/// set. The rows crossing the wire are the same rows the in-process API
/// returns, and a >256-row result exercises the multi-frame verdict
/// stream.
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

/// The `shared` byte is decoded and ignored: a request frame with it set
/// and one with it clear differ in that last byte alone, and run as the
/// same query — the same verdict rows, the same `CostMeter` charges and
/// the same stage names, with no `window` stage in either timeline.
#[test]
fn the_shared_byte_changes_nothing() {
    let mut server = tiny_server();
    let frames = [false, true].map(|shared| encode_frame(&Frame::Request(tag_request(shared))));
    let (solo, shared) = (&frames[0], &frames[1]);
    assert_eq!(solo.len(), shared.len());
    let last = solo.len() - 1;
    assert_eq!((solo[last], shared[last]), (0, 1));
    assert_eq!(solo[..last], shared[..last]);

    let run = |frame: &[u8]| {
        let Some(Frame::Request(request)) = read_frame(&mut Cursor::new(frame)).unwrap() else {
            panic!("expected a request frame");
        };
        let response = server.submit(request.to_query_request()).unwrap().wait();
        let success = response.outcome.success().expect("completes");
        let charges: Vec<(String, u64, u64)> = (success.telemetry.spans.iter())
            .map(|s| (s.op.clone(), s.rows_in, s.seconds.to_bits()))
            .collect();
        let stages: Vec<String> = (response.timeline.stage_names().into_iter())
            .map(String::from)
            .collect();
        let mut outbox = Vec::new();
        serve_connection(&server, Cursor::new(frame.to_vec()), &mut outbox).unwrap();
        let wire = read_response(&mut Cursor::new(&outbox[..])).unwrap();
        let WireOutcome::Complete { rows, .. } = wire.outcome else {
            panic!("expected completion, got {:?}", wire.outcome);
        };
        let wire_stages = wire.trace.expect("a trace frame").stage_names().join(",");
        (format!("{rows:?}"), charges, stages, wire_stages)
    };
    let (solo, shared) = (run(solo), run(shared));
    assert_eq!(solo.0, shared.0, "verdict rows");
    assert_eq!(solo.1, shared.1, "CostMeter charges");
    assert_eq!(solo.2, shared.2, "stage names");
    assert_eq!(solo.3, shared.3, "stage names over the wire");
    for (stages, wire_stages) in [(&solo.2, &solo.3), (&shared.2, &shared.3)] {
        assert_eq!(stages.join(","), *wire_stages);
        assert!(!stages.iter().any(|s| s == "window"), "{stages:?}");
    }
    server.shutdown();
}

/// A frame may ask for threads; the machine decides how many. Fifty
/// requests for four billion workers over a table of four morsels are
/// each answered with the rows of the `K = 1` run, and no query spawns a
/// thread: the fan-outs they cause run on the caller and on helper
/// threads the process starts once, one fewer than the machine has
/// hardware threads at most.
#[test]
fn a_frame_asking_for_four_billion_threads_gets_the_machines() {
    let mut server = sized_server(4 * 1024);
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
    let counter = |name: &str| server.metrics().counter(name).get();
    let spawned = || counter("worker.threads_spawned_total");
    let fanouts = || counter("worker.fanouts_total");

    let mut serial = tag_request(false);
    serial.parallelism = Some(1);
    let expected = serve(serial);
    assert_eq!(
        (spawned(), fanouts()),
        (0, 0),
        "K = 1 runs on the calling thread"
    );

    let machine = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    for _ in 0..50 {
        let mut hostile = tag_request(false);
        hostile.parallelism = Some(4_000_000_000);
        assert_eq!(serve(hostile), expected, "rows diverged from the K = 1 run");
    }
    assert!(
        spawned() < machine,
        "{} threads spawned across 50 queries on {machine} hardware threads",
        spawned()
    );
    if machine > 1 {
        assert!(
            fanouts() >= 50,
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
    let req = WireRequest::new(
        "tiny",
        Predicate::Clause(Clause::new("tag", CompareOp::Ge, Value::Int(0))),
        0.9,
    );

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
