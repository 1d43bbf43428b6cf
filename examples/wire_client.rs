//! Wire protocol demo: a `PpServer` behind a TCP socket, driven by the
//! framed request/response protocol in `pp_server::wire`.
//!
//! ```text
//! cargo run --release --example wire_client
//! ```
//!
//! Three connections hit a loopback listener:
//!
//! 1. a solo query, with the client decoding the streamed frames by hand
//!    (`ResultHeader` → `VerdictBatch`* → `Complete`) to show the shape
//!    of the protocol;
//! 2. two concurrent *shared* queries (`WireRequest::shared = true`) over
//!    the same source — the shared-scan coordinator windows them so each
//!    UDF runs at most once per blob per window, with verdicts
//!    byte-identical to solo execution.
//!
//! The PP corpus is left empty here to keep the focus on the protocol;
//! the optimizer then plans without PP prefixes, which changes nothing
//! about the framing. See `examples/traffic_surveillance.rs` for a full
//! trained-corpus pipeline.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use probabilistic_predicates::prelude::*;

fn main() {
    // A blob-free miniature: 500 events, one UDF deriving `tag = id % 10`
    // at 2 ms of simulated cluster time per row.
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]).expect("schema");
    let rows: Vec<Row> = (0..500).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let mut catalog = Catalog::new();
    catalog.register("events", Rowset::new(schema, rows).expect("rows"));
    let tagger: Arc<dyn probabilistic_predicates::engine::udf::Processor> =
        Arc::new(ClosureProcessor::map(
            "Tagger",
            vec![Column::new("tag", DataType::Int)],
            0.002,
            |row, schema, out| {
                let id = match row.get_named(schema, "id")? {
                    Value::Int(i) => *i,
                    _ => 0,
                };
                out.push(Value::Int(id % 10));
                Ok(())
            },
        ));
    let mut sources = SourceRegistry::new();
    sources.register(
        "events",
        SourceSpec::new("events").with_udf("tag", Arc::clone(&tagger)),
    );
    let mut server = PpServer::new(
        ServerConfig {
            workers: 2,
            sharedscan: SharedScanConfig {
                max_window: 2,
                window_wait: Some(Duration::from_millis(200)),
            },
            ..Default::default()
        },
        catalog,
        sources,
        PpCatalog::new(),
        Domains::new(),
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("serving on {addr}\n");

    std::thread::scope(|scope| {
        // Server side: one thread per connection, three connections total.
        let server_ref = &server;
        scope.spawn(move || {
            for _ in 0..3 {
                let (stream, peer) = listener.accept().expect("accept");
                scope.spawn(move || {
                    let reader = stream.try_clone().expect("clone stream");
                    match serve_connection(server_ref, reader, stream) {
                        Ok(served) => println!("[server] {peer}: served {served} request(s)"),
                        Err(e) => println!("[server] {peer}: connection ended: {e}"),
                    }
                });
            }
        });

        // Connection 1: a solo query, frames decoded by hand.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = WireRequest::new(
            "events",
            Predicate::from(Clause::new("tag", CompareOp::Eq, 3)),
            0.9,
        );
        write_frame(&mut stream, &Frame::Request(request)).expect("send request");
        let mut streamed = 0u64;
        loop {
            let frame = read_frame(&mut stream)
                .expect("read frame")
                .expect("stream open");
            match frame {
                Frame::Trace(timeline) => {
                    // The server streams the request's stage waterfall just
                    // before the terminal frames: where every nanosecond of
                    // the observed latency went.
                    println!(
                        "[client] trace {} total={:.3}ms terminal={}",
                        timeline.trace_id,
                        timeline.total_nanos as f64 / 1e6,
                        timeline.terminal
                    );
                    for span in &timeline.stages {
                        let detail = span
                            .detail
                            .as_deref()
                            .map(|d| format!(" ({d})"))
                            .unwrap_or_default();
                        println!(
                            "[client]   {:<10}{} {:>10.3}ms",
                            span.name,
                            detail,
                            span.nanos as f64 / 1e6
                        );
                    }
                }
                Frame::ResultHeader {
                    request_id,
                    epoch,
                    cache_hit,
                    columns,
                } => println!(
                    "[client] id={request_id} epoch={epoch} cache_hit={cache_hit} \
                     columns={columns:?}"
                ),
                Frame::VerdictBatch { rows, .. } => {
                    streamed += rows.len() as u64;
                    println!("[client] verdict batch: {} rows", rows.len());
                }
                Frame::Complete { total_rows, .. } => {
                    assert_eq!(streamed, total_rows, "stream torn");
                    println!("[client] complete: {total_rows} rows\n");
                    break;
                }
                Frame::Error { kind, detail, .. } => {
                    println!("[client] error {kind:?}: {detail}\n");
                    break;
                }
                Frame::Request(_) => unreachable!("server never sends requests"),
            }
        }
        drop(stream);

        // Connections 2 + 3: concurrent shared-scan queries. The
        // coordinator windows them (window size 2), so the Tagger UDF
        // runs once per event for the pair instead of once per query.
        let mut shared_clients = Vec::new();
        for predicate in [
            Predicate::from(Clause::new("tag", CompareOp::Eq, 4)),
            Predicate::from(Clause::new("tag", CompareOp::Ge, 8)),
        ] {
            shared_clients.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut request = WireRequest::new("events", predicate.clone(), 0.9);
                request.shared = true;
                write_frame(&mut stream, &Frame::Request(request)).expect("send request");
                let response = read_response(&mut stream).expect("read response");
                match response.outcome {
                    WireOutcome::Complete { rows, .. } => {
                        // `read_response` surfaces the trace frame too: the
                        // window stage shows the linger this query spent
                        // waiting to share its scan.
                        let waterfall = response
                            .trace
                            .as_ref()
                            .map(|t| {
                                t.stages
                                    .iter()
                                    .map(|s| format!("{}={:.3}ms", s.name, s.nanos as f64 / 1e6))
                                    .collect::<Vec<_>>()
                                    .join(" ")
                            })
                            .unwrap_or_default();
                        println!(
                            "[client] shared `{predicate}`: {} rows [{waterfall}]",
                            rows.len()
                        );
                    }
                    WireOutcome::Error { kind, detail, .. } => {
                        println!("[client] shared `{predicate}` failed {kind:?}: {detail}");
                    }
                }
            }));
        }
        for client in shared_clients {
            client.join().expect("client thread");
        }
    });

    // Shutdown joins the worker pool, making the window jobs' counter
    // flushes visible before we read them.
    let windows = server.metrics().counter("server.sharedscan.windows_total");
    let invoked = server
        .metrics()
        .counter("server.sharedscan.udf_invocations_total");
    let saved = server
        .metrics()
        .counter("server.sharedscan.udf_invocations_saved_total");
    server.shutdown();
    println!(
        "\nshared-scan: {} window(s), {} UDF invocation(s), {} saved by the memo",
        windows.get(),
        invoked.get(),
        saved.get()
    );
}
