//! Set-up shared by every workload: generate the corpus, train the PP
//! catalog, register the query frames (in memory or as segment shards),
//! start a `PpServer` and put `wire::serve_connection` behind a loopback
//! TCP listener. The benchmark owns this code so that editing the
//! repository's shared bench harness cannot silently change a workload.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_core::train::{PpTrainer, TrainerConfig};
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_data::traffic::{TrafficConfig, TrafficDataset};
use pp_engine::{Catalog, Rowset};
use pp_ml::dataset::LabeledSet;
use pp_ml::pipeline::{Approach, ModelSpec};
use pp_ml::reduction::ReducerSpec;
use pp_ml::svm::SvmParams;
use pp_server::{
    serve_connection, PpServer, ServerConfig, SharedScanConfig, SourceRegistry, SourceSpec,
};
use pp_store::{SegmentScan, SegmentWriter, SegmentWriterConfig};

use crate::spec::{CORPUS_SEED, SERVER_WORKERS};
use crate::workload::{Kind, SOURCE};

/// The UDF-derived predicate columns, in TRAF-20's canonical order.
const UDF_COLUMNS: [&str; 5] = ["vehType", "vehColor", "speed", "fromI", "toI"];
/// Simulated per-blob PP cost (the paper's Table 9 reports 2–3 ms).
const PP_COST_PER_ROW: f64 = 2.5e-3;
/// `scan_segments`: shards, rows per row group, and the scan's budget for
/// concurrently decoded pages — a quarter of the ≈ 12.9 MB the shards
/// hold.
pub const SEGMENT_SHARDS: usize = 4;
pub const ROWS_PER_GROUP: usize = 256;
pub const SCAN_MEMORY_BUDGET: u64 = 3 * 1024 * 1024;

/// Wall seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub train: f64,
    pub register: f64,
    pub server_start: f64,
}

/// Everything a run needs: the data the server serves (kept for the
/// in-process verification pass) and the live server behind TCP.
pub struct Stack {
    pub kind: Kind,
    /// The registered frames — what a query's NoP plan scans.
    pub catalog: Catalog,
    pub pp_catalog: PpCatalog,
    pub domains: Domains,
    pub source: SourceSpec,
    pub server: Arc<PpServer>,
    pub addr: SocketAddr,
    pub times: SetupTimes,
    /// `scan_segments` only.
    pub segments: Option<SegmentStats>,
    /// The registered frames in memory, for the per-layer replays.
    pub registered: Arc<Rowset>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

#[derive(Debug, Clone)]
pub struct SegmentStats {
    pub dir: PathBuf,
    pub paths: Vec<PathBuf>,
    pub file_bytes: u64,
    pub write_seconds: f64,
    pub rows: usize,
}

impl Stack {
    /// Builds the whole stack for `kind`. `scratch` receives the segment
    /// shards.
    pub fn build(kind: Kind, scratch: &Path) -> Stack {
        let seed = CORPUS_SEED;
        let mut times = SetupTimes::default();

        let started = Instant::now();
        let dataset = TrafficDataset::generate(TrafficConfig {
            n_frames: kind.frames(),
            seed,
            ..Default::default()
        });
        times.generate = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let train = kind.train_frames();
        let trainer = PpTrainer::new(TrainerConfig {
            train_frac: 0.8,
            val_frac: 0.2,
            // §8.2: the TRAF PPs "are all trained using SVMs".
            approach_override: Some(Approach {
                reducer: ReducerSpec::Identity,
                model: ModelSpec::Svm(SvmParams::default()),
            }),
            cost_per_row: Some(PP_COST_PER_ROW),
            train_negations: true,
            seed,
            ..Default::default()
        });
        let clauses = TrafficDataset::pp_corpus_clauses();
        let labeled: Vec<LabeledSet> = clauses
            .iter()
            .map(|c| dataset.labeled_for_clause_range(c, 0..train))
            .collect();
        let pp_catalog = trainer
            .train_catalog(&clauses, &labeled)
            .expect("PP corpus training");
        let mut domains = Domains::new();
        for (column, values) in TrafficDataset::column_domains() {
            domains.declare(column, values);
        }
        times.train = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let table = dataset.table();
        let registered = Arc::new(
            Rowset::new(
                table.schema().clone(),
                table.rows()[train..kind.frames()].to_vec(),
            )
            .expect("rows share the schema"),
        );
        let mut catalog = Catalog::new();
        let mut segments = None;
        if kind.on_disk() {
            let dir = scratch.join("segments");
            let write_started = Instant::now();
            let paths = SegmentWriter::new(SegmentWriterConfig {
                rows_per_group: ROWS_PER_GROUP,
            })
            .write_shards(&dir, SOURCE, &registered, SEGMENT_SHARDS)
            .expect("write segment shards");
            let write_seconds = write_started.elapsed().as_secs_f64();
            let file_bytes = paths
                .iter()
                .map(|p| std::fs::metadata(p).expect("segment metadata").len())
                .sum();
            let scan = SegmentScan::open(&paths)
                .expect("open segment shards")
                .with_memory_budget(SCAN_MEMORY_BUDGET);
            catalog.register_provider(SOURCE, Arc::new(scan));
            segments = Some(SegmentStats {
                dir,
                paths,
                file_bytes,
                write_seconds,
                rows: registered.len(),
            });
        } else {
            catalog.register_shared(SOURCE, Arc::clone(&registered));
        }
        times.register = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut source = SourceSpec::new(SOURCE);
        for column in UDF_COLUMNS {
            source = source.with_udf(column, dataset.udf(column).expect("known UDF column"));
        }
        let mut sources = SourceRegistry::new();
        sources.register(SOURCE, source.clone());
        let server = Arc::new(PpServer::new(
            server_config(kind),
            catalog.clone(),
            sources,
            pp_catalog.clone(),
            domains.clone(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, server, stop))
        };
        times.server_start = started.elapsed().as_secs_f64();

        Stack {
            kind,
            catalog,
            pp_catalog,
            domains,
            source,
            server,
            addr,
            times,
            segments,
            registered,
            stop,
            acceptor: Some(acceptor),
        }
    }

    /// Opens one client connection to the server.
    pub fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect to the loopback listener");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
    }

    /// Stops the listener, joins every connection handler (all client
    /// connections must already be closed), shuts the server down so its
    /// last counters are final, and removes the segment shards. Returns
    /// the stopped server for reading those counters.
    pub fn shutdown(mut self) -> PpServer {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` so the loop sees the flag.
        drop(TcpStream::connect(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            let handlers = acceptor.join().expect("accept loop panicked");
            for h in handlers {
                h.join().expect("connection handler panicked");
            }
        }
        if let Some(seg) = &self.segments {
            let _ = std::fs::remove_dir_all(&seg.dir);
        }
        let mut server = Arc::try_unwrap(self.server)
            .unwrap_or_else(|_| panic!("a connection handler still holds the server"));
        server.shutdown();
        server
    }
}

/// A default-configured server except for what the workloads freeze:
/// the worker count, and for `shared_pairs` a window of two that closes
/// on fill (the 50 ms linger is never paid).
fn server_config(kind: Kind) -> ServerConfig {
    let mut config = ServerConfig {
        workers: SERVER_WORKERS,
        ..Default::default()
    };
    if kind == Kind::SharedPairs {
        config.sharedscan = SharedScanConfig {
            max_window: 2,
            window_wait: Some(Duration::from_millis(50)),
        };
    }
    config
}

/// Accepts connections until `stop`, serving each on its own thread the
/// way a deployment would put `serve_connection` behind a socket.
fn accept_loop(
    listener: TcpListener,
    server: Arc<PpServer>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        handlers.push(std::thread::spawn(move || {
            stream.set_nodelay(true).expect("TCP_NODELAY");
            let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
            let writer = BufWriter::with_capacity(64 * 1024, stream);
            // A client that closes between frames ends the loop cleanly;
            // the load generator never sends a malformed frame.
            serve_connection(&server, reader, writer).expect("wire connection failed");
        }));
    }
    handlers
}
