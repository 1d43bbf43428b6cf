//! Out-of-core corpus demo: shard a TRAF corpus into on-disk segment
//! files, then run the exact same queries against the segment-backed
//! catalog — identical verdicts, zone-map pruning for free, and the same
//! serving front door.
//!
//! ```text
//! cargo run --release --example segment_corpus
//! ```
//!
//! Four acts:
//!
//! 1. **Write** — [`SegmentWriter`] splits the corpus into 4 contiguous
//!    shard files (`traffic-0000.pps` …), each a sequence of checksummed
//!    row groups with per-column zone maps in the footer.
//! 2. **Scan** — a [`SegmentScan`] registered as a table provider serves
//!    the same rows the in-memory catalog does; the verdicts match
//!    row-for-row while shards feed the morsel scheduler in parallel.
//! 3. **Prune** — the optimizer spots the `frameID < …` conjunct as
//!    zone-map-answerable and pushes it into the scan as a zero-cost
//!    accuracy-1.0 leaf PP; the `store.*` counters prove row groups were
//!    skipped, and the zone maps alone show the skew across shards.
//! 4. **Serve** — the same segment-backed catalog drops into [`PpServer`]
//!    unchanged: a [`SourceSpec`] only names the table, so out-of-core
//!    sources need no serving-layer changes.

use std::sync::Arc;

use probabilistic_predicates::engine::shard_prune_stats;
use probabilistic_predicates::prelude::*;

fn main() {
    // ---------------------------------------------------------------- 1
    // Generate a small TRAF corpus and shard it onto disk.
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: 1200,
        seed: 7,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("pp-segment-corpus-{}", std::process::id()));
    let writer = SegmentWriter::new(SegmentWriterConfig { rows_per_group: 64 });
    let paths = writer
        .write_shards(&dir, "traffic", dataset.table(), 4)
        .expect("write shards");
    let scan = SegmentScan::open(&paths).expect("open shards");
    println!("wrote {} shards under {}", paths.len(), dir.display());
    for (path, seg) in paths.iter().zip(scan.shards()) {
        let bytes: u64 = (0..seg.group_count()).map(|g| seg.group_bytes(g)).sum();
        println!(
            "  {}: {} rows, {} groups, {} page bytes",
            path.file_name().unwrap().to_string_lossy(),
            seg.rows(),
            seg.group_count(),
            bytes
        );
    }

    // ---------------------------------------------------------------- 2
    // Same query, two backends: the segment-backed catalog must return
    // exactly the in-memory rows.
    let mut mem_catalog = Catalog::new();
    dataset.register(&mut mem_catalog);
    let mut seg_catalog = Catalog::new();
    seg_catalog.register_provider("traffic", Arc::new(scan));

    let suv = Predicate::from(Clause::new("vehType", CompareOp::Eq, "SUV"));
    let spec = SourceSpec::new("traffic")
        .with_udf("vehType", dataset.udf("vehType").expect("vehType UDF"));
    let plan = spec.nop_plan(&suv);

    let mut mem_ctx = ExecutionContext::new(&mem_catalog);
    let mem_out = mem_ctx.run(&plan).expect("in-memory run");
    let mut seg_ctx = ExecutionContext::builder(&seg_catalog)
        .with_parallelism(4)
        .build();
    let seg_out = seg_ctx.run(&plan).expect("segment run");
    assert_eq!(
        format!("{:?}", mem_out.rows()),
        format!("{:?}", seg_out.rows()),
        "backends diverged"
    );
    println!(
        "\nSUV query: {} verdicts from memory, {} from segments — identical",
        mem_out.rows().len(),
        seg_out.rows().len()
    );

    // ---------------------------------------------------------------- 3
    // Add a range conjunct on a *stored* column. The optimizer pushes it
    // into the scan: zone maps answer it per row group, so most groups
    // are never read — a PP with accuracy 1.0 and zero cost.
    let frame_range = Predicate::from(Clause::new("frameID", CompareOp::Lt, 300i64));
    let pred = Predicate::and(frame_range.clone(), suv.clone());
    let plan = spec.nop_plan(&pred);
    let qo = PpQueryOptimizer::new(PpCatalog::new(), Domains::new(), QoConfig::default());
    let optimized = qo.optimize(&plan, &seg_catalog).expect("optimize");
    for push in &optimized.report.zone_pushdowns {
        println!(
            "\nzone pushdown on `{}`: `{}` prunes {}/{} row groups ({} rows) before decode",
            push.table,
            push.predicate,
            push.row_groups_pruned,
            push.row_groups_total,
            push.rows_pruned
        );
    }
    assert!(
        !optimized.report.zone_pushdowns.is_empty(),
        "frameID conjunct should be zone-pushable"
    );

    let mut ctx = ExecutionContext::builder(&seg_catalog)
        .with_parallelism(4)
        .build();
    let out = ctx.run(&optimized.plan).expect("pruned run");
    println!(
        "pruned run: {} verdicts, {} groups scanned, {} pruned, {} bytes read",
        out.rows().len(),
        ctx.registry()
            .counter("store.row_groups_scanned_total")
            .get(),
        ctx.registry()
            .counter("store.row_groups_pruned_total")
            .get(),
        ctx.registry().counter("store.bytes_read_total").get()
    );
    // One camera's frames cluster in one shard, so the same conjunct
    // prunes each shard differently — read straight off the zone maps.
    let provider = seg_catalog.provider("traffic").expect("traffic provider");
    let skew: Vec<String> = shard_prune_stats(provider.as_ref(), &frame_range)
        .iter()
        .map(|s| format!("{}/{}", s.groups_pruned, s.groups_total))
        .collect();
    println!("row groups pruned per shard: {skew:?}");

    // ---------------------------------------------------------------- 4
    // The serving stack takes the segment-backed catalog unchanged.
    let mut sources = SourceRegistry::new();
    sources.register("traffic", spec);
    let mut server = PpServer::new(
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
        seg_catalog,
        sources,
        PpCatalog::new(),
        Domains::new(),
    );
    let ticket = server
        .submit(QueryRequest::new("traffic", suv, 0.9))
        .expect("admitted");
    match ticket.wait().outcome {
        QueryOutcome::Complete(success) => println!(
            "\nserved from segments: {} verdicts (epoch {})",
            success.rows.rows().len(),
            success.epoch
        ),
        other => panic!("expected completion, got {other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("remove the shards");
}
