//! A multi-shard [`TableProvider`] over on-disk segments.
//!
//! `SegmentScan` opens N shard files (in the order given, which must be
//! shard order) and exposes their row groups as one global, ordered group
//! index: all of shard 0's groups, then shard 1's, and so on. Because the
//! writer splits rows into contiguous ranges, scanning groups in index
//! order reproduces the original row order exactly — so the engine's
//! deterministic morsel merge yields byte-identical results to an
//! in-memory scan of the same table.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pp_engine::schema::Schema;
use pp_engine::{Chunk, EngineError, RowGroupMeta, TableProvider};

use crate::segment::Segment;
use crate::{Result, StoreError};

/// Streaming scan source over one or more segment shards.
#[derive(Debug)]
pub struct SegmentScan {
    shards: Vec<Segment>,
    schema: Arc<Schema>,
    rows: usize,
    /// Global group index → (shard position, group within shard).
    index: Vec<(usize, usize)>,
    /// Pre-built metadata, one entry per global group.
    metas: Vec<RowGroupMeta>,
    budget: Option<u64>,
}

impl SegmentScan {
    /// Opens the given shard files, in shard order.
    ///
    /// All shards must share the same schema; a mismatch is reported as
    /// [`StoreError::Corrupt`]. Shard identity follows path order — the
    /// stamped shard ids inside the files are informational.
    pub fn open<P: AsRef<Path>>(paths: &[P]) -> Result<SegmentScan> {
        if paths.is_empty() {
            return Err(StoreError::Corrupt(
                "a segment scan needs at least one shard".to_string(),
            ));
        }
        let mut shards = Vec::with_capacity(paths.len());
        for p in paths {
            shards.push(Segment::open(p.as_ref())?);
        }
        let schema = shards[0].schema().clone();
        for (i, s) in shards.iter().enumerate().skip(1) {
            if *s.schema() != schema {
                return Err(StoreError::Corrupt(format!(
                    "shard {i} schema does not match shard 0"
                )));
            }
        }
        let mut rows = 0usize;
        let mut index = Vec::new();
        let mut metas = Vec::new();
        for (si, shard) in shards.iter().enumerate() {
            rows += shard.rows() as usize;
            for g in 0..shard.group_count() {
                index.push((si, g));
                metas.push(RowGroupMeta {
                    rows: shard.group_rows(g),
                    bytes: shard.group_bytes(g),
                    shard: si,
                    zones: shard.zones(g),
                });
            }
        }
        Ok(SegmentScan {
            shards,
            schema,
            rows,
            index,
            metas,
            budget: None,
        })
    }

    /// Opens all `*.pps` files under `dir`, sorted by file name (the
    /// writer's `{stem}-NNNN.pps` naming makes that shard order).
    pub fn open_dir(dir: &Path) -> Result<SegmentScan> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pps"))
            .collect();
        paths.sort();
        SegmentScan::open(&paths)
    }

    /// Caps the encoded bytes of the row groups a scan holds decoded at
    /// once: the scan operator decodes groups in budget-sized waves (a
    /// group over the budget decodes alone). Under `Scan → Filter` — every
    /// PP plan — a wave is dropped as soon as the filter's survivors are
    /// out of it, so the budget bounds the decoded data resident at any
    /// time; any other consumer of the scan still receives every decoded
    /// row at once.
    pub fn with_memory_budget(mut self, bytes: u64) -> SegmentScan {
        self.budget = Some(bytes);
        self
    }

    /// The opened shards.
    pub fn shards(&self) -> &[Segment] {
        &self.shards
    }
}

impl TableProvider for SegmentScan {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn row_count(&self) -> usize {
        self.rows
    }

    fn group_count(&self) -> usize {
        self.index.len()
    }

    fn group_meta(&self, index: usize) -> &RowGroupMeta {
        &self.metas[index]
    }

    fn read_group(&self, index: usize) -> std::result::Result<Chunk, EngineError> {
        let (si, g) = *self
            .index
            .get(index)
            .ok_or_else(|| EngineError::Storage(format!("row group {index} out of range")))?;
        Ok(self.shards[si].read_group(g)?)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn memory_budget(&self) -> Option<u64> {
        self.budget
    }
}
