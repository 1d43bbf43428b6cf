//! The segment writer: encodes a [`Rowset`] into one segment file, or
//! shards it into N files with contiguous row ranges.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pp_engine::bytes::{put_u16, put_u32, put_u64};
use pp_engine::row::Rowset;
use pp_engine::ZoneMap;

use crate::format::{
    crc32, dtype_code, encode_bound, encode_value, FOOTER_MAGIC, MAGIC, MAX_COLUMNS, MAX_GROUPS,
    MAX_GROUP_ROWS, MAX_NAME_LEN, SEGMENT_VERSION,
};
use crate::{Result, StoreError};

/// Writer knobs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentWriterConfig {
    /// Rows per row group (the pruning granule). Clamped to ≥ 1.
    pub rows_per_group: usize,
}

impl Default for SegmentWriterConfig {
    fn default() -> Self {
        SegmentWriterConfig {
            rows_per_group: 256,
        }
    }
}

/// Summary of one written segment.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Where the segment was written.
    pub path: PathBuf,
    /// Rows encoded.
    pub rows: usize,
    /// Row groups written.
    pub groups: usize,
    /// Total file bytes.
    pub bytes: u64,
}

/// Encodes [`Rowset`]s into the segment format of [`crate::format`].
#[derive(Debug, Clone, Default)]
pub struct SegmentWriter {
    config: SegmentWriterConfig,
}

impl SegmentWriter {
    /// A writer with the given configuration.
    pub fn new(config: SegmentWriterConfig) -> SegmentWriter {
        SegmentWriter { config }
    }

    /// Encodes `table` into a single segment file at `path`, stamped as
    /// shard `shard` of `shard_count`.
    pub fn write_segment(
        &self,
        path: &Path,
        table: &Rowset,
        shard: u32,
        shard_count: u32,
    ) -> Result<SegmentInfo> {
        let bytes = self.encode(table, shard, shard_count)?;
        std::fs::write(path, &bytes)?;
        Ok(SegmentInfo {
            path: path.to_path_buf(),
            rows: table.len(),
            groups: table.len().div_ceil(self.config.rows_per_group.max(1)),
            bytes: bytes.len() as u64,
        })
    }

    /// Shards `table` into `shards` segment files `{stem}-NNNN.pps`
    /// under `dir` (created if absent). Rows are split into contiguous
    /// ranges in order, so concatenating the shards' groups in shard
    /// order reproduces the original row order exactly — the invariant
    /// the deterministic scan merge relies on. Returns the shard paths
    /// in shard order.
    pub fn write_shards(
        &self,
        dir: &Path,
        stem: &str,
        table: &Rowset,
        shards: usize,
    ) -> Result<Vec<PathBuf>> {
        let shards = shards.max(1);
        std::fs::create_dir_all(dir)?;
        let n = table.len();
        let per_shard = n.div_ceil(shards).max(1);
        let mut paths = Vec::with_capacity(shards);
        for s in 0..shards {
            let start = (s * per_shard).min(n);
            let end = ((s + 1) * per_shard).min(n);
            let slice = Rowset::new(table.schema().clone(), table.rows()[start..end].to_vec())
                .map_err(|e| StoreError::Corrupt(format!("shard slice: {e}")))?;
            let path = dir.join(format!("{stem}-{s:04}.pps"));
            self.write_segment(&path, &slice, s as u32, shards as u32)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Encodes the full segment image in memory (header, pages, footer,
    /// trailer). Deterministic: the same table and config always produce
    /// the same bytes — which is what lets tests golden-pin the format.
    pub fn encode(&self, table: &Rowset, shard: u32, shard_count: u32) -> Result<Vec<u8>> {
        let schema = table.schema();
        let n_cols = schema.len();
        if n_cols as u64 > MAX_COLUMNS as u64 {
            return Err(StoreError::TooLarge {
                what: "schema width",
                len: n_cols as u64,
                max: MAX_COLUMNS as u64,
            });
        }
        // A row is at least one tag byte per column; the reader holds every
        // group to that, so rows without columns have no encoding.
        if n_cols == 0 && !table.is_empty() {
            return Err(StoreError::Corrupt(
                "a zero-column table cannot carry rows".to_string(),
            ));
        }
        let rows_per_group = self.config.rows_per_group.max(1);
        if rows_per_group as u64 > MAX_GROUP_ROWS as u64 {
            return Err(StoreError::TooLarge {
                what: "rows per group",
                len: rows_per_group as u64,
                max: MAX_GROUP_ROWS as u64,
            });
        }
        let n_groups = table.len().div_ceil(rows_per_group);
        if n_groups as u64 > MAX_GROUPS as u64 {
            return Err(StoreError::TooLarge {
                what: "row groups",
                len: n_groups as u64,
                max: MAX_GROUPS as u64,
            });
        }

        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, SEGMENT_VERSION);

        // Pages, and the per-group directory rows for the footer.
        struct GroupDir {
            rows: u32,
            // Per column: (offset, len, crc, zone).
            cols: Vec<(u64, u64, u32, ZoneMap)>,
        }
        let mut dirs: Vec<GroupDir> = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let start = g * rows_per_group;
            let end = (start + rows_per_group).min(table.len());
            let rows = &table.rows()[start..end];
            let mut cols = Vec::with_capacity(n_cols);
            for c in 0..n_cols {
                let offset = out.len();
                for row in rows {
                    encode_value(&mut out, row.get(c))?;
                }
                let page = &out[offset..];
                let zone = ZoneMap::from_values(rows.iter().map(|r| r.get(c)));
                cols.push((offset as u64, page.len() as u64, crc32(page), zone));
            }
            dirs.push(GroupDir {
                rows: rows.len() as u32,
                cols,
            });
        }

        // Footer payload.
        let mut footer = Vec::new();
        put_u32(&mut footer, shard);
        put_u32(&mut footer, shard_count);
        put_u64(&mut footer, table.len() as u64);
        put_u32(&mut footer, n_cols as u32);
        for col in schema.columns() {
            if col.name.len() as u64 > MAX_NAME_LEN as u64 {
                return Err(StoreError::TooLarge {
                    what: "column name",
                    len: col.name.len() as u64,
                    max: MAX_NAME_LEN as u64,
                });
            }
            put_u16(&mut footer, col.name.len() as u16);
            footer.extend_from_slice(col.name.as_bytes());
            footer.push(dtype_code(col.dtype));
        }
        put_u32(&mut footer, dirs.len() as u32);
        for dir in &dirs {
            put_u32(&mut footer, dir.rows);
            for (offset, len, crc, zone) in &dir.cols {
                put_u64(&mut footer, *offset);
                put_u64(&mut footer, *len);
                put_u32(&mut footer, *crc);
                put_u64(&mut footer, zone.nulls);
                put_u64(&mut footer, zone.present);
                encode_bound(&mut footer, &zone.min);
                encode_bound(&mut footer, &zone.max);
            }
        }

        // Trailer.
        let footer_crc = crc32(&footer);
        let footer_len = footer.len() as u64;
        out.extend_from_slice(&footer);
        put_u32(&mut out, footer_crc);
        put_u64(&mut out, footer_len);
        out.extend_from_slice(&FOOTER_MAGIC);
        Ok(out)
    }

    /// The writer's configuration.
    pub fn config(&self) -> &SegmentWriterConfig {
        &self.config
    }
}

/// Convenience: writes `table` to `shards` segment files under `dir` and
/// opens them as a [`crate::SegmentScan`] with default writer settings.
pub fn write_and_open(
    dir: &Path,
    stem: &str,
    table: &Arc<Rowset>,
    shards: usize,
    config: SegmentWriterConfig,
) -> Result<crate::SegmentScan> {
    let paths = SegmentWriter::new(config).write_shards(dir, stem, table, shards)?;
    crate::SegmentScan::open(&paths)
}
