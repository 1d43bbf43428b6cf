//! The hardened segment reader.
//!
//! [`Segment::open`] validates the header magic and version, the trailer,
//! and the CRC-checksummed footer before trusting a single directory
//! entry; every declared size is capped before allocation and every page
//! extent is bounds-checked against the data region. Reading a row
//! group verifies every page checksum first, then decodes it column by
//! column into a [`Chunk`] — a blob page of uniformly dense vectors into
//! one contiguous block, never into per-row tuples — and requires each
//! page to hold exactly the declared row count with no trailing bytes. Corrupt or truncated input yields a
//! typed [`StoreError`] — never a panic.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use pp_engine::bytes::Reader;
use pp_engine::schema::{Column, Schema};
use pp_engine::{Chunk, ZoneMap};

use crate::format::{
    crc32, decode_bound, decode_column, dtype_from_code, FOOTER_MAGIC, HEADER_LEN, MAGIC,
    MAX_COLUMNS, MAX_FOOTER_LEN, MAX_GROUPS, MAX_GROUP_ROWS, MAX_NAME_LEN, SEGMENT_VERSION,
    TRAILER_LEN,
};
use crate::{Result, StoreError};

/// Fewest footer bytes one schema column takes: name length (2), an empty
/// name, dtype (1).
const MIN_COLUMN_LEN: usize = 3;
/// Fewest footer bytes one page's directory entry takes: offset (8), len
/// (8), crc (4), nulls (8), present (8), and two absent bounds (1 each). A
/// group's entry is its row count (4) and one of these per column.
const MIN_PAGE_ENTRY_LEN: usize = 38;

/// Extent and checksum of one column page within the data region.
#[derive(Debug, Clone, Copy)]
struct PageRef {
    offset: u64,
    len: u64,
    crc: u32,
}

/// Directory entry for one row group.
#[derive(Debug, Clone)]
struct GroupEntry {
    rows: u32,
    /// One page per schema column, in schema order.
    pages: Vec<PageRef>,
    /// One zone map per schema column, in schema order.
    zones: Vec<ZoneMap>,
}

/// A validated, open segment file.
///
/// Reads are positional ([`FileExt::read_exact_at`]) so a `Segment` can
/// serve concurrent `&self` page reads without locking.
#[derive(Debug)]
pub struct Segment {
    file: File,
    schema: Arc<Schema>,
    shard: u32,
    shard_count: u32,
    rows: u64,
    groups: Vec<GroupEntry>,
}

impl Segment {
    /// Opens and fully validates a segment file.
    pub fn open(path: &Path) -> Result<Segment> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Truncated {
                context: "segment file",
            });
        }

        // Header: magic + version.
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let mut cur = Reader::new(&header, "segment header");
        let found = cur.array()?;
        if found != MAGIC {
            return Err(StoreError::BadMagic {
                context: "segment header",
                found,
            });
        }
        let version = cur.u32()?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }

        // Trailer: footer crc32 · footer len · footer magic.
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, file_len - TRAILER_LEN)?;
        let mut cur = Reader::new(&trailer, "segment trailer");
        let footer_crc = cur.u32()?;
        let footer_len = cur.u64()?;
        let found = cur.array()?;
        if found != FOOTER_MAGIC {
            return Err(StoreError::BadMagic {
                context: "segment trailer",
                found,
            });
        }
        if footer_len > MAX_FOOTER_LEN {
            return Err(StoreError::TooLarge {
                what: "footer",
                len: footer_len,
                max: MAX_FOOTER_LEN,
            });
        }
        // The footer must fit between the header and the trailer.
        if footer_len > file_len - HEADER_LEN - TRAILER_LEN {
            return Err(StoreError::Truncated {
                context: "segment footer",
            });
        }
        let footer_start = file_len - TRAILER_LEN - footer_len;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact_at(&mut footer, footer_start)?;
        let actual = crc32(&footer);
        if actual != footer_crc {
            return Err(StoreError::ChecksumMismatch {
                context: "segment footer".to_string(),
                expected: footer_crc,
                actual,
            });
        }

        // Footer payload: shard ids, row count, schema, group directory.
        let mut cur = Reader::new(&footer, "segment footer");
        let shard = cur.u32()?;
        let shard_count = cur.u32()?;
        let rows = cur.u64()?;
        let n_cols = cur.u32()?;
        if n_cols > MAX_COLUMNS {
            return Err(StoreError::TooLarge {
                what: "schema width",
                len: n_cols as u64,
                max: MAX_COLUMNS as u64,
            });
        }
        cur.expect_items(n_cols as usize, MIN_COLUMN_LEN)?;
        let mut columns = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            let name_len = cur.u16()?;
            if name_len > MAX_NAME_LEN {
                return Err(StoreError::TooLarge {
                    what: "column name",
                    len: name_len as u64,
                    max: MAX_NAME_LEN as u64,
                });
            }
            let name = std::str::from_utf8(cur.take(name_len as usize)?)
                .map_err(|_| StoreError::Corrupt("column name is not valid utf-8".to_string()))?
                .to_string();
            let dtype = dtype_from_code(cur.u8()?)?;
            columns.push(Column { name, dtype });
        }
        let schema = Schema::new(columns)
            .map_err(|e| StoreError::Corrupt(format!("invalid schema: {e}")))?;

        let n_groups = cur.u32()?;
        if n_groups > MAX_GROUPS {
            return Err(StoreError::TooLarge {
                what: "row groups",
                len: n_groups as u64,
                max: MAX_GROUPS as u64,
            });
        }
        let min_group_len = 4 + n_cols as usize * MIN_PAGE_ENTRY_LEN;
        cur.expect_items(n_groups as usize, min_group_len)?;
        let mut groups = Vec::with_capacity(n_groups as usize);
        let mut dir_rows: u64 = 0;
        // Pages never overlap in a written segment, so together they fit
        // in the data region; holding the directory to that bounds every
        // group's read buffer by the file's own size.
        let mut page_budget = footer_start - HEADER_LEN;
        for _ in 0..n_groups {
            let group_rows = cur.u32()?;
            if group_rows > MAX_GROUP_ROWS {
                return Err(StoreError::TooLarge {
                    what: "group rows",
                    len: group_rows as u64,
                    max: MAX_GROUP_ROWS as u64,
                });
            }
            dir_rows += group_rows as u64;
            cur.expect_items(n_cols as usize, MIN_PAGE_ENTRY_LEN)?;
            let mut pages = Vec::with_capacity(n_cols as usize);
            let mut zones = Vec::with_capacity(n_cols as usize);
            for _ in 0..n_cols {
                let offset = cur.u64()?;
                let len = cur.u64()?;
                let crc = cur.u32()?;
                // Every page must lie fully inside the data region,
                // which spans [HEADER_LEN, footer_start).
                let end = offset
                    .checked_add(len)
                    .ok_or_else(|| StoreError::Corrupt("page extent overflows u64".to_string()))?;
                if offset < HEADER_LEN || end > footer_start {
                    return Err(StoreError::Corrupt(format!(
                        "page extent {offset}..{end} outside data region \
                         {HEADER_LEN}..{footer_start}"
                    )));
                }
                let nulls = cur.u64()?;
                let present = cur.u64()?;
                let min = decode_bound(&mut cur)?;
                let max = decode_bound(&mut cur)?;
                page_budget = page_budget.checked_sub(len).ok_or_else(|| {
                    StoreError::Corrupt("pages overlap: they exceed the data region".to_string())
                })?;
                pages.push(PageRef { offset, len, crc });
                zones.push(ZoneMap {
                    nulls,
                    present,
                    min,
                    max,
                });
            }
            // Every encoded value is at least one byte (its tag), so no
            // page can hold more rows than it has bytes.
            let shortest = pages.iter().map(|p| p.len).min().unwrap_or(0);
            if group_rows as u64 > shortest {
                return Err(StoreError::Corrupt(format!(
                    "group declares {group_rows} rows over a {shortest}-byte page"
                )));
            }
            groups.push(GroupEntry {
                rows: group_rows,
                pages,
                zones,
            });
        }
        if !cur.is_empty() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after segment footer directory",
                cur.remaining()
            )));
        }
        if dir_rows != rows {
            return Err(StoreError::Corrupt(format!(
                "group directory rows {dir_rows} != declared rows {rows}"
            )));
        }

        Ok(Segment {
            file,
            schema,
            shard,
            shard_count,
            rows,
            groups,
        })
    }

    /// The segment's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Which shard this segment claims to be.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// How many shards the corpus was written as.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Total rows in this segment.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of row groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Rows in row group `g`.
    ///
    /// # Panics
    /// If `g` is out of range.
    pub fn group_rows(&self, g: usize) -> usize {
        self.groups[g].rows as usize
    }

    /// On-disk page bytes of row group `g`.
    ///
    /// # Panics
    /// If `g` is out of range.
    pub fn group_bytes(&self, g: usize) -> u64 {
        self.groups[g].pages.iter().map(|p| p.len).sum()
    }

    /// Zone maps of row group `g`, keyed by column name.
    ///
    /// # Panics
    /// If `g` is out of range.
    pub fn zones(&self, g: usize) -> BTreeMap<String, ZoneMap> {
        let entry = &self.groups[g];
        self.schema
            .columns()
            .iter()
            .zip(entry.zones.iter())
            .map(|(c, z)| (c.name.clone(), z.clone()))
            .collect()
    }

    /// Reads, checksums, and decodes row group `g`.
    ///
    /// All pages land in one buffer of [`Segment::group_bytes`] bytes and
    /// every checksum is verified before any value is decoded.
    pub fn read_group(&self, g: usize) -> Result<Chunk> {
        let entry = self.groups.get(g).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "row group {g} out of range ({})",
                self.groups.len()
            ))
        })?;
        let group_bytes = self.group_bytes(g);
        let len = usize::try_from(group_bytes).map_err(|_| StoreError::TooLarge {
            what: "row group",
            len: group_bytes,
            max: usize::MAX as u64,
        })?;
        let mut buf = vec![0u8; len];
        let mut cursors = Vec::with_capacity(entry.pages.len());
        let mut rest = buf.as_mut_slice();
        for (c, page) in entry.pages.iter().enumerate() {
            // In range: `buf` is the sum of exactly these lengths.
            let (page_buf, tail) = rest.split_at_mut(page.len as usize);
            rest = tail;
            self.file.read_exact_at(page_buf, page.offset)?;
            let actual = crc32(page_buf);
            if actual != page.crc {
                return Err(StoreError::ChecksumMismatch {
                    context: format!("page group={g} col={c}"),
                    expected: page.crc,
                    actual,
                });
            }
            cursors.push(Reader::new(page_buf, "column page"));
        }
        let mut columns = Vec::with_capacity(cursors.len());
        for (c, cur) in cursors.iter_mut().enumerate() {
            columns.push(decode_column(cur, entry.rows as usize)?);
            if !cur.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "{} trailing bytes in page group={g} col={c}",
                    cur.remaining()
                )));
            }
        }
        Chunk::from_columns(Arc::clone(&self.schema), columns)
            .map_err(|e| StoreError::Corrupt(format!("row group {g}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden segment of `tests/store.rs` (5 rows, 5 columns, 3 groups).
    fn golden() -> Vec<u8> {
        let hex: Vec<u8> = include_str!("../../../tests/golden/segment.hex")
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .collect();
        hex.chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// Opens the golden segment after `patch` rewrote its footer — handed
    /// the footer bytes and the offset of group 0's directory entry —
    /// with the trailer's footer CRC recomputed, so only the directory's
    /// own validation stands between the patch and `read_group`.
    fn open_patched(tag: &str, patch: impl FnOnce(&mut [u8], usize)) -> Result<Segment> {
        let mut bytes = golden();
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let footer_len = u64::from_be_bytes(bytes[trailer + 4..trailer + 12].try_into().unwrap());
        let footer_start = trailer - footer_len as usize;
        // Skip shard ids, row count and the schema to find the directory.
        let mut cur = Reader::new(&bytes[footer_start..trailer], "footer");
        cur.take(16).unwrap();
        for _ in 0..cur.u32().unwrap() {
            let name_len = cur.u16().unwrap();
            cur.take(name_len as usize + 1).unwrap();
        }
        cur.u32().unwrap();
        let group0 = footer_len as usize - cur.remaining();

        patch(&mut bytes[footer_start..trailer], group0);
        let crc = crc32(&bytes[footer_start..trailer]);
        bytes[trailer..trailer + 4].copy_from_slice(&crc.to_be_bytes());
        let path =
            std::env::temp_dir().join(format!("pp-store-unit-{}-{tag}.pps", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let opened = Segment::open(&path);
        std::fs::remove_file(&path).unwrap();
        opened
    }

    #[test]
    fn unpatched_golden_opens() {
        let seg = open_patched("intact", |_, _| {}).expect("open");
        assert_eq!((seg.rows(), seg.group_count()), (5, 3));
    }

    /// A group may not declare more rows than its shortest page has bytes:
    /// 2^30 rows over a few-byte page would otherwise reserve gigabytes in
    /// `read_group` before a single value is decoded.
    #[test]
    fn over_declared_group_rows_are_rejected_at_open() {
        let err = open_patched("rows", |footer, group0| {
            // Keep the directory total consistent so only the new check fires.
            let total = 5 - 2 + MAX_GROUP_ROWS as u64;
            footer[8..16].copy_from_slice(&total.to_be_bytes());
            footer[group0..group0 + 4].copy_from_slice(&MAX_GROUP_ROWS.to_be_bytes());
        })
        .expect_err("over-declared rows must not open");
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("rows over")),
            "{err}"
        );
    }

    /// Pages that overlap could sum to many times the file's size in one
    /// group buffer; the directory as a whole must fit the data region.
    #[test]
    fn overlapping_pages_are_rejected_at_open() {
        let err = open_patched("overlap", |footer, group0| {
            // Group 0, column 0: claim the whole data region.
            let data_len = golden().len() as u64 - HEADER_LEN - footer.len() as u64 - TRAILER_LEN;
            footer[group0 + 4..group0 + 12].copy_from_slice(&HEADER_LEN.to_be_bytes());
            footer[group0 + 12..group0 + 20].copy_from_slice(&data_len.to_be_bytes());
        })
        .expect_err("overlapping pages must not open");
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("overlap")),
            "{err}"
        );
    }
}
