//! The segment file format: constants, CRC32, and the value codec.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header    magic "PPSG" (4) · version u32 (4)                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ pages     row group 0: column 0 page, column 1 page, …       │
//! │           row group 1: column 0 page, column 1 page, …       │
//! │           (each page = the column's values, tag-encoded)     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer    shard u32 · shard_count u32 · rows u64             │
//! │           schema: n_cols u32, per column (name u16+bytes,    │
//! │             dtype u8)                                        │
//! │           groups: n_groups u32, per group (rows u32, per     │
//! │             column: page offset u64 + len u64 + crc32 u32 +  │
//! │             zone map)                                        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer   footer crc32 u32 · footer len u64 · magic "GSPP"   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The footer is found by reading the fixed-size trailer at end-of-file;
//! its declared length is capped at [`MAX_FOOTER_LEN`] **before**
//! allocation, and its CRC is verified before decoding. Page reads are
//! bounds-checked against the data region and CRC-verified per page.

use std::fmt;

use pp_engine::bytes::{put_u32, put_words, Reader, Truncated};
use pp_engine::schema::DataType;
use pp_engine::value::Value;
use pp_engine::ChunkColumn;
use pp_linalg::{FeatureBlock, Features, SparseVector};

/// Leading file magic (`PPSG`).
pub(crate) const MAGIC: [u8; 4] = *b"PPSG";
/// Trailing footer magic (`GSPP`).
pub(crate) const FOOTER_MAGIC: [u8; 4] = *b"GSPP";
/// Current (only) format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Header bytes: magic + version.
pub(crate) const HEADER_LEN: u64 = 8;
/// Trailer bytes: footer crc (4) + footer len (8) + magic (4).
pub(crate) const TRAILER_LEN: u64 = 16;
/// Cap on the declared footer length, enforced before allocation.
pub const MAX_FOOTER_LEN: u64 = 1 << 24;
/// Cap on schema width.
pub(crate) const MAX_COLUMNS: u32 = 4096;
/// Cap on column-name bytes.
pub(crate) const MAX_NAME_LEN: u16 = 4096;
/// Cap on row groups per segment.
pub(crate) const MAX_GROUPS: u32 = 1 << 20;
/// Cap on rows per group.
pub(crate) const MAX_GROUP_ROWS: u32 = 1 << 30;
/// Cap on one string value's bytes.
pub(crate) const MAX_STR_LEN: u32 = 1 << 20;
/// Cap on one blob's dimensionality / nonzeros.
pub(crate) const MAX_BLOB_LEN: u32 = 1 << 24;

// Value tags.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DENSE: u8 = 5;
const TAG_SPARSE: u8 = 6;

/// Typed failures from the segment store. Readers return these for any
/// malformed input — corrupt, truncated, wrong-magic, or oversized files
/// — and never panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A magic number did not match.
    BadMagic {
        /// Which magic (header or trailer).
        context: &'static str,
        /// The bytes found.
        found: [u8; 4],
    },
    /// The file declares a version this reader does not support.
    UnsupportedVersion(u32),
    /// The input ended before a complete structure could be read.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A CRC32 check failed.
    ChecksumMismatch {
        /// What was being verified.
        context: String,
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the bytes read.
        actual: u32,
    },
    /// A declared size exceeds its cap (refused before allocation).
    TooLarge {
        /// Which size field.
        what: &'static str,
        /// Declared value.
        len: u64,
        /// The cap.
        max: u64,
    },
    /// Structurally invalid content (bad tag, bad offsets, arity drift).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "segment i/o error: {e}"),
            StoreError::BadMagic { context, found } => {
                write!(f, "bad {context} magic: {found:02x?}")
            }
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported segment version {v}"),
            StoreError::Truncated { context } => write!(f, "truncated segment: {context}"),
            StoreError::ChecksumMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {context}: stored {expected:#010x}, computed {actual:#010x}"
            ),
            StoreError::TooLarge { what, len, max } => {
                write!(f, "{what} too large: {len} exceeds cap {max}")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt segment: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<Truncated> for StoreError {
    fn from(e: Truncated) -> Self {
        StoreError::Truncated { context: e.context }
    }
}

impl From<StoreError> for pp_engine::EngineError {
    fn from(e: StoreError) -> Self {
        pp_engine::EngineError::Storage(e.to_string())
    }
}

/// `P`, the IEEE 802.3 polynomial, reflected: bit 31 is `x^0`, bit 0 is
/// `x^31` (and `x^32` is implied).
const POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long are checksummed as [`CHAINS`] independent
/// chains; shorter ones as one.
const CHAIN_MIN_LEN: usize = 4096;
/// Independent register chains folded side by side over a long input.
const CHAINS: usize = 4;

/// Slice-by-16 lookup tables for the reflected IEEE 802.3 polynomial,
/// evaluated at compile time. `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// `X2N_TABLE[k]` is `x^(2^k) mod P`, evaluated at compile time by
/// repeated squaring from `x^1`.
static X2N_TABLE: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1 << 30;
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// `a · b mod P` for two reflected polynomials (zlib's `multmodp`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    p
}

/// `x^(8n) mod P`: multiplying a raw register by it appends `n` zero
/// bytes. The table wraps at 32 entries because `x^(2^32) ≡ x mod P`.
fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1 << 31;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N_TABLE[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Folds sixteen bytes into the raw register `crc`: four little-endian
/// words, four table lookups each.
#[inline(always)]
fn fold_block(crc: u32, b: &[u8; 16]) -> u32 {
    let t = &CRC_TABLES;
    // `k` is how many bytes follow the word within the block.
    let word = |w: u32, k: usize| {
        t[k + 3][(w & 0xFF) as usize]
            ^ t[k + 2][((w >> 8) & 0xFF) as usize]
            ^ t[k + 1][((w >> 16) & 0xFF) as usize]
            ^ t[k][(w >> 24) as usize]
    };
    let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ crc;
    let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
    let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
    let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
    word(w0, 12) ^ word(w1, 8) ^ word(w2, 4) ^ word(w3, 0)
}

/// Folds `data` into the raw register `crc` as one chain.
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        crc = fold_block(crc, b);
    }
    for &b in tail {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 (IEEE 802.3, reflected). The one checksum of the format: pages,
/// footer, reader and writer all use it (public so a test can re-seal a
/// page or footer it has rewritten).
///
/// A short input is folded sixteen bytes per step as one chain. A long
/// one is cut into `CHAINS` (four) equal stretches of whole blocks folded
/// side by side — the first from the initial register, the others from zero,
/// so one chain's lookups hide another's latency — and joined exactly:
/// by linearity, the register after `a‖b` is `a`'s register times
/// `x^(8·|b|) mod P`, plus `b`'s register from zero. The few bytes left
/// over fold onto the joined register.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0;
    let mut rest = data;
    if data.len() >= CHAIN_MIN_LEN {
        let (blocks, _) = data.as_chunks::<16>();
        let n = blocks.len() / CHAINS;
        let mut regs = [0; CHAINS];
        regs[0] = crc;
        for i in 0..n {
            for (c, reg) in regs.iter_mut().enumerate() {
                *reg = fold_block(*reg, &blocks[c * n + i]);
            }
        }
        let shift = x8nmodp(16 * n);
        crc = regs[1..]
            .iter()
            .fold(regs[0], |crc, &next| multmodp(shift, crc) ^ next);
        rest = &data[16 * n * CHAINS..];
    }
    !fold(crc, rest)
}

// ---- encoding helpers ----------------------------------------------------

pub(crate) fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Blob => 4,
    }
}

pub(crate) fn dtype_from_code(c: u8) -> Result<DataType, StoreError> {
    Ok(match c {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Blob,
        _ => return Err(StoreError::Corrupt(format!("unknown dtype code {c}"))),
    })
}

/// Appends one tag-encoded value. Floats are stored as raw IEEE-754 bits
/// so the round trip is bit-exact (including NaN payloads and -0.0).
pub(crate) fn encode_value(buf: &mut Vec<u8>, v: &Value) -> Result<(), StoreError> {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            if s.len() as u64 > MAX_STR_LEN as u64 {
                return Err(StoreError::TooLarge {
                    what: "string value",
                    len: s.len() as u64,
                    max: MAX_STR_LEN as u64,
                });
            }
            buf.push(TAG_STR);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Blob(features) => match &**features {
            Features::Dense(xs) => {
                if xs.len() as u64 > MAX_BLOB_LEN as u64 {
                    return Err(StoreError::TooLarge {
                        what: "dense blob",
                        len: xs.len() as u64,
                        max: MAX_BLOB_LEN as u64,
                    });
                }
                buf.push(TAG_DENSE);
                put_u32(buf, xs.len() as u32);
                put_words(buf, xs.len(), xs.iter().map(|x| x.to_bits().to_be_bytes()));
            }
            Features::Sparse(sv) => {
                if sv.dim() as u64 > MAX_BLOB_LEN as u64 {
                    return Err(StoreError::TooLarge {
                        what: "sparse blob",
                        len: sv.dim() as u64,
                        max: MAX_BLOB_LEN as u64,
                    });
                }
                buf.push(TAG_SPARSE);
                put_u32(buf, sv.dim() as u32);
                put_u32(buf, sv.nnz() as u32);
                put_words(buf, sv.nnz(), sv.iter().map(|(i, _)| i.to_be_bytes()));
                put_words(
                    buf,
                    sv.nnz(),
                    sv.iter().map(|(_, x)| x.to_bits().to_be_bytes()),
                );
            }
        },
    }
    Ok(())
}

/// Appends a zone-map bound: absent (0), or a tagged Int/Float value.
pub(crate) fn encode_bound(buf: &mut Vec<u8>, bound: &Option<Value>) {
    match bound {
        None => buf.push(0),
        Some(Value::Int(i)) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Some(Value::Float(x)) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        // Zone ranges are numeric by construction; anything else is
        // dropped (equivalent to "no statistics", which is always safe).
        Some(_) => buf.push(0),
    }
}

// ---- decoding ------------------------------------------------------------

/// An `f64` from its big-endian bit pattern.
fn be_f64(word: &[u8; 8]) -> f64 {
    f64::from_bits(u64::from_be_bytes(*word))
}

/// Decodes one tag-encoded value.
pub(crate) fn decode_value(cur: &mut Reader<'_>) -> Result<Value, StoreError> {
    let tag = cur.u8()?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => match cur.u8()? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            b => return Err(StoreError::Corrupt(format!("bad bool byte {b:#04x}"))),
        },
        TAG_INT => Value::Int(cur.i64()?),
        TAG_FLOAT => Value::Float(cur.f64()?),
        TAG_STR => {
            let len = cur.u32()?;
            if len > MAX_STR_LEN {
                return Err(StoreError::TooLarge {
                    what: "string value",
                    len: len as u64,
                    max: MAX_STR_LEN as u64,
                });
            }
            let bytes = cur.take(len as usize)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| StoreError::Corrupt(format!("invalid utf-8 string: {e}")))?;
            Value::str(s)
        }
        TAG_DENSE => {
            let n = cur.u32()?;
            if n > MAX_BLOB_LEN {
                return Err(StoreError::TooLarge {
                    what: "dense blob",
                    len: n as u64,
                    max: MAX_BLOB_LEN as u64,
                });
            }
            let coords = cur.words(n as usize)?.iter().map(be_f64).collect();
            Value::blob(Features::Dense(coords))
        }
        TAG_SPARSE => {
            let dim = cur.u32()?;
            let nnz = cur.u32()?;
            if dim > MAX_BLOB_LEN {
                return Err(StoreError::TooLarge {
                    what: "sparse blob",
                    len: dim as u64,
                    max: MAX_BLOB_LEN as u64,
                });
            }
            if nnz > dim {
                return Err(StoreError::Corrupt(format!(
                    "sparse blob nnz {nnz} exceeds dim {dim}"
                )));
            }
            // Both arrays must be there before either is reserved.
            cur.expect_items(nnz as usize, 12)?;
            let indices = cur.words(nnz as usize)?;
            let indices = indices.iter().map(|w| u32::from_be_bytes(*w)).collect();
            let values = cur.words(nnz as usize)?.iter().map(be_f64).collect();
            let sv = SparseVector::new(dim as usize, indices, values)
                .map_err(|e| StoreError::Corrupt(format!("invalid sparse blob: {e}")))?;
            Value::blob(Features::Sparse(sv))
        }
        t => return Err(StoreError::Corrupt(format!("unknown value tag {t:#04x}"))),
    })
}

/// Decodes one column page of `rows` values: a page of dense blobs of
/// one dimension into one block, in a single big-endian → `f64` pass;
/// any other page cell by cell.
pub(crate) fn decode_column(cur: &mut Reader<'_>, rows: usize) -> Result<ChunkColumn, StoreError> {
    if let Some(block) = dense_block(cur, rows) {
        return Ok(ChunkColumn::Block(block));
    }
    // Every encoded value is at least its tag byte.
    cur.expect_items(rows, 1)?;
    let mut cells = Vec::with_capacity(rows);
    for _ in 0..rows {
        cells.push(decode_value(cur)?);
    }
    Ok(ChunkColumn::Cells(cells))
}

/// The whole page as one block, if it is exactly `rows` dense blobs of
/// one non-zero dimension; consumes the page then, and leaves it
/// untouched otherwise (a sparse, ragged, empty, `Null` or non-blob cell
/// anywhere: the cells decode one by one and report what they report).
fn dense_block(cur: &mut Reader<'_>, rows: usize) -> Option<FeatureBlock> {
    let page = cur.rest();
    let (header, _) = page.split_first_chunk::<5>()?;
    let [tag, dim @ ..] = *header;
    let dim = u32::from_be_bytes(dim);
    if tag != TAG_DENSE || dim == 0 || dim > MAX_BLOB_LEN {
        return None;
    }
    let cell = header.len() + dim as usize * 8;
    // The page's own length bounds the buffer reserved below.
    if rows.checked_mul(cell)? != page.len() {
        return None;
    }
    let mut data = Vec::with_capacity(rows * dim as usize);
    for bytes in page.chunks_exact(cell) {
        let (this, payload) = bytes.split_first_chunk::<5>()?;
        if this != header {
            return None;
        }
        let (words, _) = payload.as_chunks::<8>();
        data.extend(words.iter().map(be_f64));
    }
    let block = FeatureBlock::from_vec(dim as usize, data).ok()?;
    cur.take(page.len()).ok()?;
    Some(block)
}

/// Decodes a zone-map bound written by [`encode_bound`].
pub(crate) fn decode_bound(cur: &mut Reader<'_>) -> Result<Option<Value>, StoreError> {
    match cur.u8()? {
        0 => Ok(None),
        TAG_INT => Ok(Some(Value::Int(cur.i64()?))),
        TAG_FLOAT => Ok(Some(Value::Float(cur.f64()?))),
        t => Err(StoreError::Corrupt(format!("unknown bound tag {t:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 one byte at a time, straight from the polynomial with no
    /// table: the oracle for the word-at-a-time [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// The next word of a splitmix64 stream.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` seeded pseudo-random bytes.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| splitmix64(&mut state) as u8).collect()
    }

    #[test]
    fn crc32_matches_bytewise_oracle() {
        // Every length around the 16-byte block, at every alignment.
        let patterned: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let data = &patterned[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start={start} len={len}");
            }
        }

        // The chained path at each of its edges: where it starts, every
        // remainder its stretches leave, and long inputs.
        let buf = seeded_bytes(0xC4A1, 1 << 20);
        let check = |data: &[u8], what: &str| {
            assert_eq!(
                crc32(data),
                crc32_bytewise(data),
                "{what} len={}",
                data.len()
            );
        };
        // Either side of the threshold, at every alignment.
        for start in 0..16 {
            for len in CHAIN_MIN_LEN - 1..=CHAIN_MIN_LEN + 64 {
                check(&buf[start..start + len], &format!("start={start}"));
            }
        }
        // Stretches of 100 blocks, then 1 to 63 bytes left over.
        for rem in 1..16 * CHAINS {
            check(&buf[..16 * CHAINS * 100 + rem], "remainder");
        }
        // Seeded lengths up to 1 MiB.
        let mut state = 0x1E57;
        for _ in 0..8 {
            let len = (splitmix64(&mut state) % (buf.len() as u64 + 1)) as usize;
            check(&buf[..len], "seeded");
        }
        check(&buf, "whole");
    }

    /// `a · b mod P` with both in natural bit order (bit 0 is `x^0`): a
    /// carry-less multiply into 64 bits, then long division. Shares
    /// nothing with the reflected [`multmodp`].
    fn mulmod_natural(a: u32, b: u32) -> u32 {
        let mut prod = 0u64;
        for i in 0..32 {
            if (b >> i) & 1 != 0 {
                prod ^= (a as u64) << i;
            }
        }
        for i in (32..64).rev() {
            if (prod >> i) & 1 != 0 {
                prod ^= 0x1_04C1_1DB7 << (i - 32);
            }
        }
        prod as u32
    }

    #[test]
    fn x2n_table_is_repeated_squaring() {
        let mut p = 1u32 << 1; // x, natural order
        for (k, &entry) in X2N_TABLE.iter().enumerate() {
            assert_eq!(entry, p.reverse_bits(), "x^(2^{k})");
            p = mulmod_natural(p, p);
        }
        // x^(2^32) ≡ x, so `x8nmodp` may wrap its table index.
        assert_eq!(p, 1 << 1);
        assert_eq!(multmodp(X2N_TABLE[31], X2N_TABLE[31]), X2N_TABLE[0]);
    }

    proptest::proptest! {
        /// The law the chains are joined by: `a`'s raw register times
        /// `x^(8·|b|) mod P`, plus `b`'s register from zero, is the
        /// register of `a‖b`.
        #[test]
        fn joined_registers_are_the_register_of_the_concatenation(
            init in 0u32..=u32::MAX,
            a in proptest::collection::vec(0u8..=255, 0..700),
            b in proptest::collection::vec(0u8..=255, 0..9000),
        ) {
            let joined = multmodp(x8nmodp(b.len()), fold(init, &a)) ^ fold(0, &b);
            let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
            proptest::prop_assert_eq!(joined, fold(init, &whole));
        }
    }

    /// A blob as (dim, indices, value bit patterns); dense has no indices.
    fn blob_bits(f: &Features) -> (usize, Vec<u32>, Vec<u64>) {
        match f {
            Features::Dense(xs) => (
                xs.len(),
                Vec::new(),
                xs.iter().map(|x| x.to_bits()).collect(),
            ),
            Features::Sparse(sv) => (
                sv.dim(),
                sv.iter().map(|(i, _)| i).collect(),
                sv.iter().map(|(_, x)| x.to_bits()).collect(),
            ),
        }
    }

    #[test]
    fn value_round_trip_is_bit_exact() {
        let sv = SparseVector::from_pairs(8, vec![(1, 0.5), (6, -2.25)]).unwrap();
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(1.5e308),
            Value::str("héllo"),
            Value::str(""),
            Value::blob(Features::Dense(vec![0.1, -0.2, f64::INFINITY])),
            Value::blob(Features::Sparse(sv)),
        ];
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v).unwrap();
        }
        let mut cur = Reader::new(&buf, "test");
        for v in &values {
            let got = decode_value(&mut cur).unwrap();
            assert_eq!(format!("{v:?}"), format!("{got:?}"));
            // `Debug` prints a blob as `<blob dim=N>`; compare its contents.
            if let (Value::Blob(want), Value::Blob(got)) = (v, &got) {
                assert_eq!(blob_bits(want), blob_bits(got));
            }
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn truncated_values_are_typed_errors() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::str("hello world")).unwrap();
        for cut in 0..buf.len() {
            let mut cur = Reader::new(&buf[..cut], "test");
            assert!(decode_value(&mut cur).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_declared_lengths_are_refused() {
        // A string claiming MAX_STR_LEN+1 bytes with a tiny payload.
        let mut buf = vec![TAG_STR];
        put_u32(&mut buf, MAX_STR_LEN + 1);
        buf.extend_from_slice(b"x");
        let mut cur = Reader::new(&buf, "test");
        assert!(matches!(
            decode_value(&mut cur),
            Err(StoreError::TooLarge { .. })
        ));
        // A dense blob claiming a huge count must not allocate it.
        let mut buf = vec![TAG_DENSE];
        put_u32(&mut buf, MAX_BLOB_LEN);
        let mut cur = Reader::new(&buf, "test");
        assert!(matches!(
            decode_value(&mut cur),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let mut cur = Reader::new(&[0xEE], "test");
        assert!(matches!(
            decode_value(&mut cur),
            Err(StoreError::Corrupt(_))
        ));
        let mut cur = Reader::new(&[TAG_BOOL, 7], "test");
        assert!(matches!(
            decode_value(&mut cur),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn bounds_round_trip() {
        let mut buf = Vec::new();
        encode_bound(&mut buf, &None);
        encode_bound(&mut buf, &Some(Value::Int(-5)));
        encode_bound(&mut buf, &Some(Value::Float(2.5)));
        encode_bound(&mut buf, &Some(Value::str("not numeric")));
        let mut cur = Reader::new(&buf, "test");
        assert!(decode_bound(&mut cur).unwrap().is_none());
        assert!(matches!(
            decode_bound(&mut cur).unwrap(),
            Some(Value::Int(-5))
        ));
        assert!(matches!(decode_bound(&mut cur).unwrap(), Some(Value::Float(x)) if x == 2.5));
        // Non-numeric bounds degrade to "no statistics".
        assert!(decode_bound(&mut cur).unwrap().is_none());
        assert!(cur.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let errors: Vec<StoreError> = vec![
            StoreError::Io(std::io::Error::other("boom")),
            StoreError::BadMagic {
                context: "header",
                found: *b"XXXX",
            },
            StoreError::UnsupportedVersion(9),
            StoreError::Truncated { context: "footer" },
            StoreError::ChecksumMismatch {
                context: "page".into(),
                expected: 1,
                actual: 2,
            },
            StoreError::TooLarge {
                what: "footer",
                len: 10,
                max: 5,
            },
            StoreError::Corrupt("x".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            let _engine: pp_engine::EngineError = e.into();
        }
    }
}
