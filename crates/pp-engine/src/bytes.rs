//! The one bounded byte reader, and the writers that mirror it.
//!
//! Untrusted bytes reach the engine through two doors — a `.pps` column
//! page or footer (`pp-store`) and a `PPW1` frame (`pp-server::wire`) —
//! and both decode through [`Reader`]: the unread part of a slice, read
//! only through accessors that return [`Truncated`] instead of reading
//! past the end. All integers are big-endian, floats are their IEEE-754
//! bit patterns.
//!
//! **Cap before reserve.** A count read from the input says how many items
//! *should* follow, not how many do. Before room for `count` of anything is
//! reserved, [`Reader::expect_items`] holds the count to what is left to
//! read: `count` items of at least `item_len` encoded bytes each must fit
//! in the unread slice, so no reservation exceeds what the input itself
//! could fill. [`Reader::words`] is that check, the read and the split into
//! fixed-width words in one call, for the bulk `f64`/`u32` paths.
//!
//! The accessors are `#[inline]`: their callers are in other crates and
//! the release profile has no LTO.

/// The input ended before the structure it declares did; the only way a
/// [`Reader`] fails. `context` names what was being decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// What was being decoded.
    pub context: &'static str,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated input: {}", self.context)
    }
}

impl std::error::Error for Truncated {}

/// A bounds-checked reader over a byte slice. A failed read consumes
/// nothing.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `data`; `context` is reported by every [`Truncated`].
    #[inline]
    pub fn new(data: &'a [u8], context: &'static str) -> Reader<'a> {
        Reader {
            rest: data,
            context,
        }
    }

    #[inline]
    fn truncated(&self) -> Truncated {
        Truncated {
            context: self.context,
        }
    }

    /// The unread bytes, without consuming them.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// How many bytes are unread.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether everything has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(*head)
    }

    /// Fails unless `count` items of `item_len` bytes each are still
    /// unread. Call it with the *smallest* encoding an item can have before
    /// reserving room for `count` of them.
    #[inline]
    pub fn expect_items(&self, count: usize, item_len: usize) -> Result<(), Truncated> {
        match count.checked_mul(item_len) {
            Some(needed) if needed <= self.rest.len() => Ok(()),
            _ => Err(self.truncated()),
        }
    }

    /// The next `count` words of `N` bytes each.
    #[inline]
    pub fn words<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]], Truncated> {
        self.expect_items(count, N)?;
        let (words, _) = self.take(count * N)?.as_chunks::<N>();
        Ok(words)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// A big-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, Truncated> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// An `f64` from its big-endian bit pattern (bit-exact: NaN payloads
    /// and `-0.0` survive).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Appends a big-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `n` fixed-width words with one resize instead of `n`
/// capacity-checked pushes; `words` must yield exactly `n` items.
#[inline]
pub fn put_words<const N: usize>(
    out: &mut Vec<u8>,
    n: usize,
    words: impl Iterator<Item = [u8; N]>,
) {
    let start = out.len();
    out.resize(start + n * N, 0);
    for (dst, w) in out[start..].as_chunks_mut::<N>().0.iter_mut().zip(words) {
        *dst = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUT: Truncated = Truncated { context: "test" };

    /// 0x01, 0x02, …: every multi-byte read has a distinct expected value.
    fn counting(len: usize) -> Vec<u8> {
        (1..=len as u8).collect()
    }

    /// `read` succeeds on exactly `width` bytes or more and fails on every
    /// shorter input, consuming `width` bytes or nothing.
    fn at_every_short_length<T: PartialEq + std::fmt::Debug>(
        width: usize,
        want: T,
        read: impl Fn(&mut Reader<'_>) -> Result<T, Truncated>,
    ) {
        let data = counting(width + 3);
        for len in 0..=data.len() {
            let mut cur = Reader::new(&data[..len], "test");
            let got = read(&mut cur);
            if len < width {
                assert_eq!(got, Err(CUT), "width {width} over {len} bytes");
                assert_eq!(cur.remaining(), len, "a failed read consumes nothing");
            } else {
                assert_eq!(got.as_ref(), Ok(&want), "width {width} over {len} bytes");
                assert_eq!(cur.rest(), &data[width..len]);
            }
        }
    }

    #[test]
    fn every_accessor_at_every_short_length() {
        at_every_short_length(1, 0x01, |c| c.u8());
        at_every_short_length(2, 0x0102, |c| c.u16());
        at_every_short_length(4, 0x0102_0304, |c| c.u32());
        at_every_short_length(8, 0x0102_0304_0506_0708, |c| c.u64());
        at_every_short_length(8, 0x0102_0304_0506_0708, |c| c.i64());
        at_every_short_length(8, 0x0102_0304_0506_0708, |c| c.f64().map(f64::to_bits));
        at_every_short_length(3, [1, 2, 3], |c| c.array::<3>());
        at_every_short_length(0, [], |c| c.array::<0>());
        at_every_short_length(5, vec![1, 2, 3, 4, 5], |c| c.take(5).map(<[u8]>::to_vec));
        at_every_short_length(0, vec![], |c| c.take(0).map(<[u8]>::to_vec));
        at_every_short_length(6, vec![[1, 2, 3], [4, 5, 6]], |c| {
            c.words::<3>(2).map(<[[u8; 3]]>::to_vec)
        });
    }

    #[test]
    fn signed_and_float_reads_are_bit_exact() {
        let mut buf = Vec::new();
        put_u64(&mut buf, i64::MIN as u64);
        put_u64(&mut buf, (-0.0f64).to_bits());
        put_u64(&mut buf, 0x7ff8_0000_0000_beef);
        let mut cur = Reader::new(&buf, "test");
        assert_eq!(cur.i64(), Ok(i64::MIN));
        assert_eq!(cur.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(cur.f64().map(f64::to_bits), Ok(0x7ff8_0000_0000_beef));
        assert!(cur.is_empty() && cur.remaining() == 0 && cur.rest().is_empty());
        assert_eq!(cur.u8(), Err(CUT));
    }

    #[test]
    fn expect_items_holds_a_count_to_what_is_left() {
        let data = counting(24);
        let cur = Reader::new(&data, "test");
        assert_eq!(cur.expect_items(0, 8), Ok(()));
        assert_eq!(cur.expect_items(3, 8), Ok(()));
        assert_eq!(cur.expect_items(4, 8), Err(CUT));
        assert_eq!(cur.expect_items(24, 1), Ok(()));
        assert_eq!(cur.expect_items(25, 1), Err(CUT));
        assert_eq!(cur.expect_items(2, 12), Ok(()));
        assert_eq!(cur.expect_items(3, 12), Err(CUT));
        // `count × item_len` past `usize`: truncated, not wrapped into range.
        assert_eq!(cur.expect_items(usize::MAX, 2), Err(CUT));
        assert_eq!(cur.expect_items(usize::MAX / 8 + 1, 8), Err(CUT));
        assert_eq!(cur.expect_items(1 << 63, 38), Err(CUT));
        // Items of no bytes cannot be bounded by the input.
        assert_eq!(cur.expect_items(usize::MAX, 0), Ok(()));
        assert_eq!(Reader::new(&[], "test").expect_items(1, 1), Err(CUT));
    }

    #[test]
    fn words_on_unaligned_remainders() {
        // 20 bytes: two whole 8-byte words and a 4-byte tail.
        let data = counting(20);
        let mut cur = Reader::new(&data, "test");
        assert_eq!(cur.words::<8>(3), Err(CUT));
        assert_eq!(cur.words::<8>(usize::MAX), Err(CUT));
        assert_eq!(cur.remaining(), 20, "a failed read consumes nothing");
        let words = cur.words::<8>(2).expect("two words fit");
        assert_eq!(
            words,
            [[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11, 12, 13, 14, 15, 16]]
        );
        assert_eq!(cur.rest(), [17, 18, 19, 20]);
        assert_eq!(cur.words::<8>(1), Err(CUT));
        assert_eq!(cur.words::<8>(0), Ok(&[][..]));
        assert_eq!(cur.words::<4>(1), Ok(&[[17, 18, 19, 20]][..]));
        assert!(cur.is_empty());
    }

    #[test]
    fn writers_mirror_the_readers() {
        let mut buf = vec![0xAA];
        put_u16(&mut buf, 0x0102);
        put_u32(&mut buf, 0x0304_0506);
        put_u64(&mut buf, 0x0708_090A_0B0C_0D0E);
        put_words(
            &mut buf,
            2,
            [1.5f64, -2.0].iter().map(|x| x.to_bits().to_be_bytes()),
        );
        put_words::<4>(&mut buf, 0, std::iter::empty());
        let mut cur = Reader::new(&buf, "test");
        assert_eq!(cur.u8(), Ok(0xAA));
        assert_eq!(cur.u16(), Ok(0x0102));
        assert_eq!(cur.u32(), Ok(0x0304_0506));
        assert_eq!(cur.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(cur.f64(), Ok(1.5));
        assert_eq!(cur.f64(), Ok(-2.0));
        assert!(cur.is_empty());
    }
}
