//! Offline stand-in for the subset of the `bytes` crate the wire codec
//! uses: [`Bytes`] (cheaply cloneable, sliceable, consumable view),
//! [`BytesMut`] (growable builder), and the [`Buf`]/[`BufMut`] traits
//! with big-endian integer accessors — the same byte order as the real
//! crate, so encodings are drop-in compatible.

#![forbid(unsafe_code)]

use std::ops::RangeBounds;
use std::sync::Arc;

/// Read-side cursor over a byte buffer.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Consumes `cnt` bytes without interpreting them.
    fn advance(&mut self, cnt: usize);

    /// Reads the next byte. Panics if empty.
    fn get_u8(&mut self) -> u8;

    /// Reads a big-endian `u16`. Panics if under 2 bytes remain.
    fn get_u16(&mut self) -> u16 {
        ((self.get_u8() as u16) << 8) | self.get_u8() as u16
    }

    /// Reads a big-endian `u32`. Panics if under 4 bytes remain.
    fn get_u32(&mut self) -> u32;

    /// Reads a big-endian `u64`. Panics if under 8 bytes remain.
    fn get_u64(&mut self) -> u64;

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

/// Write-side growable buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// An immutable, reference-counted byte buffer with a consuming cursor.
///
/// `clone()` is O(1) (shares the allocation); [`Buf`] methods advance the
/// view in place, and [`Bytes::slice`] re-slices without copying.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Bytes currently visible (between cursor and end).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The visible bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Splits off and returns the first `at` visible bytes; `self` keeps
    /// the rest. O(1) — both views share the allocation.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// O(1) sub-view of the visible bytes.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.as_slice()[0];
        self.start += 1;
        v
    }

    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(self.as_slice()[..4].try_into().expect("4 bytes"));
        self.start += 4;
        v
    }

    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self.as_slice()[..8].try_into().expect("8 bytes"));
        self.start += 8;
        v
    }
}

/// A growable byte builder; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`] (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Discards the first `cnt` bytes.
    pub fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.buf.len(), "advance past end");
        self.buf.drain(..cnt);
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.buf.len(), "split_to out of bounds");
        BytesMut {
            buf: self.buf.drain(..at).collect(),
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_roundtrip() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0xAB);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(0x0123_4567_89AB_CDEF);
        let mut r = b.freeze();
        assert_eq!(r.len(), 13);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_format_is_big_endian() {
        let mut b = BytesMut::new();
        b.put_u32(1);
        assert_eq!(b.freeze().as_slice(), &[0, 0, 0, 1]);
    }

    #[test]
    fn slice_views_share_storage() {
        let mut b = BytesMut::new();
        b.put_slice(&[1, 2, 3, 4, 5]);
        let full = b.freeze();
        let mid = full.slice(1..4);
        assert_eq!(mid.as_slice(), &[2, 3, 4]);
        let inner = mid.slice(..2);
        assert_eq!(inner.as_slice(), &[2, 3]);
        assert_eq!(full.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1u8]);
        b.advance(2);
    }

    #[test]
    fn u16_roundtrip_and_split() {
        let mut b = BytesMut::new();
        b.put_u16(0xBEEF);
        b.put_slice(&[1, 2, 3]);
        assert_eq!(b[0], 0xBE);
        let head = b.split_to(2);
        assert_eq!(head.freeze().as_slice(), &[0xBE, 0xEF]);
        b.advance(1);
        assert_eq!(&b[..], &[2, 3]);
        let mut frozen = Bytes::from(vec![0xBE, 0xEF, 9]);
        assert_eq!(frozen.get_u16(), 0xBEEF);
        let mut rest = Bytes::from(vec![1, 2, 3, 4]);
        let head = rest.split_to(3);
        assert_eq!(head.as_slice(), &[1, 2, 3]);
        assert_eq!(rest.as_slice(), &[4]);
    }
}
