//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the small API subset it actually uses: [`Bytes`] (cheaply cloneable,
//! sliceable view over shared immutable storage), [`BytesMut`] (growable
//! builder), and the [`Buf`]/[`BufMut`] cursor traits with big-endian
//! integer accessors — semantics matching the real crate for this subset.
//!
//! A [`Bytes`] costs what its origin makes unavoidable: bytes copied out of
//! a slice ([`Bytes::copy_from_slice`] — a frame payload leaving the read
//! buffer) live in the one allocation that also holds the reference count;
//! a frozen `Vec` ([`From<Vec<u8>>`], [`BytesMut::freeze`]) is moved, never
//! copied, at the price of the count's own small allocation; the empty
//! buffer owns none.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable chunk of immutable bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

/// What a [`Bytes`] views. Two variants, the empty buffer folded into the
/// second, so that the compiler fits the whole of it in two words and a
/// `Bytes` in four, as in the real crate: cells hold one each.
#[derive(Clone)]
enum Storage {
    /// Bytes copied in: one allocation holds count and content.
    Copied(Arc<[u8]>),
    /// A frozen buffer, held as the `Vec` it arrived in so freezing moves
    /// it instead of copying it; `None` is the empty buffer.
    Moved(Option<Arc<Vec<u8>>>),
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Moved(None)
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: if data.is_empty() {
                Storage::default()
            } else {
                Storage::Copied(Arc::from(data))
            },
            start: 0,
            end: data.len(),
        }
    }

    /// Number of bytes remaining in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the sub-view `subset` is: a slice borrowed from this view
    /// becomes a view of the same storage, with no copy. Panics when
    /// `subset` does not lie inside this view (as the real crate).
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let at = (subset.as_ptr() as usize)
            .checked_sub(base)
            .expect("slice_ref: subset before this view");
        assert!(
            at + subset.len() <= self.len(),
            "slice_ref: subset past this view"
        );
        self.slice(at..at + subset.len())
    }

    /// Returns a sub-view; panics when out of range (as the real crate).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of range");
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Storage::Copied(data) => &data[self.start..self.end],
            Storage::Moved(Some(data)) => &data[self.start..self.end],
            Storage::Moved(None) => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Storage::Moved((end > 0).then(|| Arc::new(v))),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

/// A growable byte builder.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Read cursor for the `Buf` impl (the real crate consumes from the
    /// front; we track an offset instead of shifting the vec).
    read: usize,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            read: 0,
        }
    }

    /// Unread bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.read
    }

    /// True when no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all content.
    pub fn clear(&mut self) {
        self.data.clear();
        self.read = 0;
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        let mut v = self.data;
        if self.read > 0 {
            v.drain(..self.read);
        }
        Bytes::from(v)
    }

    /// Splits off and returns the first `at` unread bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of range");
        let head = self.data[self.read..self.read + at].to_vec();
        self.read += at;
        BytesMut {
            data: head,
            read: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Read cursor over a byte source. Accessors are big-endian and panic when
/// fewer bytes remain than requested — match the real crate by checking
/// [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }

    /// Reads a big-endian `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        self.get_u16().swap_bytes()
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        self.get_u32().swap_bytes()
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        self.get_u64().swap_bytes()
    }

    /// Copies the next `len` bytes out as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Copies bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.read += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor; integers are written big-endian.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

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
    /// Appends a big-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }

    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers() {
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_u16(2);
        b.put_u32(3);
        b.put_u64(4);
        b.put_slice(b"xy");
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 2);
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.get_u16(), 2);
        assert_eq!(r.get_u32(), 3);
        assert_eq!(r.get_u64(), 4);
        assert_eq!(&r[..], b"xy");
    }

    #[test]
    fn slicing_and_split() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&b[..], &[2, 3, 4, 5]);
        assert_eq!(&b.slice(1..3)[..], &[3, 4]);
        assert_eq!(b.slice(..0).len(), 0);
    }

    #[test]
    fn slice_ref_shares_the_storage_it_borrows_from() {
        let b = Bytes::copy_from_slice(b"header:key:rest");
        let key = &b[7..10];
        let sub = b.slice_ref(key);
        assert_eq!(&sub[..], b"key");
        assert_eq!(sub.as_ptr(), key.as_ptr());
        let inner = b.slice(7..);
        assert_eq!(inner.slice_ref(&inner[..3]), sub);
        assert!(b.slice_ref(&[]).is_empty());
    }

    #[test]
    fn copied_and_moved_bytes_behave_alike() {
        let raw: Vec<u8> = (0..=255).collect();
        let copied = Bytes::copy_from_slice(&raw);
        let moved = Bytes::from(raw.clone());
        assert_eq!(copied, moved);
        assert_eq!(&copied.slice(10..20)[..], &raw[10..20]);
        let mut rest = copied.clone();
        assert_eq!(rest.split_to(3), moved.slice(..3));
        assert_eq!(rest.get_u8(), 3);
        assert_eq!(&rest[..], &raw[4..]);
        // Freezing keeps the buffer it was given.
        let at = raw.as_ptr();
        assert_eq!(Bytes::from(raw).as_ptr(), at);
        assert!(Bytes::copy_from_slice(&[]).is_empty());
        assert!(std::mem::size_of::<Bytes>() <= 4 * std::mem::size_of::<usize>());
    }

    #[test]
    fn clone_is_shallow_view() {
        let a = Bytes::from(vec![9; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 1024);
    }
}
