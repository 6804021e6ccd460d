//! Minimal offline stand-in for the `bytes` crate.
//!
//! Implements the subset of the `bytes 1.x` API this workspace uses:
//! [`Bytes`] (cheaply cloneable immutable buffer), [`BytesMut`] (growable
//! buffer that freezes into `Bytes`) and the [`BufMut`] write trait with
//! big- and little-endian integer putters.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, LazyLock};

/// The storage every [`Bytes::new`] shares (and so `Default` and
/// `std::mem::take`): an empty buffer costs a reference count, not an
/// allocation.
static EMPTY: LazyLock<Arc<Vec<u8>>> = LazyLock::new(|| Arc::new(Vec::new()));

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Backed by `Arc<Vec<u8>>` (not `Arc<[u8]>`) so `From<Vec<u8>>` — and
/// therefore [`BytesMut::freeze`] — moves the vector behind the `Arc`
/// without copying the contents.
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes`, sharing one process-wide storage.
    #[inline]
    pub fn new() -> Self {
        Bytes {
            data: Arc::clone(&EMPTY),
            start: 0,
            end: 0,
        }
    }

    /// Creates `Bytes` from a static slice (copied; the shim does not
    /// special-case static storage).
    #[inline]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Creates `Bytes` by copying the given slice.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of bytes remaining (alias for `len`, mirrors `Buf`).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.len()
    }

    /// Returns a sub-slice of this buffer as a new `Bytes` sharing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Returns `subset` — a slice borrowed from this buffer, such as a
    /// parser hands back — as a `Bytes` sharing storage. An empty `subset`
    /// gives an empty view.
    ///
    /// # Panics
    ///
    /// If a non-empty `subset` does not lie inside this buffer.
    #[inline]
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return self.slice(0..0);
        }
        let base = self.as_ptr() as usize;
        let start = subset.as_ptr() as usize;
        assert!(
            start >= base && start + subset.len() <= base + self.len(),
            "slice_ref: subset is not a slice of this buffer"
        );
        self.slice(start - base..start - base + subset.len())
    }

    /// Splits the buffer at `at`; returns the front half, leaves the rest.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let front = self.slice(..at);
        self.start += at;
        front
    }

    /// Splits the buffer at `at`; returns the back half, keeps the front.
    #[inline]
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let back = self.slice(at..);
        self.end = self.start + at;
        back
    }

    /// Advances the start of the buffer by `n` bytes (mirrors `Buf`).
    #[inline]
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.end,
        }
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Self {
        Bytes::new()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}
impl PartialEq<&[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    #[inline]
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    #[inline]
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    #[inline]
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    #[inline]
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    #[inline]
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// A growable byte buffer that can be frozen into an immutable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates a new empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    /// Creates a buffer with at least the given capacity.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes currently in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Current capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Reserves capacity for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional)
    }

    /// Clears the buffer.
    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear()
    }

    /// Shortens the buffer to `len` bytes; no-op when already shorter.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.inner.truncate(len)
    }

    /// Appends a slice to the buffer.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.inner.extend_from_slice(extend)
    }

    /// Converts into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }

    /// Splits off and returns the first `at` bytes.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let rest = self.inner.split_off(at);
        let front = std::mem::replace(&mut self.inner, rest);
        BytesMut { inner: front }
    }

    /// Splits off and returns everything after `at`.
    #[inline]
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_off out of bounds");
        BytesMut {
            inner: self.inner.split_off(at),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.inner), f)
    }
}

impl From<&[u8]> for BytesMut {
    #[inline]
    fn from(s: &[u8]) -> Self {
        BytesMut { inner: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        BytesMut { inner: v }
    }
}

macro_rules! put_int {
    ($($be:ident, $le:ident, $t:ty);+ $(;)?) => {
        $(
            /// Writes the value in big-endian byte order.
            fn $be(&mut self, v: $t) {
                self.put_slice(&v.to_be_bytes())
            }
            /// Writes the value in little-endian byte order.
            fn $le(&mut self, v: $t) {
                self.put_slice(&v.to_le_bytes())
            }
        )+
    };
}

/// Write-side buffer trait (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends a slice of bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Writes a single byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a single signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    put_int! {
        put_u16, put_u16_le, u16;
        put_u32, put_u32_le, u32;
        put_u64, put_u64_le, u64;
        put_u128, put_u128_le, u128;
        put_i16, put_i16_le, i16;
        put_i32, put_i32_le, i32;
        put_i64, put_i64_le, i64;
    }

    /// Writes an `f32` in big-endian (IEEE 754 bit pattern).
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f32` in little-endian.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Writes an `f64` in big-endian (IEEE 754 bit pattern).
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an `f64` in little-endian.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src)
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_storage_on_clone_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn slice_ref_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let inner = b.slice(1..);
        let s = inner.slice_ref(&b[2..4]);
        assert_eq!(&s[..], &[3, 4]);
        assert_eq!(s.as_ptr(), b[2..].as_ptr());
        assert!(b.slice_ref(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a slice of this buffer")]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let other = vec![1u8, 2];
        let _ = b.slice_ref(&other);
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::from_static(b"hello world");
        let head = b.split_to(5);
        assert_eq!(&head[..], b"hello");
        assert_eq!(&b[..], b" world");
    }

    #[test]
    fn bufmut_endianness() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u16(0x0102);
        m.put_u16_le(0x0102);
        m.put_u32(0xA1B2C3D4);
        assert_eq!(&m[..], &[1, 2, 2, 1, 0xA1, 0xB2, 0xC3, 0xD4]);
        let frozen = m.freeze();
        assert_eq!(frozen.len(), 8);
    }

    #[test]
    fn bytesmut_split_to() {
        let mut m = BytesMut::from(&b"abcdef"[..]);
        let front = m.split_to(2);
        assert_eq!(&front[..], b"ab");
        assert_eq!(&m[..], b"cdef");
    }
}
