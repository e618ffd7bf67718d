//! Minimal, API-compatible stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `bytes` to this shim. It implements the subset of the real
//! crate's API that coded-terasort uses: cheaply cloneable, sliceable
//! `Bytes`, a growable `BytesMut`, and the `Buf` / `BufMut` cursor traits
//! for little-endian wire formats.
//!
//! As in the real crate, `Bytes::from(Vec<u8>)` and `BytesMut::freeze`
//! take ownership of the buffer: a `Bytes` is a view into a shared,
//! reference-counted buffer, so freezing costs one `Arc` header and no copy
//! of the bytes. The empty buffer holds no `Arc`, so `Bytes::new()` never
//! allocates. [`Bytes::from_owner`] (bytes 1.9) shares a buffer its owner
//! keeps: the owner is dropped with the last view, on whichever thread that
//! is — how a leased buffer finds its way back to its pool.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, sliceable contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The shared buffer; `None` for an empty view that owns nothing.
    data: Option<Arc<Shared>>,
    start: usize,
    end: usize,
}

/// What the views of one buffer share.
enum Shared {
    /// A buffer taken over by `From<Vec<u8>>`.
    Vec(Vec<u8>),
    /// [`Bytes::from_owner`]: the slice `owner.as_ref()` returned, read once,
    /// and the boxed owner, kept for its `Drop` alone.
    Owner(*const u8, usize, #[allow(dead_code)] Box<dyn Send>),
}

// SAFETY: the pointer and length are a `&[u8]` borrowed from the owner, which
// this value owns, never touches again and drops last — the bytes are
// immutable and outlive every view. Views on other threads only read them
// (`[u8]: Sync`); the owner crosses threads once, to be dropped (`Send`).
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice (the shim copies it once).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// A view of `owner.as_ref()` that keeps `owner` alive: it is dropped,
    /// once, when the last view of the buffer is.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + 'static,
    {
        // Boxed before it is read, so the slice stays put when the box moves.
        let owner = Box::new(owner);
        let bytes: &[u8] = (*owner).as_ref();
        let (ptr, end) = (bytes.as_ptr(), bytes.len());
        let data = Some(Arc::new(Shared::Owner(ptr, end, owner)));
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range starts after end");
        assert!(end <= len, "slice range out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Self {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Copies the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        let whole = match self.data.as_deref() {
            Some(Shared::Vec(v)) => &v[..],
            // SAFETY: see `Shared` — the slice the owner lent out is valid and
            // unchanged until the owner drops, which `self.data` prevents.
            Some(Shared::Owner(ptr, len, _)) => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            None => &[],
        };
        &whole[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s buffer: no copy.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: (end > 0).then(|| Arc::new(Shared::Vec(v))),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
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

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

macro_rules! eq_impls {
    ($($other:ty => |$o:ident| $conv:expr;)*) => {$(
        impl PartialEq<$other> for Bytes {
            fn eq(&self, $o: &$other) -> bool {
                let other: &[u8] = $conv;
                self.as_slice() == other
            }
        }
        impl PartialEq<Bytes> for $other {
            fn eq(&self, other: &Bytes) -> bool {
                other == self
            }
        }
    )*};
}

eq_impls! {
    [u8] => |o| o;
    &[u8] => |o| o;
    Vec<u8> => |o| o.as_slice();
    str => |o| o.as_bytes();
    &str => |o| o.as_bytes();
    String => |o| o.as_bytes();
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

/// A growable byte buffer convertible into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.inner.extend_from_slice(data);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Reserves additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Resizes, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.inner.resize(new_len, value);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Converts into an immutable [`Bytes`] that owns this buffer (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.inner), f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { inner: v }
    }
}

/// Read cursor over a contiguous byte source (little-endian helpers).
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// The current contiguous chunk.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor.
    fn advance(&mut self, cnt: usize);

    /// True when bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads a `u8`.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt;
    }
}

/// Write cursor appending to a growable byte sink (little-endian helpers).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
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
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
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
    fn slice_shares_and_bounds() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..), [3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn from_vec_and_freeze_take_ownership() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");
        // Views share the one buffer, at their offsets.
        let s = b.slice(100..200);
        assert_eq!(s.as_ptr(), ptr.wrapping_add(100));
        assert_eq!(b.clone().split_off(4000).as_ptr(), ptr.wrapping_add(4000));
        drop(b);
        assert_eq!(s, vec![7u8; 100], "a slice keeps the buffer alive");

        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"frozen");
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr, "freeze must not copy");
    }

    #[test]
    fn from_owner_drops_its_owner_once_with_the_last_view() {
        use std::sync::mpsc;
        use std::thread::{self, ThreadId};

        /// Reports the thread it is dropped on.
        struct Owner(Vec<u8>, mpsc::Sender<ThreadId>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                self.1.send(thread::current().id()).unwrap();
            }
        }

        let (dropped_on, drops) = mpsc::channel();
        let buf = vec![9u8; 4096];
        let ptr = buf.as_ptr();
        let whole = Bytes::from_owner(Owner(buf, dropped_on));
        assert_eq!((whole.as_ptr(), whole.len()), (ptr, 4096), "no copy");
        let tail = whole.slice(4000..);
        let copy = whole.clone();
        drop(whole);
        drop(copy);
        assert!(drops.try_recv().is_err(), "a view is still alive");
        // The last view goes on another thread: the owner goes with it, there.
        let last = thread::spawn(move || {
            assert_eq!(tail, vec![9u8; 96]);
            drop(tail);
            thread::current().id()
        });
        let last = last.join().unwrap();
        assert_eq!(drops.try_iter().collect::<Vec<_>>(), vec![last]);
        // An owner of nothing is still kept, and still dropped.
        let (dropped_on, drops) = mpsc::channel();
        let empty = Bytes::from_owner(Owner(Vec::new(), dropped_on));
        assert!(empty.is_empty() && drops.try_recv().is_err());
        drop(empty);
        assert_eq!(drops.try_iter().count(), 1);
    }

    #[test]
    fn empty_buffers_own_nothing() {
        for b in [Bytes::new(), Bytes::default(), Bytes::from(Vec::new())] {
            assert!(b.data.is_none());
            assert!(b.is_empty());
            assert_eq!(b.slice(..), Bytes::new());
            assert_eq!(b.to_vec(), Vec::<u8>::new());
        }
    }

    #[test]
    fn bytesmut_wire_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u64_le(0xDEAD_BEEF);
        m.put_slice(b"xy");
        let frozen = m.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u64_le(), 0xDEAD_BEEF);
        assert_eq!(cur.remaining(), 2);
    }

    #[test]
    fn eq_across_types() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b, "abc");
        assert_eq!(b, *b"abc");
        assert_eq!(b, vec![b'a', b'b', b'c']);
    }
}
