//! Reusable buffers — the allocation story of the compute plane.
//!
//! The paper buys its 1/r shuffle with an r-fold Map, a trade that holds only
//! while the extra compute stays cheap (arXiv:1604.07086). It does not while a
//! job takes its record buffers from the allocator: glibc gives a finished
//! job's pages back and the next job faults them in again — 3.5× its input per
//! coded job, `sys` 43 % of its CPU. Two primitives keep memory where its next
//! user finds it:
//!
//! * [`BufPool`] — a thread-safe pool for buffers that cross ownership
//!   boundaries. The record path leases from one process-wide instance,
//!   [`global`]: Map's partition buffers, the coded wire frames, the
//!   [`DecodePipeline`](crate::decode::DecodePipeline)'s accumulators and
//!   completed intermediates; [`BufPool::freeze`] makes a filled buffer a
//!   `Bytes` that brings it back when its last view drops, on whichever
//!   thread, in whichever job.
//! * [`Scratch`] — a single-owner, grow-only workspace for state confined
//!   to one loop (encode payloads, radix count/offset tables, key-index
//!   entry arrays).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

use bytes::Bytes;

/// Requests under a page bypass the pool, both ways: glibc serves them from
/// bins inside pages it already holds, so pooling would buy a lock and nothing
/// else. (At 16 KiB an 80 000-record job's 5.9 KB segment accumulators, until
/// now recycled by the decoder itself, cost 0.63× the input afresh per job.)
const MIN_POOLED: usize = 4 << 10;

/// A pooled buffer serves requests down to two thirds of its capacity: enough
/// for what same-shaped jobs on different inputs differ by (a few per cent),
/// and under the 2× that separates a job's buffer classes (a segment, frame or
/// MDS part is a piece over r or r − 1) — at a slack of 2 an r = 2 job's frames
/// took its piece buffers and every such piece then missed.
const fn max_capacity(request: usize) -> usize {
    request.saturating_add(request / 2)
}

/// A buffer nobody has taken for this many finished jobs is freed. A caller
/// alternating uncoded, coded and quorum jobs comes back to a buffer every
/// third job (measured hit rate 0 / 34 / 87 % at 2, 100 % from 4 on), two
/// service tenants rotating three variants over two daemons every sixth.
const KEEP_JOBS: u64 = 8;

/// The process-wide pool, beside [`exec`](crate::exec)'s thread budget and for
/// the same reason: a pool that died with its job would recycle nothing.
pub fn global() -> &'static BufPool {
    static POOL: OnceLock<BufPool> = OnceLock::new();
    POOL.get_or_init(BufPool::new)
}

/// A thread-safe pool of reusable byte buffers.
///
/// [`get`](BufPool::get) leases an empty buffer — the best-fitting pooled
/// one, else a fresh one of exactly the asked size; [`put`](BufPool::put), or
/// the last drop of a [`freeze`](BufPool::freeze)d view, returns it. Buffers
/// are plain `Vec<u8>`s: one that never comes back (a caller keeps it, a
/// quorum straggler pins it) is a leak of *reuse*, never of memory, and the
/// pool holds only what was leased from it in the last `KEEP_JOBS` jobs.
///
/// ```
/// use cts_core::pool::BufPool;
///
/// let pool = BufPool::new();
/// let mut buf = pool.get(64 << 10);
/// buf.extend_from_slice(b"warm");
/// let at = buf.as_ptr();
/// pool.put(buf);
/// // A request the buffer fits gets the same allocation back, cleared.
/// let buf = pool.get(48 << 10);
/// assert_eq!((buf.len(), buf.as_ptr(), buf.capacity()), (0, at, 64 << 10));
/// ```
#[derive(Debug, Default)]
pub struct BufPool {
    /// Free buffers by `(capacity, generation they came back in, address)`.
    free: Mutex<BTreeMap<(usize, u64, usize), Vec<u8>>>,
    generation: AtomicU64,
    retained: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    freed: AtomicU64,
}

/// A pool's counters; prints as the line `cts sort` and `cts stats` show.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes of capacity sitting in the pool.
    pub retained_bytes: u64,
    /// Leases served from the pool.
    pub hits: u64,
    /// Leases of pooled size served by the allocator.
    pub misses: u64,
    /// Bytes of capacity freed after going untaken.
    pub freed_bytes: u64,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses, mb) = (self.hits, self.misses, self.retained_bytes as f64 / 1e6);
        write!(f, "pool: {hits} hits, {misses} misses, {mb:.1} MB retained")
    }
}

/// A leased buffer behind a `Bytes`: back to its pool when dropped.
struct Leased(Vec<u8>, &'static BufPool);

impl AsRef<[u8]> for Leased {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Leased {
    fn drop(&mut self) {
        self.1.put(std::mem::take(&mut self.0));
    }
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Leases an empty buffer of capacity ≥ `min_capacity`: the smallest
    /// pooled one within `max_capacity`, else a fresh one of exactly that size.
    pub fn get(&self, min_capacity: usize) -> Vec<u8> {
        if min_capacity >= MIN_POOLED {
            let mut free = self.free.lock().expect("BufPool lock");
            let fits = (min_capacity, 0, 0)..=(max_capacity(min_capacity), u64::MAX, usize::MAX);
            let best = free.range(fits).next().map(|(&key, _)| key);
            if let Some(buf) = best.and_then(|key| free.remove(&key)) {
                self.retained.fetch_sub(buf.capacity() as u64, Relaxed);
                self.hits.fetch_add(1, Relaxed);
                return buf;
            }
            self.misses.fetch_add(1, Relaxed);
        }
        Vec::with_capacity(min_capacity)
    }

    /// Returns a leased buffer, cleared (one below the pooled size is dropped).
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() < MIN_POOLED {
            return;
        }
        buf.clear();
        let key = (
            buf.capacity(),
            self.generation.load(Relaxed),
            buf.as_ptr() as usize,
        );
        // May run in a drop while a panic unwinds: never panic here.
        if let Ok(mut free) = self.free.lock() {
            self.retained.fetch_add(key.0 as u64, Relaxed);
            free.insert(key, buf);
        }
    }

    /// Freezes a leased buffer, uncopied; it comes back with its last view.
    pub fn freeze(&'static self, buf: Vec<u8>) -> Bytes {
        if buf.capacity() < MIN_POOLED {
            return Bytes::from(buf);
        }
        Bytes::from_owner(Leased(buf, self))
    }

    /// One job has finished: frees every buffer that has sat here untaken
    /// for `KEEP_JOBS` of them (the one that returned it included).
    pub fn tick(&self) {
        let now = self.generation.fetch_add(1, Relaxed) + 1;
        let mut freed = 0;
        let mut free = self.free.lock().expect("BufPool lock");
        free.retain(|&(capacity, returned, _), _| {
            let keep = now.saturating_sub(returned) < KEEP_JOBS;
            freed += if keep { 0 } else { capacity as u64 };
            keep
        });
        self.retained.fetch_sub(freed, Relaxed);
        self.freed.fetch_add(freed, Relaxed);
    }

    /// The pool's counters, now.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            retained_bytes: self.retained.load(Relaxed),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            freed_bytes: self.freed.load(Relaxed),
        }
    }
}

/// A single-owner, grow-only scratch buffer of `T`s.
///
/// `Scratch` wraps a `Vec<T>` whose capacity only ever grows, so a loop
/// that clears and refills it allocates at most during the first (largest)
/// iteration. [`take`](Scratch::take)/[`restore`](Scratch::restore) support
/// ping-pong algorithms (radix sort) that need to move the buffer through
/// ownership changes without dropping its capacity.
///
/// ```
/// use cts_core::pool::Scratch;
///
/// let mut tables: Scratch<u32> = Scratch::default();
/// // A zeroed table sized to the radix — reused (not reallocated) per pass.
/// let table = tables.zeroed(1 << 16);
/// assert_eq!(table.len(), 1 << 16);
/// assert!(table.iter().all(|&c| c == 0));
/// ```
#[derive(Clone, Debug)]
pub struct Scratch<T = u8> {
    buf: Vec<T>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch { buf: Vec::new() }
    }
}

impl<T> Scratch<T> {
    /// Moves the buffer out (e.g. for a ping-pong phase). The scratch is
    /// left empty; hand the buffer back with [`restore`](Scratch::restore)
    /// to keep its capacity for the next iteration.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }

    /// Returns a previously [`take`](Scratch::take)n (or any other) buffer.
    pub fn restore(&mut self, buf: Vec<T>) {
        // Keep whichever buffer has more capacity — ping-pong phases may
        // hand back either of the two buffers involved.
        if buf.capacity() > self.buf.capacity() {
            self.buf = buf;
        }
    }
}

impl<T: Copy + Default> Scratch<T> {
    /// The buffer resized to exactly `n` default-valued (zero for integer
    /// `T`) elements — a reusable count/offset table.
    pub fn zeroed(&mut self, n: usize) -> &mut [T] {
        self.buf.clear();
        self.buf.resize(n, T::default());
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool of the test's own (the global one is every test's), leaked so
    /// that it can `freeze`.
    fn private() -> &'static BufPool {
        Box::leak(Box::new(BufPool::new()))
    }

    /// A leased buffer filled to `len` bytes.
    fn filled(pool: &BufPool, len: usize) -> Vec<u8> {
        let mut buf = pool.get(len);
        buf.resize(len, 7);
        buf
    }

    #[test]
    fn best_fit_takes_the_smallest_buffer_that_holds_the_request() {
        let pool = BufPool::new();
        let sizes = [200_000usize, 50_000, 80_000, 60_000];
        let leased: Vec<Vec<u8>> = sizes.iter().map(|&n| pool.get(n)).collect();
        assert!(leased.iter().zip(sizes).all(|(b, n)| b.capacity() == n));
        leased.into_iter().for_each(|buf| pool.put(buf));
        assert_eq!(pool.stats().retained_bytes, 390_000);
        // 55 000 fits in 60 000, 80 000 and 200 000: the smallest wins.
        assert_eq!(pool.get(55_000).capacity(), 60_000);
        assert_eq!(pool.get(55_000).capacity(), 80_000);
        // What is left is over 1.5× the request — refused, for a fresh one.
        assert_eq!(pool.get(55_000).capacity(), 55_000);
        assert_eq!(pool.get(33_333).capacity(), 33_333);
        // At exactly 1.5× the request a buffer still serves.
        assert_eq!(pool.get(33_334).capacity(), 50_000);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (3, 4 + 2));
        assert_eq!(stats.retained_bytes, 200_000);
    }

    #[test]
    fn a_frozen_buffer_returns_once_after_its_last_view() {
        let pool = private();
        let buf = filled(pool, 100_000);
        let (at, cap) = (buf.as_ptr(), buf.capacity());
        let whole = pool.freeze(buf);
        assert_eq!(whole.as_ptr(), at, "freeze must not copy");
        let tail = whole.slice(40_000..);
        let views: Vec<Bytes> = (0..4).map(|i| whole.slice(i * 10..50_000)).collect();
        drop(whole);
        // The last view is dropped on another thread, whichever that is.
        let threads: Vec<_> = views
            .into_iter()
            .map(|view| std::thread::spawn(move || assert_eq!(view[0], 7)))
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(pool.stats().retained_bytes, 0, "a view is still alive");
        assert_eq!(tail.len(), 60_000);
        drop(tail);
        assert_eq!(pool.stats().retained_bytes, cap as u64);
        let again = pool.get(cap);
        assert!(again.is_empty(), "handed out cleared");
        assert_eq!((again.as_ptr(), again.capacity()), (at, cap));
        assert_eq!(pool.stats().retained_bytes, 0, "returned once");
    }

    #[test]
    fn what_was_not_leased_never_enters_the_pool() {
        let pool = private();
        drop(Bytes::from(vec![1u8; 100_000]));
        drop(Bytes::from(filled(pool, 100_000)));
        assert_eq!(pool.stats().retained_bytes, 0);
        // Under the size floor nothing is pooled, whichever way it came.
        let small = filled(pool, MIN_POOLED - 1);
        assert_eq!(small.capacity(), MIN_POOLED - 1);
        drop(pool.freeze(small));
        pool.put(Vec::with_capacity(MIN_POOLED - 1));
        let stats = pool.stats();
        assert_eq!((stats.retained_bytes, stats.hits, stats.misses), (0, 0, 1));
        // At the floor it is.
        drop(pool.freeze(filled(pool, MIN_POOLED)));
        assert_eq!(pool.stats().retained_bytes, MIN_POOLED as u64);
    }

    /// Leases and returns what one K = 8, r = 1 job of `records` records
    /// does: 64 Map pieces, then ticks the job over.
    fn job(pool: &BufPool, records: usize) -> u64 {
        let piece = records * 100 / 64;
        let leased: Vec<Vec<u8>> = (0..64).map(|i| pool.get(piece + i)).collect();
        let bytes = leased.iter().map(|buf| buf.capacity() as u64).sum();
        leased.into_iter().for_each(|buf| pool.put(buf));
        pool.tick();
        bytes
    }

    #[test]
    fn buffers_nobody_takes_are_freed_after_keep_jobs() {
        let pool = BufPool::new();
        let large = job(&pool, 80_000);
        assert_eq!(pool.stats().retained_bytes, large);
        // A smaller shape comes and goes: the large buffers do not fit it
        // (over the slack) and are freed at the KEEP_JOBS-th tick since they
        // came back, their own job's included.
        let mut small = 0;
        for _ in 2..KEEP_JOBS {
            small = job(&pool, 8_000);
            assert_eq!(pool.stats().retained_bytes, large + small);
        }
        job(&pool, 8_000);
        let stats = pool.stats();
        assert_eq!((stats.retained_bytes, stats.freed_bytes), (small, large));
        // The small shape hit on every lease after its first job.
        assert_eq!((stats.misses, stats.hits), (2 * 64, (KEEP_JOBS - 2) * 64));
        // And a shape that alternates with another keeps its buffers.
        for _ in 0..2 * KEEP_JOBS {
            job(&pool, 80_000);
            job(&pool, 8_000);
        }
        assert_eq!(pool.stats().misses, 3 * 64);
        assert_eq!(pool.stats().retained_bytes, large + small);
    }

    #[test]
    fn scratch_grows_only() {
        let mut s: Scratch<u8> = Scratch::default();
        s.zeroed(100);
        let cap = s.buf.capacity();
        assert!(cap >= 100);
        s.zeroed(10);
        assert_eq!(s.buf.capacity(), cap);
    }

    #[test]
    fn scratch_take_restore_keeps_best_capacity() {
        let mut s: Scratch<u32> = Scratch::default();
        s.zeroed(1000);
        let big = s.take();
        assert_eq!(s.buf.capacity(), 0);
        s.restore(Vec::new()); // worse buffer is dropped
        s.restore(big);
        assert!(s.buf.capacity() >= 1000);
    }

    #[test]
    fn zeroed_resets_contents() {
        let mut s: Scratch<u32> = Scratch::default();
        s.zeroed(8).copy_from_slice(&[9; 8]);
        assert!(s.zeroed(8).iter().all(|&x| x == 0));
        assert_eq!(s.zeroed(3).len(), 3);
    }

    #[test]
    fn pool_shared_across_threads() {
        let pool = private();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        drop(pool.freeze(filled(pool, 64 << 10)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every buffer came back, and no thread ever held more than one.
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert!((1..=4).contains(&stats.misses), "{stats:?}");
        assert_eq!(stats.retained_bytes, stats.misses * (64 << 10));
    }
}
