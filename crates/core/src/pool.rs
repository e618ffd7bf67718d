//! Reusable buffer pooling — the allocation story of the compute plane.
//!
//! The per-group/per-packet loops of the coded shuffle (encode → pack →
//! unpack → decode) are executed `C(K-1, r)` times per node per job; at the
//! paper's K = 16, r = 5 that is 3 003 iterations each touching multi-KB
//! buffers. Allocating fresh `Vec`s inside those loops puts the allocator on
//! the critical path and defeats the CDC premise that the coding compute
//! must stay cheap (arXiv:1604.07086). This module provides the two reuse
//! primitives the hot loops are built on:
//!
//! * [`BufPool`] — a thread-safe free list of byte buffers for state that
//!   crosses ownership boundaries (e.g. the [`DecodePipeline`]'s segment
//!   accumulators, which live from packet arrival until group completion);
//! * [`Scratch`] — a single-owner, grow-only workspace for state confined
//!   to one loop (encode payloads, radix count/offset tables, key-index
//!   entry arrays).
//!
//! Both are *grow-only in steady state*: after a warm-up pass at the
//! largest working-set size, subsequent iterations perform zero heap
//! allocations (asserted by the `alloc_free` integration test).
//!
//! [`DecodePipeline`]: crate::decode::DecodePipeline

use std::sync::Mutex;

/// A thread-safe free list of reusable byte buffers.
///
/// `get` hands out a cleared buffer (recycled when one is pooled, freshly
/// allocated otherwise); `put` returns a buffer to the pool, keeping its
/// capacity. Buffers are plain `Vec<u8>`s, so forgetting to `put` one back
/// is a leak of *reuse*, never of memory.
///
/// ```
/// use cts_core::pool::BufPool;
///
/// let pool = BufPool::new();
/// let mut buf = pool.get();
/// buf.extend_from_slice(b"warm");
/// let cap = buf.capacity();
/// pool.put(buf);
/// // The next get reuses the same allocation, cleared.
/// let buf = pool.get();
/// assert!(buf.is_empty());
/// assert_eq!(buf.capacity(), cap);
/// ```
#[derive(Debug, Default)]
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool, or allocates an empty one.
    pub fn get(&self) -> Vec<u8> {
        self.free
            .lock()
            .expect("BufPool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns `buf` to the pool, cleared, capacity preserved.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        self.free.lock().expect("BufPool lock").push(buf);
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

    /// Number of buffers currently in `pool`'s free list.
    fn pooled(pool: &BufPool) -> usize {
        pool.free.lock().unwrap().len()
    }

    #[test]
    fn pool_recycles_capacity() {
        let pool = BufPool::new();
        let mut a = pool.get();
        a.resize(4096, 7);
        pool.put(a);
        assert_eq!(pooled(&pool), 1);
        let b = pool.get();
        assert!(b.is_empty());
        assert!(b.capacity() >= 4096);
        assert_eq!(pooled(&pool), 0);
    }

    #[test]
    fn pool_is_lifo() {
        let pool = BufPool::new();
        let mut a = pool.get();
        a.reserve(10);
        let mut b = pool.get();
        b.reserve(20);
        pool.put(a);
        pool.put(b);
        // Last in, first out: the 20-capacity buffer comes back first.
        assert!(pool.get().capacity() >= 20);
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
        use std::sync::Arc;
        let pool = Arc::new(BufPool::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let mut b = pool.get();
                        b.push(1);
                        pool.put(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every buffer came back, and no thread ever held more than one.
        assert!((1..=4).contains(&pooled(&pool)), "{}", pooled(&pool));
    }
}
