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

    /// Checks out a *shard*: up to `n` pooled buffers moved out under a
    /// single lock acquisition, for a worker that will `get`/`put` many
    /// times without touching the shared free list. Parallel decode
    /// fan-outs draw one shard per worker per wave, so the per-packet hot
    /// path is lock-free and — once the pool is warm — allocation-free.
    /// Dropping the shard returns its unused buffers.
    pub fn checkout(&self, n: usize) -> BufPoolShard<'_> {
        let mut shard = BufPoolShard {
            parent: self,
            local: Vec::with_capacity(n),
        };
        shard.refill(n);
        shard
    }

    /// Returns a batch of buffers under one lock (cleared by the caller).
    fn put_many(&self, bufs: &mut Vec<Vec<u8>>) {
        if bufs.is_empty() {
            return;
        }
        self.free.lock().expect("BufPool lock").append(bufs);
    }
}

/// A per-worker slice of a [`BufPool`]: locally pooled buffers with
/// lock-free `get`/`put`, falling back to (and eventually returning to)
/// the parent pool. See [`BufPool::checkout`].
#[derive(Debug)]
pub struct BufPoolShard<'a> {
    parent: &'a BufPool,
    local: Vec<Vec<u8>>,
}

impl BufPoolShard<'_> {
    /// Takes a cleared buffer from the shard; falls back to the parent
    /// pool (one lock, then an allocation only if that is empty too).
    pub fn get(&mut self) -> Vec<u8> {
        self.local.pop().unwrap_or_else(|| self.parent.get())
    }

    /// Returns `buf` to the shard, cleared, capacity preserved (lock-free).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.local.push(buf);
    }

    /// Tops the shard back up to `n` buffers from the parent pool (one
    /// lock; takes fewer when the parent has fewer pooled). A warm wave
    /// loop reuses one shard via `refill` instead of re-checking out, so
    /// its steady state performs zero heap allocations.
    pub fn refill(&mut self, n: usize) {
        if self.local.len() >= n {
            return;
        }
        let mut free = self.parent.free.lock().expect("BufPool lock");
        while self.local.len() < n {
            match free.pop() {
                Some(buf) => self.local.push(buf),
                None => break,
            }
        }
    }

    /// Buffers currently held locally.
    pub fn pooled(&self) -> usize {
        self.local.len()
    }
}

impl Drop for BufPoolShard<'_> {
    fn drop(&mut self) {
        self.parent.put_many(&mut self.local);
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
    fn shard_checkout_get_put_and_drop_return() {
        let pool = BufPool::new();
        // Seed the pool with three distinct warm buffers.
        let seeds: Vec<Vec<u8>> = (0..3).map(|_| Vec::with_capacity(1024)).collect();
        for b in seeds {
            pool.put(b);
        }
        let mut shard = pool.checkout(2);
        assert_eq!(shard.pooled(), 2);
        assert_eq!(pooled(&pool), 1);
        let a = shard.get();
        assert!(a.capacity() >= 1024, "shard serves warm buffers");
        // Local get/put round trip keeps the buffer in the shard.
        shard.put(a);
        assert_eq!(shard.pooled(), 2);
        // Exhausting the shard falls back to the parent, then allocates.
        let _x = shard.get();
        let _y = shard.get();
        let w = shard.get(); // shard empty → parent's last warm buffer
        assert!(w.capacity() >= 1024);
        assert_eq!(pooled(&pool), 0);
        let z = shard.get(); // parent empty too → fresh allocation
        assert_eq!(z.capacity(), 0);
        shard.put(w);
        shard.put(z);
        drop(shard);
        // The shard's remaining buffers went back to the parent.
        assert_eq!(pooled(&pool), 2);
    }

    #[test]
    fn shard_refill_tops_up_without_overdraw() {
        let pool = BufPool::new();
        for _ in 0..4 {
            pool.put(Vec::with_capacity(64));
        }
        let mut shard = pool.checkout(0);
        assert_eq!(shard.pooled(), 0);
        shard.refill(3);
        assert_eq!(shard.pooled(), 3);
        assert_eq!(pooled(&pool), 1);
        // Asking for more than the parent holds takes what exists.
        shard.refill(10);
        assert_eq!(shard.pooled(), 4);
        assert_eq!(pooled(&pool), 0);
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
