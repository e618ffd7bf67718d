//! Job admission control for the resident runtime.
//!
//! Two small primitives that together bound how much work a shared fabric
//! will take on:
//!
//! * [`AdmissionQueue`] — a bounded MPMC queue between the service
//!   front-end and the dispatcher threads. Submission is non-blocking:
//!   when the queue is full the caller gets
//!   [`AdmissionError::QueueFull`] immediately (backpressure surfaces at
//!   the client, not as a silent stall inside the runtime).
//! * [`SlotPool`] — the pool of job tag-namespace slots
//!   (`1..=`[`Tag::MAX_JOB_SLOT`](crate::message::Tag::MAX_JOB_SLOT)).
//!   A dispatcher leases a slot for a job's lifetime and returns it when
//!   the job retires; the pool size caps true in-flight concurrency.
//!
//! ```
//! use cts_net::admission::{AdmissionError, AdmissionQueue};
//!
//! let q: AdmissionQueue<u32> = AdmissionQueue::new(2);
//! q.try_enqueue(1).unwrap();
//! q.try_enqueue(2).unwrap();
//! assert!(matches!(
//!     q.try_enqueue(3),
//!     Err(AdmissionError::QueueFull { capacity: 2 })
//! ));
//! assert_eq!(q.dequeue(), Some(1));
//! q.close();
//! assert_eq!(q.dequeue(), Some(2)); // drains before reporting closed
//! assert_eq!(q.dequeue(), None);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use cts_core::metrics::{Counter, Gauge};
use parking_lot::{Condvar, Mutex};

/// Why a submission was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded admission queue is at capacity — retry later.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The runtime is shutting down and accepts no further jobs.
    Closed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} jobs queued)")
            }
            AdmissionError::Closed => write!(f, "runtime closed to new jobs"),
        }
    }
}

impl std::error::Error for AdmissionError {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer job queue.
///
/// Producers never block: [`try_enqueue`](AdmissionQueue::try_enqueue)
/// fails fast when full. Consumers block in
/// [`dequeue`](AdmissionQueue::dequeue) until an item arrives or the queue
/// is closed *and* drained.
pub struct AdmissionQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    cv: Condvar,
    /// Observability: live queue depth, mirrored on every enqueue/dequeue.
    depth_gauge: Option<Arc<Gauge>>,
    /// Observability: submissions refused because the queue was full.
    refused: Option<Arc<Counter>>,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        assert!(capacity > 0, "admission queue needs capacity >= 1");
        AdmissionQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            cv: Condvar::new(),
            depth_gauge: None,
            refused: None,
        }
    }

    /// Attaches a depth gauge and a refusal counter (builder-style, before
    /// the queue is shared). The gauge tracks the live depth; the counter
    /// increments on every [`AdmissionError::QueueFull`] refusal.
    pub fn with_metrics(mut self, depth: Arc<Gauge>, refused: Arc<Counter>) -> Self {
        self.depth_gauge = Some(depth);
        self.refused = Some(refused);
        self
    }

    fn mirror_depth(&self, depth: usize) {
        if let Some(g) = &self.depth_gauge {
            g.set(depth as i64);
        }
    }

    /// Number of items currently waiting.
    pub fn depth(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Enqueues `item` if there is room; never blocks.
    pub fn try_enqueue(&self, item: T) -> Result<(), AdmissionError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(AdmissionError::Closed);
        }
        if st.items.len() >= self.capacity {
            if let Some(c) = &self.refused {
                c.inc();
            }
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        st.items.push_back(item);
        self.mirror_depth(st.items.len());
        drop(st);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed and fully drained.
    pub fn dequeue(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.mirror_depth(st.items.len());
                return Some(item);
            }
            if st.closed {
                return None;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Closes the queue: further submissions fail with
    /// [`AdmissionError::Closed`]; consumers drain what is already queued
    /// and then see `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// The pool of job tag-namespace slots on one shared fabric.
///
/// Slots `1..=max` are leased in lowest-free order; slot 0 (the exclusive
/// namespace) is never handed out. Pool exhaustion blocks the acquiring
/// dispatcher — by construction the pool is sized to the runtime's
/// `max_concurrent`, so this only ever waits for a retiring job.
pub struct SlotPool {
    max: u8,
    free: Mutex<Vec<u8>>,
    cv: Condvar,
    /// Observability: slots currently leased.
    in_use: Option<Arc<Gauge>>,
}

impl SlotPool {
    /// A pool of slots `1..=max`.
    ///
    /// # Panics
    /// Panics if `max` is zero or exceeds
    /// [`Tag::MAX_JOB_SLOT`](crate::message::Tag::MAX_JOB_SLOT).
    pub fn new(max: u8) -> SlotPool {
        assert!(
            (1..=crate::message::Tag::MAX_JOB_SLOT).contains(&max),
            "slot pool size {max} outside 1..={}",
            crate::message::Tag::MAX_JOB_SLOT
        );
        // Reversed so pop() hands out the lowest slot first.
        SlotPool {
            max,
            free: Mutex::new((1..=max).rev().collect()),
            cv: Condvar::new(),
            in_use: None,
        }
    }

    /// Attaches an occupancy gauge (builder-style, before sharing).
    pub fn with_gauge(mut self, in_use: Arc<Gauge>) -> Self {
        self.in_use = Some(in_use);
        self
    }

    fn mirror(&self, free: usize) {
        if let Some(g) = &self.in_use {
            g.set(self.max as i64 - free as i64);
        }
    }

    /// Blocks until a slot frees up and takes it.
    pub fn acquire(&self) -> u8 {
        let mut free = self.free.lock();
        loop {
            if let Some(slot) = free.pop() {
                self.mirror(free.len());
                return slot;
            }
            self.cv.wait(&mut free);
        }
    }

    /// Returns `slot` to the pool.
    pub fn release(&self, slot: u8) {
        let mut free = self.free.lock();
        debug_assert!(!free.contains(&slot), "slot {slot} double-released");
        free.push(slot);
        self.mirror(free.len());
        drop(free);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn queue_bounds_and_fifo_order() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(3);
        for i in 0..3 {
            q.try_enqueue(i).unwrap();
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(
            q.try_enqueue(9),
            Err(AdmissionError::QueueFull { capacity: 3 })
        );
        assert_eq!(q.dequeue(), Some(0));
        q.try_enqueue(9).unwrap();
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(9));
    }

    #[test]
    fn close_drains_then_wakes_blocked_consumers() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(2));
        q.try_enqueue(5).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(v) = q.dequeue() {
                    seen.push(v);
                }
                seen
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(q.try_enqueue(6), Err(AdmissionError::Closed));
        assert_eq!(worker.join().unwrap(), vec![5]);
    }

    #[test]
    fn metrics_mirror_depth_refusals_and_occupancy() {
        use cts_core::metrics::{Counter, Gauge};
        let depth = Arc::new(Gauge::new());
        let refused = Arc::new(Counter::new());
        let q: AdmissionQueue<u32> =
            AdmissionQueue::new(2).with_metrics(Arc::clone(&depth), Arc::clone(&refused));
        q.try_enqueue(1).unwrap();
        q.try_enqueue(2).unwrap();
        assert_eq!(depth.get(), 2);
        assert!(q.try_enqueue(3).is_err());
        assert_eq!(refused.get(), 1);
        q.dequeue();
        assert_eq!(depth.get(), 1);

        let in_use = Arc::new(Gauge::new());
        let pool = SlotPool::new(3).with_gauge(Arc::clone(&in_use));
        let a = pool.acquire();
        let _b = pool.acquire();
        assert_eq!(in_use.get(), 2);
        pool.release(a);
        assert_eq!(in_use.get(), 1);
    }

    #[test]
    fn slot_pool_leases_lowest_first_and_recycles() {
        let pool = SlotPool::new(2);
        assert_eq!(pool.acquire(), 1);
        assert_eq!(pool.acquire(), 2);
        pool.release(2);
        assert_eq!(pool.acquire(), 2);
    }

    #[test]
    fn slot_pool_blocking_acquire_waits_for_release() {
        let pool = Arc::new(SlotPool::new(1));
        let slot = pool.acquire();
        assert_eq!(slot, 1);
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.acquire())
        };
        std::thread::sleep(Duration::from_millis(20));
        pool.release(slot);
        assert_eq!(waiter.join().unwrap(), 1);
    }
}
