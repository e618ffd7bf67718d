//! The workspace's one poison rule: a `std::sync` lock or wait whose mutex
//! is poisoned hands back its guard as if it were not.
//!
//! A panicking rank fails its own job — its panic is caught and reported
//! as the job's error — while the locks it shared (a mailbox, the daemon's
//! job table, the buffer pool, the metric registry) go on serving every
//! other job. A poison panic there would turn one failed job into a dead
//! daemon.
//!
//! ```
//! use std::sync::{Condvar, Mutex};
//! use cts_core::sync::{lock, unpoison};
//!
//! let (ready, cv) = (Mutex::new(true), Condvar::new());
//! let guard = unpoison(cv.wait_while(lock(&ready), |ready| !*ready));
//! assert!(*guard);
//! ```

use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

/// Locks `m`, poisoned or not.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoison(m.lock())
}

/// What a lock, a condition-variable wait or `Mutex::into_inner` returned,
/// poisoned or not.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_poisoned_mutex_still_locks_and_keeps_its_value() {
        let m = Mutex::new(vec![1]);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut v = lock(&m);
            v.push(2);
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        lock(&m).push(3);
        assert_eq!(unpoison(m.into_inner()), vec![1, 2, 3]);
    }
}
