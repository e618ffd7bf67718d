//! Deterministic chunked intra-node parallelism, on threads that outlive
//! the call.
//!
//! The single-host emulation runs all `K` nodes as threads of one process,
//! so naive per-node `rayon`-style parallelism would spawn `K × T` workers
//! and thrash the scheduler at K = 64. [`WorkerPool`] solves both problems:
//!
//! * **Determinism** — `map`/`map_with` return results strictly in item
//!   order, and every work item is a pure function of its index, so the
//!   output is byte-identical for *any* thread count (asserted by
//!   `tests/compute_equivalence.rs`).
//! * **Bounded parallelism** — extra worker threads are leased from one
//!   process-wide budget sized to the machine's available parallelism. The
//!   grant never blocks: when 64 emulated nodes (or two resident runtimes
//!   in one process) all request 4 threads at once, the budget hands out
//!   what is free and the rest run inline on the caller's own thread;
//!   outputs are unaffected.
//!
//! **Parked threads.** Whatever runs beside its caller — a pool's extra
//! workers, a job's ranks, a NIC's pacer — runs on one process-wide set of
//! `cts-exec` threads, not on threads spawned for the call: [`run_all`]
//! runs its first task on the calling thread, hands each other one a
//! parked thread (spawning one only when none is parked) and returns when
//! all are done; [`detach`] hands over one task and returns at once. A
//! thread parks again when its task ends, panicked or not, and sleeps
//! without a deadline until it is handed the next. No task ever waits
//! behind another, so there are never more of them than the most tasks the
//! process had in flight at once, and tasks that wait on each other (a
//! job's ranks) run exactly as if each had been spawned.
//!
//! ```
//! use cts_core::exec::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Identical output at any thread count:
//! assert_eq!(squares, WorkerPool::serial().map(8, |i| i * i));
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// A task a parked thread runs.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A task handed to a parked thread, and whom to tell once it has run.
struct Job {
    task: Task,
    done: Option<Sender<()>>,
}

/// A parked thread: where it takes its next job from.
struct Parked {
    thread: Thread,
    job: Mutex<Option<Job>>,
}

/// The threads parked right now, the most recently parked last.
static IDLE: Mutex<Vec<Arc<Parked>>> = Mutex::new(Vec::new());

/// Locks `m`. Every critical section on these mutexes is a push, a pop or
/// a swap that cannot panic halfway, so a poisoned one is still whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hands `job` to the most recently parked thread, or to a new one when
/// none is parked.
///
/// # Panics
/// If no thread is parked and the OS refuses a new one; `job` is then
/// dropped here, unrun.
fn dispatch(job: Job) {
    let parked = lock(&IDLE).pop();
    match parked {
        Some(parked) => {
            *lock(&parked.job) = Some(job);
            parked.thread.unpark();
        }
        None => {
            // Never joined: the thread parks between jobs for the rest of
            // the process's life.
            thread::Builder::new()
                .name("cts-exec".into())
                .spawn(move || serve(job))
                .expect("spawn an exec thread");
        }
    }
}

/// A parked thread's life: run the job, park, take the next one.
fn serve(mut job: Job) {
    let me = Arc::new(Parked {
        thread: thread::current(),
        job: Mutex::new(None),
    });
    loop {
        let Job { task, done } = job;
        // `run_all`'s tasks catch their own panics; a detached task's ends
        // here, and the thread lives on.
        let _ = catch_unwind(AssertUnwindSafe(task));
        // Parked before it says so: a caller that has seen its tasks done
        // finds their threads parked, and its next call spawns none.
        lock(&IDLE).push(Arc::clone(&me));
        if let Some(done) = done {
            let _ = done.send(());
        }
        job = loop {
            if let Some(next) = lock(&me.job).take() {
                break next;
            }
            // Woken by `dispatch`; a spurious wake finds no job and parks
            // again.
            thread::park();
        };
    }
}

/// Runs `task` on a parked thread and returns at once. A panic in `task`
/// is reported by the panic hook and otherwise dropped.
///
/// # Panics
/// If no thread is parked and the OS refuses a new one.
pub fn detach<F>(task: F)
where
    F: FnOnce() + Send + 'static,
{
    dispatch(Job {
        task: Box::new(task),
        done: None,
    });
}

/// Runs every task at once and returns each one's outcome, in task order,
/// when all have finished. The calling thread runs the first task itself —
/// it would otherwise only wait — and every other task gets a parked
/// thread of its own, so tasks may borrow from the caller's stack and may
/// wait on each other: none is queued behind another.
///
/// A task's panic comes back as its `Err`, after every other task has
/// finished; the thread that ran it is parked again by then.
///
/// # Panics
/// If no thread is parked and the OS refuses a new one — only after every
/// task already handed over has finished.
pub fn run_all<T, F>(tasks: Vec<F>) -> Vec<thread::Result<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut outcomes: Vec<Option<thread::Result<T>>> = (0..tasks.len()).map(|_| None).collect();
    let (done, finished) = channel();
    let mut out = Outstanding {
        finished,
        pending: 0,
    };
    let mut tasks = tasks.into_iter().zip(outcomes.iter_mut());
    let first = tasks.next();
    for (task, outcome) in tasks {
        let task: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || *outcome = Some(catch_unwind(AssertUnwindSafe(task))));
        // SAFETY: only the lifetime changes, to `'static`; the type and the
        // layout do not. The task owns one of the caller's `F`s, which may
        // borrow for as long as this call lasts, and writes into `outcomes`,
        // a local of this call. It is done with both when it returns: its
        // thread signals `done` only after that, and a job dropped unrun is
        // dropped inside `dispatch`, before `dispatch` returns. This call
        // neither returns nor unwinds before every task counted in
        // `out.pending` has signalled: the happy path waits below, and
        // `Outstanding::drop` waits if `dispatch` panics partway — `out` is
        // dropped before `outcomes`, and the first task's panic is caught,
        // so nothing else can unwind this frame.
        #[allow(unsafe_code)]
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
        dispatch(Job {
            task,
            done: Some(done.clone()),
        });
        out.pending += 1;
    }
    drop(done);
    if let Some((task, outcome)) = first {
        *outcome = Some(catch_unwind(AssertUnwindSafe(task)));
    }
    out.wait();
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every task ran"))
        .collect()
}

/// The tasks [`run_all`] has handed over and not yet heard back from. On
/// drop it waits for them: the borrows they hold end there.
struct Outstanding {
    finished: Receiver<()>,
    pending: usize,
}

impl Outstanding {
    /// Blocks until every handed-over task has signalled.
    fn wait(&mut self) {
        while self.pending > 0 {
            // All senders gone: no task is left to signal.
            if self.finished.recv().is_err() {
                break;
            }
            self.pending -= 1;
        }
    }
}

impl Drop for Outstanding {
    fn drop(&mut self) {
        self.wait();
    }
}

/// The machine's available parallelism (fallback 4 when undetectable).
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The process-wide extra-thread budget every pool leases from.
fn global_budget() -> &'static Budget {
    static BUDGET: OnceLock<Budget> = OnceLock::new();
    BUDGET.get_or_init(|| Budget::new(default_parallelism()))
}

/// A count of extra worker threads that may run at once.
struct Budget {
    avail: Mutex<usize>,
}

impl Budget {
    fn new(n: usize) -> Budget {
        Budget {
            avail: Mutex::new(n),
        }
    }

    /// Leases up to `want` extra threads without blocking: grants whatever
    /// is free right now (possibly 0). The lease returns them on drop, so
    /// a panicking worker cannot strand permits.
    fn acquire(&self, want: usize) -> Lease<'_> {
        let mut avail = self.avail.lock().expect("exec budget lock");
        let granted = want.min(*avail);
        *avail -= granted;
        Lease {
            budget: self,
            granted,
        }
    }
}

/// RAII lease on extra worker threads.
struct Lease<'a> {
    budget: &'a Budget,
    granted: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        // A drop may run while a worker's panic unwinds: never panic here.
        if let Ok(mut avail) = self.budget.avail.lock() {
            *avail += self.granted;
        }
    }
}

/// A deterministic chunked worker pool.
///
/// The pool itself is a lightweight value; `map`/`map_with` run their
/// extra workers on parked threads ([`run_all`]), bounded by both the
/// configured thread count and the lease budget.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// A pool targeting `threads` workers; `0` means "use the machine's
    /// available parallelism".
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: if threads == 0 {
                default_parallelism()
            } else {
                threads
            },
        }
    }

    /// The single-threaded pool: every `map` runs inline.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// The configured (requested) worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. Deterministic for any thread count and budget state.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_with(n, || (), |(), i| f(i))
    }

    /// Splits `n` items into at most `threads()` contiguous ranges of at
    /// least `min_per_chunk` items each (one range covering everything when
    /// `n` is small) — the shared chunking plan of the parallel Map hash
    /// and the parallel sort. The plan depends only on `(n, threads,
    /// min_per_chunk)`, never on the runtime thread grant, and concatenating
    /// the ranges in order always reproduces `0..n`.
    pub fn chunk_ranges(&self, n: usize, min_per_chunk: usize) -> Vec<std::ops::Range<usize>> {
        // Floor division: with c chunks every non-final chunk holds
        // ⌈n/c⌉ ≥ n/c ≥ min_per_chunk items, so the floor actually holds.
        let chunks = self.threads.min((n / min_per_chunk.max(1)).max(1));
        let per_chunk = n.div_ceil(chunks);
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0usize;
        // Walk cumulative bounds (⌈n/c⌉·c can overshoot n, so a plain
        // c*per_chunk start would invert the tail ranges).
        while start < n {
            let end = (start + per_chunk).min(n);
            ranges.push(start..end);
            start = end;
        }
        if ranges.is_empty() {
            ranges.push(0..0);
        }
        ranges
    }

    /// Like [`map`](WorkerPool::map), but each worker thread first builds
    /// private state with `init` (a scratch buffer, a pooled accumulator)
    /// that is threaded through its chunk of items — the hook that keeps
    /// parallel hot loops allocation-free in steady state.
    ///
    /// `f` must produce a result that depends only on the item index (and
    /// reusable scratch), never on which worker ran it; chunk boundaries
    /// shift with the granted thread count.
    pub fn map_with<S, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.map_on(global_budget(), n, init, f)
    }

    /// [`map_with`](WorkerPool::map_with) leasing from `budget`.
    fn map_on<S, T, I, F>(&self, budget: &Budget, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let inline = || {
            let mut state = init();
            (0..n).map(|i| f(&mut state, i)).collect()
        };
        if self.threads <= 1 || n == 1 {
            return inline();
        }
        // Lease extra workers; our own thread always counts as one.
        let lease = budget.acquire(self.threads.min(n) - 1);
        let workers = lease.granted + 1;
        if workers == 1 {
            return inline();
        }
        let chunk = n.div_ceil(workers);
        let (init, f) = (&init, &f);
        // `run_all` runs the first chunk on this thread while the extra
        // workers take the others.
        let chunks = (0..workers)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                move || {
                    let mut state = init();
                    (lo..hi).map(|i| f(&mut state, i)).collect::<Vec<T>>()
                }
            })
            .collect();
        let mut out: Vec<T> = Vec::with_capacity(n);
        for part in run_all(chunks) {
            match part {
                Ok(part) => out.extend(part),
                Err(panic) => resume_unwind(panic),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Condvar};
    use std::time::{Duration, Instant};

    #[test]
    fn map_preserves_index_order() {
        for threads in [1usize, 2, 3, 4, 9] {
            let pool = WorkerPool::new(threads);
            let out = pool.map(23, |i| i * 3);
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let pool = WorkerPool::new(4);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
        // More threads than items.
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn map_with_reuses_worker_state() {
        let inits = AtomicUsize::new(0);
        let pool = WorkerPool::new(2);
        let out = pool.map_with(
            100,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<u8>::new()
            },
            |scratch, i| {
                scratch.clear();
                scratch.push(i as u8);
                scratch[0]
            },
        );
        assert_eq!(out.len(), 100);
        // One state per worker, not per item.
        assert!(inits.load(Ordering::SeqCst) <= 2 + 1);
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for threads in [1usize, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 99, 100, 101, 1000, 4096, 10_000] {
                let ranges = pool.chunk_ranges(n, 100);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= threads.max(1));
                // Concatenating the ranges reproduces 0..n exactly.
                let mut cursor = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "t={threads} n={n}");
                    cursor = r.end;
                }
                assert_eq!(cursor, n, "t={threads} n={n}");
                // Every chunk except possibly the last respects the floor
                // when more than one chunk exists.
                if ranges.len() > 1 {
                    for r in &ranges[..ranges.len() - 1] {
                        assert!(r.len() >= 100, "t={threads} n={n} {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_means_machine_parallelism() {
        assert_eq!(WorkerPool::new(0).threads(), default_parallelism());
        assert!(WorkerPool::new(0).threads() >= 1);
    }

    /// The module's promise: however many pools ask at once, the budget
    /// never has more extra workers running than it holds, and what each
    /// pool was granted never shows in its output. A rendezvous keeps all
    /// eight calls (and every extra worker) inside `map` at the same time.
    #[test]
    fn pools_sharing_a_budget_never_exceed_it() {
        const POOLS: usize = 8;
        const EXTRA: usize = 3;
        struct Worker<'a> {
            extras: Option<&'a AtomicUsize>,
            fresh: bool,
        }
        impl Drop for Worker<'_> {
            fn drop(&mut self) {
                if let Some(extras) = self.extras {
                    extras.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        let budget = Budget::new(EXTRA);
        let expected = WorkerPool::serial().map(200, |i| i ^ 0x5a);
        let (extras, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let arrived = (Mutex::new(0usize), Condvar::new());
        let rendezvous = || {
            let mut n = arrived.0.lock().unwrap();
            *n += 1;
            arrived.1.notify_all();
            let (n, _) = arrived
                .1
                .wait_timeout_while(n, Duration::from_secs(30), |n| *n < POOLS + EXTRA)
                .unwrap();
            assert!(*n >= POOLS + EXTRA, "only {n} workers showed up");
        };
        std::thread::scope(|s| {
            for _ in 0..POOLS {
                s.spawn(|| {
                    let caller = std::thread::current().id();
                    let out = WorkerPool::new(4).map_on(
                        &budget,
                        200,
                        || {
                            let extra = std::thread::current().id() != caller;
                            if extra {
                                let now = extras.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                            }
                            Worker {
                                extras: extra.then_some(&extras),
                                fresh: true,
                            }
                        },
                        |worker, i| {
                            if std::mem::take(&mut worker.fresh) {
                                rendezvous();
                            }
                            i ^ 0x5a
                        },
                    );
                    assert_eq!(out, expected);
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), EXTRA);
        assert_eq!(*budget.avail.lock().unwrap(), EXTRA, "every lease returned");
    }

    #[test]
    fn tasks_write_into_the_callers_stack() {
        let mut squares = [0usize; 8];
        let tasks: Vec<_> = squares
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| move || *slot = i * i)
            .collect();
        assert!(run_all(tasks).iter().all(|outcome| outcome.is_ok()));
        assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
    }

    /// Task 2 panics once all four have met; its siblings are still at
    /// work then. The call hands the panic back only after they finish,
    /// and the thread that ran it parks again.
    #[test]
    fn a_panic_comes_back_after_its_siblings_finish_and_its_thread_parks_again() {
        const TASKS: usize = 4;
        let met = Barrier::new(TASKS);
        let finished = AtomicUsize::new(0);
        let panicked_on = Mutex::new(None);
        let tasks: Vec<_> = (0..TASKS)
            .map(|i| {
                let (met, finished, panicked_on) = (&met, &finished, &panicked_on);
                move || {
                    met.wait();
                    if i == 2 {
                        *panicked_on.lock().unwrap() = Some(thread::current().id());
                        panic!("task 2 failed");
                    }
                    thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let reraised = catch_unwind(AssertUnwindSafe(|| {
            for outcome in run_all(tasks) {
                if let Err(panic) = outcome {
                    assert_eq!(finished.load(Ordering::SeqCst), TASKS - 1);
                    resume_unwind(panic);
                }
            }
        }));
        let payload = reraised.expect_err("task 2's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 2 failed"));
        // Other tests may borrow the thread meanwhile; it comes back.
        let id = panicked_on.lock().unwrap().expect("task 2 ran");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !lock(&IDLE).iter().any(|p| p.thread.id() == id) {
            assert!(
                Instant::now() < deadline,
                "the panicked thread never parked"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_task_can_run_a_worker_pool() {
        let tasks: Vec<_> = (0..3)
            .map(|t| move || WorkerPool::new(4).map(100, |i| i * t).iter().sum::<usize>())
            .collect();
        let sums: Vec<usize> = run_all(tasks).into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(sums, vec![0, 4950, 9900]);
    }

    #[test]
    fn detached_tasks_run_on_exec_threads_after_one_panics() {
        detach(|| panic!("detached task failed"));
        let (tx, rx) = channel();
        detach(move || tx.send(thread::current().name().map(String::from)).unwrap());
        let name = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(name.as_deref(), Some("cts-exec"));
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.map(64, |i| {
                assert!(i != 63, "boom");
                i
            })
        });
        assert!(result.is_err());
        // The lease was returned: a follow-up map still works.
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
    }
}
