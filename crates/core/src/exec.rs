//! Parked threads: whatever runs beside its caller — a job's ranks — runs
//! on one process-wide set of `cts-exec` threads, not on threads spawned
//! for the call.
//!
//! [`run_all`] runs its first task on the calling thread, hands each other
//! one a parked thread (spawning one only when none is parked) and returns
//! when all are done. A thread parks again when its task ends, panicked or
//! not, and sleeps without a deadline until it is handed the next. No task
//! ever waits behind another, so there are never more of them than the most
//! tasks the process had in flight at once, and tasks that wait on each
//! other (a job's ranks) run exactly as if each had been spawned.
//!
//! ```
//! use cts_core::exec::run_all;
//!
//! let squares: Vec<usize> = run_all((0..4).map(|i| move || i * i).collect())
//!     .into_iter()
//!     .map(|outcome| outcome.unwrap())
//!     .collect();
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

use crate::sync::lock;

/// A task a parked thread runs.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A task handed to a parked thread, and whom to tell once it has run.
struct Job {
    task: Task,
    done: Sender<()>,
}

/// A parked thread: where it takes its next job from.
struct Parked {
    thread: Thread,
    job: Mutex<Option<Job>>,
}

/// The threads parked right now, the most recently parked last.
static IDLE: Mutex<Vec<Arc<Parked>>> = Mutex::new(Vec::new());

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
        // `run_all`'s tasks catch their own panics.
        task();
        // Parked before it says so: a caller that has seen its tasks done
        // finds their threads parked, and its next call spawns none.
        lock(&IDLE).push(Arc::clone(&me));
        let _ = done.send(());
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

/// Runs every task at once and returns each one's outcome, in task order,
/// when all have finished. The calling thread runs the first task itself —
/// it would otherwise only wait — and every other task gets a parked
/// thread of its own, so tasks may borrow from the caller's stack and may
/// wait on each other: none is queued behind another. (Tasks that need not
/// wait on each other, like the halves of a small job's ranks, are cheaper
/// run one after another on the caller, which wakes no thread:
/// `cts_net::cluster::Schedule::InTurn`.)
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
            done: done.clone(),
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

/// What `cts_mapreduce::Workload::map_file_par` takes, and nothing more: a
/// rank is one thread, so there is no pool to hand it. Kept because
/// `benchmark/` builds one with [`WorkerPool::serial`] to call
/// `map_file_par`; goes with ROADMAP 1(a).
#[derive(Debug)]
pub struct WorkerPool;

impl WorkerPool {
    /// The one pool there is.
    pub fn serial() -> Self {
        WorkerPool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

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
                        *lock(panicked_on) = Some(thread::current().id());
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
        let id = lock(&panicked_on).expect("task 2 ran");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !lock(&IDLE).iter().any(|p| p.thread.id() == id) {
            assert!(
                Instant::now() < deadline,
                "the panicked thread never parked"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }
}
