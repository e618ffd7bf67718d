//! The resident job runtime: ownership inverted.
//!
//! The one-shot entry point ([`run`](crate::run)) lets each job build and
//! tear down its own cluster, fabric, and thread pool. A [`JobRuntime`]
//! turns that inside out: *it* owns the [`SharedFabric`] (transports, one
//! clock, the metric registry), the bounded admission queue and the
//! dispatchers — and jobs are **submitted into it** (their worker pools
//! lease extra threads from the one process-wide [`cts_core::exec`] budget,
//! like a one-shot run's):
//!
//! ```text
//!                 ┌────────────────────────── JobRuntime ─┐
//!  submit ──────▶ │ queue (bounded, refuses when full →   │
//!  (JobHandle)    │   EngineError::Busy)                  │
//!                 │   │ dequeue                           │
//!                 │   ▼                                   │
//!                 │ dispatcher i of max_concurrent        │
//!                 │   = tag slot i + 1, for its lifetime  │
//!                 │   ▼                                   │
//!                 │ SharedFabric::run_job(binding, …)     │
//!                 │   tags/journal/NIC of the job's own   │
//!                 └───────────────────────────────────────┘
//! ```
//!
//! The runtime keeps nothing of a job but its place in the queue: a
//! [`JobHandle`] *is* the job's cell — status, outcome, one condvar — shared
//! with the dispatcher that fills it, and gone with whichever of the two
//! lets go last. Looking a job up by id is the business of whoever hands ids
//! out (the service's job table).
//!
//! **Exclusive mode** (`max_concurrent == 1`) runs every job at slot 0:
//! the full 24-bit tag space and speculative recovery stay available,
//! exactly like a one-shot run, just resident. **Multi mode** runs
//! dispatcher `i`'s jobs at slot `i + 1`, giving up recovery (unscoped
//! heartbeats would poison neighbors) and 6 tag-sequence bits in exchange
//! for true concurrency.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use cts_core::metrics::{Counter, Gauge, Histogram};
use cts_net::cluster::{JobBinding, SharedFabric};
use parking_lot::{Condvar, Mutex};

use crate::engine::{run_on, JobOutcome};
use crate::error::{EngineError, Result};
use crate::stage::EngineConfig;
use crate::workload::Workload;

/// Construction parameters for a [`JobRuntime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The engine configuration every job starts from (cluster shape,
    /// fabric, field, threads, …). Jobs may refine their own copy via
    /// [`JobContext::cfg`] but the cluster world is fixed at build time.
    pub template: EngineConfig,
    /// Bound on jobs waiting for a dispatcher. Submissions beyond it fail
    /// fast with [`EngineError::Busy`].
    pub queue_capacity: usize,
    /// Dispatcher threads = jobs actually running at once, `1..=63`.
    /// `1` selects exclusive mode (slot 0: full tag space, recovery
    /// allowed); `> 1` gives each dispatcher a nonzero job slot.
    pub max_concurrent: usize,
}

impl RuntimeConfig {
    /// A runtime serving jobs shaped like `template`: queue of 16, up to
    /// 4 concurrent jobs.
    pub fn new(template: EngineConfig) -> Self {
        RuntimeConfig {
            template,
            queue_capacity: 16,
            max_concurrent: 4,
        }
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the concurrent-job cap (dispatcher count).
    pub fn with_max_concurrent(mut self, max: usize) -> Self {
        self.max_concurrent = max;
        self
    }
}

/// Where a submitted job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a dispatcher.
    Queued,
    /// A dispatcher is running it on the fabric.
    Running,
    /// Finished successfully; the outcome is (or was) available.
    Done,
    /// Finished with the contained error message.
    Failed(String),
}

impl JobStatus {
    /// True once the job will make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed(_))
    }
}

/// What a dispatcher hands a job when it runs: the shared fabric, the
/// job's binding on it, and a ready-to-use engine configuration (a copy
/// of the runtime template).
pub struct JobContext<'a> {
    /// The resident fabric the job runs over.
    pub fabric: &'a SharedFabric,
    /// This job's slot + trace id.
    pub binding: JobBinding,
    /// Per-job engine configuration. Jobs may clone and refine it (e.g.
    /// its redundancy, or a per-tenant NIC profile) before calling
    /// [`run`](Self::run); `k` and the cluster world stay the fabric's.
    pub cfg: EngineConfig,
}

impl JobContext<'_> {
    /// Runs `workload` on this job's binding as `cfg` lays it out
    /// ([`run_on`]).
    pub fn run<W: Workload>(
        &self,
        workload: &W,
        input: Bytes,
        cfg: &EngineConfig,
    ) -> Result<JobOutcome> {
        run_on(self.fabric, self.binding, workload, input, cfg)
    }

    /// [`run`](Self::run). Kept for `benchmark/`; goes with ROADMAP 1(a).
    pub fn run_coded_with<W: Workload>(
        &self,
        workload: &W,
        input: Bytes,
        cfg: &EngineConfig,
    ) -> Result<JobOutcome> {
        self.run(workload, input, cfg)
    }
}

type BoxedJob = Box<dyn FnOnce(&JobContext<'_>) -> Result<JobOutcome> + Send>;

/// Runtime-level instruments, registered on the fabric's
/// [`MetricsHub`](cts_core::metrics::MetricsHub) at start. The stage
/// histograms record each finished job's slowest-rank span per stage (the
/// paper's Fig. 9 breakdown), in nanoseconds, rendered as seconds.
struct RuntimeMetrics {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    running: Arc<Gauge>,
    stage_hists: Vec<(&'static str, Arc<Histogram>)>,
}

impl RuntimeMetrics {
    fn register(hub: &cts_core::metrics::MetricsHub) -> RuntimeMetrics {
        use crate::stage::stages;
        let stage_hists = [
            stages::CODEGEN,
            stages::MAP,
            stages::PACK_ENCODE,
            stages::SHUFFLE,
            stages::UNPACK_DECODE,
            stages::REDUCE,
        ]
        .into_iter()
        .map(|name| {
            (
                name,
                hub.histogram_with("cts_stage_seconds", "stage", name, 1e-9),
            )
        })
        .collect();
        RuntimeMetrics {
            submitted: hub.counter("cts_jobs_submitted_total"),
            completed: hub.counter("cts_jobs_completed_total"),
            failed: hub.counter("cts_jobs_failed_total"),
            running: hub.gauge("cts_jobs_running"),
            stage_hists,
        }
    }

    fn record_finish(&self, outcome: &Result<JobOutcome>) {
        match outcome {
            Ok(o) => {
                self.completed.inc();
                for (name, hist) in &self.stage_hists {
                    if let Some(&ns) = o.spans.stage_durations_ns(name).iter().max() {
                        hist.record(ns);
                    }
                }
            }
            Err(_) => self.failed.inc(),
        }
    }
}

struct Submission {
    id: u32,
    run: BoxedJob,
    cell: Arc<Cell>,
}

/// A job's status and, once it has ended, its outcome: what its
/// [`JobHandle`] and the dispatcher running it share, and everything the
/// runtime holds of it.
struct Cell {
    state: Mutex<(JobStatus, Option<Result<JobOutcome>>)>,
    cv: Condvar,
}

impl Cell {
    fn set(&self, status: JobStatus, outcome: Option<Result<JobOutcome>>) {
        *self.state.lock() = (status, outcome);
        self.cv.notify_all();
    }
}

/// A submitted job: ask its [`status`](JobHandle::status) or block in
/// [`wait`](JobHandle::wait) for the outcome. Dropping the handle does not
/// cancel the job; the job then ends leaving nothing behind.
pub struct JobHandle {
    id: u32,
    cell: Arc<Cell>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The job's runtime-unique id (also its trace id): ids count up from 1
    /// in admission order, and a refused submission uses none.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Where the job is in its lifecycle right now.
    pub fn status(&self) -> JobStatus {
        self.cell.state.lock().0.clone()
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn wait(self) -> Result<JobOutcome> {
        let mut state = self.cell.state.lock();
        loop {
            if let Some(outcome) = state.1.take() {
                return outcome;
            }
            self.cell.cv.wait(&mut state);
        }
    }
}

struct QueueState {
    /// Admitted and not yet dispatched, oldest first.
    jobs: VecDeque<Submission>,
    closed: bool,
    /// The last job id handed out.
    issued: u32,
}

/// The bounded queue between [`JobRuntime::submit`] and the dispatchers. A
/// submitter never blocks — a full queue refuses, so backpressure surfaces
/// at the client instead of as a stall inside the runtime; a dispatcher
/// blocks until a job arrives or the queue is closed *and* drained.
struct Queue {
    capacity: usize,
    state: Mutex<QueueState>,
    cv: Condvar,
    /// The live depth, mirrored on every enqueue and dequeue.
    depth: Arc<Gauge>,
    /// Submissions refused because the queue was full.
    refused: Arc<Counter>,
}

impl Queue {
    /// Admits the job under the next id if there is room.
    fn try_enqueue(&self, run: BoxedJob, cell: Arc<Cell>) -> Result<u32> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(EngineError::Busy {
                what: "runtime closed to new jobs".into(),
            });
        }
        if st.jobs.len() >= self.capacity {
            self.refused.inc();
            return Err(EngineError::Busy {
                what: format!("admission queue full ({} jobs queued)", self.capacity),
            });
        }
        st.issued += 1;
        let id = st.issued;
        st.jobs.push_back(Submission { id, run, cell });
        self.depth.set(st.jobs.len() as i64);
        drop(st);
        self.cv.notify_one();
        Ok(id)
    }

    fn dequeue(&self) -> Option<Submission> {
        let mut st = self.state.lock();
        loop {
            if let Some(sub) = st.jobs.pop_front() {
                self.depth.set(st.jobs.len() as i64);
                return Some(sub);
            }
            if st.closed {
                return None;
            }
            self.cv.wait(&mut st);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// The resident multi-tenant runtime (see the module docs).
pub struct JobRuntime {
    fabric: Arc<SharedFabric>,
    queue: Arc<Queue>,
    metrics: Arc<RuntimeMetrics>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl JobRuntime {
    /// Builds the fabric and starts `max_concurrent` dispatcher threads.
    ///
    /// # Errors
    /// `BadConfig` for an out-of-range configuration; fabric bring-up
    /// failures propagate.
    pub fn start(cfg: RuntimeConfig) -> Result<JobRuntime> {
        if cfg.max_concurrent == 0 || cfg.max_concurrent > usize::from(cts_net::Tag::MAX_JOB_SLOT) {
            return Err(EngineError::BadConfig {
                what: format!(
                    "max_concurrent {} outside 1..={}",
                    cfg.max_concurrent,
                    cts_net::Tag::MAX_JOB_SLOT
                ),
            });
        }
        if cfg.queue_capacity == 0 {
            return Err(EngineError::BadConfig {
                what: "queue_capacity must be >= 1".into(),
            });
        }
        let fabric = Arc::new(SharedFabric::build(&cfg.template.cluster)?);
        // Observability: every runtime instrument registers on the
        // fabric's hub, so one Prometheus render (or STATS frame) covers
        // admission, execution, and transport in a single snapshot.
        let hub = Arc::clone(fabric.metrics());
        let metrics = Arc::new(RuntimeMetrics::register(&hub));
        hub.gauge("cts_admission_queue_capacity")
            .set(cfg.queue_capacity as i64);
        let queue = Arc::new(Queue {
            capacity: cfg.queue_capacity,
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(cfg.queue_capacity),
                closed: false,
                issued: 0,
            }),
            cv: Condvar::new(),
            depth: hub.gauge("cts_admission_queue_depth"),
            refused: hub.counter("cts_jobs_refused_total"),
        });

        let dispatchers = (0..cfg.max_concurrent)
            .map(|i| {
                // A dispatcher runs one job at a time, so a tag slot is its
                // own for life: nothing to lease, and a slot is busy exactly
                // when its dispatcher is (`cts_jobs_running`). An only
                // dispatcher keeps slot 0, so one-shot semantics (full tag
                // space, recovery) survive residency.
                let slot = if cfg.max_concurrent == 1 {
                    0
                } else {
                    i as u8 + 1
                };
                let fabric = Arc::clone(&fabric);
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let template = cfg.template.clone();
                std::thread::spawn(move || {
                    while let Some(Submission { id, run, cell }) = queue.dequeue() {
                        cell.set(JobStatus::Running, None);
                        metrics.running.add(1);
                        let ctx = JobContext {
                            fabric: &fabric,
                            binding: JobBinding { slot, id },
                            cfg: template.clone(),
                        };
                        // A panicking job takes the fabric's endpoints
                        // down with it (SharedFabric policy); keep the
                        // dispatcher alive for the jobs behind it.
                        let outcome = catch_unwind(AssertUnwindSafe(|| run(&ctx))).unwrap_or_else(
                            |payload| {
                                let what = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "job panicked".into());
                                Err(EngineError::Protocol {
                                    what: format!("job panicked: {what}"),
                                })
                            },
                        );
                        metrics.running.add(-1);
                        metrics.record_finish(&outcome);
                        let status = match &outcome {
                            Ok(_) => JobStatus::Done,
                            Err(e) => JobStatus::Failed(e.to_string()),
                        };
                        cell.set(status, Some(outcome));
                    }
                })
            })
            .collect();

        Ok(JobRuntime {
            fabric,
            queue,
            metrics,
            dispatchers,
        })
    }

    /// Submits a job. `f` runs on a dispatcher thread with this job's
    /// [`JobContext`]; returns immediately with a [`JobHandle`].
    ///
    /// # Errors
    /// [`EngineError::Busy`] when the bounded queue is full or the
    /// runtime is shutting down.
    pub fn submit<F>(&self, f: F) -> Result<JobHandle>
    where
        F: FnOnce(&JobContext<'_>) -> Result<JobOutcome> + Send + 'static,
    {
        let cell = Arc::new(Cell {
            state: Mutex::new((JobStatus::Queued, None)),
            cv: Condvar::new(),
        });
        let id = self.queue.try_enqueue(Box::new(f), Arc::clone(&cell))?;
        self.metrics.submitted.inc();
        Ok(JobHandle { id, cell })
    }

    /// The resident fabric (its metric registry, its clock).
    pub fn fabric(&self) -> &SharedFabric {
        &self.fabric
    }

    /// Stops admission, drains queued jobs, and joins the dispatchers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_input, ByteSort};
    use crate::verify::run_sequential;
    use crate::wordcount::WordCount;

    #[test]
    fn concurrent_jobs_match_one_shot_runs() {
        let runtime =
            JobRuntime::start(RuntimeConfig::new(EngineConfig::local(4, 2)).with_max_concurrent(4))
                .unwrap();
        let inputs: Vec<Bytes> = (0..6).map(|i| sample_input(600 + i * 37)).collect();
        let handles: Vec<JobHandle> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let input = input.clone();
                runtime
                    .submit(move |ctx| {
                        let r = if i % 2 == 0 { ctx.cfg.r } else { 1 };
                        ctx.run(
                            &ByteSort,
                            input,
                            &EngineConfig {
                                r,
                                ..ctx.cfg.clone()
                            },
                        )
                    })
                    .unwrap()
            })
            .collect();
        for (i, (handle, input)) in handles.into_iter().zip(&inputs).enumerate() {
            let outcome = handle.wait().unwrap();
            assert_eq!(
                outcome.outputs,
                run_sequential(&ByteSort, input, 4),
                "job {i}"
            );
        }
        runtime.shutdown();
    }

    #[test]
    fn admission_queue_refuses_when_full() {
        // One dispatcher, tiny queue: the first job occupies the
        // dispatcher, the second fills the queue, the third must bounce.
        let runtime = JobRuntime::start(
            RuntimeConfig::new(EngineConfig::local(2, 1))
                .with_max_concurrent(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let first = runtime
            .submit(move |ctx| {
                let (lock, cv) = &*g;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                drop(open);
                ctx.run(&ByteSort, sample_input(64), &ctx.cfg)
            })
            .unwrap();
        // Wait until the first job actually holds the dispatcher.
        while first.status() != JobStatus::Running {
            std::thread::yield_now();
        }
        let second = runtime
            .submit(|ctx| ctx.run(&ByteSort, sample_input(64), &ctx.cfg))
            .unwrap();
        let refused = runtime.submit(|ctx| ctx.run(&ByteSort, sample_input(64), &ctx.cfg));
        assert!(
            matches!(refused, Err(EngineError::Busy { .. })),
            "{refused:?}"
        );
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        first.wait().unwrap();
        second.wait().unwrap();
        runtime.shutdown();
    }

    #[test]
    fn a_handle_is_the_jobs_cell_and_a_dropped_one_leaves_nothing_behind() {
        let runtime =
            JobRuntime::start(RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(1))
                .unwrap();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let held = {
            let gate = Arc::clone(&gate);
            runtime.submit(move |ctx| {
                gate.wait();
                ctx.run(&ByteSort, sample_input(64), &ctx.cfg)
            })
        }
        .unwrap();
        let behind = runtime
            .submit(|ctx| ctx.run(&ByteSort, sample_input(64), &ctx.cfg))
            .unwrap();
        while held.status() != JobStatus::Running {
            std::thread::yield_now();
        }
        // The only dispatcher is held at the gate: the second job waits.
        assert_eq!(behind.status(), JobStatus::Queued);
        let cells = [Arc::downgrade(&held.cell), Arc::downgrade(&behind.cell)];
        drop(held);
        gate.wait();
        while !behind.status().is_terminal() {
            std::thread::yield_now();
        }
        assert_eq!(behind.status(), JobStatus::Done);
        assert_eq!(behind.wait().unwrap().outputs.len(), 2);
        // Once the dispatchers are gone nothing holds a cell: not of the job
        // whose handle was dropped while it ran, not of the one waited for.
        runtime.shutdown();
        assert!(cells.iter().all(|cell| cell.upgrade().is_none()));
    }

    #[test]
    fn a_dispatcher_runs_every_job_of_its_own_at_its_own_slot() {
        for (max_concurrent, slots) in [(3usize, vec![1u8, 2, 3]), (1, vec![0])] {
            let runtime = JobRuntime::start(
                RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(max_concurrent),
            )
            .unwrap();
            // The first `max_concurrent` jobs meet at a barrier, so every
            // dispatcher holds a job at once.
            let together = Arc::new(std::sync::Barrier::new(max_concurrent));
            let live = Arc::new(Mutex::new(Vec::<u8>::new()));
            let seen = Arc::new(Mutex::new(Vec::<u8>::new()));
            let clashed = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let handles: Vec<JobHandle> = (0..12)
                .map(|i| {
                    let (together, live, seen, clashed) = (
                        Arc::clone(&together),
                        Arc::clone(&live),
                        Arc::clone(&seen),
                        Arc::clone(&clashed),
                    );
                    runtime
                        .submit(move |ctx| {
                            let slot = ctx.binding.slot;
                            {
                                // Noted, not asserted: a panic here would
                                // leave the others at the barrier.
                                let mut live = live.lock();
                                if live.contains(&slot) {
                                    clashed.store(true, std::sync::atomic::Ordering::SeqCst);
                                }
                                live.push(slot);
                            }
                            seen.lock().push(slot);
                            if i < max_concurrent {
                                together.wait();
                            }
                            let outcome = ctx.run(&ByteSort, sample_input(300), &ctx.cfg);
                            live.lock().retain(|s| *s != slot);
                            outcome
                        })
                        .unwrap()
                })
                .collect();
            for handle in handles {
                handle.wait().unwrap();
            }
            runtime.shutdown();
            assert!(
                !clashed.load(std::sync::atomic::Ordering::SeqCst),
                "two live jobs on one slot"
            );
            let mut seen = seen.lock().clone();
            assert_eq!(seen.len(), 12);
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, slots, "max_concurrent = {max_concurrent}");
        }
    }

    /// A queue of `capacity` with instruments of its own.
    fn queue(capacity: usize) -> Queue {
        Queue {
            capacity,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                issued: 0,
            }),
            cv: Condvar::new(),
            depth: Arc::new(Gauge::new()),
            refused: Arc::new(Counter::new()),
        }
    }

    /// Enqueues a job nobody will run; its id, or the refusal's text.
    fn enqueue(q: &Queue) -> std::result::Result<u32, String> {
        let cell = Arc::new(Cell {
            state: Mutex::new((JobStatus::Queued, None)),
            cv: Condvar::new(),
        });
        q.try_enqueue(Box::new(|_| unreachable!("never dispatched")), cell)
            .map_err(|e| e.to_string())
    }

    #[test]
    fn queue_bounds_and_fifo_order() {
        let q = queue(3);
        assert_eq!(
            [enqueue(&q), enqueue(&q), enqueue(&q)],
            [Ok(1), Ok(2), Ok(3)]
        );
        let refused = enqueue(&q).unwrap_err();
        assert!(
            refused.ends_with("admission queue full (3 jobs queued)"),
            "{refused}"
        );
        assert_eq!(q.dequeue().unwrap().id, 1);
        // A refused submission used no id.
        assert_eq!(enqueue(&q), Ok(4));
        let rest: Vec<u32> = (0..3).map(|_| q.dequeue().unwrap().id).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    fn close_drains_then_wakes_blocked_consumers() {
        let q = Arc::new(queue(2));
        enqueue(&q).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(sub) = q.dequeue() {
                    seen.push(sub.id);
                }
                seen
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let refused = enqueue(&q).unwrap_err();
        assert!(refused.ends_with("runtime closed to new jobs"), "{refused}");
        assert_eq!(worker.join().unwrap(), vec![1]);
    }

    #[test]
    fn gauges_mirror_depth_and_refusals() {
        let q = queue(2);
        enqueue(&q).unwrap();
        enqueue(&q).unwrap();
        assert_eq!(q.depth.get(), 2);
        assert!(enqueue(&q).is_err());
        assert_eq!(q.refused.get(), 1);
        q.dequeue();
        assert_eq!(q.depth.get(), 1);
    }

    #[test]
    fn mixed_workloads_share_one_runtime() {
        let runtime =
            JobRuntime::start(RuntimeConfig::new(EngineConfig::local(3, 2)).with_max_concurrent(3))
                .unwrap();
        let text = Bytes::from_static(b"to be or not to be\nthat is the question\n");
        let bytes = sample_input(500);
        let wc = {
            let text = text.clone();
            runtime
                .submit(move |ctx| ctx.run(&WordCount, text, &ctx.cfg))
                .unwrap()
        };
        let sort = {
            let bytes = bytes.clone();
            runtime
                .submit(move |ctx| {
                    ctx.run(
                        &ByteSort,
                        bytes,
                        &EngineConfig {
                            r: 1,
                            ..ctx.cfg.clone()
                        },
                    )
                })
                .unwrap()
        };
        let wc_out = wc.wait().unwrap();
        let sort_out = sort.wait().unwrap();
        assert_eq!(wc_out.outputs, run_sequential(&WordCount, &text, 3));
        assert_eq!(sort_out.outputs, run_sequential(&ByteSort, &bytes, 3));
        // Per-job traces stayed separate: each outcome's trace carries
        // only its own job id.
        assert_eq!(wc_out.trace.jobs().len(), 1);
        assert_eq!(sort_out.trace.jobs().len(), 1);
        runtime.shutdown();
    }

    #[test]
    fn runtime_rejects_bad_shapes() {
        assert!(matches!(
            JobRuntime::start(RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(0)),
            Err(EngineError::BadConfig { .. })
        ));
        assert!(matches!(
            JobRuntime::start(RuntimeConfig::new(EngineConfig::local(2, 1)).with_queue_capacity(0)),
            Err(EngineError::BadConfig { .. })
        ));
    }

    #[test]
    fn shared_fabric_jobs_cannot_use_speculative_recovery() {
        use crate::stage::RecoveryMode;
        let template = EngineConfig::local(4, 2)
            .with_field(cts_core::field::FieldKind::Gf256)
            .with_decode(cts_core::decode::DecodeMode::Quorum)
            .with_recovery(RecoveryMode::Speculative);
        let runtime =
            JobRuntime::start(RuntimeConfig::new(template).with_max_concurrent(2)).unwrap();
        let err = runtime
            .submit(|ctx| ctx.run(&ByteSort, sample_input(200), &ctx.cfg))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }), "{err}");
        runtime.shutdown();
    }
}
