//! The resident job runtime: ownership inverted.
//!
//! The one-shot entry point ([`run`](crate::run)) lets each job build and
//! tear down its own cluster, fabric, and thread pool. A [`JobRuntime`]
//! turns that inside out: *it* owns the [`SharedFabric`] (transports, one
//! clock, the span logs of the last 64 jobs), the bounded admission queue, and the
//! pool of job tag-namespace slots — and jobs are **submitted into it**
//! (their worker pools lease extra threads from the one process-wide
//! [`cts_core::exec`] budget, like a one-shot run's):
//!
//! ```text
//!                 ┌────────────────────────── JobRuntime ─┐
//!  submit ──────▶ │ AdmissionQueue (bounded, refuses when │
//!  (JobHandle)    │   full → EngineError::Busy)           │
//!                 │   │ dequeue                           │
//!                 │   ▼                                   │
//!                 │ dispatchers (max_concurrent threads)  │
//!                 │   │ lease slot 1..=63 (SlotPool)      │
//!                 │   ▼                                   │
//!                 │ SharedFabric::run_job(binding, …)     │
//!                 │   tags/journal/NIC of the job's own   │
//!                 └───────────────────────────────────────┘
//! ```
//!
//! **Exclusive mode** (`max_concurrent == 1`) runs every job at slot 0:
//! the full 24-bit tag space and speculative recovery stay available,
//! exactly like a one-shot run, just resident. **Multi mode** leases
//! nonzero slots, giving up recovery (unscoped heartbeats would poison
//! neighbors) and 6 tag-sequence bits in exchange for true concurrency.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use cts_core::metrics::{Counter, Gauge, Histogram};
use cts_net::admission::{AdmissionQueue, SlotPool};
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
    /// allowed); `> 1` leases nonzero job slots.
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
}

struct JobEntry {
    status: JobStatus,
    outcome: Option<Result<JobOutcome>>,
}

struct Shared {
    jobs: Mutex<HashMap<u32, JobEntry>>,
    cv: Condvar,
}

impl Shared {
    fn set_status(&self, id: u32, status: JobStatus) {
        if let Some(entry) = self.jobs.lock().get_mut(&id) {
            entry.status = status;
        }
        self.cv.notify_all();
    }

    fn finish(&self, id: u32, outcome: Result<JobOutcome>) {
        let mut jobs = self.jobs.lock();
        if let Some(entry) = jobs.get_mut(&id) {
            entry.status = match &outcome {
                Ok(_) => JobStatus::Done,
                Err(e) => JobStatus::Failed(e.to_string()),
            };
            entry.outcome = Some(outcome);
        }
        drop(jobs);
        self.cv.notify_all();
    }
}

/// A submitted job's ticket: poll [`JobRuntime::status`] with its
/// [`id`](JobHandle::id) or block in [`wait`](JobHandle::wait) for the
/// outcome. Dropping the
/// handle does not cancel the job.
pub struct JobHandle {
    id: u32,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The job's runtime-unique id (also its trace id).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn wait(self) -> Result<JobOutcome> {
        let mut jobs = self.shared.jobs.lock();
        loop {
            if let Some(outcome) = jobs
                .get_mut(&self.id)
                .expect("submitted job has an entry")
                .outcome
                .take()
            {
                return outcome;
            }
            self.shared.cv.wait(&mut jobs);
        }
    }
}

/// The resident multi-tenant runtime (see the module docs).
pub struct JobRuntime {
    fabric: Arc<SharedFabric>,
    queue: Arc<AdmissionQueue<Submission>>,
    shared: Arc<Shared>,
    metrics: Arc<RuntimeMetrics>,
    next_id: AtomicU32,
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
        let queue: Arc<AdmissionQueue<Submission>> =
            Arc::new(AdmissionQueue::new(cfg.queue_capacity).with_metrics(
                hub.gauge("cts_admission_queue_depth"),
                hub.counter("cts_jobs_refused_total"),
            ));
        let shared = Arc::new(Shared {
            jobs: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        });
        // Exclusive mode: the single dispatcher keeps slot 0, so one-shot
        // semantics (full tag space, recovery) survive residency.
        let exclusive = cfg.max_concurrent == 1;
        let slots = Arc::new(
            SlotPool::new(cfg.max_concurrent.max(1) as u8)
                .with_gauge(hub.gauge("cts_slots_in_use")),
        );

        let dispatchers = (0..cfg.max_concurrent)
            .map(|_| {
                let fabric = Arc::clone(&fabric);
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                let slots = Arc::clone(&slots);
                let metrics = Arc::clone(&metrics);
                let template = cfg.template.clone();
                std::thread::spawn(move || {
                    while let Some(sub) = queue.dequeue() {
                        shared.set_status(sub.id, JobStatus::Running);
                        metrics.running.add(1);
                        let slot = if exclusive { 0 } else { slots.acquire() };
                        let ctx = JobContext {
                            fabric: &fabric,
                            binding: JobBinding { slot, id: sub.id },
                            cfg: template.clone(),
                        };
                        // A panicking job takes the fabric's endpoints
                        // down with it (SharedFabric policy); keep the
                        // dispatcher alive for the jobs behind it.
                        let outcome = catch_unwind(AssertUnwindSafe(|| (sub.run)(&ctx)))
                            .unwrap_or_else(|payload| {
                                let what = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "job panicked".into());
                                Err(EngineError::Protocol {
                                    what: format!("job panicked: {what}"),
                                })
                            });
                        if !exclusive {
                            slots.release(slot);
                        }
                        metrics.running.add(-1);
                        metrics.record_finish(&outcome);
                        shared.finish(sub.id, outcome);
                    }
                })
            })
            .collect();

        Ok(JobRuntime {
            fabric,
            queue,
            shared,
            metrics,
            next_id: AtomicU32::new(1),
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs.lock().insert(
            id,
            JobEntry {
                status: JobStatus::Queued,
                outcome: None,
            },
        );
        let sub = Submission {
            id,
            run: Box::new(f),
        };
        if let Err(e) = self.queue.try_enqueue(sub) {
            self.shared.jobs.lock().remove(&id);
            return Err(e.into());
        }
        self.metrics.submitted.inc();
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// The job's current status, if the id is known.
    pub fn status(&self, id: u32) -> Option<JobStatus> {
        self.shared.jobs.lock().get(&id).map(|e| e.status.clone())
    }

    /// Blocks until job `id` finishes and returns its outcome.
    ///
    /// # Errors
    /// `Protocol` for an unknown id (or an outcome already taken).
    pub fn wait(&self, id: u32) -> Result<JobOutcome> {
        let mut jobs = self.shared.jobs.lock();
        loop {
            let entry = jobs.get_mut(&id).ok_or_else(|| EngineError::Protocol {
                what: format!("unknown job id {id}"),
            })?;
            if let Some(outcome) = entry.outcome.take() {
                return outcome;
            }
            if entry.status.is_terminal() {
                return Err(EngineError::Protocol {
                    what: format!("job {id}'s outcome was already taken"),
                });
            }
            self.shared.cv.wait(&mut jobs);
        }
    }

    /// Current admission-queue depth (jobs admitted, not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Every known job with its current status, ascending by id (the
    /// `cts stats` table's row source).
    pub fn job_statuses(&self) -> Vec<(u32, JobStatus)> {
        let mut rows: Vec<(u32, JobStatus)> = self
            .shared
            .jobs
            .lock()
            .iter()
            .map(|(id, e)| (*id, e.status.clone()))
            .collect();
        rows.sort_unstable_by_key(|(id, _)| *id);
        rows
    }

    /// The resident fabric (its metric registry, the recent jobs' spans).
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
        while runtime.status(first.id()) != Some(JobStatus::Running) {
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
