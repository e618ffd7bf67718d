//! SPMD cluster execution.
//!
//! The paper's deployment (Fig. 8) is a coordinator plus `K` worker
//! processes running the same program, long-lived workers that take one
//! job after another. Here each worker runs the user's closure against its
//! own [`Communicator`], on one of two [`Schedule`]s. Threaded, each worker
//! is a thread — rank 0 on the calling thread, every other rank on a parked
//! thread that outlives the job ([`cts_core::exec::run_all`]), so a job
//! spawns no thread once the process has run one of its size. In turn, a
//! job split into a send and a receive half per rank
//! ([`SharedFabric::run_split`]) runs on the calling thread alone: every
//! rank's send half, then every rank's receive half. Either way the calling
//! thread also plays the coordinator (it stages per-node inputs before the
//! run and collects results and the transfer trace after). Workers
//! communicate only through the fabric — in-memory channels or real TCP
//! sockets. The in-memory fabric takes worlds of up to `K = 128` ranks on
//! one host; TCP costs one reader thread per used link and is tested to a
//! `K = 32` full mesh.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::cluster::{run_spmd, ClusterConfig};
//! use cts_net::message::Tag;
//!
//! // A 3-rank ring exchange over the in-memory fabric.
//! let run = run_spmd(&ClusterConfig::local(3), |comm| {
//!     let next = (comm.rank() + 1) % 3;
//!     comm.send(next, Tag::app(0), Bytes::copy_from_slice(&[comm.rank() as u8]))
//!         .unwrap();
//!     comm.recv((comm.rank() + 2) % 3, Tag::app(0)).unwrap()[0]
//! })
//! .unwrap();
//! assert_eq!(run.results, vec![2, 0, 1]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use cts_core::exec;
use cts_core::metrics::{Histogram, MetricsHub};
use cts_core::sync::{lock, unpoison};

use crate::comm::{Communicator, JobScope};
use crate::error::{NetError, Result};
use crate::fabric::ShuffleFabric;
use crate::fault::{FaultRule, FaultyTransport};
use crate::journal::Journal;
use crate::local::LocalFabric;
use crate::rate::{Nic, NicLedger, NicProfile};
use crate::span::SpanLog;
use crate::tcp::build_tcp_fabric;
use crate::trace::Trace;
use crate::transport::Transport;

/// Which fabric the cluster runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process mailboxes (fast; the default for experiments).
    #[default]
    Local,
    /// Real TCP sockets over loopback.
    Tcp,
}

/// A fault injected on one rank's outgoing traffic: the rank's transport
/// is wrapped in a [`FaultyTransport`] applying `rule` to every send —
/// the cluster-level hook the straggler/failure tests use to slow down or
/// kill one node's shuffle egress deterministically.
#[derive(Clone)]
pub struct ClusterFault {
    /// The rank whose sends are faulted.
    pub rank: usize,
    /// The rule applied to each of that rank's outgoing messages.
    pub rule: Arc<FaultRule>,
}

impl std::fmt::Debug for ClusterFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterFault")
            .field("rank", &self.rank)
            .field("rule", &"<rule>")
            .finish()
    }
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes `K` (up to
    /// [`registry::MAX_WORLD`](crate::registry::MAX_WORLD) = 128).
    pub k: usize,
    /// Fabric type.
    pub transport: TransportKind,
    /// Optional per-node emulated NIC (egress rate cap, per-transfer
    /// latency, multicast penalty). `None` runs at memory/loopback speed.
    pub nic: Option<NicProfile>,
    /// How [`Communicator::multicast`] group sends hit the wire.
    pub fabric: ShuffleFabric,
    /// Optional message-level fault on one rank's sends (straggler
    /// slowdown, blackhole, corruption). Applies on every transport kind.
    pub fault: Option<ClusterFault>,
}

impl ClusterConfig {
    /// An in-memory cluster of `k` nodes.
    pub fn local(k: usize) -> Self {
        ClusterConfig {
            k,
            transport: TransportKind::Local,
            nic: None,
            fabric: ShuffleFabric::default(),
            fault: None,
        }
    }

    /// A loopback-TCP cluster of `k` nodes.
    pub fn tcp(k: usize) -> Self {
        ClusterConfig {
            transport: TransportKind::Tcp,
            ..ClusterConfig::local(k)
        }
    }

    /// Installs a full emulated-NIC profile on every node.
    pub fn with_nic(mut self, nic: NicProfile) -> Self {
        self.nic = Some(nic);
        self
    }

    /// Selects the shuffle fabric; every fabric runs on either transport.
    pub fn with_fabric(mut self, fabric: ShuffleFabric) -> Self {
        self.fabric = fabric;
        self
    }

    /// Injects a message-level fault on `rank`'s outgoing traffic (see
    /// [`ClusterFault`]).
    pub fn with_fault(mut self, rank: usize, rule: Arc<FaultRule>) -> Self {
        self.fault = Some(ClusterFault { rank, rule });
        self
    }
}

/// The outcome of an SPMD run: one result per rank plus what the job
/// recorded — its own transfers, spans and NIC bookings, nobody else's.
#[derive(Debug)]
pub struct ClusterRun<R> {
    /// Per-rank return values, rank order.
    pub results: Vec<R>,
    /// The job's transfer trace.
    pub trace: Trace,
    /// The job's stage spans: one per rank per stage entered.
    pub spans: SpanLog,
    /// What each rank's emulated NIC booked, rank order; empty for a job
    /// that ran without one.
    pub nic: Vec<NicLedger>,
    /// Where the job's ranks ran.
    pub schedule: Schedule,
}

/// Where the ranks of one job run ([`SharedFabric::run_split`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One thread per rank, each running the rank's send half and then its
    /// receive half, every rank at once — the paper's K machines.
    Threaded,
    /// The calling thread runs every rank's send half, then every rank's
    /// receive half: no thread is woken and no rank waits on another,
    /// because every message is queued before the first receive.
    InTurn,
}

impl Schedule {
    /// How `k` ranks ran, as `cts sort` and `cts stats` say it:
    /// `ranks: 4 in turn on one thread`, `ranks: 8 threads`.
    pub fn describe(self, k: usize) -> String {
        match self {
            Schedule::Threaded => format!("ranks: {k} threads"),
            Schedule::InTurn => format!("ranks: {k} in turn on one thread"),
        }
    }
}

/// A job's identity on a [`SharedFabric`]: the `id` every one of its
/// messages carries ([`Message::job`](crate::message::Message::job)) and
/// its trace events and spans are stamped with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobBinding {
    /// Job identifier (need not be dense). Unique per live job; an id used
    /// again after its job ended takes in whatever of the old job is still
    /// in flight, so a resident fabric never reuses one.
    pub id: u32,
}

impl JobBinding {
    /// The binding of one-shot runs: job 0, the job open on a fresh
    /// transport.
    pub const ROOT: JobBinding = JobBinding { id: 0 };
}

/// One generation of a fabric's per-rank endpoints. A shut-down transport
/// stays shut and its mailbox holds whatever the failed job left behind,
/// so teardown retires the whole generation instead of repairing it.
pub(crate) struct Endpoints {
    transports: Vec<Arc<dyn Transport>>,
    down: AtomicBool,
    /// The emulated NICs of the jobs in flight, by rank: a teardown fails
    /// them too, so no rank sits out a drain that will never end.
    nics: Mutex<Vec<(usize, Weak<Nic>)>>,
}

impl Endpoints {
    /// Transports for all `k` ranks, with any configured per-rank fault
    /// wrapper.
    fn build(config: &ClusterConfig) -> Result<Endpoints> {
        let k = config.k;
        let mut transports: Vec<Arc<dyn Transport>> = match config.transport {
            TransportKind::Local => {
                let fabric = LocalFabric::new(k);
                (0..k)
                    .map(|r| Arc::new(fabric.endpoint(r)) as Arc<dyn Transport>)
                    .collect()
            }
            TransportKind::Tcp => build_tcp_fabric(k)?
                .into_iter()
                .map(|ep| Arc::new(ep) as Arc<dyn Transport>)
                .collect(),
        };
        if let Some(fault) = &config.fault {
            assert!(
                fault.rank < k,
                "faulted rank {} outside world {k}",
                fault.rank
            );
            let rule = Arc::clone(&fault.rule);
            let inner = Arc::clone(&transports[fault.rank]);
            transports[fault.rank] = Arc::new(FaultyTransport::new(
                inner,
                Box::new(move |dst, tag, payload, idx| rule(dst, tag, payload, idx)),
            ));
        }
        Ok(Endpoints {
            transports,
            down: AtomicBool::new(false),
            nics: Mutex::new(Vec::new()),
        })
    }

    /// Shuts down every transport, waking any blocked receiver, and fails
    /// every NIC a job runs on them, waking any blocked drain.
    pub(crate) fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        for t in &self.transports {
            t.shutdown();
        }
        for (rank, nic) in lock(&self.nics).drain(..) {
            if let Some(nic) = nic.upgrade() {
                nic.abort(NetError::Disconnected { rank });
            }
        }
    }
}

/// A resident cluster fabric that outlives any single job.
///
/// This inverts the one-shot ownership model: [`run_spmd`] builds a fabric,
/// runs one job, and tears it down, while a `SharedFabric` is built once
/// (transports, clock origin, optional per-rank fault wrapping) and then
/// serves many [`run_job`](SharedFabric::run_job) calls — concurrently, from
/// multiple threads — each isolated by its [`JobBinding`]:
///
/// - **messages**: every message carries its job's id and a mailbox
///   matches on (job, tag, source), so two jobs using `Tag::app(0)` on the
///   same mailbox never cross-match. A mailbox queues a job's messages
///   only while the job runs: whatever a job leaves queued, or still has in
///   flight when it ends, is dropped, not taken by the next job;
/// - **records**: each job writes its transfers and stage spans into a
///   journal of its own and gets them back as [`ClusterRun::trace`] and
///   [`ClusterRun::spans`], with its NICs' ledgers beside them; the fabric
///   keeps nothing of a finished job;
/// - **pacing**: each job gets its own emulated [`Nic`] token buckets
///   (from `nic_override` or the cluster default), so one tenant
///   saturating its egress budget stalls only its own sends.
///
/// A failing job costs the fabric its endpoints: a panicking rank shuts
/// them all down (to unblock every peer, including other jobs' ranks)
/// before the panic is re-raised, and a rank that fails with an `Err` its
/// peers cannot see asks for the same teardown through
/// [`Communicator::abort`] and then returns the error as its result. Jobs
/// in flight at that moment fail with it; the next job to start gets fresh
/// endpoints.
pub struct SharedFabric {
    endpoints: Mutex<Arc<Endpoints>>,
    /// The clock every job's spans are placed on.
    origin: Instant,
    metrics: Arc<MetricsHub>,
    /// Distribution of individual NIC token-bucket stalls (ns), shared by
    /// every job's NICs.
    nic_wait_hist: Arc<Histogram>,
    config: ClusterConfig,
}

impl std::fmt::Debug for SharedFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFabric")
            .field("k", &self.config.k)
            .field("transport", &self.config.transport)
            .finish()
    }
}

impl SharedFabric {
    /// Builds the fabric for `config`: transports for all `k` ranks with any
    /// configured per-rank fault wrapper, and the clock origin.
    ///
    /// # Errors
    /// `InvalidRank` if `k` is 0 or exceeds [`MAX_WORLD`] (trace masks are
    /// 128-bit); transport bring-up failures propagate.
    ///
    /// [`MAX_WORLD`]: crate::registry::MAX_WORLD
    pub fn build(config: &ClusterConfig) -> Result<SharedFabric> {
        let k = config.k;
        let world = crate::registry::MAX_WORLD;
        if k == 0 || k > world {
            return Err(NetError::InvalidRank { rank: k, world });
        }
        let metrics = Arc::new(MetricsHub::new());
        let nic_wait_hist = metrics.histogram_scaled("cts_nic_wait_seconds", 1e-9);
        Ok(SharedFabric {
            endpoints: Mutex::new(Arc::new(Endpoints::build(config)?)),
            origin: Instant::now(),
            metrics,
            nic_wait_hist,
            config: config.clone(),
        })
    }

    /// World size `K`.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The fabric's metric registry. Subsystems riding this fabric (the
    /// job runtime, the sort service) register their instruments here so
    /// one render call exposes the whole plane.
    pub fn metrics(&self) -> &Arc<MetricsHub> {
        &self.metrics
    }

    /// Renders the fabric's full metric inventory as Prometheus text:
    /// everything registered on the hub plus the process-wide buffer pool's.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.metrics.render_prometheus();
        let pool = cts_core::pool::global().stats();
        let retained = pool.retained_bytes;
        out.push_str("# TYPE cts_pool_retained_bytes gauge\n");
        out.push_str(&format!("cts_pool_retained_bytes {retained}\n"));
        let counters = [
            ("cts_pool_hits_total", pool.hits),
            ("cts_pool_misses_total", pool.misses),
            ("cts_pool_freed_bytes_total", pool.freed_bytes),
        ];
        for (name, v) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        out
    }

    /// Shuts down every live transport, waking any blocked receiver and
    /// failing the jobs in flight.
    pub fn shutdown(&self) {
        lock(&self.endpoints).shutdown();
    }

    /// Opens a job: its id on every rank's mailbox, its scope — a fresh
    /// journal — and one communicator per rank, each behind its own NIC, on
    /// the live endpoints (built anew if the last job tore them down).
    pub(crate) fn open_job(
        &self,
        binding: JobBinding,
        nic_override: Option<NicProfile>,
    ) -> Result<(Arc<JobScope>, Vec<Communicator>)> {
        let endpoints = {
            let mut live = lock(&self.endpoints);
            if live.down.load(Ordering::Acquire) {
                *live = Arc::new(Endpoints::build(&self.config)?);
            }
            Arc::clone(&live)
        };
        let shaped = nic_override.or(self.config.nic);
        let nic = |profile| {
            let hist = Arc::clone(&self.nic_wait_hist);
            Arc::new(Nic::new(profile).with_wait_hist(hist))
        };
        let nics: Vec<Option<Arc<Nic>>> = (0..self.config.k).map(|_| shaped.map(nic)).collect();
        if shaped.is_some() {
            let mut live = lock(&endpoints.nics);
            live.retain(|(_, nic)| nic.strong_count() > 0);
            live.extend(nics.iter().flatten().map(Arc::downgrade).enumerate());
        }
        for transport in &endpoints.transports {
            transport.mailbox().open_job(binding.id);
        }
        let scope = Arc::new(JobScope {
            fabric: self.config.fabric,
            journal: Journal::new(binding.id, self.origin),
            metrics: Arc::clone(&self.metrics),
            endpoints: Arc::clone(&endpoints),
        });
        let comm = |(rank, nic)| {
            let transport = Arc::clone(&endpoints.transports[rank]);
            Communicator::new(transport, nic, Arc::clone(&scope))
        };
        let comms = nics.into_iter().enumerate().map(comm).collect();
        Ok((scope, comms))
    }

    /// The NIC profile every job of this fabric runs behind unless it
    /// brings its own; `None` for an unshaped fabric.
    pub fn nic(&self) -> Option<NicProfile> {
        self.config.nic
    }

    /// Runs one SPMD job over the shared fabric: `f` on every rank with
    /// `inputs[rank]`, each rank's [`Communicator`] bound to `binding` and on
    /// a thread of its own ([`Schedule::Threaded`]) — [`run_split`] with no
    /// receive half.
    ///
    /// # Panics
    /// Panics if `inputs.len() != k`.
    ///
    /// [`run_split`]: SharedFabric::run_split
    pub fn run_job<I, R, F>(
        &self,
        binding: JobBinding,
        nic_override: Option<NicProfile>,
        inputs: Vec<I>,
        f: F,
    ) -> Result<ClusterRun<R>>
    where
        I: Send,
        R: Send,
        F: Fn(&Communicator, I) -> R + Send + Sync,
    {
        let keep = |_: &Communicator, r: R| r;
        self.run_split(binding, nic_override, Schedule::Threaded, inputs, f, keep)
    }

    /// Runs one SPMD job over the shared fabric in two halves per rank:
    /// `send` on every rank with `inputs[rank]`, then `receive` with what
    /// that rank's `send` returned, each rank's [`Communicator`] bound to
    /// `binding`. `schedule` says where the halves run: each rank's pair on
    /// a thread of its own, or every `send` and then every `receive` on the
    /// calling thread — which is sound only when no `send` waits on another
    /// rank, because none of them runs until the one before it returns.
    ///
    /// `nic_override` replaces the cluster-default NIC profile for this job
    /// only — the per-job backpressure hook: a throttled tenant's token
    /// buckets pace that tenant's sends without touching anyone else's.
    ///
    /// Safe to call concurrently from multiple threads as long as each live
    /// job has an id of its own. However the job ends, its id is closed on
    /// every rank once the ranks are done, dropping what it left queued
    /// and anything of it still in flight. If any half panics the job's
    /// endpoints are shut down, that rank's `receive` does not run, and the
    /// first panic is re-raised once every rank is done; a rank calling
    /// [`Communicator::abort`] shuts them down the same way and the run
    /// returns normally. The first job to start after a teardown builds
    /// fresh endpoints (and fails if that fails). What the job recorded
    /// leaves with the returned [`ClusterRun`]: the fabric keeps nothing of
    /// a finished job.
    ///
    /// # Panics
    /// Panics if `inputs.len() != k`.
    pub fn run_split<I, S, R, F, G>(
        &self,
        binding: JobBinding,
        nic_override: Option<NicProfile>,
        schedule: Schedule,
        inputs: Vec<I>,
        send: F,
        receive: G,
    ) -> Result<ClusterRun<R>>
    where
        I: Send,
        R: Send,
        F: Fn(&Communicator, I) -> S + Send + Sync,
        G: Fn(&Communicator, S) -> R + Send + Sync,
    {
        assert_eq!(
            inputs.len(),
            self.config.k,
            "need exactly one input per node"
        );
        let (scope, comms) = self.open_job(binding, nic_override)?;
        let panics: Mutex<Vec<Panic>> = Mutex::new(Vec::new());
        let send_half = |comm: &Communicator, input: I| {
            let sent = guarded(comm, &panics, || send(comm, input));
            // The rank's clock stops until its receive half starts.
            comm.pause();
            sent
        };
        let receive_half = |comm: &Communicator, sent: Option<S>| {
            let done = sent.and_then(|sent| guarded(comm, &panics, || receive(comm, sent)));
            comm.finish();
            done
        };
        let results: Vec<Option<R>> = match schedule {
            Schedule::Threaded => {
                let ranks = comms.iter().zip(inputs).map(|(comm, input)| {
                    let (send_half, receive_half) = (&send_half, &receive_half);
                    move || receive_half(comm, send_half(comm, input))
                });
                (exec::run_all(ranks.collect()).into_iter())
                    .map(|r| r.expect("panics are caught"))
                    .collect()
            }
            Schedule::InTurn => {
                let sent: Vec<Option<S>> = (comms.iter().zip(inputs))
                    .map(|(comm, input)| send_half(comm, input))
                    .collect();
                (comms.iter().zip(sent))
                    .map(|(comm, sent)| receive_half(comm, sent))
                    .collect()
            }
        };
        for transport in &scope.endpoints.transports {
            transport.mailbox().close_job(binding.id);
        }

        if let Some(first) = unpoison(panics.into_inner()).into_iter().next() {
            resume_unwind(first);
        }

        let (trace, spans) = scope.journal.take();
        Ok(ClusterRun {
            results: results.into_iter().flatten().collect(),
            trace,
            spans,
            nic: comms.iter().filter_map(Communicator::ledger).collect(),
            schedule,
        })
    }
}

/// A caught panic's payload.
type Panic = Box<dyn std::any::Any + Send>;

/// Runs one half of a rank. A panic in it shuts the job's endpoints down —
/// unblocking every peer, other jobs' ranks included — and is kept in
/// `panics` to be re-raised once the job is done.
fn guarded<T>(
    comm: &Communicator,
    panics: &Mutex<Vec<Panic>>,
    half: impl FnOnce() -> T,
) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(half)) {
        Ok(out) => Some(out),
        Err(payload) => {
            comm.abort();
            lock(panics).push(payload);
            None
        }
    }
}

/// Runs `f` on every rank of a fresh fabric, SPMD style.
///
/// If any node panics, the whole fabric is shut down (so no peer blocks
/// forever on a receive) and the first panic is re-raised on the caller.
pub fn run_spmd<R, F>(config: &ClusterConfig, f: F) -> Result<ClusterRun<R>>
where
    R: Send,
    F: Fn(&Communicator) -> R + Send + Sync,
{
    run_spmd_with_inputs(config, vec![(); config.k], move |comm, ()| f(comm))
}

/// Like [`run_spmd`] but hands `inputs[rank]` to each node — the
/// coordinator's file-placement step.
///
/// Implemented as an ephemeral [`SharedFabric`] running a single job at
/// [`JobBinding::ROOT`], so every one-shot caller exercises the same code
/// path the resident runtime uses.
///
/// # Panics
/// Panics if `inputs.len() != config.k`.
pub fn run_spmd_with_inputs<I, R, F>(
    config: &ClusterConfig,
    inputs: Vec<I>,
    f: F,
) -> Result<ClusterRun<R>>
where
    I: Send,
    R: Send,
    F: Fn(&Communicator, I) -> R + Send + Sync,
{
    let fabric = SharedFabric::build(config)?;
    fabric.run_job(JobBinding::ROOT, None, inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn spmd_ring_local() {
        let run = run_spmd(&ClusterConfig::local(4), |comm| {
            let me = comm.rank();
            let next = (me + 1) % 4;
            let prev = (me + 3) % 4;
            comm.send(next, Tag::app(0), Bytes::copy_from_slice(&[me as u8]))
                .unwrap();
            comm.recv(prev, Tag::app(0)).unwrap()[0] as usize
        })
        .unwrap();
        assert_eq!(run.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn spmd_ring_tcp() {
        let run = run_spmd(&ClusterConfig::tcp(3), |comm| {
            let me = comm.rank();
            let next = (me + 1) % 3;
            let prev = (me + 2) % 3;
            comm.send(next, Tag::app(0), Bytes::copy_from_slice(&[me as u8]))
                .unwrap();
            comm.recv(prev, Tag::app(0)).unwrap()[0] as usize
        })
        .unwrap();
        assert_eq!(run.results, vec![2, 0, 1]);
    }

    #[test]
    fn inputs_are_distributed_by_rank() {
        let inputs: Vec<String> = (0..3).map(|i| format!("input-{i}")).collect();
        let run = run_spmd_with_inputs(&ClusterConfig::local(3), inputs, |comm, input| {
            format!("{}@{}", input, comm.rank())
        })
        .unwrap();
        assert_eq!(run.results, vec!["input-0@0", "input-1@1", "input-2@2"]);
    }

    #[test]
    fn trace_is_collected() {
        let run = run_spmd(&ClusterConfig::local(2), |comm| {
            comm.set_stage("Shuffle");
            if comm.rank() == 0 {
                comm.send(1, Tag::app(0), Bytes::from(vec![0u8; 42]))
                    .unwrap();
            } else {
                comm.recv(0, Tag::app(0)).unwrap();
            }
        })
        .unwrap();
        assert_eq!(run.trace.stage_bytes("Shuffle"), 42);
    }

    #[test]
    fn node_panic_propagates_without_hanging() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_spmd(&ClusterConfig::local(3), |comm| {
                if comm.rank() == 1 {
                    panic!("node 1 exploded");
                }
                // Ranks 0 and 2 wait for a message that never comes; the
                // abort must wake them.
                let _ = comm.recv(1, Tag::app(0));
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("exploded"));
    }

    #[test]
    fn barrier_over_both_fabrics() {
        for cfg in [ClusterConfig::local(5), ClusterConfig::tcp(5)] {
            let run = run_spmd(&cfg, |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                comm.rank()
            })
            .unwrap();
            assert_eq!(run.results, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn a_world_the_fabric_cannot_trace_is_refused_typed() {
        for k in [0, crate::registry::MAX_WORLD + 1] {
            assert!(matches!(
                SharedFabric::build(&ClusterConfig::local(k)),
                Err(NetError::InvalidRank { rank, .. }) if rank == k
            ));
        }
    }

    #[test]
    fn shared_fabric_runs_concurrent_jobs_isolated() {
        // Two jobs, same world, same tags, interleaved on one fabric: each
        // must see only its own traffic and its own trace events.
        let fabric = SharedFabric::build(&ClusterConfig::local(3)).unwrap();
        let run_ring = |id: u32, byte: u8| {
            fabric
                .run_job(
                    JobBinding { id },
                    None,
                    vec![byte; 3],
                    |comm: &Communicator, b: u8| {
                        comm.set_stage("Shuffle");
                        let next = (comm.rank() + 1) % 3;
                        let prev = (comm.rank() + 2) % 3;
                        for _ in 0..16 {
                            comm.send(next, Tag::app(0), Bytes::copy_from_slice(&[b]))
                                .unwrap();
                            assert_eq!(comm.recv(prev, Tag::app(0)).unwrap()[0], b);
                            comm.barrier().unwrap();
                        }
                        b
                    },
                )
                .unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let ja = s.spawn(|| run_ring(0xA1, 0x11));
            let jb = s.spawn(|| run_ring(0xB2, 0x22));
            (ja.join().unwrap(), jb.join().unwrap())
        });
        assert_eq!(a.results, vec![0x11; 3]);
        assert_eq!(b.results, vec![0x22; 3]);
        // Per-job traces are disjoint and each accounts only its own bytes.
        assert_eq!(a.trace.jobs(), vec![0xA1]);
        assert_eq!(b.trace.jobs(), vec![0xB2]);
        assert_eq!(a.trace.stage_bytes("Shuffle"), 16 * 3);
        assert_eq!(b.trace.stage_bytes("Shuffle"), 16 * 3);
    }

    #[test]
    fn each_finished_job_returns_exactly_its_own_events() {
        let fabric = SharedFabric::build(&ClusterConfig::local(2)).unwrap();
        for id in 1..=5u32 {
            let run = fabric
                .run_job(JobBinding { id }, None, vec![(); 2], |comm, ()| {
                    comm.set_stage("Shuffle");
                    let peer = 1 - comm.rank();
                    comm.send(peer, Tag::app(0), Bytes::from(vec![0u8; 10]))
                        .unwrap();
                    comm.recv(peer, Tag::app(0)).unwrap();
                    comm.barrier().unwrap();
                })
                .unwrap();
            // Complete: both unicasts plus the barrier's control frames.
            assert_eq!(run.trace.jobs(), vec![id]);
            assert_eq!(run.trace.stage_bytes("Shuffle"), 20);
            assert_eq!(run.trace.events.len(), 4);
        }
    }

    #[test]
    fn abort_fails_the_job_and_the_next_one_gets_fresh_endpoints() {
        // The third leg sits behind a NIC so slow that rank 0's second post
        // stays queued for minutes: the abort must release its drain too.
        let crawl = NicProfile::rate_limited(1_000.0);
        for cfg in [
            ClusterConfig::local(3),
            ClusterConfig::tcp(3),
            ClusterConfig::local(3).with_nic(crawl),
        ] {
            let fabric = SharedFabric::build(&cfg).unwrap();
            let started = std::time::Instant::now();
            let run = fabric
                .run_job(JobBinding::ROOT, None, vec![(); 3], |comm, ()| {
                    match comm.rank() {
                        // Left behind in rank 2's mailbox, and in the queue.
                        0 => {
                            comm.post(2, Tag::app(0), Bytes::from_static(b"stale"))?;
                            comm.post(2, Tag::app(0), Bytes::from(vec![0u8; 200_000]))?;
                            comm.drain()?;
                        }
                        1 => {
                            // Give rank 0 time to block in its drain.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            comm.abort();
                            return Err(NetError::Io {
                                what: "rank 1 failed".into(),
                            });
                        }
                        _ => {}
                    }
                    // Ranks 0 and 2 wait for a message that never comes; the
                    // abort must wake them.
                    comm.recv(1, Tag::app(0)).map(|_| ())
                })
                .unwrap();
            assert!(started.elapsed() < std::time::Duration::from_secs(30));
            assert!(matches!(run.results[1], Err(NetError::Io { .. })));
            for rank in [0, 2] {
                assert!(run.results[rank].is_err(), "{:?}", run.results[rank]);
            }
            // Same id, same tags: the next job neither finds the fabric
            // shut nor the failed job's leftovers.
            let run = fabric
                .run_job(JobBinding::ROOT, None, vec![(); 3], |comm, ()| {
                    if comm.rank() == 0 {
                        comm.send(2, Tag::app(0), Bytes::from_static(b"fresh"))
                            .unwrap();
                    }
                    comm.barrier().unwrap();
                    (comm.rank() == 2).then(|| comm.recv(0, Tag::app(0)).unwrap())
                })
                .unwrap();
            assert_eq!(run.results[2].as_deref(), Some(&b"fresh"[..]));
        }
    }

    #[test]
    fn a_split_job_in_turn_runs_every_send_then_every_receive_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let fabric = SharedFabric::build(&ClusterConfig::local(3)).unwrap();
        let run = fabric
            .run_split(
                JobBinding { id: 5 },
                None,
                Schedule::InTurn,
                vec![(); 3],
                |comm, ()| {
                    assert_eq!(std::thread::current().id(), caller);
                    lock(&order).push(("send", comm.rank()));
                    let next = (comm.rank() + 1) % 3;
                    comm.post(
                        next,
                        Tag::app(0),
                        Bytes::copy_from_slice(&[comm.rank() as u8]),
                    )
                },
                |comm, sent: Result<()>| {
                    assert_eq!(std::thread::current().id(), caller);
                    lock(&order).push(("receive", comm.rank()));
                    sent?;
                    // Queued before the first receive: a probe finds it.
                    let keys = [(Tag::app(0), (comm.rank() + 2) % 3)];
                    comm.recv_any(&keys, Some(Instant::now()))
                        .map(|(_, got)| got[0])
                },
            )
            .unwrap();
        assert_eq!(run.schedule, Schedule::InTurn);
        assert_eq!(run.results, vec![Ok(2), Ok(0), Ok(1)]);
        let halves = ["send", "send", "send", "receive", "receive", "receive"];
        let expected: Vec<(&str, usize)> = halves.into_iter().zip([0, 1, 2, 0, 1, 2]).collect();
        assert_eq!(unpoison(order.into_inner()), expected);
    }

    #[test]
    fn stage_spans_bracket_each_job_per_rank() {
        let fabric = SharedFabric::build(&ClusterConfig::local(3)).unwrap();
        let run = fabric
            .run_job(
                JobBinding { id: 42 },
                None,
                vec![(); 3],
                |comm: &Communicator, ()| {
                    comm.set_stage("Map");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    comm.set_stage("Shuffle");
                    comm.barrier().unwrap();
                },
            )
            .unwrap();
        // Two stages × three ranks, all stamped with the job id.
        assert_eq!(run.spans.spans.len(), 6);
        assert!(run.spans.spans.iter().all(|s| s.wall_ns == s.dur_ns()));
        assert!(run.spans.spans.iter().all(|s| s.job == 42));
        assert_eq!(run.spans.stages_in_order(), vec!["Map", "Shuffle"]);
        assert_eq!(run.spans.stage_durations_ns("Map").len(), 3);
        // The Map stage really took its sleep on every rank.
        assert!(run
            .spans
            .stage_durations_ns("Map")
            .iter()
            .all(|&d| d >= 2_000_000));
        // The final stage was closed by the harness, not left dangling.
        assert!(run.spans.stage_durations_ns("Shuffle").len() == 3);
    }

    /// Three stages, one unicast to the next rank and a barrier: what every
    /// job of the journal tests below runs.
    fn ring_job(fabric: &SharedFabric, id: u32) -> ClusterRun<()> {
        let k = fabric.k();
        fabric
            .run_job(JobBinding { id }, None, vec![(); k], |comm, ()| {
                comm.set_stage("Map");
                comm.set_stage("Shuffle");
                let payload = Bytes::from(vec![id as u8; 10]);
                comm.send((comm.rank() + 1) % k, Tag::app(0), payload)
                    .unwrap();
                let got = comm.recv((comm.rank() + k - 1) % k, Tag::app(0)).unwrap();
                assert_eq!(got[0], id as u8);
                comm.barrier().unwrap();
                comm.set_stage("Reduce");
            })
            .unwrap()
    }

    /// `run` holds job `id`'s K × 3 spans and K unicasts + barrier frames,
    /// and nothing of any other job.
    fn assert_own_records_only(run: &ClusterRun<()>, id: u32, k: usize) {
        assert_eq!(run.trace.jobs(), vec![id]);
        assert_eq!(run.spans.jobs(), vec![id]);
        assert_eq!(run.spans.spans.len(), 3 * k, "job {id}");
        assert_eq!(
            run.spans.stages_in_order(),
            vec!["Map", "Shuffle", "Reduce"]
        );
        assert_eq!(run.trace.stage_bytes("Shuffle"), 10 * k as u64);
        assert_eq!(run.trace.events.len(), k + 2 * (k - 1), "job {id}");
        let seqs: Vec<u64> = run.trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_returns_its_own_journal_on_the_fabrics_one_clock() {
        let fabric = SharedFabric::build(&ClusterConfig::local(3)).unwrap();
        let mut last_end = 0;
        for id in 1..=200u32 {
            let run = ring_job(&fabric, id);
            assert_own_records_only(&run, id, 3);
            // One clock for the fabric's whole life: each job starts after
            // the one before it ended.
            let start = run.spans.spans.iter().map(|s| s.start_ns).min().unwrap();
            assert!(start >= last_end, "job {id}");
            last_end = run.spans.spans.iter().map(|s| s.end_ns).max().unwrap();
        }
        // Concurrent tenants: the same, with the three journals open at once.
        let runs: Vec<ClusterRun<()>> = std::thread::scope(|s| {
            let jobs: Vec<_> = (1_001..=1_003)
                .map(|id| {
                    let fabric = &fabric;
                    s.spawn(move || ring_job(fabric, id))
                })
                .collect();
            jobs.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for (run, id) in runs.iter().zip(1_001..) {
            assert_own_records_only(run, id, 3);
        }
    }

    #[test]
    fn a_post_still_held_when_its_job_ends_is_dropped_by_its_close() {
        // 10 KB/s behind a 1 KB burst: rank 0's second and third posts are
        // booked to end 100 and 200 ms in, while the rank gives up without
        // draining and the job returns.
        let mut crawl = NicProfile::rate_limited(10_000.0);
        crawl.burst_bytes = 1_000.0;
        let fabric = SharedFabric::build(&ClusterConfig::local(2)).unwrap();
        let run = fabric
            .run_job(
                JobBinding { id: 7 },
                Some(crawl),
                vec![(); 2],
                |comm, ()| {
                    comm.set_stage("Shuffle");
                    if comm.rank() == 0 {
                        for _ in 0..3 {
                            comm.post(1, Tag::app(0), Bytes::from(vec![1u8; 1_000]))?;
                        }
                        return Err(NetError::Io {
                            what: "rank 0 gave up".into(),
                        });
                    }
                    comm.recv(0, Tag::app(0)).map(|_| ())
                },
            )
            .unwrap();
        assert!(run.results[0].is_err() && run.results[1].is_ok());
        // Every post was traced when it was made.
        assert_eq!(run.trace.stage_bytes("Shuffle"), 3_000);
        // Job 7's close dropped the two rank 1 still held …
        let mailbox = |rank: usize| lock(&fabric.endpoints).transports[rank].mailbox().queued();
        assert_eq!(mailbox(1), 0, "held posts outlived their job");
        // … so the next tenants, one before their booked ends and one
        // after, see only their own traffic.
        let next = ring_job(&fabric, 8);
        assert_own_records_only(&next, 8, 2);
        std::thread::sleep(std::time::Duration::from_millis(250));
        assert_eq!(mailbox(1), 0);
        let after = ring_job(&fabric, 9);
        assert_own_records_only(&after, 9, 2);
    }

    #[test]
    fn a_jobs_nic_ledgers_leave_with_its_run() {
        // Job 1 is rate-limited hard, job 2 runs unshaped: only a shaped
        // job has ledgers, one per rank, and they hold that job's bookings.
        let fabric = SharedFabric::build(&ClusterConfig::local(2)).unwrap();
        let slow = NicProfile::rate_limited(1_000_000.0);
        let run = |id: u32, nic: Option<NicProfile>| {
            fabric
                .run_job(
                    JobBinding { id },
                    nic,
                    vec![(); 2],
                    |comm: &Communicator, ()| {
                        if comm.rank() == 0 {
                            comm.send(1, Tag::app(0), Bytes::from(vec![0u8; 300_000]))
                                .unwrap();
                            comm.send(1, Tag::app(0), Bytes::from(vec![0u8; 1]))
                                .unwrap();
                        } else {
                            comm.recv(0, Tag::app(0)).unwrap();
                            comm.recv(0, Tag::app(0)).unwrap();
                        }
                    },
                )
                .unwrap()
        };
        let ledgers = run(1, Some(slow)).nic;
        let [sender, receiver] = ledgers[..] else {
            panic!("one ledger per rank: {ledgers:?}")
        };
        assert_eq!((sender.transfers, sender.bytes), (2, 300_001));
        assert!(sender.stalls >= 1 && sender.stalled > Duration::ZERO);
        assert_eq!(NicLedger::egress_floor(&ledgers), sender.busy);
        assert_eq!(receiver, NicLedger::default(), "rank 1 sent nothing");
        assert!(run(2, None).nic.is_empty(), "an unshaped job books nothing");
        // The fabric-wide histogram saw the same stalls.
        let text = fabric.render_prometheus();
        let count = format!("cts_nic_wait_seconds_count {}", sender.stalls);
        assert!(text.contains(&count), "{text}");
    }

    #[test]
    fn shared_fabric_reuses_transports_across_sequential_jobs() {
        let fabric = SharedFabric::build(&ClusterConfig::tcp(2)).unwrap();
        for id in [7, 8, 9] {
            let run = fabric
                .run_job(JobBinding { id }, None, vec![(); 2], |comm, ()| {
                    if comm.rank() == 0 {
                        comm.send(1, Tag::app(3), Bytes::from(vec![id as u8; 4]))
                            .unwrap();
                        0
                    } else {
                        comm.recv(0, Tag::app(3)).unwrap()[0] as u32
                    }
                })
                .unwrap();
            assert_eq!(run.results, vec![0, id]);
            assert_eq!(run.trace.jobs(), vec![id]);
        }
    }

    #[test]
    fn rate_limited_cluster_throttles() {
        use std::time::Instant;
        // 1 MB/s egress; send 200 KB beyond burst → ≥ ~0.13 s.
        let cfg = ClusterConfig::local(2).with_nic(NicProfile::rate_limited(1_000_000.0));
        let start = Instant::now();
        run_spmd(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::app(0), Bytes::from(vec![0u8; 200_000]))
                    .unwrap();
                comm.send(1, Tag::app(0), Bytes::from(vec![0u8; 1]))
                    .unwrap();
            } else {
                comm.recv(0, Tag::app(0)).unwrap();
                comm.recv(0, Tag::app(0)).unwrap();
            }
        })
        .unwrap();
        assert!(start.elapsed().as_millis() >= 100);
    }
}
