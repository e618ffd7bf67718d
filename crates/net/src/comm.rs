//! The per-node communicator: point-to-point sends plus the two
//! MPI-style collectives the engine uses (barrier, multicast), with
//! transfer tracing and optional NIC emulation.
//!
//! One `Communicator` is handed to each SPMD node closure by the
//! [`cluster`](crate::cluster) runner; the K of one job share a scope —
//! the job's tag slot, its shuffle fabric and the journal their transfers
//! and stage spans are written into. It mirrors the Open MPI surface the
//! paper's C++ implementation uses: `MPI_Send`/`MPI_Recv`, `MPI_Bcast`
//! within a multicast group, and `MPI_Barrier` between stages — plus the
//! non-blocking pair the engine streams its shuffle through,
//! [`post`](Communicator::post) / [`post_multicast`](Communicator::post_multicast)
//! (`MPI_Isend`) and [`drain`](Communicator::drain) (`MPI_Waitall`); the
//! blocking calls are a post followed by a drain. A group cast dispatches
//! on the configured [`ShuffleFabric`]: serial unicasts, fanout copies
//! in one transfer, or one native multicast, each charged to the emulated NIC
//! accordingly and traced with the per-fabric egress count.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::cluster::{run_spmd, ClusterConfig};
//! use cts_net::fabric::ShuffleFabric;
//! use cts_net::message::Tag;
//!
//! let cfg = ClusterConfig::local(3).with_fabric(ShuffleFabric::Multicast);
//! let run = run_spmd(&cfg, |comm| {
//!     comm.set_stage("Shuffle");
//!     let data = (comm.rank() == 1).then(|| Bytes::from_static(b"pkt"));
//!     comm.multicast(1, &[0, 1, 2], Tag::new(Tag::BCAST, 0), data).unwrap()
//! })
//! .unwrap();
//! assert!(run.results.iter().all(|r| r == "pkt"));
//! // Native multicast: the packet crossed the sender's egress once.
//! assert_eq!(run.trace.stage_wire_sends("Shuffle"), 1);
//! ```

use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use cts_core::metrics::MetricsHub;

use crate::cluster::Endpoints;
use crate::error::{NetError, Result};
use crate::fabric::ShuffleFabric;
use crate::journal::Journal;
use crate::message::Tag;
use crate::rate::{Nic, NicMeter};
use crate::span::StageSpan;
use crate::trace::{EventKind, TraceEvent};
use crate::transport::Transport;

/// The receiver bitmask of a group cast: every member except the root.
fn group_mask(members: &[usize], root: usize) -> u128 {
    members
        .iter()
        .filter(|&&n| n != root)
        .fold(0u128, |acc, &n| acc | (1u128 << n))
}

/// A rank's stage clock: which stage its thread is in, and one span per
/// stage entered so far, each growing by a slice whenever the thread leaves
/// the stage again.
#[derive(Default)]
struct StageClock {
    /// Index into `spans` of the stage the thread is in, and since when
    /// (ns on the fabric's clock).
    open: Option<(usize, u64)>,
    /// First-entry order. The flag: the rank posted to its NIC in the stage.
    spans: Vec<(StageSpan, bool)>,
}

impl StageClock {
    /// Books the open slice, if any, to its stage.
    fn close(&mut self, now: u64) {
        if let Some((at, since)) = self.open.take() {
            let span = &mut self.spans[at].0;
            span.end_ns = now;
            span.wall_ns += now.saturating_sub(since);
        }
    }
}

/// What the K communicators of one job share. Every tag passing through a
/// public [`Communicator`] method is rewritten into `slot`'s namespace (see
/// [`Tag::scoped`]) and every record goes to `journal`, so concurrent jobs
/// on one shared fabric neither cross-match messages nor see each other's
/// traces. Slot 0 leaves tags byte-identical to unscoped ones — the
/// exclusive one-shot path. Scoping is applied exactly once, at the API
/// boundary; raw [`transport`](Communicator::transport) users (the
/// health/recovery layer) bypass it and therefore require an exclusive
/// fabric.
pub(crate) struct JobScope {
    pub(crate) slot: u8,
    /// How [`Communicator::post_multicast`] realizes group sends.
    pub(crate) fabric: ShuffleFabric,
    pub(crate) journal: Journal,
    /// What the job's NICs count their stalls on; `None` when it runs
    /// unshaped.
    pub(crate) meter: Option<Arc<NicMeter>>,
    /// The owning fabric's metric registry, so engines can register
    /// job-level instruments (heartbeat transitions, decode progress)
    /// without new plumbing.
    pub(crate) metrics: Arc<MetricsHub>,
    /// The endpoints the job runs on (see [`Communicator::abort`]).
    pub(crate) endpoints: Arc<Endpoints>,
}

/// Per-node handle for all communication.
pub struct Communicator {
    transport: Arc<dyn Transport>,
    nic: Option<Arc<Nic>>,
    scope: Arc<JobScope>,
    /// The journal's index of the stage set last.
    stage: AtomicU16,
    barrier_epoch: AtomicU32,
    /// `set_stage` moves it, `finish` hands its spans to the journal.
    clock: Mutex<StageClock>,
}

impl Communicator {
    /// Wires rank `transport.rank()` of the job `scope` describes,
    /// optionally pacing its egress through an emulated `nic`.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        nic: Option<Arc<Nic>>,
        scope: Arc<JobScope>,
    ) -> Self {
        Communicator {
            transport,
            nic,
            scope,
            stage: AtomicU16::new(Journal::INIT_STAGE),
            barrier_epoch: AtomicU32::new(0),
            clock: Mutex::new(StageClock::default()),
        }
    }

    /// The owning fabric's metric registry. Engines use this to register
    /// job-level instruments lazily.
    pub fn metrics(&self) -> &Arc<MetricsHub> {
        &self.scope.metrics
    }

    /// Called by a rank that is about to return an error its peers cannot
    /// see: shuts down the endpoints its job runs on, so every peer blocked
    /// in a receive, a barrier or a [`drain`](Self::drain) fails with
    /// `Disconnected` instead of waiting forever — the teardown a panicking
    /// rank gets from the cluster runner. Jobs sharing those endpoints fail with it; the
    /// fabric hands the next job fresh ones.
    pub fn abort(&self) {
        self.scope.endpoints.shutdown();
    }

    /// `tag` as it travels on the transport, in this job's slot namespace.
    /// Every method here applies it to the tags it is given; callers need
    /// it only to build the keys of a [`Transport::recv_any`] wait on the
    /// raw [`transport`](Self::transport).
    #[inline]
    pub fn scope(&self, tag: Tag) -> Tag {
        tag.scoped(self.scope.slot)
    }

    /// The epoch mask for internally generated tags: job-scoped
    /// communicators must leave room for the slot bits.
    #[inline]
    fn epoch_mask(&self) -> u32 {
        if self.scope.slot == 0 {
            0x00FF_FFFF
        } else {
            (1 << Tag::JOB_SEQ_BITS) - 1
        }
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of nodes in the fabric.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// Labels subsequent traffic with a stage name ("Map", "Shuffle", …)
    /// and moves the rank's stage clock: the time up to now is booked to
    /// the stage the thread was in, the time from now to `name`. A stage
    /// may be entered any number of times; its slices coalesce into one
    /// [`StageSpan`] — the engine's stage annotations double as the timing
    /// brackets behind `cts stats` and `--timeline`. Takes no lock a rank
    /// of another job can hold.
    pub fn set_stage(&self, name: &str) {
        let journal = &self.scope.journal;
        let (stage, now) = (journal.stage(name), journal.now_ns());
        self.stage.store(stage, Ordering::Relaxed);
        let mut clock = self.clock.lock();
        clock.close(now);
        let at = clock
            .spans
            .iter()
            .position(|(span, _)| span.stage == stage)
            .unwrap_or_else(|| {
                let span = StageSpan {
                    job: journal.job(),
                    rank: self.transport.rank() as u16,
                    stage,
                    start_ns: now,
                    end_ns: now,
                    wall_ns: 0,
                };
                clock.spans.push((span, false));
                clock.spans.len() - 1
            });
        clock.open = Some((at, now));
    }

    /// Closes the open stage and hands the journal the rank's spans, one
    /// per stage it entered. The cluster runner calls this when the rank's
    /// job closure returns.
    pub(crate) fn finish(&self) {
        let journal = &self.scope.journal;
        let mut clock = self.clock.lock();
        clock.close(journal.now_ns());
        journal.record_spans(clock.spans.drain(..).map(|(mut span, posted)| {
            if posted {
                span.wall_ns = span.dur_ns();
            }
            span
        }));
    }

    /// The underlying transport (for tests and wrappers).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Hands one transfer of `cost` charged bytes to the egress: through the
    /// NIC's queue when there is one, straight to `deliver` otherwise. The
    /// open stage becomes one whose wall is its extent (see
    /// [`StageSpan::wall_ns`]).
    fn egress<F>(&self, cost: u64, deliver: F) -> Result<()>
    where
        F: FnOnce() -> Result<()> + Send + 'static,
    {
        let mut clock = self.clock.lock();
        if let Some((at, _)) = clock.open {
            clock.spans[at].1 = true;
        }
        drop(clock);
        match &self.nic {
            Some(nic) => nic.post(cost, deliver),
            None => deliver(),
        }
    }

    /// What a transfer's hand-over runs once the fabric accepted every copy:
    /// the trace event, under the stage the transfer was *posted* in (a
    /// refused one leaves no phantom traffic for the netsim oracle).
    fn recorder(
        &self,
        dsts: u128,
        bytes: u64,
        overhead: u64,
        wire_copies: u16,
        kind: EventKind,
    ) -> impl FnOnce() + Send + 'static {
        let scope = Arc::clone(&self.scope);
        let event = TraceEvent {
            // The journal numbers the event and stamps its job.
            seq: 0,
            job: 0,
            stage: self.stage.load(Ordering::Relaxed),
            src: self.rank() as u16,
            dsts,
            bytes,
            overhead,
            wire_copies,
            kind,
        };
        move || scope.journal.record(event)
    }

    /// Non-blocking point-to-point send (recorded as shuffle traffic):
    /// returns once the payload is with the fabric or in this rank's NIC
    /// queue, whichever the emulated NIC says. A transfer occupies the NIC
    /// for its setup latency plus its payload's egress drain time, the
    /// payload goes to the fabric at the start of that, and nothing waits
    /// for the end of it but [`drain`](Self::drain): the rank computes
    /// while its NIC is occupied for exactly as long as a blocking sender's
    /// would be — the quantity the shuffle fabrics differ in.
    pub fn post(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        // Bound-check before the trace mask shift (`1u128 << dst`) so an
        // out-of-range destination errors instead of overflowing.
        if dst >= self.world_size() {
            return Err(NetError::InvalidRank {
                rank: dst,
                world: self.world_size(),
            });
        }
        let bytes = payload.len() as u64;
        let record = self.recorder(1u128 << dst, bytes, 0, 1, EventKind::AppUnicast);
        let (transport, tag) = (Arc::clone(&self.transport), self.scope(tag));
        self.egress(bytes, move || {
            transport.send(dst, tag, payload)?;
            record();
            Ok(())
        })
    }

    /// Blocks until everything this rank posted has left its emulated NIC
    /// (at once, without one). A queued transfer the fabric refused fails
    /// this — or the next post — with the fabric's error, and
    /// [`abort`](Self::abort) on any rank of the fabric fails it with
    /// `Disconnected`.
    pub fn drain(&self) -> Result<()> {
        match &self.nic {
            Some(nic) => nic.drain(),
            None => Ok(()),
        }
    }

    /// Blocking point-to-point send: [`post`](Self::post), then
    /// [`drain`](Self::drain) — returns when the NIC has drained the
    /// payload, not when the peer took it.
    pub fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        self.post(dst, tag, payload)?;
        self.drain()
    }

    /// Barrier control send — an empty frame, excluded from
    /// communication-load accounting and from NIC pacing (the per-transfer
    /// latency would charge every stage transition a shuffle's worth of
    /// setup time). `tag` is already scoped.
    fn send_internal(&self, dst: usize, tag: Tag) -> Result<()> {
        self.recorder(1u128 << dst, 0, 0, 1, EventKind::Internal)();
        self.transport.send(dst, tag, Bytes::new())
    }

    /// Blocking receive matched on `(src, tag)`.
    pub fn recv(&self, src: usize, tag: Tag) -> Result<Bytes> {
        self.transport.recv(src, self.scope(tag))
    }

    /// Global barrier across all ranks (flat coordinator pattern through
    /// rank 0, like the paper's synchronous stage transitions).
    pub fn barrier(&self) -> Result<()> {
        let epoch = self.barrier_epoch.fetch_add(1, Ordering::Relaxed);
        let tag = self.scope(Tag::new(Tag::BARRIER, epoch & self.epoch_mask()));
        let k = self.world_size();
        if k == 1 {
            return Ok(());
        }
        if self.rank() == 0 {
            for src in 1..k {
                self.transport.recv(src, tag)?;
            }
            for dst in 1..k {
                self.send_internal(dst, tag)?;
            }
        } else {
            self.send_internal(0, tag)?;
            self.transport.recv(0, tag)?;
        }
        Ok(())
    }

    /// Group validation: members sorted/unique and in range, caller and
    /// root both present.
    fn validate_group(&self, root: usize, members: &[usize]) -> Result<()> {
        if members.is_empty() || members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NetError::CollectiveMisuse {
                what: "members must be non-empty, sorted, unique".into(),
            });
        }
        // Sorted, so the last member bounds them all — keeps the trace
        // mask shifts (`1u128 << rank`) in range.
        let highest = *members.last().expect("non-empty");
        if highest >= self.world_size() {
            return Err(NetError::InvalidRank {
                rank: highest,
                world: self.world_size(),
            });
        }
        let misuse = if members.binary_search(&self.rank()).is_err() {
            format!("caller {} not in group", self.rank())
        } else if members.binary_search(&root).is_err() {
            format!("root {root} not in group")
        } else {
            return Ok(());
        };
        Err(NetError::CollectiveMisuse { what: misuse })
    }

    /// Non-blocking multicast from this rank to the other `members` over
    /// the configured [`ShuffleFabric`] — the path the coded shuffle takes.
    /// `overhead` is the protocol-overhead byte count recorded on the trace
    /// event (coded-packet headers).
    ///
    /// `members` must be sorted ascending and contain the caller; each
    /// receiver takes the payload with a plain [`recv`](Self::recv) from
    /// this rank (no relaying), so the receive path is fabric-independent.
    /// What changes per fabric is how the copies leave the machine and how
    /// long they occupy the emulated NIC — [`ShuffleFabric::egress`], the
    /// rule `cts-netsim` predicts from:
    ///
    /// * `SerialUnicast` — one transfer per receiver, each paying its own
    ///   NIC latency and egress bytes;
    /// * `Fanout` — one transfer whose `m` copies leave through one
    ///   [`Transport::multicast`] (on TCP, back to back into kernel buffers
    ///   that the receivers' link readers drain concurrently): the NIC pays
    ///   one latency, and egress still moves `m × bytes`;
    /// * `Multicast` — one transfer charged `bytes × (1 + α·log2 m)` once,
    ///   genuine one-to-many.
    ///
    /// The trace records **one** `Multicast` event (bytes counted once —
    /// the paper's communication-load convention) whose
    /// [`wire_copies`](crate::trace::TraceEvent::wire_copies) is the
    /// fabric's egress frame count.
    pub fn post_multicast(
        &self,
        members: &[usize],
        tag: Tag,
        payload: Bytes,
        overhead: u64,
    ) -> Result<()> {
        let root = self.rank();
        self.validate_group(root, members)?;
        let tag = self.scope(tag);
        let dsts: Vec<usize> = members.iter().copied().filter(|&n| n != root).collect();
        let fanout = dsts.len();
        let bytes = payload.len() as u64;
        let record = self.recorder(
            group_mask(members, root),
            bytes,
            overhead,
            self.scope.fabric.wire_copies(fanout) as u16,
            EventKind::Multicast,
        );
        let Some((&last, rest)) = dsts.split_last() else {
            record();
            return Ok(());
        };
        let transport = Arc::clone(&self.transport);
        let alpha = (self.nic.as_ref()).map_or(0.0, |nic| nic.profile().multicast_alpha);
        let (_, bytes_each) = self.scope.fabric.egress(bytes as f64, fanout, alpha);
        let cost = bytes_each.round() as u64;
        if self.scope.fabric == ShuffleFabric::SerialUnicast {
            for &dst in rest {
                let (transport, payload) = (Arc::clone(&transport), payload.clone());
                self.egress(cost, move || transport.send(dst, tag, payload))?;
            }
            // The event goes in with the last copy.
            return self.egress(cost, move || {
                transport.send(last, tag, payload)?;
                record();
                Ok(())
            });
        }
        self.egress(cost, move || {
            transport.multicast(&dsts, tag, payload)?;
            record();
            Ok(())
        })
    }

    /// Blocking SPMD multicast within a member group: every member calls
    /// with the same arguments, the root passing `Some(payload)` — which it
    /// [`post_multicast`](Self::post_multicast)s and
    /// [`drain`](Self::drain)s — and the others `None`; everyone returns
    /// the payload.
    pub fn multicast(
        &self,
        root: usize,
        members: &[usize],
        tag: Tag,
        data: Option<Bytes>,
    ) -> Result<Bytes> {
        self.validate_group(root, members)?;
        if self.rank() != root {
            return self.recv(root, tag);
        }
        let payload = data.ok_or_else(|| NetError::CollectiveMisuse {
            what: "root must supply the payload".into(),
        })?;
        self.post_multicast(members, tag, payload.clone(), 0)?;
        self.drain()?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, JobBinding, SharedFabric};
    use crate::rate::NicProfile;
    use crate::trace::Trace;

    /// One job's communicators on a fresh fabric, opened the way
    /// `run_job` opens them, and its scope.
    fn job(cfg: &ClusterConfig) -> (Vec<Communicator>, Arc<JobScope>) {
        let fabric = SharedFabric::build(cfg).unwrap();
        let (scope, comms) = fabric.open_job(JobBinding::ROOT, None).unwrap();
        (comms, scope)
    }

    fn comms(k: usize, fabric: ShuffleFabric) -> Vec<Communicator> {
        job(&ClusterConfig::local(k).with_fabric(fabric)).0
    }

    fn trace_of(scope: &JobScope) -> Trace {
        scope.journal.take().0
    }

    fn run_spmd<R: Send>(comms: &[Communicator], f: impl Fn(&Communicator) -> R + Sync) -> Vec<R> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms.iter().map(|c| scope.spawn(|| f(c))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let comms = comms(4, ShuffleFabric::default());
        let counter = AtomicUsize::new(0);
        run_spmd(&comms, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // After the barrier, everyone must have incremented.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
            c.barrier().unwrap();
        });
    }

    #[test]
    fn multicast_delivers_on_every_fabric() {
        for fabric in ShuffleFabric::ALL {
            let comms = comms(5, fabric);
            let members = [0usize, 2, 3, 4];
            let results = run_spmd(&comms, |c| {
                if !members.contains(&c.rank()) {
                    return None;
                }
                let data = (c.rank() == 2).then(|| Bytes::from_static(b"fabric!"));
                Some(
                    c.multicast(2, &members, Tag::new(Tag::BCAST, 4), data)
                        .unwrap(),
                )
            });
            for (rank, res) in results.iter().enumerate() {
                if members.contains(&rank) {
                    assert_eq!(res.as_ref().unwrap(), "fabric!", "{fabric} rank {rank}");
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn multicast_trace_counts_wire_copies_per_fabric() {
        for (fabric, expected_copies) in [
            (ShuffleFabric::SerialUnicast, 3u64),
            (ShuffleFabric::Fanout, 3),
            (ShuffleFabric::Multicast, 1),
        ] {
            let (comms, scope) = job(&ClusterConfig::local(4).with_fabric(fabric));
            run_spmd(&comms, |c| {
                c.set_stage("Shuffle");
                let data = (c.rank() == 0).then(|| Bytes::from(vec![1u8; 200]));
                c.multicast(0, &[0, 1, 2, 3], Tag::new(Tag::BCAST, 0), data)
                    .unwrap();
            });
            let t = trace_of(&scope);
            let events: Vec<_> = t
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Multicast)
                .collect();
            assert_eq!(events.len(), 1, "{fabric}");
            assert_eq!(events[0].fanout(), 3, "{fabric}");
            // Bytes counted once regardless of fabric; copies differ.
            assert_eq!(t.stage_bytes("Shuffle"), 200, "{fabric}");
            assert_eq!(t.stage_wire_sends("Shuffle"), expected_copies, "{fabric}");
            // No internal relay traffic on the fabric path.
            assert_eq!(
                t.stage_events("Shuffle")
                    .filter(|e| e.kind == EventKind::Internal)
                    .count(),
                0
            );
        }
    }

    #[test]
    fn multicast_rejects_outsider_and_bad_members() {
        let comms = comms(3, ShuffleFabric::Multicast);
        let tag = Tag::new(Tag::BCAST, 0);
        // Caller not in group.
        assert!(matches!(
            comms[2].multicast(0, &[0, 1], tag, None),
            Err(NetError::CollectiveMisuse { .. })
        ));
        // Unsorted member list.
        assert!(matches!(
            comms[0].multicast(0, &[1, 0], tag, Some(Bytes::new())),
            Err(NetError::CollectiveMisuse { .. })
        ));
        // Root not in group.
        assert!(matches!(
            comms[0].multicast(2, &[0, 1], tag, None),
            Err(NetError::CollectiveMisuse { .. })
        ));
        // Root missing payload.
        assert!(matches!(
            comms[0].multicast(0, &[0, 1], tag, None),
            Err(NetError::CollectiveMisuse { .. })
        ));
    }

    #[test]
    fn out_of_range_ranks_error_instead_of_overflowing_masks() {
        // Ranks ≥ world (even ≥ 128, past the u128 trace-mask width) must
        // surface InvalidRank, not a shift overflow.
        let comms = comms(3, ShuffleFabric::Multicast);
        assert!(matches!(
            comms[0].send(200, Tag::app(0), Bytes::new()),
            Err(NetError::InvalidRank { rank: 200, .. })
        ));
        assert!(matches!(
            comms[0].multicast(
                0,
                &[0, 200],
                Tag::new(Tag::BCAST, 0),
                Some(Bytes::from_static(b"x"))
            ),
            Err(NetError::InvalidRank { rank: 200, .. })
        ));
    }

    #[test]
    fn single_member_multicast_is_identity() {
        let comms = comms(2, ShuffleFabric::Multicast);
        let out = comms[0]
            .multicast(
                0,
                &[0],
                Tag::new(Tag::BCAST, 0),
                Some(Bytes::from_static(b"me")),
            )
            .unwrap();
        assert_eq!(out, "me");
    }

    #[test]
    fn job_scoping_isolates_identical_tags_on_one_fabric() {
        // Two "jobs" share one fabric and both use Tag::app(7). Without
        // scoping the receives could match either sender's payload; with
        // per-job slots each job sees exactly its own bytes.
        let fabric = SharedFabric::build(&ClusterConfig::local(2)).unwrap();
        let open = |slot: u8, id: u32| fabric.open_job(JobBinding { slot, id }, None).unwrap();
        let ((scope_a, a), (scope_b, b)) = (open(1, 101), open(2, 202));
        // Job B's payload is already queued when job A sends on the same
        // logical (src, tag); A must still receive A's payload.
        b[0].send(1, Tag::app(7), Bytes::from_static(b"job-b"))
            .unwrap();
        a[0].send(1, Tag::app(7), Bytes::from_static(b"job-a"))
            .unwrap();
        assert_eq!(a[1].recv(0, Tag::app(7)).unwrap(), "job-a");
        assert_eq!(b[1].recv(0, Tag::app(7)).unwrap(), "job-b");
        // Each job's journal holds its own transfer and nothing else.
        for (scope, id) in [(scope_a, 101), (scope_b, 202)] {
            let t = trace_of(&scope);
            assert_eq!(t.jobs(), vec![id]);
            assert_eq!(t.total_bytes(), 5);
        }
    }

    #[test]
    fn job_scoped_collectives_do_not_cross_jobs() {
        let fabric = SharedFabric::build(&ClusterConfig::local(3)).unwrap();
        let open = |slot: u8| {
            let id = u32::from(slot);
            fabric.open_job(JobBinding { slot, id }, None).unwrap().1
        };
        let (a, b) = (open(1), open(2));
        // Run both jobs' multicasts concurrently over the same endpoints
        // with the same tag; payloads must stay within their job.
        std::thread::scope(|s| {
            for (id, comms) in [(1u8, &a), (2, &b)] {
                for c in comms.iter() {
                    s.spawn(move || {
                        let data = (c.rank() == 0).then(|| Bytes::from(vec![id; 8]));
                        let got = c
                            .multicast(0, &[0, 1, 2], Tag::new(Tag::BCAST, 3), data)
                            .unwrap();
                        assert_eq!(got, Bytes::from(vec![id; 8]), "job {id}");
                        c.barrier().unwrap();
                    });
                }
            }
        });
    }

    /// Ranks on the in-memory fabric, each behind `rate` bytes/s with a
    /// 1 KB burst.
    fn shaped(k: usize, rate: f64, alpha: f64) -> ClusterConfig {
        let mut profile = NicProfile::rate_limited(rate).with_multicast_alpha(alpha);
        profile.burst_bytes = 1_000.0;
        ClusterConfig::local(k).with_nic(profile)
    }

    #[test]
    fn posts_behind_a_busy_nic_return_at_once_and_arrive_in_order_as_it_drains() {
        use std::time::{Duration, Instant};
        // 1 MB/s, 1 KB burst: each 20 KB payload occupies the NIC 20 ms.
        let (comms, _) = job(&shaped(2, 1_000_000.0, 0.0));
        let (tx, rx) = (&comms[0], &comms[1]);
        let start = Instant::now();
        for i in 0..5u8 {
            let posted = Instant::now();
            tx.post(1, Tag::app(0), Bytes::from(vec![i; 20_000]))
                .unwrap();
            assert!(posted.elapsed() < Duration::from_millis(1), "post {i}");
        }
        for i in 0..5u8 {
            // Handed over at the start of its drain: payload i once the i
            // before it have left, (20 i − 1) ms in.
            assert_eq!(rx.recv(0, Tag::app(0)).unwrap()[0], i);
            let at = start.elapsed();
            let due = Duration::from_millis((20 * u64::from(i)).saturating_sub(3));
            assert!(
                at >= due && at < due + Duration::from_millis(40),
                "{i}: {at:?}"
            );
        }
        tx.drain().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
    }

    #[test]
    fn the_multicast_penalty_is_charged_to_the_queue() {
        use std::time::{Duration, Instant};
        // α = 1 and two receivers double the egress time: 50 KB at 1 MB/s
        // keeps the NIC busy ~100 ms, and `multicast` is post + drain.
        let (comms, _) = job(&shaped(3, 1_000_000.0, 1.0));
        let start = Instant::now();
        comms[0]
            .multicast(
                0,
                &[0, 1, 2],
                Tag::new(Tag::BCAST, 0),
                Some(Bytes::from(vec![9u8; 50_000])),
            )
            .unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(300), "{elapsed:?}");
    }

    #[test]
    fn a_queued_posts_transport_error_comes_out_of_drain_and_leaves_no_trace_event() {
        use crate::fault::FaultAction;
        // The second message to leave rank 0 fails in the transport.
        let cfg = shaped(2, 1_000_000.0, 0.0).with_fault(
            0,
            Arc::new(|_, _, _: &Bytes, idx| match idx {
                1 => FaultAction::FailSend,
                _ => FaultAction::Deliver,
            }),
        );
        let (comms, scope) = job(&cfg);
        let tx = &comms[0];
        tx.set_stage("Shuffle");
        for _ in 0..3 {
            tx.post(1, Tag::app(0), Bytes::from(vec![0u8; 10_000]))
                .unwrap();
        }
        assert!(matches!(tx.drain(), Err(NetError::InjectedFault { .. })));
        assert!(matches!(
            tx.post(1, Tag::app(0), Bytes::new()),
            Err(NetError::InjectedFault { .. })
        ));
        // Only what the fabric accepted was traced.
        assert_eq!(trace_of(&scope).stage_bytes("Shuffle"), 10_000);
    }

    #[test]
    fn stage_slices_coalesce_into_one_span_and_a_posting_stage_spans_its_extent() {
        use std::time::Duration;
        let (comms, scope) = job(&ClusterConfig::local(2));
        let tx = &comms[0];
        for _ in 0..3 {
            tx.set_stage("Map");
            std::thread::sleep(Duration::from_millis(4));
            tx.set_stage("Shuffle");
            tx.post(1, Tag::app(0), Bytes::from_static(b"piece"))
                .unwrap();
        }
        tx.set_stage("Reduce");
        tx.finish();
        let (trace, log) = scope.journal.take();
        assert_eq!(log.stages_in_order(), vec!["Map", "Shuffle", "Reduce"]);
        assert_eq!(log.spans.len(), 3, "one span per stage");
        let (map, shuffle) = (log.spans[0], log.spans[1]);
        // Map: three 4 ms slices inside a longer extent. Shuffle: it posted,
        // so its wall is its extent, which starts before Map's ends.
        assert!(map.wall_ns >= 12_000_000 && map.wall_ns <= map.dur_ns());
        assert_eq!(shuffle.wall_ns, shuffle.dur_ns());
        assert!(shuffle.start_ns < map.end_ns && shuffle.dur_ns() >= 8_000_000);
        // Every post was traced under the stage it was posted in.
        assert_eq!(trace.stage_wire_sends("Shuffle"), 3);
    }
}
