//! The per-node communicator: point-to-point sends plus the two
//! MPI-style collectives the engine uses (barrier, multicast), with
//! transfer tracing and optional NIC emulation.
//!
//! One `Communicator` is handed to each SPMD node closure by the
//! [`cluster`](crate::cluster) runner; the K of one job share a scope —
//! the job's id, its shuffle fabric and the journal their transfers and
//! stage spans are written into. Every message a communicator sends carries
//! the job's id and every receive waits in that job, so a job's tags are its
//! own, the way an MPI communicator's are. It mirrors the Open MPI surface the
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
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;

use cts_core::metrics::MetricsHub;
use cts_core::sync::lock;

use crate::cluster::Endpoints;
use crate::error::{NetError, Result};
use crate::fabric::ShuffleFabric;
use crate::journal::Journal;
use crate::message::{Key, Tag};
use crate::rate::{Nic, NicLedger};
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
    /// First-entry order, each under its name: a switch to a stage the
    /// rank has been in is resolved here, on the rank's own state. The flag:
    /// the rank posted to its NIC in the stage.
    spans: Vec<(StageSpan, bool, &'static str)>,
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

/// What the K communicators of one job share. Every message they send
/// carries the journal's job id and every wait names it, and every record
/// goes to `journal`, so concurrent jobs on one shared fabric neither
/// cross-match messages nor see each other's traces.
pub(crate) struct JobScope {
    /// How [`Communicator::post_multicast`] realizes group sends.
    pub(crate) fabric: ShuffleFabric,
    pub(crate) journal: Journal,
    /// The owning fabric's metric registry, so engines can register
    /// job-level instruments (decode progress)
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

    /// The job every message of this communicator belongs to.
    #[inline]
    fn job(&self) -> u32 {
        self.scope.journal.job()
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
    /// brackets behind `cts stats` and `--timeline`. The rank keeps each
    /// stage it enters under its (static) name: only its first entry to a
    /// stage asks the job's journal for the stage's index, and every later
    /// switch costs one clock read and a search of the rank's own stages.
    pub fn set_stage(&self, name: &'static str) {
        let journal = &self.scope.journal;
        let now = journal.now_ns();
        let mut clock = lock(&self.clock);
        clock.close(now);
        let at = (clock.spans.iter())
            .position(|&(_, _, stage)| stage == name)
            .unwrap_or_else(|| {
                let span = StageSpan {
                    job: journal.job(),
                    rank: self.transport.rank() as u16,
                    stage: journal.stage(name),
                    start_ns: now,
                    end_ns: now,
                    wall_ns: 0,
                };
                clock.spans.push((span, false, name));
                clock.spans.len() - 1
            });
        self.stage.store(clock.spans[at].0.stage, Ordering::Relaxed);
        clock.open = Some((at, now));
    }

    /// What this rank's emulated NIC has booked; `None` without one.
    pub(crate) fn ledger(&self) -> Option<NicLedger> {
        self.nic.as_ref().map(|nic| nic.ledger())
    }

    /// Stops the rank's stage clock: the time up to now is booked to the
    /// stage the thread was in, and none after it until the next
    /// [`set_stage`](Self::set_stage). The cluster runner calls this between
    /// a rank's send and receive halves, which the thread may leave apart
    /// to run other ranks.
    pub(crate) fn pause(&self) {
        let now = self.scope.journal.now_ns();
        lock(&self.clock).close(now);
    }

    /// Closes the open stage and hands the journal the rank's spans, one
    /// per stage it entered. The cluster runner calls this when the rank's
    /// job closure returns.
    pub(crate) fn finish(&self) {
        let journal = &self.scope.journal;
        let mut clock = lock(&self.clock);
        clock.close(journal.now_ns());
        journal.record_spans(clock.spans.drain(..).map(|(mut span, posted, _)| {
            if posted {
                span.wall_ns = span.dur_ns();
            }
            span
        }));
    }

    /// Books one transfer of `cost` charged bytes on the rank's NIC and
    /// returns its stamp (`None` without a NIC or on a free one). Behind a
    /// NIC, the open stage becomes one whose wall is its extent
    /// ([`StageSpan::wall_ns`]): the NIC works on while the thread is
    /// elsewhere. Without one nothing does, and the wall stays the slices.
    fn egress(&self, cost: u64) -> Result<Option<Instant>> {
        let Some(nic) = &self.nic else {
            return Ok(None);
        };
        let mut clock = lock(&self.clock);
        if let Some((at, _)) = clock.open {
            clock.spans[at].1 = true;
        }
        drop(clock);
        nic.post(cost)
    }

    /// Writes the trace event of a transfer the fabric accepted, under the
    /// stage it was posted in (a refused one leaves no phantom traffic for
    /// the netsim oracle).
    fn record(&self, dsts: u128, bytes: u64, overhead: u64, wire_copies: u16, kind: EventKind) {
        self.scope.journal.record(TraceEvent {
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
        });
    }

    /// Non-blocking point-to-point send (recorded as shuffle traffic): books
    /// the transfer on this rank's emulated NIC — its setup latency plus its
    /// payload's drain time, behind everything posted before it — and hands
    /// the payload to the fabric at once, stamped with the booked end, until
    /// which the receiver's mailbox holds it. Only [`drain`](Self::drain)
    /// waits for that end: the rank computes while its NIC is busy exactly as
    /// long as a blocking sender's would be. A fabric's refusal is the error.
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
        let ready = self.egress(bytes)?;
        self.transport.send(dst, self.job(), tag, payload, ready)?;
        self.record(1u128 << dst, bytes, 0, 1, EventKind::AppUnicast);
        Ok(())
    }

    /// Blocks until everything this rank posted has left its emulated NIC
    /// (at once, without one). [`abort`](Self::abort) on any rank of the
    /// fabric fails it — and every later post — with `Disconnected`.
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
    /// setup time).
    fn send_internal(&self, dst: usize, tag: Tag) -> Result<()> {
        self.record(1u128 << dst, 0, 0, 1, EventKind::Internal);
        self.transport
            .send(dst, self.job(), tag, Bytes::new(), None)
    }

    /// Blocking receive matched on `(src, tag)`.
    pub fn recv(&self, src: usize, tag: Tag) -> Result<Bytes> {
        self.transport.recv(src, self.job(), tag)
    }

    /// Blocks until a message of this job is queued under any of `keys` —
    /// `(tag, src)`, sorted ascending — and returns it with the index of its
    /// key, the lowest key first; `deadline` as in
    /// [`Transport::recv_any`], which this is in the communicator's job.
    pub fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        self.transport.recv_any(self.job(), keys, deadline)
    }

    /// Global barrier across all ranks (flat coordinator pattern through
    /// rank 0, like the paper's synchronous stage transitions).
    pub fn barrier(&self) -> Result<()> {
        let epoch = self.barrier_epoch.fetch_add(1, Ordering::Relaxed);
        let tag = Tag::new(Tag::BARRIER, epoch & 0x00FF_FFFF);
        let k = self.world_size();
        if k == 1 {
            return Ok(());
        }
        if self.rank() == 0 {
            for src in 1..k {
                self.recv(src, tag)?;
            }
            for dst in 1..k {
                self.send_internal(dst, tag)?;
            }
        } else {
            self.send_internal(0, tag)?;
            self.recv(0, tag)?;
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
    /// What changes per fabric is how the copies leave the machine and what
    /// the emulated NIC books for them — [`ShuffleFabric::egress`]:
    ///
    /// * `SerialUnicast` — one transfer per receiver, each booked with its
    ///   own NIC latency and bytes;
    /// * `Fanout` — one transfer whose `m` copies leave through one
    ///   [`Transport::multicast`] (on TCP, back to back into kernel buffers
    ///   that the receivers' link readers drain concurrently): one latency,
    ///   and `m × bytes` charged;
    /// * `Multicast` — one transfer charged `bytes × (1 + α·log2 m)` once,
    ///   genuine one-to-many.
    ///
    /// Each transfer is booked as [`Nic::post`] says — its latency, during
    /// which the token bucket refills, then its charged bytes — and goes
    /// into the rank's [`NicLedger`].
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
        let job = self.job();
        let dsts: Vec<usize> = members.iter().copied().filter(|&n| n != root).collect();
        let fanout = dsts.len();
        let bytes = payload.len() as u64;
        let alpha = (self.nic.as_ref()).map_or(0.0, |nic| nic.profile().multicast_alpha);
        let (_, bytes_each) = self.scope.fabric.egress(bytes as f64, fanout, alpha);
        let cost = bytes_each.round() as u64;
        if self.scope.fabric == ShuffleFabric::SerialUnicast {
            for &dst in &dsts {
                let ready = self.egress(cost)?;
                self.transport.send(dst, job, tag, payload.clone(), ready)?;
            }
        } else if fanout > 0 {
            let ready = self.egress(cost)?;
            self.transport.multicast(&dsts, job, tag, payload, ready)?;
        }
        // One event, once every copy is with the fabric.
        let wire_copies = self.scope.fabric.wire_copies(fanout) as u16;
        let kind = EventKind::Multicast;
        self.record(
            group_mask(members, root),
            bytes,
            overhead,
            wire_copies,
            kind,
        );
        Ok(())
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
        // Two jobs share one fabric and both use Tag::app(7). Were the
        // messages not stamped with their job the receives could match
        // either sender's payload; as they are, each job sees its own bytes.
        let fabric = SharedFabric::build(&ClusterConfig::local(2)).unwrap();
        let open = |id: u32| fabric.open_job(JobBinding { id }, None).unwrap();
        let ((scope_a, a), (scope_b, b)) = (open(101), open(202));
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
        let open = |id: u8| {
            let id = u32::from(id);
            fabric.open_job(JobBinding { id }, None).unwrap().1
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
    fn posts_behind_a_busy_nic_return_at_once_and_each_lands_at_its_booked_end() {
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
            // Seen when its last byte has left: payload i once it and the i
            // before it have, 19 + 20 i ms in (the burst paid 1 KB of the
            // first) — never earlier.
            assert_eq!(rx.recv(0, Tag::app(0)).unwrap()[0], i);
            let at = start.elapsed();
            let due = Duration::from_millis(19 + 20 * u64::from(i));
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
    fn a_posts_transport_error_is_its_own_and_leaves_no_trace_event() {
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
        let (tx, rx) = (&comms[0], &comms[1]);
        tx.set_stage("Shuffle");
        let posts: Vec<Result<()>> = (0..3u8)
            .map(|i| tx.post(1, Tag::app(0), Bytes::from(vec![i; 10_000])))
            .collect();
        assert!(posts[0].is_ok() && posts[2].is_ok(), "{posts:?}");
        assert!(matches!(posts[1], Err(NetError::InjectedFault { .. })));
        // It fails nothing after it: the NIC drains, and the others land.
        tx.drain().unwrap();
        assert_eq!(rx.recv(0, Tag::app(0)).unwrap()[0], 0);
        assert_eq!(rx.recv(0, Tag::app(0)).unwrap()[0], 2);
        // Only what the fabric accepted was traced.
        assert_eq!(trace_of(&scope).stage_bytes("Shuffle"), 20_000);
    }

    #[test]
    fn stage_slices_coalesce_into_one_span_and_a_posting_stage_spans_its_extent() {
        use std::time::Duration;
        // Behind a NIC the posting stage's wall is its extent; without one
        // nothing works while the thread is elsewhere, so it is its slices.
        let fast = NicProfile::rate_limited(1e9);
        for cfg in [
            ClusterConfig::local(2).with_nic(fast),
            ClusterConfig::local(2),
        ] {
            let (comms, scope) = job(&cfg);
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
            // Map: three 4 ms slices inside a longer extent. Shuffle's extent
            // starts before Map's ends.
            assert!(map.wall_ns >= 12_000_000 && map.wall_ns <= map.dur_ns());
            assert!(shuffle.start_ns < map.end_ns && shuffle.dur_ns() >= 8_000_000);
            if cfg.nic.is_some() {
                assert_eq!(shuffle.wall_ns, shuffle.dur_ns());
            } else {
                assert!(shuffle.wall_ns < shuffle.dur_ns() / 2, "{shuffle:?}");
            }
            // Every post was traced under the stage it was posted in.
            assert_eq!(trace.stage_wire_sends("Shuffle"), 3);
        }
    }

    #[test]
    fn a_paused_clock_books_nothing_until_the_next_stage() {
        use std::time::Duration;
        let (comms, scope) = job(&ClusterConfig::local(1));
        let rank = &comms[0];
        rank.set_stage("Shuffle");
        rank.pause();
        std::thread::sleep(Duration::from_millis(10));
        rank.set_stage("Shuffle");
        rank.finish();
        let shuffle = scope.journal.take().1.spans[0];
        assert!(shuffle.dur_ns() >= 10_000_000);
        assert!(shuffle.wall_ns < shuffle.dur_ns() / 2, "{shuffle:?}");
    }
}
