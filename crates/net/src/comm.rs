//! The per-node communicator: point-to-point sends plus the two
//! MPI-style collectives the engine uses (barrier, multicast), with
//! transfer tracing and optional NIC emulation.
//!
//! One `Communicator` is handed to each SPMD node closure by the
//! [`cluster`](crate::cluster) runner. It mirrors the Open MPI surface the
//! paper's C++ implementation uses: `MPI_Send`/`MPI_Recv`, `MPI_Bcast`
//! within a multicast group, and `MPI_Barrier` between stages. The group
//! cast is [`multicast`](Communicator::multicast): dispatching on the
//! configured [`ShuffleFabric`], it sends serial unicasts, overlapped
//! fanout copies, or one native multicast, charges the emulated NIC
//! accordingly, and records the per-fabric egress count in the trace.
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

use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use cts_core::metrics::MetricsHub;

use crate::cluster::Endpoints;
use crate::error::{NetError, Result};
use crate::fabric::ShuffleFabric;
use crate::message::Tag;
use crate::rate::Nic;
use crate::span::SpanCollector;
use crate::trace::{EventKind, TraceCollector};
use crate::transport::Transport;

/// The receiver bitmask of a group cast: every member except the root.
fn group_mask(members: &[usize], root: usize) -> u128 {
    members
        .iter()
        .filter(|&&n| n != root)
        .fold(0u128, |acc, &n| acc | (1u128 << n))
}

/// Per-node handle for all communication.
pub struct Communicator {
    transport: Arc<dyn Transport>,
    trace: Arc<TraceCollector>,
    nic: Option<Arc<Nic>>,
    fabric: ShuffleFabric,
    stage: AtomicU16,
    barrier_epoch: AtomicU32,
    /// Job slot scoped into every tag (0 = exclusive, tags unchanged).
    job_slot: u8,
    /// Job id stamped on every trace event.
    job_id: u32,
    /// Stage-span sink, attached by the shared fabric. Each `set_stage`
    /// closes the rank's open span and opens the next.
    spans: Option<Arc<SpanCollector>>,
    /// The open span's interned stage (`u16::MAX` = none open).
    span_stage: AtomicU16,
    /// The open span's start, ns on the collector's clock.
    span_start: AtomicU64,
    /// The owning runtime's metric registry, attached by the shared
    /// fabric so engines can register job-level instruments (heartbeat
    /// transitions, decode progress) without new plumbing.
    metrics: Option<Arc<MetricsHub>>,
    /// The endpoints this rank's job runs on, attached by the shared fabric
    /// (see [`Self::abort`]).
    endpoints: Option<Arc<Endpoints>>,
}

impl Communicator {
    /// Wires a communicator over `transport`, recording into `trace`,
    /// optionally pacing egress through an emulated `nic`. The shuffle
    /// fabric defaults to [`ShuffleFabric::Multicast`]; override it with
    /// [`with_fabric`](Self::with_fabric).
    pub fn new(
        transport: Arc<dyn Transport>,
        trace: Arc<TraceCollector>,
        nic: Option<Arc<Nic>>,
    ) -> Self {
        let stage = trace.intern("init");
        Communicator {
            transport,
            trace,
            nic,
            fabric: ShuffleFabric::default(),
            stage: AtomicU16::new(stage),
            barrier_epoch: AtomicU32::new(0),
            job_slot: 0,
            job_id: 0,
            spans: None,
            span_stage: AtomicU16::new(u16::MAX),
            span_start: AtomicU64::new(0),
            metrics: None,
            endpoints: None,
        }
    }

    /// Attaches a stage-span collector: from now on every
    /// [`set_stage`](Self::set_stage) brackets wall-clock time per stage
    /// (closed by the next `set_stage` or [`finish_spans`](Self::finish_spans)).
    pub fn with_spans(mut self, spans: Arc<SpanCollector>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Attaches the runtime's metric registry (builder-style).
    pub fn with_metrics(mut self, metrics: Arc<MetricsHub>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The runtime's metric registry, when this communicator belongs to a
    /// metrics-bearing fabric. Engines use this to register job-level
    /// instruments lazily; standalone communicators return `None`.
    pub fn metrics(&self) -> Option<&Arc<MetricsHub>> {
        self.metrics.as_ref()
    }

    /// Attaches the endpoints [`abort`](Self::abort) shuts down.
    pub(crate) fn with_endpoints(mut self, endpoints: Arc<Endpoints>) -> Self {
        self.endpoints = Some(endpoints);
        self
    }

    /// Called by a rank that is about to return an error its peers cannot
    /// see: shuts down the endpoints its job runs on, so every peer blocked
    /// in a receive or barrier on this rank fails with `Disconnected`
    /// instead of waiting forever — the teardown a panicking rank gets from
    /// the cluster runner. Jobs sharing those endpoints fail with it; the
    /// fabric hands the next job fresh ones. A no-op on a communicator no
    /// fabric built.
    pub fn abort(&self) {
        if let Some(endpoints) = &self.endpoints {
            endpoints.shutdown();
        }
    }

    /// Selects how [`multicast`](Self::multicast) realizes group sends.
    pub fn with_fabric(mut self, fabric: ShuffleFabric) -> Self {
        self.fabric = fabric;
        self
    }

    /// Scopes this communicator to a job: every tag passing through any
    /// public method is rewritten into `slot`'s namespace (see
    /// [`Tag::scoped`]) and every trace event is stamped with `id`, so
    /// concurrent jobs on one shared fabric neither cross-match messages
    /// nor blur each other's traces. Slot 0 (the default) leaves tags
    /// byte-identical to an unscoped communicator — the exclusive one-shot
    /// path. Scoping is applied exactly once, here at the API boundary;
    /// raw [`transport`](Self::transport) users (the health/recovery
    /// layer) bypass it and therefore require an exclusive fabric.
    pub fn with_job(mut self, slot: u8, id: u32) -> Self {
        assert!(
            slot <= Tag::MAX_JOB_SLOT,
            "job slot {slot} exceeds {}",
            Tag::MAX_JOB_SLOT
        );
        self.job_slot = slot;
        self.job_id = id;
        self
    }

    /// The `(slot, id)` of the job this communicator is scoped to.
    pub fn job(&self) -> (u8, u32) {
        (self.job_slot, self.job_id)
    }

    /// `tag` as it travels on the transport, in this job's slot namespace.
    /// Every method here applies it to the tags it is given; callers need
    /// it only to build the keys of a [`Transport::recv_any`] wait on the
    /// raw [`transport`](Self::transport).
    #[inline]
    pub fn scope(&self, tag: Tag) -> Tag {
        tag.scoped(self.job_slot)
    }

    /// The epoch mask for internally generated tags: job-scoped
    /// communicators must leave room for the slot bits.
    #[inline]
    fn epoch_mask(&self) -> u32 {
        if self.job_slot == 0 {
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

    /// Labels subsequent traffic with a stage name ("Map", "Shuffle", …).
    ///
    /// When a span collector is attached this also closes the rank's open
    /// stage span and opens one for `name` — the engines' existing stage
    /// annotations double as the timing brackets behind `cts stats` and
    /// `--timeline`, with no extra calls in the engine.
    pub fn set_stage(&self, name: &str) {
        self.stage.store(self.trace.intern(name), Ordering::Relaxed);
        if let Some(spans) = &self.spans {
            if spans.enabled() {
                let now = spans.now_ns();
                self.close_open_span(spans, now);
                self.span_stage.store(spans.intern(name), Ordering::Relaxed);
                self.span_start.store(now, Ordering::Relaxed);
            }
        }
    }

    /// Closes the open stage span, if any (idempotent). The shared fabric
    /// calls this when the rank's job closure returns, so the final stage
    /// is bracketed too.
    pub fn finish_spans(&self) {
        if let Some(spans) = &self.spans {
            if spans.enabled() {
                let now = spans.now_ns();
                self.close_open_span(spans, now);
            }
        }
    }

    fn close_open_span(&self, spans: &Arc<SpanCollector>, now: u64) {
        let stage = self.span_stage.swap(u16::MAX, Ordering::Relaxed);
        if stage != u16::MAX {
            spans.record(crate::span::StageSpan {
                job: self.job_id,
                rank: self.transport.rank() as u16,
                stage,
                start_ns: self.span_start.load(Ordering::Relaxed),
                end_ns: now,
            });
        }
    }

    /// The underlying transport (for tests and wrappers).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Application point-to-point send (recorded as shuffle traffic).
    ///
    /// NIC emulation is *asynchronous with backpressure*: the payload is
    /// handed to the fabric immediately and the sender then blocks for the
    /// transfer's setup latency plus the payload's egress drain time, so a
    /// node's shuffle wall-clock reflects exactly how long its emulated NIC
    /// was occupied — the quantity the shuffle fabrics differ in.
    pub fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        // Bound-check before the trace mask shift (`1u128 << dst`) so an
        // out-of-range destination errors instead of overflowing.
        if dst >= self.world_size() {
            return Err(NetError::InvalidRank {
                rank: dst,
                world: self.world_size(),
            });
        }
        let bytes = payload.len() as u64;
        self.transport.send(dst, self.scope(tag), payload)?;
        // Recorded only after the fabric accepted the payload, so a failed
        // send leaves no phantom traffic in the trace (the multicast path
        // keeps the same invariant).
        self.trace.record_transfer_for(
            self.job_id,
            self.stage.load(Ordering::Relaxed),
            self.rank(),
            1u128 << dst,
            bytes,
            0,
            1,
            EventKind::AppUnicast,
        );
        if let Some(nic) = &self.nic {
            nic.pace_transfer();
            nic.charge(bytes);
        }
        Ok(())
    }

    /// Barrier control send — an empty frame, excluded from
    /// communication-load accounting and from NIC pacing (the per-transfer
    /// latency would charge every stage transition a shuffle's worth of
    /// setup time). `tag` is already scoped.
    fn send_internal(&self, dst: usize, tag: Tag) -> Result<()> {
        self.trace.record_transfer_for(
            self.job_id,
            self.stage.load(Ordering::Relaxed),
            self.rank(),
            1u128 << dst,
            0,
            0,
            1,
            EventKind::Internal,
        );
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

    /// SPMD group validation: members sorted/unique and in range, caller
    /// and root both present, root supplies the payload.
    fn validate_group(&self, root: usize, members: &[usize], data: &Option<Bytes>) -> Result<()> {
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
        } else if self.rank() == root && data.is_none() {
            "root must supply the payload".into()
        } else {
            return Ok(());
        };
        Err(NetError::CollectiveMisuse { what: misuse })
    }

    /// Multicast within a member group over the configured
    /// [`ShuffleFabric`] — the path the coded shuffle takes.
    ///
    /// `members` must be sorted ascending and contain both `root` and the
    /// caller, and every member must call with the same arguments (SPMD).
    /// The root passes `Some(payload)`, others `None`; everyone returns the
    /// payload.
    /// All receivers get the payload directly from the root (no relaying),
    /// so the receive path is fabric-independent; what changes per fabric
    /// is how the root's copies leave the machine:
    ///
    /// * `SerialUnicast` — one blocking unicast per receiver, each paying
    ///   its own NIC latency and egress bytes;
    /// * `Fanout` — one paced transfer whose `m` copies stream through
    ///   [`Transport::multicast`] concurrently (egress still moves
    ///   `m × bytes`);
    /// * `Multicast` — one paced transfer charged `bytes × (1 + α·log2 m)`
    ///   once: genuine one-to-many;
    /// * `UdpMulticast` — identical accounting to `Multicast`, but the
    ///   transport underneath sends one physical IP-multicast datagram
    ///   stream per packet ([`udp`](crate::udp)) instead of emulating the
    ///   single egress crossing.
    ///
    /// The trace records **one** `Multicast` event (bytes counted once —
    /// the paper's communication-load convention) whose
    /// [`wire_copies`](crate::trace::TraceEvent::wire_copies) is the
    /// fabric's egress frame count.
    pub fn multicast(
        &self,
        root: usize,
        members: &[usize],
        tag: Tag,
        data: Option<Bytes>,
    ) -> Result<Bytes> {
        self.multicast_with_overhead(root, members, tag, data, 0)
    }

    /// [`multicast`](Self::multicast) with an explicit protocol-overhead
    /// byte count recorded on the trace event (coded-packet headers).
    pub fn multicast_with_overhead(
        &self,
        root: usize,
        members: &[usize],
        tag: Tag,
        data: Option<Bytes>,
        overhead: u64,
    ) -> Result<Bytes> {
        let tag = self.scope(tag);
        self.validate_group(root, members, &data)?;
        if self.rank() != root {
            return self.transport.recv(root, tag);
        }
        let payload = data.expect("validated: root supplies payload");
        let dsts: Vec<usize> = members.iter().copied().filter(|&n| n != root).collect();
        let fanout = dsts.len();
        // The trace event is recorded only after the fabric accepted every
        // copy, so a failed dispatch leaves no phantom traffic behind for
        // the accounting and the netsim oracle.
        let record = |comm: &Self| {
            comm.trace.record_transfer_for(
                comm.job_id,
                comm.stage.load(Ordering::Relaxed),
                comm.rank(),
                group_mask(members, root),
                payload.len() as u64,
                overhead,
                comm.fabric.wire_copies(fanout) as u16,
                EventKind::Multicast,
            );
        };
        if fanout == 0 {
            record(self);
            return Ok(payload);
        }
        // NIC pacing is asynchronous-with-backpressure (see `send`): copies
        // reach the fabric first, then the sender blocks for as long as its
        // emulated NIC stays occupied under this fabric —
        // `m·(L + B/rate)` serial, `L + m·B/rate` fanout,
        // `L + B·(1 + α·log2 m)/rate` native multicast — mirroring
        // `cts-netsim`'s per-fabric model term for term.
        let bytes = payload.len() as u64;
        match self.fabric {
            ShuffleFabric::SerialUnicast => {
                for &dst in &dsts {
                    self.transport.send(dst, tag, payload.clone())?;
                    if let Some(nic) = &self.nic {
                        nic.pace_transfer();
                        nic.charge(bytes);
                    }
                }
            }
            ShuffleFabric::Fanout => {
                self.transport.multicast(&dsts, tag, payload.clone())?;
                if let Some(nic) = &self.nic {
                    nic.pace_transfer();
                    nic.charge(bytes.saturating_mul(fanout as u64));
                }
            }
            // The native and physical multicast fabrics share one
            // accounting arm: the payload is charged once (with the
            // α-penalty) and traced with `wire_copies == 1` — for
            // `UdpMulticast` the single egress crossing is what the
            // socket actually does rather than an emulation convention;
            // only the substrate underneath differs.
            ShuffleFabric::Multicast | ShuffleFabric::UdpMulticast => {
                self.transport.multicast(&dsts, tag, payload.clone())?;
                if let Some(nic) = &self.nic {
                    nic.pace_transfer();
                    nic.charge_scaled(bytes, nic.profile().multicast_penalty(fanout as u32));
                }
            }
        }
        record(self);
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFabric;

    fn comms(k: usize) -> Vec<Communicator> {
        fabric_comms(k, ShuffleFabric::default()).0
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
        let comms = comms(4);
        let counter = AtomicUsize::new(0);
        run_spmd(&comms, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // After the barrier, everyone must have incremented.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
            c.barrier().unwrap();
        });
    }

    fn fabric_comms(k: usize, fabric: ShuffleFabric) -> (Vec<Communicator>, Arc<TraceCollector>) {
        let fab = LocalFabric::new(k);
        let trace = Arc::new(TraceCollector::new(true));
        let comms = (0..k)
            .map(|r| {
                Communicator::new(Arc::new(fab.endpoint(r)), Arc::clone(&trace), None)
                    .with_fabric(fabric)
            })
            .collect();
        (comms, trace)
    }

    #[test]
    fn multicast_delivers_on_every_fabric() {
        for fabric in ShuffleFabric::ALL {
            let (comms, _) = fabric_comms(5, fabric);
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
            // The accounting arm of the physical fabric is exercised here
            // over the in-memory transport: the trace must charge exactly
            // one egress crossing whatever substrate realizes it.
            (ShuffleFabric::UdpMulticast, 1),
        ] {
            let (comms, trace) = fabric_comms(4, fabric);
            run_spmd(&comms, |c| {
                c.set_stage("Shuffle");
                let data = (c.rank() == 0).then(|| Bytes::from(vec![1u8; 200]));
                c.multicast(0, &[0, 1, 2, 3], Tag::new(Tag::BCAST, 0), data)
                    .unwrap();
            });
            let t = trace.snapshot();
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
        let (comms, _) = fabric_comms(3, ShuffleFabric::Multicast);
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
        let (comms, _) = fabric_comms(3, ShuffleFabric::Multicast);
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
        let (comms, _) = fabric_comms(2, ShuffleFabric::Multicast);
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
        let fabric = LocalFabric::new(2);
        let trace = Arc::new(TraceCollector::new(true));
        let comm_for = |rank: usize, slot: u8, id: u32| {
            Communicator::new(Arc::new(fabric.endpoint(rank)), Arc::clone(&trace), None)
                .with_job(slot, id)
        };
        let (a0, a1) = (comm_for(0, 1, 101), comm_for(1, 1, 101));
        let (b0, b1) = (comm_for(0, 2, 202), comm_for(1, 2, 202));
        // Job B's payload is already queued when job A sends on the same
        // logical (src, tag); A must still receive A's payload.
        b0.send(1, Tag::app(7), Bytes::from_static(b"job-b"))
            .unwrap();
        a0.send(1, Tag::app(7), Bytes::from_static(b"job-a"))
            .unwrap();
        assert_eq!(a1.recv(0, Tag::app(7)).unwrap(), "job-a");
        assert_eq!(b1.recv(0, Tag::app(7)).unwrap(), "job-b");
        // The shared trace separates per job id.
        let t = trace.snapshot();
        assert_eq!(t.jobs(), vec![101, 202]);
        assert_eq!(t.for_job(101).total_bytes(), 5);
        assert_eq!(t.for_job(202).total_bytes(), 5);
    }

    #[test]
    fn job_scoped_collectives_do_not_cross_jobs() {
        let fabric = LocalFabric::new(3);
        let trace = Arc::new(TraceCollector::new(false));
        let job_comms = |slot: u8| -> Vec<Communicator> {
            (0..3)
                .map(|r| {
                    Communicator::new(Arc::new(fabric.endpoint(r)), Arc::clone(&trace), None)
                        .with_job(slot, slot as u32)
                })
                .collect()
        };
        let a = job_comms(1);
        let b = job_comms(2);
        // Run both jobs' multicasts concurrently over the same endpoints
        // with the same tag; payloads must stay within their job.
        std::thread::scope(|s| {
            for comms in [&a, &b] {
                for c in comms.iter() {
                    s.spawn(move || {
                        let (_, id) = c.job();
                        let data = (c.rank() == 0).then(|| Bytes::from(vec![id as u8; 8]));
                        let got = c
                            .multicast(0, &[0, 1, 2], Tag::new(Tag::BCAST, 3), data)
                            .unwrap();
                        assert_eq!(got, Bytes::from(vec![id as u8; 8]), "job {id}");
                        c.barrier().unwrap();
                    });
                }
            }
        });
    }
}
