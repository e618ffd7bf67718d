//! The engine: one staged pipeline for every scheme in the paper —
//! placement → \[CodeGen\] → Map → Pack/Encode → Shuffle → Unpack/Decode
//! → Reduce, each stage one `set_stage` bracket closed by one
//! synchronization (the stages are described in the crate docs). What
//! differs between conventional TeraSort (§III), CodedTeraSort (§IV) and
//! the pod-partitioned scheme (§VI) is only the [`Layout`]: which files a
//! node maps, which multicast groups it codes in, and which intermediates
//! carry no side information and therefore travel as plain unicasts.

use std::collections::HashMap;
use std::time::Instant;

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline, DecodedSegment};
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::exec::WorkerPool;
use cts_core::groups::{MulticastGroups, PodGroups};
use cts_core::intermediate::MapOutputStore;
use cts_core::metrics::Counter;
use cts_core::packet::CodedPacket;
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::solve::mds_parts;
use cts_core::subset::NodeSet;
use cts_net::cluster::{JobBinding, SharedFabric};
use cts_net::fault::CrashPoint;
use cts_net::message::Tag;
use cts_net::registry::MembershipView;
use cts_net::span::SpanLog;
use cts_net::trace::Trace;
use cts_net::{Communicator, Key, NetError};
use cts_netsim::stats::{NodeStats, RunStats};
use parking_lot::Mutex;

use crate::error::{EngineError, JobReport, Result};
use crate::recover::{adopt_dead_partitions, reduce_in_file_order, Recovery};
use crate::stage::{stages, EngineConfig, RecoveryMode, WallTimes};
use crate::workload::{InputFormat, Workload};

/// The result of an engine run.
#[derive(Debug)]
pub struct JobOutcome {
    /// Final output of each partition (`outputs[p]` reduced by node `p`).
    pub outputs: Vec<Vec<u8>>,
    /// Per-node measured work counts (feed to `cts_netsim::PerfModel`).
    pub stats: RunStats,
    /// Recorded transfer trace.
    pub trace: Trace,
    /// Recorded per-rank stage spans (the timeline's raw material).
    pub spans: SpanLog,
    /// Wall-clock stage times (slowest node per stage), derived from
    /// `spans`.
    pub wall: WallTimes,
}

/// Where one intermediate `I^t_S` goes after its holder mapped file `F_S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// `t` is the holder itself: input to its own Reduce.
    Keep,
    /// Side information for a multicast group (`S ∪ {t}`): XORed into the
    /// holder's coded packets and cancelled out of its peers'.
    Code,
    /// No receiver could cancel anything against it: sent as is.
    Unicast,
    /// Somebody else is responsible (`t` maps `F_S` itself, or another
    /// holder of `S` sends the piece).
    Drop,
}

/// Who maps what, who codes with whom, and what travels uncoded: `K`
/// nodes in pods of `g` (one pod of `K` for the flat schemes), each pod
/// owning an equal slice of the input placed `r`-fold inside the pod.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Layout {
    k: usize,
    g: usize,
    r: usize,
}

fn bad_config(e: cts_core::CodedError) -> EngineError {
    EngineError::BadConfig {
        what: e.to_string(),
    }
}

impl Layout {
    /// The paper's schemes: `r = 1` is conventional TeraSort, `r > 1`
    /// CodedTeraSort.
    pub(crate) fn flat(k: usize, r: usize) -> Result<Layout> {
        PlacementPlan::new(k, r).map_err(bad_config)?;
        Ok(Layout { k, g: k, r })
    }

    /// Pods of `g` nodes (`g` divides `K`), redundancy `r < g` within each.
    pub(crate) fn pods(k: usize, g: usize, r: usize) -> Result<Layout> {
        PodGroups::new(k, r, g).map_err(bad_config)?;
        Ok(Layout { k, g, r })
    }

    /// The in-pod placement (pod-local node and file ids).
    fn plan(&self) -> PlacementPlan {
        PlacementPlan::new(self.g, self.r).expect("validated at construction")
    }

    /// The in-pod multicast groups, if the layout has any. A group has
    /// `r + 1` members and each of its packets XORs `r` segments of which a
    /// receiver cancels `r − 1`; at `r = 1` there is nothing to cancel, so a
    /// "group" is a pair of plain unicasts — no groups at all. Nor at
    /// `r = g`, where every node maps everything.
    fn groups(&self) -> Option<MulticastGroups> {
        (1 < self.r && self.r < self.g)
            .then(|| MulticastGroups::new(self.g, self.r).expect("validated"))
    }

    /// Multicast groups over all pods.
    fn num_groups(&self) -> u64 {
        self.groups()
            .map_or(0, |g| (self.k / self.g) as u64 * g.num_groups())
    }

    /// First rank of `node`'s pod.
    fn base_of(&self, node: usize) -> usize {
        node / self.g * self.g
    }

    /// A pod-local node set of `node`'s pod, in global ranks.
    fn globalize(&self, local: NodeSet, node: usize) -> NodeSet {
        NodeSet::from_bits(local.bits() << self.base_of(node))
    }

    /// Routes `I^target_file` at `holder` (`file` in global ranks).
    pub(crate) fn route(&self, holder: usize, file: NodeSet, target: usize) -> Route {
        if target == holder {
            Route::Keep
        } else if file.contains(target) {
            Route::Drop
        } else if self.r > 1 && self.base_of(target) == self.base_of(holder) {
            Route::Code
        } else if file.min() == Some(holder) {
            Route::Unicast
        } else {
            Route::Drop
        }
    }

    /// Every piece that reaches `target` as a plain unicast, by sender then
    /// file, as `(sender, pod-local id, global node set)` — both ends
    /// enumerate this, so a piece needs no header: its tag is the id.
    fn unicasts_to(&self, target: usize) -> Vec<(usize, FileId, NodeSet)> {
        let plan = self.plan();
        let mut expected = Vec::new();
        // A pod that codes sends its own nodes nothing plain.
        let plain = |&s: &usize| self.r == 1 || self.base_of(s) != self.base_of(target);
        for sender in (0..self.k).filter(|&s| s != target && plain(&s)) {
            for fid in plan.files_of_node(sender - self.base_of(sender)) {
                let file = self.globalize(plan.nodes_of_file(fid), sender);
                if self.route(sender, file, target) == Route::Unicast {
                    expected.push((sender, fid, file));
                }
            }
        }
        expected
    }

    /// Coordinator role: splits the input and stages each node's file set
    /// (zero-copy slices of the shared input buffer).
    fn place(&self, format: InputFormat, input: &Bytes) -> Vec<Vec<(FileId, Bytes)>> {
        let plan = self.plan();
        let pod_files: Vec<Vec<Bytes>> = format
            .split(input, self.k / self.g)
            .iter()
            .map(|slice| format.split(slice, plan.num_files() as usize))
            .collect();
        (0..self.k)
            .map(|node| {
                plan.files_of_node(node % self.g)
                    .map(|fid| (fid, pod_files[node / self.g][fid.0 as usize].clone()))
                    .collect()
            })
            .collect()
    }
}

/// Runs one job on an ephemeral fabric at [`JobBinding::ROOT`] — the
/// one-shot path and the resident runtime's per-job path are the same
/// code.
pub(crate) fn run<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    layout: Layout,
) -> Result<JobOutcome> {
    let fabric = SharedFabric::build(&cfg.cluster)?;
    run_on(&fabric, JobBinding::ROOT, workload, input, cfg, layout)
}

/// Runs one job on an existing [`SharedFabric`], isolated under `binding`.
pub(crate) fn run_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    layout: Layout,
) -> Result<JobOutcome> {
    let k = layout.k;
    if k != fabric.k() {
        return Err(EngineError::BadConfig {
            what: format!("job wants K = {k} on a fabric of {} ranks", fabric.k()),
        });
    }
    let (tag_bits, tag_space) = if binding.slot == 0 {
        (24, "24-bit tag")
    } else {
        (Tag::JOB_SEQ_BITS, "18-bit job-scoped tag")
    };
    let files = layout.plan().num_files();
    if layout.num_groups().max(files) >= 1u64 << tag_bits {
        return Err(EngineError::BadConfig {
            what: format!(
                "{} multicast groups / {files} files per pod exceed the {tag_space} space",
                layout.num_groups()
            ),
        });
    }
    if cfg.recovery == RecoveryMode::Speculative {
        if cfg.decode != DecodeMode::Quorum || !cfg.field.supports_quorum() || layout.r < 2 {
            return Err(EngineError::BadConfig {
                what: "speculative recovery requires GF(256), quorum decode, and r >= 2 \
                       (the MDS quorum absorbs one dead sender per group)"
                    .into(),
            });
        }
        if binding.slot != 0 {
            return Err(EngineError::BadConfig {
                what: "speculative recovery requires an exclusive (slot-0) fabric: \
                       heartbeats and repair traffic are unscoped and would poison \
                       cohabiting jobs"
                    .into(),
            });
        }
        if layout.g != k {
            // The adoption planner has no rule for cross-pod pieces yet.
            return Err(EngineError::BadConfig {
                what: "pod layouts do not support failure recovery; use the flat layout".into(),
            });
        }
        if files >= 1 << 16 {
            return Err(EngineError::BadConfig {
                what: format!("{files} files exceed the 16-bit recovery tag space"),
            });
        }
    }

    let inputs = layout.place(workload.format(), &input);
    // A rank that fails shuts the job's endpoints down so its peers fail
    // too instead of waiting on it; the error worth reporting is the one
    // that came first, not the `Disconnected`s the teardown hands everybody
    // else.
    let first_failure: Mutex<Option<EngineError>> = Mutex::new(None);
    let run = fabric.run_job(binding, cfg.cluster.nic, inputs, |comm, my_files| {
        let outcome = node_main(workload, comm, my_files, cfg, layout);
        if let Err(e) = &outcome {
            first_failure.lock().get_or_insert_with(|| e.clone());
            comm.abort();
        }
        outcome
    })?;
    if let Some(e) = first_failure.into_inner() {
        return Err(e);
    }

    let mut outputs: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
    let mut stats = RunStats::new(k, layout.r);
    stats.num_groups = layout.num_groups();
    for (rank, result) in run.results.into_iter().enumerate() {
        // A crash-injected rank's slot is filled by its successor's adopted
        // output (which wins over anything the "dead" rank still produced);
        // its stats stay default — none of its work survived.
        if let Some(done) = result? {
            outputs[rank].get_or_insert(done.output);
            stats.per_node[rank] = done.stats;
            for (dead, output) in done.adopted {
                outputs[dead] = Some(output);
            }
        }
    }
    let outputs: Vec<Vec<u8>> = outputs
        .into_iter()
        .enumerate()
        .map(|(rank, o)| {
            o.ok_or_else(|| EngineError::Protocol {
                what: format!("rank {rank} crashed and no survivor adopted its partition"),
            })
        })
        .collect::<Result<_>>()?;
    Ok(JobOutcome {
        outputs,
        stats,
        trace: run.trace,
        wall: WallTimes::from_spans(&run.spans),
        spans: run.spans,
    })
}

/// What a rank that ran to the end hands back to the driver. A rank that
/// was crash-injected while recovery carried on without it hands back
/// `None`.
struct Finished {
    output: Vec<u8>,
    /// Partitions adopted on behalf of dead ranks.
    adopted: Vec<(usize, Vec<u8>)>,
    stats: NodeStats,
}

/// One multicast group of a rank's pod, as CodeGen materializes it.
struct Group {
    /// Pod-local group id.
    id: u64,
    tag: Tag,
    /// Pod-local member set (what the coder is addressed in).
    members: NodeSet,
    /// Members as ascending global ranks (what the fabric is addressed in).
    ranks: Vec<usize>,
}

/// The per-rank state every stage touches.
struct Rank<'a> {
    comm: &'a Communicator,
    cfg: &'a EngineConfig,
    me: usize,
    stats: NodeStats,
    /// `None`: stages close on plain barriers. `Some`: the health layer is
    /// running and every barrier is the alive-aware dead-mask exchange, so
    /// a dead rank can never strand a stage transition.
    recovery: Option<Box<Recovery>>,
}

impl Rank<'_> {
    /// Closes a stage. Every rank walks the same sequence of sync points,
    /// so the recovery epochs line up by construction. Returns the agreed
    /// dead mask (0 without the health layer).
    fn sync(&mut self) -> Result<u128> {
        match &mut self.recovery {
            None => Ok(self.comm.barrier().map(|()| 0)?),
            Some(rec) => rec.sync(self.comm),
        }
    }

    /// Fires the configured crash injection if this is its point. With
    /// recovery off the rank fails the job with the crash's identity; with
    /// recovery on it silences its heartbeat — the only externally
    /// observable signal — and returns `true` so the caller exits empty
    /// handed, leaving its transport reachable (a fail-stop process, not a
    /// severed network).
    fn crashed_at(&mut self, point: CrashPoint) -> Result<bool> {
        if self.cfg.crash_point_of(self.me) != Some(point) {
            return Ok(false);
        }
        match &mut self.recovery {
            None => Err(EngineError::RankDied {
                rank: self.me,
                point,
            }),
            Some(rec) => {
                rec.beat.stop();
                Ok(true)
            }
        }
    }

    /// The crash check of the coded exchange, before this rank's group
    /// send number `sent` (`last`: after its final one, where a budget at
    /// or past the total dies having sent everything).
    fn crashed_after_sends(&mut self, sent: u64, last: bool) -> Result<bool> {
        match self.cfg.crash_point_of(self.me) {
            Some(point @ CrashPoint::AfterSends(n)) if n == sent || (last && n > sent) => {
                self.crashed_at(point)
            }
            _ => Ok(false),
        }
    }

    /// The send half of the Shuffle, the same for every layout and decode
    /// discipline: this rank's packet for each group it owns, in schedule
    /// order over the configured
    /// [`ShuffleFabric`](cts_net::fabric::ShuffleFabric), then its unicast
    /// outbox, all posted back to back before it receives anything. A send
    /// returns when the rank's NIC has drained it, not when a peer took it,
    /// so the NIC is busy from the stage's first microsecond to the rank's
    /// last byte and no rank waits on another to start. Returns true if
    /// this rank crash-stopped.
    fn post_sends(
        &mut self,
        groups: &[&Group],
        packets: Vec<(Bytes, u64)>,
        outbox: Vec<(usize, FileId, Bytes)>,
    ) -> Result<bool> {
        for (sent, (group, (packet, header))) in groups.iter().zip(packets).enumerate() {
            if self.crashed_after_sends(sent as u64, false)? {
                return Ok(true);
            }
            self.stats.sent_bytes += packet.len() as u64;
            self.comm.multicast_with_overhead(
                self.me,
                &group.ranks,
                group.tag,
                Some(packet),
                header,
            )?;
        }
        if self.crashed_after_sends(groups.len() as u64, true)? {
            return Ok(true);
        }
        for (target, fid, piece) in outbox {
            self.stats.sent_bytes += piece.len() as u64;
            self.comm.send(target, Tag::app(fid.0 as u32), piece)?;
        }
        Ok(false)
    }
}

/// Algorithm 2 with its working state: parses each received packet
/// (zero-copy, reusing one shell), cancels it against the local Map
/// outputs and collects the intermediates that complete.
struct Decode<'a> {
    pipeline: DecodePipeline,
    shell: CodedPacket,
    store: &'a MapOutputStore,
    /// Completed intermediates, keyed by pod-local file.
    recovered: Vec<(NodeSet, Vec<u8>)>,
    /// Live decode progress: one tick per decoded packet, readable mid-job
    /// through the daemon's metric registry (`cts stats`, `/metrics`).
    progress: Option<std::sync::Arc<Counter>>,
}

impl Decode<'_> {
    /// Decodes one packet; true if it completed its group.
    fn packet(&mut self, raw: &Bytes, stats: &mut NodeStats) -> Result<bool> {
        self.shell.read_wire(raw)?;
        let work = decode_work(&self.shell);
        let done = self.pipeline.accept(&self.shell, self.store)?;
        Ok(self.collect(work, done, stats))
    }

    /// Accounts one decoded packet and keeps the intermediate it completed,
    /// if any.
    fn collect(
        &mut self,
        work: u64,
        done: Option<(NodeSet, Vec<u8>)>,
        stats: &mut NodeStats,
    ) -> bool {
        stats.decode_work_bytes += work;
        if let Some(c) = &self.progress {
            c.inc();
        }
        let completed = done.is_some();
        self.recovered.extend(done);
        completed
    }
}

/// Decode work: XOR `r-1` known segments against the payload plus the
/// final merge — `r × payload` touched bytes, which at scale is the sum of
/// the packet's true segment lengths.
fn decode_work(packet: &CodedPacket) -> u64 {
    packet.seg_lens.iter().map(|(_, l)| u64::from(*l)).sum()
}

fn node_main<W: Workload>(
    workload: &W,
    comm: &Communicator,
    my_files: Vec<(FileId, Bytes)>,
    cfg: &EngineConfig,
    layout: Layout,
) -> Result<Option<Finished>> {
    let (k, g, r) = (layout.k, layout.g, layout.r);
    let me = comm.rank();
    let base = layout.base_of(me);
    let local = me - base;
    let plan = layout.plan();
    let pool = WorkerPool::new(cfg.threads);
    let mut rank = Rank {
        comm,
        cfg,
        me,
        stats: NodeStats::default(),
        recovery: (cfg.recovery == RecoveryMode::Speculative)
            .then(|| Box::new(Recovery::start(comm, cfg.heartbeat))),
    };

    // ---- CodeGen -------------------------------------------------------
    // Every group of the pod with its sorted member list (the paper's
    // MPI_Comm_split loop over all C(g, r+1) groups); skipped by layouts
    // that have none.
    let mut schedule: Vec<Group> = Vec::new();
    if let Some(groups) = layout.groups() {
        comm.set_stage(stages::CODEGEN);
        let first = (base / g) as u64 * groups.num_groups();
        schedule = groups
            .iter_groups()
            .map(|(gid, members)| Group {
                id: gid.0,
                tag: Tag::new(Tag::BCAST, (first + gid.0) as u32),
                members,
                ranks: layout.globalize(members, me).to_vec(),
            })
            .collect();
        rank.sync()?;
    }
    let my_groups: Vec<&Group> = schedule
        .iter()
        .filter(|group| group.members.contains(local))
        .collect();

    // ---- Map -----------------------------------------------------------
    comm.set_stage(stages::MAP);
    // Files hash independently: fan the per-file Map out over the worker
    // pool (results come back in file order, so the outcome is identical
    // for any thread count). A single file is chunked instead.
    let mapped: Vec<Vec<Vec<u8>>> = match &my_files[..] {
        [(_, file)] => vec![workload.map_file_par(file, k, &pool)],
        files => pool.map(files.len(), |i| {
            let file = layout.globalize(plan.nodes_of_file(files[i].0), me);
            let mut parts = workload.map_file(&files[i].1, k);
            // Free what `route` drops before the next file allocates: a rank's
            // heap then peaks lower, and its Reduce output still fits its arena.
            for t in (0..k).filter(|&t| layout.route(me, file, t) == Route::Drop) {
                parts[t] = Vec::new();
            }
            parts
        }),
    };
    // What the coder reads, in pod-local ids.
    let mut store = MapOutputStore::new();
    // This rank's reduce input, keyed by global file.
    let mut pieces: Vec<(u64, Bytes)> = Vec::new();
    // Plain unicasts: (target, file, piece).
    let mut outbox: Vec<(usize, FileId, Bytes)> = Vec::new();
    for ((fid, data), intermediates) in my_files.iter().zip(mapped) {
        let file_local = plan.nodes_of_file(*fid);
        let file = layout.globalize(file_local, me);
        rank.stats.map_input_bytes += data.len() as u64;
        rank.stats.files_mapped += 1;
        for (t, value) in intermediates.into_iter().enumerate() {
            match layout.route(me, file, t) {
                Route::Keep => pieces.push((file.bits(), Bytes::from(value))),
                Route::Code => {
                    store.insert(t - base, file_local, Bytes::from(value));
                }
                Route::Unicast => outbox.push((t, *fid, Bytes::from(value))),
                Route::Drop => {}
            }
        }
    }
    if rank.crashed_at(CrashPoint::MidMap)? {
        return Ok(None);
    }
    rank.sync()?;

    // ---- Pack / Encode (Algorithm 1) -------------------------------------
    comm.set_stage(stages::PACK_ENCODE);
    // Staggered destination order (me+1, me+2, …): every rank sends at the
    // same time, so at any instant each receiver is fed by one peer, not all.
    outbox.sort_by_key(|&(t, fid, _)| (fid, (t + k - me) % k));
    rank.stats.pack_bytes = outbox.iter().map(|(_, _, b)| b.len() as u64).sum();
    if !my_groups.is_empty() {
        // Calibration convention: Encode cost covers serializing/splitting
        // all kept intermediates (the XOR is folded into the calibrated
        // rate).
        rank.stats.pack_bytes +=
            store.total_bytes() + pieces.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
    }
    let encoder = Encoder::with_field(g, r, local, cfg.field).expect("validated by driver");
    // Quorum decode needs MDS-mixed packets, which only GF(256) supports
    // (there is no nontrivial binary MDS code): over GF(2) the quorum
    // shuffle still takes packets as they come instead of sender by
    // sender, but sends the classic packets and needs all of them.
    let mds = cfg.decode == DecodeMode::Quorum && cfg.field.supports_quorum();
    // Groups encode independently: fan Algorithm 1 out over the pool, one
    // warm scratch per worker so the per-group loop is allocation-free
    // apart from the wire frame, which is written once, at its final size,
    // into the buffer that travels. Each packet's wire bytes split into a
    // *scalable* part (the mean segment length — the quantity that grows
    // linearly with input size) and an *overhead* part (the fixed header
    // plus zero-padding, which is a small-scale artifact: at paper scale
    // segments are megabytes and max ≈ mean). The model scales only the
    // scalable part.
    let encoded: Vec<Result<(Bytes, u64)>> =
        pool.map_with(my_groups.len(), EncodeScratch::new, |scratch, i| {
            let m = my_groups[i].members;
            let mut frame = Vec::new();
            let wire = &mut frame;
            let scalable = if mds {
                encoder.encode_group_mds_into(m, &store, scratch)?;
                CodedPacket::write_wire_mds(m, local, &scratch.seg_lens, &scratch.payload, wire);
                // MDS payloads are ≈ total/s (seg_lens carry the r whole
                // reconstruction lengths, each split into s parts).
                scratch.seg_len_sum() / (r as u64 * mds_parts(r + 1) as u64)
            } else {
                encoder.encode_group_into(m, &store, scratch)?;
                CodedPacket::write_wire(m, local, &scratch.seg_lens, &scratch.payload, wire);
                scratch.seg_len_sum() / r as u64
            };
            let overhead = wire.len() as u64 - scalable.min(wire.len() as u64);
            Ok((Bytes::from(frame), overhead))
        });
    // One packet per owned group, in schedule order.
    let packets = encoded.into_iter().collect::<Result<Vec<_>>>()?;
    if rank.crashed_at(CrashPoint::MidEncode)? {
        return Ok(None);
    }
    rank.sync()?;

    // ---- Shuffle ---------------------------------------------------------
    comm.set_stage(stages::SHUFFLE);
    let mut decode = Decode {
        pipeline: DecodePipeline::with_field(g, r, local, cfg.field)
            .expect("validated by driver")
            .with_decode(cfg.decode),
        shell: CodedPacket::empty(),
        store: &store,
        recovered: Vec::new(),
        progress: comm
            .metrics()
            .map(|h| h.counter("cts_decode_packets_total")),
    };
    // Post every send, then drain: what a rank receives is queued by the
    // time it asks, unless its sender is slower than it is.
    if rank.post_sends(&my_groups, packets, outbox)? {
        return Ok(None);
    }
    // All mode buffers packets for the Decode stage, as the paper executes;
    // quorum mode decodes inline and may leave late packets behind.
    let (received, late) = match cfg.decode {
        DecodeMode::All => (shuffle_all(&mut rank, &my_groups)?, Vec::new()),
        DecodeMode::Quorum => {
            let late = shuffle_quorum(&mut rank, &my_groups, r, &mut decode)?;
            (Vec::new(), late)
        }
    };
    // Whatever travels uncoded (paper §V-A: one flow per intermediate).
    for (sender, fid, file) in layout.unicasts_to(me) {
        let piece = comm.recv(sender, Tag::app(fid.0 as u32))?;
        rank.stats.recv_bytes += piece.len() as u64;
        rank.stats.unpack_bytes += piece.len() as u64;
        pieces.push((file.bits(), piece));
    }
    rank.sync()?;
    // Every sender has issued all its sends by now, so on the in-memory
    // fabric whatever the quorum did not wait for sits in the mailbox:
    // discard it, or the next job on this slot of a resident fabric would
    // receive it as its own. Best effort — a dead sender's entry errors.
    for (tag, sender) in late {
        let _ = comm.transport().try_recv(sender, tag);
    }

    // ---- Unpack / Decode (Algorithm 2) ------------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    if pool.threads() > 1 && received.len() > 1 {
        // Packets decode independently (Algorithm 2 is per-packet XOR
        // cancellation); only the final segment assembly is sequential.
        // The fan-out runs in *waves*: each wave decodes a bounded batch
        // (packets parse zero-copy into per-worker shells, accumulators
        // come from a per-worker sharded checkout of the pipeline's pool),
        // then assembles it, returning the completed groups' buffers to
        // the pool before the next wave draws from it. Receive order is
        // group-major, so a wave's completions refill the pool for the
        // next one — steady-state waves reuse buffers instead of
        // allocating one segment per packet — and results return in
        // receive order, so the outcome matches the serial path byte for
        // byte.
        let decoder = decode.pipeline.decoder().clone();
        let wave = (pool.threads() * 16).max(64);
        for batch in received.chunks(wave) {
            let per_worker = batch.len().div_ceil(pool.threads());
            let segments: Vec<Result<(u64, DecodedSegment)>> = pool.map_with(
                batch.len(),
                || {
                    (
                        CodedPacket::empty(),
                        decode.pipeline.segment_shard(per_worker),
                    )
                },
                |(shell, shard), i| {
                    shell.read_wire(&batch[i])?;
                    // Under process-wide lease contention a worker may
                    // cover more than `per_worker` packets: top the
                    // shard back up (one lock per refill) instead of
                    // falling through to the pool on every packet.
                    if shard.pooled() == 0 {
                        shard.refill(per_worker);
                    }
                    let mut acc = shard.get();
                    let info = decoder.decode_packet_into(shell, &store, &mut acc)?;
                    Ok((
                        decode_work(shell),
                        DecodedSegment {
                            file: info.file,
                            sender: info.sender,
                            position: info.position,
                            data: acc,
                        },
                    ))
                },
            );
            for item in segments {
                let (work, seg) = item?;
                let done = decode.pipeline.accept_segment(seg)?;
                decode.collect(work, done, &mut rank.stats);
            }
        }
    } else {
        for raw in &received {
            decode.packet(raw, &mut rank.stats)?;
        }
    }
    if decode.pipeline.in_flight() != 0 || decode.recovered.len() != my_groups.len() {
        return Err(EngineError::Protocol {
            what: format!(
                "node {me}: recovered {}/{} intermediates with {} incomplete",
                decode.recovered.len(),
                my_groups.len(),
                decode.pipeline.in_flight()
            ),
        });
    }
    // Everything this node reduces: locally mapped, unicast and decoded
    // pieces, read by Reduce where they lie.
    pieces.extend(
        decode
            .recovered
            .into_iter()
            .map(|(file, v)| (layout.globalize(file, me).bits(), Bytes::from(v))),
    );
    rank.sync()?;
    if rank.crashed_at(CrashPoint::PreReduce)? {
        return Ok(None);
    }

    // ---- Recover: speculative re-execution --------------------------------
    // This sync fixes the canonical dead set; survivors then rebuild each
    // dead rank's partition on its successor.
    let mut adopted: Vec<(usize, Vec<u8>)> = Vec::new();
    if rank.recovery.is_some() {
        comm.set_stage(stages::RECOVER);
        let dead = rank.sync()?;
        if dead != 0 {
            adopted = adopt_dead_partitions(
                workload,
                comm,
                &plan,
                &MembershipView::new(k, dead),
                &my_files,
                &store,
                &pool,
                &mut rank.stats,
            )?;
        }
    }

    // ---- Reduce ------------------------------------------------------------
    comm.set_stage(stages::REDUCE);
    let output = reduce_in_file_order(workload, me, &mut pieces, &pool, &mut rank.stats);
    rank.sync()?;
    Ok(Some(Finished {
        output,
        adopted,
        stats: rank.stats,
    }))
}

/// The paper's barrier-on-all receive: every packet of every owned group,
/// groups in schedule order and senders in rank order within a group —
/// the order the Decode stage consumes them in.
fn shuffle_all(rank: &mut Rank<'_>, groups: &[&Group]) -> Result<Vec<Bytes>> {
    let mut received = Vec::new();
    for group in groups {
        for &sender in group.ranks.iter().filter(|&&sender| sender != rank.me) {
            let packet = rank.comm.recv(sender, group.tag)?;
            rank.stats.recv_bytes += packet.len() as u64;
            received.push(packet);
        }
    }
    Ok(received)
}

/// The quorum receive: block for whichever expected packet arrives next,
/// decoding inline. Each group releases the moment its decode completes —
/// with MDS packets, after any `r − 1` of its `r` sends — so a straggling
/// or dead sender delays nothing but its own groups' last equation.
///
/// The wait is one [`Transport::recv_any`](cts_net::Transport::recv_any)
/// over every `(sender, tag)` still expected: only such a packet ends it,
/// and `idle_timeout` without one fails the job. With recovery
/// on it also returns once per heartbeat interval, because the health board
/// only advances when ticked.
///
/// Returns the keys whose packet never came (their group released without
/// it), as the transport sees them, for the caller to discard once the
/// stage has synchronized. That empties the mailbox on
/// the in-memory fabric, where a send is delivered before it returns; a
/// straggler still in flight on TCP/UDP at that point is not caught
/// (ROADMAP direction 4).
fn shuffle_quorum(
    rank: &mut Rank<'_>,
    groups: &[&Group],
    r: usize,
    decode: &mut Decode<'_>,
) -> Result<Vec<Key>> {
    let (comm, me) = (rank.comm, rank.me);
    let transport = comm.transport().as_ref();
    // Every key a packet is expected under, sorted: `recv_any` hands packets
    // out lowest tag first, so a group's packets come together and the group
    // releases (and frees its decode state) before the next one starts. A
    // key stays listed after its group released, so a late packet is taken
    // and dropped here rather than left for the next job.
    let tags: Vec<Tag> = groups.iter().map(|group| comm.scope(group.tag)).collect();
    let group_of: HashMap<Tag, usize> = tags.iter().enumerate().map(|(g, &t)| (t, g)).collect();
    let mut keys: Vec<Key> = (groups.iter().zip(&tags))
        .flat_map(|(group, &tag)| {
            let senders = group.ranks.iter().filter(|&&sender| sender != me);
            senders.map(move |&sender| (tag, sender))
        })
        .collect();
    keys.sort_unstable();
    // Per group: the senders heard from, one bit per rank.
    let mut heard = vec![0u128; groups.len()];
    let mut done = vec![false; groups.len()];
    let mut open = groups.len();
    let mut stalled_at = Instant::now() + rank.cfg.idle_timeout;
    let mut next_tick = Instant::now();
    while open > 0 {
        let tick_due = Instant::now() >= next_tick;
        if let Some(rec) = rank.recovery.as_mut().filter(|_| tick_due) {
            // Drain heartbeats and stop expecting packets from ranks
            // declared dead: the quorum needs only r − 1 of each group's r
            // senders, so a single death costs nothing. If any unfinished
            // group no longer has enough live senders left, the job is
            // unrecoverable — fail it with a structured report rather
            // than stall.
            rec.board.tick(transport);
            let listed = keys.len();
            keys.retain(|&(_, sender)| rec.board.is_alive(sender));
            if keys.len() < listed {
                let mut reachable: Vec<u32> = heard.iter().map(|h| h.count_ones()).collect();
                for &(tag, sender) in &keys {
                    let g = group_of[&tag];
                    reachable[g] += u32::from(heard[g] & (1 << sender) == 0);
                }
                let bad: Vec<u64> = (0..groups.len())
                    .filter(|&g| !done[g] && (reachable[g] as usize) < r - 1)
                    .map(|g| groups[g].id)
                    .collect();
                if !bad.is_empty() {
                    rec.beat.stop();
                    return Err(EngineError::Unrecoverable(JobReport {
                        dead: MembershipView::new(comm.world_size(), rec.board.dead_mask())
                            .dead_ranks(),
                        unrecoverable_groups: bad,
                        what: format!(
                            "node {me}: group(s) lost more senders than the single-death \
                             quorum margin tolerates"
                        ),
                    }));
                }
            }
            next_tick = Instant::now() + rank.cfg.heartbeat;
        }
        let deadline = match rank.recovery {
            Some(_) => stalled_at.min(next_tick),
            None => stalled_at,
        };
        let (hit, packet) = match transport.recv_any(&keys, Some(deadline)) {
            Ok(hit) => hit,
            Err(NetError::Timeout { .. }) if Instant::now() < stalled_at => continue,
            Err(NetError::Timeout { .. }) => {
                return Err(EngineError::Protocol {
                    what: format!(
                        "node {me}: quorum shuffle stalled with {open}/{} groups incomplete",
                        groups.len()
                    ),
                })
            }
            Err(e) => return Err(e.into()),
        };
        stalled_at = Instant::now() + rank.cfg.idle_timeout;
        let (tag, sender) = keys[hit];
        let g = group_of[&tag];
        heard[g] |= 1 << sender;
        if done[g] {
            continue;
        }
        rank.stats.recv_bytes += packet.len() as u64;
        if decode.packet(&packet, &mut rank.stats)? {
            done[g] = true;
            open -= 1;
        }
    }
    keys.retain(|&(tag, sender)| heard[group_of[&tag]] & (1 << sender) == 0);
    Ok(keys)
}
