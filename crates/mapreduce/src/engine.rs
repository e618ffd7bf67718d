//! The engine: one pipeline for every scheme in the paper — placement →
//! \[CodeGen\] → Map → Pack/Encode → Shuffle → Unpack/Decode → Reduce (the
//! stages are described in the crate docs). After CodeGen a rank walks it
//! in **one pass**: map a file, encode and post every packet that file
//! completes, map the next; then take what the peers sent in whatever order
//! it arrives — one receive loop for coded packets of both decode disciplines
//! and for plain pieces, the decoder saying when a group is complete. Every
//! piece of the rank's own partition goes to the partition's
//! [`Reducer`](crate::workload::Reducer) the moment the rank holds it whole,
//! and the moment the last one is in the rank reduces what could not start
//! without it; then it drains its NIC and synchronizes. The CPU stages run
//! while the rank's NIC works through its queue, so a job costs about
//! max(NIC, CPU) rather than their sum. Two synchronizations remain — after
//! CodeGen and at the end of the Shuffle, which is the end of the job: a
//! partition needs nothing from a peer but its pieces. What differs
//! between conventional TeraSort (§III), CodedTeraSort (§IV) and the
//! pod-partitioned scheme (§VI) is only the [`Layout`]: which files a node
//! maps, which multicast groups it codes in, and which intermediates carry
//! no side information and therefore travel as plain unicasts. Record
//! buffers — Map pieces, wire frames, decoded intermediates — are leased from
//! [`cts_core::pool::global`] and frozen through it, so a job's pages outlive
//! it for the next one; only the Reduce output is fresh, and the caller's.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::exec::WorkerPool;
use cts_core::groups::{MulticastGroups, PodGroups};
use cts_core::intermediate::MapOutputStore;
use cts_core::metrics::Counter;
use cts_core::packet::{wire_len_for, CodedPacket};
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::pool;
use cts_core::solve::mds_parts;
use cts_core::subset::NodeSet;
use cts_net::cluster::{JobBinding, SharedFabric};
use cts_net::fault::CrashPoint;
use cts_net::message::Tag;
use cts_net::registry::MembershipView;
use cts_net::span::SpanLog;
use cts_net::trace::Trace;
use cts_net::{Communicator, Key, NetError, NicMeter};
use cts_netsim::stats::{NodeStats, RunStats};
use parking_lot::Mutex;

use crate::error::{EngineError, JobReport, Result};
use crate::recover::{adopt_dead_partitions, Recovery};
use crate::stage::{stages, EngineConfig, RecoveryMode, WallTimes};
use crate::workload::{InputFormat, PartitionShape, Reducer, Workload};

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
    /// The token-bucket stalls of the job's emulated NICs; `None` for a job
    /// that ran unshaped.
    pub nic: Option<Arc<NicMeter>>,
}

/// Where one intermediate `I^t_S` goes after its holder mapped file `F_S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
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
struct Layout {
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
    /// The layout `cfg` asks for: one pod of `K` (`pods` 0 or `K`) is the
    /// paper's flat schemes — `r = 1` conventional TeraSort, `r > 1`
    /// CodedTeraSort; otherwise pods of `g` nodes (`g` divides `K`) with
    /// redundancy `r < g` within each.
    fn of(cfg: &EngineConfig) -> Result<Layout> {
        let (k, r) = (cfg.k, cfg.r);
        let g = if cfg.pods == 0 { k } else { cfg.pods };
        if g == k {
            PlacementPlan::new(k, r).map_err(bad_config)?;
        } else {
            PodGroups::new(k, r, g).map_err(bad_config)?;
        }
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
    fn route(&self, holder: usize, file: NodeSet, target: usize) -> Route {
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

/// Runs `workload` over `input` as `cfg` lays it out, on an ephemeral
/// [`SharedFabric`] at [`JobBinding::ROOT`] — the one-shot path and the
/// resident runtime's per-job path are the same code.
///
/// # Errors
/// `BadConfig` for an invalid `(K, r, pods)` or a recovery mode the layout
/// cannot carry; a rank's failure — transport, protocol, an injected crash
/// with recovery off ([`RankDied`](crate::EngineError::RankDied)), an
/// exhausted recovery margin
/// ([`Unrecoverable`](crate::EngineError::Unrecoverable)) — fails the job
/// with that rank's error.
pub fn run<W: Workload>(workload: &W, input: Bytes, cfg: &EngineConfig) -> Result<JobOutcome> {
    // Checked before a fabric is built for it: K = 0 has no fabric to refuse it.
    Layout::of(cfg)?;
    let fabric = SharedFabric::build(&cfg.cluster)?;
    run_on(&fabric, JobBinding::ROOT, workload, input, cfg)
}

/// Runs [`run`]'s job on an existing [`SharedFabric`], isolated under
/// `binding` (tags, the emulated NIC of `cfg.cluster.nic` and the returned
/// trace are the job's own).
///
/// Jobs on nonzero slots live in an 18-bit tag-sequence space
/// ([`Tag::JOB_SEQ_BITS`]), which bounds `C(K, r+1)`; and they cannot use
/// [`RecoveryMode::Speculative`] — the health layer's heartbeats and repair
/// traffic run on raw, unscoped transports and declaring a peer dead would
/// poison every cohabiting job, so recovery is reserved for exclusive
/// (slot-0) fabrics.
///
/// # Errors
/// As [`run`]; also `BadConfig` if `cfg.k` is not the fabric's world size
/// or for the shared-fabric restrictions above.
pub fn run_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let layout = Layout::of(cfg)?;
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
    });
    // One more job the pool's idle buffers have sat out, finished or failed.
    pool::global().tick();
    let run = run?;
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
        nic: run.nic,
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
    layout: Layout,
    me: usize,
    stats: NodeStats,
    /// `None`: sync points are plain barriers. `Some`: the health layer is
    /// running and every sync point is the alive-aware dead-mask exchange,
    /// so a dead rank can never strand one.
    recovery: Option<Box<Recovery>>,
}

impl Rank<'_> {
    /// A sync point. Every rank walks the same sequence of them — after
    /// CodeGen, at the end of the Shuffle\[, Recover\] — so the recovery
    /// epochs line up by construction. Returns the agreed dead mask (0
    /// without the health layer).
    fn sync(&mut self) -> Result<u128> {
        match &mut self.recovery {
            None => Ok(self.comm.barrier().map(|()| 0)?),
            Some(rec) => rec.sync(self.comm),
        }
    }

    /// Fires the configured crash injection if this is its point. The
    /// victim's NIC drains first: it dies with what it posted out and nothing
    /// queued. With recovery off the rank fails the job with the crash's
    /// identity; with recovery on it silences its heartbeat — the only
    /// externally observable signal — and returns `true` so the caller exits
    /// empty handed, leaving its transport reachable (a fail-stop process,
    /// not a severed network).
    fn crashed_at(&mut self, point: CrashPoint) -> Result<bool> {
        if self.cfg.crash_point_of(self.me) != Some(point) {
            return Ok(false);
        }
        self.comm.drain()?;
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
    /// post number `sent` (`last`: after its final one, where a budget at
    /// or past the total dies having sent everything): it dies with exactly
    /// `sent` packets out.
    fn crashed_after_sends(&mut self, sent: u64, last: bool) -> Result<bool> {
        match self.cfg.crash_point_of(self.me) {
            Some(point @ CrashPoint::AfterSends(n)) if n == sent || (last && n > sent) => {
                self.crashed_at(point)
            }
            _ => Ok(false),
        }
    }
}

/// Algorithm 1 for one rank: one coded packet per group it is in.
struct Encode {
    encoder: Encoder,
    /// Quorum decode needs MDS-mixed packets, which only GF(256) supports
    /// (there is no nontrivial binary MDS code): over GF(2) a quorum job
    /// sends the classic packets and needs all of them.
    mds: bool,
    r: usize,
    local: usize,
}

impl Encode {
    /// Encodes `group`'s packet into a wire frame written once, at its
    /// final size, into the leased buffer that travels (`scratch` keeps the
    /// loop otherwise allocation-free). The wire bytes split into a *scalable*
    /// part (the mean segment length — the quantity that grows linearly
    /// with input size) and an *overhead* part (the fixed header plus
    /// zero-padding, a small-scale artifact: at paper scale segments are
    /// megabytes and max ≈ mean), which is returned with the frame. The
    /// model scales only the scalable part.
    fn packet(
        &self,
        group: &Group,
        store: &MapOutputStore,
        scratch: &mut EncodeScratch,
    ) -> Result<(Bytes, u64)> {
        let (m, r) = (group.members, self.r as u64);
        let scalable = if self.mds {
            self.encoder.encode_group_mds_into(m, store, scratch)?;
            // MDS payloads are ≈ total/s (seg_lens carry the r whole
            // reconstruction lengths, each split into s parts).
            scratch.seg_len_sum() / (r * mds_parts(self.r + 1) as u64)
        } else {
            self.encoder.encode_group_into(m, store, scratch)?;
            scratch.seg_len_sum() / r
        };
        let (lens, payload) = (&scratch.seg_lens, &scratch.payload);
        let mut frame = pool::global().get(wire_len_for(lens.len(), payload.len()));
        if self.mds {
            CodedPacket::write_wire_mds(m, self.local, lens, payload, &mut frame);
        } else {
            CodedPacket::write_wire(m, self.local, lens, payload, &mut frame);
        }
        let overhead = frame.len() as u64 - scalable.min(frame.len() as u64);
        Ok((pool::global().freeze(frame), overhead))
    }
}

/// Algorithm 2 with its working state: parses each received packet
/// (zero-copy, reusing one shell), cancels it against the local Map
/// outputs and hands back the intermediate a packet completes.
struct Decode<'a> {
    comm: &'a Communicator,
    pipeline: DecodePipeline,
    shell: CodedPacket,
    store: &'a MapOutputStore,
    /// Intermediates completed so far.
    recovered: usize,
    /// Live decode progress: one tick per decoded packet, readable mid-job
    /// through the daemon's metric registry (`cts stats`, `/metrics`).
    progress: std::sync::Arc<Counter>,
}

impl Decode<'_> {
    /// Decodes one packet the moment it is taken — a slice of Decode inside
    /// the Shuffle. A packet that completes its group yields the group's
    /// intermediate, keyed by pod-local file.
    fn packet(&mut self, raw: &Bytes, stats: &mut NodeStats) -> Result<Option<(NodeSet, Vec<u8>)>> {
        self.comm.set_stage(stages::UNPACK_DECODE);
        stats.recv_bytes += raw.len() as u64;
        self.shell.read_wire(raw)?;
        stats.decode_work_bytes += decode_work(&self.shell);
        let done = self.pipeline.accept(&self.shell, self.store)?;
        self.progress.inc();
        self.recovered += usize::from(done.is_some());
        self.comm.set_stage(stages::SHUFFLE);
        Ok(done)
    }
}

/// The rank's own partition on its way through Reduce: handed each piece the
/// moment the rank holds it whole — kept from its own Map, received plain, or
/// decoded — so only what needs the last piece is left for when it lands.
struct Reduce<'a> {
    comm: &'a Communicator,
    reducer: Box<dyn Reducer + 'a>,
}

impl Reduce<'_> {
    /// Gives the reducer the piece mapped from `file` (global ranks) — a slice
    /// of Reduce inside the Shuffle, the stage a rank with a whole piece in
    /// hand is in.
    fn absorb(&mut self, file: NodeSet, piece: Bytes, stats: &mut NodeStats) {
        self.comm.set_stage(stages::REDUCE);
        stats.reduce_input_bytes += piece.len() as u64;
        self.reducer.absorb(file.bits(), piece);
        self.comm.set_stage(stages::SHUFFLE);
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
        layout,
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
    // Ascending group id is colex order, like a rank's files: sorted by
    // largest member, so the packets a mapped file completes are the next
    // ones in line.
    let my_groups: Vec<&Group> = schedule
        .iter()
        .filter(|group| group.members.contains(local))
        .collect();

    // ---- Map → Pack/Encode (Algorithm 1) → post, group by group ----------
    // What the coder reads, in pod-local ids.
    let mut store = MapOutputStore::new();
    let shape = PartitionShape {
        pieces: plan.num_files() as usize * (k / g),
        // A rank maps r/K of the input.
        expected_bytes: my_files.iter().map(|(_, file)| file.len()).sum::<usize>() / r,
    };
    let mut reduce = Reduce {
        comm,
        reducer: workload.reducer(me, shape),
    };
    // This rank's own share of the files mapped since its last post, by
    // global file: absorbed behind the posts, never ahead of them.
    let mut own: Vec<(NodeSet, Bytes)> = Vec::new();
    let mut own_bytes = 0;
    // Plain unicasts: (target, file, piece).
    let mut outbox: Vec<(usize, FileId, Bytes)> = Vec::new();
    let encode = Encode {
        encoder: Encoder::with_field(g, r, local, cfg.field).expect("validated by driver"),
        mds: cfg.decode == DecodeMode::Quorum && cfg.field.supports_quorum(),
        r,
        local,
    };
    let mut scratch = EncodeScratch::new();
    // Group packets posted so far: `my_groups[..sent]`.
    let mut sent = 0;
    // Files hash independently: each step fans `threads` of them out over
    // the worker pool (results come back in file order, so the outcome is
    // identical for any thread count). A rank's only file is chunked
    // instead.
    for step in my_files.chunks(pool.threads()) {
        comm.set_stage(stages::MAP);
        let mapped: Vec<Vec<Vec<u8>>> = match step {
            [(_, file)] if my_files.len() == 1 => vec![workload.map_file_par(file, k, &pool)],
            files => pool.map(files.len(), |i| {
                let file = layout.globalize(plan.nodes_of_file(files[i].0), me);
                // What `route` drops is never written.
                let kept = (0..k).filter(|&t| layout.route(me, file, t) != Route::Drop);
                workload.map_file(&files[i].1, k, kept.collect())
            }),
        };
        for ((fid, data), intermediates) in step.iter().zip(mapped) {
            let file_local = plan.nodes_of_file(*fid);
            let file = layout.globalize(file_local, me);
            rank.stats.map_input_bytes += data.len() as u64;
            rank.stats.files_mapped += 1;
            for (t, value) in intermediates.into_iter().enumerate() {
                // Frozen through the pool it was leased from: back on the last drop.
                let piece = || pool::global().freeze(value);
                match layout.route(me, file, t) {
                    Route::Keep => {
                        let piece = piece();
                        own_bytes += piece.len() as u64;
                        own.push((file, piece));
                    }
                    Route::Code => {
                        store.insert(t - base, file_local, piece());
                    }
                    Route::Unicast => outbox.push((t, *fid, piece())),
                    Route::Drop => {}
                }
            }
        }
        if rank.crashed_at(CrashPoint::MidMap)? {
            return Ok(None);
        }
        // A group's packet XORs one piece of each of its r files this rank
        // holds; the last of them to be mapped is the group less its
        // smallest other member.
        let mapped_through = plan.nodes_of_file(step[step.len() - 1].0).bits();
        let ready = my_groups[sent..]
            .iter()
            .take_while(|group| {
                let other = group.members.without(local).min().expect("r ≥ 1 others");
                group.members.without(other).bits() <= mapped_through
            })
            .count();
        if ready == 0 {
            continue;
        }
        comm.set_stage(stages::PACK_ENCODE);
        let ready = &my_groups[sent..sent + ready];
        // Groups encode independently: several at once fan out over the
        // pool, one warm scratch per worker.
        let packets: Vec<Result<(Bytes, u64)>> = if pool.threads() > 1 && ready.len() > 1 {
            pool.map_with(ready.len(), EncodeScratch::new, |scratch, i| {
                encode.packet(ready[i], &store, scratch)
            })
        } else {
            let mut one = |group: &&Group| encode.packet(group, &store, &mut scratch);
            ready.iter().map(&mut one).collect()
        };
        if rank.crashed_at(CrashPoint::MidEncode)? {
            return Ok(None);
        }
        // Over the configured [`ShuffleFabric`](cts_net::fabric::ShuffleFabric),
        // behind whatever the NIC still has queued: a post does not wait.
        comm.set_stage(stages::SHUFFLE);
        for (group, packet) in ready.iter().zip(packets) {
            let (packet, header) = packet?;
            if rank.crashed_after_sends(sent as u64, false)? {
                return Ok(None);
            }
            rank.stats.sent_bytes += packet.len() as u64;
            comm.post_multicast(&group.ranks, group.tag, packet, header)?;
            sent += 1;
        }
        // The NIC has its next packets: now the rank's own pieces.
        for (file, piece) in own.drain(..) {
            reduce.absorb(file, piece, &mut rank.stats);
        }
    }
    comm.set_stage(stages::PACK_ENCODE);
    // Staggered destination order (me+1, me+2, …): every rank sends at the
    // same time, so at any instant each receiver is fed by one peer, not all.
    outbox.sort_by_key(|&(t, fid, _)| (fid, (t + k - me) % k));
    rank.stats.pack_bytes = outbox.iter().map(|(_, _, b)| b.len() as u64).sum();
    if !my_groups.is_empty() {
        // Calibration convention: Encode cost covers serializing/splitting
        // all kept intermediates (the XOR is folded into the calibrated
        // rate).
        rank.stats.pack_bytes += store.total_bytes() + own_bytes;
    }
    // A rank in no group has encoded nothing yet: its MidEncode is here.
    if rank.crashed_at(CrashPoint::MidEncode)? || rank.crashed_after_sends(sent as u64, true)? {
        return Ok(None);
    }

    // ---- Shuffle: the rest of the sends, then receive ----------------------
    comm.set_stage(stages::SHUFFLE);
    // Whatever travels uncoded (paper §V-A: one flow per intermediate).
    for (target, fid, piece) in outbox {
        rank.stats.sent_bytes += piece.len() as u64;
        comm.post(target, Tag::app(fid.0 as u32), piece)?;
    }
    for (file, piece) in own.drain(..) {
        reduce.absorb(file, piece, &mut rank.stats);
    }
    let mut decode = Decode {
        comm,
        pipeline: DecodePipeline::with_field(g, r, local, cfg.field)
            .expect("validated by driver")
            .with_decode(cfg.decode),
        shell: CodedPacket::empty(),
        store: &store,
        recovered: 0,
        progress: comm.metrics().counter("cts_decode_packets_total"),
    };
    // Everything is posted: what a rank receives is queued by the time it
    // asks, unless its sender's NIC has not reached it yet.
    let mut plain: Vec<(Key, NodeSet)> = (layout.unicasts_to(me).into_iter())
        .map(|(sender, fid, file)| ((comm.scope(Tag::app(fid.0 as u32)), sender), file))
        .collect();
    plain.sort_unstable_by_key(|&(key, _)| key);
    let late = shuffle_receive(&mut rank, &my_groups, &plain, &mut decode, &mut reduce)?;

    // ---- Unpack / Decode: what is left of it -------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    if decode.pipeline.in_flight() != 0 || decode.recovered != my_groups.len() {
        return Err(EngineError::Protocol {
            what: format!(
                "node {me}: recovered {}/{} intermediates with {} incomplete",
                decode.recovered,
                my_groups.len(),
                decode.pipeline.in_flight()
            ),
        });
    }
    if rank.crashed_at(CrashPoint::PreReduce)? {
        return Ok(None);
    }

    // ---- Reduce: what could not start before the last piece ------------------
    // The partition is whole: nothing it needs is behind the synchronization
    // below, so the rank reduces while its NIC drains and its peers receive.
    comm.set_stage(stages::REDUCE);
    let output = reduce.reducer.finish(&pool);

    // ---- Shuffle: the close ---------------------------------------------------
    // The stage ends when this rank's NIC has drained, its last expected
    // message is in, and every peer can say the same.
    comm.set_stage(stages::SHUFFLE);
    comm.drain()?;
    rank.sync()?;
    // Every sender has issued all its sends by now, so on the in-memory
    // fabric whatever the quorum did not wait for sits in the mailbox:
    // discard it, or the next job on this slot of a resident fabric would
    // receive it as its own. Best effort — a dead sender's entry errors.
    for (tag, sender) in late {
        let _ = comm.transport().try_recv(sender, tag);
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
                shape,
                &pool,
                &mut rank.stats,
            )?;
        }
    }
    Ok(Some(Finished {
        output,
        adopted,
        stats: rank.stats,
    }))
}

/// The receive, for plain pieces and for the packets of both decode
/// disciplines: block for whichever expected message arrives next and put it
/// to use as it is taken — a plain piece goes to the reducer, a packet to the
/// decoder (Algorithm 2 takes a group's packets in any order) and, if it
/// completes its group, the decoded piece to the reducer. The decoder says
/// when a group is complete — with its `r`-th packet under barrier-on-all, at
/// full rank under quorum: with MDS packets after any `r − 1` of the `r`
/// sends, so that a straggling or dead sender delays nothing but its own
/// groups' last equation.
///
/// The wait is one [`Transport::recv_any`](cts_net::Transport::recv_any)
/// over the `(tag, sender)` keys still awaited — `plain`'s, each with the
/// global file its piece was mapped from, and those of the groups still open:
/// only such a message ends it. A quorum receive fails the job after
/// `idle_timeout` without a message; barrier-on-all waits for as long as its
/// senders live (a failing rank aborts the endpoints). With recovery on the
/// wait also returns once per heartbeat: the health board advances when
/// ticked.
///
/// Returns the keys whose packet never came (their group released without it
/// — none under barrier-on-all), as the transport sees them, for the caller
/// to discard once the stage has synchronized; a straggler still in flight on
/// TCP then is not caught (ROADMAP 5(c)).
fn shuffle_receive(
    rank: &mut Rank<'_>,
    groups: &[&Group],
    plain: &[(Key, NodeSet)],
    decode: &mut Decode<'_>,
    reduce: &mut Reduce<'_>,
) -> Result<Vec<Key>> {
    let (comm, me) = (rank.comm, rank.me);
    let transport = comm.transport().as_ref();
    // Every key a message is expected under, sorted: `recv_any` hands messages
    // out lowest tag first, so the plain pieces come ahead of the packets, a
    // group's packets come together and the group releases (and frees its
    // decode state) before the next one starts. Groups ascend by tag, so a
    // tag's place among them names its group; a plain key is its own.
    let tags: Vec<Tag> = groups.iter().map(|group| comm.scope(group.tag)).collect();
    let group_of = |tag: Tag| tags.binary_search(&tag).expect("a listed tag");
    let piece_of = |key: Key| plain.binary_search_by_key(&key, |&(key, _)| key);
    let mut keys: Vec<Key> = (groups.iter().zip(&tags))
        .flat_map(|(group, &tag)| {
            let senders = group.ranks.iter().filter(|&&sender| sender != me);
            senders.map(move |&sender| (tag, sender))
        })
        .chain(plain.iter().map(|&(key, _)| key))
        .collect();
    keys.sort_unstable();
    // Per group: the senders heard from, one bit per rank.
    let mut heard = vec![0u128; groups.len()];
    let mut done = vec![false; groups.len()];
    let mut landed = vec![false; plain.len()];
    let mut open = groups.len() + plain.len();
    // Messages come roughly in key order, so the keys nobody waits for any
    // more are a prefix: `keys[first_open..]` is the wait. (A released group
    // behind an open one stays listed; its late packet is taken and dropped.)
    let mut first_open = 0;
    let idle = (rank.cfg.decode == DecodeMode::Quorum).then_some(rank.cfg.idle_timeout);
    let mut stalled_at = idle.map(|idle| Instant::now() + idle);
    let mut next_tick = Instant::now();
    while open > 0 {
        let tick_due = Instant::now() >= next_tick;
        if let Some(rec) = rank.recovery.as_mut().filter(|_| tick_due) {
            // Drain heartbeats and stop expecting packets from ranks
            // declared dead: the quorum needs only r − 1 of the r senders a
            // group of r + 1 has, so a single death costs nothing. A group
            // left with fewer live senders than that makes the job
            // unrecoverable: fail it with a structured report, do not stall.
            // (The layouts recovery runs on send nothing plain.)
            rec.board.tick(transport);
            let listed = keys.len();
            keys.retain(|&(_, sender)| rec.board.is_alive(sender));
            if keys.len() < listed {
                first_open = 0;
                let mut reachable: Vec<u32> = heard.iter().map(|h| h.count_ones()).collect();
                for &(tag, sender) in &keys {
                    let g = group_of(tag);
                    reachable[g] += u32::from(heard[g] & (1 << sender) == 0);
                }
                let bad: Vec<u64> = (0..groups.len())
                    .filter(|&g| !done[g] && reachable[g] as usize + 2 < groups[g].ranks.len())
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
        let released = first_open;
        let settled = |key: Key| match piece_of(key) {
            Ok(p) => landed[p],
            Err(_) => done[group_of(key.0)],
        };
        while first_open < keys.len() && settled(keys[first_open]) {
            first_open += 1;
        }
        // When the prefix grows, a zero-deadline probe drops the late packets under
        // it: held to the end of the stage they are 12 MB of a 100 MB quorum job's peak.
        let late = &keys[..first_open];
        while first_open > released && transport.recv_any(late, Some(Instant::now())).is_ok() {}
        // Recovery rides the quorum receive only, so a tick has a stall to cap.
        let ticking = rank.recovery.is_some();
        let deadline = stalled_at.map(|at| if ticking { at.min(next_tick) } else { at });
        let (hit, message) = match transport.recv_any(&keys[first_open..], deadline) {
            Ok(hit) => hit,
            Err(NetError::Timeout { .. }) if stalled_at.is_none_or(|at| Instant::now() >= at) => {
                return Err(EngineError::Protocol {
                    what: format!(
                        "node {me}: shuffle stalled with {open}/{} groups and pieces incomplete",
                        groups.len() + plain.len()
                    ),
                })
            }
            Err(NetError::Timeout { .. }) => continue,
            Err(e) => return Err(e.into()),
        };
        stalled_at = idle.map(|idle| Instant::now() + idle);
        let key @ (tag, sender) = keys[first_open + hit];
        if let Ok(p) = piece_of(key) {
            rank.stats.recv_bytes += message.len() as u64;
            rank.stats.unpack_bytes += message.len() as u64;
            reduce.absorb(plain[p].1, message, &mut rank.stats);
            landed[p] = true;
            open -= 1;
            continue;
        }
        let g = group_of(tag);
        heard[g] |= 1 << sender;
        if done[g] {
            continue;
        }
        if let Some((file, piece)) = decode.packet(&message, &mut rank.stats)? {
            let file = rank.layout.globalize(file, me);
            reduce.absorb(file, pool::global().freeze(piece), &mut rank.stats);
            done[g] = true;
            open -= 1;
        }
    }
    keys.retain(|&key| piece_of(key).is_err() && heard[group_of(key.0)] & (1 << key.1) == 0);
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_input, ByteSort};
    use crate::verify::run_sequential;
    use cts_core::field::FieldKind;
    use cts_net::fault::CrashSpec;
    use cts_net::trace::EventKind;

    // ---- r = 1: conventional TeraSort (paper §III) ---------------------------

    #[test]
    fn matches_sequential_reference() {
        let input = sample_input(1000);
        let cfg = EngineConfig::local(4, 1);
        let outcome = run(&ByteSort, input.clone(), &cfg).unwrap();
        let reference = run_sequential(&ByteSort, &input, 4);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn every_input_byte_lands_somewhere() {
        let input = sample_input(777);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(3, 1)).unwrap();
        let total: usize = outcome.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(total, input.len());
    }

    #[test]
    fn stats_account_for_shuffle_bytes() {
        let input = sample_input(1200);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(4, 1)).unwrap();
        // Sent == received globally.
        assert_eq!(
            outcome.stats.total(|n| n.sent_bytes),
            outcome.stats.total(|n| n.recv_bytes)
        );
        // Trace shuffle bytes match node-side accounting.
        assert_eq!(
            outcome.trace.stage_bytes(stages::SHUFFLE),
            outcome.stats.shuffle_bytes()
        );
        // Communication load ≈ 1 - 1/K (uniform bytes).
        let load = outcome.stats.comm_load(input.len() as u64);
        assert!((load - 0.75).abs() < 0.05, "load {load}");
    }

    #[test]
    fn single_node_shuffles_nothing() {
        let input = sample_input(500);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(1, 1)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        let mut expect = input.to_vec();
        expect.sort_unstable();
        assert_eq!(outcome.outputs[0], expect);
    }

    #[test]
    fn works_over_tcp() {
        let input = sample_input(600);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::tcp(3, 1)).unwrap();
        let reference = run_sequential(&ByteSort, &input, 3);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn rejects_bad_k() {
        let err = run(&ByteSort, Bytes::new(), &EngineConfig::local(0, 1)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }

    // ---- 1 < r: CodedTeraSort on the flat layout (paper §IV) -----------------

    #[test]
    fn coded_matches_sequential_k4_r2() {
        let input = sample_input(1200);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn coded_matches_uncoded_across_k_r() {
        let input = sample_input(2000);
        for (k, r) in [(3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 3)] {
            let coded = run(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let uncoded = run(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(coded.outputs, uncoded.outputs, "k={k} r={r}");
        }
    }

    #[test]
    fn r_one_is_the_uncoded_run() {
        let input = sample_input(3000);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(5, 1)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 5));
        assert_eq!(outcome.stats.num_groups, 0);
        // File k sits on node k alone: every byte of another partition
        // crosses the wire once, and nothing else does.
        let files = InputFormat::FixedWidth(1).split(&input, 5);
        let foreign = |(node, file): (usize, &Bytes)| {
            file.iter().filter(|&&b| b as usize % 5 != node).count() as u64
        };
        let expected: u64 = files.iter().enumerate().map(foreign).sum();
        assert_eq!(outcome.stats.shuffle_bytes(), expected);
        // 5 × 4 plain unicasts, no coded packet and no CodeGen stage.
        assert_eq!(outcome.trace.stage_wire_sends(stages::SHUFFLE), 20);
        assert_eq!(outcome.trace.stage_bytes(stages::SHUFFLE), expected);
        assert!(outcome.spans.stage_index(stages::CODEGEN).is_none());
    }

    #[test]
    fn r_equals_k_needs_no_shuffle() {
        let input = sample_input(800);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(4, 4)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        assert_eq!(outcome.stats.num_groups, 0);
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn comm_load_drops_r_times() {
        // Large enough that the 31-byte packet headers are noise next to
        // the payloads.
        let input = sample_input(120_000);
        let k = 6;
        let uncoded = run(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
        let base_load = uncoded.stats.comm_load(input.len() as u64);
        for r in [2usize, 3] {
            let coded = run(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let load = coded.stats.comm_load(input.len() as u64);
            let expected = cts_core::theory::coded_comm_load(r, k);
            // Real data: small deviations from the uniform-hash ideal plus
            // packet headers.
            assert!(
                (load - expected).abs() / expected < 0.25,
                "k={k} r={r}: load {load} vs theory {expected}"
            );
            // And the r× reduction vs. the uncoded baseline holds.
            let gain = base_load / load;
            assert!(gain > 0.7 * r as f64, "gain {gain} at r={r}");
        }
    }

    #[test]
    fn stats_count_groups_and_files() {
        let input = sample_input(1500);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(outcome.stats.num_groups, 10); // C(5,3)
        for n in &outcome.stats.per_node {
            assert_eq!(n.files_mapped, 4); // C(4,1)
        }
        // Map input is r× the uncoded share in total.
        let total_mapped = outcome.stats.total(|n| n.map_input_bytes);
        assert_eq!(total_mapped, 2 * input.len() as u64);
    }

    #[test]
    fn coded_works_over_tcp() {
        let input = sample_input(900);
        let outcome = run(&ByteSort, input.clone(), &EngineConfig::tcp(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn rejects_invalid_r() {
        let err = run(&ByteSort, Bytes::new(), &EngineConfig::local(4, 5)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }

    #[test]
    fn quorum_decode_matches_all_decode() {
        let input = sample_input(2200);
        for field in FieldKind::ALL {
            for (k, r) in [(4, 2), (5, 3), (4, 1), (5, 4)] {
                let cfg = EngineConfig::local(k, r).with_field(field);
                let all = run(&ByteSort, input.clone(), &cfg).unwrap();
                let quorum = run(
                    &ByteSort,
                    input.clone(),
                    &cfg.clone().with_decode(DecodeMode::Quorum),
                )
                .unwrap();
                assert_eq!(all.outputs, quorum.outputs, "k={k} r={r} field={field}");
                // Traffic accounting stays sane: one multicast per group
                // membership either way.
                assert_eq!(all.stats.num_groups, quorum.stats.num_groups);
            }
        }
    }

    #[test]
    fn quorum_decode_works_over_tcp_and_threads() {
        let input = sample_input(1500);
        let reference = run_sequential(&ByteSort, &input, 4);
        let tcp = run(
            &ByteSort,
            input.clone(),
            &EngineConfig::tcp(4, 3)
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum),
        )
        .unwrap();
        assert_eq!(tcp.outputs, reference);
        let threaded = run(
            &ByteSort,
            input,
            &EngineConfig::local(4, 3)
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum)
                .with_threads(4),
        )
        .unwrap();
        assert_eq!(threaded.outputs, reference);
    }

    #[test]
    fn speculative_recovery_matches_the_healthy_run() {
        let input = sample_input(3000);
        let healthy_cfg = EngineConfig::local(6, 3)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum);
        let healthy = run(&ByteSort, input.clone(), &healthy_cfg).unwrap();
        for point in [
            CrashPoint::MidMap,
            CrashPoint::MidEncode,
            CrashPoint::AfterSends(2),
            CrashPoint::PreReduce,
        ] {
            let cfg = healthy_cfg
                .clone()
                .with_recovery(RecoveryMode::Speculative)
                .with_heartbeat(std::time::Duration::from_millis(5))
                .with_crash(CrashSpec { rank: 2, point });
            let wounded = run(&ByteSort, input.clone(), &cfg).unwrap();
            assert_eq!(wounded.outputs, healthy.outputs, "crash at {point}");
        }
    }

    #[test]
    fn recovery_off_fails_fast_with_the_crash_identity() {
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_idle_timeout(std::time::Duration::from_secs(2))
            .with_crash(CrashSpec {
                rank: 3,
                point: CrashPoint::MidMap,
            });
        let err = run(&ByteSort, input, &cfg).unwrap_err();
        assert_eq!(
            err,
            EngineError::RankDied {
                rank: 3,
                point: CrashPoint::MidMap
            }
        );
    }

    #[test]
    fn two_deaths_exhaust_recovery_with_a_structured_report() {
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_recovery(RecoveryMode::Speculative)
            .with_heartbeat(std::time::Duration::from_millis(5))
            .with_crash(CrashSpec {
                rank: 1,
                point: CrashPoint::MidMap,
            })
            .with_crash(CrashSpec {
                rank: 4,
                point: CrashPoint::MidMap,
            });
        let err = run(&ByteSort, input, &cfg).unwrap_err();
        match err {
            EngineError::Unrecoverable(report) => {
                assert_eq!(report.dead, vec![1, 4]);
                assert!(!report.unrecoverable_groups.is_empty());
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn speculative_recovery_requires_quorum_gf256_and_redundancy() {
        let input = sample_input(500);
        for cfg in [
            EngineConfig::local(4, 2).with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 2)
                .with_field(FieldKind::Gf256)
                .with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 1)
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum)
                .with_recovery(RecoveryMode::Speculative),
        ] {
            let err = run(&ByteSort, input.clone(), &cfg).unwrap_err();
            assert!(matches!(err, EngineError::BadConfig { .. }), "{cfg:?}");
        }
    }

    #[test]
    fn walls_are_the_span_logs() {
        let cfg = EngineConfig::local(4, 2);
        let outcome = run(&ByteSort, sample_input(600), &cfg).unwrap();
        assert_eq!(outcome.wall, WallTimes::from_spans(&outcome.spans));
        assert!(outcome.wall.max.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn trace_records_multicasts_once() {
        let input = sample_input(1200);
        let outcome = run(&ByteSort, input, &EngineConfig::local(4, 2)).unwrap();
        let multicasts = outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .count();
        // C(4,3) groups × 3 senders each.
        assert_eq!(multicasts, 12);
        // Every multicast reaches exactly r = 2 receivers.
        assert!(outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .all(|e| e.fanout() == 2));
    }

    // ---- pods of g < K: coded inside, unicast across (paper §VI) -------------

    #[test]
    fn pods_match_uncoded_output() {
        let input = sample_input(4_000);
        for (k, r, g) in [
            (4usize, 1usize, 2usize),
            (6, 2, 3),
            (8, 1, 4),
            (8, 3, 4),
            (9, 2, 3),
        ] {
            let pods = run(
                &ByteSort,
                input.clone(),
                &EngineConfig::local(k, r).with_pods(g),
            )
            .unwrap();
            let unc = run(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(pods.outputs, unc.outputs, "k={k} r={r} g={g}");
        }
    }

    #[test]
    fn pods_decode_in_quorum_mode_too() {
        let input = sample_input(4_000);
        let cfg = EngineConfig::local(8, 3)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum);
        let pods = run(&ByteSort, input.clone(), &cfg.with_pods(4)).unwrap();
        let unc = run(&ByteSort, input, &EngineConfig::local(8, 1)).unwrap();
        assert_eq!(pods.outputs, unc.outputs);
    }

    #[test]
    fn single_pod_equals_flat_coded() {
        // With one pod the cross-pod phase is empty: identical to flat
        // coded output.
        let input = sample_input(2_000);
        let pods = run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(5, 2).with_pods(5),
        )
        .unwrap();
        let flat = run(&ByteSort, input, &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(pods.outputs, flat.outputs);
        assert_eq!(pods.stats.num_groups, flat.stats.num_groups);
    }

    #[test]
    fn pods_of_k_and_pods_zero_are_the_flat_layout() {
        let input = sample_input(2_000);
        for r in [1, 2, 5] {
            let flat = run(&ByteSort, input.clone(), &EngineConfig::local(5, r)).unwrap();
            let one_pod = EngineConfig::local(5, r).with_pods(5);
            let one_pod = run(&ByteSort, input.clone(), &one_pod).unwrap();
            assert_eq!(one_pod.outputs, flat.outputs, "r={r}");
            assert_eq!(one_pod.stats, flat.stats, "r={r}");
            assert_eq!(one_pod.stats.num_groups, flat.stats.num_groups, "r={r}");
            assert_eq!(
                one_pod.trace.stage_bytes(stages::SHUFFLE),
                flat.trace.stage_bytes(stages::SHUFFLE),
                "r={r}"
            );
        }
    }

    #[test]
    fn group_count_shrinks() {
        let input = sample_input(3_000);
        let pods = run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(8, 2).with_pods(4),
        )
        .unwrap();
        // 2 pods × C(4,3) = 8 groups, vs flat C(8,3) = 56.
        assert_eq!(pods.stats.num_groups, 8);
        let flat = run(&ByteSort, input, &EngineConfig::local(8, 2)).unwrap();
        assert_eq!(flat.stats.num_groups, 56);
    }

    #[test]
    fn comm_load_matches_pod_theory() {
        let input = sample_input(120_000);
        let (k, r, g) = (8usize, 2usize, 4usize);
        let pods = run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(k, r).with_pods(g),
        )
        .unwrap();
        let load = pods.stats.comm_load(input.len() as u64);
        let expected = cts_core::theory::pod_comm_load(r, k, g);
        assert!(
            (load - expected).abs() / expected < 0.15,
            "measured {load} vs theory {expected}"
        );
    }

    #[test]
    fn rejects_bad_pod_parameters() {
        let input = sample_input(100);
        assert!(run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(6, 2).with_pods(4)
        )
        .is_err());
        assert!(run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(6, 3).with_pods(3)
        )
        .is_err());
        assert!(run(&ByteSort, input, &EngineConfig::local(6, 0).with_pods(3)).is_err());
    }
}
