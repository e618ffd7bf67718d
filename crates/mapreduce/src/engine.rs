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
//! without it; then it drains its NIC and returns. The CPU stages run
//! while the rank's NIC works through its queue, so a job costs about
//! max(NIC, CPU) rather than their sum. A job's ranks meet only through their
//! data: a rank posts under tags it computes by itself and a mailbox queues a
//! message whether or not its receiver has started, so no stage ends in a
//! barrier — a partition needs nothing from a peer but its pieces. So a
//! rank's pass splits at its receive into a send half that never waits on a
//! peer and a receive half that waits only for messages, and a small
//! unshaped job ([`IN_TURN_BYTES`]) runs its ranks in turn on the calling
//! thread — every rank's send half, then every rank's receive half, so every
//! send precedes every receive — where a larger or shaped one gives each rank
//! a thread and runs them all at once. What
//! differs between conventional TeraSort (§III), CodedTeraSort (§IV) and the
//! pod-partitioned scheme (§VI) is only the [`Layout`]: which files a node
//! maps, which multicast groups it codes in, and which intermediates carry
//! no side information and therefore travel as plain unicasts. Record
//! buffers — Map pieces, wire frames, decoded intermediates — are leased from
//! [`cts_core::pool::global`] and frozen through it, so a job's pages outlive
//! it for the next one; only the Reduce output is fresh, and the caller's.

use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::Encoder;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::metrics::Counter;
use cts_core::packet::CodedPacket;
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::pool;
use cts_core::segment::segment_for_node;
use cts_core::subset::NodeSet;
use cts_core::sync::{lock, unpoison};
use cts_net::cluster::{JobBinding, Schedule, SharedFabric};
use cts_net::fault::CrashPoint;
use cts_net::message::Tag;
use cts_net::span::SpanLog;
use cts_net::trace::Trace;
use cts_net::{Communicator, Key, NetError, NicLedger};
use cts_netsim::stats::{NodeStats, RunStats};

use crate::error::{EngineError, Result};
use crate::stage::{stages, EngineConfig, WallTimes};
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
    /// What each rank's emulated NIC booked, rank order — transfers, bytes,
    /// busy time and token-bucket stalls; empty for a job that ran unshaped.
    /// [`NicLedger::egress_floor`] of it is the least the Shuffle can take.
    pub nic: Vec<NicLedger>,
    /// Where the ranks ran: a thread each, or in turn on the caller's — then
    /// `wall`'s stage walls are one rank's own uninterrupted time.
    pub schedule: Schedule,
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
        PlacementPlan::new(k, r).map_err(bad_config)?;
        let refuse = |what| Err(bad_config(cts_core::CodedError::InvalidParameters { what }));
        if !k.is_multiple_of(g) {
            return refuse(format!("pod size {g} must divide K = {k}"));
        }
        if g < k && r >= g {
            return refuse(format!("r = {r} must be < pod size {g}"));
        }
        let layout = Layout { k, g, r };
        // A group's packets and a file's plain pieces travel under a tag of
        // their own, and a tag's sequence has 24 bits.
        let (groups, files) = (layout.num_groups(), layout.plan().num_files());
        if groups.max(files) >= 1 << 24 {
            return Err(EngineError::BadConfig {
                what: format!(
                    "{groups} multicast groups / {files} files per pod exceed the 24-bit tag space"
                ),
            });
        }
        Ok(layout)
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

    /// `me`'s own groups as CodeGen lists them, `(tag, pod-local members)`
    /// ascending by group id — the `C(g − 1, r)` groups of its pod that hold
    /// it, walked once and in order ([`MulticastGroups::groups_of_node`]).
    /// A group's tag is its id shifted past the groups of the pods before
    /// `me`'s, so no two groups of the job share one.
    fn groups_of(&self, me: usize) -> Vec<(Tag, NodeSet)> {
        let Some(groups) = self.groups() else {
            return Vec::new();
        };
        let first = (me / self.g) as u64 * groups.num_groups();
        (groups.groups_of_node(me % self.g))
            .map(|(id, members)| (Tag::new(Tag::BCAST, (first + id.0) as u32), members))
            .collect()
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

impl EngineConfig {
    /// The engine's refusal of a shape it cannot lay out — `K` outside
    /// `1..=64`, `r` outside `1..=K`, pods that do not divide `K` or do not
    /// exceed `r`, more groups or files than 24 tag bits number — the
    /// check [`run`] and [`run_on`] make first. A caller that builds
    /// something of its own over `K` before [`run`] (a partitioner, a
    /// resident fabric) asks here first.
    ///
    /// # Errors
    /// `BadConfig`, in the words of the placement or pod layout refusing it.
    pub fn check(&self) -> Result<()> {
        Layout::of(self).map(drop)
    }
}

/// Runs `workload` over `input` as `cfg` lays it out, on an ephemeral
/// [`SharedFabric`] at [`JobBinding::ROOT`] — the one-shot path and the
/// resident runtime's per-job path are the same code.
///
/// # Errors
/// `BadConfig` for an invalid `(K, r, pods)` or an input the workload's
/// format cannot split; a rank's failure — transport, protocol, a quorum
/// shuffle stalled past `idle_timeout`, an injected crash
/// ([`RankDied`](crate::EngineError::RankDied)) — fails the job with that
/// rank's error.
pub fn run<W: Workload>(workload: &W, input: Bytes, cfg: &EngineConfig) -> Result<JobOutcome> {
    // Checked before a fabric is built for it: K = 0 has no fabric to refuse it.
    cfg.check()?;
    let fabric = SharedFabric::build(&cfg.cluster)?;
    run_on(&fabric, JobBinding::ROOT, workload, input, cfg)
}

/// The most work per rank at which a job's ranks run in turn on the calling
/// thread ([`Schedule::InTurn`]) rather than on a thread each, if no NIC
/// shapes the job (a shaped job's ranks must overlap their CPU with their
/// NICs). A rank's work is its Map input, `r × input ÷ K` bytes, plus
/// [`MESSAGE_BYTES`] for each message it receives. Below the limit a job
/// costs less than the hand-offs between its threads; above it, one thread
/// doing every rank's work costs more than the core it leaves idle.
///
/// The limit is the largest size at which a lone in-turn job is no slower
/// than a threaded one, measured like the sort's `IN_CACHE_BYTES`: one
/// submitter through `JobRuntime`, 300 jobs a run after 50 of warm-up, five
/// alternated pairs of runs per row on the 2-core x86 host; medians of the
/// runs' per-job wall p50, process CPU and voluntary switches (threaded →
/// in turn; † runs in turn under the limit; the 12.5 KB row is two pairs):
///
/// | K | r | messages | Map work per rank | wall µs | CPU µs | switches |
/// |---|---|---|---|---|---|---|
/// | 4 | 1 | 3 | 25 KB † | 106 → 76 | 167 → 67 | 10.8 → 3 |
/// | 4 | 1 | 3 | 50 KB † | 140 → 109 | 233 → 133 | 11.0 → 3 |
/// | 4 | 1 | 3 | 65 KB | 170 → 152 | 233 → 167 | 12.4 → 3 |
/// | 4 | 1 | 3 | 75 KB | 158 → 160 | 233 → 133 | 11.4 → 3 |
/// | 4 | 1 | 3 | 100 KB | 154 → 172 | 267 → 200 | 10.8 → 3 |
/// | 4 | 2 | 6 | 25 KB † | 152 → 111 | 233 → 133 | 12.1 → 3 |
/// | 4 | 2 | 6 | 50 KB | 180 → 183 | 267 → 167 | 13.0 → 3 |
/// | 4 | 2 | 6 | 65 KB | 201 → 229 | 367 → 233 | 9.8 → 3 |
/// | 4 | 2 | 6 | 100 KB | 241 → 274 | 400 → 267 | 10.2 → 3 |
/// | 8 | 1 | 7 | 25 KB † | 261 → 252 | 467 → 267 | 25.3 → 3 |
/// | 8 | 1 | 7 | 50 KB | 303 → 442 | 533 → 433 | 20.7 → 3 |
/// | 8 | 1 | 7 | 100 KB | 441 → 999 | 733 → 1000 | 22.5 → 3 |
/// | 8 | 2 | 42 | 12.5 KB | 925 → 950 | 1683 → 950 | 27 → 3 |
/// | 8 | 2 | 42 | 25 KB | 929 → 1130 | 1767 → 1067 | 25.9 → 3 |
/// | 8 | 2 | 42 | 100 KB | 1267 → 1861 | 2333 → 1833 | 25.6 → 3 |
///
/// In turn a job always takes less CPU, and alone it is faster while its
/// work is small. Map work per rank alone does not say when: at K = 8,
/// r = 2 a rank receives 42 packets and the threaded job wins at every size,
/// because the job's CPU is its messages' — hence their weight.
pub const IN_TURN_BYTES: usize = 64 << 10;

/// What a message a rank receives weighs against [`IN_TURN_BYTES`]: the
/// Map work that costs a rank as much CPU. A K = 8, r = 2 job spends
/// ≈ 2.7 µs of a rank's CPU per message it receives (its post, delivery,
/// wait and decode) where Map and Reduce spend ≈ 0.65 ns per byte of
/// Map input.
pub const MESSAGE_BYTES: usize = 4 << 10;

/// Where `layout`'s ranks run for an input of `input` bytes: in turn if the
/// job is small enough ([`IN_TURN_BYTES`]) and no NIC shapes it, else on a
/// thread each.
fn schedule_for(layout: &Layout, input: usize, shaped: bool) -> Schedule {
    let (k, g, r) = (layout.k, layout.g, layout.r);
    // Each of a rank's groups sends it r packets; it is in (r + 1) / g of
    // its pod's groups.
    let groups = layout
        .groups()
        .map_or(0, |groups| groups.num_groups() as usize * (r + 1) / g);
    let messages = layout.unicasts_to(0).len() + r * groups;
    let work = (r.saturating_mul(input) / k).saturating_add(messages.saturating_mul(MESSAGE_BYTES));
    if work <= IN_TURN_BYTES && !shaped {
        Schedule::InTurn
    } else {
        Schedule::Threaded
    }
}

/// Runs [`run`]'s job on an existing [`SharedFabric`], isolated under
/// `binding` (its messages, the emulated NIC of `cfg.cluster.nic` and the
/// returned trace are the job's own). Its ranks run in turn on the calling
/// thread when the job is small and unshaped ([`IN_TURN_BYTES`]), else on a
/// thread each; the outputs are the same bytes either way.
///
/// # Errors
/// As [`run`]; also `BadConfig` if `cfg.k` is not the fabric's world size.
pub fn run_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let shaped = cfg.cluster.nic.or(fabric.nic()).is_some();
    let schedule = schedule_for(&Layout::of(cfg)?, input.len(), shaped);
    run_scheduled(fabric, binding, workload, input, cfg, schedule)
}

/// [`run_on`] on the schedule it is given.
fn run_scheduled<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    schedule: Schedule,
) -> Result<JobOutcome> {
    let layout = Layout::of(cfg)?;
    let k = layout.k;
    if k != fabric.k() {
        return Err(EngineError::BadConfig {
            what: format!("job wants K = {k} on a fabric of {} ranks", fabric.k()),
        });
    }
    // An input the format cannot split fails here, typed, not in `place`.
    (workload.format().check(&input)).map_err(|what| EngineError::BadConfig { what })?;
    let inputs = layout.place(workload.format(), &input);
    // A rank that fails shuts the job's endpoints down so its peers fail
    // too instead of waiting on it; the error worth reporting is the one
    // that came first, not the `Disconnected`s the teardown hands everybody
    // else.
    let first_failure: Mutex<Option<EngineError>> = Mutex::new(None);
    let failed = |comm: &Communicator, e: &EngineError| {
        lock(&first_failure).get_or_insert_with(|| e.clone());
        comm.abort();
    };
    let send = |comm: &Communicator, my_files| {
        send_half(workload, comm, my_files, cfg, layout).inspect_err(|e| failed(comm, e))
    };
    let receive = |comm: &Communicator, sent: Result<Sent<'_>>| {
        receive_half(comm, cfg, layout, sent?).inspect_err(|e| failed(comm, e))
    };
    let nic = cfg.cluster.nic;
    let run = fabric.run_split(binding, nic, schedule, inputs, send, receive);
    // One more job the pool's idle buffers have sat out, finished or failed.
    pool::global().tick();
    let run = run?;
    if let Some(e) = unpoison(first_failure.into_inner()) {
        return Err(e);
    }

    let mut outputs = Vec::with_capacity(k);
    let mut stats = RunStats::new(k, layout.r);
    stats.num_groups = layout.num_groups();
    for (rank, result) in run.results.into_iter().enumerate() {
        let done = result?;
        outputs.push(done.output);
        stats.per_node[rank] = done.stats;
    }
    Ok(JobOutcome {
        outputs,
        stats,
        trace: run.trace,
        wall: WallTimes::from_spans(&run.spans),
        spans: run.spans,
        nic: run.nic,
        schedule: run.schedule,
    })
}

/// What a rank that ran to the end hands back to the driver.
struct Finished {
    output: Vec<u8>,
    stats: NodeStats,
}

/// What a rank's send half hands its receive half: its counts, its groups,
/// what it mapped for them, and its partition's reducer with the rank's own
/// pieces in it.
struct Sent<'w> {
    stats: NodeStats,
    groups: Vec<(Tag, NodeSet)>,
    store: MapOutputStore,
    reducer: Box<dyn Reducer + 'w>,
}

/// The per-rank state every stage touches.
struct Rank<'a> {
    comm: &'a Communicator,
    cfg: &'a EngineConfig,
    layout: Layout,
    me: usize,
    stats: NodeStats,
}

impl Rank<'_> {
    /// Fires the configured crash injection if this is its point: the
    /// victim's NIC drains first, so it dies with what it posted out and
    /// nothing queued, and then it fails the job with the crash's identity.
    fn crashed_at(&self, point: CrashPoint) -> Result<()> {
        if self.cfg.crash_point_of(self.me) != Some(point) {
            return Ok(());
        }
        self.comm.drain()?;
        Err(EngineError::RankDied {
            rank: self.me,
            point,
        })
    }

    /// The crash check of the coded exchange, before this rank's group
    /// post number `sent` (`last`: after its final one, where a budget at
    /// or past the total dies having sent everything): it dies with exactly
    /// `sent` packets out.
    fn crashed_after_sends(&self, sent: u64, last: bool) -> Result<()> {
        match self.cfg.crash_point_of(self.me) {
            Some(point @ CrashPoint::AfterSends(n)) if n == sent || (last && n > sent) => {
                self.crashed_at(point)
            }
            _ => Ok(()),
        }
    }

    /// Gives the partition's reducer the piece mapped from `file` (global
    /// ranks) — a slice of Reduce inside the Shuffle, the stage a rank with
    /// a whole piece in hand is in.
    fn absorb(&mut self, reducer: &mut dyn Reducer, file: NodeSet, piece: Bytes) {
        self.comm.set_stage(stages::REDUCE);
        self.stats.reduce_input_bytes += piece.len() as u64;
        reducer.absorb(file.bits(), piece);
        self.comm.set_stage(stages::SHUFFLE);
    }
}

/// Algorithm 1 for one rank: one coded packet per group it is in.
struct Encode {
    encoder: Encoder,
    /// Quorum decode: send the single-parity quorum packets, any `r − 1`
    /// of a group's `r` of which decode.
    mds: bool,
}

impl Encode {
    /// Encodes `group`'s packet straight into the leased frame that travels,
    /// written once at its final size. The wire bytes split into a
    /// *scalable* part (the mean share — the quantity that grows linearly
    /// with input size) and an *overhead* part (the fixed header plus
    /// zero-padding, a small-scale artifact: at paper scale segments are
    /// megabytes and max ≈ mean), which is returned with the frame. The
    /// model scales only the scalable part.
    fn packet(&self, members: NodeSet, store: &MapOutputStore) -> Result<(Bytes, u64)> {
        let lease = |len| pool::global().get(len);
        let (frame, scalable) = (self.encoder).encode_frame(members, store, self.mds, lease)?;
        let overhead = frame.len() as u64 - scalable.min(frame.len() as u64);
        Ok((pool::global().freeze(frame), overhead))
    }
}

/// Algorithm 2 with its working state: parses each received packet
/// (zero-copy, reusing one shell), cancels it against the group's known
/// values — read from the rank's Map outputs at the group's first packet —
/// and hands back the intermediate a packet completes.
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
    /// Decodes one packet of the rank's `group`-th group the moment it is
    /// taken — a slice of Decode inside the Shuffle — in place, into the
    /// group's value. A packet that completes its group yields that value,
    /// keyed by pod-local file.
    fn packet(
        &mut self,
        group: usize,
        raw: &Bytes,
        stats: &mut NodeStats,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        self.comm.set_stage(stages::UNPACK_DECODE);
        stats.recv_bytes += raw.len() as u64;
        self.shell.read_wire(raw)?;
        stats.decode_work_bytes += decode_work(&self.shell);
        let done = self.pipeline.accept_at(group, &self.shell, self.store)?;
        self.progress.inc();
        self.recovered += usize::from(done.is_some());
        self.comm.set_stage(stages::SHUFFLE);
        Ok(done)
    }
}

/// Decode work: XOR `r-1` known segments against the payload plus the
/// final merge — `r × payload` touched bytes, which at scale is the sum of
/// the packet's true segment lengths (of a quorum packet, of its whole
/// lengths).
fn decode_work(packet: &CodedPacket) -> u64 {
    let share = |&(t, total): &(usize, u32)| match packet.mds {
        true => total as usize,
        false => segment_for_node(total as usize, packet.group.without(t), packet.sender).len,
    };
    packet.seg_lens.iter().map(share).sum::<usize>() as u64
}

/// A rank's send half: CodeGen, Map, Encode, every post, and the rank's own
/// pieces into its reducer. It never waits on a peer, so a job's send
/// halves may run one after another on one thread.
fn send_half<'w, W: Workload>(
    workload: &'w W,
    comm: &Communicator,
    my_files: Vec<(FileId, Bytes)>,
    cfg: &EngineConfig,
    layout: Layout,
) -> Result<Sent<'w>> {
    let (k, g, r) = (layout.k, layout.g, layout.r);
    let me = comm.rank();
    let base = layout.base_of(me);
    let local = me - base;
    let plan = layout.plan();
    let mut rank = Rank {
        comm,
        cfg,
        layout,
        me,
        stats: NodeStats::default(),
    };

    // ---- CodeGen -------------------------------------------------------
    // The paper's MPI_Comm_split loop runs over all C(K, r+1) groups; a rank
    // here lists only its own C(g − 1, r), once, already in group id order —
    // colex order, like its files: sorted by largest member, so the packets
    // a mapped file completes are the next ones in line. Their global ranks
    // are derived when a packet is posted. Skipped by layouts with no groups.
    if layout.groups().is_some() {
        comm.set_stage(stages::CODEGEN);
    }
    let my_groups = layout.groups_of(me);

    // ---- Map → Pack/Encode (Algorithm 1) → post, group by group ----------
    // What the coder reads, in pod-local ids.
    let mut store = MapOutputStore::new();
    let shape = PartitionShape {
        pieces: plan.num_files() as usize * (k / g),
        // A rank maps r/K of the input.
        expected_bytes: my_files.iter().map(|(_, file)| file.len()).sum::<usize>() / r,
    };
    let mut reducer = workload.reducer(me, shape);
    // This rank's own share of the files mapped since its last post, by
    // global file: absorbed behind the posts, never ahead of them.
    let mut own: Vec<(NodeSet, Bytes)> = Vec::new();
    let mut own_bytes = 0;
    // Plain unicasts: (target, file, piece).
    let mut outbox: Vec<(usize, FileId, Bytes)> = Vec::new();
    let encode = Encode {
        encoder: Encoder::new(g, r, local).expect("validated by driver"),
        mds: cfg.decode == DecodeMode::Quorum,
    };
    // Group packets posted so far: `my_groups[..sent]`.
    let mut sent = 0;
    for (fid, data) in &my_files {
        comm.set_stage(stages::MAP);
        let file_local = plan.nodes_of_file(*fid);
        let file = layout.globalize(file_local, me);
        // What `route` drops is never written.
        let kept = (0..k).filter(|&t| layout.route(me, file, t) != Route::Drop);
        let intermediates = workload.map_file(data, k, kept.collect());
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
        rank.crashed_at(CrashPoint::MidMap)?;
        // A group's packet XORs one piece of each of its r files this rank
        // holds; the last of them to be mapped is the group less its
        // smallest other member.
        let mapped_through = file_local.bits();
        let ready = my_groups[sent..]
            .iter()
            .take_while(|&&(_, members)| {
                let other = members.without(local).min().expect("r ≥ 1 others");
                members.without(other).bits() <= mapped_through
            })
            .count();
        if ready == 0 {
            continue;
        }
        comm.set_stage(stages::PACK_ENCODE);
        let ready = &my_groups[sent..sent + ready];
        let packets: Vec<Result<(Bytes, u64)>> = (ready.iter())
            .map(|&(_, members)| encode.packet(members, &store))
            .collect();
        rank.crashed_at(CrashPoint::MidEncode)?;
        // Over the configured [`ShuffleFabric`](cts_net::fabric::ShuffleFabric),
        // behind whatever the NIC still has queued: a post does not wait.
        comm.set_stage(stages::SHUFFLE);
        for (&(tag, members), packet) in ready.iter().zip(packets) {
            let (packet, header) = packet?;
            rank.crashed_after_sends(sent as u64, false)?;
            rank.stats.sent_bytes += packet.len() as u64;
            let ranks = layout.globalize(members, me).to_vec();
            comm.post_multicast(&ranks, tag, packet, header)?;
            sent += 1;
        }
        // The NIC has its next packets: now the rank's own pieces.
        for (file, piece) in own.drain(..) {
            rank.absorb(reducer.as_mut(), file, piece);
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
    rank.crashed_at(CrashPoint::MidEncode)?;
    rank.crashed_after_sends(sent as u64, true)?;

    // ---- Shuffle: the rest of the sends ------------------------------------
    comm.set_stage(stages::SHUFFLE);
    // Whatever travels uncoded (paper §V-A: one flow per intermediate).
    for (target, fid, piece) in outbox {
        rank.stats.sent_bytes += piece.len() as u64;
        comm.post(target, Tag::app(fid.0 as u32), piece)?;
    }
    for (file, piece) in own.drain(..) {
        rank.absorb(reducer.as_mut(), file, piece);
    }
    Ok(Sent {
        stats: rank.stats,
        groups: my_groups,
        store,
        reducer,
    })
}

/// A rank's receive half: the receive, the recovered-count check, the
/// reducer's last pass and the drain.
fn receive_half(
    comm: &Communicator,
    cfg: &EngineConfig,
    layout: Layout,
    sent: Sent<'_>,
) -> Result<Finished> {
    let Sent {
        stats,
        groups,
        store,
        mut reducer,
    } = sent;
    let me = comm.rank();
    let mut rank = Rank {
        comm,
        cfg,
        layout,
        me,
        stats,
    };
    // ---- Shuffle: receive --------------------------------------------------
    comm.set_stage(stages::SHUFFLE);
    let mut decode = Decode {
        comm,
        pipeline: DecodePipeline::new(layout.g, layout.r, me - layout.base_of(me))
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
        .map(|(sender, fid, file)| ((Tag::app(fid.0 as u32), sender), file))
        .collect();
    plain.sort_unstable_by_key(|&(key, _)| key);
    shuffle_receive(&mut rank, &groups, &plain, &mut decode, reducer.as_mut())?;

    // ---- Unpack / Decode: what is left of it -------------------------------
    comm.set_stage(stages::UNPACK_DECODE);
    if decode.recovered != groups.len() {
        return Err(EngineError::Protocol {
            what: format!(
                "node {me}: recovered {}/{} intermediates",
                decode.recovered,
                groups.len(),
            ),
        });
    }
    rank.crashed_at(CrashPoint::PreReduce)?;

    // ---- Reduce: what could not start before the last piece ------------------
    // The partition is whole: nothing it needs is behind the close below, so
    // the rank reduces while its NIC drains and its peers receive.
    comm.set_stage(stages::REDUCE);
    let output = reducer.finish();

    // ---- Shuffle: the close ---------------------------------------------------
    // The stage ends when this rank's NIC has drained and its last expected
    // message is in.
    comm.set_stage(stages::SHUFFLE);
    comm.drain()?;
    Ok(Finished {
        output,
        stats: rank.stats,
    })
}

/// The receive, for plain pieces and for the packets of both decode
/// disciplines: block for whichever expected message arrives next and put it
/// to use as it is taken — a plain piece goes to the reducer, a packet to the
/// decoder (Algorithm 2 takes a group's packets in any order) and, if it
/// completes its group, the decoded piece to the reducer. The decoder says
/// when a group is complete — with its `r`-th packet under barrier-on-all,
/// under quorum after any `r − 1` of the `r` sends, so that a straggling or
/// dead sender delays nothing but its own groups' last packet.
///
/// The wait is one [`Communicator::recv_any`] over every `(tag, sender)`
/// key a message is expected under — `plain`'s, each with the global file
/// its piece was mapped from, and those of the rank's groups. A group
/// released by its quorum stays listed: its last packet is taken and
/// dropped when it comes, and one still in flight when the job ends is
/// dropped by the job's close. The receive fails the job after
/// `idle_timeout` without a message, under either decode: a message lost
/// on the wire (a plain piece, or a coded packet its group cannot do
/// without) would otherwise hold the job, and a daemon's dispatcher slot,
/// for good. A rank that dies aborts the endpoints at once.
fn shuffle_receive(
    rank: &mut Rank<'_>,
    groups: &[(Tag, NodeSet)],
    plain: &[(Key, NodeSet)],
    decode: &mut Decode<'_>,
    reducer: &mut dyn Reducer,
) -> Result<()> {
    let (comm, me, r) = (rank.comm, rank.me, rank.layout.r);
    // Every key a message is expected under, listed in ascending order:
    // `plain`'s sorted keys, then each group's `r` senders — every plain tag
    // (`Tag::APP`) is below every group's (`Tag::BCAST`), groups ascend by
    // tag, and a group's senders by rank. `recv_any` hands messages out
    // lowest key first, so the plain pieces come ahead of the packets, a
    // group's packets come together and the group releases (and frees its
    // decode state) before the next one starts. A key's index names what it
    // is: plain piece `i`, or group `(i − plain.len()) / r`.
    let senders = |&(tag, members): &(Tag, NodeSet)| {
        let ranks = rank.layout.globalize(members, me).without(me);
        ranks.iter().map(move |sender| (tag, sender))
    };
    let keys: Vec<Key> = (plain.iter().map(|&(key, _)| key))
        .chain(groups.iter().flat_map(senders))
        .collect();
    debug_assert!(
        keys.windows(2).all(|pair| pair[0] < pair[1]),
        "keys listed in order"
    );
    let mut done = vec![false; groups.len()];
    let mut open = groups.len() + plain.len();
    let idle = rank.cfg.idle_timeout;
    let mut stalled_at = Instant::now() + idle;
    while open > 0 {
        let (hit, message) = match comm.recv_any(&keys, Some(stalled_at)) {
            Ok(hit) => hit,
            Err(NetError::Timeout { .. }) => {
                return Err(EngineError::Protocol {
                    what: format!(
                        "node {me}: shuffle stalled with {open}/{} groups and pieces incomplete",
                        groups.len() + plain.len()
                    ),
                })
            }
            Err(e) => return Err(e.into()),
        };
        stalled_at = Instant::now() + idle;
        if let Some(&(_, file)) = plain.get(hit) {
            rank.stats.recv_bytes += message.len() as u64;
            rank.stats.unpack_bytes += message.len() as u64;
            rank.absorb(reducer, file, message);
            open -= 1;
            continue;
        }
        let g = (hit - plain.len()) / r;
        if done[g] {
            continue;
        }
        if let Some((file, piece)) = decode.packet(g, &message, &mut rank.stats)? {
            let file = rank.layout.globalize(file, me);
            rank.absorb(reducer, file, pool::global().freeze(piece));
            done[g] = true;
            open -= 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_input, ByteSort};
    use crate::verify::run_sequential;
    use cts_net::fault::{CrashSpec, FaultAction, FaultRule};
    use cts_net::trace::EventKind;
    use std::sync::Arc;
    use std::time::Duration;

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
        for (k, r) in [(4, 2), (5, 3), (4, 1), (5, 4)] {
            let cfg = EngineConfig::local(k, r);
            let all = run(&ByteSort, input.clone(), &cfg).unwrap();
            let quorum = run(
                &ByteSort,
                input.clone(),
                &cfg.clone().with_decode(DecodeMode::Quorum),
            )
            .unwrap();
            assert_eq!(all.outputs, quorum.outputs, "k={k} r={r}");
            // Traffic accounting stays sane: one multicast per group
            // membership either way.
            assert_eq!(all.stats.num_groups, quorum.stats.num_groups);
        }
    }

    #[test]
    fn quorum_decode_works_over_tcp() {
        let input = sample_input(1500);
        let reference = run_sequential(&ByteSort, &input, 4);
        let tcp = run(
            &ByteSort,
            input,
            &EngineConfig::tcp(4, 3).with_decode(DecodeMode::Quorum),
        )
        .unwrap();
        assert_eq!(tcp.outputs, reference);
    }

    #[test]
    fn recovery_off_fails_fast_with_the_crash_identity() {
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
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

    // ---- the two schedules ------------------------------------------------------

    /// `cfg`'s job run threaded, then in turn, each on a fabric of its own.
    fn both_ways(cfg: &EngineConfig, input: &Bytes) -> [Result<JobOutcome>; 2] {
        [Schedule::Threaded, Schedule::InTurn].map(|schedule| {
            let fabric = SharedFabric::build(&cfg.cluster).unwrap();
            let input = input.clone();
            run_scheduled(&fabric, JobBinding::ROOT, &ByteSort, input, cfg, schedule)
        })
    }

    #[test]
    fn both_schedules_give_the_same_bytes_and_traffic() {
        let input = sample_input(2_000);
        let shapes = [
            ("r = 1", EngineConfig::local(4, 1)),
            ("r = 2, all", EngineConfig::local(4, 2)),
            (
                "r = 2, quorum",
                EngineConfig::local(4, 2).with_decode(DecodeMode::Quorum),
            ),
            ("pods", EngineConfig::local(8, 3).with_pods(4)),
            ("K = 1", EngineConfig::local(1, 1)),
            ("tcp", EngineConfig::tcp(4, 2)),
        ];
        for (shape, cfg) in shapes {
            let [threaded, in_turn] = both_ways(&cfg, &input).map(Result::unwrap);
            assert_eq!(threaded.schedule, Schedule::Threaded);
            assert_eq!(in_turn.schedule, Schedule::InTurn);
            assert_eq!(threaded.outputs, in_turn.outputs, "{shape}");
            assert_eq!(threaded.outputs, run_sequential(&ByteSort, &input, cfg.k));
            let bytes = |o: &JobOutcome| o.stats.shuffle_bytes();
            assert_eq!(bytes(&threaded), bytes(&in_turn), "{shape}");
            let sends = |o: &JobOutcome| o.trace.stage_wire_sends(stages::SHUFFLE);
            assert_eq!(sends(&threaded), sends(&in_turn), "{shape}");
        }
    }

    #[test]
    fn both_schedules_fail_with_the_same_typed_error() {
        let input = sample_input(2_000);
        let cfg = EngineConfig::local(4, 2).with_idle_timeout(Duration::from_millis(300));
        for point in [
            CrashPoint::MidMap,
            CrashPoint::MidEncode,
            CrashPoint::AfterSends(0),
            CrashPoint::AfterSends(2),
            CrashPoint::PreReduce,
        ] {
            let cfg = cfg.clone().with_crash(CrashSpec { rank: 2, point });
            let [threaded, in_turn] = both_ways(&cfg, &input).map(Result::unwrap_err);
            assert_eq!(threaded, EngineError::RankDied { rank: 2, point });
            assert_eq!(in_turn, threaded, "{point}");
        }
        // Rank 1's first coded packet to its first receiver is lost: that
        // receiver's group never completes, and it stalls into the error.
        let lose_first: Arc<FaultRule> = Arc::new(|_, tag: Tag, _: &Bytes, idx| {
            if tag.purpose() == Tag::BCAST && idx == 0 {
                FaultAction::Drop
            } else {
                FaultAction::Deliver
            }
        });
        let mut cfg = cfg;
        cfg.cluster = cfg.cluster.with_fault(1, lose_first);
        let [threaded, in_turn] = both_ways(&cfg, &input).map(Result::unwrap_err);
        assert!(
            matches!(&threaded, EngineError::Protocol { what } if what.contains("stalled")),
            "{threaded:?}"
        );
        assert_eq!(in_turn, threaded);
    }

    #[test]
    fn an_in_turn_jobs_ranks_never_run_at_once() {
        let input = sample_input(4_000);
        let [_, in_turn] = both_ways(&EngineConfig::local(4, 2), &input).map(Result::unwrap);
        let log = &in_turn.spans;
        // One thread ran every slice of every rank, one at a time: together
        // they fill no more than the job's wall.
        let busy: u64 = log.spans.iter().map(|s| s.wall_ns).sum();
        let job = in_turn.wall.job.as_nanos() as u64;
        assert!(busy <= job, "ranks busy {busy} ns in a {job} ns job");
        // A stage of one half only lies wholly before the next rank's.
        for stage in [stages::MAP, stages::UNPACK_DECODE] {
            let at = log.stage_index(stage).unwrap();
            let mut extents: Vec<(u16, u64, u64)> = (log.spans.iter())
                .filter(|s| s.stage == at)
                .map(|s| (s.rank, s.start_ns, s.end_ns))
                .collect();
            extents.sort_unstable();
            assert_eq!(extents.len(), 4, "{stage}");
            for pair in extents.windows(2) {
                assert!(pair[0].2 <= pair[1].1, "{stage}: {pair:?}");
            }
        }
    }

    #[test]
    fn a_small_unshaped_job_runs_in_turn_and_a_shaped_or_larger_one_threaded() {
        // 2 000 one-byte records at K = 4: r × 500 B of Map work per rank.
        let small = sample_input(2_000);
        let large = sample_input(4 * IN_TURN_BYTES + 4);
        let nic = cts_net::NicProfile::rate_limited(1e9);
        let cases = [
            (EngineConfig::local(4, 2), &small, Schedule::InTurn),
            (EngineConfig::local(4, 1), &large, Schedule::Threaded),
            (
                EngineConfig::local(4, 2).with_nic(nic),
                &small,
                Schedule::Threaded,
            ),
            // 42 packets a rank outweigh its 500 bytes.
            (EngineConfig::local(8, 2), &small, Schedule::Threaded),
        ];
        for (cfg, input, schedule) in cases {
            let outcome = run(&ByteSort, input.clone(), &cfg).unwrap();
            assert_eq!(outcome.schedule, schedule);
        }
        // A fabric that shapes every job shapes this one too.
        let shaped = SharedFabric::build(&cts_net::ClusterConfig::local(4).with_nic(nic)).unwrap();
        let outcome = run_on(
            &shaped,
            JobBinding::ROOT,
            &ByteSort,
            small.clone(),
            &EngineConfig::local(4, 2),
        );
        assert_eq!(outcome.unwrap().schedule, Schedule::Threaded);
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
        let cfg = EngineConfig::local(8, 3).with_decode(DecodeMode::Quorum);
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
    fn each_rank_lists_its_own_groups_in_id_order() {
        // The flat layout and pods of 4, at K = 8, r = 2: a rank's list is
        // its pod's groups that hold it, tagged past the pods before it.
        for pods in [0, 4] {
            let layout = Layout::of(&EngineConfig::local(8, 2).with_pods(pods)).unwrap();
            let groups = layout.groups().unwrap();
            let mut listed = 0;
            for me in 0..8 {
                let first = (me / layout.g) as u64 * groups.num_groups();
                let expected: Vec<(Tag, NodeSet)> = (groups.iter_groups())
                    .filter(|(_, members)| members.contains(me % layout.g))
                    .map(|(id, members)| (Tag::new(Tag::BCAST, (first + id.0) as u32), members))
                    .collect();
                assert_eq!(layout.groups_of(me), expected, "pods {pods}, rank {me}");
                listed += expected.len() as u64;
            }
            // Every group of the job is listed once by each of its r + 1 members.
            assert_eq!(listed, 3 * layout.num_groups(), "pods {pods}");
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
