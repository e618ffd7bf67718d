//! Steady-state allocation audit of the compute-plane hot loop.
//!
//! A counting global allocator wraps `System`. After one warm-up pass (which
//! sizes every grow-only buffer and leaves the decoded values' pages in the
//! pool), the loop a rank runs per packet must perform **zero** heap
//! allocations, a group's last packet included:
//!
//! * encode: [`Encoder::encode_frame`] — header and XOR fold written into
//!   the frame the sender posts (here a warm one handed back each time);
//! * unpack: [`CodedPacket::read_wire`] — zero-copy payload borrow plus a
//!   reused header vector;
//! * decode: [`DecodePipeline::accept_at`] — the share decoded in place into
//!   its group's value, leased from the pool at the group's first packet and
//!   handed out whole at its last.
//!
//! The quorum code's loop (wire v2, any `r − 1` of a group's `r` packets) is
//! audited the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::Encoder;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_core::pool;
use cts_core::subset::NodeSet;

/// Allocation counter (counts `alloc`, `alloc_zeroed`, and growth via
/// `realloc`; deallocations are free).
struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The test runner runs the three
    /// tests on parallel threads, so a process-wide counter would charge
    /// each measured window with its neighbours' warm-ups. Const-initialized
    /// and without a destructor: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (ignored during
/// thread teardown, when the slot is gone).
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// This thread's allocation count so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Byte `i` of the intermediate `I^t_file`.
fn byte(t: usize, file: NodeSet, i: usize) -> u8 {
    (t * 41 + i * 7 + file.bits() as usize) as u8
}

/// Keep-rule store for one node of a `(k, r)` deployment.
fn store_for(k: usize, r: usize, node: usize, value_len: usize) -> MapOutputStore {
    let plan = PlacementPlan::new(k, r).unwrap();
    let mut store = MapOutputStore::new();
    for fid in plan.files_of_node(node) {
        let file = plan.nodes_of_file(fid);
        for t in 0..k {
            if plan.keeps_intermediate(node, file, t) {
                let data: Vec<u8> = (0..value_len).map(|i| byte(t, file, i)).collect();
                store.insert(t, file, Bytes::from(data));
            }
        }
    }
    store
}

/// What the loops below lean on: an empty `Bytes` owns no buffer, and views
/// of a frozen one (`clone`, `slice`, what `read_wire` borrows a payload
/// with) share it.
#[test]
fn empty_and_shared_bytes_allocate_nothing() {
    let frame = Bytes::from(vec![7u8; 4096]);
    let before = allocs();
    for _ in 0..100 {
        let views = [
            Bytes::new(),
            Bytes::default(),
            frame.clone(),
            frame.slice(16..),
        ];
        std::hint::black_box(&views);
    }
    assert_eq!(allocs() - before, 0);
}

/// Every packet `NODE` receives in a K = 6, r = 3 job, group by group in the
/// order a rank takes them, with what each sender needs to encode it again.
struct Job {
    quorum: bool,
    stores: Vec<MapOutputStore>,
    encoders: Vec<Encoder>,
    groups: Vec<NodeSet>,
    /// `(group index, sender, frame)`.
    packets: Vec<(usize, usize, Bytes)>,
    value_len: usize,
}

const NODE: usize = 1;

impl Job {
    fn new(quorum: bool, value_len: usize) -> Job {
        let (k, r) = (6, 3);
        let stores: Vec<MapOutputStore> = (0..k).map(|n| store_for(k, r, n, value_len)).collect();
        let encoders: Vec<Encoder> = (0..k).map(|n| Encoder::new(k, r, n).unwrap()).collect();
        let groups: Vec<NodeSet> = (MulticastGroups::new(k, r).unwrap().groups_of_node(NODE))
            .map(|(_, m)| m)
            .collect();
        let mut packets = Vec::new();
        for (g, m) in groups.iter().enumerate() {
            for u in m.iter().filter(|&u| u != NODE) {
                let encode = encoders[u].encode_frame(*m, &stores[u], quorum, Vec::with_capacity);
                packets.push((g, u, Bytes::from(encode.unwrap().0)));
            }
        }
        Job {
            quorum,
            stores,
            encoders,
            groups,
            packets,
            value_len,
        }
    }

    fn pipeline(&self) -> DecodePipeline {
        let mode = [DecodeMode::All, DecodeMode::Quorum][usize::from(self.quorum)];
        DecodePipeline::new(6, 3, NODE).unwrap().with_decode(mode)
    }

    /// One pass of the per-packet loop over every packet: each sender's
    /// frame encoded again into `frame`, the received copy parsed into
    /// `shell` and decoded into `pipeline`, a released value checked and
    /// given back to the pool; `tick` after each packet. Returns whether every
    /// encode matched its frame and every value its intermediate, and how
    /// many groups released.
    fn pass(
        &self,
        pipeline: &mut DecodePipeline,
        frame: &mut Vec<u8>,
        shell: &mut CodedPacket,
        mut tick: impl FnMut(u64),
    ) -> (bool, usize) {
        let (mut same, mut released) = (true, 0);
        for (i, (g, u, wire)) in self.packets.iter().enumerate() {
            let lease = |_| std::mem::take(frame);
            let (m, store) = (self.groups[*g], &self.stores[*u]);
            let (again, _) = self.encoders[*u]
                .encode_frame(m, store, self.quorum, lease)
                .unwrap();
            same &= again[..] == wire[..];
            *frame = again;
            frame.clear();
            shell.read_wire(wire).unwrap();
            if let Some((file, value)) = pipeline.accept_at(*g, shell, &self.stores[NODE]).unwrap()
            {
                same &= value.len() == self.value_len;
                same &= value
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == byte(NODE, file, i));
                pool::global().put(value);
                released += 1;
            }
            tick(i as u64);
        }
        (same, released)
    }

    /// Allocations of a measured pass, after a warm-up pass.
    fn warm_allocations(&self, tick: impl FnMut(u64)) -> u64 {
        let (mut frame, mut shell) = (Vec::new(), CodedPacket::empty());
        let (same, released) = self.pass(&mut self.pipeline(), &mut frame, &mut shell, |_| {});
        assert!(same && released == self.groups.len(), "warm-up pass");
        // A job's table of groups is built before its first packet.
        let mut pipeline = self.pipeline();
        let before = allocs();
        let (same, released) = self.pass(&mut pipeline, &mut frame, &mut shell, tick);
        let allocs = allocs() - before;
        assert!(same, "a warm pass changed a frame or a value");
        assert_eq!(released, self.groups.len());
        assert_eq!(pipeline.in_flight(), 0);
        allocs
    }
}

/// Every group's packets, the last that completes it included: encoded into
/// a warm frame, parsed and decoded in place at zero heap allocations. (Each
/// test decodes values of its own size: the pool serves a request from
/// buffers up to 1.5× it, so the parallel tests never take each other's.)
#[test]
fn warm_round_trip_allocates_nothing() {
    let allocs = Job::new(false, 16 << 10).warm_allocations(|_| {});
    assert_eq!(
        allocs, 0,
        "warm encode → unpack → decode-in-place loop performed {allocs} heap allocations"
    );
}

/// The same steady-state audit on the quorum code: parity senders and part
/// senders alike, and the late packet of each group after it released.
#[test]
fn warm_quorum_round_trip_allocates_nothing() {
    let allocs = Job::new(true, 64 << 10).warm_allocations(|_| {});
    assert_eq!(
        allocs, 0,
        "warm quorum encode → unpack → decode-in-place loop performed {allocs} heap allocations"
    );
}

/// The observability plane on the same warm loop: metric instruments tick
/// every packet the way the engines tick them, and a rank's stage clock
/// moves between stages it has entered before — all still at zero heap
/// allocations. Instrument registration and a stage's first entry pay their
/// allocations once, up front; the steady state is free, which is what lets
/// the daemon keep them on by default.
#[test]
fn warm_metrics_enabled_round_trip_allocates_nothing() {
    use cts_core::metrics::MetricsHub;

    // The instruments the engines touch per packet / per stage, created
    // (and their one-time registration allocations paid) before the
    // measured window.
    let hub = MetricsHub::new();
    let packets = hub.counter("cts_decode_packets_total");
    let depth = hub.gauge("cts_admission_queue_depth");
    let shuffle_ns = hub.histogram_with("cts_stage_seconds", "stage", "Shuffle", 1e-9);

    // The engine moves a rank's stage clock twice per decoded packet and
    // twice per absorbed piece.
    let run = cts_net::cluster::run_spmd(&cts_net::cluster::ClusterConfig::local(1), |comm| {
        for stage in ["Shuffle", "UnpackDecode", "Reduce"] {
            comm.set_stage(stage);
        }
        let before = allocs();
        for _ in 0..100 {
            comm.set_stage("UnpackDecode");
            comm.set_stage("Shuffle");
            comm.set_stage("Reduce");
            comm.set_stage("Shuffle");
        }
        allocs() - before
    });
    assert_eq!(run.unwrap().results, vec![0], "warm set_stage allocated");

    let job = Job::new(false, 256 << 10);
    let allocs = job.warm_allocations(|i| {
        // Per-packet and per-stage observability, as the engines emit it.
        packets.inc();
        depth.set(i as i64);
        shuffle_ns.record(1 + i * 1_000);
    });
    assert_eq!(
        allocs, 0,
        "metrics-enabled warm loop performed {allocs} heap allocations"
    );
    assert_eq!(packets.get(), job.packets.len() as u64);
    assert_eq!(shuffle_ns.count(), job.packets.len() as u64);
}
