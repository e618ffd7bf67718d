//! Steady-state allocation audit of the compute-plane hot loop.
//!
//! A counting global allocator wraps `System`; after one warm-up round
//! trip (which sizes every grow-only buffer), the full
//! encode → pack → unpack → decode kernel must perform **zero** heap
//! allocations per iteration:
//!
//! * encode: [`Encoder::encode_group_into`] into a warm `EncodeScratch`;
//! * pack:   [`CodedPacket::write_wire`] into a reused wire buffer;
//! * unpack: [`CodedPacket::read_wire`] — zero-copy payload borrow plus a
//!   reused header vector;
//! * decode: [`Decoder::decode_packet_into`] into a warm accumulator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use cts_core::decode::Decoder;
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
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

/// Keep-rule store for one node of a `(k, r)` deployment.
fn store_for(k: usize, r: usize, node: usize, value_len: usize) -> MapOutputStore {
    let plan = PlacementPlan::new(k, r).unwrap();
    let mut store = MapOutputStore::new();
    for fid in plan.files_of_node(node) {
        let file = plan.nodes_of_file(fid);
        for t in 0..k {
            if plan.keeps_intermediate(node, file, t) {
                let data: Vec<u8> = (0..value_len)
                    .map(|i| (t * 41 + i * 7 + file.bits() as usize) as u8)
                    .collect();
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

#[test]
fn warm_round_trip_allocates_nothing() {
    let (k, r, value_len) = (6usize, 3usize, 4096usize);
    let sender = 0usize;
    let receiver = 1usize;
    let tx_store = store_for(k, r, sender, value_len);
    let rx_store = store_for(k, r, receiver, value_len);
    let encoder = Encoder::new(k, r, sender).unwrap();
    let decoder = Decoder::new(k, r, receiver).unwrap();
    // A group containing both endpoints.
    let m: NodeSet = encoder
        .groups()
        .groups_of_node(sender)
        .map(|(_, m)| m)
        .find(|m| m.contains(receiver))
        .expect("shared group");

    let mut scratch = EncodeScratch::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut shell = CodedPacket::empty();
    let mut acc: Vec<u8> = Vec::new();

    // Warm-up: size every grow-only buffer, and freeze one wire frame (the
    // loop re-encodes the same group, so content is identical; receiving
    // from a fabric would hand us a `Bytes` frame exactly like this one).
    encoder
        .encode_group_into(m, &tx_store, &mut scratch)
        .unwrap();
    wire.clear();
    CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
    let frame = Bytes::from(wire.clone());
    shell.read_wire(&frame).unwrap();
    decoder
        .decode_packet_into(&shell, &rx_store, &mut acc)
        .unwrap();
    let warm_payload = scratch.payload.clone();
    let warm_segment = acc.clone();
    assert!(!warm_segment.is_empty(), "decode must recover bytes");

    // Measured steady state: the full round trip, many times, zero allocs.
    let before = allocs();
    for _ in 0..100 {
        encoder
            .encode_group_into(m, &tx_store, &mut scratch)
            .unwrap();
        wire.clear();
        CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
        shell.read_wire(&frame).unwrap();
        decoder
            .decode_packet_into(&shell, &rx_store, &mut acc)
            .unwrap();
    }
    let allocs = allocs() - before;
    assert_eq!(
        allocs, 0,
        "warm encode→pack→unpack→decode round trip performed {allocs} heap allocations"
    );

    // And it still computes the right thing.
    assert_eq!(scratch.payload, warm_payload);
    assert_eq!(acc, warm_segment);
    assert_eq!(wire, &frame[..]);
}

/// The same steady-state audit over GF(256): the q-ary coding plane's
/// table lookups and SIMD kernels work entirely in the caller's buffers
/// (nibble tables live on the stack; log/exp tables are `const`), so the
/// warm encode → pack → unpack → decode round trip must stay at zero
/// heap allocations with nontrivial coefficients too.
#[test]
fn warm_gf256_round_trip_allocates_nothing() {
    use cts_core::field::FieldKind;
    let (k, r, value_len) = (6usize, 3usize, 4096usize);
    let sender = 0usize;
    let receiver = 1usize;
    let tx_store = store_for(k, r, sender, value_len);
    let rx_store = store_for(k, r, receiver, value_len);
    let encoder = Encoder::with_field(k, r, sender, FieldKind::Gf256).unwrap();
    let decoder = Decoder::with_field(k, r, receiver, FieldKind::Gf256).unwrap();
    let m: NodeSet = encoder
        .groups()
        .groups_of_node(sender)
        .map(|(_, m)| m)
        .find(|m| m.contains(receiver))
        .expect("shared group");

    let mut scratch = EncodeScratch::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut shell = CodedPacket::empty();
    let mut acc: Vec<u8> = Vec::new();

    // Warm-up (also latches the kernel dispatch OnceLock outside the
    // measured window).
    encoder
        .encode_group_into(m, &tx_store, &mut scratch)
        .unwrap();
    wire.clear();
    CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
    let frame = Bytes::from(wire.clone());
    shell.read_wire(&frame).unwrap();
    decoder
        .decode_packet_into(&shell, &rx_store, &mut acc)
        .unwrap();
    let warm_segment = acc.clone();
    assert!(!warm_segment.is_empty(), "decode must recover bytes");

    let before = allocs();
    for _ in 0..100 {
        encoder
            .encode_group_into(m, &tx_store, &mut scratch)
            .unwrap();
        wire.clear();
        CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
        shell.read_wire(&frame).unwrap();
        decoder
            .decode_packet_into(&shell, &rx_store, &mut acc)
            .unwrap();
    }
    let allocs = allocs() - before;
    assert_eq!(
        allocs, 0,
        "warm GF(256) encode→pack→unpack→decode round trip performed {allocs} heap allocations"
    );
    assert_eq!(acc, warm_segment);
}

/// The observability plane on the same warm round trip: metric
/// instruments tick every iteration the way the engines tick them, and a
/// rank's stage clock moves between stages it has entered before — all
/// still at zero heap allocations. Instrument registration and a stage's
/// first entry pay their allocations once, up front; the steady state is
/// free, which is what lets the daemon keep them on by default.
#[test]
fn warm_metrics_enabled_round_trip_allocates_nothing() {
    use cts_core::metrics::MetricsHub;

    let (k, r, value_len) = (6usize, 3usize, 4096usize);
    let sender = 0usize;
    let receiver = 1usize;
    let tx_store = store_for(k, r, sender, value_len);
    let rx_store = store_for(k, r, receiver, value_len);
    let encoder = Encoder::new(k, r, sender).unwrap();
    let decoder = Decoder::new(k, r, receiver).unwrap();
    let m: NodeSet = encoder
        .groups()
        .groups_of_node(sender)
        .map(|(_, m)| m)
        .find(|m| m.contains(receiver))
        .expect("shared group");

    // The instruments the engines touch per packet / per stage, created
    // (and their one-time registration allocations paid) before the
    // measured window.
    let hub = MetricsHub::new();
    let packets = hub.counter("cts_decode_packets_total");
    let depth = hub.gauge("cts_admission_queue_depth");
    let shuffle_ns = hub.histogram_with("cts_stage_seconds", "stage", "Shuffle", 1e-9);

    let mut scratch = EncodeScratch::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut shell = CodedPacket::empty();
    let mut acc: Vec<u8> = Vec::new();

    // Warm-up: size the coding buffers.
    encoder
        .encode_group_into(m, &tx_store, &mut scratch)
        .unwrap();
    wire.clear();
    CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
    let frame = Bytes::from(wire.clone());
    shell.read_wire(&frame).unwrap();
    decoder
        .decode_packet_into(&shell, &rx_store, &mut acc)
        .unwrap();
    let warm_segment = acc.clone();
    assert!(!warm_segment.is_empty(), "decode must recover bytes");

    // The engine moves a rank's stage clock twice per decoded packet.
    let run = cts_net::cluster::run_spmd(&cts_net::cluster::ClusterConfig::local(1), |comm| {
        comm.set_stage("Shuffle");
        comm.set_stage("UnpackDecode");
        let before = allocs();
        for _ in 0..100 {
            comm.set_stage("Shuffle");
            comm.set_stage("UnpackDecode");
        }
        allocs() - before
    });
    assert_eq!(run.unwrap().results, vec![0], "warm set_stage allocated");

    let before = allocs();
    for i in 0..100u64 {
        encoder
            .encode_group_into(m, &tx_store, &mut scratch)
            .unwrap();
        wire.clear();
        CodedPacket::write_wire(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
        shell.read_wire(&frame).unwrap();
        decoder
            .decode_packet_into(&shell, &rx_store, &mut acc)
            .unwrap();
        // Per-packet and per-stage observability, as the engines emit it.
        packets.inc();
        depth.set(i as i64);
        shuffle_ns.record(1 + i * 1_000);
    }
    let allocs = allocs() - before;
    assert_eq!(
        allocs, 0,
        "metrics-enabled warm round trip performed {allocs} heap allocations"
    );
    assert_eq!(acc, warm_segment);
    assert_eq!(packets.get(), 100);
    assert_eq!(shuffle_ns.count(), 100);
}
