//! Fabric equivalence: the shuffle fabrics are different *transport
//! schedules* for the same logical exchange, so they must produce
//! byte-identical sorted output — while their traces record very different
//! egress send counts (native multicast sends exactly `1/r` of the frames
//! serial-unicast emulation does).

use coded_terasort::prelude::*;
use cts_net::trace::EventKind;

/// Runs one coded sort per fabric and returns (outputs, wire_sends,
/// multicast_events) per fabric, in `ShuffleFabric::ALL` order.
fn run_all_fabrics(k: usize, r: usize, records: usize) -> Vec<(Vec<Vec<u8>>, u64, usize)> {
    let input = teragen::generate(records, 99);
    ShuffleFabric::ALL
        .iter()
        .map(|&fabric| {
            let run = run_coded_terasort(
                input.clone(),
                &SortJob::new(EngineConfig::local(k, r).with_fabric(fabric)),
            )
            .expect("coded run");
            run.validate().expect("TeraValidate");
            let trace = &run.outcome.trace;
            let wire = trace.stage_wire_sends("Shuffle");
            let multicasts = trace
                .stage_events("Shuffle")
                .filter(|e| e.kind == EventKind::Multicast)
                .count();
            (run.outcome.outputs, wire, multicasts)
        })
        .collect()
}

#[test]
fn all_fabrics_sort_identically() {
    let results = run_all_fabrics(6, 2, 1_800);
    let (serial, fanout, multicast) = (&results[0], &results[1], &results[2]);
    assert_eq!(serial.0, fanout.0, "serial-unicast vs fanout outputs");
    assert_eq!(fanout.0, multicast.0, "fanout vs multicast outputs");
}

#[test]
fn trace_send_counts_scale_with_fabric() {
    let r = 3;
    let results = run_all_fabrics(6, r, 1_800);
    let (serial, fanout, multicast) = (&results[0], &results[1], &results[2]);

    // Same logical exchange: identical multicast-event counts everywhere.
    assert_eq!(serial.2, fanout.2);
    assert_eq!(fanout.2, multicast.2);
    assert!(multicast.2 > 0, "coded shuffle must multicast");

    // Serial and fanout put r copies of every packet on the wire; the
    // native fabric sends each packet once: exactly r× fewer frames.
    assert_eq!(serial.1, fanout.1);
    assert_eq!(serial.1, multicast.1 * r as u64);
    assert!(
        multicast.1 <= serial.1 / r as u64,
        "multicast sends {} > serial {} / r",
        multicast.1,
        serial.1
    );
    // And the send count equals the multicast-event count (one frame per
    // group send).
    assert_eq!(multicast.1, multicast.2 as u64);
}

/// Regression for the wire-copy / receiver-mask accounting across the
/// three fabrics: the *logical* exchange — multicast events with identical
/// `(src, mask, bytes)` multisets — must be fabric-invariant, while
/// `stage_wire_sends` scales exactly with each fabric's `wire_copies`
/// factor.
#[test]
fn wire_copy_and_mask_accounting_is_consistent_across_fabrics() {
    let r = 3usize;
    let input = teragen::generate(1_500, 55);
    let fabrics = ShuffleFabric::ALL;
    let mut exchanges: Vec<Vec<(u16, u128, u64)>> = Vec::new();
    let mut wire_sends = Vec::new();
    let mut event_counts = Vec::new();
    for &fabric in &fabrics {
        let run = run_coded_terasort(
            input.clone(),
            &SortJob::new(EngineConfig::local(6, r).with_fabric(fabric)),
        )
        .unwrap();
        let trace = &run.outcome.trace;
        // Event interleaving across sender threads is nondeterministic, so
        // compare the multiset (sorted) of logical transfers.
        let mut events: Vec<(u16, u128, u64)> = trace
            .stage_events("Shuffle")
            .filter(|e| e.kind == EventKind::Multicast)
            .map(|e| (e.src, e.dsts, e.bytes))
            .collect();
        events.sort_unstable();
        event_counts.push(events.len() as u64);
        exchanges.push(events);
        wire_sends.push(trace.stage_wire_sends("Shuffle"));
    }
    for (i, fabric) in fabrics.iter().enumerate().skip(1) {
        assert_eq!(
            exchanges[0], exchanges[i],
            "logical exchange differs under {fabric}"
        );
    }
    // serial-unicast and fanout charge fanout(=r) copies per event; the
    // multicast fabric charges one.
    assert_eq!(wire_sends[0], event_counts[0] * r as u64);
    assert_eq!(wire_sends[1], wire_sends[0]);
    assert_eq!(wire_sends[2], event_counts[2]);
}

#[test]
fn fabrics_agree_over_real_tcp() {
    // Spot-check that the TCP copies of the fanout/multicast path,
    // written back to back, deliver the same bytes as the in-memory run.
    let input = teragen::generate(900, 41);
    let local = run_coded_terasort(
        input.clone(),
        &SortJob::new(EngineConfig::local(4, 2).with_fabric(ShuffleFabric::Multicast)),
    )
    .unwrap();
    for fabric in ShuffleFabric::ALL {
        let job = SortJob::new(EngineConfig::tcp(4, 2).with_fabric(fabric));
        let tcp = run_coded_terasort(input.clone(), &job).unwrap();
        tcp.validate().unwrap();
        assert_eq!(
            tcp.outcome.outputs, local.outcome.outputs,
            "tcp {fabric} vs local"
        );
    }
}

#[test]
fn emulated_nic_orders_fabric_wall_clock() {
    // With an emulated NIC (rate + per-transfer latency), the *measured*
    // shuffle wall-clock must show the fabric hierarchy at small scale:
    // serial-unicast strictly slowest, native multicast at least as fast
    // as fanout. Kept tiny so the tier-1 suite stays fast; the
    // `ablation_fabric` bench runs the full-size version at K ∈ {16,20,64}.
    // Serial-unicast and fanout move the *same* bytes (r copies); they
    // differ by (r−1) NIC latencies per group send, so the latency term is
    // sized to dominate: per node, 4 group sends × r=3 × 4 ms ≈ 48 ms
    // serial vs 16 ms fanout, plus equal byte time — a ≥30% deterministic
    // gap. Multicast additionally cuts the byte term r×.
    let input = teragen::generate(9_000, 7);
    let mut nic = NicProfile::rate_limited(4_000_000.0) // 4 MB/s
        .with_latency_s(4e-3)
        .with_multicast_alpha(0.30);
    nic.burst_bytes = 4096.0; // keep the bucket binding at this small scale
    let mut walls = Vec::new();
    let mut outputs = Vec::new();
    for fabric in ShuffleFabric::ALL {
        let job = SortJob::new(EngineConfig::local(5, 3).with_fabric(fabric).with_nic(nic));
        let run = run_coded_terasort(input.clone(), &job).unwrap();
        run.validate().unwrap();
        walls.push(run.outcome.wall.max.shuffle);
        outputs.push(run.outcome.outputs);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    let (serial, fanout, multicast) = (walls[0], walls[1], walls[2]);
    // Serial-unicast pays (r−1) extra NIC latencies and r× the multicast
    // bytes per group send — a deterministic ~2× gap at this scale, so a
    // 0.75 factor leaves ample headroom for scheduler noise. The tighter
    // multicast-vs-fanout ordering is asserted at robust scale by the
    // `ablation_fabric` bench, not here in the tier-1 suite.
    assert!(
        fanout.as_secs_f64() < 0.75 * serial.as_secs_f64(),
        "fanout {fanout:?} not clearly below serial-unicast {serial:?}"
    );
    assert!(
        multicast.as_secs_f64() < 0.75 * serial.as_secs_f64(),
        "multicast {multicast:?} not clearly below serial-unicast {serial:?}"
    );
    // Sanity (noise-tolerant): native multicast never does *worse* than
    // fanout by more than jitter.
    assert!(
        multicast.as_secs_f64() < 1.15 * fanout.as_secs_f64(),
        "multicast {multicast:?} much slower than fanout {fanout:?}"
    );
}
