//! Datagram-loss recovery sweep for the physical UDP-multicast fabric:
//! under injected loss rates the coded sort must still produce
//! byte-identical output, and the NACK layer's retransmit traffic must
//! stay within its bounded budget (multicast repairs first, lossless TCP
//! unicast after `max_multicast_repairs` rounds — so recovery always
//! terminates and never balloons).
//!
//! Skips gracefully where the kernel denies multicast membership, like
//! every `udp_` test in this tree.

use std::sync::Arc;

use coded_terasort::prelude::*;
use cts_net::fault::{datagram_loss_rule, sender_blackout_rule};
use cts_net::udp::{skip_without_multicast, UdpConfig};

#[test]
fn loss_sweep_recovers_byte_identical_output_within_budget() {
    if skip_without_multicast() {
        return;
    }
    let (k, r) = (5usize, 2usize);
    let input = teragen::generate(2_000, 2017);
    let reference = run_coded_terasort(
        input.clone(),
        &SortJob::new(EngineConfig::local(k, r).with_fabric(ShuffleFabric::SerialUnicast)),
    )
    .expect("lossless reference run");
    reference.validate().expect("TeraValidate reference");

    for loss_percent in [0u32, 5, 20] {
        let mut udp = UdpConfig::default();
        if loss_percent > 0 {
            udp.fault = Some(datagram_loss_rule(loss_percent, u64::from(loss_percent)));
            // A brisk NACK cadence keeps the lossy runs fast in CI.
            udp.nack_interval = std::time::Duration::from_millis(10);
        }
        let stats = Arc::clone(&udp.stats);
        let mut job =
            SortJob::new(EngineConfig::local(k, r).with_fabric(ShuffleFabric::UdpMulticast));
        job.engine.cluster.udp = udp;
        let run = run_coded_terasort(input.clone(), &job)
            .unwrap_or_else(|e| panic!("udp run at {loss_percent}% loss: {e}"));
        run.validate()
            .unwrap_or_else(|e| panic!("TeraValidate at {loss_percent}% loss: {e}"));
        assert_eq!(
            run.outcome.outputs, reference.outcome.outputs,
            "output diverged at {loss_percent}% loss"
        );

        // The minimum datagram count this exchange needs: one chunk per
        // 1400-byte slice of every multicast payload, exactly once.
        let chunk = 1400u64;
        let ideal_chunks: u64 = run
            .outcome
            .trace
            .stage_events("Shuffle")
            .filter(|e| e.kind == cts_net::trace::EventKind::Multicast)
            .map(|e| e.bytes.div_ceil(chunk).max(1))
            .sum();
        let sent = stats.datagrams_sent();
        let dropped = stats.dropped_by_fault();
        let mcast_repairs = stats.mcast_repair_chunks();
        let tcp_repairs = stats.tcp_repair_chunks();
        assert!(sent > 0, "multicast path must have been exercised");
        assert!(ideal_chunks > 0);
        if loss_percent == 0 {
            assert_eq!(dropped, 0);
            assert_eq!(stats.nacks_sent(), 0, "no loss → no NACKs");
            assert_eq!(mcast_repairs + tcp_repairs, 0, "no loss → no repairs");
            assert_eq!(sent, ideal_chunks, "lossless run sends each chunk once");
        } else {
            assert!(dropped > 0, "the fault rule must have bitten");
            assert!(
                stats.nacks_sent() > 0,
                "recovery must go through NACKs at {loss_percent}% loss"
            );
            // Bounded retransmit budget: each chunk is re-multicast at most
            // `max_multicast_repairs` times before the TCP fallback, and a
            // TCP repair is lossless, so total attempted traffic (sent +
            // fault-dropped + TCP repairs) is a small multiple of the
            // ideal — never a retransmit storm.
            let rounds = u64::from(job.engine.cluster.udp.max_multicast_repairs);
            let budget = ideal_chunks * (2 + rounds);
            assert!(
                sent + dropped + tcp_repairs <= budget,
                "attempted {sent}+{dropped}+{tcp_repairs} exceeds budget {budget} \
                 (ideal {ideal_chunks}) at {loss_percent}% loss"
            );
            assert!(
                tcp_repairs <= ideal_chunks * 2,
                "tcp repairs {tcp_repairs} exceed 2× ideal {ideal_chunks}"
            );
        }
    }
}

#[test]
fn quorum_on_udp_multicast_repairs_the_groups_short_of_quorum() {
    // A quorum receive waits on many keys at once. A datagram lost from a
    // group that still has a quorum coming costs nothing; one lost from a
    // group short of it has to be repaired like under barrier-on-all, or
    // the job stalls. Two ways to lose datagrams: 2 MB posted at once
    // overflow the shared receive socket (nothing injected), and the 20 %
    // rule on an input small enough to lose nothing by itself.
    if skip_without_multicast() {
        return;
    }
    let k = 5usize;
    let legs = [
        (20_000, 0u32, FieldKind::Gf256),
        (2_000, 20, FieldKind::Gf256),
        // No binary MDS code: a GF(2) quorum needs all r packets of a group.
        (2_000, 20, FieldKind::Gf2),
    ];
    for r in [2usize, 3] {
        for (records, loss_percent, field) in legs {
            let leg = format!("r = {r}, {records} records, {loss_percent}% loss, {field}");
            let input = teragen::generate(records, 2017);
            let reference = run_coded_terasort(
                input.clone(),
                &SortJob::new(EngineConfig::local(k, r).with_fabric(ShuffleFabric::SerialUnicast)),
            )
            .expect("lossless reference run");
            let mut udp = UdpConfig::default();
            if loss_percent > 0 {
                udp.fault = Some(datagram_loss_rule(loss_percent, u64::from(loss_percent)));
                udp.nack_interval = std::time::Duration::from_millis(10);
            }
            let stats = Arc::clone(&udp.stats);
            let mut job = SortJob::new(
                EngineConfig::local(k, r)
                    .with_fabric(ShuffleFabric::UdpMulticast)
                    .with_field(field)
                    .with_decode(DecodeMode::Quorum),
            );
            job.engine.cluster.udp = udp;
            let run = run_coded_terasort(input, &job).unwrap_or_else(|e| panic!("{leg}: {e}"));
            run.validate().unwrap_or_else(|e| panic!("{leg}: {e}"));
            assert_eq!(run.outcome.outputs, reference.outcome.outputs, "{leg}");
            if loss_percent > 0 {
                assert!(stats.dropped_by_fault() > 0, "{leg}: the rule must bite");
                assert!(stats.nacks_sent() > 0, "{leg}: repaired without a NACK?");
            }
        }
    }
}

#[test]
fn whole_sender_blackout_needs_no_nacks_under_quorum_decode() {
    // The hardest loss pattern the NACK layer faces: one rank's datagrams
    // *never* arrive, so loss recovery could only retransmit forever. The
    // MDS quorum decode sidesteps recovery entirely — every group missing
    // the victim's packet reaches rank from the other senders, healthy
    // groups decode from full receipt, and nobody ever sends a NACK.
    if skip_without_multicast() {
        return;
    }
    let (k, r) = (5usize, 3usize);
    let victim = 1usize;
    let input = teragen::generate(2_000, 2017);
    let reference = run_coded_terasort(
        input.clone(),
        &SortJob::new(EngineConfig::local(k, r).with_field(FieldKind::Gf256)),
    )
    .expect("lossless reference run");
    reference.validate().expect("TeraValidate reference");

    let udp = UdpConfig {
        fault: Some(sender_blackout_rule(victim)),
        ..Default::default()
    };
    let stats = Arc::clone(&udp.stats);
    let mut job = SortJob::new(
        EngineConfig::local(k, r)
            .with_fabric(ShuffleFabric::UdpMulticast)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum),
    );
    job.engine.cluster.udp = udp;
    let run = run_coded_terasort(input.clone(), &job).expect("quorum run under blackout");
    run.validate().expect("TeraValidate under blackout");
    assert_eq!(
        run.outcome.outputs, reference.outcome.outputs,
        "output diverged under a whole-sender blackout"
    );
    assert!(
        stats.dropped_by_fault() > 0,
        "the blackout rule must have dropped the victim's datagrams"
    );
    assert_eq!(
        stats.nacks_sent(),
        0,
        "quorum decode must finish without a single NACK round"
    );
    assert_eq!(
        stats.mcast_repair_chunks() + stats.tcp_repair_chunks(),
        0,
        "no NACKs → no repair traffic"
    );
}
