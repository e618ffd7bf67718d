//! Property tests of the multicast collective: every shuffle fabric must
//! deliver identical payloads to every member for arbitrary group
//! compositions and roots, plus scale and ordering checks over both
//! transports.

use std::sync::Arc;

use bytes::Bytes;
use cts_net::cluster::{run_spmd, ClusterConfig};
use cts_net::fabric::ShuffleFabric;
use cts_net::message::Tag;
use cts_net::trace::EventKind;
use proptest::prelude::*;

/// Deterministic payload per (root, round).
fn payload(root: usize, round: usize) -> Bytes {
    Bytes::from(
        (0..(31 + root * 7 + round * 3))
            .map(|i| (root * 89 + round * 17 + i) as u8)
            .collect::<Vec<u8>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every member of a random group receives the root's payload, on
    /// every emulated fabric, across several rounds with rotating roots.
    #[test]
    fn multicast_delivers_for_random_groups(
        k in 2usize..=8,
        member_bits in 0u64..256,
        fabric_sel in 0usize..3,
    ) {
        let members: Vec<usize> = (0..k).filter(|i| member_bits >> i & 1 == 1).collect();
        prop_assume!(members.len() >= 2);
        let fabric = [
            ShuffleFabric::SerialUnicast,
            ShuffleFabric::Fanout,
            ShuffleFabric::Multicast,
        ][fabric_sel];
        let cfg = ClusterConfig::local(k).with_fabric(fabric);
        let members = Arc::new(members);
        let members2 = Arc::clone(&members);

        let run = run_spmd(&cfg, move |comm| {
            if !members2.contains(&comm.rank()) {
                return Vec::new();
            }
            let mut got = Vec::new();
            for (round, &root) in members2.iter().enumerate() {
                let data = (comm.rank() == root).then(|| payload(root, round));
                got.push(
                    comm.multicast(root, &members2, Tag::new(Tag::BCAST, round as u32), data)
                        .unwrap(),
                );
            }
            got
        })
        .unwrap();

        for (rank, got) in run.results.iter().enumerate() {
            if members.contains(&rank) {
                prop_assert_eq!(got.len(), members.len());
                for (round, &root) in members.iter().enumerate() {
                    prop_assert_eq!(&got[round], &payload(root, round));
                }
            } else {
                prop_assert!(got.is_empty());
            }
        }
        // Exactly one Multicast event per group send, with fanout m-1.
        let multicasts: Vec<_> = run
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .collect();
        prop_assert_eq!(multicasts.len(), members.len());
        for m in multicasts {
            prop_assert_eq!(m.fanout() as usize, members.len() - 1);
        }
    }
}

/// K = 64 on one host — far beyond the old thread-per-rank fabric's
/// comfort zone: every rank multicasts to a sliding group of 4 over the
/// in-memory fabric, with per-fabric egress accounting checked end to end.
#[test]
fn k64_multicast_groups_scale_on_local_fabric() {
    let k = 64usize;
    for (fabric, copies_per_send) in [
        (ShuffleFabric::SerialUnicast, 3u64),
        (ShuffleFabric::Multicast, 1),
    ] {
        let cfg = ClusterConfig::local(k).with_fabric(fabric);
        let run = run_spmd(&cfg, move |comm| {
            comm.set_stage("Shuffle");
            let mut heard = 0usize;
            for root in 0..k {
                let mut members: Vec<usize> = (0..4).map(|i| (root + i) % k).collect();
                members.sort_unstable();
                if !members.contains(&comm.rank()) {
                    continue;
                }
                let data = (comm.rank() == root).then(|| Bytes::copy_from_slice(&[root as u8; 32]));
                let got = comm
                    .multicast(root, &members, Tag::new(Tag::BCAST, root as u32), data)
                    .unwrap();
                assert_eq!(got[0] as usize, root);
                heard += 1;
            }
            heard
        })
        .unwrap();
        // Every rank participates in exactly 4 sliding groups.
        assert!(run.results.iter().all(|&h| h == 4));
        // 64 group sends; per-fabric egress frames.
        assert_eq!(
            run.trace.stage_wire_sends("Shuffle"),
            64 * copies_per_send,
            "{fabric}"
        );
        // Masks above rank 63 exercise the u128 receiver sets.
        assert!(run
            .trace
            .events
            .iter()
            .any(|e| e.dsts >= (1u128 << 62) && e.kind == EventKind::Multicast));
    }
}

/// The TCP fabric's tested bound: a K = 32 full mesh. Every rank sends to
/// every other, opening all K(K−1) = 992 simplex links and so 992 reader
/// threads beside the 32 acceptors, then meets at a barrier and multicasts
/// to everyone.
#[test]
fn k32_tcp_full_mesh_all_to_all() {
    let k = 32usize;
    let cfg = ClusterConfig::tcp(k).with_fabric(ShuffleFabric::Multicast);
    let run = run_spmd(&cfg, move |comm| {
        let me = comm.rank();
        for dst in (0..k).filter(|&d| d != me) {
            comm.send(
                dst,
                Tag::app(0),
                Bytes::copy_from_slice(&[me as u8, dst as u8]),
            )
            .unwrap();
        }
        for src in (0..k).filter(|&s| s != me) {
            assert_eq!(
                &comm.recv(src, Tag::app(0)).unwrap()[..],
                &[src as u8, me as u8]
            );
        }
        comm.barrier().unwrap();
        let members: Vec<usize> = (0..k).collect();
        let data = (me == 5).then(|| Bytes::from_static(b"wide"));
        comm.multicast(5, &members, Tag::new(Tag::BCAST, 0), data)
            .unwrap()
    })
    .unwrap();
    assert!(run.results.iter().all(|r| r == "wide"));
}

/// A deterministic stress test: many interleaved multicasts in overlapping
/// groups over TCP, exercising the FIFO-per-channel ordering the coded
/// shuffle depends on.
#[test]
fn overlapping_groups_over_tcp_stay_ordered() {
    let k = 5;
    let groups: Vec<Vec<usize>> = vec![
        vec![0, 1, 2],
        vec![1, 2, 3],
        vec![0, 2, 4],
        vec![0, 1, 2, 3, 4],
        vec![2, 3, 4],
    ];
    let groups = Arc::new(groups);
    let groups2 = Arc::clone(&groups);

    let run = run_spmd(&ClusterConfig::tcp(k), move |comm| {
        let mut received = Vec::new();
        for (gi, members) in groups2.iter().enumerate() {
            if !members.contains(&comm.rank()) {
                continue;
            }
            for &root in members {
                let data = (comm.rank() == root).then(|| payload(root, gi));
                let got = comm
                    .multicast(root, members, Tag::new(Tag::BCAST, gi as u32), data)
                    .unwrap();
                received.push((gi, root, got));
            }
        }
        received
    })
    .unwrap();

    for (rank, received) in run.results.iter().enumerate() {
        for (gi, root, got) in received {
            assert_eq!(
                got,
                &payload(*root, *gi),
                "rank {rank} group {gi} root {root}"
            );
        }
    }
}
