//! Property suite for the quorum code (`Encoder::encode_group_mds_into`,
//! `DecodePipeline` in `DecodeMode::Quorum`): the `(r, r − 1)`
//! single-parity-check code over GF(2).
//!
//! Over every `K ≤ 7` and `2 ≤ r < K`, with intermediate lengths drawn from
//! 0, 1, `s − 1`, `s`, `s + 1` and anything up to 2 KiB:
//!
//! * every receiver rebuilds each intermediate byte-exactly from every
//!   `(r − 1)`-subset of its `r` packets, and from all `r` in any order,
//!   releasing on the `s`-th;
//! * every member carries exactly one parity per group, and a target's `r`
//!   senders carry its `s` parts and their parity;
//! * a wrong declared total or a conflicting duplicate role is
//!   `MalformedPacket`, never a panic.

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::error::CodedError;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_core::segment::{max_segment_len, mds_parts, quorum_role, segment_span, QuorumRole};
use cts_core::subset::{NodeId, NodeSet};
use proptest::prelude::*;

/// Every `(K, r)` with `K ≤ 7` and `2 ≤ r < K`.
fn deployments() -> impl Iterator<Item = (usize, usize)> {
    (3..=7).flat_map(|k| (2..k).map(move |r| (k, r)))
}

/// A 64-bit mix of `x` (splitmix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The intermediate `I^t_file` of a case: its length one of 0, 1, s − 1,
/// s, s + 1 or up to 2 KiB, its bytes drawn from `seed`.
fn value(seed: u64, s: usize, t: NodeId, file: NodeSet) -> Vec<u8> {
    let h = mix(seed ^ mix((t as u64) << 32 ^ file.bits()));
    let len = match h % 6 {
        0 => 0,
        1 => 1,
        2 => s - 1,
        3 => s,
        4 => s + 1,
        _ => (h >> 8) as usize % 2049,
    };
    (0..len).map(|i| (mix(h ^ i as u64) >> 24) as u8).collect()
}

/// Each node's Map outputs under the keep rule.
fn stores(k: usize, r: usize, seed: u64) -> Vec<MapOutputStore> {
    let plan = PlacementPlan::new(k, r).unwrap();
    let s = mds_parts(r + 1);
    (0..k)
        .map(|node| {
            let mut store = MapOutputStore::new();
            for file_id in plan.files_of_node(node) {
                let file = plan.nodes_of_file(file_id);
                for t in (0..k).filter(|&t| plan.keeps_intermediate(node, file, t)) {
                    store.insert(t, file, Bytes::from(value(seed, s, t, file)));
                }
            }
            store
        })
        .collect()
}

/// `sender`'s quorum packet for group `m`, through the v2 wire format.
fn packet(k: usize, r: usize, sender: NodeId, m: NodeSet, store: &MapOutputStore) -> CodedPacket {
    let mut scratch = EncodeScratch::new();
    Encoder::new(k, r, sender)
        .unwrap()
        .encode_group_mds_into(m, store, &mut scratch)
        .unwrap();
    let mut wire = Vec::new();
    CodedPacket::write_wire_mds(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
    CodedPacket::from_bytes(&wire).unwrap()
}

fn pipeline(k: usize, r: usize, node: NodeId) -> DecodePipeline {
    DecodePipeline::new(k, r, node)
        .unwrap()
        .with_decode(DecodeMode::Quorum)
}

/// Feeds `packets` in order to a fresh pipeline of `node`: the index of
/// the packet that released the group, and what it released.
fn feed(
    k: usize,
    r: usize,
    node: NodeId,
    packets: &[&CodedPacket],
    store: &MapOutputStore,
) -> Result<Option<(usize, NodeSet, Vec<u8>)>, TestCaseError> {
    let mut pipe = pipeline(k, r, node);
    let mut released = None;
    for (i, p) in packets.iter().enumerate() {
        match pipe.accept(p, store) {
            Ok(Some((file, bytes))) => {
                prop_assert!(released.is_none(), "released twice");
                released = Some((i, file, bytes));
            }
            Ok(None) => {}
            Err(e) => return Err(TestCaseError::fail(format!("packet {i}: {e}"))),
        }
    }
    prop_assert_eq!(pipe.in_flight(), 0);
    Ok(released)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any `s = r − 1` of a receiver's `r` packets rebuild its
    /// intermediate byte-exactly, and so do all `r` in any order — the
    /// `s`-th packet in releases it, the last is a late no-op.
    #[test]
    fn any_r_minus_1_packets_rebuild_every_intermediate(seed in any::<u64>()) {
        for (k, r) in deployments() {
            let s = mds_parts(r + 1);
            let stores = stores(k, r, seed);
            for (_, m) in MulticastGroups::new(k, r).unwrap().iter_groups() {
                let packets: Vec<(NodeId, CodedPacket)> =
                    m.iter().map(|u| (u, packet(k, r, u, m, &stores[u]))).collect();
                for node in m.iter() {
                    let file = m.without(node);
                    let want = value(seed, s, node, file);
                    let mine: Vec<&CodedPacket> =
                        packets.iter().filter(|(u, _)| *u != node).map(|(_, p)| p).collect();
                    for skip in 0..r {
                        let subset: Vec<&CodedPacket> = (0..r)
                            .filter(|&i| i != skip)
                            .map(|i| mine[i])
                            .collect();
                        let got = feed(k, r, node, &subset, &stores[node])?;
                        prop_assert_eq!(
                            got,
                            Some((s - 1, file, want.clone())),
                            "K={} r={} node {} without sender #{}", k, r, node, skip
                        );
                    }
                    let mut order = mine.clone();
                    let turn = mix(seed ^ m.bits() ^ node as u64) as usize;
                    order.rotate_left(turn % r);
                    if turn & 1 == 1 {
                        order.reverse();
                    }
                    let got = feed(k, r, node, &order, &stores[node])?;
                    prop_assert_eq!(
                        got,
                        Some((s - 1, file, want)),
                        "K={} r={} node {} all packets", k, r, node
                    );
                }
            }
        }
    }

    /// A packet whose declared total disagrees with the receiver's own
    /// copy of a known target, or with what an earlier packet declared for
    /// the receiver, is `MalformedPacket`; a second packet of a role heard
    /// before with different bytes is too, and an identical one is a no-op.
    #[test]
    fn wrong_totals_and_conflicting_roles_are_malformed(
        seed in any::<u64>(),
        pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        for (k, r) in deployments() {
            let s = mds_parts(r + 1);
            let stores = stores(k, r, seed);
            let groups: Vec<NodeSet> =
                MulticastGroups::new(k, r).unwrap().iter_groups().map(|(_, m)| m).collect();
            let m = groups[pick as usize % groups.len()];
            let members = m.to_vec();
            let node = members[(pick >> 16) as usize % members.len()];
            let senders: Vec<NodeId> = members.iter().copied().filter(|&u| u != node).collect();
            let (u, v) = (senders[0], senders[1]);
            let first = packet(k, r, u, m, &stores[u]);
            let second = packet(k, r, v, m, &stores[v]);

            // A known target's total off by one.
            let known = m.iter().find(|&t| t != node && t != u);
            if let Some(t) = known {
                let mut bad = first.clone();
                for entry in bad.seg_lens.iter_mut().filter(|(x, _)| *x == t) {
                    entry.1 += 1;
                }
                let err = pipeline(k, r, node).accept(&bad, &stores[node]);
                prop_assert!(
                    matches!(err, Err(CodedError::MalformedPacket { .. })),
                    "K={} r={} known total: {:?}", k, r, err
                );
            }

            // The receiver's own total, disagreeing with the first packet.
            if s >= 2 {
                let mut pipe = pipeline(k, r, node);
                prop_assert_eq!(pipe.accept(&first, &stores[node]).ok(), Some(None));
                let mut bad = second.clone();
                for entry in bad.seg_lens.iter_mut().filter(|(x, _)| *x == node) {
                    entry.1 += s as u32;
                }
                let err = pipe.accept(&bad, &stores[node]);
                prop_assert!(
                    matches!(err, Err(CodedError::MalformedPacket { .. })),
                    "K={} r={} own total: {:?}", k, r, err
                );
            }

            // The same role twice before release: benign if identical,
            // malformed if any byte of the role's span differs.
            let total = value(seed, s, node, m.without(node)).len();
            let span = match quorum_role(m, node, u) {
                QuorumRole::Part(j) => segment_span(total, s, j).len,
                QuorumRole::Parity => max_segment_len(total, s),
            };
            if s >= 2 && span > 0 {
                let mut pipe = pipeline(k, r, node);
                prop_assert_eq!(pipe.accept(&first, &stores[node]).ok(), Some(None));
                prop_assert_eq!(pipe.accept(&first, &stores[node]).ok(), Some(None));
                let mut payload = first.payload.to_vec();
                payload[(pick >> 32) as usize % span] ^= flip;
                let conflicting = CodedPacket { payload: Bytes::from(payload), ..first.clone() };
                let err = pipe.accept(&conflicting, &stores[node]);
                prop_assert!(
                    matches!(err, Err(CodedError::MalformedPacket { .. })),
                    "K={} r={} conflicting duplicate: {:?}", k, r, err
                );
            }
        }
    }
}

/// Every member of every group carries exactly one parity, and the roles
/// of a target's `r` senders are its `s` parts and their parity.
#[test]
fn every_member_carries_one_parity_per_group() {
    for (k, r) in deployments() {
        let s = mds_parts(r + 1);
        for (_, m) in MulticastGroups::new(k, r).unwrap().iter_groups() {
            for u in m.iter() {
                let parities = m
                    .iter()
                    .filter(|&t| t != u && quorum_role(m, t, u) == QuorumRole::Parity)
                    .count();
                assert_eq!(parities, 1, "K={k} r={r} sender {u} in {m}");
            }
            for t in m.iter() {
                let mut roles: Vec<QuorumRole> = m
                    .iter()
                    .filter(|&u| u != t)
                    .map(|u| quorum_role(m, t, u))
                    .collect();
                roles.sort_by_key(|role| match role {
                    QuorumRole::Part(j) => *j,
                    QuorumRole::Parity => usize::MAX,
                });
                let mut want: Vec<QuorumRole> = (0..s).map(QuorumRole::Part).collect();
                want.push(QuorumRole::Parity);
                assert_eq!(roles, want, "K={k} r={r} target {t} in {m}");
            }
        }
    }
}
