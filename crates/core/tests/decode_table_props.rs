//! Property suite for `DecodePipeline`'s per-group table: one slot per group
//! of the receiver, each packet decoded in place into its group's value.
//!
//! Over every `K ≤ 7` and `1 ≤ r < K` (quorum: `2 ≤ r`), with intermediate
//! lengths drawn from 0, 1, `r − 1`, `r + 1`, `2r + 1` and anything up to
//! 1 KiB — so totals that `r` and `r − 1` do not divide, and empty ones:
//!
//! * a receiver fed every packet of all its groups, interleaved in any
//!   order and with benign duplicates mixed in, releases each group once,
//!   byte-exactly — under the quorum code also when one sender per group is
//!   never heard;
//! * a packet repeating a share heard before with any byte of it changed is
//!   `MalformedPacket`, under both disciplines;
//! * groups whose intermediates are all empty release empty values.

use bytes::Bytes;
use cts_core::decode::{DecodeMode, DecodePipeline};
use cts_core::encode::Encoder;
use cts_core::error::CodedError;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_core::segment::{segment_span, share, QuorumRole};
use cts_core::subset::{NodeId, NodeSet};
use proptest::prelude::*;

/// A 64-bit mix of `x` (splitmix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The intermediate `I^t_file` of a case, its bytes and length drawn from
/// `seed` (all empty when `empty`).
fn value(seed: u64, r: usize, t: NodeId, file: NodeSet, empty: bool) -> Vec<u8> {
    let h = mix(seed ^ mix((t as u64) << 32 ^ file.bits()));
    let len = match h % 6 {
        _ if empty => 0,
        0 => 0,
        1 => 1,
        2 => r - 1,
        3 => r + 1,
        4 => 2 * r + 1,
        _ => (h >> 8) as usize % 1025,
    };
    (0..len).map(|i| (mix(h ^ i as u64) >> 24) as u8).collect()
}

/// A case: `(K, r)`, the decode discipline, and every node's Map outputs.
struct Case {
    k: usize,
    r: usize,
    quorum: bool,
    seed: u64,
    empty: bool,
    stores: Vec<MapOutputStore>,
}

impl Case {
    fn new(k: usize, r: usize, quorum: bool, seed: u64, empty: bool) -> Case {
        let plan = PlacementPlan::new(k, r).unwrap();
        let stores = (0..k)
            .map(|node| {
                let mut store = MapOutputStore::new();
                for file in plan.files_of_node(node).map(|id| plan.nodes_of_file(id)) {
                    for t in (0..k).filter(|&t| plan.keeps_intermediate(node, file, t)) {
                        store.insert(t, file, Bytes::from(value(seed, r, t, file, empty)));
                    }
                }
                store
            })
            .collect();
        Case {
            k,
            r,
            quorum,
            seed,
            empty,
            stores,
        }
    }

    fn want(&self, node: NodeId, file: NodeSet) -> Vec<u8> {
        value(self.seed, self.r, node, file, self.empty)
    }

    /// `sender`'s packet for group `m`, through the wire format.
    fn packet(&self, sender: NodeId, m: NodeSet) -> CodedPacket {
        let enc = Encoder::new(self.k, self.r, sender).unwrap();
        let (frame, _) = enc
            .encode_frame(m, &self.stores[sender], self.quorum, Vec::with_capacity)
            .unwrap();
        CodedPacket::from_bytes(&frame).unwrap()
    }

    fn pipeline(&self, node: NodeId) -> DecodePipeline {
        let mode = [DecodeMode::All, DecodeMode::Quorum][usize::from(self.quorum)];
        DecodePipeline::new(self.k, self.r, node)
            .unwrap()
            .with_decode(mode)
    }

    /// Every packet `node` receives: `(group index, packet)`, group by group.
    fn inbox(&self, node: NodeId) -> Vec<(usize, CodedPacket)> {
        let groups = MulticastGroups::new(self.k, self.r).unwrap();
        let mut inbox = Vec::new();
        for (g, (_, m)) in groups.groups_of_node(node).enumerate() {
            for u in m.iter().filter(|&u| u != node) {
                inbox.push((g, self.packet(u, m)));
            }
        }
        inbox
    }
}

/// Every `(K, r)` with `K ≤ 7` and `1 ≤ r < K`; quorum needs `r ≥ 2`.
fn deployments(quorum: bool) -> impl Iterator<Item = (usize, usize)> {
    let low = 1 + usize::from(quorum);
    (2..=7).flat_map(move |k| (low..k).map(move |r| (k, r)))
}

/// Shuffles `items` by `seed` (Fisher–Yates).
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, mix(seed ^ i as u64) as usize % (i + 1));
    }
}

/// Feeds `case`'s inbox of `node` in the order `seed` picks, with
/// duplicates mixed in and, under quorum, one sender per group dropped
/// when `drop` is set; checks every group releases once, byte-exactly.
fn rebuilds_everything(
    case: &Case,
    node: NodeId,
    seed: u64,
    drop: bool,
) -> Result<(), TestCaseError> {
    let mut inbox = case.inbox(node);
    let groups = inbox.last().map_or(0, |(g, _)| g + 1);
    if drop {
        // One packet per group never arrives: the `seed`-picked sender's.
        let r = case.r;
        let mut i = 0;
        inbox.retain(|_| {
            i += 1;
            (i - 1) % r != mix(seed ^ ((i - 1) / r) as u64) as usize % r
        });
    }
    // A duplicate of every third packet, anywhere in the stream.
    let dups: Vec<(usize, CodedPacket)> = inbox.iter().step_by(3).cloned().collect();
    inbox.extend(dups);
    shuffle(&mut inbox, seed);
    let mut pipe = case.pipeline(node);
    let mut released = vec![0; groups];
    for (i, (g, packet)) in inbox.iter().enumerate() {
        // Half the packets name their slot, half are looked up.
        let got = if i % 2 == 0 {
            pipe.accept_at(*g, packet, &case.stores[node])
        } else {
            pipe.accept(packet, &case.stores[node])
        };
        match got {
            Ok(Some((file, bytes))) => {
                prop_assert_eq!(file, packet.group.without(node));
                prop_assert_eq!(
                    bytes,
                    case.want(node, file),
                    "K={} r={} node {}",
                    case.k,
                    case.r,
                    node
                );
                released[*g] += 1;
            }
            Ok(None) => {}
            Err(e) => return Err(TestCaseError::fail(format!("packet {i}: {e}"))),
        }
    }
    prop_assert!(released.iter().all(|&n| n == 1), "releases {:?}", released);
    prop_assert_eq!(pipe.in_flight(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any arrival order, interleaving groups, with benign duplicates: every
    /// intermediate rebuilt byte-exactly, each group released once — under
    /// both disciplines, and under quorum with a sender per group silent.
    #[test]
    fn the_table_rebuilds_every_intermediate_in_any_order(seed in any::<u64>()) {
        for quorum in [false, true] {
            for (k, r) in deployments(quorum) {
                let case = Case::new(k, r, quorum, seed, false);
                for node in 0..k {
                    rebuilds_everything(&case, node, seed ^ node as u64, false)?;
                    if quorum {
                        rebuilds_everything(&case, node, seed ^ !(node as u64), true)?;
                    }
                }
            }
        }
    }

    /// A share heard before, again with one of its bytes changed, is
    /// `MalformedPacket`; the identical one is a no-op.
    #[test]
    fn a_conflicting_duplicate_is_malformed(seed in any::<u64>(), flip in 1u8..=255) {
        for quorum in [false, true] {
            // r ≥ 3: a group then needs more than one share, so the first
            // packet leaves it open.
            for (k, r) in deployments(quorum).filter(|&(_, r)| r >= 3) {
                let case = Case::new(k, r, quorum, seed, false);
                let node = seed as usize % k;
                let inbox = case.inbox(node);
                let (g, first) = &inbox[(seed >> 8) as usize % inbox.len()];
                let total = first.seg_len_for(node).unwrap() as usize;
                let (parts, role) = share(first.group, node, first.sender, quorum);
                let span = match role {
                    QuorumRole::Part(j) => segment_span(total, parts, j).len,
                    // A parity first in sits in part 0's span.
                    QuorumRole::Parity => segment_span(total, parts, 0).len,
                };
                let mut pipe = case.pipeline(node);
                let store = &case.stores[node];
                prop_assert_eq!(pipe.accept_at(*g, first, store).ok(), Some(None));
                prop_assert_eq!(pipe.accept_at(*g, first, store).ok(), Some(None));
                if span == 0 {
                    continue;
                }
                let mut payload = first.payload.to_vec();
                payload[(seed >> 16) as usize % span] ^= flip;
                let conflicting = CodedPacket { payload: Bytes::from(payload), ..first.clone() };
                let err = pipe.accept_at(*g, &conflicting, store);
                prop_assert!(
                    matches!(err, Err(CodedError::MalformedPacket { .. })),
                    "K={} r={} quorum {}: {:?}", k, r, quorum, err
                );
            }
        }
    }
}

/// Groups whose intermediates are all empty: every packet is a header
/// with an empty payload, and every group still releases, empty.
#[test]
fn empty_intermediates_release_empty_values() {
    for quorum in [false, true] {
        for (k, r) in deployments(quorum) {
            let case = Case::new(k, r, quorum, 7, true);
            for node in 0..k {
                let mut pipe = case.pipeline(node);
                let mut released = 0;
                for (g, packet) in case.inbox(node) {
                    assert!(packet.payload.is_empty());
                    if let Some((_, bytes)) =
                        pipe.accept_at(g, &packet, &case.stores[node]).unwrap()
                    {
                        assert!(bytes.is_empty());
                        released += 1;
                    }
                }
                let groups = MulticastGroups::new(k, r).unwrap().groups_per_node();
                assert_eq!(released, groups, "K={k} r={r} quorum {quorum}");
            }
        }
    }
}

/// A packet for one group offered at another group's slot is refused.
#[test]
fn a_packet_at_the_wrong_slot_is_a_plan_mismatch() {
    let case = Case::new(5, 2, false, 3, false);
    let inbox = case.inbox(0);
    let (g, packet) = &inbox[0];
    let err = case.pipeline(0).accept_at(g + 1, packet, &case.stores[0]);
    assert!(
        matches!(err, Err(CodedError::PlanMismatch { .. })),
        "{err:?}"
    );
    let err = case
        .pipeline(0)
        .accept_at(usize::MAX, packet, &case.stores[0]);
    assert!(
        matches!(err, Err(CodedError::PlanMismatch { .. })),
        "{err:?}"
    );
}
