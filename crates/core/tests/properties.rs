//! Property-based tests of the coded-shuffle invariants.

use bytes::Bytes;
use cts_core::combinatorics::{binomial, colex_rank, colex_unrank, Combinations};
use cts_core::decode::DecodePipeline;
use cts_core::encode::Encoder;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::{payload_len_of, CodedPacket};
use cts_core::placement::PlacementPlan;
use cts_core::segment::{max_segment_len, segment_span};
use cts_core::subset::NodeSet;
use cts_core::theory;
use cts_core::xor::{xor_into, xor_padded};
use proptest::prelude::*;

proptest! {
    /// rank ∘ unrank is the identity for all valid (n, k, rank).
    #[test]
    fn colex_rank_unrank_roundtrip(n in 1usize..=16, sel in 0u64..1_000_000) {
        for k in 1..=n {
            let total = binomial(n as u64, k as u64);
            let rank = sel % total;
            let set = colex_unrank(rank, k, n);
            prop_assert_eq!(set.len(), k);
            prop_assert_eq!(colex_rank(set), rank);
        }
    }

    /// Every r-subset of nodes shares exactly one file in the placement.
    #[test]
    fn placement_every_r_subset_has_unique_file(k in 1usize..=10, r_sel in 0usize..10) {
        let r = 1 + r_sel % k;
        let plan = PlacementPlan::new(k, r).unwrap();
        let mut count = 0u64;
        for s in Combinations::new(k, r) {
            let id = plan.file_of_nodes(s).unwrap();
            prop_assert_eq!(plan.nodes_of_file(id), s);
            count += 1;
        }
        prop_assert_eq!(count, plan.num_files());
    }

    /// XOR into an accumulator is an involution for arbitrary buffers.
    #[test]
    fn xor_involution(a in proptest::collection::vec(any::<u8>(), 0..512),
                      b in proptest::collection::vec(any::<u8>(), 0..512)) {
        let out1 = xor_padded(&a, &b);
        let out2 = xor_padded(&out1, &b);
        // out2 restores `a` zero-padded to max(len a, len b).
        prop_assert_eq!(&out2[..a.len().min(out2.len())], &a[..a.len().min(out2.len())]);
        for &byte in &out2[a.len()..] {
            prop_assert_eq!(byte, 0);
        }
        let mut acc = vec![0u8; a.len().max(b.len())];
        xor_into(&mut acc, &a);
        xor_into(&mut acc, &b);
        prop_assert_eq!(acc, out1);
    }

    /// Segment spans tile the buffer for arbitrary lengths and part counts.
    #[test]
    fn segments_tile(total in 0usize..100_000, parts in 1usize..=64) {
        let mut cursor = 0;
        let mut max_seen = 0;
        for p in 0..parts {
            let s = segment_span(total, parts, p);
            prop_assert_eq!(s.offset, cursor);
            cursor += s.len;
            max_seen = max_seen.max(s.len);
        }
        prop_assert_eq!(cursor, total);
        prop_assert_eq!(max_seen, max_segment_len(total, parts));
    }

    /// Packet wire format roundtrips for arbitrary well-formed packets.
    #[test]
    fn packet_wire_roundtrip(
        group_bits in 1u64..(1u64 << 20),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let group = NodeSet::from_bits(group_bits);
        prop_assume!(group.len() >= 2);
        let sender = group.min().unwrap();
        // Whole lengths around r × the payload, so the sender's segments are
        // about as long as it.
        let r = group.len() - 1;
        let seg_lens: Vec<(usize, u32)> = (group.iter().filter(|&n| n != sender))
            .enumerate()
            .map(|(i, t)| (t, (payload.len() * r).saturating_sub(i) as u32))
            .collect();
        let len = payload_len_of(false, group, sender, seg_lens.iter().copied());
        let payload: Vec<u8> = payload.iter().copied().cycle().take(len).collect();
        let pkt = CodedPacket { group, sender, seg_lens, payload: payload.into(), mds: false };
        let rt = CodedPacket::from_bytes(&pkt.to_bytes()).unwrap();
        prop_assert_eq!(pkt, rt);
    }

    /// End-to-end encode → wire → decode recovers every missing
    /// intermediate, for random (k, r) and random value sizes.
    #[test]
    fn coded_exchange_recovers_everything(
        k in 2usize..=7,
        r_sel in 0usize..6,
        base_len in 0usize..40,
        seed in any::<u64>(),
    ) {
        let r = 1 + r_sel % k;
        let plan = PlacementPlan::new(k, r).unwrap();

        // Pseudo-random but deterministic value for (t, F).
        let value_for = |t: usize, f: NodeSet| -> Vec<u8> {
            let mix = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ f.bits().wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let len = base_len + (mix % 17) as usize;
            (0..len).map(|i| (mix.wrapping_add(i as u64).wrapping_mul(0x94D0_49BB_1331_11EB) >> 32) as u8).collect()
        };

        let stores: Vec<MapOutputStore> = (0..k).map(|node| {
            let mut st = MapOutputStore::new();
            for fid in plan.files_of_node(node) {
                let f = plan.nodes_of_file(fid);
                for t in 0..k {
                    if plan.keeps_intermediate(node, f, t) {
                        st.insert(t, f, Bytes::from(value_for(t, f)));
                    }
                }
            }
            st
        }).collect();

        let mut pipes: Vec<DecodePipeline> =
            (0..k).map(|n| DecodePipeline::new(k, r, n).unwrap()).collect();
        let mut recovered: Vec<Vec<(NodeSet, Vec<u8>)>> = vec![Vec::new(); k];

        for sender in 0..k {
            let enc = Encoder::new(k, r, sender).unwrap();
            for pkt in enc.encode_all(&stores[sender]).unwrap() {
                let pkt = CodedPacket::from_bytes(&pkt.to_bytes()).unwrap();
                for rx in pkt.group.iter().filter(|&n| n != sender) {
                    if let Some(done) = pipes[rx].accept(&pkt, &stores[rx]).unwrap() {
                        recovered[rx].push(done);
                    }
                }
            }
        }

        for (node, got) in recovered.iter().enumerate() {
            prop_assert_eq!(got.len() as u64, binomial((k - 1) as u64, r as u64));
            for (file, data) in got {
                prop_assert!(!file.contains(node));
                prop_assert_eq!(data, &value_for(node, *file));
            }
        }
    }

    /// The communication-load tradeoff identities hold for all (k, r).
    #[test]
    fn theory_identities(k in 1usize..=32, r_sel in 0usize..32) {
        let r = 1 + r_sel % k;
        let unc = theory::uncoded_comm_load(r, k);
        let cod = theory::coded_comm_load(r, k);
        prop_assert!((cod * r as f64 - unc).abs() < 1e-12);
        prop_assert!((0.0..1.0).contains(&unc));
        // Predicted time at r = 1 equals the baseline sum.
        let t = theory::predicted_total_time(1, 2.0, 50.0, 3.0);
        prop_assert!((t - 55.0).abs() < 1e-12);
    }
}
