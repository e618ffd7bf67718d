//! Encoding to create coded packets — paper §IV-C, Algorithm 1.
//!
//! Within each multicast group `M` (`|M| = r+1`) containing node `k`, the
//! encoder builds the packet
//!
//! ```text
//! E_{M,k} = ⊕_{t ∈ M\{k}}  I^t_{M\{t}, k}
//! ```
//!
//! where `I^t_{M\{t}}` is split into `r` segments indexed by the members of
//! `M\{t}` (eq. (7)) and the XOR runs over the segments *addressed to `k`*,
//! zero-padded to the longest (footnote 3). Every operand is locally known:
//! `k ∈ M\{t}` means node `k` mapped file `F_{M\{t}}`, and `t ∉ M\{t}` means
//! the keep rule retained `I^t_{M\{t}}`.
//!
//! [`Encoder::encode_frame`] writes the packet the engine posts: the header
//! (each receiver's whole intermediate length) and then the fold, straight
//! into one leased frame — the first share copied in, the others XORed over
//! it, a longer one's tail appended, so no byte is zeroed first or copied
//! twice. The quorum variant folds the same way over a different split: each
//! target's intermediate is cut into `s = r − 1` parts, and the packet
//! carries one part or the parity of all of them
//! ([`quorum_role`](crate::segment::quorum_role)), so any
//! `s` of a group's `r` packets decode.

use bytes::Bytes;

use crate::error::{CodedError, Result};
use crate::groups::MulticastGroups;
use crate::intermediate::MapOutputStore;
use crate::packet::{payload_len_of, wire_len_for, write_header, CodedPacket};
use crate::segment::{mds_parts, segment_span, share};
use crate::subset::{NodeId, NodeSet};
use crate::xor::xor_into;

/// Buffers for [`Encoder::encode_group_into`] and
/// [`Encoder::encode_group_mds_into`], which leave a packet's header entries
/// and payload apart (the engine's path, [`Encoder::encode_frame`], needs
/// none). Grow-only: a warm scratch encodes without allocating.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// The zero-padded XOR fold (packet payload).
    pub payload: Vec<u8>,
    /// `(receiver, whole intermediate length)` pairs in ascending receiver
    /// order — the header entries.
    pub seg_lens: Vec<(NodeId, u32)>,
    /// Bytes of intermediates folded into `payload`.
    folded: u64,
}

impl EncodeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes of intermediates the last encode folded into its payload:
    /// the true (unpadded) lengths of its shares, summed.
    pub fn seg_len_sum(&self) -> u64 {
        self.folded
    }
}

/// The intermediates a packet folds: `I^t_{M\{t}}` for each receiver `t`,
/// ascending, as the encoding node holds them.
struct Operands<'s> {
    group: NodeSet,
    sender: NodeId,
    quorum: bool,
    data: [(NodeId, &'s [u8]); 64],
    n: usize,
}

impl Operands<'_> {
    /// The header entries: each receiver's whole length.
    fn lens(&self) -> impl ExactSizeIterator<Item = (NodeId, u32)> + '_ {
        self.data[..self.n]
            .iter()
            .map(|&(t, data)| (t, data.len() as u32))
    }

    fn payload_len(&self) -> usize {
        payload_len_of(self.quorum, self.group, self.sender, self.lens())
    }

    /// Appends the payload to `out`: each receiver's share XORed over what
    /// is there, its tail appended past the end, the whole padded to
    /// `payload_len`. Returns the bytes folded.
    fn fold_into(&self, out: &mut Vec<u8>, payload_len: usize) -> u64 {
        let base = out.len();
        let mut folded = 0;
        for &(t, data) in &self.data[..self.n] {
            let (parts, role) = share(self.group, t, self.sender, self.quorum);
            for j in role.parts(parts) {
                let span = segment_span(data.len(), parts, j);
                let piece = &data[span.offset..span.offset + span.len];
                let over = piece.len().min(out.len() - base);
                xor_into(&mut out[base..base + over], &piece[..over]);
                out.extend_from_slice(&piece[over..]);
                folded += piece.len() as u64;
            }
        }
        out.resize(base + payload_len, 0);
        folded
    }
}

/// Per-node encoder for the coded shuffle.
///
/// ```
/// use bytes::Bytes;
/// use cts_core::encode::Encoder;
/// use cts_core::intermediate::MapOutputStore;
/// use cts_core::subset::NodeSet;
///
/// // K = 3, r = 2: the single group is {0,1,2}; node 0 encodes
/// // I^1_{0,2} ⊕ I^2_{0,1} (segments addressed to node 0).
/// let mut store = MapOutputStore::new();
/// store.insert(1, NodeSet::from_iter([0usize, 2]), Bytes::from_static(b"ab"));
/// store.insert(2, NodeSet::from_iter([0usize, 1]), Bytes::from_static(b"cd"));
/// let enc = Encoder::new(3, 2, 0).unwrap();
/// let pkt = enc
///     .encode_group(NodeSet::from_iter([0usize, 1, 2]), &store)
///     .unwrap();
/// // Node 0 is at position 0 in both {0,2} and {0,1}: segments "a" and "c".
/// assert_eq!(pkt.payload, vec![b'a' ^ b'c']);
/// // The header names each receiver's whole intermediate.
/// assert_eq!(pkt.seg_lens, vec![(1, 2), (2, 2)]);
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    groups: MulticastGroups,
    node: NodeId,
}

impl Encoder {
    /// Encoder for `node` in a `(K, r)` deployment.
    ///
    /// # Errors
    /// `InvalidParameters` if `(k, r)` is invalid or `node >= k`.
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        let groups = MulticastGroups::new(k, r)?;
        if node >= k {
            return Err(CodedError::InvalidParameters {
                what: format!("node {node} out of range for K = {k}"),
            });
        }
        Ok(Encoder { groups, node })
    }

    /// The group enumeration shared with the decoder.
    pub fn groups(&self) -> &MulticastGroups {
        &self.groups
    }

    /// Looks up what this node's packet for `m` folds (errors as
    /// [`encode_group`](Encoder::encode_group)'s).
    fn operands<'s>(
        &self,
        m: NodeSet,
        source: &'s MapOutputStore,
        quorum: bool,
    ) -> Result<Operands<'s>> {
        self.groups.id_of(m)?; // validates size and universe
        if !m.contains(self.node) {
            return Err(CodedError::InvalidParameters {
                what: format!("node {} not in multicast group {m}", self.node),
            });
        }
        let mut ops = Operands {
            group: m,
            sender: self.node,
            quorum,
            data: [(0, &[]); 64],
            n: 0,
        };
        for t in m.iter().filter(|&t| t != self.node) {
            ops.data[ops.n] = (t, &source.intermediate(t, m.without(t))?[..]);
            ops.n += 1;
        }
        Ok(ops)
    }

    /// Writes `E_{M,node}` for group `m` as one wire frame — the Encode
    /// stage's path. The frame comes from `lease`, asked for exactly its
    /// final size; the header goes in, then the payload is folded in place
    /// behind it. Under `quorum` the packet is the single-parity (wire v2)
    /// one.
    ///
    /// Returns the frame and its *scalable* bytes: the mean over the `r`
    /// receivers of what the packet stands for — a receiver's segment, or
    /// under `quorum` an `s`-th of its intermediate. The rest of the frame
    /// is header and zero padding, which do not grow with the input.
    ///
    /// # Errors
    /// As [`encode_group`](Encoder::encode_group).
    pub fn encode_frame(
        &self,
        m: NodeSet,
        source: &MapOutputStore,
        quorum: bool,
        lease: impl FnOnce(usize) -> Vec<u8>,
    ) -> Result<(Vec<u8>, u64)> {
        let ops = self.operands(m, source, quorum)?;
        let payload_len = ops.payload_len();
        let mut frame = lease(wire_len_for(ops.n, payload_len));
        write_header(quorum, m, self.node, ops.lens(), payload_len, &mut frame);
        let folded = ops.fold_into(&mut frame, payload_len);
        let r = ops.n as u64;
        let scalable = if quorum {
            let whole: u64 = ops.lens().map(|(_, len)| u64::from(len)).sum();
            whole / (r * mds_parts(m.len()) as u64)
        } else {
            folded / r
        };
        Ok((frame, scalable))
    }

    /// Builds `E_{M,node}` for multicast group `m` (eq. (8)).
    ///
    /// # Errors
    /// * `InvalidParameters` if `node ∉ m` or `|m| != r+1`;
    /// * `MissingIntermediate` if a required `I^t_{M\{t}}` is absent from
    ///   `source` (keep-rule violation upstream).
    pub fn encode_group(&self, m: NodeSet, source: &MapOutputStore) -> Result<CodedPacket> {
        let mut scratch = EncodeScratch::new();
        self.encode_into(m, source, false, &mut scratch)?;
        Ok(CodedPacket {
            group: m,
            sender: self.node,
            seg_lens: scratch.seg_lens,
            payload: Bytes::from(scratch.payload),
            mds: false,
        })
    }

    /// Builds the quorum packet for group `m` into `scratch` — the wire-v2
    /// variant behind any-`s`-of-`r` decode.
    ///
    /// Each target's intermediate `I^t_{M\{t}}` splits into
    /// `s = mds_parts(|m|)` parts; the packet XORs, per target, the part
    /// or the parity [`quorum_role`](crate::segment::quorum_role) gives
    /// this node, zero-padded to the longest part 0. Every sender of
    /// `M\{t}` knows the *full*
    /// intermediate (it mapped the file), and the roles of a target's `r`
    /// senders are its `s` parts and their parity, so any `s` such packets
    /// rebuild it.
    ///
    /// # Errors
    /// As [`encode_group`](Encoder::encode_group).
    pub fn encode_group_mds_into(
        &self,
        m: NodeSet,
        source: &MapOutputStore,
        scratch: &mut EncodeScratch,
    ) -> Result<()> {
        self.encode_into(m, source, true, scratch)
    }

    /// Builds `E_{M,node}` into `scratch`, header entries and payload apart.
    /// Only `benchmark/`'s encode probe calls it (ROADMAP 1(a)); the engine
    /// encodes with [`encode_frame`](Encoder::encode_frame).
    ///
    /// # Errors
    /// As [`encode_group`](Encoder::encode_group).
    pub fn encode_group_into(
        &self,
        m: NodeSet,
        source: &MapOutputStore,
        scratch: &mut EncodeScratch,
    ) -> Result<()> {
        self.encode_into(m, source, false, scratch)
    }

    fn encode_into(
        &self,
        m: NodeSet,
        source: &MapOutputStore,
        quorum: bool,
        scratch: &mut EncodeScratch,
    ) -> Result<()> {
        let ops = self.operands(m, source, quorum)?;
        scratch.seg_lens.clear();
        scratch.seg_lens.extend(ops.lens());
        scratch.payload.clear();
        scratch.folded = ops.fold_into(&mut scratch.payload, ops.payload_len());
        Ok(())
    }

    /// Encodes the packets for *all* groups containing this node, in
    /// ascending group order — the node's complete send list for the
    /// Multicast Shuffling stage (`C(K-1, r)` packets, paper §IV-C).
    pub fn encode_all(&self, source: &MapOutputStore) -> Result<Vec<CodedPacket>> {
        let mut out = Vec::with_capacity(self.groups.groups_per_node() as usize);
        for (_, m) in self.groups.groups_of_node(self.node) {
            out.push(self.encode_group(m, source)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intermediate::MapOutputStore;
    use crate::segment::{max_segment_len, quorum_role, segment_for_node};
    use bytes::Bytes;

    fn fs(nodes: &[usize]) -> NodeSet {
        nodes.iter().copied().collect()
    }

    /// Store with I^t_F = `pattern(t, F)` for all (t, F) a node would keep.
    fn full_store(
        k: usize,
        r: usize,
        node: NodeId,
        len_of: impl Fn(NodeId, NodeSet) -> usize,
    ) -> MapOutputStore {
        use crate::placement::PlacementPlan;
        let plan = PlacementPlan::new(k, r).unwrap();
        let mut store = MapOutputStore::new();
        for file_id in plan.files_of_node(node) {
            let file = plan.nodes_of_file(file_id);
            for t in 0..k {
                if plan.keeps_intermediate(node, file, t) {
                    let len = len_of(t, file);
                    let data: Vec<u8> = (0..len).map(|i| (t * 37 + i * 11 + 3) as u8).collect();
                    store.insert(t, file, Bytes::from(data));
                }
            }
        }
        store
    }

    #[test]
    fn paper_fig6_structure() {
        // Fig. 6: group M = {1,2,3} one-based = {0,1,2}, r = 2. Node 0's
        // packet XORs the node-0 segments of I^1_{0,2} and I^2_{0,1}.
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[0, 2]), Bytes::from_static(&[10, 20]));
        store.insert(2, fs(&[0, 1]), Bytes::from_static(&[30, 40]));
        let enc = Encoder::new(3, 2, 0).unwrap();
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &store).unwrap();
        // Node 0 is position 0 in both files; each 2-byte value splits 1+1.
        assert_eq!(pkt.payload, vec![10 ^ 30]);
        assert_eq!(pkt.seg_lens, vec![(1, 2), (2, 2)]);
        assert_eq!(pkt.sender, 0);
    }

    #[test]
    fn paper_fig5_example_single_kv() {
        // §IV-C worked numbers: Node 1 multicasts [30 ⊕ 51] built from
        // I^2_{1,3} = [30] and I^3_{1,2} = [51] (one-based). Zero-based:
        // node 0, I^1_{0,2} = [30], I^2_{0,1} = [51]; with r = 2 a 1-byte
        // value splits into segments of 1 and 0 bytes; node 0 holds
        // position 0 → the 1-byte segment of each.
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[0, 2]), Bytes::from_static(&[30]));
        store.insert(2, fs(&[0, 1]), Bytes::from_static(&[51]));
        let enc = Encoder::new(3, 2, 0).unwrap();
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &store).unwrap();
        assert_eq!(pkt.payload, vec![30 ^ 51]);
    }

    #[test]
    fn missing_intermediate_is_reported() {
        let store = MapOutputStore::new();
        let enc = Encoder::new(3, 2, 0).unwrap();
        let err = enc.encode_group(fs(&[0, 1, 2]), &store).unwrap_err();
        assert!(matches!(err, CodedError::MissingIntermediate { .. }));
    }

    #[test]
    fn rejects_group_without_self() {
        let store = MapOutputStore::new();
        let enc = Encoder::new(4, 2, 3).unwrap();
        let err = enc.encode_group(fs(&[0, 1, 2]), &store).unwrap_err();
        assert!(matches!(err, CodedError::InvalidParameters { .. }));
    }

    #[test]
    fn rejects_wrong_group_size() {
        let store = MapOutputStore::new();
        let enc = Encoder::new(4, 2, 0).unwrap();
        assert!(enc.encode_group(fs(&[0, 1]), &store).is_err());
    }

    #[test]
    fn payload_padded_to_longest_segment() {
        // Unequal intermediate sizes → zero-padded XOR (footnote 3).
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[0, 2]), Bytes::from(vec![0xAA; 10])); // segs 5/5
        store.insert(2, fs(&[0, 1]), Bytes::from(vec![0xBB; 4])); // segs 2/2
        let enc = Encoder::new(3, 2, 0).unwrap();
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &store).unwrap();
        assert_eq!(pkt.payload.len(), 5);
        assert_eq!(&pkt.payload[..2], &[0xAA ^ 0xBB, 0xAA ^ 0xBB]);
        assert_eq!(&pkt.payload[2..], &[0xAA, 0xAA, 0xAA]);
        assert_eq!(pkt.seg_len_for(1), Some(10));
        assert_eq!(pkt.seg_len_for(2), Some(4));
    }

    #[test]
    fn encode_all_covers_every_group_of_node() {
        let k = 6;
        let r = 3;
        let node = 2;
        let store = full_store(k, r, node, |t, f| (t + 1) * 3 + f.len());
        let enc = Encoder::new(k, r, node).unwrap();
        let packets = enc.encode_all(&store).unwrap();
        assert_eq!(packets.len() as u64, enc.groups().groups_per_node());
        for p in &packets {
            assert!(p.group.contains(node));
            assert_eq!(p.sender, node);
            assert_eq!(p.seg_lens.len(), r);
        }
        // Ascending group order.
        for w in packets.windows(2) {
            assert!(w[0].group < w[1].group);
        }
    }

    #[test]
    fn encode_group_into_matches_encode_group_with_warm_scratch() {
        let (k, r, node) = (6, 3, 2);
        let store = full_store(k, r, node, |t, f| (t + 1) * 9 + f.len());
        let enc = Encoder::new(k, r, node).unwrap();
        let mut scratch = EncodeScratch::new();
        // Two passes over all groups: the second runs against warm buffers
        // and must produce identical packets.
        for pass in 0..2 {
            for (_, m) in enc.groups().groups_of_node(node) {
                let reference = enc.encode_group(m, &store).unwrap();
                enc.encode_group_into(m, &store, &mut scratch).unwrap();
                assert_eq!(scratch.payload, reference.payload, "pass {pass} {m}");
                assert_eq!(scratch.seg_lens, reference.seg_lens, "pass {pass} {m}");
                // Folded: this node's segment of each receiver's value.
                let segments: u64 = (reference.seg_lens.iter())
                    .map(|&(t, total)| segment_for_node(total as usize, m.without(t), node).len)
                    .map(|len| len as u64)
                    .sum();
                assert_eq!(scratch.seg_len_sum(), segments);
            }
        }
    }

    #[test]
    fn a_frame_is_the_packets_wire_bytes_in_one_exact_lease() {
        let (k, r, node) = (6, 3, 2);
        let store = full_store(k, r, node, |t, f| (t * 7 + f.bits() as usize) % 23);
        let enc = Encoder::new(k, r, node).unwrap();
        let mut scratch = EncodeScratch::new();
        for quorum in [false, true] {
            for (_, m) in enc.groups().groups_of_node(node) {
                let mut asked = 0;
                let (frame, scalable) = enc
                    .encode_frame(m, &store, quorum, |len| {
                        asked = len;
                        Vec::with_capacity(len)
                    })
                    .unwrap();
                assert_eq!((frame.len(), frame.capacity()), (asked, asked));
                let mut want = Vec::new();
                if quorum {
                    enc.encode_group_mds_into(m, &store, &mut scratch).unwrap();
                    let (lens, payload) = (&scratch.seg_lens, &scratch.payload);
                    CodedPacket::write_wire_mds(m, node, lens, payload, &mut want);
                    let whole: u64 = lens.iter().map(|&(_, l)| l as u64).sum();
                    assert_eq!(scalable, whole / (r * mds_parts(r + 1)) as u64);
                } else {
                    enc.encode_group(m, &store).unwrap().write_into(&mut want);
                    enc.encode_group_into(m, &store, &mut scratch).unwrap();
                    assert_eq!(scalable, scratch.seg_len_sum() / r as u64);
                }
                assert_eq!(frame, want, "{m} quorum {quorum}");
            }
        }
    }

    #[test]
    fn frames_append_behind_what_the_lease_holds() {
        // The fold XORs into the payload region only, never the header.
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[0, 2]), Bytes::from(vec![0xFF; 9]));
        store.insert(2, fs(&[0, 1]), Bytes::from(vec![0x0F; 3]));
        let enc = Encoder::new(3, 2, 0).unwrap();
        let m = fs(&[0, 1, 2]);
        let (frame, _) = enc
            .encode_frame(m, &store, false, Vec::with_capacity)
            .unwrap();
        let pkt = CodedPacket::from_bytes(&frame).unwrap();
        assert_eq!(pkt.seg_lens, vec![(1, 9), (2, 3)]);
        // Segments 5 of 0xFF and 2 of 0x0F.
        assert_eq!(&pkt.payload[..], &[0xF0, 0xF0, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn scratch_payload_shrinks_correctly_between_groups() {
        // A long encode followed by a short one must not leak stale tail
        // bytes from the warm (larger-capacity) payload buffer.
        let mut store = MapOutputStore::new();
        store.insert(1, fs(&[0, 2]), Bytes::from(vec![0x11; 64]));
        store.insert(2, fs(&[0, 1]), Bytes::from(vec![0x22; 64]));
        let enc = Encoder::new(3, 2, 0).unwrap();
        let mut scratch = EncodeScratch::new();
        enc.encode_group_into(fs(&[0, 1, 2]), &store, &mut scratch)
            .unwrap();
        assert_eq!(scratch.payload.len(), 32);
        store.insert(1, fs(&[0, 2]), Bytes::from(vec![0x33; 4]));
        store.insert(2, fs(&[0, 1]), Bytes::from(vec![0x44; 4]));
        enc.encode_group_into(fs(&[0, 1, 2]), &store, &mut scratch)
            .unwrap();
        assert_eq!(scratch.payload, vec![0x33 ^ 0x44, 0x33 ^ 0x44]);
    }

    #[test]
    fn mds_encode_reports_totals_and_pads_to_part_zero() {
        let (k, r, node) = (4, 3, 1);
        let store = full_store(k, r, node, |t, f| (t + 2) * 5 + f.len());
        let enc = Encoder::new(k, r, node).unwrap();
        let mut scratch = EncodeScratch::new();
        let m = fs(&[0, 1, 2, 3]);
        enc.encode_group_mds_into(m, &store, &mut scratch).unwrap();
        // seg_lens carry the *total* intermediate length per target, and
        // the payload folds each target's part (or parity) at offset 0.
        let s = mds_parts(m.len());
        let mut expected = Vec::new();
        for &(t, total) in &scratch.seg_lens {
            let data = store.intermediate(t, m.without(t)).unwrap();
            assert_eq!(total as usize, data.len(), "target {t}");
            expected.resize(expected.len().max(max_segment_len(data.len(), s)), 0);
            let mut piece = vec![0u8; max_segment_len(data.len(), s)];
            for j in quorum_role(m, t, node).parts(s) {
                let span = segment_span(data.len(), s, j);
                xor_into(&mut piece, &data[span.offset..span.offset + span.len]);
            }
            xor_into(&mut expected, &piece);
        }
        assert_eq!(scratch.payload, expected);
        // Node 1 carries the parity for target 0 (the member before it)
        // and parts for the others.
        assert_eq!(quorum_role(m, 0, node), crate::segment::QuorumRole::Parity);
    }

    #[test]
    fn empty_intermediates_give_empty_packets() {
        let store = full_store(4, 2, 1, |_, _| 0);
        let enc = Encoder::new(4, 2, 1).unwrap();
        for pkt in enc.encode_all(&store).unwrap() {
            assert!(pkt.payload.is_empty());
            assert!(pkt.seg_lens.iter().all(|(_, l)| *l == 0));
        }
    }
}
