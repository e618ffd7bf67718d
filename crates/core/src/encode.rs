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
//! Over a non-binary [`FieldKind`] the fold generalizes to the q-ary
//! linear combination `Σ_t coeff(k, t) ⊙ segment_t` — same structure,
//! nonzero per-segment coefficients, SIMD multiply-accumulate kernels.

use bytes::Bytes;

use crate::error::{CodedError, Result};
use crate::field::FieldKind;
use crate::gf256;
use crate::groups::MulticastGroups;
use crate::intermediate::IntermediateSource;
use crate::packet::CodedPacket;
use crate::segment::{max_segment_len, segment_for_node, segment_slice, segment_span};
use crate::solve::{mds_parts, mds_point};
use crate::subset::{NodeId, NodeSet};

/// Reusable buffers for the encode hot loop.
///
/// One scratch serves any number of [`Encoder::encode_group_into`] calls;
/// the payload buffer grows to the largest segment ever encoded and is then
/// reused without further allocation (grow-only). After a call, `payload`
/// holds the XOR-folded packet body and `seg_lens` the per-receiver
/// original segment lengths — exactly the parts
/// [`CodedPacket::write_wire`] serializes.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    /// The zero-padded XOR accumulator (packet payload).
    pub payload: Vec<u8>,
    /// `(receiver, original segment length)` pairs in ascending receiver
    /// order.
    pub seg_lens: Vec<(NodeId, u32)>,
}

impl EncodeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the true (unpadded) segment lengths of the last encoded
    /// packet — the scalable part of its wire bytes.
    pub fn seg_len_sum(&self) -> u64 {
        self.seg_lens.iter().map(|(_, l)| *l as u64).sum()
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
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    groups: MulticastGroups,
    node: NodeId,
    field: FieldKind,
}

impl Encoder {
    /// Encoder for `node` in a `(K, r)` deployment over GF(2) — the
    /// paper's XOR code and the byte-identical reference oracle.
    ///
    /// # Errors
    /// `InvalidParameters` if `(k, r)` is invalid or `node >= k`.
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        Self::with_field(k, r, node, FieldKind::Gf2)
    }

    /// Encoder over an explicit coding field: packets carry
    /// `Σ_t field.coeff(node, t) ⊙ seg_t` instead of a plain XOR fold.
    /// Decoders must be built over the same field.
    ///
    /// # Errors
    /// As [`new`](Encoder::new).
    pub fn with_field(k: usize, r: usize, node: NodeId, field: FieldKind) -> Result<Self> {
        let groups = MulticastGroups::new(k, r)?;
        if node >= k {
            return Err(CodedError::InvalidParameters {
                what: format!("node {node} out of range for K = {k}"),
            });
        }
        Ok(Encoder {
            groups,
            node,
            field,
        })
    }

    /// The group enumeration shared with the decoder.
    pub fn groups(&self) -> &MulticastGroups {
        &self.groups
    }

    /// Builds `E_{M,node}` for multicast group `m` (eq. (8)).
    ///
    /// # Errors
    /// * `InvalidParameters` if `node ∉ m` or `|m| != r+1`;
    /// * `MissingIntermediate` if a required `I^t_{M\{t}}` is absent from
    ///   `source` (keep-rule violation upstream).
    pub fn encode_group<S: IntermediateSource>(
        &self,
        m: NodeSet,
        source: &S,
    ) -> Result<CodedPacket> {
        let mut scratch = EncodeScratch::new();
        self.encode_group_into(m, source, &mut scratch)?;
        Ok(CodedPacket {
            group: m,
            sender: self.node,
            seg_lens: scratch.seg_lens,
            payload: Bytes::from(scratch.payload),
            mds: false,
        })
    }

    /// Builds the MDS-mixed quorum packet for group `m` — the wire-v2
    /// variant behind any-`s`-of-`n` decode (see [`crate::solve`]).
    ///
    /// Each target's intermediate `I^t_{M\{t}}` splits into
    /// `s = mds_parts(|m|)` zero-padded parts, mixed as
    /// `c(node,t) ⊙ Σ_j v_node^j ⊙ part_j` — every sender of `M\{t}`
    /// knows the *full* intermediate (it mapped the file), so any `s`
    /// such packets let receiver `t` solve for all parts.
    /// `scratch.seg_lens` records the per-target *total* lengths.
    ///
    /// # Errors
    /// `InvalidParameters` over GF(2) (no nontrivial binary MDS code at
    /// these lengths); otherwise as [`encode_group`](Encoder::encode_group).
    pub fn encode_group_mds_into<S: IntermediateSource>(
        &self,
        m: NodeSet,
        source: &S,
        scratch: &mut EncodeScratch,
    ) -> Result<()> {
        if !self.field.supports_quorum() {
            return Err(CodedError::InvalidParameters {
                what: format!("field {} does not support MDS quorum encode", self.field),
            });
        }
        self.groups.id_of(m)?; // validates size and universe
        if !m.contains(self.node) {
            return Err(CodedError::InvalidParameters {
                what: format!("node {} not in multicast group {m}", self.node),
            });
        }
        scratch.payload.clear();
        scratch.seg_lens.clear();
        let payload = &mut scratch.payload;
        let s = mds_parts(m.len());
        let v = mds_point(self.node);
        for t in m.iter().filter(|&t| t != self.node) {
            let file = m.without(t);
            let data = source
                .intermediate(t, file)
                .ok_or(CodedError::MissingIntermediate { target: t, file })?;
            let l0 = max_segment_len(data.len(), s);
            if l0 > payload.len() {
                payload.resize(l0, 0);
            }
            // All parts fold at offset 0, zero-padded to the part-0 span.
            let mut w = self.field.coeff(self.node, t);
            for j in 0..s {
                let span = segment_span(data.len(), s, j);
                let seg = &data[span.offset..span.offset + span.len];
                gf256::add_scaled_slice(payload, seg, w);
                w = gf256::mul(w, v);
            }
            scratch.seg_lens.push((t, data.len() as u32));
        }
        Ok(())
    }

    /// Builds `E_{M,node}` into reusable buffers — the allocation-free hot
    /// path of the Encode stage. `scratch.payload`/`scratch.seg_lens` are
    /// cleared and refilled; capacities persist across calls, so a warm
    /// scratch makes this loop heap-allocation-free.
    ///
    /// # Errors
    /// Identical to [`encode_group`](Encoder::encode_group).
    pub fn encode_group_into<S: IntermediateSource>(
        &self,
        m: NodeSet,
        source: &S,
        scratch: &mut EncodeScratch,
    ) -> Result<()> {
        self.groups.id_of(m)?; // validates size and universe
        if !m.contains(self.node) {
            return Err(CodedError::InvalidParameters {
                what: format!("node {} not in multicast group {m}", self.node),
            });
        }
        scratch.payload.clear();
        scratch.seg_lens.clear();
        let payload = &mut scratch.payload;
        for t in m.iter().filter(|&t| t != self.node) {
            let file = m.without(t);
            let data = source
                .intermediate(t, file)
                .ok_or(CodedError::MissingIntermediate { target: t, file })?;
            let span = segment_for_node(data.len(), file, self.node);
            let seg = segment_slice(data, file, self.node);
            debug_assert_eq!(seg.len(), span.len);
            if seg.len() > payload.len() {
                payload.resize(seg.len(), 0);
            }
            self.field
                .add_scaled(payload, seg, self.field.coeff(self.node, t));
            scratch.seg_lens.push((t, span.len as u32));
        }
        Ok(())
    }

    /// Encodes the packets for *all* groups containing this node, in
    /// ascending group order — the node's complete send list for the
    /// Multicast Shuffling stage (`C(K-1, r)` packets, paper §IV-C).
    pub fn encode_all<S: IntermediateSource>(&self, source: &S) -> Result<Vec<CodedPacket>> {
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
        assert_eq!(pkt.seg_lens, vec![(1, 1), (2, 1)]);
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
        assert_eq!(pkt.seg_len_for(1), Some(5));
        assert_eq!(pkt.seg_len_for(2), Some(2));
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
                assert_eq!(
                    scratch.seg_len_sum(),
                    reference
                        .seg_lens
                        .iter()
                        .map(|(_, l)| *l as u64)
                        .sum::<u64>()
                );
            }
        }
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
        let enc = Encoder::with_field(k, r, node, FieldKind::Gf256).unwrap();
        let mut scratch = EncodeScratch::new();
        let m = fs(&[0, 1, 2, 3]);
        enc.encode_group_mds_into(m, &store, &mut scratch).unwrap();
        // seg_lens carry the *total* intermediate length per target.
        let s = crate::solve::mds_parts(m.len());
        let mut max_l0 = 0usize;
        for &(t, total) in &scratch.seg_lens {
            let data = store.intermediate(t, m.without(t)).unwrap();
            assert_eq!(total as usize, data.len(), "target {t}");
            max_l0 = max_l0.max(max_segment_len(data.len(), s));
        }
        assert_eq!(scratch.payload.len(), max_l0);
        // The fold is linear with nonzero weights, so the payload cannot
        // be the classic per-position encode.
        let mut classic = EncodeScratch::new();
        enc.encode_group_into(m, &store, &mut classic).unwrap();
        assert_ne!(scratch.payload, classic.payload);
    }

    #[test]
    fn mds_encode_rejects_gf2() {
        let store = full_store(3, 2, 0, |_, _| 8);
        let enc = Encoder::new(3, 2, 0).unwrap();
        let err = enc
            .encode_group_mds_into(fs(&[0, 1, 2]), &store, &mut EncodeScratch::new())
            .unwrap_err();
        assert!(matches!(err, CodedError::InvalidParameters { .. }));
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
