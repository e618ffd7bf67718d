//! Decoding of coded packets — paper §IV-E, Algorithm 2.
//!
//! On receipt of `E_{M,u}` from sender `u`, node `k` XORs out the segments
//! it already knows from its own Map stage,
//!
//! ```text
//! E_{M,u} ⊕ (⊕_{t ∈ M\{u,k}} I^t_{M\{t}, u})  =  I^k_{M\{k}, u}
//! ```
//!
//! recovering the `u`-indexed segment of the intermediate value `I^k_{M\{k}}`
//! it is missing (eq. (10)). One segment from each of the `r` senders in the
//! group, each at the sender's position, make the complete `I^k_{M\{k}}`.
//!
//! [`DecodePipeline`] does this in place, in one slot per group of its node.
//! Everything `k` XORs out of a group's packets is one of the `r` values
//! `I^t_{M\{t}}`, `t ∈ M \ {k}`, its own Map produced: the group's first
//! packet reads them from the store into the slot, and leases the value,
//! whose whole length every header names. Each packet's share is copied
//! from the payload straight to its span there and the known segments
//! cancelled over it. The buffer fills in arrival order (appended to when
//! the shares come in order, as the engine takes them) and is handed out
//! whole when the group completes, to be the piece Reduce absorbs — no
//! per-packet buffer or store lookup, and no assembly copy.
//!
//! Under [`DecodeMode::Quorum`] the packets carry the quorum split instead
//! ([`crate::segment::quorum_role`]): the same cancellation leaves one part
//! of `I^k_{M\{k}}`, or the parity of its parts, and any `r − 1` of the
//! `r` packets rebuild it — the parity, decoded into the span of a part not
//! yet in, becomes the missing part when the others are XORed over it.

use bytes::Bytes;

use crate::error::{CodedError, Result};
use crate::groups::MulticastGroups;
use crate::intermediate::MapOutputStore;
use crate::packet::{malformed, CodedPacket};
use crate::pool;
use crate::segment::{segment_span, share, QuorumRole, SegmentSpan};
use crate::subset::{NodeId, NodeSet};
use crate::xor::xor_into;

/// When a receiver releases a multicast group's intermediate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecodeMode {
    /// Barrier-on-all: wait for every one of the group's `r` packets and
    /// cancel-and-divide each (the paper's Algorithm 2). The default.
    #[default]
    All,
    /// Quorum: with single-parity-coded (wire v2) packets, release the
    /// group as soon as any `s = r − 1` of its `r` packets are in, so one
    /// straggling or dead sender per group is tolerated.
    Quorum,
}

impl DecodeMode {
    /// Both modes, for equivalence sweeps.
    pub const ALL: [DecodeMode; 2] = [DecodeMode::All, DecodeMode::Quorum];
}

impl std::fmt::Display for DecodeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeMode::All => "all",
            DecodeMode::Quorum => "quorum",
        })
    }
}

impl std::str::FromStr for DecodeMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "all" => Ok(DecodeMode::All),
            "quorum" => Ok(DecodeMode::Quorum),
            other => Err(format!(
                "unknown decode mode `{other}` (expected all|quorum)"
            )),
        }
    }
}

/// A segment of a needed intermediate value recovered from one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedSegment {
    /// The file label `F = M\{k}` the segment belongs to.
    pub file: NodeSet,
    /// The sender the segment is indexed by (`u` in eq. (10)).
    pub sender: NodeId,
    /// Zero-based position of this segment within the reassembled value
    /// (= position of `sender` within `F`).
    pub position: usize,
    /// The recovered bytes.
    pub data: Vec<u8>,
}

/// Per-node decoder for the coded shuffle: one packet of the paper's code at
/// a time, apart from any table.
#[derive(Clone, Debug)]
pub struct Decoder {
    groups: MulticastGroups,
    node: NodeId,
}

impl Decoder {
    /// Decoder for `node` in a `(K, r)` deployment.
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
        Ok(Decoder { groups, node })
    }

    /// Recovers this node's segment from one received packet of the
    /// paper's code (eq. (10)) into a fresh buffer.
    ///
    /// # Errors
    /// As [`decode_packet_into`](Decoder::decode_packet_into).
    pub fn decode_packet(
        &self,
        packet: &CodedPacket,
        source: &MapOutputStore,
    ) -> Result<DecodedSegment> {
        let mut data = Vec::new();
        self.decode_packet_into(packet, source, &mut data)?;
        let file = packet.group.without(self.node);
        Ok(DecodedSegment {
            file,
            sender: packet.sender,
            position: file.position_of(packet.sender).expect("checked sender"),
            data,
        })
    }

    /// Recovers this node's segment of one packet of the paper's code into
    /// `acc` (cleared first), reading the group's known values from `source`
    /// for this packet alone. Only `benchmark/`'s decode probe calls it
    /// (ROADMAP 1(a)); a job decodes through [`DecodePipeline`].
    ///
    /// # Errors
    /// * `PlanMismatch` if the packet's group does not include this node, or
    ///   the group size disagrees with `r+1`, or this node is the sender, or
    ///   it is a quorum packet;
    /// * `MissingIntermediate` if a cancelling value is locally absent;
    /// * `MalformedPacket` if the packet lacks a length for this node, its
    ///   payload is shorter than the segment, or a length it declares
    ///   disagrees with this node's copy of that intermediate.
    pub fn decode_packet_into(
        &self,
        packet: &CodedPacket,
        source: &MapOutputStore,
        acc: &mut Vec<u8>,
    ) -> Result<()> {
        let (m, u, node) = (packet.group, packet.sender, self.node);
        let file = m.without(node);
        if packet.mds || m.len() != self.groups.group_size() || !of_group(packet, node, file) {
            let code = ["", "quorum "][usize::from(packet.mds)];
            let what = format!("{code}packet for group {m} from {u} not decodable at node {node}");
            return Err(CodedError::PlanMismatch { what });
        }
        let mut known = vec![Bytes::new(); file.len()];
        resolve(source, m, node, &mut known)?;
        let total = own_len(packet, node, &known)?;
        let span = segment_span(total, file.len(), file.position_of(u).expect("checked"));
        acc.clear();
        acc.extend_from_slice(payload_prefix(packet, span.len)?);
        cancel(packet, node, &known, acc);
        Ok(())
    }
}

/// Whether `packet` is of the group `file ∪ {node}` and from one of `file`:
/// another member than `node`.
fn of_group(packet: &CodedPacket, node: NodeId, file: NodeSet) -> bool {
    packet.group == file.with(node) && file.contains(packet.sender)
}

/// Reads what `node` cancels out of group `m`'s packets into `known`: its
/// own copy of `I^t_{M\{t}}` for each `t ∈ M \ {node}`, ascending.
///
/// # Errors
/// `MissingIntermediate` if one is not in `source`.
fn resolve(source: &MapOutputStore, m: NodeSet, node: NodeId, known: &mut [Bytes]) -> Result<()> {
    for (t, slot) in m.without(node).iter().zip(known) {
        *slot = source.intermediate(t, m.without(t))?.clone();
    }
    Ok(())
}

/// The whole length `packet` declares for `node`, its entries for the
/// other targets read against `known` (as [`resolve`] left it).
///
/// # Errors
/// `MalformedPacket` if the header has no entry for `node`, names a target
/// outside the group, or declares a known target's length other than
/// `node`'s copy.
fn own_len(packet: &CodedPacket, node: NodeId, known: &[Bytes]) -> Result<usize> {
    let file = packet.group.without(node);
    let mut own = None;
    for &(t, declared) in &packet.seg_lens {
        match file.position_of(t).map(|i| known[i].len()) {
            _ if t == node => own = Some(declared as usize),
            Some(ours) if ours == declared as usize => {}
            ours => {
                let what = format!("{declared} bytes declared for {t}, local copy: {ours:?}");
                return Err(malformed(what));
            }
        }
    }
    own.ok_or_else(|| malformed(format!("no length for receiver {node}")))
}

/// Turns `dst`, the first `dst.len()` payload bytes of `packet`, into the
/// sender's share for `node`: XORs out what the sender folded of every
/// target the two both know (`t ∈ M \ {u, node}`, read from `known`), cut
/// to `dst`.
fn cancel(packet: &CodedPacket, node: NodeId, known: &[Bytes], dst: &mut [u8]) {
    let m = packet.group;
    let targets = m.without(node).iter().zip(known);
    for (t, data) in targets.filter(|&(t, _)| t != packet.sender) {
        let (parts, role) = share(m, t, packet.sender, packet.mds);
        for j in role.parts(parts) {
            let span = segment_span(data.len(), parts, j);
            let len = span.len.min(dst.len());
            xor_into(dst, &data[span.offset..span.offset + len]);
        }
    }
}

/// The first `len` payload bytes.
fn payload_prefix(packet: &CodedPacket, len: usize) -> Result<&[u8]> {
    let short = || format!("payload {} bytes, a share of {len}", packet.payload.len());
    packet.payload.get(..len).ok_or_else(|| malformed(short()))
}

/// Drives decoding across all groups of a node: feeds packets in any order,
/// emits completed intermediate values `(file, bytes)` as they finish.
///
/// This is the receive-side state machine of the Multicast Shuffling stage:
/// a node expects `r` packets per group for each of its `C(K-1, r)` groups
/// and finishes with `C(K-1, r)` recovered intermediates — exactly the
/// `{I^k_S : k ∉ S}` set of paper §IV-E. It keeps one slot per group, in
/// ascending group order (the order the engine lists a rank's groups in), and
/// decodes each packet in place into its slot's value, against the `r` known
/// values the slot read at the group's first packet.
///
/// A value is leased from the shared [`pool::global`] and goes back when the
/// caller lets go of it ([`BufPool::freeze`](crate::pool::BufPool::freeze)),
/// so a warm process decodes into pages it already holds.
#[derive(Debug)]
pub struct DecodePipeline {
    decoder: Decoder,
    mode: DecodeMode,
    slots: Vec<Slot>,
    /// The slots' known values, `r` a slot: slot `at`'s are
    /// `known[at * r..][..r]`, [`resolve`]d at its group's first packet.
    known: Vec<Bytes>,
}

/// One group's decode state.
#[derive(Debug)]
struct Slot {
    /// `M \ {node}`: the file whose intermediate the group rebuilds.
    file: NodeSet,
    /// The intermediate, leased at the group's first packet and grown to the
    /// end of the furthest share in: a share past the end is appended (the
    /// bytes before it zeroed), one before it copied over.
    value: Vec<u8>,
    /// Its length, as the group's first packet declared it (later ones are
    /// cross-checked).
    total: u32,
    /// Bit `j` set once share `j` (segment `j`, or quorum part `j`) is in.
    have: u64,
    /// Quorum: the part whose span holds the decoded parity, once it is in
    /// — always the lowest part not yet in, whose span is no shorter than
    /// any other part's that can still be missing.
    parity: Option<u8>,
    /// Handed out: a packet arriving later is a late no-op.
    released: bool,
}

impl Slot {
    /// Byte range of share `j` of the value split into `parts`.
    fn span(&self, parts: usize, j: usize) -> std::ops::Range<usize> {
        let SegmentSpan { offset, len } = segment_span(self.total as usize, parts, j);
        offset..offset + len
    }

    /// Puts the first `range.len()` payload bytes at `range` of the value.
    fn put(&mut self, range: std::ops::Range<usize>, payload: &[u8]) {
        let bytes = &payload[..range.len()];
        if self.value.len() <= range.start {
            self.value.resize(range.start, 0);
            self.value.extend_from_slice(bytes);
        } else {
            self.value[range].copy_from_slice(bytes);
        }
    }
}

impl DecodePipeline {
    /// Pipeline for `node` in a `(K, r)` deployment.
    ///
    /// # Errors
    /// `InvalidParameters` if `(k, r)` is invalid or `node >= k`.
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        let decoder = Decoder::new(k, r, node)?;
        let slots: Vec<Slot> = (decoder.groups.groups_of_node(node))
            .map(|(_, m)| Slot {
                file: m.without(node),
                value: Vec::new(),
                total: 0,
                have: 0,
                parity: None,
                released: false,
            })
            .collect();
        Ok(DecodePipeline {
            decoder,
            mode: DecodeMode::All,
            known: vec![Bytes::new(); slots.len() * r],
            slots,
        })
    }

    /// Selects the release policy (builder form). Quorum mode is what
    /// enables [`accept`](DecodePipeline::accept) to process quorum
    /// (wire v2) packets.
    pub fn with_decode(mut self, mode: DecodeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Processes one received packet; returns the completed `(file, value)`
    /// if this packet was the one that completed its group — the `r`-th
    /// classic packet, or (quorum mode) the `s`-th distinct quorum packet.
    ///
    /// # Errors
    /// As [`accept_at`](DecodePipeline::accept_at); `PlanMismatch` for a
    /// packet of a group this node is not in.
    pub fn accept(
        &mut self,
        packet: &CodedPacket,
        source: &MapOutputStore,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        let file = packet.group.without(self.decoder.node).bits();
        let at = self
            .slots
            .binary_search_by_key(&file, |slot| slot.file.bits());
        self.accept_at(at.unwrap_or(self.slots.len()), packet, source)
    }

    /// [`accept`](DecodePipeline::accept) for a packet of the node's
    /// `at`-th group in ascending order, which the caller already knows.
    ///
    /// `source` is read at the group's first packet only: the slot then
    /// holds the group's `r` known values, and its later packets are decoded
    /// against those.
    ///
    /// # Errors
    /// * `PlanMismatch` if the packet is not of that group, is from this
    ///   node, or is of the other decode discipline;
    /// * `MissingIntermediate` if a known value is not in `source` at the
    ///   group's first packet;
    /// * `MalformedPacket` if it has no length for this node, or that length
    ///   disagrees with the group's earlier packets, its payload is short, a
    ///   known target's length disagrees with the local copy, or it repeats
    ///   a share heard before with different bytes.
    ///
    /// An error fails the job: the group's slot is left as the error found it.
    pub fn accept_at(
        &mut self,
        at: usize,
        packet: &CodedPacket,
        source: &MapOutputStore,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        if packet.mds != (self.mode == DecodeMode::Quorum) {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "a wire-v{} packet for a {} decode",
                    1 + u8::from(packet.mds),
                    self.mode
                ),
            });
        }
        let node = self.decoder.node;
        let slot = (self.slots.get_mut(at))
            .filter(|slot| of_group(packet, node, slot.file))
            .ok_or_else(|| CodedError::PlanMismatch {
                what: format!(
                    "packet for group {} from {} is not for node {node}'s group #{at}",
                    packet.group, packet.sender
                ),
            })?;
        if slot.released {
            return Ok(None); // the group is complete: a late packet
        }
        let r = slot.file.len();
        let known = &mut self.known[at * r..][..r];
        let first = slot.have == 0 && slot.parity.is_none();
        if first {
            resolve(source, packet.group, node, known)?;
        }
        let total = own_len(packet, node, known)?;
        if first {
            slot.total = total as u32;
            slot.value = pool::global().get(total);
        } else if slot.total as usize != total {
            let what = format!("length {total}, earlier packets said {}", slot.total);
            return Err(malformed(what));
        }
        // Where the share goes: its own span, or the parity's.
        let (parts, role) = share(packet.group, node, packet.sender, packet.mds);
        let (j, heard) = match role {
            QuorumRole::Part(j) => (j, slot.have & (1 << j) != 0),
            QuorumRole::Parity => match slot.parity {
                Some(j) => (j as usize, true),
                None => ((!slot.have).trailing_zeros() as usize, false),
            },
        };
        let range = slot.span(parts, j);
        let payload = payload_prefix(packet, range.len())?;
        if heard {
            // A share heard before: benign if it says the same thing again.
            let mut again = payload.to_vec();
            cancel(packet, node, known, &mut again);
            if again != slot.value[range] {
                let what = format!("conflicting {role:?} from {}", packet.sender);
                return Err(malformed(what));
            }
            return Ok(None);
        }
        if role == QuorumRole::Parity {
            slot.parity = Some(j as u8);
        } else {
            if slot.parity == Some(j as u8) {
                // The parity sat where this part goes: on to the next part
                // not in (later, so no longer).
                let next = (!(slot.have | 1 << j)).trailing_zeros() as usize;
                let to = slot.span(parts, next);
                let from = range.start..range.start + to.len();
                if slot.value.len() <= to.start {
                    slot.value.resize(to.start, 0);
                    slot.value.extend_from_within(from);
                } else {
                    slot.value.copy_within(from, to.start);
                }
                slot.parity = Some(next as u8);
            }
            slot.have |= 1 << j;
        }
        slot.put(range.clone(), payload);
        cancel(packet, node, known, &mut slot.value[range]);

        let roles = slot.have.count_ones() as usize + usize::from(slot.parity.is_some());
        if roles < parts {
            return Ok(None);
        }
        if let Some(j) = slot.parity.filter(|&j| slot.have & (1 << j) == 0) {
            // Parts in but one, and the parity in its span: XOR the others
            // over it and it is the missing part.
            let missing = slot.span(parts, j as usize);
            for q in (0..parts).filter(|&q| q != j as usize) {
                let part = slot.span(parts, q);
                let len = part.len().min(missing.len());
                let (lo, hi) = slot.value.split_at_mut(missing.start.max(part.start));
                let (dst, src) = if q < j as usize {
                    (&mut hi[..missing.len()], &lo[part.start..part.start + len])
                } else {
                    (&mut lo[missing.clone()], &hi[..len])
                };
                xor_into(dst, src);
            }
        }
        debug_assert_eq!(slot.value.len(), total, "every share in place");
        slot.released = true;
        Ok(Some((slot.file, std::mem::take(&mut slot.value))))
    }

    /// Number of groups with packets in that have not completed.
    pub fn in_flight(&self) -> usize {
        (self.slots.iter())
            .filter(|slot| !slot.released && (slot.have != 0 || slot.parity.is_some()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::intermediate::MapOutputStore;
    use crate::placement::PlacementPlan;
    use bytes::Bytes;

    fn fs(nodes: &[usize]) -> NodeSet {
        nodes.iter().copied().collect()
    }

    /// Deterministic intermediate contents for (target, file).
    fn value_for(t: NodeId, file: NodeSet, len_scale: usize) -> Vec<u8> {
        let len = (t + 1) * len_scale + file.len();
        (0..len)
            .map(|i| (t * 89 + file.bits() as usize * 31 + i * 7) as u8)
            .collect()
    }

    /// Builds the keep-rule store for every node of a (k, r) deployment.
    fn stores(k: usize, r: usize, len_scale: usize) -> Vec<MapOutputStore> {
        let plan = PlacementPlan::new(k, r).unwrap();
        (0..k)
            .map(|node| {
                let mut store = MapOutputStore::new();
                for file_id in plan.files_of_node(node) {
                    let file = plan.nodes_of_file(file_id);
                    for t in 0..k {
                        if plan.keeps_intermediate(node, file, t) {
                            store.insert(t, file, Bytes::from(value_for(t, file, len_scale)));
                        }
                    }
                }
                store
            })
            .collect()
    }

    /// Full multicast exchange: every node encodes for all its groups, every
    /// other group member decodes, and the recovered values must equal the
    /// originals.
    fn roundtrip(k: usize, r: usize, len_scale: usize) {
        let stores = stores(k, r, len_scale);
        let mut pipelines: Vec<DecodePipeline> = (0..k)
            .map(|n| DecodePipeline::new(k, r, n).unwrap())
            .collect();
        let mut recovered: Vec<Vec<(NodeSet, Vec<u8>)>> = vec![Vec::new(); k];

        for sender in 0..k {
            let enc = Encoder::new(k, r, sender).unwrap();
            for pkt in enc.encode_all(&stores[sender]).unwrap() {
                // Wire roundtrip as the transport would do.
                let pkt = CodedPacket::from_bytes(&pkt.to_bytes()).unwrap();
                for receiver in pkt.group.iter().filter(|&n| n != sender) {
                    if let Some(done) = pipelines[receiver].accept(&pkt, &stores[receiver]).unwrap()
                    {
                        recovered[receiver].push(done);
                    }
                }
            }
        }

        let plan = PlacementPlan::new(k, r).unwrap();
        for node in 0..k {
            // Every node recovers exactly the intermediates of files it did
            // not map: C(K-1, r) of them.
            assert_eq!(
                recovered[node].len() as u64,
                pipelines[node].decoder.groups.groups_per_node(),
                "node {node} at (k={k}, r={r})"
            );
            assert_eq!(pipelines[node].in_flight(), 0);
            for (file, data) in &recovered[node] {
                assert!(!file.contains(node));
                assert_eq!(file.len(), r);
                assert_eq!(
                    *data,
                    value_for(node, *file, len_scale),
                    "I^{node}_{file} (k={k}, r={r})"
                );
                // The file must exist in the placement.
                plan.file_of_nodes(*file).unwrap();
            }
        }
    }

    #[test]
    fn roundtrip_paper_fig7_setting() {
        roundtrip(3, 2, 4); // the Fig. 6/7 group {1,2,3}
    }

    #[test]
    fn roundtrip_k4_r2_fig4_setting() {
        roundtrip(4, 2, 10);
    }

    #[test]
    fn roundtrip_various_k_r() {
        for (k, r) in [(4, 1), (4, 3), (5, 2), (5, 4), (6, 3), (7, 2), (6, 5)] {
            roundtrip(k, r, 7);
        }
    }

    #[test]
    fn roundtrip_tiny_values_with_padding() {
        // len_scale 1 → values of 2..=k+1 bytes; splits produce zero-length
        // tail segments, exercising the padding paths.
        roundtrip(5, 3, 1);
        roundtrip(6, 4, 1);
    }

    #[test]
    fn decode_packet_into_matches_decode_packet() {
        let (k, r) = (4, 2);
        let stores = stores(k, r, 7);
        let dec = Decoder::new(k, r, 0).unwrap();
        let enc = Encoder::new(k, r, 1).unwrap();
        let mut acc = Vec::new();
        for pkt in enc.encode_all(&stores[1]).unwrap() {
            if !pkt.group.contains(0) {
                continue;
            }
            let reference = dec.decode_packet(&pkt, &stores[0]).unwrap();
            dec.decode_packet_into(&pkt, &stores[0], &mut acc).unwrap();
            assert_eq!(acc, reference.data);
            let whole = value_for(0, reference.file, 7);
            let span = segment_span(whole.len(), r, reference.position);
            assert_eq!(acc, whole[span.offset..span.offset + span.len]);
        }
    }

    #[test]
    fn decode_rejects_foreign_group() {
        let stores = stores(4, 2, 3);
        let dec = Decoder::new(4, 2, 3).unwrap();
        let enc = Encoder::new(4, 2, 0).unwrap();
        // Group {0,1,2} does not contain node 3.
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &stores[0]).unwrap();
        let err = dec.decode_packet(&pkt, &stores[3]).unwrap_err();
        assert!(matches!(err, CodedError::PlanMismatch { .. }));
    }

    #[test]
    fn decode_rejects_own_packet() {
        let stores = stores(3, 2, 3);
        let enc = Encoder::new(3, 2, 0).unwrap();
        let dec = Decoder::new(3, 2, 0).unwrap();
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &stores[0]).unwrap();
        assert!(dec.decode_packet(&pkt, &stores[0]).is_err());
    }

    #[test]
    fn decode_rejects_wrong_r() {
        let stores = stores(4, 2, 3);
        let enc = Encoder::new(4, 2, 0).unwrap();
        let pkt = enc.encode_group(fs(&[0, 1, 2]), &stores[0]).unwrap();
        // A decoder configured for r = 3 sees a group of the wrong size.
        let dec = Decoder::new(4, 3, 1).unwrap();
        let err = dec.decode_packet(&pkt, &stores[1]).unwrap_err();
        assert!(matches!(err, CodedError::PlanMismatch { .. }));
    }

    /// Encodes sender's MDS-mixed packet for group `m` and roundtrips it
    /// through the v2 wire format, as the engine's quorum path does.
    fn mds_packet(
        k: usize,
        r: usize,
        sender: usize,
        m: NodeSet,
        store: &MapOutputStore,
    ) -> CodedPacket {
        let enc = Encoder::new(k, r, sender).unwrap();
        let mut scratch = crate::encode::EncodeScratch::new();
        enc.encode_group_mds_into(m, store, &mut scratch).unwrap();
        let mut wire = Vec::new();
        CodedPacket::write_wire_mds(m, sender, &scratch.seg_lens, &scratch.payload, &mut wire);
        CodedPacket::from_bytes(&wire).unwrap()
    }

    /// Full quorum exchange with `skip` senders suppressed per group: every
    /// node must still recover every missing intermediate byte-identically,
    /// as long as at least `s = r - 1` of the `r` packets arrive.
    fn quorum_roundtrip_skipping(k: usize, r: usize, len_scale: usize, skip: usize) {
        let stores = stores(k, r, len_scale);
        let groups = MulticastGroups::new(k, r).unwrap();
        let mut pipelines: Vec<DecodePipeline> = (0..k)
            .map(|n| {
                DecodePipeline::new(k, r, n)
                    .unwrap()
                    .with_decode(DecodeMode::Quorum)
            })
            .collect();
        let mut recovered: Vec<Vec<(NodeSet, Vec<u8>)>> = vec![Vec::new(); k];

        for (gid, m) in groups.iter_groups() {
            // Deterministically suppress `skip` senders per group.
            let victims: Vec<usize> = m.iter().skip(gid.0 as usize % m.len()).take(skip).collect();
            for sender in m.iter().filter(|u| !victims.contains(u)) {
                let pkt = mds_packet(k, r, sender, m, &stores[sender]);
                for rx in m.iter().filter(|&n| n != sender) {
                    if let Some(done) = pipelines[rx].accept(&pkt, &stores[rx]).unwrap() {
                        recovered[rx].push(done);
                    }
                }
            }
        }

        for node in 0..k {
            assert_eq!(
                recovered[node].len() as u64,
                pipelines[node].decoder.groups.groups_per_node(),
                "node {node} at (k={k}, r={r}, skip={skip})"
            );
            assert_eq!(pipelines[node].in_flight(), 0);
            for (file, data) in &recovered[node] {
                assert_eq!(
                    *data,
                    value_for(node, *file, len_scale),
                    "I^{node}_{file} (k={k}, r={r}, skip={skip})"
                );
            }
        }
    }

    #[test]
    fn quorum_roundtrip_on_full_receipt() {
        for (k, r) in [(4, 2), (5, 2), (5, 3), (6, 4)] {
            quorum_roundtrip_skipping(k, r, 7, 0);
        }
        quorum_roundtrip_skipping(5, 3, 1, 0); // zero-length tail parts
    }

    #[test]
    fn quorum_tolerates_one_missing_sender_per_group() {
        // One of the r packets per group never arrives, yet every group
        // still releases (at r = 2, s = 1: either packet alone).
        for (k, r) in [(4, 2), (4, 3), (5, 3), (5, 4), (6, 3)] {
            quorum_roundtrip_skipping(k, r, 6, 1);
        }
        quorum_roundtrip_skipping(5, 4, 1, 1);
    }

    #[test]
    fn quorum_late_packet_after_release_is_ignored() {
        let (k, r, len_scale) = (4, 3, 5);
        let stores = stores(k, r, len_scale);
        let m: NodeSet = fs(&[0, 1, 2, 3]);
        let mut pipe = DecodePipeline::new(k, r, 0)
            .unwrap()
            .with_decode(DecodeMode::Quorum);
        // Senders 1 and 2 complete the quorum (s = 2); sender 3 is late.
        let p1 = mds_packet(k, r, 1, m, &stores[1]);
        let p2 = mds_packet(k, r, 2, m, &stores[2]);
        let p3 = mds_packet(k, r, 3, m, &stores[3]);
        assert!(pipe.accept(&p1, &stores[0]).unwrap().is_none());
        let (file, data) = pipe.accept(&p2, &stores[0]).unwrap().expect("quorum met");
        assert_eq!(file, m.without(0));
        assert_eq!(data, value_for(0, file, len_scale));
        // The straggler's packet arrives after release: benign no-op.
        assert!(pipe.accept(&p3, &stores[0]).unwrap().is_none());
        // And a duplicate of an already-used equation is benign too.
        assert!(pipe.accept(&p1, &stores[0]).unwrap().is_none());
        assert_eq!(pipe.in_flight(), 0);
    }

    #[test]
    fn mds_packet_rejected_in_all_mode() {
        let (k, r) = (4, 3);
        let stores = stores(k, r, 4);
        let pkt = mds_packet(k, r, 1, fs(&[0, 1, 2, 3]), &stores[1]);
        let mut pipe = DecodePipeline::new(k, r, 0).unwrap();
        let err = pipe.accept(&pkt, &stores[0]).unwrap_err();
        assert!(matches!(err, CodedError::PlanMismatch { .. }));
    }

    /// Sender `u`'s packet for group `m` under `mode`, through the wire
    /// format as the engine sends it.
    fn packet(
        mode: DecodeMode,
        (k, r): (usize, usize),
        u: NodeId,
        m: NodeSet,
        store: &MapOutputStore,
    ) -> CodedPacket {
        let enc = Encoder::new(k, r, u).unwrap();
        let quorum = mode == DecodeMode::Quorum;
        let (frame, _) = enc
            .encode_frame(m, store, quorum, Vec::with_capacity)
            .unwrap();
        CodedPacket::from_bytes(&frame).unwrap()
    }

    /// A group's known values are read at its first packet only: its later
    /// packets, offered with an empty store, still decode, and the group
    /// releases exactly its value.
    #[test]
    fn a_group_reads_the_store_at_its_first_packet_only() {
        let (k, r, len_scale) = (5, 3, 6);
        let stores = stores(k, r, len_scale);
        let empty = MapOutputStore::new();
        let groups = MulticastGroups::new(k, r).unwrap();
        for mode in DecodeMode::ALL {
            for node in 0..k {
                let mut pipe = DecodePipeline::new(k, r, node).unwrap().with_decode(mode);
                for (at, (_, m)) in groups.groups_of_node(node).enumerate() {
                    let mut released = Vec::new();
                    for (i, u) in m.iter().filter(|&u| u != node).enumerate() {
                        let pkt = packet(mode, (k, r), u, m, &stores[u]);
                        let store = if i == 0 { &stores[node] } else { &empty };
                        released.extend(pipe.accept_at(at, &pkt, store).unwrap());
                    }
                    let file = m.without(node);
                    let want = (file, value_for(node, file, len_scale));
                    assert_eq!(released, [want], "{mode} node {node} group {m}");
                }
                assert_eq!(pipe.in_flight(), 0);
            }
        }
    }

    /// A classic packet declaring a known target's length other than the
    /// receiver's copy is malformed — as a group's first packet and as a
    /// later one.
    #[test]
    fn a_classic_packet_with_a_wrong_known_length_is_malformed() {
        let (k, r) = (4, 3);
        let stores = stores(k, r, 5);
        let m = fs(&[0, 1, 2, 3]);
        let honest = packet(DecodeMode::All, (k, r), 1, m, &stores[1]);
        let mut bad = packet(DecodeMode::All, (k, r), 2, m, &stores[2]);
        for entry in bad.seg_lens.iter_mut().filter(|(t, _)| *t == 3) {
            entry.1 += 1;
        }
        let mut pipe = DecodePipeline::new(k, r, 0).unwrap();
        let err = pipe.accept_at(0, &bad, &stores[0]);
        assert!(
            matches!(err, Err(CodedError::MalformedPacket { .. })),
            "{err:?}"
        );
        assert_eq!(pipe.accept_at(0, &honest, &stores[0]).unwrap(), None);
        let err = pipe.accept_at(0, &bad, &stores[0]);
        assert!(
            matches!(err, Err(CodedError::MalformedPacket { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn decode_mode_parses_and_displays() {
        assert_eq!("all".parse::<DecodeMode>().unwrap(), DecodeMode::All);
        assert_eq!("quorum".parse::<DecodeMode>().unwrap(), DecodeMode::Quorum);
        assert!("both".parse::<DecodeMode>().is_err());
        assert_eq!(DecodeMode::All.to_string(), "all");
        assert_eq!(DecodeMode::Quorum.to_string(), "quorum");
        assert_eq!(DecodeMode::default(), DecodeMode::All);
    }
}
