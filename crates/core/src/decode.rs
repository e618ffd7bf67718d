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
//! it is missing (eq. (10)). Collecting one segment from each of the `r`
//! senders in the group and merging them in ascending sender position yields
//! the complete `I^k_{M\{k}}`.
//!
//! Under [`DecodeMode::Quorum`] the packets carry the quorum split instead
//! ([`crate::segment::quorum_role`]): the same cancellation leaves one part
//! of `I^k_{M\{k}}`, or the parity of its parts, and any `r − 1` of the
//! `r` packets rebuild it.

use std::collections::{HashMap, HashSet};

use crate::error::{CodedError, Result};
use crate::groups::MulticastGroups;
use crate::intermediate::IntermediateSource;
use crate::packet::CodedPacket;
use crate::pool::{self, BufPool};
use crate::segment::{
    max_segment_len, mds_parts, quorum_role, segment_slice, segment_span, QuorumRole,
};
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
    /// The recovered bytes, already trimmed to the original length.
    pub data: Vec<u8>,
}

/// The attribution of a recovered segment whose bytes live in a
/// caller-provided buffer (see [`Decoder::decode_packet_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The file label `F = M\{k}` the segment belongs to.
    pub file: NodeSet,
    /// The sender the segment is indexed by (`u` in eq. (10)).
    pub sender: NodeId,
    /// Zero-based position of this segment within the reassembled value.
    pub position: usize,
}

/// Per-node decoder for the coded shuffle.
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

    /// The node this decoder belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Recovers this node's segment from one received packet (eq. (10)).
    ///
    /// # Errors
    /// * `PlanMismatch` if the packet's group does not include this node, or
    ///   the group size disagrees with `r+1`, or this node is the sender;
    /// * `MalformedPacket` if the packet lacks a segment length for this
    ///   node or the payload is shorter than a known segment requires;
    /// * `MissingIntermediate` if a cancelling value is locally absent.
    pub fn decode_packet<S: IntermediateSource>(
        &self,
        packet: &CodedPacket,
        source: &S,
    ) -> Result<DecodedSegment> {
        let mut data = Vec::new();
        let info = self.decode_packet_into(packet, source, &mut data)?;
        Ok(DecodedSegment {
            file: info.file,
            sender: info.sender,
            position: info.position,
            data,
        })
    }

    /// Recovers this node's segment into a reusable accumulator — the
    /// allocation-free hot path of Algorithm 2. `acc` is cleared, filled
    /// with the recovered (already trimmed) bytes, and attributed by the
    /// returned [`SegmentInfo`]; a warm `acc` (e.g. from a
    /// [`BufPool`]) makes this heap-allocation-free.
    ///
    /// # Errors
    /// Identical to [`decode_packet`](Decoder::decode_packet).
    pub fn decode_packet_into<S: IntermediateSource>(
        &self,
        packet: &CodedPacket,
        source: &S,
        acc: &mut Vec<u8>,
    ) -> Result<SegmentInfo> {
        let m = packet.group;
        self.check_group(packet)?;
        let my_len = packet
            .seg_len_for(self.node)
            .ok_or_else(|| CodedError::MalformedPacket {
                what: format!("no segment length for receiver {}", self.node),
            })? as usize;
        if my_len > packet.payload.len() {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "declared segment length {my_len} exceeds payload {}",
                    packet.payload.len()
                ),
            });
        }

        // Cancel the locally known segments: t ∈ M \ {u, k}.
        acc.clear();
        acc.extend_from_slice(&packet.payload);
        for t in m.iter().filter(|&t| t != packet.sender && t != self.node) {
            let file = m.without(t);
            let data = source
                .intermediate(t, file)
                .ok_or(CodedError::MissingIntermediate { target: t, file })?;
            let seg = segment_slice(data, file, packet.sender);
            if seg.len() > acc.len() {
                return Err(CodedError::MalformedPacket {
                    what: format!(
                        "payload {} bytes cannot contain known segment of {}",
                        acc.len(),
                        seg.len()
                    ),
                });
            }
            xor_into(acc, seg);
        }

        let file = m.without(self.node);
        acc.truncate(my_len);
        let position = file
            .position_of(packet.sender)
            .expect("sender is in M\\{node} by construction");
        Ok(SegmentInfo {
            file,
            sender: packet.sender,
            position,
        })
    }

    /// Group enumeration shared with the encoder.
    pub fn groups(&self) -> &MulticastGroups {
        &self.groups
    }

    /// `PlanMismatch` unless `packet` belongs to a group of this
    /// deployment that holds this node, from another member.
    fn check_group(&self, packet: &CodedPacket) -> Result<()> {
        let m = packet.group;
        if m.len() != self.groups.group_size() {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet group {m} has {} members, expected {}",
                    m.len(),
                    self.groups.group_size()
                ),
            });
        }
        if !m.contains(self.node) || packet.sender == self.node || !m.contains(packet.sender) {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet for group {m} from {} not decodable at node {}",
                    packet.sender, self.node
                ),
            });
        }
        Ok(())
    }
}

/// Reassembles the `r` decoded segments of one intermediate value
/// `I^k_{F}` (paper: "merge them back").
#[derive(Clone, Debug)]
pub struct SegmentAssembler {
    file: NodeSet,
    pieces: Vec<Option<Vec<u8>>>,
    received: usize,
}

impl SegmentAssembler {
    /// Assembler for the intermediate of file `F` (`|F| = r` pieces).
    pub fn new(file: NodeSet) -> Self {
        let r = file.len();
        SegmentAssembler {
            file,
            pieces: vec![None; r],
            received: 0,
        }
    }

    /// The file being reassembled.
    pub fn file(&self) -> NodeSet {
        self.file
    }

    /// Adds an attributed, already-decoded buffer. A benign duplicate
    /// hands the buffer back so the caller can recycle it.
    ///
    /// # Errors
    /// `MalformedPacket` if the segment's file disagrees, the position is out
    /// of range, or the slot is already filled with different data.
    pub fn add_owned(&mut self, info: SegmentInfo, buf: Vec<u8>) -> Result<Option<Vec<u8>>> {
        if info.file != self.file {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "segment for {} fed to assembler for {}",
                    info.file, self.file
                ),
            });
        }
        if info.position >= self.pieces.len() {
            return Err(CodedError::MalformedPacket {
                what: format!("segment position {} out of range", info.position),
            });
        }
        match &self.pieces[info.position] {
            Some(existing) if *existing != buf => Err(CodedError::MalformedPacket {
                what: format!(
                    "conflicting duplicate segment at position {}",
                    info.position
                ),
            }),
            Some(_) => Ok(Some(buf)), // benign duplicate
            None => {
                self.pieces[info.position] = Some(buf);
                self.received += 1;
                Ok(None)
            }
        }
    }

    /// True once all `r` segments are present.
    pub fn is_complete(&self) -> bool {
        self.received == self.pieces.len()
    }

    /// Sum of the collected piece lengths so far.
    pub fn total_len(&self) -> usize {
        self.pieces.iter().flatten().map(Vec::len).sum()
    }

    /// Concatenates the segments into the full intermediate value, verifying
    /// that each piece has the length the deterministic split implies:
    /// appends the value to `out` and returns every drained piece buffer to
    /// `recycle`.
    ///
    /// # Errors
    /// `MalformedPacket` if incomplete or if piece lengths are inconsistent
    /// with the split rule of eq. (7); on error the pieces validated so far
    /// are already recycled.
    pub fn assemble_into(&mut self, out: &mut Vec<u8>, recycle: &BufPool) -> Result<()> {
        if !self.is_complete() {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "assembling {} with only {}/{} segments",
                    self.file,
                    self.received,
                    self.pieces.len()
                ),
            });
        }
        let parts = self.pieces.len();
        let total = self.total_len();
        out.reserve(total);
        let mut error = None;
        for (i, piece) in self.pieces.iter_mut().enumerate() {
            let piece = piece.take().expect("complete");
            let expected = segment_span(total, parts, i).len;
            if piece.len() != expected && error.is_none() {
                error = Some(CodedError::MalformedPacket {
                    what: format!(
                        "segment {i} has {} bytes, split rule implies {expected}",
                        piece.len()
                    ),
                });
            }
            out.extend_from_slice(&piece);
            recycle.put(piece);
        }
        self.received = 0;
        match error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Drives decoding across all groups of a node: feeds packets in any order,
/// emits completed intermediate values `(file, bytes)` as they finish.
///
/// This is the receive-side state machine of the Multicast Shuffling stage:
/// a node expects `r` packets per group for each of its `C(K-1, r)` groups
/// and finishes with `C(K-1, r)` recovered intermediates — exactly the
/// `{I^k_S : k ∉ S}` set of paper §IV-E.
///
/// Segment accumulators and completed values are leased from the shared
/// [`pool::global`]: an accumulator goes back when its group completes, a
/// value when the caller lets go of it ([`BufPool::freeze`]), so a warm
/// process decodes into pages it already holds.
#[derive(Debug)]
pub struct DecodePipeline {
    decoder: Decoder,
    mode: DecodeMode,
    slots: HashMap<u64, SegmentAssembler>,
    /// Per-group quorum state, keyed by `file.bits()` — only populated in
    /// [`DecodeMode::Quorum`] when quorum (wire v2) packets arrive.
    quorum_slots: HashMap<u64, QuorumSlot>,
    /// Groups already released by an early quorum: late packets for these
    /// are benign and ignored.
    released: HashSet<u64>,
}

/// In-flight quorum decode state for one group.
#[derive(Debug)]
struct QuorumSlot {
    /// Length of the intermediate this node is missing, as the first
    /// packet declared it (later ones are cross-checked).
    total: usize,
    /// The intermediate, grown to the end of the furthest part in: part
    /// `j` is written at its span the moment it is decoded (appended when
    /// the parts before it are in, as they usually are).
    value: Vec<u8>,
    /// Bit `j` set once part `j` is in `value`.
    parts: u128,
    /// The parity of the parts, zero-padded to part 0, once it is in.
    parity: Option<Vec<u8>>,
}

impl DecodePipeline {
    /// Pipeline for `node` in a `(K, r)` deployment.
    ///
    /// # Errors
    /// `InvalidParameters` if `(k, r)` is invalid or `node >= k`.
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        Ok(DecodePipeline {
            decoder: Decoder::new(k, r, node)?,
            mode: DecodeMode::All,
            slots: HashMap::new(),
            quorum_slots: HashMap::new(),
            released: HashSet::new(),
        })
    }

    /// Selects the release policy (builder form). Quorum mode is what
    /// enables [`accept`](DecodePipeline::accept) to process quorum
    /// (wire v2) packets.
    pub fn with_decode(mut self, mode: DecodeMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured release policy.
    pub fn mode(&self) -> DecodeMode {
        self.mode
    }

    /// Processes one received packet; returns the completed `(file, value)`
    /// if this packet was the one that completed its group — the `r`-th
    /// classic packet, or (quorum mode) the `s`-th distinct quorum packet.
    pub fn accept<S: IntermediateSource>(
        &mut self,
        packet: &CodedPacket,
        source: &S,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        if packet.mds {
            if self.mode != DecodeMode::Quorum {
                return Err(CodedError::PlanMismatch {
                    what: "quorum packet received but pipeline is in all-barrier mode".to_string(),
                });
            }
            return self.accept_mds(packet, source);
        }
        // (An error fails the job: its accumulator is dropped, not returned.)
        let mut acc = pool::global().get(packet.payload.len());
        let info = self.decoder.decode_packet_into(packet, source, &mut acc)?;
        self.add_segment_buf(info, acc)
    }

    fn add_segment_buf(
        &mut self,
        info: SegmentInfo,
        buf: Vec<u8>,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        let key = info.file.bits();
        let assembler = self
            .slots
            .entry(key)
            .or_insert_with(|| SegmentAssembler::new(info.file));
        if let Some(duplicate) = assembler.add_owned(info, buf)? {
            pool::global().put(duplicate);
            return Ok(None);
        }
        if !assembler.is_complete() {
            return Ok(None);
        }
        // Complete: merge the pieces into the output value (the assembler
        // checks each length against the split rule and returns its buffer).
        let mut assembler = self.slots.remove(&key).expect("slot just inserted");
        let mut out = pool::global().get(assembler.total_len());
        assembler.assemble_into(&mut out, pool::global())?;
        Ok(Some((info.file, out)))
    }

    /// Quorum path for single-parity (wire v2) packets: cancel the known
    /// targets' roles exactly as in Algorithm 2, which leaves sender `u`'s
    /// role for this node — one of the `s` parts of `I^k_{M\{k}}`, decoded
    /// straight into place, or their parity. The group releases the moment
    /// any `s` distinct roles are in, a missing part rebuilt as the parity
    /// XOR the others: packets from the slowest sender are never waited
    /// for, and late arrivals after release are ignored.
    fn accept_mds<S: IntermediateSource>(
        &mut self,
        packet: &CodedPacket,
        source: &S,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        let node = self.decoder.node();
        self.decoder.check_group(packet)?;
        let m = packet.group;
        let total = packet
            .seg_len_for(node)
            .ok_or_else(|| CodedError::MalformedPacket {
                what: format!("no reconstruction length for receiver {node}"),
            })? as usize;
        let file = m.without(node);
        let key = file.bits();
        if self.released.contains(&key) {
            return Ok(None); // group already met quorum: late packet
        }
        let s = mds_parts(m.len());
        let l0 = max_segment_len(total, s);
        if l0 > packet.payload.len() {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "payload {} bytes shorter than part length {l0}",
                    packet.payload.len()
                ),
            });
        }
        let slot = self.quorum_slots.entry(key).or_insert_with(|| QuorumSlot {
            total,
            value: pool::global().get(total),
            parts: 0,
            parity: None,
        });
        if slot.total != total {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "packet declares reconstruction length {total}, earlier packets said {}",
                    slot.total
                ),
            });
        }
        let part = |j| {
            let span = segment_span(total, s, j);
            span.offset..span.offset + span.len
        };
        let role = quorum_role(m, node, packet.sender);
        let held = match role {
            QuorumRole::Part(j) if slot.parts & (1 << j) == 0 => {
                let range = part(j);
                let payload = &packet.payload[..range.len()];
                if slot.value.len() <= range.start {
                    slot.value.resize(range.start, 0);
                    slot.value.extend_from_slice(payload);
                } else {
                    slot.value[range.clone()].copy_from_slice(payload);
                }
                cancel_mds(packet, node, source, s, &mut slot.value[range])?;
                slot.parts |= 1 << j;
                None
            }
            QuorumRole::Part(j) => Some(&slot.value[part(j)]),
            QuorumRole::Parity if slot.parity.is_none() => {
                let mut parity = pool::global().get(l0);
                parity.extend_from_slice(&packet.payload[..l0]);
                cancel_mds(packet, node, source, s, &mut parity)?;
                slot.parity = Some(parity);
                None
            }
            QuorumRole::Parity => slot.parity.as_deref(),
        };
        if let Some(held) = held {
            // A role heard before: benign if it says the same thing again.
            let mut again = pool::global().get(held.len());
            again.extend_from_slice(&packet.payload[..held.len()]);
            cancel_mds(packet, node, source, s, &mut again)?;
            let same = again == held;
            pool::global().put(again);
            if !same {
                return Err(CodedError::MalformedPacket {
                    what: format!(
                        "conflicting duplicate {role:?} from {} for {file}",
                        packet.sender
                    ),
                });
            }
            return Ok(None);
        }
        let roles = slot.parts.count_ones() as usize + usize::from(slot.parity.is_some());
        if roles < s {
            return Ok(None);
        }
        let mut slot = self.quorum_slots.remove(&key).expect("slot just touched");
        slot.value.resize(total, 0);
        if let Some(mut parity) = slot.parity.take() {
            if let Some(j) = (0..s).find(|&j| slot.parts & (1 << j) == 0) {
                for q in (0..s).filter(|&q| q != j) {
                    xor_into(&mut parity, &slot.value[part(q)]);
                }
                let missing = part(j);
                parity.truncate(missing.len());
                slot.value[missing].copy_from_slice(&parity);
            }
            pool::global().put(parity);
        }
        self.released.insert(key);
        Ok(Some((file, slot.value)))
    }

    /// Number of partially assembled intermediates still in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len() + self.quorum_slots.len()
    }
}

/// Turns `dst`, the first `dst.len()` payload bytes, into sender `u`'s
/// quorum role for `node`: XORs out the role `u` plays for every target it
/// and `node` both know (`t ∈ M \ {u, node}`), cut to `dst`.
fn cancel_mds<S: IntermediateSource>(
    packet: &CodedPacket,
    node: NodeId,
    source: &S,
    s: usize,
    dst: &mut [u8],
) -> Result<()> {
    let m = packet.group;
    for t in m.iter().filter(|&t| t != packet.sender && t != node) {
        let file = m.without(t);
        let data = source
            .intermediate(t, file)
            .ok_or(CodedError::MissingIntermediate { target: t, file })?;
        let declared = packet.seg_len_for(t).unwrap_or(u32::MAX) as usize;
        if declared != data.len() {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "packet declares {declared} bytes for target {t}, local copy has {}",
                    data.len()
                ),
            });
        }
        for j in quorum_role(m, t, packet.sender).parts(s) {
            let span = segment_span(data.len(), s, j);
            xor_into(
                dst,
                &data[span.offset..span.offset + span.len.min(dst.len())],
            );
        }
    }
    Ok(())
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

    /// Feeds one decoded segment to the assembler.
    fn add(asm: &mut SegmentAssembler, seg: DecodedSegment) -> Result<()> {
        let info = SegmentInfo {
            file: seg.file,
            sender: seg.sender,
            position: seg.position,
        };
        asm.add_owned(info, seg.data).map(drop)
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
                pipelines[node].decoder.groups().groups_per_node(),
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
    fn pipeline_recycles_segment_buffers() {
        // Values of 20–100 KB: segments the shared pool keeps.
        let (k, r) = (5, 2);
        let stores = stores(k, r, 20_000);
        let mut pipeline = DecodePipeline::new(k, r, 0).unwrap();
        let before = pool::global().stats();
        let (mut accepted, mut done) = (0u64, Vec::new());
        for sender in 1..k {
            let enc = Encoder::new(k, r, sender).unwrap();
            for pkt in enc.encode_all(&stores[sender]).unwrap() {
                if !pkt.group.contains(0) {
                    continue;
                }
                accepted += 1;
                done.extend(pipeline.accept(&pkt, &stores[0]).unwrap());
            }
        }
        assert_eq!(
            done.len() as u64,
            pipeline.decoder.groups().groups_per_node()
        );
        assert_eq!(pipeline.in_flight(), 0);
        // Each completed group returned its r accumulators to the pool and
        // later packets drew from it instead of allocating. (The pool is the
        // process's: other tests can only add to either count.)
        let after = pool::global().stats();
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        let leases = (after.hits - before.hits) + (after.misses - before.misses);
        assert!(leases >= accepted + done.len() as u64, "{leases} leases");
        // A completed value goes back when its holder lets go of it.
        let (_, value) = done.pop().unwrap();
        let cap = value.capacity();
        drop(pool::global().freeze(value));
        assert_eq!(pool::global().get(cap).capacity(), cap);
        assert!(pool::global().stats().hits > after.hits);
    }

    #[test]
    fn decode_packet_into_reuses_accumulator() {
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
            let info = dec.decode_packet_into(&pkt, &stores[0], &mut acc).unwrap();
            assert_eq!(info.file, reference.file);
            assert_eq!(info.sender, reference.sender);
            assert_eq!(info.position, reference.position);
            assert_eq!(acc, reference.data);
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

    #[test]
    fn assembler_rejects_conflicting_duplicate() {
        let file = fs(&[1, 2]);
        let mut asm = SegmentAssembler::new(file);
        add(
            &mut asm,
            DecodedSegment {
                file,
                sender: 1,
                position: 0,
                data: vec![1, 2],
            },
        )
        .unwrap();
        // Same position, different bytes.
        let err = add(
            &mut asm,
            DecodedSegment {
                file,
                sender: 1,
                position: 0,
                data: vec![9, 9],
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn assembler_accepts_benign_duplicate() {
        let file = fs(&[1, 2]);
        let mut asm = SegmentAssembler::new(file);
        let seg = DecodedSegment {
            file,
            sender: 1,
            position: 0,
            data: vec![1, 2],
        };
        add(&mut asm, seg.clone()).unwrap();
        add(&mut asm, seg).unwrap();
        assert!(!asm.is_complete());
    }

    #[test]
    fn assembler_incomplete_fails() {
        let mut asm = SegmentAssembler::new(fs(&[1, 2]));
        assert!(asm.assemble_into(&mut Vec::new(), &BufPool::new()).is_err());
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
                pipelines[node].decoder.groups().groups_per_node(),
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

    #[test]
    fn decode_mode_parses_and_displays() {
        assert_eq!("all".parse::<DecodeMode>().unwrap(), DecodeMode::All);
        assert_eq!("quorum".parse::<DecodeMode>().unwrap(), DecodeMode::Quorum);
        assert!("both".parse::<DecodeMode>().is_err());
        assert_eq!(DecodeMode::All.to_string(), "all");
        assert_eq!(DecodeMode::Quorum.to_string(), "quorum");
        assert_eq!(DecodeMode::default(), DecodeMode::All);
    }

    #[test]
    fn assembler_validates_split_rule() {
        let file = fs(&[1, 2]);
        let mut asm = SegmentAssembler::new(file);
        // Position 0 must be the longer piece; give it the shorter one.
        add(
            &mut asm,
            DecodedSegment {
                file,
                sender: 1,
                position: 0,
                data: vec![1],
            },
        )
        .unwrap();
        add(
            &mut asm,
            DecodedSegment {
                file,
                sender: 2,
                position: 1,
                data: vec![2, 3],
            },
        )
        .unwrap();
        let err = asm
            .assemble_into(&mut Vec::new(), &BufPool::new())
            .unwrap_err();
        assert!(err.to_string().contains("split rule"));
    }
}
