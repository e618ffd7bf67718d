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

use std::collections::{HashMap, HashSet};

use crate::error::{CodedError, Result};
use crate::field::FieldKind;
use crate::gf256;
use crate::groups::MulticastGroups;
use crate::intermediate::IntermediateSource;
use crate::packet::CodedPacket;
use crate::pool::{self, BufPool};
use crate::segment::{max_segment_len, segment_slice, segment_span};
use crate::solve::{mds_parts, mds_point, mds_row, GroupSolver};
use crate::subset::{NodeId, NodeSet};

/// When a receiver releases a multicast group's intermediate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecodeMode {
    /// Barrier-on-all: wait for every one of the group's `r` packets and
    /// cancel-and-divide each (the paper's Algorithm 2). The default.
    #[default]
    All,
    /// Quorum: with MDS-mixed packets (GF(256)), release the group as
    /// soon as the per-group solver reaches full rank — any
    /// `s = r − 1` of the `r` packets suffice, so one straggling or dead
    /// sender per group is tolerated. Over GF(2) (no binary MDS code)
    /// every packet is needed, as under [`All`](DecodeMode::All).
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
    field: FieldKind,
}

impl Decoder {
    /// Decoder for `node` in a `(K, r)` deployment over GF(2) — the
    /// paper's XOR code and the byte-identical reference oracle.
    ///
    /// # Errors
    /// `InvalidParameters` if `(k, r)` is invalid or `node >= k`.
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        Self::with_field(k, r, node, FieldKind::Gf2)
    }

    /// Decoder over an explicit coding field — must match the field the
    /// sender's [`Encoder`](crate::encode::Encoder) combined packets in
    /// (the rule is deterministic, so no coefficients travel on the wire).
    ///
    /// # Errors
    /// As [`new`](Decoder::new).
    pub fn with_field(k: usize, r: usize, node: NodeId, field: FieldKind) -> Result<Self> {
        let groups = MulticastGroups::new(k, r)?;
        if node >= k {
            return Err(CodedError::InvalidParameters {
                what: format!("node {node} out of range for K = {k}"),
            });
        }
        Ok(Decoder {
            groups,
            node,
            field,
        })
    }

    /// The node this decoder belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The coding field packets are cancelled in.
    pub fn field(&self) -> FieldKind {
        self.field
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
        if m.len() != self.groups.group_size() {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet group {m} has {} members, expected {}",
                    m.len(),
                    self.groups.group_size()
                ),
            });
        }
        if !m.contains(self.node) || packet.sender == self.node {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet for group {m} from {} not decodable at node {}",
                    packet.sender, self.node
                ),
            });
        }
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

        // Cancel the locally known segments: t ∈ M \ {u, k}. In
        // characteristic 2 subtraction is XOR, so cancellation re-applies
        // the sender's own `coeff(u, t) ⊙ segment` terms.
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
            self.field
                .add_scaled(acc, seg, self.field.coeff(packet.sender, t));
        }

        let file = m.without(self.node);
        acc.truncate(my_len);
        // What remains is coeff(u, node) ⊙ I^node_{file, u}: divide by our
        // own coefficient (a GF(2) no-op — the coefficient is 1).
        let own = self.field.coeff(packet.sender, self.node);
        self.field.scale(acc, self.field.inv(own));
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
    /// Per-group MDS solvers, keyed by `file.bits()` — only populated in
    /// [`DecodeMode::Quorum`] when MDS-mixed (wire v2) packets arrive.
    quorum_slots: HashMap<u64, QuorumSlot>,
    /// Groups already released by an early quorum: late packets for these
    /// are benign and ignored.
    released: HashSet<u64>,
}

/// In-flight MDS decode state for one group.
#[derive(Debug)]
struct QuorumSlot {
    solver: GroupSolver,
    /// Reconstruction length of the intermediate this node is missing,
    /// as declared by the first packet (cross-checked on later ones).
    total: usize,
}

impl DecodePipeline {
    /// Pipeline for `node` in a `(K, r)` deployment over GF(2).
    pub fn new(k: usize, r: usize, node: NodeId) -> Result<Self> {
        Self::with_field(k, r, node, FieldKind::Gf2)
    }

    /// Pipeline over an explicit coding field (see
    /// [`Decoder::with_field`]).
    ///
    /// # Errors
    /// As [`new`](DecodePipeline::new).
    pub fn with_field(k: usize, r: usize, node: NodeId, field: FieldKind) -> Result<Self> {
        Ok(DecodePipeline {
            decoder: Decoder::with_field(k, r, node, field)?,
            mode: DecodeMode::All,
            slots: HashMap::new(),
            quorum_slots: HashMap::new(),
            released: HashSet::new(),
        })
    }

    /// Selects the release policy (builder form). Quorum mode is what
    /// enables [`accept`](DecodePipeline::accept) to process MDS-mixed
    /// (wire v2) packets through the [`GroupSolver`].
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
    /// classic packet, or (quorum mode) the one whose equation brought the
    /// group's MDS system to full rank.
    pub fn accept<S: IntermediateSource>(
        &mut self,
        packet: &CodedPacket,
        source: &S,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        if packet.mds {
            if self.mode != DecodeMode::Quorum {
                return Err(CodedError::PlanMismatch {
                    what: "MDS-mixed packet received but pipeline is in all-barrier mode"
                        .to_string(),
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

    /// Quorum path for MDS-mixed (wire v2) packets: cancel the known
    /// senders' mixes exactly as in Algorithm 2, then feed the residual —
    /// `c(u,k) ⊙ Σ_j v_u^j ⊙ part_j(I^k_{M\{k}})` — into the group's
    /// [`GroupSolver`] as one linear equation in the `s` unknown parts.
    /// The group releases the moment any `s` independent equations have
    /// arrived; packets from the slowest sender are never waited for, and
    /// late arrivals after release are ignored.
    fn accept_mds<S: IntermediateSource>(
        &mut self,
        packet: &CodedPacket,
        source: &S,
    ) -> Result<Option<(NodeSet, Vec<u8>)>> {
        let field = self.decoder.field();
        let node = self.decoder.node();
        if !field.supports_quorum() {
            return Err(CodedError::PlanMismatch {
                what: format!("MDS-mixed packet received but field {field} has no MDS code"),
            });
        }
        let m = packet.group;
        if m.len() != self.decoder.groups().group_size() {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet group {m} has {} members, expected {}",
                    m.len(),
                    self.decoder.groups().group_size()
                ),
            });
        }
        if !m.contains(node) || packet.sender == node {
            return Err(CodedError::PlanMismatch {
                what: format!(
                    "packet for group {m} from {} not decodable at node {node}",
                    packet.sender
                ),
            });
        }
        let my_total = packet
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
        let l0 = max_segment_len(my_total, s);
        if l0 > packet.payload.len() {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "payload {} bytes shorter than part length {l0}",
                    packet.payload.len()
                ),
            });
        }

        // Cancel t ∈ M \ {u, k} by re-applying the sender's MDS mix of the
        // locally held intermediates (characteristic 2: add = subtract).
        let mut acc = pool::global().get(packet.payload.len());
        Self::cancel_mds(field, packet, node, source, s, &mut acc)?;
        acc.truncate(l0);
        let row = mds_row(field, packet.sender, node, s);
        let slot = self.quorum_slots.entry(key).or_insert_with(|| QuorumSlot {
            solver: GroupSolver::new(s, l0),
            total: my_total,
        });
        if slot.total != my_total {
            return Err(CodedError::MalformedPacket {
                what: format!(
                    "packet declares reconstruction length {my_total}, earlier packets said {}",
                    slot.total
                ),
            });
        }
        let added = slot.solver.add_equation(&row, &acc);
        pool::global().put(acc);
        added?;
        if !slot.solver.is_complete() {
            return Ok(None);
        }
        let slot = self.quorum_slots.remove(&key).expect("slot just touched");
        let parts = slot.solver.solve()?;
        let mut out = pool::global().get(my_total);
        for (j, part) in parts.iter().enumerate() {
            let len = segment_span(my_total, s, j).len;
            out.extend_from_slice(&part[..len]);
        }
        self.released.insert(key);
        Ok(Some((file, out)))
    }

    /// Copies the payload into `acc` and cancels every locally known
    /// sender-mix term, leaving only the receiver's unknown combination.
    fn cancel_mds<S: IntermediateSource>(
        field: FieldKind,
        packet: &CodedPacket,
        node: NodeId,
        source: &S,
        s: usize,
        acc: &mut Vec<u8>,
    ) -> Result<()> {
        acc.clear();
        acc.extend_from_slice(&packet.payload);
        let v = mds_point(packet.sender);
        for t in packet
            .group
            .iter()
            .filter(|&t| t != packet.sender && t != node)
        {
            let file = packet.group.without(t);
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
            let mut w = field.coeff(packet.sender, t);
            for j in 0..s {
                let span = segment_span(data.len(), s, j);
                let seg = &data[span.offset..span.offset + span.len];
                if seg.len() > acc.len() {
                    return Err(CodedError::MalformedPacket {
                        what: format!(
                            "payload {} bytes cannot contain known part of {}",
                            acc.len(),
                            seg.len()
                        ),
                    });
                }
                gf256::add_scaled_slice(acc, seg, w);
                w = gf256::mul(w, v);
            }
        }
        Ok(())
    }

    /// Number of partially assembled intermediates still in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len() + self.quorum_slots.len()
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
        for field in FieldKind::ALL {
            roundtrip_in(k, r, len_scale, field);
        }
    }

    fn roundtrip_in(k: usize, r: usize, len_scale: usize, field: FieldKind) {
        let stores = stores(k, r, len_scale);
        let mut pipelines: Vec<DecodePipeline> = (0..k)
            .map(|n| DecodePipeline::with_field(k, r, n, field).unwrap())
            .collect();
        let mut recovered: Vec<Vec<(NodeSet, Vec<u8>)>> = vec![Vec::new(); k];

        for sender in 0..k {
            let enc = Encoder::with_field(k, r, sender, field).unwrap();
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
    fn gf256_wire_bytes_differ_from_gf2_but_recover_the_same_values() {
        // The q-ary code must actually change the coded payloads (its
        // coefficients are not all 1) while both fields reconstruct the
        // identical original intermediates — GF(2) is the oracle.
        let (k, r, len_scale) = (5, 2, 6);
        let stores = stores(k, r, len_scale);
        let gf2 = Encoder::new(k, r, 0).unwrap();
        let gf256 = Encoder::with_field(k, r, 0, FieldKind::Gf256).unwrap();
        let pkts2 = gf2.encode_all(&stores[0]).unwrap();
        let pkts256 = gf256.encode_all(&stores[0]).unwrap();
        assert_eq!(pkts2.len(), pkts256.len());
        let mut any_differ = false;
        for (a, b) in pkts2.iter().zip(&pkts256) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.seg_lens, b.seg_lens, "headers are field-independent");
            any_differ |= a.payload != b.payload;
        }
        assert!(any_differ, "gf256 coefficients left every payload as XOR");
        // Decoding mismatched fields must NOT silently agree.
        roundtrip_in(k, r, len_scale, FieldKind::Gf256);
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
        let enc = Encoder::with_field(k, r, sender, FieldKind::Gf256).unwrap();
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
                DecodePipeline::with_field(k, r, n, FieldKind::Gf256)
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
        // r >= 3 so s = r - 1 >= 2: one of the r packets per group never
        // arrives, yet every group still reaches full rank.
        for (k, r) in [(4, 3), (5, 3), (5, 4), (6, 3)] {
            quorum_roundtrip_skipping(k, r, 6, 1);
        }
        quorum_roundtrip_skipping(5, 4, 1, 1);
    }

    #[test]
    fn quorum_late_packet_after_release_is_ignored() {
        let (k, r, len_scale) = (4, 3, 5);
        let stores = stores(k, r, len_scale);
        let m: NodeSet = fs(&[0, 1, 2, 3]);
        let mut pipe = DecodePipeline::with_field(k, r, 0, FieldKind::Gf256)
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
        let mut pipe = DecodePipeline::with_field(k, r, 0, FieldKind::Gf256).unwrap();
        let err = pipe.accept(&pkt, &stores[0]).unwrap_err();
        assert!(matches!(err, CodedError::PlanMismatch { .. }));
    }

    #[test]
    fn gf2_quorum_pipeline_rejects_mds_packet() {
        let (k, r) = (4, 3);
        let stores = stores(k, r, 4);
        let pkt = mds_packet(k, r, 1, fs(&[0, 1, 2, 3]), &stores[1]);
        let mut pipe = DecodePipeline::new(k, r, 0)
            .unwrap()
            .with_decode(DecodeMode::Quorum);
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
