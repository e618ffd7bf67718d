//! Coded packet structure and wire format.
//!
//! A [`CodedPacket`] is the unit of multicast in the coded shuffle: the XOR
//! of `r` zero-padded segments (paper eq. (8)) plus the header metadata the
//! receivers need to trim padding and attribute the recovered segment. The
//! wire format is a compact little-endian layout with full structural
//! validation on parse, so a corrupted or truncated packet is reported as a
//! [`CodedError::MalformedPacket`] instead of garbage data.
//!
//! The hot-path APIs are allocation-aware:
//!
//! * [`CodedPacket::write_wire`] serializes straight from the encoder's
//!   scratch buffers into a reusable output `Vec` — no `CodedPacket` is
//!   ever materialized on the send side;
//! * [`CodedPacket::read_wire`] parses *zero-copy*: the payload is a
//!   [`Bytes`] slice borrowing the received frame's allocation, and the
//!   header vector of a warm packet is reused across packets.

use bytes::Bytes;

use crate::error::{CodedError, Result};
use crate::segment::max_segment_len;
use crate::solve::mds_parts;
use crate::subset::{NodeId, NodeSet};

/// Format version of classic cancel-and-divide packets.
pub const WIRE_VERSION: u8 = 1;

/// Format version of MDS-mixed packets (quorum decode): the `seg_lens`
/// entries carry the *total* intermediate length per target (identical
/// across the senders of a group), and the payload is the Vandermonde mix
/// of [`mds_parts`] zero-padded parts — see [`crate::solve`].
pub const WIRE_VERSION_MDS: u8 = 2;

/// Magic bytes prefixing every serialized packet (`"CT"`).
pub const WIRE_MAGIC: [u8; 2] = *b"CT";

/// One coded multicast packet `E_{M,k}` (paper eq. (8)).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CodedPacket {
    /// The multicast group `M` this packet belongs to.
    pub group: NodeSet,
    /// The sender `k ∈ M`.
    pub sender: NodeId,
    /// For each other member `t ∈ M\{k}` (ascending), the *original* length
    /// of the segment `I^t_{M\{t},k}` folded into the payload. Receiver `t`
    /// reads its own entry to strip zero padding from the recovered segment.
    /// In MDS packets (`mds = true`) the entry is instead the total length
    /// of `I^t_{M\{t}}` — any single packet tells a receiver its full
    /// reconstruction size, which matters when a sender never delivers.
    pub seg_lens: Vec<(NodeId, u32)>,
    /// XOR of the `r` zero-padded segments; length = max original length.
    /// A [`Bytes`] view so parsed packets can borrow the received frame
    /// instead of copying it.
    pub payload: Bytes,
    /// Whether this is an MDS-mixed packet ([`WIRE_VERSION_MDS`]) feeding
    /// the per-group solver instead of cancel-and-divide.
    pub mds: bool,
}

impl CodedPacket {
    /// An empty packet shell, ready to be filled by
    /// [`read_wire`](CodedPacket::read_wire) — reuse one shell across a
    /// receive loop to keep the parse allocation-free.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total serialized size in bytes.
    pub fn wire_len(&self) -> usize {
        wire_len_for(self.seg_lens.len(), self.payload.len())
    }

    /// The original segment length recorded for receiver `t`, if present.
    pub fn seg_len_for(&self, t: NodeId) -> Option<u32> {
        self.seg_lens
            .iter()
            .find(|(node, _)| *node == t)
            .map(|(_, len)| *len)
    }

    /// Serializes to the wire format (convenience wrapper over
    /// [`write_into`](CodedPacket::write_into)).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out);
        out
    }

    /// Appends the wire format to `out`. Reusing one grow-only `out`
    /// across packets keeps serialization allocation-free in steady state.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let version = if self.mds {
            WIRE_VERSION_MDS
        } else {
            WIRE_VERSION
        };
        write_wire_versioned(
            version,
            self.group,
            self.sender,
            &self.seg_lens,
            &self.payload,
            out,
        );
    }

    /// Serializes a classic (version 1) packet directly from its parts —
    /// the encoder hot path, which writes from scratch buffers without
    /// building a `CodedPacket`. Appends to `out`.
    pub fn write_wire(
        group: NodeSet,
        sender: NodeId,
        seg_lens: &[(NodeId, u32)],
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        write_wire_versioned(WIRE_VERSION, group, sender, seg_lens, payload, out);
    }

    /// Serializes an MDS-mixed (version 2) packet directly from its parts.
    /// Appends to `out`.
    pub fn write_wire_mds(
        group: NodeSet,
        sender: NodeId,
        seg_lens: &[(NodeId, u32)],
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        write_wire_versioned(WIRE_VERSION_MDS, group, sender, seg_lens, payload, out);
    }

    /// Parses a packet from the wire format, validating structure:
    /// magic/version, sender membership, header/segment consistency, and
    /// that the payload length equals the longest recorded segment.
    ///
    /// This variant copies the payload out of `buf`; prefer
    /// [`read_wire`](CodedPacket::read_wire) when the frame is already a
    /// [`Bytes`] (as everything received from a fabric is).
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut packet = CodedPacket::empty();
        let (start, end) = packet.parse_header(buf)?;
        packet.payload = Bytes::copy_from_slice(&buf[start..end]);
        Ok(packet)
    }

    /// Zero-copy, zero-allocation parse into an existing packet shell:
    /// identical validation to [`from_bytes`](CodedPacket::from_bytes), but
    /// the payload *borrows* `wire`'s allocation as a [`Bytes`] slice and
    /// the warm `seg_lens` vector is reused.
    ///
    /// # Errors
    /// `MalformedPacket` exactly as [`from_bytes`](CodedPacket::from_bytes);
    /// on error the shell's contents are unspecified.
    pub fn read_wire(&mut self, wire: &Bytes) -> Result<()> {
        let (start, end) = self.parse_header(wire)?;
        self.payload = wire.slice(start..end);
        Ok(())
    }

    /// Parses and validates everything but the payload bytes into `self`,
    /// returning the payload's `[start, end)` range within `buf`.
    fn parse_header(&mut self, buf: &[u8]) -> Result<(usize, usize)> {
        let mut cursor = Cursor::new(buf);
        let magic = cursor.take(2)?;
        if magic != WIRE_MAGIC {
            return Err(malformed("bad magic"));
        }
        let version = cursor.u8()?;
        if version != WIRE_VERSION && version != WIRE_VERSION_MDS {
            return Err(malformed(format!("unsupported version {version}")));
        }
        let sender = cursor.u16()? as NodeId;
        let group = NodeSet::from_bits(cursor.u64()?);
        if !group.contains(sender) {
            return Err(malformed(format!("sender {sender} not in group {group}")));
        }
        let nseg = cursor.u16()? as usize;
        if nseg != group.len().saturating_sub(1) {
            return Err(malformed(format!(
                "{nseg} segment lengths for group of {} members",
                group.len()
            )));
        }
        self.seg_lens.clear();
        self.seg_lens.reserve(nseg);
        let mut prev: Option<NodeId> = None;
        for _ in 0..nseg {
            let t = cursor.u16()? as NodeId;
            let len = cursor.u32()?;
            if !group.contains(t) || t == sender {
                return Err(malformed(format!("segment target {t} invalid for {group}")));
            }
            if let Some(p) = prev {
                if t <= p {
                    return Err(malformed("segment targets not strictly ascending"));
                }
            }
            prev = Some(t);
            self.seg_lens.push((t, len));
        }
        let payload_len = cursor.u32()? as usize;
        let start = cursor.pos;
        cursor.take(payload_len)?;
        if cursor.remaining() != 0 {
            return Err(malformed(format!("{} trailing bytes", cursor.remaining())));
        }
        let expected = if version == WIRE_VERSION_MDS {
            // MDS mix: each target contributes `mds_parts` zero-padded
            // parts of its total, so the payload is the longest part-0
            // span across targets.
            let s = mds_parts(group.len());
            self.seg_lens
                .iter()
                .map(|(_, l)| max_segment_len(*l as usize, s))
                .max()
                .unwrap_or(0)
        } else {
            // Payload must be padded to exactly the longest segment.
            self.seg_lens.iter().map(|(_, l)| *l).max().unwrap_or(0) as usize
        };
        if payload_len != expected {
            return Err(malformed(format!(
                "payload {payload_len} bytes but expected {expected} (version {version})",
            )));
        }
        self.group = group;
        self.sender = sender;
        self.mds = version == WIRE_VERSION_MDS;
        Ok((start, start + payload_len))
    }
}

fn write_wire_versioned(
    version: u8,
    group: NodeSet,
    sender: NodeId,
    seg_lens: &[(NodeId, u32)],
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.reserve(wire_len_for(seg_lens.len(), payload.len()));
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(version);
    out.extend_from_slice(&(sender as u16).to_le_bytes());
    out.extend_from_slice(&group.bits().to_le_bytes());
    out.extend_from_slice(&(seg_lens.len() as u16).to_le_bytes());
    for (t, len) in seg_lens {
        out.extend_from_slice(&(*t as u16).to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serialized size of a packet with `nseg` segment entries and a
/// `payload_len`-byte payload.
pub fn wire_len_for(nseg: usize, payload_len: usize) -> usize {
    2 + 1 + 2 + 8 + 2 + nseg * 6 + 4 + payload_len
}

fn malformed(what: impl Into<String>) -> CodedError {
    CodedError::MalformedPacket { what: what.into() }
}

/// Minimal checked little-endian reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CodedPacket {
        CodedPacket {
            group: NodeSet::from_iter([0usize, 1, 2]),
            sender: 0,
            seg_lens: vec![(1, 3), (2, 5)],
            payload: Bytes::from(vec![0xAA, 0xBB, 0xCC, 0xDD, 0xEE]),
            mds: false,
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.wire_len());
        let q = CodedPacket::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let p = CodedPacket {
            group: NodeSet::from_iter([3usize, 7]),
            sender: 7,
            seg_lens: vec![(3, 0)],
            payload: Bytes::new(),
            mds: false,
        };
        let q = CodedPacket::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn zero_copy_parse_borrows_frame() {
        let p = sample();
        let wire = Bytes::from(p.to_bytes());
        let mut q = CodedPacket::empty();
        q.read_wire(&wire).unwrap();
        assert_eq!(p, q);
        // The payload points into the wire frame's allocation.
        let payload_start = wire.len() - p.payload.len();
        assert_eq!(q.payload.as_ptr(), wire[payload_start..].as_ptr());
    }

    #[test]
    fn read_wire_reuses_shell() {
        let a = sample();
        let mut b = CodedPacket {
            group: NodeSet::from_iter([5usize, 6]),
            sender: 5,
            seg_lens: vec![(6, 1)],
            payload: Bytes::from(vec![9]),
            mds: false,
        };
        let wire_a = Bytes::from(a.to_bytes());
        let wire_b = Bytes::from(b.to_bytes());
        let mut shell = CodedPacket::empty();
        shell.read_wire(&wire_a).unwrap();
        assert_eq!(shell, a);
        shell.read_wire(&wire_b).unwrap();
        b.payload = wire_b.slice(wire_b.len() - 1..);
        assert_eq!(shell, b);
    }

    #[test]
    fn write_into_appends_and_matches_to_bytes() {
        let p = sample();
        let mut out = vec![0xFFu8; 3];
        p.write_into(&mut out);
        assert_eq!(&out[..3], &[0xFF; 3]);
        assert_eq!(&out[3..], &p.to_bytes()[..]);
    }

    #[test]
    fn write_wire_matches_packet_serialization() {
        let p = sample();
        let mut out = Vec::new();
        CodedPacket::write_wire(p.group, p.sender, &p.seg_lens, &p.payload, &mut out);
        assert_eq!(out, p.to_bytes());
    }

    #[test]
    fn seg_len_for_lookup() {
        let p = sample();
        assert_eq!(p.seg_len_for(1), Some(3));
        assert_eq!(p.seg_len_for(2), Some(5));
        assert_eq!(p.seg_len_for(0), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CodedPacket::from_bytes(&bytes),
            Err(CodedError::MalformedPacket { .. })
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().to_bytes();
        bytes[2] = 99;
        let err = CodedPacket::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CodedPacket::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
            // The zero-copy parser enforces the same structure.
            let wire = Bytes::from(bytes[..cut].to_vec());
            assert!(
                CodedPacket::empty().read_wire(&wire).is_err(),
                "wire cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        let err = CodedPacket::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn rejects_sender_outside_group() {
        let mut p = sample();
        p.sender = 5;
        let err = CodedPacket::from_bytes(&p.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("sender"));
    }

    #[test]
    fn rejects_wrong_payload_length() {
        let mut p = sample();
        // Payload longer than the longest recorded segment.
        let mut longer = p.payload.to_vec();
        longer.push(0);
        p.payload = Bytes::from(longer);
        let err = CodedPacket::from_bytes(&p.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("payload"));
    }

    #[test]
    fn rejects_unsorted_targets() {
        let mut p = sample();
        p.seg_lens.swap(0, 1);
        let err = CodedPacket::from_bytes(&p.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("ascending"));
    }

    #[test]
    fn mds_roundtrip_and_payload_rule() {
        // Group {0,1,2}: s = mds_parts(3) = 1, totals 3 and 5 → part-0
        // spans 3 and 5, payload = 5.
        let p = CodedPacket {
            group: NodeSet::from_iter([0usize, 1, 2]),
            sender: 0,
            seg_lens: vec![(1, 3), (2, 5)],
            payload: Bytes::from(vec![1, 2, 3, 4, 5]),
            mds: true,
        };
        let bytes = p.to_bytes();
        assert_eq!(bytes[2], WIRE_VERSION_MDS);
        let q = CodedPacket::from_bytes(&bytes).unwrap();
        assert!(q.mds);
        assert_eq!(p, q);
        // A 4-member group splits into s = 2 parts: totals 3 and 5 give
        // part-0 spans of 2 and 3, so a 3-byte payload parses and the
        // 5-byte classic padding does not.
        let mut w = Vec::new();
        let group = NodeSet::from_iter([0usize, 1, 2, 3]);
        let seg_lens = vec![(1u64 as NodeId, 3u32), (2, 5), (3, 4)];
        CodedPacket::write_wire_mds(group, 0, &seg_lens, &[7, 8, 9], &mut w);
        assert!(CodedPacket::from_bytes(&w).unwrap().mds);
        w.clear();
        CodedPacket::write_wire_mds(group, 0, &seg_lens, &[7, 8, 9, 0, 0], &mut w);
        assert!(CodedPacket::from_bytes(&w).is_err());
    }

    #[test]
    fn rejects_segment_count_mismatch() {
        let mut p = sample();
        p.seg_lens.pop();
        p.payload = p.payload.slice(..3);
        let err = CodedPacket::from_bytes(&p.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("segment lengths"));
    }
}
