//! Property suite for the coded packet's wire reader
//! (`CodedPacket::read_wire`), classic (v1) and quorum (v2) frames alike.
//!
//! Whatever bytes arrive — arbitrary ones, arbitrary ones behind a valid
//! magic and version, a valid frame cut at any length, or a valid frame with
//! one byte changed — the reader returns `Ok` or `Err(MalformedPacket)` and
//! never panics. It returns `Ok` only for a whole frame: a sender inside its
//! group, one whole-intermediate length per other member, and a payload
//! exactly as long as those lengths imply, with nothing trailing it. Both
//! versions carry whole lengths; what they imply differs by version.

use bytes::Bytes;
use cts_core::error::CodedError;
use cts_core::packet::{wire_len_for, CodedPacket, WIRE_MAGIC, WIRE_VERSION, WIRE_VERSION_MDS};
use cts_core::segment::{mds_parts, segment_span};
use cts_core::subset::NodeSet;
use proptest::prelude::*;

/// The payload length a parsed header implies. A classic packet carries,
/// per target, the segment at the sender's position of the target's whole
/// value cut into `r` (paper eq. (7)): the longest of those. A quorum packet
/// carries each target's total cut into `mds_parts` equal parts, rounded up:
/// the longest of those.
fn implied_payload(packet: &CodedPacket) -> usize {
    let (group, sender) = (packet.group, packet.sender);
    let lens = packet.seg_lens.iter().map(|&(t, len)| (t, len as usize));
    if packet.mds {
        let parts = mds_parts(group.len());
        lens.map(|(_, len)| len.div_ceil(parts)).max().unwrap_or(0)
    } else {
        let segment = |(t, len)| {
            let file = group.without(t);
            segment_span(len, file.len(), file.position_of(sender).unwrap()).len
        };
        lens.map(segment).max().unwrap_or(0)
    }
}

/// Parses `wire` into a fresh shell; `Ok` must be a whole, consistent frame.
fn check(wire: &[u8]) -> Result<Option<CodedPacket>, TestCaseError> {
    let mut shell = CodedPacket::empty();
    match shell.read_wire(&Bytes::copy_from_slice(wire)) {
        Ok(()) => {
            prop_assert!(shell.group.contains(shell.sender), "{shell:?}");
            prop_assert_eq!(shell.seg_lens.len() + 1, shell.group.len());
            prop_assert!(shell.seg_lens.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(shell.payload.len(), implied_payload(&shell));
            let whole = wire_len_for(shell.seg_lens.len(), shell.payload.len());
            prop_assert_eq!(wire.len(), whole);
            Ok(Some(shell))
        }
        Err(e) => {
            prop_assert!(matches!(e, CodedError::MalformedPacket { .. }), "{e}");
            Ok(None)
        }
    }
}

/// The ranks a generated group may draw its members from: 16 of the 64,
/// spread over the word.
const RANKS: u64 = 0x0f0f_0000_00f0_0f00;

/// A valid packet: a group of the `members` bits within [`RANKS`] (at least
/// one member), sent by the member `pick` selects, each other member's
/// whole length drawn from `lens`, the payload filled from `fill`.
fn valid_packet(mds: bool, members: u64, pick: usize, lens: &[u32], fill: u8) -> CodedPacket {
    let group = NodeSet::from_bits((members & RANKS).max(1));
    let ranks = group.to_vec();
    let sender = ranks[pick % ranks.len()];
    let seg_lens: Vec<(usize, u32)> = (ranks.iter().filter(|&&t| t != sender))
        .enumerate()
        .map(|(i, &t)| (t, lens[i % lens.len()]))
        .collect();
    let mut packet = CodedPacket {
        group,
        sender,
        seg_lens,
        payload: Bytes::new(),
        mds,
    };
    let payload: Vec<u8> = (0..implied_payload(&packet))
        .map(|i| fill ^ (i as u8).wrapping_mul(29))
        .collect();
    packet.payload = Bytes::from(payload);
    packet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: `Ok` or `Err`, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(wire in collection::vec(any::<u8>(), 0..160)) {
        check(&wire)?;
    }

    /// Arbitrary bytes behind a valid magic and either version reach the
    /// header checks past the first three bytes; still `Ok` or `Err`.
    #[test]
    fn arbitrary_headers_never_panic(
        mds in any::<bool>(),
        body in collection::vec(any::<u8>(), 0..160),
        members in any::<u64>(),
    ) {
        let version = if mds { WIRE_VERSION_MDS } else { WIRE_VERSION };
        let mut wire = WIRE_MAGIC.to_vec();
        wire.push(version);
        wire.extend_from_slice(&body);
        check(&wire)?;
        // The same body with a plausible sender and group in front of it.
        if wire.len() >= 13 {
            wire[5..13].copy_from_slice(&members.to_le_bytes());
            check(&wire)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A valid frame of either version parses back to the packet it was
    /// written from; cut at any shorter length it is an `Err`.
    #[test]
    fn valid_frames_parse_and_every_cut_fails(
        mds in any::<bool>(),
        members in any::<u64>(),
        pick in 0usize..64,
        lens in collection::vec(0u32..600, 1..8),
        fill in any::<u8>(),
    ) {
        let packet = valid_packet(mds, members, pick, &lens, fill);
        let wire = packet.to_bytes();
        prop_assert_eq!(check(&wire)?, Some(packet));
        for cut in 0..wire.len() {
            prop_assert!(check(&wire[..cut])?.is_none(), "cut at {cut} of {}", wire.len());
        }
        // Nor may anything trail a whole frame.
        let mut longer = wire.clone();
        longer.push(fill);
        prop_assert!(check(&longer)?.is_none());
    }

    /// A valid frame with any one byte changed: `Ok` or `Err`, never a
    /// panic, and `Ok` only for a frame as consistent as the original.
    #[test]
    fn one_mutated_byte_never_panics(
        mds in any::<bool>(),
        members in any::<u64>(),
        pick in 0usize..64,
        lens in collection::vec(0u32..600, 1..8),
        fill in any::<u8>(),
        flip in 1u8..=255,
    ) {
        let wire = valid_packet(mds, members, pick, &lens, fill).to_bytes();
        for at in 0..wire.len() {
            let mut mutated = wire.clone();
            mutated[at] ^= flip;
            check(&mutated)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A classic frame whose payload is as long as the longest segment in
    /// the group rather than the sender's own (what a header of segment
    /// lengths would have implied) parses only where the two agree.
    #[test]
    fn a_classic_payload_follows_the_senders_positions(
        members in any::<u64>(),
        pick in 0usize..64,
        lens in collection::vec(0u32..600, 1..8),
        fill in any::<u8>(),
    ) {
        let packet = valid_packet(false, members, pick, &lens, fill);
        let parts = packet.group.len().saturating_sub(1).max(1);
        let longest = (packet.seg_lens.iter())
            .map(|&(_, len)| (len as usize).div_ceil(parts))
            .max()
            .unwrap_or(0);
        let mut other = packet.clone();
        other.payload = Bytes::from(vec![fill; longest]);
        let parsed = check(&other.to_bytes())?;
        prop_assert_eq!(parsed.is_some(), longest == packet.payload.len());
    }
}
