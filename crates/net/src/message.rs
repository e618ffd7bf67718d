//! Message and tag types.
//!
//! Every transfer carries a 32-bit [`Tag`] that receivers match on, exactly
//! like MPI's `tag` argument. The high byte is a *purpose* namespace so that
//! application traffic, collectives, and control messages never collide.
//!
//! ```
//! use cts_net::message::Tag;
//!
//! let tag = Tag::new(Tag::BCAST, 1234); // multicast-group 1234's payloads
//! assert_eq!(tag.purpose(), Tag::BCAST);
//! assert_eq!(tag.seq(), 1234);
//! assert_ne!(tag, Tag::app(1234)); // purposes never collide
//! ```

use bytes::Bytes;

/// A 32-bit message tag: `purpose << 24 | sequence`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tag(pub u32);

impl Tag {
    /// Application point-to-point traffic (the Shuffle stage).
    pub const APP: u8 = 0x00;
    /// Barrier control messages.
    pub const BARRIER: u8 = 0xB0;
    /// Multicast payloads (one sub-tag per multicast group).
    pub const BCAST: u8 = 0xB1;

    /// Builds a tag in the given purpose namespace with a 24-bit sequence.
    ///
    /// # Panics
    /// Panics if `seq` does not fit in 24 bits.
    #[inline]
    pub fn new(purpose: u8, seq: u32) -> Tag {
        assert!(seq < (1 << 24), "tag sequence {seq} exceeds 24 bits");
        Tag(((purpose as u32) << 24) | seq)
    }

    /// Application tag with sequence `seq`.
    #[inline]
    pub fn app(seq: u32) -> Tag {
        Tag::new(Tag::APP, seq)
    }

    /// The purpose byte.
    #[inline]
    pub fn purpose(self) -> u8 {
        (self.0 >> 24) as u8
    }

    /// The 24-bit sequence.
    #[inline]
    pub fn seq(self) -> u32 {
        self.0 & 0x00FF_FFFF
    }

    /// Bits of the sequence left to a job once a nonzero job slot is
    /// scoped in ([`Tag::scoped`]): slots occupy the top 6 sequence bits.
    pub const JOB_SEQ_BITS: u32 = 18;
    /// Highest usable job slot (6 slot bits, slot 0 = unscoped).
    pub const MAX_JOB_SLOT: u8 = 63;

    /// Rewrites this tag into job slot `slot`'s namespace.
    ///
    /// Slot 0 is the identity: exclusive (one-shot) runs keep the full
    /// 24-bit sequence space and the exact wire tags of prior releases.
    /// Nonzero slots pack the slot into sequence bits 18..24, giving each
    /// of up to 63 concurrent jobs on a shared fabric a disjoint tag
    /// namespace at the cost of an 18-bit per-job sequence space. Applied
    /// exactly once, at the [`Communicator`](crate::comm::Communicator)
    /// boundary.
    ///
    /// # Panics
    /// Panics if `slot` exceeds [`Tag::MAX_JOB_SLOT`], or if `slot` is
    /// nonzero and the sequence does not fit in [`Tag::JOB_SEQ_BITS`] bits.
    #[inline]
    pub fn scoped(self, slot: u8) -> Tag {
        if slot == 0 {
            return self;
        }
        assert!(
            slot <= Tag::MAX_JOB_SLOT,
            "job slot {slot} exceeds {}",
            Tag::MAX_JOB_SLOT
        );
        let seq = self.seq();
        assert!(
            seq < (1 << Tag::JOB_SEQ_BITS),
            "tag sequence {seq} exceeds the {}-bit job-scoped space \
             (too many multicast groups/epochs for a shared-fabric job)",
            Tag::JOB_SEQ_BITS
        );
        Tag(((self.purpose() as u32) << 24) | ((slot as u32) << Tag::JOB_SEQ_BITS) | seq)
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag({:#04x}:{})", self.purpose(), self.seq())
    }
}

/// What a receive matches on: the exact tag and source rank. Tag first,
/// because that is the order a [`Mailbox`](crate::mailbox::Mailbox) hands
/// messages out in when a wait lists several keys.
pub type Key = (Tag, usize);

/// An in-flight message: source rank, tag, and payload.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sender's rank.
    pub src: usize,
    /// Matching tag.
    pub tag: Tag,
    /// Payload bytes (cheaply cloneable; in-memory transport shares the
    /// underlying buffer with the sender).
    pub payload: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packing() {
        let t = Tag::new(Tag::BCAST, 12345);
        assert_eq!(t.purpose(), Tag::BCAST);
        assert_eq!(t.seq(), 12345);
        assert_eq!(Tag::app(7).purpose(), Tag::APP);
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn tag_rejects_oversized_seq() {
        Tag::new(Tag::APP, 1 << 24);
    }

    #[test]
    fn tag_display() {
        let t = Tag::new(Tag::BARRIER, 2);
        assert_eq!(t.to_string(), "tag(0xb0:2)");
    }

    #[test]
    fn distinct_purposes_never_collide() {
        assert_ne!(Tag::new(Tag::APP, 5), Tag::new(Tag::BCAST, 5));
    }

    #[test]
    fn job_scoping_slot_zero_is_identity() {
        let t = Tag::new(Tag::BCAST, (1 << 24) - 1);
        assert_eq!(t.scoped(0), t);
        let slot_bits = t.seq() >> Tag::JOB_SEQ_BITS;
        assert_eq!(slot_bits, 63, "slot bits overlap the high seq bits");
    }

    #[test]
    fn job_scoping_separates_slots() {
        let t = Tag::app(1234);
        let a = t.scoped(1);
        let b = t.scoped(2);
        assert_ne!(a, b);
        assert_ne!(a, t);
        assert_eq!(a.purpose(), Tag::APP);
        assert_eq!(a.seq() >> Tag::JOB_SEQ_BITS, 1);
        assert_eq!(b.seq() >> Tag::JOB_SEQ_BITS, 2);
        // The job-local sequence survives underneath the slot bits.
        assert_eq!(a.seq() & ((1 << Tag::JOB_SEQ_BITS) - 1), 1234);
    }

    #[test]
    #[should_panic(expected = "job-scoped space")]
    fn job_scoping_rejects_oversized_seq() {
        Tag::app(1 << Tag::JOB_SEQ_BITS).scoped(3);
    }

    #[test]
    #[should_panic(expected = "exceeds 63")]
    fn job_scoping_rejects_oversized_slot() {
        Tag::app(1).scoped(64);
    }
}
