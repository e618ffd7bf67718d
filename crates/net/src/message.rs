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

use std::time::Instant;

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

/// An in-flight message: source rank, job, tag, payload, and when it may be
/// seen.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sender's rank.
    pub src: usize,
    /// The job it belongs to ([`JobBinding::id`](crate::cluster::JobBinding::id)):
    /// a mailbox queues it only while that job is open there, and a receive
    /// names the job it waits in, as an MPI receive names its communicator.
    pub job: u32,
    /// Matching tag.
    pub tag: Tag,
    /// Payload bytes (cheaply cloneable; in-memory transport shares the
    /// underlying buffer with the sender).
    pub payload: Bytes,
    /// When the sender's emulated NIC sends its last byte: a mailbox holds
    /// the message until then. `None`: ripe on arrival.
    pub ready: Option<Instant>,
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
}
