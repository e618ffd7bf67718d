//! Deterministic segment splitting (paper eq. (7)).
//!
//! Before encoding, every needed intermediate value `I^t_F` is "evenly and
//! arbitrarily split into r segments `{I^t_{F,k} : k ∈ F}`". *Arbitrarily*
//! in the paper means the split is a design choice — but encoder and decoder
//! must agree on it exactly. Our convention:
//!
//! * the byte buffer is cut into `r` contiguous chunks;
//! * the first `len % r` chunks have `⌈len/r⌉` bytes, the rest `⌊len/r⌋`;
//! * chunk `p` belongs to the node at ascending position `p` within `F`.
//!
//! Splitting happens on *serialized* intermediates, so chunk boundaries may
//! fall inside a KV pair — harmless, because segments are re-concatenated
//! before deserialization (paper §IV-E "merge them back").

use crate::subset::{NodeId, NodeSet};

/// The byte range `[offset, offset + len)` of one segment within its parent
/// intermediate value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Byte offset of the segment in the serialized intermediate.
    pub offset: usize,
    /// Byte length of the segment.
    pub len: usize,
}

/// Computes the span of the segment at `position` (0-based) when a buffer of
/// `total_len` bytes is split into `parts` segments.
///
/// # Panics
/// Panics if `parts == 0` or `position >= parts`.
///
/// ```
/// use cts_core::segment::segment_span;
/// // 10 bytes into 3 parts: 4 + 3 + 3.
/// assert_eq!(segment_span(10, 3, 0).len, 4);
/// assert_eq!(segment_span(10, 3, 1).len, 3);
/// assert_eq!(segment_span(10, 3, 2).offset, 7);
/// ```
pub fn segment_span(total_len: usize, parts: usize, position: usize) -> SegmentSpan {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(position < parts, "segment position out of range");
    let base = total_len / parts;
    let extra = total_len % parts;
    if position < extra {
        SegmentSpan {
            offset: position * (base + 1),
            len: base + 1,
        }
    } else {
        SegmentSpan {
            offset: extra * (base + 1) + (position - extra) * base,
            len: base,
        }
    }
}

/// The span of the segment of `I^t_F` addressed to `node`, where `node ∈ F`
/// and `F` has `r` members: chunk index = `F.position_of(node)`.
///
/// # Panics
/// Panics if `node ∉ F`.
pub fn segment_for_node(total_len: usize, file: NodeSet, node: NodeId) -> SegmentSpan {
    let position = file
        .position_of(node)
        .unwrap_or_else(|| panic!("node {node} not in file set {file}"));
    segment_span(total_len, file.len(), position)
}

/// The maximum segment length when `total_len` bytes are split into `parts`
/// (`⌈total_len / parts⌉`) — the zero-padded packet payload contribution.
#[inline]
pub fn max_segment_len(total_len: usize, parts: usize) -> usize {
    total_len.div_ceil(parts)
}

/// Number of parts a quorum-coded group of `group_size` members splits
/// each intermediate into: `s = r − 1` (group size is `r + 1`), clamped
/// to 1. A receiver expects `r` packets per group — the `s` parts and
/// their parity — and needs any `s` of them, so one straggling or dead
/// sender per group is tolerated.
#[inline]
pub fn mds_parts(group_size: usize) -> usize {
    group_size.saturating_sub(2).max(1)
}

/// What one sender of a quorum group contributes of one target's
/// intermediate `I^t_{M\{t}}`, split into `s` parts by [`segment_span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumRole {
    /// Part `j`.
    Part(usize),
    /// The XOR of all `s` parts, zero-padded to part 0.
    Parity,
}

impl QuorumRole {
    /// The parts the role folds into a packet.
    pub fn parts(self, s: usize) -> std::ops::Range<usize> {
        match self {
            QuorumRole::Part(j) => j..j + 1,
            QuorumRole::Parity => 0..s,
        }
    }
}

/// The role of `sender` for `target` in quorum group `group`: the
/// `(r, r − 1)` single-parity-check code, binary and MDS. Of the senders
/// `group \ {target}` in ascending order, the one at index
/// `pos(target in group) mod r` carries the parity and the others parts
/// `0, 1, …` in order. That sender is the member after `target`
/// (cyclically), so every member carries exactly one parity per group.
///
/// # Panics
/// Panics if `target` or `sender` is not in `group`, or they are equal.
pub fn quorum_role(group: NodeSet, target: NodeId, sender: NodeId) -> QuorumRole {
    let senders = group.without(target);
    let (pos, index) = match (group.position_of(target), senders.position_of(sender)) {
        (Some(pos), Some(index)) => (pos, index),
        _ => panic!("no quorum role for sender {sender}, target {target} in {group}"),
    };
    let parity = pos % senders.len();
    match index.cmp(&parity) {
        std::cmp::Ordering::Less => QuorumRole::Part(index),
        std::cmp::Ordering::Equal => QuorumRole::Parity,
        std::cmp::Ordering::Greater => QuorumRole::Part(index - 1),
    }
}

/// What `sender` contributes of `target`'s intermediate `I^t_{M\{t}}` in
/// group `group`, as `(parts, role)`: the intermediate splits into `parts`
/// spans by [`segment_span`] and the sender's packet folds the role's. Under
/// the paper's code the role is the segment at the sender's position in
/// `M\{t}` (`parts = r`, eq. (7)); under the quorum code it is
/// [`quorum_role`] (`parts = s`).
///
/// # Panics
/// Panics if `target` or `sender` is not in `group`, or they are equal.
pub fn share(group: NodeSet, target: NodeId, sender: NodeId, quorum: bool) -> (usize, QuorumRole) {
    if quorum {
        return (mds_parts(group.len()), quorum_role(group, target, sender));
    }
    let file = group.without(target);
    let position = file
        .position_of(sender)
        .unwrap_or_else(|| panic!("sender {sender} not in {file}"));
    (file.len(), QuorumRole::Part(position))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_buffer_exactly() {
        for total in [0usize, 1, 2, 5, 9, 10, 11, 100, 997] {
            for parts in 1..=8usize {
                let mut cursor = 0usize;
                for p in 0..parts {
                    let s = segment_span(total, parts, p);
                    assert_eq!(s.offset, cursor, "total {total} parts {parts} p {p}");
                    cursor += s.len;
                }
                assert_eq!(cursor, total);
            }
        }
    }

    #[test]
    fn spans_differ_by_at_most_one() {
        for total in [7usize, 23, 100] {
            for parts in 1..=6usize {
                let lens: Vec<usize> = (0..parts)
                    .map(|p| segment_span(total, parts, p).len)
                    .collect();
                let mn = *lens.iter().min().unwrap();
                let mx = *lens.iter().max().unwrap();
                assert!(mx - mn <= 1);
                assert_eq!(mx, max_segment_len(total, parts));
            }
        }
    }

    #[test]
    fn longer_chunks_come_first() {
        // 11 into 4: 3,3,3,2.
        let lens: Vec<usize> = (0..4).map(|p| segment_span(11, 4, p).len).collect();
        assert_eq!(lens, vec![3, 3, 3, 2]);
    }

    #[test]
    fn segment_for_node_uses_ascending_position() {
        let file = NodeSet::from_iter([2usize, 5, 7]);
        let total = 10usize; // chunks 4,3,3
        assert_eq!(
            segment_for_node(total, file, 2),
            SegmentSpan { offset: 0, len: 4 }
        );
        assert_eq!(
            segment_for_node(total, file, 5),
            SegmentSpan { offset: 4, len: 3 }
        );
        assert_eq!(
            segment_for_node(total, file, 7),
            SegmentSpan { offset: 7, len: 3 }
        );
    }

    #[test]
    #[should_panic(expected = "not in file set")]
    fn segment_for_node_rejects_non_member() {
        segment_for_node(10, NodeSet::from_iter([1usize, 2]), 0);
    }

    #[test]
    fn empty_intermediate_yields_empty_segments() {
        let file = NodeSet::from_iter([0usize, 1, 2]);
        for n in [0usize, 1, 2] {
            assert_eq!(segment_for_node(0, file, n).len, 0);
        }
        assert_eq!(max_segment_len(0, 3), 0);
    }
}
