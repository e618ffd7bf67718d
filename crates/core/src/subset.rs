//! Compact node subsets.
//!
//! The Coded TeraSort construction is entirely combinatorial: files are
//! labelled by `r`-subsets of the `K` nodes (paper eq. (6)), multicast groups
//! are `(r+1)`-subsets, and the encode/decode rules index segments by node
//! position inside a subset. [`NodeSet`] is a 64-bit bitset representation of
//! such subsets, so `K ≤ 64` (the paper evaluates `K ∈ {16, 20}`).

use std::fmt;

/// Index of a worker node, `0..K` (the paper numbers nodes `1..=K`; we use
/// zero-based indices everywhere and only shift when printing paper-style
/// walkthroughs).
pub type NodeId = usize;

/// Maximum number of nodes supported by [`NodeSet`].
pub const MAX_NODES: usize = 64;

/// A set of node indices stored as a 64-bit mask.
///
/// `NodeSet` is `Copy`, ordered by its bit pattern (which coincides with
/// *colexicographic* order on equal-size sets — the order used to assign
/// [`FileId`](crate::placement::FileId)s), and iterates its members in
/// ascending order.
///
/// # Examples
///
/// ```
/// use cts_core::subset::NodeSet;
///
/// let s = NodeSet::from_iter([1usize, 2]);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(2));
/// let t = s.with(3).without(1);
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Creates a set from a raw bitmask.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        NodeSet(bits)
    }

    /// Returns the raw bitmask.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The full set `{0, 1, …, k-1}`.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    #[inline]
    pub fn full(k: usize) -> Self {
        assert!(k <= MAX_NODES, "NodeSet supports at most {MAX_NODES} nodes");
        if k == MAX_NODES {
            NodeSet(u64::MAX)
        } else {
            NodeSet((1u64 << k) - 1)
        }
    }

    /// The singleton set `{node}`.
    #[inline]
    pub fn singleton(node: NodeId) -> Self {
        assert!(node < MAX_NODES);
        NodeSet(1u64 << node)
    }

    /// Number of members.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set has no members.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, node: NodeId) -> bool {
        node < MAX_NODES && (self.0 >> node) & 1 == 1
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub const fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// True if every member of `self` is in `other`.
    #[inline]
    pub const fn is_subset_of(self, other: NodeSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// `self ∪ {node}` (the paper's `S ∪ {k}`).
    #[inline]
    pub fn with(self, node: NodeId) -> NodeSet {
        self.union(NodeSet::singleton(node))
    }

    /// `self \ {node}` (the paper's `M \ {t}`).
    #[inline]
    pub fn without(self, node: NodeId) -> NodeSet {
        NodeSet(self.0 & !(1u64 << node))
    }

    /// Smallest member, if any.
    #[inline]
    pub fn min(self) -> Option<NodeId> {
        if self.is_empty() {
            None
        } else {
            Some(self.0.trailing_zeros() as NodeId)
        }
    }

    /// Zero-based position of `node` among the members in ascending order.
    ///
    /// This is the index used by the segment-splitting rule of paper eq. (7):
    /// segment `I^t_{F,k}` is the chunk at `F.position_of(k)`.
    ///
    /// Returns `None` if `node` is not a member.
    #[inline]
    pub fn position_of(self, node: NodeId) -> Option<usize> {
        if !self.contains(node) {
            return None;
        }
        let below = self.0 & ((1u64 << node) - 1);
        Some(below.count_ones() as usize)
    }

    /// Iterates members in ascending order.
    #[inline]
    pub fn iter(self) -> NodeSetIter {
        NodeSetIter(self.0)
    }

    /// Collects the members into a vector, ascending.
    pub fn to_vec(self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Formats the set with one-based node numbers (`{1,2,3}`), matching the
    /// paper's figures.
    pub fn display_one_based(self) -> String {
        let inner: Vec<String> = self.iter().map(|n| (n + 1).to_string()).collect();
        format!("{{{}}}", inner.join(","))
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut bits = 0u64;
        for n in iter {
            assert!(n < MAX_NODES, "node id {n} out of range");
            bits |= 1u64 << n;
        }
        NodeSet(bits)
    }
}

impl<'a> FromIterator<&'a NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = &'a NodeId>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Ascending iterator over the members of a [`NodeSet`].
#[derive(Clone)]
pub struct NodeSetIter(u64);

impl Iterator for NodeSetIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            let n = self.0.trailing_zeros() as NodeId;
            self.0 &= self.0 - 1;
            Some(n)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeSetIter {}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter;

    fn into_iter(self) -> NodeSetIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let e = NodeSet::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.iter().count(), 0);
    }

    #[test]
    fn full_set_has_k_members() {
        for k in 0..=64 {
            let f = NodeSet::full(k);
            assert_eq!(f.len(), k);
            for n in 0..k {
                assert!(f.contains(n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn full_set_rejects_k_over_64() {
        let _ = NodeSet::full(65);
    }

    #[test]
    fn insert_and_remove() {
        let s = NodeSet::from_iter([0usize, 5, 63]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(63));
        let t = s.without(5);
        assert_eq!(t.to_vec(), vec![0, 63]);
        let u = t.with(1);
        assert_eq!(u.to_vec(), vec![0, 1, 63]);
    }

    #[test]
    fn union_difference_subset() {
        let a = NodeSet::from_iter([0usize, 1, 2]);
        let b = NodeSet::from_iter([2usize, 3]);
        assert_eq!(a.union(b).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.difference(b).to_vec(), vec![0, 1]);
        assert!(a.difference(b).is_subset_of(a));
        assert!(!a.is_subset_of(b));
    }

    #[test]
    fn position_of_counts_smaller_members() {
        // The paper's Fig. 6 example: within F = {1,2} (one-based {2,3}),
        // segment indices follow ascending node order.
        let f = NodeSet::from_iter([1usize, 2]);
        assert_eq!(f.position_of(1), Some(0));
        assert_eq!(f.position_of(2), Some(1));
        assert_eq!(f.position_of(0), None);
    }

    #[test]
    fn position_of_follows_iteration_order() {
        let s = NodeSet::from_iter([3usize, 17, 40, 63]);
        for (i, n) in s.iter().enumerate() {
            assert_eq!(s.position_of(n), Some(i));
        }
    }

    #[test]
    fn iteration_is_ascending() {
        let s = NodeSet::from_iter([9usize, 2, 41, 0]);
        assert_eq!(s.to_vec(), vec![0, 2, 9, 41]);
        let (lo, hi) = s.iter().size_hint();
        assert_eq!((lo, hi), (4, Some(4)));
    }

    #[test]
    fn display_one_based_matches_paper_style() {
        let s = NodeSet::from_iter([0usize, 1, 2]);
        assert_eq!(s.display_one_based(), "{1,2,3}");
        assert_eq!(format!("{s}"), "{0,1,2}");
    }

    #[test]
    fn ordering_is_colex_for_equal_sizes() {
        // colex: {0,1} < {0,2} < {1,2} < {0,3} …
        let s01 = NodeSet::from_iter([0usize, 1]);
        let s02 = NodeSet::from_iter([0usize, 2]);
        let s12 = NodeSet::from_iter([1usize, 2]);
        let s03 = NodeSet::from_iter([0usize, 3]);
        assert!(s01 < s02 && s02 < s12 && s12 < s03);
    }
}
