//! Multicast group enumeration (paper §IV-C/D), and where the *scalable
//! coding* extension (paper §VI) draws its groups from.
//!
//! Coded exchange happens within every `(r+1)`-subset `M` of nodes: each
//! member multicasts one coded packet to the other `r` members. There are
//! `C(K, r+1)` such groups — the quantity that drives the paper's CodeGen
//! stage cost (observed ≈ 3.3 ms per group on EC2, Tables II–III).
//!
//! A node takes part in `C(K-1, r)` of them, and
//! [`MulticastGroups::groups_of_node`] walks exactly those, lazily and
//! already in ascending id: it inserts the node into each `r`-subset of the
//! other nodes, taken in colex order (the order of their positions among the
//! other nodes, which ascend with the nodes). Colex order compares two sets
//! by the largest member in which they differ, and a member both sets share
//! is never that member — so inserting the same node into every subset keeps
//! their order, and the walk needs no sort.
//!
//! The paper's *Scalable Coding* future direction asks for coding procedures
//! whose overhead does not grow as `C(K, r+1)`. The engine's pod layout
//! (`EngineConfig::pods`) is the natural pod-partitioned variant: nodes are
//! split into disjoint pods of size `g`, each pod codes with the
//! `MulticastGroups` of `(g, r)`, and the group count falls to
//! `(K/g)·C(g, r+1)` at the price of uncoded cross-pod traffic.

use crate::combinatorics::{binomial, colex_rank, colex_unrank, combinations_of, Combinations};
use crate::error::{CodedError, Result};
use crate::subset::{NodeId, NodeSet};

/// Dense identifier of a multicast group; the colex rank of the group's
/// `(r+1)`-subset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroupId(pub u64);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Enumeration of the `C(K, r+1)` multicast groups for `(K, r)`.
///
/// Like [`PlacementPlan`](crate::placement::PlacementPlan) this is a pure
/// combinatorial object computed identically on every node during CodeGen.
///
/// ```
/// use cts_core::groups::MulticastGroups;
/// let groups = MulticastGroups::new(16, 3).unwrap();
/// assert_eq!(groups.num_groups(), 1820); // C(16, 4) — paper §V-C
/// assert_eq!(groups.groups_per_node(), 455); // C(15, 3)
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MulticastGroups {
    k: usize,
    r: usize,
}

impl MulticastGroups {
    /// Groups for `K` nodes at redundancy `r`.
    ///
    /// # Errors
    /// `InvalidParameters` under the same conditions as
    /// [`PlacementPlan::new`](crate::placement::PlacementPlan::new). Note
    /// that `r = K` is allowed and yields zero groups (all data is local).
    pub fn new(k: usize, r: usize) -> Result<Self> {
        if k == 0 || k > 64 {
            return Err(CodedError::InvalidParameters {
                what: format!("K must be in 1..=64, got {k}"),
            });
        }
        if r == 0 || r > k {
            return Err(CodedError::InvalidParameters {
                what: format!("r must be in 1..={k}, got {r}"),
            });
        }
        Ok(MulticastGroups { k, r })
    }

    /// Members per group (`r + 1`).
    #[inline]
    pub fn group_size(&self) -> usize {
        self.r + 1
    }

    /// Total number of groups, `C(K, r+1)`.
    #[inline]
    pub fn num_groups(&self) -> u64 {
        binomial(self.k as u64, (self.r + 1) as u64)
    }

    /// Number of groups each node belongs to, `C(K-1, r)`.
    #[inline]
    pub fn groups_per_node(&self) -> u64 {
        binomial((self.k - 1) as u64, self.r as u64)
    }

    /// The member set of group `id`.
    ///
    /// # Panics
    /// Panics if `id.0 >= num_groups()`.
    #[inline]
    pub fn members(&self, id: GroupId) -> NodeSet {
        colex_unrank(id.0, self.r + 1, self.k)
    }

    /// The [`GroupId`] of the group with exactly the members `m`.
    ///
    /// # Errors
    /// `InvalidParameters` if `|m| != r+1` or `m ⊄ {0,…,K-1}`.
    pub fn id_of(&self, m: NodeSet) -> Result<GroupId> {
        if m.len() != self.r + 1 || !m.is_subset_of(NodeSet::full(self.k)) {
            return Err(CodedError::InvalidParameters {
                what: format!(
                    "group {m} is not a {}-subset of the {} nodes",
                    self.r + 1,
                    self.k
                ),
            });
        }
        Ok(GroupId(colex_rank(m)))
    }

    /// Iterates all groups in `GroupId` order (the global serial-multicast
    /// schedule order of the paper's Fig. 9(b)).
    pub fn iter_groups(&self) -> impl Iterator<Item = (GroupId, NodeSet)> {
        Combinations::new(self.k, self.r + 1)
            .enumerate()
            .map(|(i, m)| (GroupId(i as u64), m))
    }

    /// Iterates the `C(K-1, r)` groups containing `node`, ascending by id:
    /// `node` inserted into each `r`-subset of the other nodes in colex
    /// order, which inserting a member every set shares leaves in colex
    /// order (module docs) — lazily, with no sort and no group collected.
    ///
    /// # Panics
    /// Panics if `node >= K`.
    pub fn groups_of_node(&self, node: NodeId) -> impl Iterator<Item = (GroupId, NodeSet)> + '_ {
        assert!(node < self.k, "node {node} out of range");
        let rest = NodeSet::full(self.k).without(node);
        combinations_of(rest, self.r).map(move |s| {
            let m = s.with(node);
            (GroupId(colex_rank(m)), m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_counts_match_paper() {
        // Paper §V-C: CodeGen time proportional to C(K, r+1).
        assert_eq!(MulticastGroups::new(16, 3).unwrap().num_groups(), 1820);
        assert_eq!(MulticastGroups::new(16, 5).unwrap().num_groups(), 8008);
        assert_eq!(MulticastGroups::new(20, 3).unwrap().num_groups(), 4845);
        assert_eq!(MulticastGroups::new(20, 5).unwrap().num_groups(), 38760);
    }

    #[test]
    fn id_roundtrip() {
        let g = MulticastGroups::new(8, 3).unwrap();
        for (id, m) in g.iter_groups() {
            assert_eq!(g.members(id), m);
            assert_eq!(g.id_of(m).unwrap(), id);
            assert_eq!(m.len(), 4);
        }
    }

    #[test]
    fn groups_of_node_complete_and_sorted() {
        // The lazy walk is the whole-set enumeration filtered to the node:
        // the same ids, the same members, in the same order.
        for k in 1..=10 {
            for r in 1..k {
                let g = MulticastGroups::new(k, r).unwrap();
                for node in 0..k {
                    let list: Vec<(GroupId, NodeSet)> = g.groups_of_node(node).collect();
                    let filtered: Vec<(GroupId, NodeSet)> = (g.iter_groups())
                        .filter(|(_, m)| m.contains(node))
                        .collect();
                    assert_eq!(list, filtered, "K = {k}, r = {r}, node {node}");
                    assert_eq!(list.len() as u64, g.groups_per_node());
                    assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }
        }
    }

    #[test]
    fn r_equals_k_has_no_groups() {
        let g = MulticastGroups::new(5, 5).unwrap();
        assert_eq!(g.num_groups(), 0);
        assert_eq!(g.iter_groups().count(), 0);
    }

    #[test]
    fn r_equals_k_minus_1_single_group() {
        let g = MulticastGroups::new(5, 4).unwrap();
        assert_eq!(g.num_groups(), 1);
        let (_, m) = g.iter_groups().next().unwrap();
        assert_eq!(m, NodeSet::full(5));
    }

    #[test]
    fn each_group_counted_once_via_nodes() {
        // Σ_node groups_of_node == num_groups * (r+1).
        let g = MulticastGroups::new(9, 3).unwrap();
        let total: u64 = (0..9).map(|n| g.groups_of_node(n).count() as u64).sum();
        assert_eq!(total, g.num_groups() * 4);
    }

    #[test]
    fn id_of_rejects_wrong_size() {
        let g = MulticastGroups::new(6, 2).unwrap();
        assert!(g.id_of(NodeSet::from_iter([0usize, 1])).is_err());
        assert!(g.id_of(NodeSet::from_iter([0usize, 1, 2, 3])).is_err());
        assert!(g.id_of(NodeSet::from_iter([0usize, 1, 6])).is_err());
    }
}
