//! Multicast group enumeration (paper §IV-C/D) and the *scalable coding*
//! extension (paper §VI).
//!
//! Coded exchange happens within every `(r+1)`-subset `M` of nodes: each
//! member multicasts one coded packet to the other `r` members. There are
//! `C(K, r+1)` such groups — the quantity that drives the paper's CodeGen
//! stage cost (observed ≈ 3.3 ms per group on EC2, Tables II–III).
//!
//! The paper's *Scalable Coding* future direction asks for coding procedures
//! whose overhead does not grow as `C(K, r+1)`. [`PodGroups`] implements the
//! natural pod-partitioned variant: nodes are split into disjoint pods of
//! size `g`, and coding is applied only within each pod, shrinking the group
//! count to `(K/g)·C(g, r+1)` at the price of uncoded cross-pod traffic.

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

    /// Iterates the groups containing `node`, ascending by id.
    ///
    /// # Panics
    /// Panics if `node >= K`.
    pub fn groups_of_node(&self, node: NodeId) -> impl Iterator<Item = (GroupId, NodeSet)> + '_ {
        assert!(node < self.k, "node {node} out of range");
        let rest = NodeSet::full(self.k).without(node);
        let mut all: Vec<(GroupId, NodeSet)> = combinations_of(rest, self.r)
            .map(|s| {
                let m = s.with(node);
                (GroupId(colex_rank(m)), m)
            })
            .collect();
        all.sort_unstable_by_key(|(id, _)| *id);
        all.into_iter()
    }
}

/// Pod-partitioned multicast groups — the *scalable coding* extension.
///
/// The `K` nodes are split into `K / g` disjoint pods of `g` consecutive
/// nodes (requires `g | K` and `r < g`). Coded exchange runs independently
/// inside each pod; intermediate values destined outside a node's pod are
/// shuffled uncoded. Total group count falls from `C(K, r+1)` to
/// `(K/g)·C(g, r+1)`.
///
/// ```
/// use cts_core::groups::PodGroups;
/// // K=20, r=3 coded over pods of 10 → 2·C(10,4) = 420 groups instead of
/// // C(20,4) = 4845: an 11.5× CodeGen reduction.
/// let pods = PodGroups::new(20, 3, 10).unwrap();
/// assert_eq!(pods.num_groups(), 420);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PodGroups {
    k: usize,
    r: usize,
    pod_size: usize,
}

impl PodGroups {
    /// Builds pod groups for `K` nodes, redundancy `r`, pods of `pod_size`.
    ///
    /// # Errors
    /// `InvalidParameters` if `pod_size` does not divide `K`, or
    /// `r >= pod_size`, or the base parameters are invalid.
    pub fn new(k: usize, r: usize, pod_size: usize) -> Result<Self> {
        MulticastGroups::new(k, r)?; // validate k, r
        if pod_size == 0 || !k.is_multiple_of(pod_size) {
            return Err(CodedError::InvalidParameters {
                what: format!("pod size {pod_size} must divide K = {k}"),
            });
        }
        if r >= pod_size {
            return Err(CodedError::InvalidParameters {
                what: format!("r = {r} must be < pod size {pod_size}"),
            });
        }
        Ok(PodGroups { k, r, pod_size })
    }

    /// Total multicast groups across all pods: `(K/g)·C(g, r+1)`.
    pub fn num_groups(&self) -> u64 {
        (self.k / self.pod_size) as u64 * binomial(self.pod_size as u64, (self.r + 1) as u64)
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
        let g = MulticastGroups::new(7, 2).unwrap();
        for node in 0..7 {
            let list: Vec<(GroupId, NodeSet)> = g.groups_of_node(node).collect();
            assert_eq!(list.len() as u64, g.groups_per_node());
            for w in list.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            for (_, m) in &list {
                assert!(m.contains(node));
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

    #[test]
    fn pod_group_count() {
        let p = PodGroups::new(20, 3, 10).unwrap();
        assert_eq!(p.num_groups(), 2 * binomial(10, 4));
    }

    #[test]
    fn pod_validation() {
        assert!(PodGroups::new(10, 3, 3).is_err()); // 3 ∤ 10
        assert!(PodGroups::new(12, 4, 4).is_err()); // r >= g
        assert!(PodGroups::new(12, 3, 4).is_ok());
    }
}
