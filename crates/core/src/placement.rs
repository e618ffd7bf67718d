//! Structured redundant file placement (paper §IV-A).
//!
//! For a redundancy parameter `r ∈ {1, …, K}` the input is split into
//! `N = C(K, r)` files, one per `r`-subset `S` of the node set; file `F_S` is
//! stored on **every** node in `S` (paper eq. (6)). Consequently:
//!
//! * each node stores exactly `C(K-1, r-1)` files (`N·r/K`);
//! * every `r`-subset of nodes has exactly one file in common — the structure
//!   the encoder exploits to form multicast packets.
//!
//! `r = 1` degenerates to conventional TeraSort placement (`K` files, one per
//! node); `r = K` stores the single file everywhere (no shuffle needed).

use crate::combinatorics::{binomial, colex_rank, colex_unrank, combinations_of};
use crate::error::{CodedError, Result};
use crate::subset::{NodeId, NodeSet};

/// Dense identifier of an input file; equals the colex rank of the file's
/// node subset `S` among all `r`-subsets of `{0, …, K-1}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// The structured redundant placement for `(K, r)`.
///
/// A `PlacementPlan` is a pure combinatorial object — it owns no data, only
/// the bijection between [`FileId`]s and node subsets. Every node can build
/// the identical plan locally (this is what the paper's *CodeGen* stage
/// computes), so no placement metadata ever crosses the network.
///
/// # Examples
///
/// ```
/// use cts_core::placement::PlacementPlan;
///
/// let plan = PlacementPlan::new(4, 2).unwrap();
/// assert_eq!(plan.num_files(), 6);            // C(4,2)
/// // Node 1 (paper's "Node 2") stores F_{1,2}, F_{2,3}, F_{2,4}:
/// let files: Vec<String> = plan
///     .files_of_node(1)
///     .map(|f| plan.nodes_of_file(f).display_one_based())
///     .collect();
/// assert_eq!(files, vec!["{1,2}", "{2,3}", "{2,4}"]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementPlan {
    k: usize,
    r: usize,
}

impl PlacementPlan {
    /// Builds the plan for `K` nodes and redundancy `r`.
    ///
    /// # Errors
    /// `InvalidParameters` if `k == 0`, `k > 64`, or `r ∉ {1, …, k}`.
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
        Ok(PlacementPlan { k, r })
    }

    /// Redundancy (computation load) `r`: the number of nodes each file is
    /// placed on.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Total number of input files, `N = C(K, r)`.
    #[inline]
    pub fn num_files(&self) -> u64 {
        binomial(self.k as u64, self.r as u64)
    }

    /// The node subset `S` that file `file` is placed on.
    ///
    /// # Panics
    /// Panics if `file.0 >= num_files()`.
    #[inline]
    pub fn nodes_of_file(&self, file: FileId) -> NodeSet {
        colex_unrank(file.0, self.r, self.k)
    }

    /// The [`FileId`] of the file shared by exactly the nodes in `s`.
    ///
    /// # Errors
    /// `InvalidParameters` if `|s| != r` or `s` contains a node `>= K`.
    pub fn file_of_nodes(&self, s: NodeSet) -> Result<FileId> {
        if s.len() != self.r || !s.is_subset_of(NodeSet::full(self.k)) {
            return Err(CodedError::InvalidParameters {
                what: format!(
                    "file label {s} is not an {}-subset of the {} nodes",
                    self.r, self.k
                ),
            });
        }
        Ok(FileId(colex_rank(s)))
    }

    /// Iterates the files stored on `node`, in ascending `FileId` order.
    ///
    /// # Panics
    /// Panics if `node >= K`.
    pub fn files_of_node(&self, node: NodeId) -> impl Iterator<Item = FileId> + '_ {
        assert!(node < self.k, "node {node} out of range");
        let rest = NodeSet::full(self.k).without(node);
        let mut ids: Vec<FileId> = combinations_of(rest, self.r - 1)
            .map(|s| FileId(colex_rank(s.with(node))))
            .collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// The *keep rule* of the Map stage (paper §IV-B): after mapping file
    /// `F_S`, node `k` keeps intermediate `I^t_S` iff `t == k` or `t ∉ S`.
    ///
    /// Intermediates for other nodes in `S` are discarded — those nodes
    /// compute them locally from their own copy of the file.
    #[inline]
    pub fn keeps_intermediate(&self, node: NodeId, file_nodes: NodeSet, target: NodeId) -> bool {
        debug_assert!(file_nodes.contains(node));
        target == node || !file_nodes.contains(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All files in `FileId` order together with their node sets.
    fn iter_files(plan: &PlacementPlan) -> impl Iterator<Item = (FileId, NodeSet)> + '_ {
        (0..plan.num_files()).map(|i| (FileId(i), plan.nodes_of_file(FileId(i))))
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PlacementPlan::new(0, 1).is_err());
        assert!(PlacementPlan::new(65, 1).is_err());
        assert!(PlacementPlan::new(4, 0).is_err());
        assert!(PlacementPlan::new(4, 5).is_err());
        assert!(PlacementPlan::new(4, 4).is_ok());
    }

    #[test]
    fn file_counts_match_formulas() {
        for k in 1..=12usize {
            for r in 1..=k {
                let plan = PlacementPlan::new(k, r).unwrap();
                assert_eq!(plan.num_files(), binomial(k as u64, r as u64));
                // Double counting: Σ_nodes |files of node| == N * r.
                let stored: usize = (0..k).map(|n| plan.files_of_node(n).count()).sum();
                assert_eq!(stored as u64, plan.num_files() * r as u64);
            }
        }
    }

    #[test]
    fn file_id_roundtrip() {
        let plan = PlacementPlan::new(9, 4).unwrap();
        for (id, s) in iter_files(&plan) {
            assert_eq!(plan.nodes_of_file(id), s);
            assert_eq!(plan.file_of_nodes(s).unwrap(), id);
        }
    }

    #[test]
    fn every_r_subset_shares_exactly_one_file() {
        let plan = PlacementPlan::new(7, 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (_, s) in iter_files(&plan) {
            assert!(seen.insert(s), "duplicate file for {s}");
        }
        assert_eq!(seen.len() as u64, plan.num_files());
    }

    #[test]
    fn files_of_node_matches_membership() {
        let plan = PlacementPlan::new(8, 3).unwrap();
        for node in 0..8 {
            let via_iter: Vec<FileId> = plan.files_of_node(node).collect();
            let via_scan: Vec<FileId> = iter_files(&plan)
                .filter(|(_, s)| s.contains(node))
                .map(|(id, _)| id)
                .collect();
            assert_eq!(via_iter, via_scan, "node {node}");
            assert_eq!(via_iter.len() as u64, binomial(7, 2));
        }
    }

    #[test]
    fn paper_fig4_placement() {
        // K=4, r=2 (paper Fig. 4): Node 2 (zero-based 1) has files
        // F{1,2}, F{2,3}, F{2,4} in one-based labels.
        let plan = PlacementPlan::new(4, 2).unwrap();
        let labels: Vec<String> = plan
            .files_of_node(1)
            .map(|f| plan.nodes_of_file(f).display_one_based())
            .collect();
        assert_eq!(labels, vec!["{1,2}", "{2,3}", "{2,4}"]);
    }

    #[test]
    fn r1_degenerates_to_terasort_placement() {
        let plan = PlacementPlan::new(5, 1).unwrap();
        assert_eq!(plan.num_files(), 5);
        for node in 0..5 {
            let files: Vec<FileId> = plan.files_of_node(node).collect();
            assert_eq!(files.len(), 1);
            assert_eq!(plan.nodes_of_file(files[0]).to_vec(), vec![node]);
        }
    }

    #[test]
    fn r_equals_k_single_file_everywhere() {
        let plan = PlacementPlan::new(6, 6).unwrap();
        assert_eq!(plan.num_files(), 1);
        assert_eq!(plan.nodes_of_file(FileId(0)), NodeSet::full(6));
    }

    #[test]
    fn keep_rule_matches_paper_fig5() {
        // K=4, r=2, Node 1 maps F{1,2}: keeps I^1, I^3, I^4; discards I^2.
        let plan = PlacementPlan::new(4, 2).unwrap();
        let s = NodeSet::from_iter([0usize, 1]); // {1,2} one-based
        assert!(plan.keeps_intermediate(0, s, 0));
        assert!(!plan.keeps_intermediate(0, s, 1));
        assert!(plan.keeps_intermediate(0, s, 2));
        assert!(plan.keeps_intermediate(0, s, 3));
    }
}
