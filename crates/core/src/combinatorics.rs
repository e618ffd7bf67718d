//! Binomial coefficients, combination enumeration, and colexicographic
//! ranking.
//!
//! CodedTeraSort's data structures are indexed by fixed-size subsets:
//! `N = C(K, r)` input files (paper eq. (6)) and `C(K, r+1)` multicast groups.
//! To address them with dense integer ids we enumerate subsets in
//! *colexicographic* (colex) order, which admits O(k)-time ranking and
//! unranking via the combinatorial number system.

use crate::subset::{NodeId, NodeSet};

/// `C(n, k)` computed with u128 intermediates, returning `None` on overflow
/// of `u64`.
///
/// For the parameter ranges of this crate (`n ≤ 64`) the result always fits:
/// `C(64, 32) ≈ 1.8e18 < u64::MAX`.
///
/// ```
/// use cts_core::combinatorics::binomial_checked;
/// assert_eq!(binomial_checked(16, 3), Some(560));
/// assert_eq!(binomial_checked(20, 6), Some(38760));
/// assert_eq!(binomial_checked(5, 9), Some(0));
/// ```
pub fn binomial_checked(n: u64, k: u64) -> Option<u64> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Multiply first, divide after: (acc * (n-i)) is always divisible by
        // (i+1) because acc holds C(n, i) * (partial products are binomials).
        acc = acc.checked_mul((n - i) as u128)?;
        acc /= (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return None;
        }
    }
    Some(acc as u64)
}

/// `C(n, k)`, panicking on u64 overflow (cannot happen for `n ≤ 64`).
///
/// ```
/// use cts_core::combinatorics::binomial;
/// assert_eq!(binomial(4, 2), 6);   // the paper's K=4, r=2 example: 6 files
/// assert_eq!(binomial(16, 4), 1820); // multicast groups at K=16, r=3
/// ```
#[inline]
pub fn binomial(n: u64, k: u64) -> u64 {
    binomial_checked(n, k).expect("binomial overflow")
}

/// Colexicographic rank of `set` among all subsets of its size.
///
/// With members `s_1 < s_2 < … < s_k`, the rank is
/// `Σ_j C(s_j, j)` (combinatorial number system). The universe size is
/// irrelevant: colex order is prefix-stable as `n` grows.
///
/// ```
/// use cts_core::combinatorics::colex_rank;
/// use cts_core::subset::NodeSet;
/// assert_eq!(colex_rank(NodeSet::from_iter([0usize, 1])), 0);
/// assert_eq!(colex_rank(NodeSet::from_iter([0usize, 2])), 1);
/// assert_eq!(colex_rank(NodeSet::from_iter([1usize, 2])), 2);
/// assert_eq!(colex_rank(NodeSet::from_iter([0usize, 3])), 3);
/// ```
pub fn colex_rank(set: NodeSet) -> u64 {
    let mut rank = 0u64;
    for (j, s) in set.iter().enumerate() {
        rank += binomial(s as u64, (j + 1) as u64);
    }
    rank
}

/// Inverse of [`colex_rank`]: the subset of size `k` with the given colex
/// rank, drawn from the universe `{0, …, n-1}`.
///
/// # Panics
/// Panics if `rank >= C(n, k)`.
pub fn colex_unrank(rank: u64, k: usize, n: usize) -> NodeSet {
    assert!(
        rank < binomial(n as u64, k as u64),
        "rank {rank} out of range for C({n},{k})"
    );
    let mut rank = rank;
    let mut set = NodeSet::EMPTY;
    let mut upper = n as u64;
    for j in (1..=k as u64).rev() {
        // Largest c < upper with C(c, j) <= rank.
        let mut c = j - 1; // C(j-1, j) = 0 <= rank always
        for cand in (j - 1..upper).rev() {
            if binomial(cand, j) <= rank {
                c = cand;
                break;
            }
        }
        rank -= binomial(c, j);
        set = set.with(c as NodeId);
        upper = c;
    }
    set
}

/// Iterator over all `k`-subsets of `{0, …, n-1}` in colexicographic order.
///
/// Yields exactly `C(n, k)` sets; the `i`-th yielded set has
/// `colex_rank == i`. Enumeration uses the classic colex successor rule and
/// costs O(1) amortized per subset.
///
/// ```
/// use cts_core::combinatorics::{binomial, Combinations};
/// let all: Vec<_> = Combinations::new(4, 2).collect();
/// assert_eq!(all.len() as u64, binomial(4, 2));
/// assert_eq!(all[0].to_vec(), vec![0, 1]);
/// assert_eq!(all[5].to_vec(), vec![2, 3]);
/// ```
#[derive(Clone)]
pub struct Combinations {
    n: usize,
    next: Option<NodeSet>,
}

impl Combinations {
    /// All `k`-subsets of `{0, …, n-1}`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 64, "Combinations supports n <= 64");
        let next = if k > n {
            None
        } else {
            Some(NodeSet::full(k)) // {0, …, k-1} is the colex-first subset
        };
        Combinations { n, next }
    }
}

impl Iterator for Combinations {
    type Item = NodeSet;

    fn next(&mut self) -> Option<NodeSet> {
        let current = self.next?;
        self.next = colex_successor(current, self.n);
        Some(current)
    }
}

/// The colex successor of `set` within universe `{0, …, n-1}`, or `None` if
/// `set` is the last (i.e. the top `k` elements).
fn colex_successor(set: NodeSet, n: usize) -> Option<NodeSet> {
    if set.is_empty() {
        return None; // the single empty set has no successor
    }
    // Find the smallest member that can be incremented: the first member m
    // such that m+1 is not a member. All smaller members reset to 0,1,2,…
    for (passed, m) in set.iter().enumerate() {
        if !set.contains(m + 1) {
            if m + 1 >= n {
                return None; // m is the top element and the prefix is packed
            }
            let mut next = set.without(m).with(m + 1);
            // Reset the `passed` members below m to {0, …, passed-1}.
            let below = NodeSet::from_bits(set.bits() & ((1u64 << m) - 1));
            next = next.difference(below).union(NodeSet::full(passed));
            return Some(next);
        }
    }
    None
}

/// Iterator over the `k`-subsets of an arbitrary universe set, in colex order
/// of *positions* within the universe.
///
/// Used for per-node enumerations such as "all files stored on node k"
/// (subsets of `K \ {k}` of size `r-1`, each unioned with `{k}`).
pub fn combinations_of(universe: NodeSet, k: usize) -> impl Iterator<Item = NodeSet> {
    let members: Vec<NodeId> = universe.to_vec();
    let n = members.len();
    Combinations::new(n, k)
        .map(move |positions| positions.iter().map(|p| members[p]).collect::<NodeSet>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_table() {
        let expect = [
            (0, 0, 1),
            (1, 0, 1),
            (1, 1, 1),
            (4, 2, 6),
            (16, 3, 560),
            (16, 4, 1820),
            (16, 6, 8008),
            (20, 4, 4845),
            (20, 6, 38760),
            (64, 1, 64),
        ];
        for (n, k, c) in expect {
            assert_eq!(binomial(n, k), c, "C({n},{k})");
        }
    }

    #[test]
    fn binomial_symmetry_and_pascal() {
        for n in 0..=24u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
                if k >= 1 && n >= 1 {
                    assert_eq!(
                        binomial(n, k),
                        binomial(n - 1, k - 1) + binomial(n - 1, k),
                        "Pascal at ({n},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn binomial_k_greater_than_n_is_zero() {
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial_checked(0, 1), Some(0));
    }

    #[test]
    fn binomial_largest_supported() {
        // C(64, 32) fits u64.
        assert_eq!(binomial_checked(64, 32), Some(1_832_624_140_942_590_534));
    }

    #[test]
    fn combinations_count_and_order() {
        for n in 0..=10usize {
            for k in 0..=n {
                let all: Vec<NodeSet> = Combinations::new(n, k).collect();
                assert_eq!(all.len() as u64, binomial(n as u64, k as u64));
                // Ranks are 0..C(n,k) in order.
                for (i, s) in all.iter().enumerate() {
                    assert_eq!(s.len(), k);
                    assert_eq!(colex_rank(*s), i as u64, "rank of {s:?}");
                    assert_eq!(colex_unrank(i as u64, k, n), *s);
                }
                // All distinct.
                let mut sorted = all.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), all.len());
            }
        }
    }

    #[test]
    fn combinations_k_zero_yields_empty_set_once() {
        let all: Vec<NodeSet> = Combinations::new(5, 0).collect();
        assert_eq!(all, vec![NodeSet::EMPTY]);
    }

    #[test]
    fn combinations_k_exceeds_n_is_empty() {
        assert_eq!(Combinations::new(3, 4).count(), 0);
    }

    #[test]
    fn paper_example_k4_r2_files() {
        // Paper §IV-A: K=4, r=2 gives files {1,2},{1,3},{1,4},{2,3},{2,4},{3,4}
        // (one-based). Zero-based colex order:
        let files: Vec<String> = Combinations::new(4, 2)
            .map(|s| s.display_one_based())
            .collect();
        assert_eq!(
            files,
            vec!["{1,2}", "{1,3}", "{2,3}", "{1,4}", "{2,4}", "{3,4}"]
        );
    }

    #[test]
    fn combinations_of_sub_universe() {
        let universe = NodeSet::from_iter([2usize, 5, 9]);
        let pairs: Vec<NodeSet> = combinations_of(universe, 2).collect();
        assert_eq!(pairs.len(), 3);
        for p in &pairs {
            assert!(p.is_subset_of(universe));
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        let result = std::panic::catch_unwind(|| colex_unrank(6, 2, 4));
        assert!(result.is_err());
    }

    #[test]
    fn colex_order_matches_bitmask_order() {
        // For equal-size subsets, colex order == numeric order of bitmasks,
        // which is why NodeSet's derived Ord agrees with FileId order.
        let all: Vec<NodeSet> = Combinations::new(8, 3).collect();
        for w in all.windows(2) {
            assert!(w[0].bits() < w[1].bits());
        }
    }
}
