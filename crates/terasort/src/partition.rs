//! Key-domain partitioning (paper §III-A2).
//!
//! The key domain splits into `K` *ordered* partitions `P_1 < … < P_K`;
//! node `k` reduces partition `k`. [`RangePartitioner`] divides the 80-bit
//! key space into `K` exactly equal ranges — correct and balanced for
//! TeraGen's uniform keys. [`SampledPartitioner`] (the extension Hadoop's
//! TotalOrderPartitioner implements) picks boundaries from sampled
//! quantiles, balancing skewed inputs too.

use crate::record::{key_to_u128, KEY_LEN};

/// Equal-width ranges over the 80-bit key space:
/// `partition = ⌊key · K / 2^80⌋`.
#[derive(Clone, Copy, Debug)]
pub struct RangePartitioner {
    k: usize,
}

impl RangePartitioner {
    /// A partitioner for `k` partitions.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one partition");
        RangePartitioner { k }
    }

    /// The partition of `key` (a [`KEY_LEN`]-byte slice).
    #[inline]
    pub fn partition(&self, key: &[u8]) -> usize {
        // Exact: key < 2^80 and K ≤ 2^16, so key·K < 2^96 fits u128.
        ((key_to_u128(key) * self.k as u128) >> 80) as usize
    }

    /// The keys of partition `p`: the first, and one past the last.
    pub fn keys_of(&self, p: usize) -> std::ops::Range<u128> {
        // The smallest key whose product with K reaches p · 2^80.
        let first = |p: usize| ((p as u128) << 80).div_ceil(self.k as u128);
        first(p)..first(p + 1)
    }
}

/// Quantile boundaries learned from a key sample — balances skewed key
/// distributions (Hadoop's TotalOrderPartitioner approach).
#[derive(Clone, Debug)]
pub struct SampledPartitioner {
    /// `k-1` ascending boundary keys; partition `p` holds keys in
    /// `[boundaries[p-1], boundaries[p])`.
    boundaries: Vec<[u8; KEY_LEN]>,
}

impl SampledPartitioner {
    /// Builds boundaries at the `i/k` quantiles of `samples`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `samples` is empty.
    pub fn from_samples(mut samples: Vec<[u8; KEY_LEN]>, k: usize) -> Self {
        assert!(k > 0, "need at least one partition");
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_unstable();
        let n = samples.len();
        let boundaries = (1..k).map(|i| samples[(n * i / k).min(n - 1)]).collect();
        SampledPartitioner { boundaries }
    }

    /// The boundary keys (ascending, length `k-1`).
    pub fn boundaries(&self) -> &[[u8; KEY_LEN]] {
        &self.boundaries
    }

    /// The partition of `key` (a [`KEY_LEN`]-byte slice).
    #[inline]
    pub fn partition(&self, key: &[u8]) -> usize {
        debug_assert_eq!(key.len(), KEY_LEN);
        // First partition whose boundary exceeds the key.
        self.boundaries.partition_point(|b| &b[..] <= key)
    }

    /// The keys of partition `p`: the first, and one past the last (empty
    /// between two equal boundaries).
    pub fn keys_of(&self, p: usize) -> std::ops::Range<u128> {
        let bound = |i: usize| self.boundaries.get(i).map(|b| key_to_u128(b));
        p.checked_sub(1).and_then(bound).unwrap_or(0)..bound(p).unwrap_or(1 << 80)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{key_of, records};
    use crate::teragen::{generate, generate_skewed};

    fn key(bytes: &[u8]) -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        k[..bytes.len()].copy_from_slice(bytes);
        k
    }

    #[test]
    fn range_partitions_cover_in_order() {
        let p = RangePartitioner::new(4);
        assert_eq!(p.partition(&[0u8; 10]), 0);
        assert_eq!(p.partition(&[0xFFu8; 10]), 3);
        // Quarter boundaries: 0x40… → exactly 1, just below → 0.
        assert_eq!(p.partition(&key(&[0x40])), 1);
        let mut below = [0xFFu8; 10];
        below[0] = 0x3F;
        assert_eq!(p.partition(&below), 0);
    }

    #[test]
    fn range_is_monotone() {
        let p = RangePartitioner::new(7);
        let data = generate(2000, 3);
        let mut keyed: Vec<&[u8]> = records(&data).map(key_of).collect();
        keyed.sort_unstable();
        let parts: Vec<usize> = keyed.iter().map(|k| p.partition(k)).collect();
        assert!(parts.windows(2).all(|w| w[0] <= w[1]));
        assert!(parts.iter().all(|&x| x < 7));
    }

    #[test]
    fn range_balances_uniform_keys() {
        let k = 8;
        let p = RangePartitioner::new(k);
        let data = generate(8000, 17);
        let mut counts = vec![0usize; k];
        for rec in records(&data) {
            counts[p.partition(key_of(rec))] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "imbalance {counts:?}");
    }

    #[test]
    fn range_fails_on_skew_where_sampled_succeeds() {
        let k = 8;
        let data = generate_skewed(8000, 23, 0.6, 16);
        let range = RangePartitioner::new(k);
        let mut range_counts = vec![0usize; k];
        for rec in records(&data) {
            range_counts[range.partition(key_of(rec))] += 1;
        }
        // The hot prefix lands >half the records in one range partition.
        assert!(*range_counts.iter().max().unwrap() > 8000 / 2);

        let samples: Vec<[u8; KEY_LEN]> = records(&data)
            .step_by(10)
            .map(|r| key_of(r).try_into().unwrap())
            .collect();
        let sampled = SampledPartitioner::from_samples(samples, k);
        let mut s_counts = vec![0usize; k];
        for rec in records(&data) {
            s_counts[sampled.partition(key_of(rec))] += 1;
        }
        let max = *s_counts.iter().max().unwrap();
        assert!(
            max < 8000 / 4,
            "sampled partitioner still skewed: {s_counts:?}"
        );
    }

    #[test]
    fn sampled_is_monotone_and_total() {
        let samples: Vec<[u8; KEY_LEN]> = (0..100u8).map(|i| key(&[i.wrapping_mul(37)])).collect();
        let p = SampledPartitioner::from_samples(samples, 5);
        assert_eq!(p.boundaries().len(), 4);
        let data = generate(1000, 29);
        let mut keyed: Vec<&[u8]> = records(&data).map(key_of).collect();
        keyed.sort_unstable();
        let parts: Vec<usize> = keyed.iter().map(|k| p.partition(k)).collect();
        assert!(parts.windows(2).all(|w| w[0] <= w[1]));
        assert!(parts.iter().all(|&x| x < 5));
    }

    #[test]
    fn sampled_boundaries_are_sorted() {
        let samples: Vec<[u8; KEY_LEN]> = (0..50u8).rev().map(|i| key(&[i])).collect();
        let p = SampledPartitioner::from_samples(samples, 4);
        let b = p.boundaries();
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_partition_takes_everything() {
        let range = RangePartitioner::new(1);
        assert_eq!(range.partition(&[0xABu8; 10]), 0);
        let sampled = SampledPartitioner::from_samples(vec![key(&[1])], 1);
        assert_eq!(sampled.partition(&[0xCDu8; 10]), 0);
    }
}
