//! The TeraSort workload plugged into the generic engine. Map output is the
//! bulk of a job's memory (r× the input): Map reads each file once, copying
//! every record of a kept partition into a buffer leased from the
//! process-wide [`cts_core::pool`] at the partition's expected size (and
//! swapped for a pooled one an eighth larger whenever a record finds it
//! full), and the buffers come back when the job lets go of what the engine
//! froze them into.

use cts_core::pool;
use cts_mapreduce::workload::{InputFormat, NodeSet, PartitionShape, Reducer, Workload};

use crate::partition::{RangePartitioner, SampledPartitioner};
use crate::record::{key_of, record_count, records, RECORD_LEN};
use crate::sort::{sort_records, SortKernel, SortReducer};

/// TeraSort as a [`Workload`]: Map hashes records into ordered key-range
/// partitions (paper §III-A3); Reduce sorts the partition locally
/// (§III-A5) with the paper's `std::sort` ([`SortKernel::Comparison`]),
/// scattering each piece over sub-ranges of the partition's keys
/// as it arrives. Intermediates are packed record buffers, so arrival
/// order is irrelevant to the sorted result.
pub struct TeraSortWorkload {
    partitioner: Partitioner,
}

enum Partitioner {
    Range(RangePartitioner),
    Sampled(SampledPartitioner),
}

impl TeraSortWorkload {
    /// Uniform range partitioning over `k` partitions.
    pub fn range(k: usize) -> Self {
        TeraSortWorkload {
            partitioner: Partitioner::Range(RangePartitioner::new(k)),
        }
    }

    /// Sampling-based partitioning (for skewed inputs).
    pub fn sampled(partitioner: SampledPartitioner) -> Self {
        TeraSortWorkload {
            partitioner: Partitioner::Sampled(partitioner),
        }
    }
}

impl Workload for TeraSortWorkload {
    fn name(&self) -> &str {
        "terasort"
    }

    fn format(&self) -> InputFormat {
        InputFormat::FixedWidth(RECORD_LEN)
    }

    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        // One pass: a kept partition's buffer is leased at its expected size
        // up front; any other partition's records are not copied.
        let lease = partition_lease(record_count(file), num_partitions);
        let mut out: Vec<Vec<u8>> = (0..num_partitions)
            .map(|p| {
                if keep.contains(p) {
                    pool::global().get(lease)
                } else {
                    Vec::new()
                }
            })
            .collect();
        for rec in records(file) {
            let p = match &self.partitioner {
                Partitioner::Range(p) => p.partition(key_of(rec)),
                Partitioner::Sampled(p) => p.partition(key_of(rec)),
            };
            if keep.contains(p) {
                let part = &mut out[p];
                if part.capacity() - part.len() < RECORD_LEN {
                    // Full: a small share's near miss, or skew. An eighth
                    // more, where `Vec` would double, and from the pool, where
                    // growing in place allocates afresh on every warm job
                    // too (r = 3 warm in `tests/alloc_budget.rs` then read up
                    // to 1.52×); the full buffer goes back for the next lease.
                    let more = (part.capacity() / 8).max(RECORD_LEN);
                    let mut grown = pool::global().get(part.capacity() + more);
                    grown.extend_from_slice(part);
                    pool::global().put(std::mem::replace(part, grown));
                }
                part.extend_from_slice(rec);
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        sort_records(data, SortKernel::Comparison)
    }

    fn reducer(&self, partition: usize, shape: PartitionShape) -> Box<dyn Reducer + '_> {
        let keys = match &self.partitioner {
            Partitioner::Range(p) => p.keys_of(partition),
            Partitioner::Sampled(p) => p.keys_of(partition),
        };
        let records = shape.expected_bytes / RECORD_LEN;
        Box::new(SortReducer::new(
            SortKernel::Comparison,
            keys,
            shape.pieces,
            records,
        ))
    }
}

/// Bytes leased for each kept partition of a file of `records` records: its
/// share of them plus a 32nd and one record, no more than the whole file. A
/// uniform count strays from the share by σ < √share, so from 16 384 records
/// a share the 32nd is over 4σ and the lease is not outgrown. A smaller share
/// is outgrown by a few records up to half the time and swapped once, where
/// a slack of 2σ — 16 % of a 178-record share — would be leased on every
/// file and never written.
fn partition_lease(records: usize, num_partitions: usize) -> usize {
    let share = records / num_partitions;
    ((share + share / 32 + 1) * RECORD_LEN).min(records * RECORD_LEN)
}

#[cfg(test)]
mod tests {
    use std::ops::RangeInclusive;

    use super::*;
    use crate::record::KEY_LEN;
    use crate::sort::{is_sorted, IN_CACHE_BYTES};
    use crate::teragen::{generate, generate_skewed};
    use cts_mapreduce::run_sequential;

    #[test]
    fn map_partitions_by_key_range() {
        let w = TeraSortWorkload::range(4);
        let data = generate(400, 8);
        let parts = w.map_file(&data, 4, NodeSet::full(4));
        // Each partition's keys stay inside its range.
        for (p, buf) in parts.iter().enumerate() {
            for rec in records(buf) {
                assert_eq!(RangePartitioner::new(4).partition(key_of(rec)), p);
            }
        }
        let total: usize = parts.iter().map(|b| b.len()).sum();
        assert_eq!(total, data.len());
    }

    /// The oracle: each record appended to its range partition as it comes.
    fn appended_as_they_come(data: &[u8], k: usize) -> Vec<Vec<u8>> {
        let mut expected = vec![Vec::new(); k];
        for rec in records(data) {
            expected[RangePartitioner::new(k).partition(key_of(rec))].extend_from_slice(rec);
        }
        expected
    }

    /// The capacity a kept partition's buffer starts with: the lease when
    /// fresh (always, under the pool's one-page floor), a pooled one within
    /// the pool's 1.5× slack.
    fn leased(lease: usize) -> RangeInclusive<usize> {
        if lease < 4 << 10 {
            lease..=lease
        } else {
            lease..=lease + lease / 2
        }
    }

    /// At most what a buffer swapped in an eighth past `len` bytes asks for.
    fn grown(len: usize) -> usize {
        len + len / 8 + 2 * RECORD_LEN
    }

    #[test]
    fn uniform_keys_never_outgrow_a_large_share_lease() {
        // 20 000-record shares: the 32nd over them is 625 records, over 5σ.
        for (k, seed) in [(2, 0), (2, 1), (2, 2), (3, 3)] {
            let n = 20_000 * k;
            let data = generate(n, seed);
            let parts = TeraSortWorkload::range(k).map_file(&data, k, NodeSet::full(k));
            assert_eq!(parts, appended_as_they_come(&data, k));
            let lease = partition_lease(n, k);
            for part in &parts {
                // Filled within the lease, so never grown: it keeps the
                // capacity it was leased with.
                let (len, cap) = (part.len(), part.capacity());
                assert!(
                    len <= lease && leased(lease).contains(&cap),
                    "{n} records, K = {k}, seed {seed}: {len} in {cap}, leased {lease}"
                );
            }
        }
    }

    #[test]
    fn small_shares_grow_by_an_eighth_and_keep_the_order() {
        // 714-record shares with 23 records of slack, under 1σ: some
        // overflow. Then most partitions empty (3 records over 8) or all.
        let shapes = (0..8).map(|seed| (5_000, 7, seed));
        let mut outgrown = 0;
        for (n, k, seed) in shapes.chain([(200, 7, 8), (3, 8, 8), (0, 2, 8)]) {
            let data = generate(n, seed);
            let parts = TeraSortWorkload::range(k).map_file(&data, k, NodeSet::full(k));
            assert_eq!(parts, appended_as_they_come(&data, k));
            let lease = partition_lease(n, k);
            for part in &parts {
                // Never doubled: a buffer keeps its lease, or was swapped for
                // one leased an eighth past what it held.
                let (len, cap) = (part.len(), part.capacity());
                assert!(
                    leased(lease).contains(&cap) || cap <= *leased(grown(len)).end(),
                    "{n} records, K = {k}, seed {seed}: {len} in {cap}, leased {lease}"
                );
                outgrown += usize::from(len > lease);
            }
        }
        assert!(outgrown > 0, "no lease was outgrown: nothing grew");
    }

    #[test]
    fn skew_into_one_partition_grows_its_lease_and_keeps_the_order() {
        // Every key shares its top 16 bits: one range partition takes all.
        for (n, k) in [(20_000, 8), (1_000, 4)] {
            let data = generate_skewed(n, 31, 1.0, 16);
            let expected = appended_as_they_come(&data, k);
            let hot = expected.iter().position(|part| !part.is_empty()).unwrap();
            assert_eq!(expected[hot].len(), data.len());
            let parts = TeraSortWorkload::range(k).map_file(&data, k, NodeSet::full(k));
            assert_eq!(parts, expected);
            // Grown past any buffer the pool could have leased, by eighths.
            let cap = parts[hot].capacity();
            assert!(cap > partition_lease(n, k) * 3 / 2, "{n} records: {cap}");
            let most = *leased(grown(data.len())).end();
            assert!(cap <= most, "{n} records: {cap}");
        }
    }

    #[test]
    fn dropped_partitions_are_never_leased() {
        for (n, k) in [(5_000, 7), (200, 7), (3, 8)] {
            let data = generate(n, 8);
            let expected = appended_as_they_come(&data, k);
            let keep: NodeSet = [1usize, k - 1].into_iter().collect();
            let parts = TeraSortWorkload::range(k).map_file(&data, k, keep);
            for (p, part) in parts.iter().enumerate() {
                if keep.contains(p) {
                    assert_eq!(part, &expected[p], "{n} records, K = {k}, partition {p}");
                } else {
                    assert_eq!((part.len(), part.capacity()), (0, 0));
                }
            }
        }
    }

    #[test]
    fn sequential_end_to_end_sorts() {
        let w = TeraSortWorkload::range(3);
        let data = generate(300, 21);
        let outputs = run_sequential(&w, &data, 3);
        for out in &outputs {
            assert!(is_sorted(out));
        }
        // Concatenated partitions form the globally sorted list (ordered
        // partitions property).
        let all: Vec<u8> = outputs.into_iter().flatten().collect();
        assert!(is_sorted(&all));
    }

    #[test]
    fn the_reducer_matches_reduce() {
        // Partitions of 180 KB, sorted in cache, and of 2.5 MB, scattered.
        for (n, k) in [(9_000, 5), (50_000, 2)] {
            let data = generate(n, 77);
            let w = TeraSortWorkload::range(k);
            let map = w.map_file(&data, k, NodeSet::full(k));
            assert_eq!(
                w.map_file_par(&data, k, &cts_core::exec::WorkerPool::serial()),
                map
            );
            let in_cache = n * RECORD_LEN / k <= IN_CACHE_BYTES;
            assert_eq!(in_cache, n == 9_000, "{n} records, K = {k}");
            for (p, part) in map.iter().enumerate() {
                // The partition's own key bounds, in two pieces, last first.
                let shape = PartitionShape {
                    pieces: 2,
                    expected_bytes: part.len(),
                };
                let mut reducer = w.reducer(p, shape);
                let cut = record_count(part) / 2 * RECORD_LEN;
                let whole = bytes::Bytes::from(part.clone());
                reducer.absorb(1, whole.slice(cut..));
                reducer.absorb(0, whole.slice(..cut));
                assert_eq!(
                    reducer.finish(),
                    w.reduce(p, part),
                    "{n} records, partition {p}"
                );
            }
        }
    }

    #[test]
    fn sampled_partitioner_balances_skew_end_to_end() {
        let k = 4;
        let data = generate_skewed(4000, 55, 0.6, 16);
        let samples: Vec<[u8; KEY_LEN]> = records(&data)
            .step_by(16)
            .map(|r| key_of(r).try_into().unwrap())
            .collect();
        let w = TeraSortWorkload::sampled(SampledPartitioner::from_samples(samples, k));
        let outputs = run_sequential(&w, &data, k);
        let max = outputs.iter().map(|o| o.len()).max().unwrap();
        let total: usize = outputs.iter().map(|o| o.len()).sum();
        assert_eq!(total, data.len());
        assert!(max < total / 2, "partitions still skewed");
        let all: Vec<u8> = outputs.into_iter().flatten().collect();
        assert!(is_sorted(&all));
    }
}
