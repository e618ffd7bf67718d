//! The TeraSort workload plugged into the generic engine. Map output is the
//! bulk of a job's memory (r× the input): its buffers are leased from the
//! process-wide [`cts_core::pool`], for the kept partitions only, and come
//! back when the job lets go of what the engine froze them into.

use cts_core::exec::WorkerPool;
use cts_core::pool;
use cts_mapreduce::workload::{InputFormat, NodeSet, PartitionShape, Reducer, Workload};

use crate::partition::{RangePartitioner, SampledPartitioner};
use crate::record::{key_of, record_count, records, RECORD_LEN};
use crate::sort::{sort_records, SortKernel, SortReducer};

/// TeraSort as a [`Workload`]: Map hashes records into ordered key-range
/// partitions (paper §III-A3); Reduce sorts the partition locally
/// (§III-A5), scattering each piece over sub-ranges of the partition's keys
/// as it arrives. Intermediates are packed record buffers, so arrival
/// order is irrelevant to the sorted result.
pub struct TeraSortWorkload {
    partitioner: Partitioner,
    kernel: SortKernel,
}

enum Partitioner {
    Range(RangePartitioner),
    Sampled(SampledPartitioner),
}

impl TeraSortWorkload {
    /// Uniform range partitioning over `k` partitions with the paper's
    /// `std::sort` kernel.
    pub fn range(k: usize) -> Self {
        TeraSortWorkload {
            partitioner: Partitioner::Range(RangePartitioner::new(k)),
            kernel: SortKernel::Comparison,
        }
    }

    /// Sampling-based partitioning (for skewed inputs).
    pub fn sampled(partitioner: SampledPartitioner) -> Self {
        TeraSortWorkload {
            partitioner: Partitioner::Sampled(partitioner),
            kernel: SortKernel::Comparison,
        }
    }

    /// Selects the Reduce sort kernel.
    pub fn with_kernel(mut self, kernel: SortKernel) -> Self {
        self.kernel = kernel;
        self
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
        // Count, then scatter: a kept partition's buffer is leased once, at its
        // final size; any other partition's records are not counted or copied.
        let mut sizes = vec![0usize; num_partitions];
        let ids: Vec<u8> = records(file)
            .map(|rec| {
                let p = match &self.partitioner {
                    Partitioner::Range(p) => p.partition(key_of(rec)),
                    Partitioner::Sampled(p) => p.partition(key_of(rec)),
                };
                sizes[p] += if keep.contains(p) { RECORD_LEN } else { 0 };
                p as u8 // a `NodeSet` member: < 64
            })
            .collect();
        let mut out: Vec<Vec<u8>> = sizes.iter().map(|&size| pool::global().get(size)).collect();
        for (rec, p) in records(file).zip(ids) {
            if sizes[p as usize] > 0 {
                out[p as usize].extend_from_slice(rec);
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        sort_records(data, self.kernel)
    }

    fn map_file_par(&self, file: &[u8], num_partitions: usize, pool: &WorkerPool) -> Vec<Vec<u8>> {
        let ranges = pool.chunk_ranges(record_count(file), crate::sort::PAR_MIN_RECORDS_PER_CHUNK);
        let all = NodeSet::full(num_partitions);
        if ranges.len() <= 1 {
            return self.map_file(file, num_partitions, all);
        }
        // Hash contiguous record chunks independently, then concatenate
        // each partition's pieces in chunk order — identical bytes to the
        // serial scan for any thread count.
        let mut parts: Vec<Vec<Vec<u8>>> = pool.map(ranges.len(), |c| {
            let r = &ranges[c];
            let chunk = &file[r.start * RECORD_LEN..r.end * RECORD_LEN];
            self.map_file(chunk, num_partitions, all)
        });
        let whole = |p: usize| {
            let mut whole = pool::global().get(parts.iter().map(|chunk| chunk[p].len()).sum());
            for chunk in &mut parts {
                whole.extend_from_slice(&chunk[p]);
                pool::global().put(std::mem::take(&mut chunk[p]));
            }
            whole
        };
        (0..num_partitions).map(whole).collect()
    }

    fn reducer(&self, partition: usize, shape: PartitionShape) -> Box<dyn Reducer + '_> {
        let keys = match &self.partitioner {
            Partitioner::Range(p) => p.keys_of(partition),
            Partitioner::Sampled(p) => p.keys_of(partition),
        };
        let records = shape.expected_bytes / RECORD_LEN;
        Box::new(SortReducer::new(self.kernel, keys, shape.pieces, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::KEY_LEN;
    use crate::sort::is_sorted;
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

    #[test]
    fn map_scatters_into_exactly_sized_buffers() {
        // 3 records over 8 partitions leaves most of them empty.
        for (n, k) in [(5_000, 7), (200, 7), (3, 8), (0, 2)] {
            let data = generate(n, 8);
            // The oracle: append each record to its partition as it comes.
            let mut expected = vec![Vec::new(); k];
            for rec in records(&data) {
                expected[RangePartitioner::new(k).partition(key_of(rec))].extend_from_slice(rec);
            }
            let parts = TeraSortWorkload::range(k).map_file(&data, k, NodeSet::full(k));
            assert_eq!(parts, expected);
            // Filled without growing: a buffer comes back with the capacity
            // it was leased with — its exact size when fresh (always, under
            // the pool's one-page floor), a pooled one within the pool's 1.5× slack.
            for part in &parts {
                let (len, cap) = (part.len(), part.capacity());
                let leased = if len < 4 << 10 {
                    len..=len
                } else {
                    len..=len + len / 2
                };
                assert!(
                    leased.contains(&cap),
                    "{n} records, K = {k}: {len} in {cap}"
                );
            }
            // Outside the keep-mask nothing is counted, leased or copied.
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
    fn key_index_kernel_matches_comparison() {
        let data = generate(500, 33);
        let a = run_sequential(&TeraSortWorkload::range(4), &data, 4);
        let b = run_sequential(
            &TeraSortWorkload::range(4).with_kernel(SortKernel::KeyIndex),
            &data,
            4,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_map_and_reduce_match_serial() {
        let data = generate(9_000, 77);
        let w = TeraSortWorkload::range(5);
        let serial_map = w.map_file(&data, 5, NodeSet::full(5));
        let serial_reduce: Vec<Vec<u8>> = (0..5).map(|p| w.reduce(p, &serial_map[p])).collect();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(w.map_file_par(&data, 5, &pool), serial_map, "{threads}");
            for p in 0..5 {
                // The partition's own key bounds, in two pieces, last first.
                let shape = PartitionShape {
                    pieces: 2,
                    expected_bytes: serial_map[p].len(),
                };
                let mut reducer = w.reducer(p, shape);
                let cut = record_count(&serial_map[p]) / 2 * RECORD_LEN;
                let whole = bytes::Bytes::from(serial_map[p].clone());
                reducer.absorb(1, whole.slice(cut..));
                reducer.absorb(0, whole.slice(..cut));
                assert_eq!(
                    reducer.finish(&pool),
                    serial_reduce[p],
                    "partition {p} threads {threads}"
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
