//! The TeraSort workload plugged into the generic engines.

use cts_core::exec::WorkerPool;
use cts_mapreduce::workload::{InputFormat, Workload};

use crate::partition::{KeyPartitioner, RangePartitioner, SampledPartitioner};
use crate::record::{key_of, record_count, records, RECORD_LEN};
use crate::sort::{sort_pieces, SortKernel};

/// TeraSort as a [`Workload`]: Map hashes records into ordered key-range
/// partitions (paper §III-A3); Reduce sorts the partition locally
/// (§III-A5). Intermediates are packed record buffers, so concatenation
/// order is irrelevant to the sorted result.
pub struct TeraSortWorkload {
    partitioner: Partitioner,
    kernel: SortKernel,
}

enum Partitioner {
    Range(RangePartitioner),
    Sampled(SampledPartitioner),
}

impl Partitioner {
    fn partition(&self, key: &[u8]) -> usize {
        match self {
            Partitioner::Range(p) => p.partition(key),
            Partitioner::Sampled(p) => p.partition(key),
        }
    }
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

    fn map_file(&self, file: &[u8], num_partitions: usize) -> Vec<Vec<u8>> {
        // Count, then scatter: every partition buffer is allocated once at
        // its final size instead of growing by doubling.
        let mut sizes = vec![0usize; num_partitions];
        let ids: Vec<u32> = records(file)
            .map(|rec| {
                let p = self.partitioner.partition(key_of(rec));
                sizes[p] += RECORD_LEN;
                p as u32
            })
            .collect();
        let mut out: Vec<Vec<u8>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (rec, p) in records(file).zip(ids) {
            out[p as usize].extend_from_slice(rec);
        }
        out
    }

    fn reduce(&self, partition: usize, data: &[u8]) -> Vec<u8> {
        self.reduce_pieces(partition, &[data], &WorkerPool::serial())
    }

    fn map_file_par(&self, file: &[u8], num_partitions: usize, pool: &WorkerPool) -> Vec<Vec<u8>> {
        let ranges = pool.chunk_ranges(record_count(file), crate::sort::PAR_MIN_RECORDS_PER_CHUNK);
        if ranges.len() <= 1 {
            return self.map_file(file, num_partitions);
        }
        // Hash contiguous record chunks independently, then concatenate
        // each partition's pieces in chunk order — identical bytes to the
        // serial scan for any thread count.
        let parts: Vec<Vec<Vec<u8>>> = pool.map(ranges.len(), |c| {
            let r = &ranges[c];
            self.map_file(
                &file[r.start * RECORD_LEN..r.end * RECORD_LEN],
                num_partitions,
            )
        });
        let pieces_of =
            |p: usize| -> Vec<&[u8]> { parts.iter().map(|chunk| &chunk[p][..]).collect() };
        (0..num_partitions).map(|p| pieces_of(p).concat()).collect()
    }

    fn reduce_pieces(&self, _partition: usize, pieces: &[&[u8]], pool: &WorkerPool) -> Vec<u8> {
        sort_pieces(pieces, self.kernel, pool)
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
        let parts = w.map_file(&data, 4);
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
        for (n, k) in [(5_000, 7), (3, 8), (0, 2)] {
            let data = generate(n, 8);
            // The oracle: append each record to its partition as it comes.
            let mut expected = vec![Vec::new(); k];
            for rec in records(&data) {
                expected[RangePartitioner::new(k).partition(key_of(rec))].extend_from_slice(rec);
            }
            let parts = TeraSortWorkload::range(k).map_file(&data, k);
            assert_eq!(parts, expected);
            for part in &parts {
                assert_eq!(part.capacity(), part.len(), "{n} records, K = {k}");
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
        let serial_map = w.map_file(&data, 5);
        let serial_reduce: Vec<Vec<u8>> = (0..5).map(|p| w.reduce(p, &serial_map[p])).collect();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(w.map_file_par(&data, 5, &pool), serial_map, "{threads}");
            for p in 0..5 {
                assert_eq!(
                    w.reduce_pieces(p, &[&serial_map[p]], &pool),
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
