//! Property suite for the Reduce sort kernels: on duplicate-heavy keys,
//! where only the `(key, input position)` order is deterministic, both
//! kernels equal a stable `sort_by_key` of the records — from one buffer,
//! from arbitrarily cut pieces, under every thread count, and whatever order
//! a partition's reducer is handed the pieces in.

use bytes::Bytes;
use coded_terasort::mapreduce::workload::PartitionShape;
use coded_terasort::prelude::*;
use cts_terasort::record::{key_of, records, KEY_LEN, RECORD_LEN};
use cts_terasort::sort::{sort_pieces, sort_records};
use cts_terasort::SampledPartitioner;
use proptest::prelude::*;

/// `n` records over at most `distinct` keys (differing in the first, a
/// middle and the last key byte), each carrying its input position as value.
fn duplicate_heavy(n: usize, distinct: u64, mut seed: u64) -> Vec<u8> {
    let mut data = vec![0u8; n * RECORD_LEN];
    for (i, rec) in data.chunks_exact_mut(RECORD_LEN).enumerate() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let class = ((seed >> 33) % distinct) as u8;
        (rec[0], rec[4], rec[KEY_LEN - 1]) = (class % 2, class / 2, class.wrapping_mul(37));
        rec[KEY_LEN..KEY_LEN + 4].copy_from_slice(&(i as u32).to_le_bytes());
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_equal_a_stable_sort_by_key(
        // Past 8 192 records the parallel sort really chunks and merges.
        n in 0usize..12_000,
        distinct in 1u64..7,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..12_000, 0..9),
    ) {
        let data = duplicate_heavy(n, distinct, seed);
        let mut oracle: Vec<&[u8]> = data.chunks_exact(RECORD_LEN).collect();
        oracle.sort_by_key(|rec| &rec[..KEY_LEN]);
        let oracle = oracle.concat();

        // Cut points in records, repeats allowed: repeats make empty pieces.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        let pieces: Vec<&[u8]> = cuts
            .windows(2)
            .map(|w| &data[w[0] * RECORD_LEN..w[1] * RECORD_LEN])
            .collect();

        for kernel in SortKernel::ALL {
            prop_assert_eq!(&sort_records(&data, kernel), &oracle, "{}", kernel);
            for threads in [1usize, 2, 4] {
                let sorted = sort_pieces(&pieces, kernel, &WorkerPool::new(threads));
                prop_assert_eq!(&sorted, &oracle, "{} pieces {} threads {}", kernel, pieces.len(), threads);
            }
        }
    }
}

/// A partition of a K = 4 job, as the engine would hand it to a reducer:
/// which workload, which partition, and its records in file order.
struct Partition {
    workload: TeraSortWorkload,
    index: usize,
    records: Vec<u8>,
}

const K: usize = 4;

/// Sets the record's 10-byte key to `key` and makes its value tell it apart.
fn keyed(key: u128, tag: u32) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[..KEY_LEN].copy_from_slice(&key.to_be_bytes()[16 - KEY_LEN..]);
    rec[KEY_LEN..KEY_LEN + 4].copy_from_slice(&tag.to_le_bytes());
    rec
}

/// Partition `index` of `input` under `workload`, in input order.
fn partition_of(workload: TeraSortWorkload, index: usize, input: &[u8]) -> Partition {
    let records = workload
        .map_file(input, K, NodeSet::singleton(index))
        .swap_remove(index);
    Partition {
        workload,
        index,
        records,
    }
}

/// The inputs an arrival order could trip over, ~10 000 records each (enough
/// for several buckets and, past 8 192, for more than one worker).
fn partition(kind: usize, seed: u64) -> Partition {
    let range = |kernel| TeraSortWorkload::range(K).with_kernel(kernel);
    let kernel = SortKernel::ALL[seed as usize % 2];
    match kind {
        // Uniform keys.
        0 => partition_of(range(kernel), 2, &teragen::generate(40_000, seed)),
        // Three distinct keys; one key (everything in one bucket).
        1 | 2 => {
            let distinct = if kind == 1 { 3 } else { 1 };
            let mut records = duplicate_heavy(10_000, distinct, seed);
            for rec in records.chunks_exact_mut(RECORD_LEN) {
                rec[0] |= 0x40; // partition 1 of 4
            }
            partition_of(range(kernel), 1, &records)
        }
        // Keys on the partition's first and last key and on every power-of-two
        // step from its first key — a bucket boundary whatever the bucket
        // count — each with its neighbours, many times over.
        3 => {
            let (first, last) = (1u128 << 78, (1u128 << 79) - 1);
            let steps = (0..78).flat_map(|bit| {
                let at = first + (1u128 << bit);
                [at - 1, at, at + 1]
            });
            let keys: Vec<u128> = steps.chain([first, last]).collect();
            let mut records = Vec::new();
            for i in 0..10_000u32 {
                let pick = (seed.wrapping_mul(u64::from(i) + 1) >> 7) as usize % keys.len();
                records.extend_from_slice(&keyed(keys[pick].clamp(first, last), i));
            }
            partition_of(range(kernel), 1, &records)
        }
        // Skewed keys under the boundaries sampled from them.
        _ => {
            let input = teragen::generate_skewed(40_000, seed, 0.6, 12);
            let samples = records(&input).step_by(16);
            let samples = samples.map(|rec| key_of(rec).try_into().unwrap());
            let sampled = SampledPartitioner::from_samples(samples.collect(), K);
            let workload = TeraSortWorkload::sampled(sampled).with_kernel(kernel);
            partition_of(workload, seed as usize % K, &input)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn any_arrival_order_equals_the_sort_of_the_file_order_concatenation(
        kind in 0usize..5,
        pieces in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pieces = [1, 8, 56][pieces];
        let part = partition(kind, seed);
        let n = part.records.len() / RECORD_LEN;
        let whole = Bytes::from(part.records.clone());
        // Cut into `pieces` pieces, an empty one first, in the middle and last.
        let mut cuts: Vec<usize> = (0..=pieces).map(|i| n * i / pieces).collect();
        cuts.extend([0, cuts[pieces / 2], n]);
        cuts.sort_unstable();
        let files: Vec<Bytes> = cuts
            .windows(2)
            .map(|w| whole.slice(w[0] * RECORD_LEN..w[1] * RECORD_LEN))
            .collect();
        // A permutation of the files: Fisher–Yates on a small LCG.
        let mut order: Vec<usize> = (0..files.len()).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shape = PartitionShape { pieces: files.len(), expected_bytes: whole.len() };
        // The oracle shares no code with the reducer: a stable sort by key.
        let mut expected: Vec<&[u8]> = whole.chunks_exact(RECORD_LEN).collect();
        expected.sort_by_key(|rec| &rec[..KEY_LEN]);
        let expected = expected.concat();
        prop_assert!(part.workload.reduce(part.index, &whole) == expected);
        for threads in [1usize, 2, 4] {
            let mut reducer = part.workload.reducer(part.index, shape);
            for &file in &order {
                // Sparse, ascending file ranks, as the engine's node sets are.
                reducer.absorb(file as u64 * 3 + 1, files[file].clone());
            }
            let sorted = reducer.finish(&WorkerPool::new(threads));
            prop_assert!(
                sorted == expected,
                "kind {} in {} pieces, threads {}, order {:?}", kind, files.len(), threads, order
            );
        }
    }
}
