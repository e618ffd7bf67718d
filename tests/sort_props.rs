//! Property suite for the sort kernels: on duplicate-heavy keys, where only
//! the `(key, input position)` order is deterministic, both kernels equal a
//! stable `sort_by_key` of the records, from one buffer and from arbitrarily
//! cut pieces; so does a partition's reducer (a job's, the comparison kernel)
//! whatever order it is handed the pieces in; and all of them do on keys
//! whose 8-byte sort entries tie, where only the full key tells them apart.
//! Every property runs on partitions that fit one core's L2, which are
//! sorted where their pieces lie, and on larger ones, which are scattered
//! into key sub-ranges first.

use bytes::Bytes;
use coded_terasort::mapreduce::workload::PartitionShape;
use coded_terasort::prelude::*;
use cts_terasort::record::{key_of, records, KEY_LEN, RECORD_LEN};
use cts_terasort::sort::{sort_pieces, sort_records, SortKernel};
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

/// Both library kernels, on `n` duplicate-heavy records whole and cut at
/// `cuts`, against a stable sort by key.
fn kernels_sort_stably(
    n: usize,
    distinct: u64,
    seed: u64,
    cuts: Vec<usize>,
) -> Result<(), TestCaseError> {
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
        prop_assert_eq!(&sort_records(&data, kernel), &oracle, "{:?}", kernel);
        let sorted = sort_pieces(&pieces, kernel);
        prop_assert_eq!(&sorted, &oracle, "{:?} pieces {}", kernel, pieces.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_equal_a_stable_sort_by_key(
        n in 0usize..12_000,
        distinct in 1u64..7,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..12_000, 0..9),
    ) {
        kernels_sort_stably(n, distinct, seed, cuts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Inputs of 2.1–3 MB: over the in-cache limit (2 MiB), so scattered.
    #[test]
    fn kernels_equal_a_stable_sort_by_key_past_the_cache_limit(
        n in 21_000usize..30_000,
        distinct in 1u64..7,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..30_000, 0..9),
    ) {
        kernels_sort_stably(n, distinct, seed, cuts)?;
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

/// Records in a partition that fits one core's L2 (1 MB), and in one that
/// does not (3 MB): each is sorted in its own regime.
const IN_CACHE: usize = 10_000;
const PAST_THE_CACHE: usize = 30_000;

/// The inputs an arrival order could trip over, ~`n` records each (enough
/// for several buckets).
fn partition(kind: usize, seed: u64, n: usize) -> Partition {
    let range = || TeraSortWorkload::range(K);
    match kind {
        // Uniform keys.
        0 => partition_of(range(), 2, &teragen::generate(K * n, seed)),
        // Three distinct keys; one key (everything in one bucket).
        1 | 2 => {
            let distinct = if kind == 1 { 3 } else { 1 };
            let mut records = duplicate_heavy(n, distinct, seed);
            for rec in records.chunks_exact_mut(RECORD_LEN) {
                rec[0] |= 0x40; // partition 1 of 4
            }
            partition_of(range(), 1, &records)
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
            for i in 0..n as u32 {
                let pick = (seed.wrapping_mul(u64::from(i) + 1) >> 7) as usize % keys.len();
                records.extend_from_slice(&keyed(keys[pick].clamp(first, last), i));
            }
            partition_of(range(), 1, &records)
        }
        // Skewed keys under the boundaries sampled from them.
        _ => {
            let input = teragen::generate_skewed(K * n, seed, 0.6, 12);
            let samples = records(&input).step_by(16);
            let samples = samples.map(|rec| key_of(rec).try_into().unwrap());
            let sampled = SampledPartitioner::from_samples(samples.collect(), K);
            let workload = TeraSortWorkload::sampled(sampled);
            partition_of(workload, seed as usize % K, &input)
        }
    }
}

/// A stream of pseudo-random words (SplitMix64).
fn words(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A number below `2^bits` (`bits` ≤ 80).
fn below_bit(next: &mut impl FnMut() -> u64, bits: u64) -> u128 {
    let word = (u128::from(next()) << 64) | u128::from(next());
    word & ((1u128 << bits) - 1)
}

/// Inputs on which an 8-byte entry's key prefix ties, ~`n` records each:
/// a prefix is the key's offset in its bucket with its low bits cut, so the
/// full key must order what the prefix cannot.
fn tied_partition(kind: usize, seed: u64, n: usize) -> Partition {
    let mut next = words(seed);
    // Partition 1 of 4 under the range partitioner.
    let (first, last) = (1u128 << 78, (1u128 << 79) - 1);
    let range = TeraSortWorkload::range(K);
    let mut input = Vec::new();
    match kind {
        // Six clusters; within one, keys differ by 0 (exact duplicates) up to
        // 2^47, on both sides of the cut (a scattered bucket here spans 2^72
        // keys or more, so the cut is 8 bits plus the index's, ≈ 20 in all;
        // the one bucket of an in-cache partition spans 2^78, 28–30).
        0 => {
            let bases: Vec<u128> = (0..6).map(|_| first + below_bit(&mut next, 77)).collect();
            for i in 0..n as u32 {
                let base = bases[next() as usize % bases.len()];
                let bits = next() % 48;
                let key = (base + below_bit(&mut next, bits)).min(last);
                input.extend_from_slice(&keyed(key, i));
            }
            partition_of(range, 1, &input)
        }
        // On a bucket's last key, whatever the bucket width: one below a
        // multiple of every power of two from the partition's first key, and
        // keys a little under it (a tie) or at the next bucket's first.
        1 => {
            for i in 0..n as u32 {
                let step = next() % 78;
                let edge = first + ((1 + below_bit(&mut next, 78 - step)) << step);
                let (pick, bits) = (next() % 3, next() % 40);
                let under = match pick {
                    0 => 0,
                    1 => 1,
                    _ => 1 + below_bit(&mut next, bits),
                };
                let key = (edge - under).clamp(first, last);
                input.extend_from_slice(&keyed(key, i));
            }
            partition_of(range, 1, &input)
        }
        // A sampled partition spanning all but the top 256th of the key space,
        // in one bucket (a few records) or many: a bucket's span is wider
        // than any prefix, by up to 80 bits against 64 less the index.
        _ => {
            let samples = (0..64).map(|_| {
                let key = (0xFFu128 << 72) | below_bit(&mut next, 72);
                key.to_be_bytes()[16 - KEY_LEN..].try_into().unwrap()
            });
            let sampled = SampledPartitioner::from_samples(samples.collect(), K);
            let n = if seed.is_multiple_of(2) {
                100
            } else {
                n as u32
            };
            let bases: Vec<u128> = (0..4).map(|_| below_bit(&mut next, 80)).collect();
            for i in 0..n {
                let base = bases[next() as usize % bases.len()];
                let bits = next() % 64;
                let key = (base + below_bit(&mut next, bits)).min((1 << 80) - 1);
                input.extend_from_slice(&keyed(key, i));
            }
            partition_of(TeraSortWorkload::sampled(sampled), 0, &input)
        }
    }
}

/// Cuts `part` into `pieces` files (an empty one first, in the middle and
/// last), hands them to the partition's reducer in an order drawn from `seed`,
/// and checks its result, the one-shot `reduce` and both library kernels over
/// the pieces in file order against a stable sort by key of their
/// concatenation.
fn arrives_in_any_order(part: &Partition, pieces: usize, seed: u64) -> Result<(), TestCaseError> {
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
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shape = PartitionShape {
        pieces: files.len(),
        expected_bytes: whole.len(),
    };
    // The oracle shares no code with the reducer: a stable sort by key.
    let mut expected: Vec<&[u8]> = whole.chunks_exact(RECORD_LEN).collect();
    expected.sort_by_key(|rec| &rec[..KEY_LEN]);
    let expected = expected.concat();
    prop_assert!(part.workload.reduce(part.index, &whole) == expected);
    let in_file_order: Vec<&[u8]> = files.iter().map(|f| &f[..]).collect();
    for kernel in SortKernel::ALL {
        prop_assert!(
            sort_pieces(&in_file_order, kernel) == expected,
            "{:?}",
            kernel
        );
    }
    let mut reducer = part.workload.reducer(part.index, shape);
    for &file in &order {
        // Sparse, ascending file ranks, as the engine's node sets are.
        reducer.absorb(file as u64 * 3 + 1, files[file].clone());
    }
    let sorted = reducer.finish();
    prop_assert!(
        sorted == expected,
        "{} pieces, order {:?}",
        files.len(),
        order
    );
    Ok(())
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
        let part = partition(kind, seed, IN_CACHE);
        arrives_in_any_order(&part, pieces, seed)
            .map_err(|e| TestCaseError::fail(format!("kind {kind}: {e:?}")))?;
    }

    #[test]
    fn ties_on_the_key_prefix_order_by_the_full_key(
        kind in 0usize..3,
        pieces in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pieces = [1, 8, 56][pieces];
        let part = tied_partition(kind, seed, IN_CACHE);
        arrives_in_any_order(&part, pieces, seed)
            .map_err(|e| TestCaseError::fail(format!("kind {kind}: {e:?}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn past_the_cache_limit_any_arrival_order_equals_the_sort_of_the_file_order_concatenation(
        kind in 0usize..5,
        pieces in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pieces = [1, 8, 56][pieces];
        let part = partition(kind, seed, PAST_THE_CACHE);
        arrives_in_any_order(&part, pieces, seed)
            .map_err(|e| TestCaseError::fail(format!("kind {kind}: {e:?}")))?;
    }

    #[test]
    fn past_the_cache_limit_ties_on_the_key_prefix_order_by_the_full_key(
        kind in 0usize..3,
        pieces in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pieces = [1, 8, 56][pieces];
        let part = tied_partition(kind, seed, PAST_THE_CACHE);
        arrives_in_any_order(&part, pieces, seed)
            .map_err(|e| TestCaseError::fail(format!("kind {kind}: {e:?}")))?;
    }
}
