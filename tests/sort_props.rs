//! Property suite for the Reduce sort kernels: on duplicate-heavy keys,
//! where only the `(key, input position)` order is deterministic, both
//! kernels equal a stable `sort_by_key` of the records — from one buffer,
//! from arbitrarily cut pieces, and under every thread count.

use coded_terasort::prelude::*;
use cts_terasort::record::{KEY_LEN, RECORD_LEN};
use cts_terasort::sort::{sort_pieces, sort_records};
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
