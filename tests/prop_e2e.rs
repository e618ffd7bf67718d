//! Property-based end-to-end tests: for arbitrary inputs and (K, r), the
//! distributed coded sort equals the sequential sort.

use bytes::Bytes;
use coded_terasort::prelude::*;
use cts_terasort::record::RECORD_LEN;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CodedTeraSort == std sort of the whole input, for random record
    /// counts and (K, r).
    #[test]
    fn coded_sort_equals_std_sort(
        records in 1usize..400,
        k in 2usize..=6,
        r_sel in 0usize..6,
        seed in any::<u64>(),
    ) {
        let r = 1 + r_sel % k;
        let input = teragen::generate(records, seed);
        let run = run_coded_terasort(input.clone(), &SortJob::local(k, r)).unwrap();
        run.validate().unwrap();

        // Reference: plain std sort over whole records.
        let mut reference: Vec<&[u8]> = input.chunks_exact(RECORD_LEN).collect();
        reference.sort_unstable_by_key(|rec| &rec[..10]);
        let reference: Vec<u8> = reference.into_iter().flatten().copied().collect();
        let ours: Vec<u8> = run.outcome.outputs.iter().flatten().copied().collect();
        prop_assert_eq!(ours, reference);
    }

    /// Both engines agree on WordCount for arbitrary ASCII text.
    #[test]
    fn wordcount_engines_agree(
        text in proptest::collection::vec(" abcde\nfg", 0..200),
        k in 2usize..=5,
    ) {
        let input = Bytes::from(text.concat());
        let workload = coded_terasort::mapreduce::wordcount::WordCount;
        let seq = run_sequential(&workload, &input, k);
        let coded = run(&workload, input, &EngineConfig::local(k, 2.min(k))).unwrap();
        prop_assert_eq!(seq, coded.outputs);
    }

    /// Shuffle bytes never exceed the uncoded engine's, at any (K, r),
    /// once the payloads dominate headers.
    #[test]
    fn coded_never_shuffles_more(
        k in 3usize..=6,
        r_sel in 0usize..4,
        seed in any::<u64>(),
    ) {
        let r = 2 + r_sel % (k - 1);
        let input = teragen::generate(3_000, seed);
        let unc = run_terasort(input.clone(), &SortJob::local(k, 1)).unwrap();
        let cod = run_coded_terasort(input, &SortJob::local(k, r)).unwrap();
        prop_assert!(
            cod.outcome.stats.shuffle_bytes() < unc.outcome.stats.shuffle_bytes(),
            "k={} r={}: {} !< {}",
            k, r,
            cod.outcome.stats.shuffle_bytes(),
            unc.outcome.stats.shuffle_bytes()
        );
    }

    /// The pod-partitioned engine (scalable-coding extension) sorts
    /// correctly for arbitrary valid (pods, g, r) decompositions.
    #[test]
    fn pod_engine_sorts_correctly(
        pods in 1usize..=3,
        g in 2usize..=4,
        r_sel in 0usize..3,
        records in 1usize..300,
        seed in any::<u64>(),
    ) {
        let k = pods * g;
        let r = 1 + r_sel % (g - 1).max(1);
        prop_assume!(r < g);
        let input = teragen::generate(records, seed);
        let workload = cts_terasort::workload::TeraSortWorkload::range(k);
        let out = run(&workload, input.clone(), &EngineConfig::local(k, r).with_pods(g)).unwrap();
        cts_terasort::validate(&input, &out.outputs).unwrap();

        let mut reference: Vec<&[u8]> = input.chunks_exact(RECORD_LEN).collect();
        reference.sort_unstable_by_key(|rec| &rec[..10]);
        let reference: Vec<u8> = reference.into_iter().flatten().copied().collect();
        let ours: Vec<u8> = out.outputs.iter().flatten().copied().collect();
        prop_assert_eq!(ours, reference);
    }
}
