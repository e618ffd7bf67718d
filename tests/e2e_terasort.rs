//! End-to-end TeraSort / CodedTeraSort correctness across (K, r).

use coded_terasort::prelude::*;
use cts_terasort::record::{checksum, RECORD_LEN};
use cts_terasort::sort::is_sorted;

/// Coded and uncoded runs must produce byte-identical, TeraValidate-clean
/// output for every (K, r) in a representative grid, including the
/// degenerate corners r = 1 (TeraSort-shaped groups) and r = K (no
/// shuffle at all).
#[test]
fn grid_of_k_r_matches_uncoded() {
    let input = teragen::generate(3_000, 1001);
    for k in [2usize, 3, 4, 5, 6] {
        let baseline = run_terasort(input.clone(), &SortJob::local(k, 1)).unwrap();
        baseline.validate().unwrap();
        for r in 1..=k {
            let coded = run_coded_terasort(input.clone(), &SortJob::local(k, r)).unwrap();
            coded.validate().unwrap();
            assert_eq!(
                coded.outcome.outputs, baseline.outcome.outputs,
                "k={k} r={r}"
            );
        }
    }
}

#[test]
fn output_concatenation_is_globally_sorted() {
    let input = teragen::generate(5_000, 1002);
    let run = run_coded_terasort(input.clone(), &SortJob::local(6, 3)).unwrap();
    let all: Vec<u8> = run.outcome.outputs.iter().flatten().copied().collect();
    assert!(is_sorted(&all));
    assert_eq!(all.len(), input.len());
    assert_eq!(checksum(&all), checksum(&input));
}

#[test]
fn shuffle_byte_measurements_track_theory() {
    let records = 20_000;
    let input = teragen::generate(records, 1003);
    let d = (records * RECORD_LEN) as u64;
    let k = 8;
    let uncoded = run_terasort(input.clone(), &SortJob::local(k, 1)).unwrap();
    let measured = uncoded.outcome.stats.comm_load(d);
    let expected = theory::uncoded_comm_load(1, k);
    assert!(
        (measured - expected).abs() < 0.02,
        "uncoded load {measured} vs {expected}"
    );
    for r in [2usize, 4] {
        let coded = run_coded_terasort(input.clone(), &SortJob::local(k, r)).unwrap();
        let measured = coded.outcome.stats.comm_load(d);
        let expected = theory::coded_comm_load(r, k);
        // Wire headers and zero padding put the measurement a few percent
        // above the closed form at this input size.
        assert!(
            measured >= expected * 0.98 && measured < expected * 1.30,
            "coded load {measured} vs theory {expected} at r={r}"
        );
    }
}

#[test]
fn empty_input_sorts_to_empty() {
    let input = bytes::Bytes::new();
    let run = run_coded_terasort(input, &SortJob::local(4, 2)).unwrap();
    assert!(run.outcome.outputs.iter().all(|o| o.is_empty()));
    run.validate().unwrap();
}

#[test]
fn tiny_input_fewer_records_than_files() {
    // 5 records over C(5,2) = 10 files: most files empty.
    let input = teragen::generate(5, 1004);
    let run = run_coded_terasort(input.clone(), &SortJob::local(5, 2)).unwrap();
    run.validate().unwrap();
    let total: usize = run.outcome.outputs.iter().map(|o| o.len()).sum();
    assert_eq!(total, input.len());
}

#[test]
fn duplicate_keys_are_preserved() {
    // All-identical keys: sorting must keep every record (multiset
    // semantics), and validation's checksum catches any loss.
    let mut buf = Vec::new();
    for i in 0..200usize {
        let mut rec = vec![7u8; RECORD_LEN];
        rec[10] = (i % 251) as u8; // distinct values, equal keys
        buf.extend_from_slice(&rec);
    }
    let input = bytes::Bytes::from(buf);
    let run = run_coded_terasort(input.clone(), &SortJob::local(4, 2)).unwrap();
    run.validate().unwrap();
    let total: usize = run.outcome.outputs.iter().map(|o| o.len()).sum();
    assert_eq!(total, input.len());
}

#[test]
fn key_index_and_comparison_kernels_agree_distributed() {
    let input = teragen::generate(4_000, 1005);
    let a = run_coded_terasort(
        input.clone(),
        &SortJob::local(4, 2).with_kernel(SortKernel::Comparison),
    )
    .unwrap();
    let b = run_coded_terasort(
        input,
        &SortJob::local(4, 2).with_kernel(SortKernel::KeyIndex),
    )
    .unwrap();
    assert_eq!(a.outcome.outputs, b.outcome.outputs);
}

#[test]
fn paper_scale_k16_r3_smoke() {
    // The Table II configuration at small input: C(16,3) = 560 files,
    // C(16,4) = 1820 groups.
    let input = teragen::generate(12_000, 1006);
    let run = run_coded_terasort(input.clone(), &SortJob::local(16, 3)).unwrap();
    run.validate().unwrap();
    assert_eq!(run.outcome.stats.num_groups, 1820);
    for n in &run.outcome.stats.per_node {
        assert_eq!(n.files_mapped, 105); // C(15,2)
    }
}
