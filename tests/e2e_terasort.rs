//! End-to-end TeraSort / CodedTeraSort correctness across (K, r).

use coded_terasort::prelude::*;
use cts_terasort::record::{checksum, RECORD_LEN};
use cts_terasort::sort::{is_sorted, sort_records, SortKernel};

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
    // A job sorts its partitions with the comparison kernel; the key-index
    // one is library code, sorting the whole input in one call.
    let input = teragen::generate(4_000, 1005);
    let run = run_coded_terasort(input.clone(), &SortJob::local(4, 2)).unwrap();
    assert_eq!(
        run.outcome.outputs.concat(),
        sort_records(&input, SortKernel::KeyIndex)
    );
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

/// The record path's buffers outlive the job (ARCHITECTURE "Pool ownership
/// rules"): the next job — whatever its size, code, fabric or fate — leases
/// what this one returned. Twelve different jobs run back to back in one
/// process: one aborted mid-shuffle and one that loses a rank mid-Map fail
/// with their typed errors, and every other must sort its own input: a
/// recycled buffer is handed out cleared, and a job that dies holding leases
/// costs the pool reuse, never the next job its bytes.
#[test]
fn back_to_back_jobs_of_every_kind_keep_their_bytes_apart() {
    use std::sync::atomic::{AtomicBool, Ordering};

    use coded_terasort::coding::CodedError;
    use coded_terasort::mapreduce::EngineError;
    use coded_terasort::net::fault::{CrashPoint, CrashSpec, FaultAction, FaultRule};

    #[derive(Clone, Copy, PartialEq)]
    enum Fate {
        Finishes,
        /// A coded packet arrives truncated: the job fails with that error.
        AbortedMidShuffle,
        /// Rank 3 dies after its first Map step: the job fails with the
        /// crash's identity.
        LosesARankMidMap,
    }
    use Fate::*;
    const K: usize = 6;
    // (records, r, MDS quorum plane, tcp, fate)
    let jobs = [
        (2_000, 1, false, false, Finishes),
        (120_000, 3, false, false, Finishes),
        (30_000, 2, true, false, Finishes),
        (60_000, 3, false, true, Finishes),
        (8_000, 2, false, false, AbortedMidShuffle),
        (8_000, 2, false, false, Finishes),
        (45_000, 3, true, false, LosesARankMidMap),
        (120_000, 1, false, false, Finishes),
        (20_000, 2, true, true, Finishes),
        (90_000, 3, false, false, Finishes),
        (5_000, 3, true, false, Finishes),
        (120_000, 2, false, false, Finishes),
    ];
    let before = cts_core::pool::global().stats();
    for (i, (records, r, mds, tcp, fate)) in jobs.into_iter().enumerate() {
        let what = format!("job {i}: {records} records, r = {r}, mds {mds}, tcp {tcp}");
        let input = teragen::generate(records, 7_000 + i as u64);
        let mut job = SortJob::local(K, r);
        if tcp {
            job.engine = EngineConfig::tcp(K, r);
        }
        if mds {
            job.engine = job.engine.with_decode(DecodeMode::Quorum);
        }
        match fate {
            Finishes => {}
            AbortedMidShuffle => {
                let fired = AtomicBool::new(false);
                let rule: std::sync::Arc<FaultRule> =
                    std::sync::Arc::new(move |dst, tag: Tag, payload: &bytes::Bytes, _| {
                        let hit = tag.purpose() == Tag::BCAST && dst == 2;
                        if hit && !fired.swap(true, Ordering::SeqCst) {
                            FaultAction::Corrupt(payload.slice(..payload.len() / 2))
                        } else {
                            FaultAction::Deliver
                        }
                    });
                job.engine.cluster = job.engine.cluster.with_fault(0, rule);
            }
            LosesARankMidMap => {
                job.engine = job.engine.with_crash(CrashSpec {
                    rank: 3,
                    point: CrashPoint::MidMap,
                });
            }
        }
        let run = if r == 1 {
            run_terasort(input.clone(), &job)
        } else {
            run_coded_terasort(input.clone(), &job)
        };
        if fate == AbortedMidShuffle {
            let err = run.expect_err(&what);
            let typed = matches!(err, EngineError::Coded(CodedError::MalformedPacket { .. }));
            assert!(typed, "{what}: {err}");
            continue;
        }
        if fate == LosesARankMidMap {
            let err = run.expect_err(&what);
            let died = EngineError::RankDied {
                rank: 3,
                point: CrashPoint::MidMap,
            };
            assert_eq!(err, died, "{what}");
            continue;
        }
        let reference = run_sequential(&TeraSortWorkload::range(K), &input, K);
        assert!(run.expect(&what).outcome.outputs == reference, "{what}");
    }
    // They did share: later jobs were served buffers earlier ones returned.
    let after = cts_core::pool::global().stats();
    assert!(after.hits > before.hits, "{before:?} -> {after:?}");
}
