//! End-to-end runs over the real TCP fabric.

use coded_terasort::mapreduce::wordcount::WordCount;
use coded_terasort::prelude::*;

#[test]
fn coded_terasort_over_tcp_validates() {
    let input = teragen::generate(2_000, 31);
    let job = SortJob::new(EngineConfig::tcp(5, 2));
    let run = run_coded_terasort(input.clone(), &job).unwrap();
    run.validate().unwrap();
    let local = run_coded_terasort(input, &SortJob::local(5, 2)).unwrap();
    assert_eq!(run.outcome.outputs, local.outcome.outputs);
}

#[test]
fn terasort_over_tcp_validates() {
    let input = teragen::generate(2_000, 32);
    let job = SortJob::new(EngineConfig::tcp(4, 1));
    let run = run_terasort(input, &job).unwrap();
    run.validate().unwrap();
}

#[test]
fn wordcount_over_tcp_matches_local() {
    let input = bytes::Bytes::from(
        (0..500)
            .map(|i| format!("alpha beta w{} gamma\n", i % 37))
            .collect::<String>(),
    );
    let over_tcp = run(&WordCount, input.clone(), &EngineConfig::tcp(4, 2)).unwrap();
    let local = run(&WordCount, input, &EngineConfig::local(4, 2)).unwrap();
    assert_eq!(over_tcp.outputs, local.outputs);
}

#[test]
fn tcp_trace_matches_local_trace_bytes() {
    // The same algorithm over either fabric must shuffle identical bytes —
    // the trace is transport-independent.
    let input = teragen::generate(1_500, 33);
    let tcp = run_coded_terasort(input.clone(), &SortJob::new(EngineConfig::tcp(4, 2))).unwrap();
    let local = run_coded_terasort(input, &SortJob::local(4, 2)).unwrap();
    assert_eq!(
        tcp.outcome.trace.stage_bytes(cts_netsim::SHUFFLE_STAGE),
        local.outcome.trace.stage_bytes(cts_netsim::SHUFFLE_STAGE)
    );
    assert_eq!(
        tcp.outcome.stats.shuffle_bytes(),
        local.outcome.stats.shuffle_bytes()
    );
}
