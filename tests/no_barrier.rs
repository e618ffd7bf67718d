//! A job's ranks meet only through their data. A rank posts under tags it
//! computes by itself and a mailbox queues a message whether or not its
//! receiver has started, so a job crosses no barrier: it traces no control
//! frame in any stage, on either fabric, for any layout or decode
//! discipline. What the Shuffle's close used to guarantee — every
//! sender has posted before a rank drops the quorum packets it did not wait
//! for — now comes from the ranks' join, and on the in-memory fabric a
//! resident slot's next job never takes the last one's late packet as its
//! own.

use bytes::Bytes;
use coded_terasort::net::EventKind;
use coded_terasort::prelude::*;

#[test]
fn a_job_records_no_internal_frame() {
    const K: usize = 6;
    let input = teragen::generate(3_000, 35);
    for tcp in [false, true] {
        let base = |r| {
            if tcp {
                EngineConfig::tcp(K, r)
            } else {
                EngineConfig::local(K, r)
            }
        };
        let legs = [
            ("uncoded", base(1)),
            ("coded", base(2)),
            ("quorum", base(2).with_decode(DecodeMode::Quorum)),
            ("pods", base(2).with_pods(3)),
        ];
        for (leg, engine) in legs {
            let outcome = run(&TeraSortWorkload::range(K), input.clone(), &engine).unwrap();
            cts_terasort::validate(&input, &outcome.outputs).unwrap();
            let trace = &outcome.trace;
            let internal: Vec<&str> = (trace.events.iter())
                .filter(|e| e.kind == EventKind::Internal)
                .map(|e| trace.stages[usize::from(e.stage)].as_str())
                .collect();
            assert!(
                internal.is_empty(),
                "{leg}, tcp = {tcp}: control frames in {internal:?}"
            );
            assert!(outcome.stats.shuffle_bytes() > 0, "{leg}, tcp = {tcp}");
        }
    }
}

/// Two quorum jobs at a time on a resident runtime, fifty rounds, every job
/// on an input of its own. Each group of K = 4, r = 2 releases on one of its
/// two packets, so every receiver leaves a late packet per group, under a
/// key the next job on its slot will wait on too. Left in the mailbox, it
/// would be decoded as the next job's own, and that output would differ
/// from its one-shot reference.
#[test]
fn back_to_back_quorum_jobs_on_one_slot_take_no_late_packet() {
    const K: usize = 4;
    const ROUNDS: u64 = 50;
    let engine = EngineConfig::local(K, 2).with_decode(DecodeMode::Quorum);
    let inputs: Vec<Bytes> = (0..2 * ROUNDS)
        .map(|i| teragen::generate(1_000, 3_500 + i))
        .collect();
    let workload = TeraSortWorkload::range(K);
    let references: Vec<Vec<Vec<u8>>> = (inputs.iter())
        .map(|input| run(&workload, input.clone(), &engine).unwrap().outputs)
        .collect();
    let runtime =
        JobRuntime::start(RuntimeConfig::new(engine.clone()).with_max_concurrent(2)).unwrap();
    for round in inputs.chunks(2).zip(references.chunks(2)).enumerate() {
        let (i, (pair, expected)) = round;
        let handles: Vec<_> = (pair.iter().cloned())
            .map(|input| {
                runtime
                    .submit(move |ctx| ctx.run(&TeraSortWorkload::range(K), input, &ctx.cfg))
                    .unwrap()
            })
            .collect();
        for (j, (handle, expected)) in handles.into_iter().zip(expected).enumerate() {
            let outcome = handle.wait().unwrap();
            assert!(
                &outcome.outputs == expected,
                "round {i}, job {j}: not its one-shot bytes"
            );
        }
    }
    runtime.shutdown();
}
