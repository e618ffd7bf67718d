//! A job's ranks meet only through their data. A rank posts under tags it
//! computes by itself and a mailbox queues a message whether or not its
//! receiver has started, so a job crosses no barrier: it traces no control
//! frame in any stage, on either fabric, for any layout or decode
//! discipline. The quorum packets a rank did not wait for need no sync
//! point either: every message names its job, and whatever of a job is
//! still queued or in flight when it ends is dropped, so no later job on a
//! resident fabric takes it as its own — on either fabric.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::net::fault::straggler_delay_rule;
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

/// K = 4, r = 2 quorum on either fabric.
fn quorum_engine(tcp: bool) -> EngineConfig {
    let base = if tcp {
        EngineConfig::tcp(4, 2)
    } else {
        EngineConfig::local(4, 2)
    };
    base.with_decode(DecodeMode::Quorum)
}

/// Two quorum jobs at a time on a resident runtime, fifty rounds, every job
/// on an input of its own, on both fabrics. Each group of K = 4, r = 2
/// releases on one of its two packets, so every receiver leaves a late
/// packet per group, under a key the next job waits on too. Taken by that
/// job, it would be decoded as the job's own, and its output would differ
/// from its one-shot reference.
#[test]
fn back_to_back_quorum_jobs_take_no_late_packet() {
    const ROUNDS: u64 = 50;
    let workload = TeraSortWorkload::range(4);
    for tcp in [false, true] {
        let engine = quorum_engine(tcp);
        let inputs: Vec<Bytes> = (0..2 * ROUNDS)
            .map(|i| teragen::generate(1_000, 3_500 + i))
            .collect();
        let references: Vec<Vec<Vec<u8>>> = (inputs.iter())
            .map(|input| run_sequential(&workload, input, 4))
            .collect();
        let runtime =
            JobRuntime::start(RuntimeConfig::new(engine.clone()).with_max_concurrent(2)).unwrap();
        for round in inputs.chunks(2).zip(references.chunks(2)).enumerate() {
            let (i, (pair, expected)) = round;
            let handles: Vec<_> = (pair.iter().cloned())
                .map(|input| {
                    runtime
                        .submit(move |ctx| ctx.run(&TeraSortWorkload::range(4), input, &ctx.cfg))
                        .unwrap()
                })
                .collect();
            for (j, (handle, expected)) in handles.into_iter().zip(expected).enumerate() {
                let outcome = handle.wait().unwrap();
                assert!(
                    &outcome.outputs == expected,
                    "tcp = {tcp}, round {i}, job {j}: not its one-shot bytes"
                );
            }
        }
        runtime.shutdown();
    }
}

/// How long rank 0's coded packets are held: far longer than a small job
/// takes, so each of them lands after its job has ended.
const HOLD: Duration = Duration::from_millis(250);

/// Rank 0's coded packets are held past their job's end by
/// `FaultAction::Delay` ([`straggler_delay_rule`]), and each next job on the
/// runtime starts only once the last job's have landed: they sit on the
/// receivers under exactly the keys the next job waits on first (rank 0 is
/// the lowest sender of every group it is in). The quorum never needs
/// them; a job that took them would fail to decode or reduce another job's
/// bytes. Every job must equal its sequential reference — on both fabrics,
/// with one dispatcher and with two (the second one held by a job of its
/// own, so the others follow each other on the first).
#[test]
fn a_packet_held_past_its_jobs_end_reaches_no_later_job() {
    let workload = TeraSortWorkload::range(4);
    for tcp in [false, true] {
        for max_concurrent in [1, 2] {
            let leg = format!("tcp = {tcp}, {max_concurrent} concurrent");
            let mut engine = quorum_engine(tcp);
            engine.cluster = engine.cluster.with_fault(0, straggler_delay_rule(HOLD));
            let runtime =
                JobRuntime::start(RuntimeConfig::new(engine).with_max_concurrent(max_concurrent))
                    .unwrap();
            let job = |seed: u64, start_at: Instant| {
                let input = teragen::generate(1_000, seed);
                let reference = run_sequential(&workload, &input, 4);
                let handle = runtime
                    .submit(move |ctx| {
                        std::thread::sleep(start_at.saturating_duration_since(Instant::now()));
                        ctx.run(&TeraSortWorkload::range(4), input, &ctx.cfg)
                    })
                    .unwrap();
                (handle, reference)
            };
            let (release, gate) = mpsc::channel::<()>();
            let blocker = (max_concurrent == 2).then(|| {
                let input = teragen::generate(1_000, 4_000);
                let reference = run_sequential(&workload, &input, 4);
                let handle = runtime
                    .submit(move |ctx| {
                        let _ = gate.recv();
                        ctx.run(&TeraSortWorkload::range(4), input, &ctx.cfg)
                    })
                    .unwrap();
                while handle.status() != JobStatus::Running {
                    std::thread::yield_now();
                }
                (handle, reference)
            });
            let mut start_at = Instant::now();
            for seed in 4_001..=4_003 {
                let (handle, reference) = job(seed, start_at);
                let outcome = handle
                    .wait()
                    .unwrap_or_else(|e| panic!("{leg}, job {seed}: {e}"));
                assert!(
                    outcome.outputs == reference,
                    "{leg}, job {seed}: not its own bytes"
                );
                // Every packet of it was posted by now: the next job starts
                // once they have all landed.
                start_at = Instant::now() + HOLD + Duration::from_millis(150);
            }
            drop(release);
            if let Some((handle, reference)) = blocker {
                assert!(
                    handle.wait().unwrap().outputs == reference,
                    "{leg}: blocker"
                );
            }
            runtime.shutdown();
        }
    }
}
