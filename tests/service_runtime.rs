//! The job-oriented runtime end to end: many simultaneous tenants on one
//! resident fabric must give exactly the bytes a serial one-shot run
//! gives, admission must refuse (not wedge) past the queue bound, and a
//! NIC-throttled tenant must pay its own backpressure without dragging an
//! unshaped tenant's tail latency along.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::mapreduce::grep::Grep;
use coded_terasort::mapreduce::wordcount::WordCount;
use coded_terasort::mapreduce::EngineError;
use coded_terasort::prelude::*;
use coded_terasort::terasort::service::ResultDigest;

/// Submits a mixed batch of sort + wordcount + grep jobs concurrently and
/// checks every output against its serial one-shot reference.
fn mixed_batch_matches_one_shot(template: EngineConfig) {
    let k = template.k;
    let runtime = JobRuntime::start(
        RuntimeConfig::new(template)
            .with_max_concurrent(3)
            .with_queue_capacity(16),
    )
    .unwrap();

    let sort_inputs: Vec<Bytes> = (0..3)
        .map(|i| teragen::generate(900 + i * 100, i as u64))
        .collect();
    let text = Bytes::from(
        (0..400)
            .map(|i| format!("line {} of the service test corpus\n", i % 23))
            .collect::<String>()
            .into_bytes(),
    );

    // One-shot references, run serially outside the runtime.
    let sort_refs: Vec<Vec<Vec<u8>>> = sort_inputs
        .iter()
        .map(|input| {
            run_terasort(input.clone(), &SortJob::local(k, 1))
                .unwrap()
                .outcome
                .outputs
        })
        .collect();
    let wc_ref = run_sequential(&WordCount, &text, k);
    let grep_ref = run_sequential(&Grep::new(&b"corpus"[..]), &text, k);

    // The same jobs, all in flight at once on the shared runtime: sorts
    // alternate coded/uncoded, plus a coded wordcount and an uncoded grep.
    let mut handles = Vec::new();
    for (i, input) in sort_inputs.iter().cloned().enumerate() {
        handles.push(
            runtime
                .submit(move |ctx| {
                    let workload = TeraSortWorkload::range(ctx.cfg.k);
                    let r = if i % 2 == 0 { ctx.cfg.r } else { 1 };
                    ctx.run(
                        &workload,
                        input,
                        &EngineConfig {
                            r,
                            ..ctx.cfg.clone()
                        },
                    )
                })
                .unwrap(),
        );
    }
    let text_wc = text.clone();
    handles.push(
        runtime
            .submit(move |ctx| ctx.run(&WordCount, text_wc, &ctx.cfg))
            .unwrap(),
    );
    let text_grep = text.clone();
    handles.push(
        runtime
            .submit(move |ctx| {
                let uncoded = EngineConfig {
                    r: 1,
                    ..ctx.cfg.clone()
                };
                ctx.run(&Grep::new(&b"corpus"[..]), text_grep, &uncoded)
            })
            .unwrap(),
    );

    let mut outputs: Vec<Vec<Vec<u8>>> = handles
        .into_iter()
        .map(|h| h.wait().unwrap().outputs)
        .collect();
    let grep_out = outputs.pop().unwrap();
    let wc_out = outputs.pop().unwrap();
    assert_eq!(outputs, sort_refs, "sort jobs diverged from one-shot runs");
    assert_eq!(wc_out, wc_ref, "wordcount diverged from one-shot run");
    assert_eq!(grep_out, grep_ref, "grep diverged from one-shot run");
    runtime.shutdown();
}

#[test]
fn concurrent_jobs_match_one_shot_over_local_fabric() {
    mixed_batch_matches_one_shot(EngineConfig::local(4, 2));
}

#[test]
fn concurrent_jobs_match_one_shot_over_tcp_fabric() {
    mixed_batch_matches_one_shot(EngineConfig::tcp(3, 2));
}

#[test]
fn admission_refuses_with_a_typed_error_when_saturated() {
    let runtime = JobRuntime::start(
        RuntimeConfig::new(EngineConfig::local(2, 1))
            .with_max_concurrent(1)
            .with_queue_capacity(1),
    )
    .unwrap();

    // Wedge the single dispatcher on a gate so submissions pile up.
    let gate = std::sync::Arc::new(AtomicBool::new(false));
    let gate_job = std::sync::Arc::clone(&gate);
    let input = teragen::generate(200, 1);
    let blocker = runtime
        .submit(move |ctx| {
            while !gate_job.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            ctx.run(&TeraSortWorkload::range(ctx.cfg.k), input, &ctx.cfg)
        })
        .unwrap();

    // Wait until the dispatcher has picked the blocker up, then fill the
    // one queue slot; the next submit must refuse, not block or panic.
    while blocker.status() == JobStatus::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued_input = teragen::generate(200, 2);
    let queued = runtime
        .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), queued_input, &ctx.cfg))
        .unwrap();
    let refused_input = teragen::generate(200, 3);
    let refused = runtime
        .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), refused_input, &ctx.cfg));
    match refused {
        Err(EngineError::Busy { .. }) => {}
        other => panic!("expected Busy, got {other:?}"),
    }

    gate.store(true, Ordering::SeqCst);
    blocker.wait().unwrap();
    queued.wait().unwrap();
    runtime.shutdown();
}

/// Runs `jobs` small unshaped sort jobs back to back on `runtime` and
/// returns the per-job latencies in seconds.
fn drive_unshaped(runtime: &JobRuntime, jobs: usize, input: &Bytes) -> Vec<f64> {
    (0..jobs)
        .map(|_| {
            let input = input.clone();
            let started = Instant::now();
            runtime
                .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), input, &ctx.cfg))
                .unwrap()
                .wait()
                .unwrap();
            started.elapsed().as_secs_f64()
        })
        .collect()
}

fn p99(latencies: &[f64]) -> f64 {
    let mut l = latencies.to_vec();
    l.sort_by(|a, b| a.partial_cmp(b).unwrap());
    l[((l.len() - 1) as f64 * 0.99).round() as usize]
}

/// The acceptance criterion: a tenant whose emulated NIC token bucket is
/// saturated backpressures *itself* — per-job Nic instances mean its
/// pacing sleeps never touch the other tenant's flows — so the unshaped
/// tenant's p99 stays within 2× of its uncontended p99.
#[test]
fn throttled_tenant_does_not_inflate_unshaped_p99() {
    let config = || {
        RuntimeConfig::new(EngineConfig::local(3, 1))
            .with_max_concurrent(2)
            .with_queue_capacity(8)
    };
    let fast_input = teragen::generate(300, 7);
    let jobs = 20;

    // Baseline: the unshaped tenant alone on a runtime.
    let solo_runtime = JobRuntime::start(config()).unwrap();
    let solo_p99 = p99(&drive_unshaped(&solo_runtime, jobs, &fast_input));
    solo_runtime.shutdown();

    // Contended: tenant T keeps one throttled job in flight at all times
    // (50 KB/s egress, 4 KiB burst — the token bucket is saturated for
    // the whole shuffle) while tenant B runs the same unshaped stream.
    let runtime = JobRuntime::start(config()).unwrap();
    let slow_nic = NicProfile {
        rate_bytes_per_sec: Some(50_000.0),
        burst_bytes: 4096.0,
        ..NicProfile::unlimited()
    };
    let throttled_input = teragen::generate(1_500, 8);
    let stop = AtomicBool::new(false);
    let throttled_done = AtomicUsize::new(0);

    let (contended, throttled_latency) = std::thread::scope(|s| {
        let throttler = s.spawn(|| {
            let mut total = Duration::ZERO;
            while !stop.load(Ordering::SeqCst) {
                let input = throttled_input.clone();
                let nic = slow_nic;
                let started = Instant::now();
                runtime
                    .submit(move |ctx| {
                        let mut cfg = ctx.cfg.clone();
                        cfg.cluster.nic = Some(nic);
                        ctx.run(&TeraSortWorkload::range(cfg.k), input, &cfg)
                    })
                    .unwrap()
                    .wait()
                    .unwrap();
                total += started.elapsed();
                throttled_done.fetch_add(1, Ordering::SeqCst);
            }
            total
        });
        let contended = drive_unshaped(&runtime, jobs, &fast_input);
        stop.store(true, Ordering::SeqCst);
        let total = throttler.join().unwrap();
        (contended, total)
    });
    let finished = throttled_done.load(Ordering::SeqCst);
    runtime.shutdown();

    // The throttled tenant really was backpressured: its jobs each took
    // far longer than the unshaped tenant's whole stream tail.
    assert!(finished >= 1, "throttler never completed a job");
    let throttled_avg = throttled_latency.as_secs_f64() / finished as f64;
    assert!(
        throttled_avg > 4.0 * solo_p99,
        "throttled jobs ({throttled_avg:.3}s avg) should dwarf unshaped ones ({solo_p99:.3}s p99)"
    );
    // …and the unshaped tenant barely noticed: p99 within 2× of solo
    // (plus a 50 ms absolute floor so a microsecond-scale baseline does
    // not make scheduler noise a test failure).
    let contended_p99 = p99(&contended);
    assert!(
        contended_p99 <= (2.0 * solo_p99).max(solo_p99 + 0.050),
        "throttled tenant inflated unshaped p99: solo {solo_p99:.4}s vs contended {contended_p99:.4}s"
    );
}

/// A quorum job returns once `r − 1` of each group's `r` packets decoded;
/// the last one must not stay behind in the mailbox, where the next
/// quorum job on the same tag slot would receive it as its own (different
/// input ⇒ malformed packet, a stall, or a silently wrong equation).
#[test]
fn consecutive_quorum_jobs_on_one_slot_do_not_see_each_others_packets() {
    let template = EngineConfig::local(5, 3)
        .with_field(FieldKind::Gf256)
        .with_decode(DecodeMode::Quorum)
        .with_idle_timeout(Duration::from_secs(5));
    // Exclusive mode reuses slot 0; in multi mode a dispatcher's slot is its
    // own, so four jobs on two dispatchers must reuse one (pigeonhole).
    for max_concurrent in [1, 2] {
        let runtime = JobRuntime::start(
            RuntimeConfig::new(template.clone()).with_max_concurrent(max_concurrent),
        )
        .unwrap();
        for seed in 0..4u64 {
            let input = teragen::generate(700 + 150 * seed as usize, seed);
            let reference = run_sequential(&TeraSortWorkload::range(5), &input, 5);
            let outcome = runtime
                .submit(move |ctx| ctx.run(&TeraSortWorkload::range(5), input, &ctx.cfg))
                .unwrap()
                .wait()
                .unwrap_or_else(|e| panic!("job {seed}, {max_concurrent} concurrent: {e}"));
            assert_eq!(
                outcome.outputs, reference,
                "job {seed}, {max_concurrent} concurrent"
            );
        }
        runtime.shutdown();
    }
}

/// Two tenants of one daemon, submitting different inputs of different sizes
/// turn and turn about, each get the digest (and the bytes) of their own
/// sort: the record buffers a job leases were the previous tenant's a moment
/// ago, and are handed out cleared. (The crates have no `set_len` and no
/// `MaybeUninit`; this is the guard that stays true if one ever does.)
#[test]
fn alternating_tenants_get_their_own_results_from_recycled_buffers() {
    let k = 4;
    let svc = SortService::bind(
        "127.0.0.1:0",
        RuntimeConfig::new(EngineConfig::local(k, 2)).with_max_concurrent(2),
    )
    .unwrap();
    let addr = svc.local_addr().unwrap();
    let server = std::thread::spawn(move || svc.run().unwrap());

    // Same shapes on purpose: tenant b's pieces fit the buffers tenant a
    // just returned, and the other way round.
    let tenants: Vec<(Bytes, ResultDigest)> = [(30_000usize, 41u64), (29_000, 42)]
        .into_iter()
        .map(|(records, seed)| {
            let input = teragen::generate(records, seed);
            let reference = run_sequential(&TeraSortWorkload::range(k), &input, k);
            (input, ResultDigest::of(&reference))
        })
        .collect();
    let mut clients: Vec<ServiceClient> = (0..2)
        .map(|_| ServiceClient::connect(addr).unwrap())
        .collect();
    let hits = cts_core::pool::global().stats().hits;
    for round in 0..6 {
        for (t, (input, digest)) in tenants.iter().enumerate() {
            let r = 1 + (round + t) % 2;
            let id = clients[t].submit(&JobKind::Sort, r, input).unwrap();
            assert_eq!(
                clients[t].digest(id).unwrap(),
                *digest,
                "round {round}, tenant {t}, r = {r}"
            );
        }
    }
    assert!(cts_core::pool::global().stats().hits > hits);
    clients[0].shutdown().unwrap();
    server.join().unwrap();
}
