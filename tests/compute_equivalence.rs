//! Compute-plane equivalence: the sort kernel and the intra-node thread
//! count are *performance* knobs, never *semantic* ones. Every combination
//! of engine × kernel × thread count must produce byte-identical sorted
//! output (the parallel plan is deterministic chunking + stable merge, and
//! all kernels are stable), matching the serial Comparison reference.

use coded_terasort::prelude::*;

fn outputs(job: &SortJob, input: &bytes::Bytes, coded: bool) -> Vec<Vec<u8>> {
    let run = if coded {
        run_coded_terasort(input.clone(), job).expect("coded run")
    } else {
        run_terasort(input.clone(), job).expect("uncoded run")
    };
    run.validate().expect("TeraValidate");
    run.outcome.outputs
}

#[test]
fn kernels_and_threads_are_byte_identical() {
    let input = teragen::generate(3_000, 2026);
    let reference = outputs(&SortJob::local(5, 2), &input, true);
    for kernel in SortKernel::ALL {
        for threads in [1usize, 4] {
            let coded = outputs(
                &SortJob::new(EngineConfig::local(5, 2).with_threads(threads)).with_kernel(kernel),
                &input,
                true,
            );
            assert_eq!(coded, reference, "coded {kernel} threads={threads}");
            let uncoded = outputs(
                &SortJob::new(EngineConfig::local(5, 1).with_threads(threads)).with_kernel(kernel),
                &input,
                false,
            );
            assert_eq!(uncoded, reference, "uncoded {kernel} threads={threads}");
        }
    }
}

#[test]
fn duplicate_keys_stay_identical_across_kernels_and_threads() {
    // Records with only 4 distinct keys and value-distinguishable bodies:
    // the case where only *stable* kernels agree. Build it from TeraGen
    // output by collapsing the key space.
    let mut data = teragen::generate(2_400, 7).to_vec();
    for rec in data.chunks_exact_mut(100) {
        let class = rec[10] % 4; // value byte → key class
        rec[..10].copy_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0, 0, class]);
    }
    let input = bytes::Bytes::from(data);
    let reference = outputs(&SortJob::local(4, 2), &input, true);
    for kernel in SortKernel::ALL {
        for threads in [1usize, 4] {
            let got = outputs(
                &SortJob::new(EngineConfig::local(4, 2).with_threads(threads)).with_kernel(kernel),
                &input,
                true,
            );
            assert_eq!(got, reference, "{kernel} threads={threads}");
        }
    }
}

#[test]
fn threads_zero_uses_machine_parallelism_and_matches() {
    let input = teragen::generate(1_500, 99);
    let reference = outputs(&SortJob::local(4, 2), &input, true);
    let auto = outputs(
        &SortJob::new(EngineConfig::local(4, 2).with_threads(0)).with_kernel(SortKernel::KeyIndex),
        &input,
        true,
    );
    assert_eq!(auto, reference);
}

#[test]
fn pods_threads_and_the_resident_runtime_are_byte_identical() {
    let (k, r, g) = (6, 2, 3);
    let input = teragen::generate(3_000, 63);
    let reference = outputs(&SortJob::local(k, 1), &input, false);
    let workload = move |kernel| TeraSortWorkload::range(k).with_kernel(kernel);
    for kernel in SortKernel::ALL {
        for threads in [1usize, 4] {
            let cfg = EngineConfig::local(k, r).with_pods(g).with_threads(threads);
            let pods = run(&workload(kernel), input.clone(), &cfg).expect("pods run");
            assert_eq!(pods.outputs, reference, "pods {kernel} threads={threads}");
        }
    }
    // The same layout as two jobs of a resident runtime running at once,
    // each on a leased slot: their `threads = 2` pools compete for the one
    // process-wide budget, and whatever each is granted, both outputs
    // equal the one-shot's.
    let template = EngineConfig::local(k, r).with_pods(g).with_threads(2);
    let runtime = JobRuntime::start(RuntimeConfig::new(template).with_max_concurrent(2)).unwrap();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let job_input = input.clone();
            runtime
                .submit(move |ctx| {
                    let w = workload(SortKernel::KeyIndex);
                    ctx.run(&w, job_input, &ctx.cfg)
                })
                .unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let resident = handle.wait().expect("pods job");
        assert_eq!(resident.outputs, reference, "resident job {i}");
        assert_eq!(resident.stats.num_groups, 2); // 2 pods × C(3,3)
    }
    runtime.shutdown();
}

#[test]
fn tcp_fabric_with_threads_matches() {
    let input = teragen::generate(900, 55);
    let reference = outputs(&SortJob::local(4, 2), &input, true);
    let mut job =
        SortJob::new(EngineConfig::tcp(4, 2).with_threads(2)).with_kernel(SortKernel::KeyIndex);
    assert_eq!(outputs(&job, &input, true), reference);
    // Behind a NIC slow enough (~0.1 s of egress per rank) that every rank's
    // pacer is writing to sockets while the rank threads map, post and
    // receive: a queued post must never wait on anything a receive waits on.
    let mut nic = coded_terasort::net::NicProfile::rate_limited(50e3).with_latency_s(1e-4);
    nic.burst_bytes = 256.0;
    job.engine = job.engine.with_nic(nic);
    assert_eq!(outputs(&job, &input, true), reference);
}
