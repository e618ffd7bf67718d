//! Compute-plane equivalence: the sort kernel and the intra-node thread
//! count are *performance* knobs, never *semantic* ones. Every combination
//! of engine × kernel × thread count must produce byte-identical sorted
//! output (the parallel plan is deterministic chunking + stable merge, and
//! all kernels are stable), matching the serial Comparison reference.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use coded_terasort::mapreduce::workload::{PartitionShape, Reducer};
use coded_terasort::net::fault::{FaultAction, FaultRule};
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

/// Which file's piece each partition's reducer was handed, in the order it was.
type AbsorbLog = Arc<(Mutex<Vec<Vec<u64>>>, Condvar)>;

/// TeraSort whose reducers log what they absorb before absorbing it.
struct Recording {
    inner: TeraSortWorkload,
    log: AbsorbLog,
}

struct Logged<'a> {
    inner: Box<dyn Reducer + 'a>,
    partition: usize,
    log: &'a AbsorbLog,
}

impl Workload for Recording {
    fn name(&self) -> &str {
        "recording terasort"
    }
    fn format(&self) -> InputFormat {
        self.inner.format()
    }
    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        self.inner.map_file(file, num_partitions, keep)
    }
    fn reduce(&self, partition: usize, data: &[u8]) -> Vec<u8> {
        self.inner.reduce(partition, data)
    }
    fn reducer(&self, partition: usize, shape: PartitionShape) -> Box<dyn Reducer + '_> {
        Box::new(Logged {
            inner: self.inner.reducer(partition, shape),
            partition,
            log: &self.log,
        })
    }
}

impl Reducer for Logged<'_> {
    fn absorb(&mut self, file_rank: u64, piece: Bytes) {
        self.log.0.lock().unwrap()[self.partition].push(file_rank);
        self.log.1.notify_all();
        self.inner.absorb(file_rank, piece);
    }
    fn finish(self: Box<Self>, pool: &WorkerPool) -> Vec<u8> {
        self.inner.finish(pool)
    }
}

/// Two runs of one job whose reducers are fed in different orders return the
/// same bytes. The order is forced, not hoped for: rank `slow`'s coded
/// packets are held back until every other rank has absorbed all it can
/// without them — its own 3 pieces and the one file `slow` does not map —
/// so the pieces that need `slow` come last, and with another `slow` those
/// are other pieces.
#[test]
fn a_delayed_sender_changes_the_absorb_order_and_not_a_byte() {
    let (k, r) = (4, 2);
    let input = teragen::generate(3_000, 77);
    let reference = outputs(&SortJob::local(k, r), &input, true);
    let held_back = |slow: usize| {
        let log: AbsorbLog = Arc::new((Mutex::new(vec![Vec::new(); k]), Condvar::new()));
        let watched = Arc::clone(&log);
        let rule: Arc<FaultRule> = Arc::new(move |_dst, tag: Tag, _payload: &Bytes, _idx| {
            if tag.purpose() == Tag::BCAST {
                let behind = |log: &mut Vec<Vec<u64>>| {
                    let mut others = log.iter().enumerate().filter(|(p, _)| *p != slow);
                    others.any(|(_, absorbed)| absorbed.len() < 4)
                };
                let (lock, absorbed) = &*watched;
                let waited = absorbed
                    .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(20), behind)
                    .unwrap();
                assert!(!waited.1.timed_out(), "the other ranks never got that far");
            }
            FaultAction::Deliver
        });
        let workload = Recording {
            inner: TeraSortWorkload::range(k),
            log,
        };
        let mut cfg = EngineConfig::local(k, r);
        cfg.cluster = cfg.cluster.with_fault(slow, rule);
        let outcome = run(&workload, input.clone(), &cfg).expect("coded run");
        let log = workload.log.0.lock().unwrap().clone();
        (outcome.outputs, log)
    };
    let (first, first_order) = held_back(0);
    let (second, second_order) = held_back(3);
    assert_eq!(first, reference);
    assert_eq!(second, reference);
    // Partition 1 takes the piece of file {2, 3} before those of {0, 2} and
    // {0, 3} when rank 0 is slow, and that of {0, 2} first when rank 3 is.
    assert_ne!(first_order[1], second_order[1]);
    for order in first_order.iter().chain(&second_order) {
        assert_eq!(order.len(), 6, "C(4, 2) files, one piece each");
    }
}
