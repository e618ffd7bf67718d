//! What a resident runtime's jobs cost the process in threads: a job's
//! ranks run on parked `cts-exec` threads that outlive it, so the two-
//! hundredth job finds the process with the threads the second one left,
//! and parked threads sleep without a deadline.
//!
//! One test, alone in its process, so every thread counted here is the
//! runtime's or the harness's. It reads `/proc/self` and skips where there
//! is none.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::prelude::*;

const K: usize = 4;
const SUBMITTERS: usize = 2;
const JOBS: usize = 200;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// `voluntary_ctxt_switches` of every live `cts-exec` thread, by thread id.
fn exec_threads() -> HashMap<String, u64> {
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if comm.trim_end() != "cts-exec" {
            continue;
        }
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("status has voluntary_ctxt_switches");
        threads.insert(task.file_name().to_string_lossy().into_owned(), switches);
    }
    threads
}

/// Whether every live `cts-exec` thread is asleep: state `S` in its `stat`.
fn exec_threads_asleep() -> bool {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .all(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
            // The state is the first field after the command's closing paren.
            let state = stat
                .rsplit_once(") ")
                .map(|(_, rest)| rest.starts_with('S'));
            comm.trim_end() != "cts-exec" || state.unwrap_or(true)
        })
}

/// Submits one sort of `input` and checks its output against `expected`;
/// with `meet`, the job's ranks first wait for another job's at it.
fn sort(runtime: &JobRuntime, input: &Bytes, expected: &[Vec<u8>], meet: Option<Arc<Barrier>>) {
    let input = input.clone();
    let outcome = runtime
        .submit(move |ctx| {
            if let Some(meet) = meet {
                let ranks = vec![(); ctx.cfg.k];
                ctx.fabric
                    .run_job(ctx.binding, None, ranks, |_, ()| {
                        meet.wait();
                    })
                    .expect("the rendezvous job runs");
            }
            ctx.run(&TeraSortWorkload::range(ctx.cfg.k), input, &ctx.cfg)
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.outputs, expected);
}

#[test]
fn jobs_reuse_parked_threads_and_idle_ones_sleep() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipping: no /proc/self/task to count threads in");
        return;
    }
    let input = teragen::generate(2_000, 8);
    let expected = run_terasort(input.clone(), &SortJob::local(K, 2))
        .unwrap()
        .outcome
        .outputs;
    let runtime = JobRuntime::start(
        RuntimeConfig::new(EngineConfig::local(K, 2)).with_max_concurrent(SUBMITTERS),
    )
    .unwrap();

    // Jobs 1 and 2: all eight ranks meet, so both jobs hold their ranks'
    // threads at once — as many as this runtime can ever have in flight.
    // The submitters live until both counts are taken, each count while
    // they wait at `phase`.
    let meet = Arc::new(Barrier::new(SUBMITTERS * K));
    let phase = Barrier::new(SUBMITTERS + 1);
    let counts = std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            let meet = Arc::clone(&meet);
            let (runtime, input, expected, phase) = (&runtime, &input, &expected, &phase);
            s.spawn(move || {
                sort(runtime, input, expected, Some(meet));
                phase.wait();
                phase.wait();
                for _ in 1..JOBS / SUBMITTERS {
                    sort(runtime, input, expected, None);
                }
                phase.wait();
                phase.wait();
            });
        }
        phase.wait();
        let after_two = (threads(), exec_threads().len());
        phase.wait();
        phase.wait();
        let after_all = threads();
        phase.wait();
        (after_two, after_all)
    });
    let ((after_two, parked), after_all) = counts;
    // Rank 0 runs on its job's dispatcher, the other K − 1 on parked threads.
    assert_eq!(parked, SUBMITTERS * (K - 1));
    assert_eq!(
        after_all, after_two,
        "threads after job {JOBS}, and after job 2"
    );

    // A thread reports its job done before it parks, so one that has not
    // parked yet would count its own first `park()` as a wake-up: wait, a
    // bounded time, for all of them to be asleep.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !exec_threads_asleep() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = exec_threads();
    std::thread::sleep(Duration::from_millis(500));
    let after = exec_threads();
    let woke: u64 = after
        .iter()
        .map(|(tid, n)| n - before.get(tid).copied().unwrap_or(0))
        .sum();
    assert!(
        woke <= 4,
        "{} parked threads woke {woke} times in 500 ms",
        after.len()
    );
    runtime.shutdown();
}
