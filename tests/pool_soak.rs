//! What the process-wide buffer pool holds is bounded by what the last few
//! jobs leased (`cts_core::pool`: a buffer nobody takes for `KEEP_JOBS` jobs
//! is freed), so a process that runs jobs of alternating shapes for ever
//! stays the size its traffic needs. One test in its own binary: it reads the
//! process's resident set.

use coded_terasort::prelude::*;

/// Resident set size in bytes, where `/proc` has it.
fn vm_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
#[ignore = "300 sort jobs: seconds in release, a minute in debug"]
fn resident_memory_is_flat_over_300_alternating_jobs() {
    let inputs = [80_000usize, 8_000].map(|records| teragen::generate(records, records as u64));
    let mut after_30 = None;
    for i in 0..300 {
        // Large and small inputs alternate, and r alternates under them, so
        // four job shapes whose buffers do not fit each other take turns.
        let (input, r) = (&inputs[i % 2], [1, 3][i / 2 % 2]);
        let job = SortJob::local(8, r);
        let run = if r == 1 {
            run_terasort(input.clone(), &job)
        } else {
            run_coded_terasort(input.clone(), &job)
        };
        let outputs = run.expect("sort job").outcome.outputs;
        assert_eq!(outputs.iter().map(Vec::len).sum::<usize>(), input.len());
        if i == 29 {
            after_30 = vm_rss();
        }
    }
    let (Some(after_30), Some(after_300)) = (after_30, vm_rss()) else {
        println!("no /proc/self/status here: nothing measured");
        return;
    };
    let pool = cts_core::pool::global().stats();
    println!("VmRSS {after_30} B after job 30, {after_300} B after job 300; {pool}");
    assert!(
        after_300 as f64 <= 1.2 * after_30 as f64,
        "resident set grew from {after_30} B (job 30) to {after_300} B (job 300)"
    );
    // The four shapes together lease ~3.2× + 1× of 8 MB and ~0.8 MB; what
    // sits in the pool is that, not 300 jobs' worth.
    assert!(pool.retained_bytes <= 6 * inputs[0].len() as u64, "{pool}");
}
