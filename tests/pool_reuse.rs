//! The buffer pool's counters across two identical jobs. The counters are
//! process-wide, so this test has a binary of its own: no other test leases
//! buffers while its warm job runs.

use coded_terasort::prelude::*;

/// Grabs the first sample line of `series` from a Prometheus dump.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The buffer pool explains itself: after two identical jobs on one runtime
/// the fabric's metric dump shows that the second leased what the first
/// returned instead of asking the allocator, and that what the pool holds is
/// what one job leases — a small multiple of its input, not a leak. The
/// `cts stats` table carries the same line.
#[test]
fn pool_counters_show_the_second_job_reusing_the_first_jobs_buffers() {
    let (k, r) = (4, 2);
    // Pieces of ~167 KB and frames of ~83 KB: sizes no other test of this
    // binary leases within the pool's 1.5× slack, so the (process-wide)
    // counters move for this test's jobs alone.
    let input = teragen::generate(40_000, 77);
    let runtime = JobRuntime::start(RuntimeConfig::new(EngineConfig::local(k, r))).unwrap();
    let pool = |name: &str| {
        let body = runtime.fabric().render_prometheus();
        sample(&body, name).unwrap_or_else(|| panic!("{name} missing:\n{body}")) as u64
    };
    let mut leased = Vec::new();
    for _ in 0..2 {
        let (hits, misses) = (pool("cts_pool_hits_total"), pool("cts_pool_misses_total"));
        let job_input = input.clone();
        let outcome = runtime
            .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), job_input, &ctx.cfg))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.outputs.concat().len(), input.len());
        leased.push((
            pool("cts_pool_hits_total") - hits,
            pool("cts_pool_misses_total") - misses,
        ));
    }
    let [(_, cold_misses), (warm_hits, warm_misses)] = leased[..] else {
        unreachable!()
    };
    // 64 leases a job: 40 for Map's 36 pieces (6 files × 2 replicas × 3 of
    // 4 partitions kept; 4 pieces outgrow their first lease and take a
    // larger one, returning the first) and 12 decoded values (one per group
    // of a rank's three), held to the end of the job — the second job finds
    // every one of them — plus 12 frames, one per coded packet, which
    // circulate within a job. A cold job must miss the 48 buffers it holds
    // at its end, each a buffer of its own, and its first frame: nothing it
    // returned earlier is of a frame's size. How many more frames miss, and
    // whether a returned Map buffer serves a later lease, differs from run
    // to run (55–60 misses in 200 runs). (The counters are the process's:
    // the other tests of this binary can add a few small leases to either
    // job.)
    assert!(cold_misses > 36 + 12, "{leased:?}");
    assert!(warm_hits >= 36 + 12, "{leased:?}");
    assert!(warm_misses * 4 <= cold_misses, "{leased:?}");
    let retained = pool("cts_pool_retained_bytes");
    assert!(
        retained > 0 && retained <= 4 * input.len() as u64,
        "{retained} B retained for a {} B job",
        input.len()
    );
    runtime.shutdown();
}
