//! Allocation budget of one whole sort job: how many bytes the engine asks
//! the allocator for per byte of input. The record path copies each record
//! once per stage (ARCHITECTURE "Record path"): Map scatters it, in one
//! pass, into a partition buffer leased at the partition's expected size,
//! the shuffle moves buffers by reference, Reduce copies it into the output
//! (a partition larger than one core's L2 is first scattered by key range as
//! its piece lands, into a buffer the piece before it gave back) — and Map
//! runs r-fold. A stage that starts copying the partition again (a
//! concatenation before Reduce, a `Bytes` that copies what it freezes, a
//! buffer grown by doubling) shows here as a whole extra multiple of the
//! input.
//!
//! One test in its own binary: the counters are process-wide, because the
//! job runs on K rank threads of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use coded_terasort::prelude::*;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Counts the bytes and calls of `alloc`, `alloc_zeroed` and the growth of
/// `realloc`; deallocations are free.
struct CountingAlloc;

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Bytes allocated per input byte, and allocator calls, of one K = 8 job.
fn cost_of(r: usize, input: &bytes::Bytes) -> (f64, u64) {
    let job = SortJob::local(8, r);
    let (bytes, calls) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let run = if r == 1 {
        run_terasort(input.clone(), &job)
    } else {
        run_coded_terasort(input.clone(), &job)
    }
    .expect("sort job");
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    run.validate().expect("TeraValidate");
    (bytes as f64 / input.len() as f64, calls)
}

#[test]
fn a_sort_job_allocates_a_bounded_multiple_of_its_input() {
    // Budgets: bytes allocated ÷ input bytes, per job shape, r, and cold —
    // the first job of its shape in the process, every record buffer a pool
    // miss — or warm: the same job again, where what is left is what the
    // caller keeps or the pool does not hold.
    //
    // 80 000 records: 1 MB partitions, sorted in cache (each piece kept
    // where it lands). The budgets are under 10 % over what the record path
    // measured before Reduce scattered pieces as they land, 2.18 (r = 1: Map
    // 1 + Reduce 1 + sort entries 0.16 + partition ids 0.01) and 4.42 (r = 3:
    // Map 2.25 — the (r − 1)/K = 25 % the layout drops is never written — +
    // ids 0.03 + packets 0.21 + decoded intermediates 0.63 + Reduce 1.16, the
    // rest segment accumulators still out when the next is leased). Cold it
    // measures 2.13–2.23 and 4.28–4.41 (30 runs each): Reduce leases only
    // the output and the partition's sort entries (0.08), and Map, which
    // leases a partition before it has counted it, asks for a 32nd over its
    // share and swaps the third of this job's 178-record shares that outgrow
    // that for buffers an eighth larger. Warm it measures 1.01–1.04 at r = 1
    // (the output: a reducer sorts in its thread's scratch, sized by the job
    // before; 1.09–1.11 when each reducer allocated its own entries) and
    // 1.18–1.28 at r = 3 (1.12–1.52 with the scatter, whose leases raced
    // Map's for one size class). Before the record path was made copy-free
    // this job measured 4.89 and 10.61, before it kept its pages 2.21 and
    // 5.24 on every job.
    //
    // 400 000 records: 5 MB partitions, scattered. The scattered copy is
    // leased at its piece's size and the piece goes back at once, so one
    // extra buffer per rank is in flight and the entries are a bucket's:
    // cold 2.08–2.14 and 3.95–4.08, warm 1.02–1.03 and 1.03–1.11 (30 runs
    // each). A scatter that kept its pieces, or copied a partition once more,
    // would add a whole multiple of the input.
    for (records, legs) in [
        (80_000, [(1usize, 2.4f64, 1.08f64), (3, 4.6, 1.5)]),
        (400_000, [(1, 2.3, 1.15), (3, 4.4, 1.5)]),
    ] {
        let input = teragen::generate(records, 2017);
        for (r, cold, warm) in legs {
            for (leg, budget) in [("cold", cold), ("warm", warm)] {
                let (ratio, calls) = cost_of(r, &input);
                println!(
                    "{records} records, r = {r} {leg}: {ratio:.2}x input in {calls} allocator calls"
                );
                assert!(
                    ratio <= budget,
                    "{records} records, r = {r} {leg}: the job allocated {ratio:.2}x its input, \
                     over the {budget}x budget"
                );
            }
        }
    }
}
