//! A resident daemon keeps a job in one table (`cts_terasort::service`), and
//! that table keeps the last 64 finished jobs: the two-thousandth job finds
//! the process holding what the two-hundredth left it. One test in its own
//! binary — it counts the process's live heap bytes and reads its resident
//! set — and over the wire, the only way into the daemon from outside its
//! crate: sixteen clients at once, so the delayed ACK each reply waits out
//! (ARCHITECTURE "Waits") is waited out sixteen at a time. Whoever ends a
//! two-hundredth round waits for the rounds in flight to end and holds the
//! next ones back while it looks, so every look finds the process at rest:
//! the table, the buffer pool, and no request or reply half way.
//!
//! The pin is on live heap bytes, which are exact. The resident set is
//! printed beside them: with some forty threads taking turns on glibc's
//! arenas it wanders ± 20 % around a level figure (165–212 MB here; 117 MB
//! flat under one arena), where the parent commit adds 1.1 MB to both with
//! every round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

use coded_terasort::prelude::*;
use coded_terasort::terasort::service::ResultDigest;

const CLIENTS: usize = 16;
const ROUNDS: usize = 2_000;
/// Rounds between two looks at the daemon: its table and its resident set.
const LOOK_EVERY: usize = 200;

/// Heap bytes allocated and not yet freed, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

// SAFETY: every call is handed to `System` unchanged; the counter beside it
// is an atomic and touches no allocation.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Resident set size in bytes, where `/proc` has it.
fn vm_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// What `cts stats` shows of the table: its rows, and how many it evicted.
fn table(client: &mut ServiceClient) -> Result<(usize, usize), String> {
    let stats = client.stats()?;
    let rows = stats.lines().filter(|l| l.starts_with("  job ")).count();
    let evicted = stats
        .split("results evicted ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no eviction count in:\n{stats}"))?;
    Ok((rows, evicted))
}

#[test]
#[ignore = "2 000 sort jobs through a daemon: ~15 s in release, minutes in debug"]
fn resident_memory_is_flat_over_2000_submit_digest_fetch_rounds() {
    let k = 4;
    let svc = SortService::bind(
        "127.0.0.1:0",
        RuntimeConfig::new(EngineConfig::local(k, 2)).with_max_concurrent(2),
    )
    .unwrap();
    let addr = svc.local_addr().unwrap();
    let server = std::thread::spawn(move || svc.run().unwrap());

    // 100 KB and 2 MB inputs take turns, so results of two sizes age out.
    let jobs: Vec<(bytes::Bytes, ResultDigest)> = [1_000usize, 20_000]
        .into_iter()
        .map(|records| {
            let input = teragen::generate(records, records as u64);
            let reference = run_sequential(&TeraSortWorkload::range(k), &input, k);
            (input, ResultDigest::of(&reference))
        })
        .collect();
    let (next, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let after_first_look = AtomicUsize::new(0);
    // The first thing to go wrong; every client stops at its next round.
    let failure: Mutex<Option<String>> = Mutex::new(None);

    let at_rest = RwLock::new(());

    // One SUBMIT → DIGEST → FETCH; how many rounds have ended with it.
    let round = |client: &mut ServiceClient, round: usize| -> Result<usize, String> {
        let _in_flight = at_rest.read().unwrap();
        let (input, digest) = &jobs[round % 2];
        let id = loop {
            match client.submit(&JobKind::Sort, 2, input) {
                Ok(id) => break id,
                Err(busy) if busy.contains("admission queue full") => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        };
        if client.digest(id)? != *digest {
            return Err(format!("job {id}: somebody else's digest"));
        }
        let fetched: usize = client.fetch(id)?.iter().map(Vec::len).sum();
        if fetched != input.len() {
            return Err(format!("job {id}: fetched {fetched} bytes"));
        }
        Ok(done.fetch_add(1, Ordering::SeqCst) + 1)
    };
    let look = |client: &mut ServiceClient| -> Result<(), String> {
        let _nothing_in_flight = at_rest.write().unwrap();
        // Rounds that ended while this client waited for the rest count too.
        let done = done.load(Ordering::SeqCst);
        let (rows, evicted) = table(client)?;
        if rows > 64 || evicted + rows != done {
            return Err(format!("round {done}: {rows} kept, {evicted} evicted"));
        }
        let live = LIVE.load(Ordering::Relaxed);
        let rss = vm_rss().unwrap_or(0);
        println!("round {done}: {live} B live, VmRSS {rss} B, {rows} jobs kept, {evicted} evicted");
        let first = after_first_look.load(Ordering::SeqCst);
        if first == 0 {
            after_first_look.store(live, Ordering::SeqCst);
        } else if live as f64 > 1.2 * first as f64 {
            return Err(format!(
                "live heap grew from {first} B (round {LOOK_EVERY}) to {live} B (round {done})"
            ));
        }
        Ok(())
    };

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = ServiceClient::connect(addr).unwrap();
                while failure.lock().unwrap().is_none() {
                    let n = next.fetch_add(1, Ordering::SeqCst);
                    if n >= ROUNDS {
                        break;
                    }
                    let looked = round(&mut client, n).and_then(|done| {
                        if done % LOOK_EVERY == 0 {
                            look(&mut client)?;
                        }
                        Ok(())
                    });
                    if let Err(e) = looked {
                        failure.lock().unwrap().get_or_insert(e);
                    }
                }
            });
        }
    });
    ServiceClient::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
    assert_eq!(*failure.lock().unwrap(), None);
    assert_eq!(done.load(Ordering::SeqCst), ROUNDS);
}
