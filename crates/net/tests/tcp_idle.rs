//! What a TCP fabric costs its process when nothing is sent, and what a
//! hostile dialer leaves behind: an idle fabric makes no wake-ups, a link
//! that ends badly returns its descriptor and its thread, and a forged
//! frame length of 512 MiB costs no allocation above 1 MiB.
//!
//! One test, alone in its process, so every `cts-*` thread, descriptor and
//! allocation counted here is the fabric's. It reads `/proc/self` and skips
//! where there is none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_net::message::Tag;
use cts_net::tcp::build_tcp_fabric;
use cts_net::transport::Transport;
use cts_net::NetError;

/// The largest single allocation (or reallocation) since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestAlloc;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// `voluntary_ctxt_switches` of every live `cts-*` thread, by thread id.
fn cts_threads() -> HashMap<String, u64> {
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        // A thread that exits between the listing and the reads is skipped.
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if !comm.starts_with("cts-") {
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

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// The loopback ports this process listens on — here, the fabric's. The
/// kernel's table lists the namespace's sockets; the inodes behind
/// `/proc/self/fd` pick out this process's.
fn own_listening_ports() -> Vec<u16> {
    let inodes: HashSet<String> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .flatten()
        .filter_map(|fd| std::fs::read_link(fd.path()).ok())
        .filter_map(|target| {
            let target = target.to_str()?;
            Some(
                target
                    .strip_prefix("socket:[")?
                    .strip_suffix(']')?
                    .to_owned(),
            )
        })
        .collect();
    let table = std::fs::read_to_string("/proc/self/net/tcp").unwrap();
    // Columns: sl, local address, remote address, state (0A = LISTEN), …,
    // inode (the tenth).
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.get(3) != Some(&"0A") || !inodes.contains(*cols.get(9)?) {
                return None;
            }
            u16::from_str_radix(cols[1].split(':').nth(1)?, 16).ok()
        })
        .collect()
}

#[test]
fn an_idle_fabric_sleeps_and_hostile_dialers_leave_nothing_behind() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipping: no /proc/self/task to count threads in");
        return;
    }
    let k = 4usize;
    let endpoints = build_tcp_fabric(k).unwrap();
    // All-to-all, so every one of the K(K−1) links and readers exists.
    std::thread::scope(|scope| {
        for ep in &endpoints {
            scope.spawn(move || {
                let me = ep.rank();
                for dst in (0..k).filter(|&d| d != me) {
                    ep.send(dst, Tag::app(0), Bytes::from_static(b"warm"))
                        .unwrap();
                }
                for src in (0..k).filter(|&s| s != me) {
                    assert_eq!(ep.recv(src, Tag::app(0)).unwrap(), "warm");
                }
            });
        }
    });
    std::thread::sleep(Duration::from_millis(100)); // the readers settle back into their reads

    let before = cts_threads();
    std::thread::sleep(Duration::from_millis(500));
    let after = cts_threads();
    let woke: u64 = after
        .iter()
        .map(|(tid, n)| n - before.get(tid).copied().unwrap_or(0))
        .sum();
    assert!(
        woke <= 4,
        "{} idle fabric threads woke {woke} times in 500 ms",
        after.len()
    );

    let (fds, threads) = (open_fds(), cts_threads().len());
    let ports = own_listening_ports();
    assert_eq!(ports.len(), k, "one listener per rank");

    // A frame claiming 512 MiB, 10 bytes of it, then EOF, on every
    // listener. The hello names rank 1: rank 1 drops the link, every other
    // rank reads the header, then disconnects source 1 at the EOF.
    LARGEST.store(0, Ordering::SeqCst);
    for &port in &ports {
        let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut wire = 1u32.to_le_bytes().to_vec();
        wire.extend(Tag::app(1).0.to_le_bytes());
        wire.extend((512u32 << 20).to_le_bytes());
        wire.extend([7u8; 10]);
        let _ = raw.write_all(&wire);
        let _ = raw.shutdown(Shutdown::Write);
    }
    for ep in endpoints.iter().filter(|ep| ep.rank() != 1) {
        assert!(matches!(
            ep.recv(1, Tag::app(1)),
            Err(NetError::Disconnected { .. })
        ));
    }
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= 1 << 20,
        "a forged 512 MiB header made a {largest}-byte allocation"
    );

    // Links that never name a rank of the fabric.
    for i in 0..200 {
        let mut raw = TcpStream::connect(("127.0.0.1", ports[i % k])).unwrap();
        let _ = raw.write_all(&(k as u32 + i as u32).to_le_bytes());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = (open_fds(), cts_threads().len());
        if now == (fds, threads) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "(fds, cts threads) = {now:?}, baseline {:?}",
            (fds, threads)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
