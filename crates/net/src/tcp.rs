//! Real-socket transport: a blocking TCP mesh over localhost, the stand-in
//! for the paper's Open MPI deployment. Every byte the algorithms shuffle
//! crosses the kernel's TCP stack, as it would on EC2.
//!
//! Every socket blocks, so every wait is the kernel's: each endpoint runs
//! an **acceptor thread** blocked in `accept` on its listener and **one
//! reader thread per accepted link**, blocked reading that link's frames,
//! `[tag: u32 LE][len: u32 LE][payload]`, into the endpoint's [`Mailbox`].
//! A frame leaves in one vectored write under its link's lock;
//! [`Transport::multicast`] writes its copies back to back into kernel
//! buffers that the receivers' readers drain concurrently — the
//! fanout/multicast fabrics of [`fabric`](crate::fabric).
//!
//! Bring-up is **lazy**: the [`registry`](crate::registry) binds `K`
//! listeners, and a directed link `i → j` is dialed when `i` first sends to
//! `j`, which introduces itself with a 4-byte little-endian rank hello.
//! Sparse patterns — pod-partitioned engines, coordinator-only barriers —
//! open only the descriptors and reader threads they touch; a full mesh
//! costs `K(K−1)` reader threads, and is tested to `K = 32`.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::tcp::build_tcp_fabric;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//!
//! let endpoints = build_tcp_fabric(3).unwrap();
//! // One native multicast: rank 0 → ranks 1 and 2, written back to back.
//! endpoints[0]
//!     .multicast(&[1, 2], Tag::app(0), Bytes::from_static(b"coded"))
//!     .unwrap();
//! assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "coded");
//! assert_eq!(endpoints[2].recv(0, Tag::app(0)).unwrap(), "coded");
//! ```

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{NetError, Result};
use crate::mailbox::Mailbox;
use crate::message::{Key, Message, Tag};
use crate::registry::RankRegistry;
use crate::transport::Transport;

/// Upper bound on a single frame's payload (1 GiB) — a sanity check against
/// corrupted length headers.
const MAX_FRAME: u32 = 1 << 30;

/// The most a reader allocates for a payload before any of its bytes have
/// arrived.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// Builds a fully connected *capable* TCP fabric of `k` endpoints on
/// loopback: binds a [`RankRegistry`] and starts one acceptor per endpoint.
/// No data links exist yet — each directed link is dialed lazily on the
/// first send crossing it. Returns the endpoints in rank order.
pub fn build_tcp_fabric(k: usize) -> Result<Vec<TcpEndpoint>> {
    let (registry, listeners) = RankRegistry::bind_loopback(k)?;
    listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| TcpEndpoint::start(rank, registry.clone(), listener))
        .collect()
}

/// Rejects payloads the `u32` frame-length field (and the reader's
/// [`MAX_FRAME`] guard) cannot represent, before any byte is written.
fn check_frame_size(payload: &Bytes) -> Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(NetError::Io {
            what: format!(
                "payload of {} bytes exceeds the {} byte frame limit",
                payload.len(),
                MAX_FRAME
            ),
        });
    }
    Ok(())
}

/// An outbound simplex link. The lock serializes this endpoint's frame
/// writes on it; `shutdown()` closes the stream without taking the lock,
/// which wakes a writer blocked in the kernel.
struct PeerLink {
    stream: TcpStream,
    writing: Mutex<()>,
}

/// A live link reader: its stream, for `shutdown()` to close, and its
/// thread, for the teardown to join.
struct Reader {
    stream: Arc<TcpStream>,
    thread: JoinHandle<()>,
}

/// What an endpoint shares with its acceptor and link readers.
struct Inbound {
    rank: usize,
    world: usize,
    mailbox: Arc<Mailbox>,
    stop: AtomicBool,
    /// The live readers by thread. A reader removes its own entry as it
    /// exits, so accept churn keeps nothing of a closed link.
    readers: Mutex<HashMap<ThreadId, Reader>>,
}

/// One endpoint of a TCP fabric (see the module docs). Dropping it shuts
/// the sockets down and joins every thread it started.
pub struct TcpEndpoint {
    rank: usize,
    registry: RankRegistry,
    /// Outbound simplex links, dialed on first send (peer rank → link).
    /// The map lock is held only for lookups/inserts — never across a
    /// dial — so sends to established peers don't queue behind a slow
    /// connect to someone else.
    outbound: Mutex<HashMap<usize, Arc<PeerLink>>>,
    /// Per-destination dial serialization: racing first-senders to one
    /// peer agree on a single link without blocking traffic to others.
    dial_locks: Vec<Mutex<()>>,
    inbound: Arc<Inbound>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl TcpEndpoint {
    fn start(rank: usize, registry: RankRegistry, listener: TcpListener) -> Result<TcpEndpoint> {
        let world = registry.world_size();
        let inbound = Arc::new(Inbound {
            rank,
            world,
            mailbox: Arc::new(Mailbox::new(rank)),
            stop: AtomicBool::new(false),
            readers: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let inbound = Arc::clone(&inbound);
            std::thread::Builder::new()
                .name(format!("cts-accept-{rank}"))
                .spawn(move || inbound.accept_loop(&listener))?
        };
        Ok(TcpEndpoint {
            rank,
            registry,
            outbound: Mutex::new(HashMap::new()),
            dial_locks: (0..world).map(|_| Mutex::new(())).collect(),
            inbound,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// Returns the link to `dst`, dialing it first if this is the first
    /// send to that peer. The dial introduces this endpoint with a 4-byte
    /// little-endian rank hello before any frame.
    fn link_to(&self, dst: usize) -> Result<Arc<PeerLink>> {
        if let Some(link) = self.outbound.lock().get(&dst) {
            return Ok(Arc::clone(link));
        }
        let addr = self.registry.addr(dst).ok_or(NetError::InvalidRank {
            rank: dst,
            world: self.registry.world_size(),
        })?;
        // Dial under the per-destination lock only: concurrent first-sends
        // to `dst` agree on one link, while traffic to other peers flows.
        let _dialing = self.dial_locks[dst].lock();
        if let Some(link) = self.outbound.lock().get(&dst) {
            return Ok(Arc::clone(link)); // raced: the other dialer won
        }
        let mut stream = dial_with_retry(self.rank, dst, addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&(self.rank as u32).to_le_bytes())?;
        let link = Arc::new(PeerLink {
            stream,
            writing: Mutex::new(()),
        });
        self.outbound.lock().insert(dst, Arc::clone(&link));
        Ok(link)
    }

    /// Joins the acceptor and every reader after shutting the sockets down.
    fn teardown(&self) {
        self.shutdown();
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        // Out of the map before joining: a reader's last act takes its lock.
        let readers = std::mem::take(&mut *self.inbound.readers.lock());
        for reader in readers.into_values() {
            let _ = reader.thread.join();
        }
    }
}

/// Maximum connect attempts for one lazy dial before the typed
/// [`NetError::ConnectFailed`] surfaces.
const DIAL_ATTEMPTS: u32 = 8;
/// First retry backoff; doubles per attempt, capped at
/// [`DIAL_BACKOFF_CAP`].
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Upper bound on a single backoff sleep.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Dials `addr` with a bounded retry budget: a peer whose listener is not
/// accepting yet (refused/reset during staggered bring-up) gets
/// exponentially backed-off retries with deterministic per-(dialer, peer,
/// attempt) jitter so simultaneous dialers decorrelate identically on
/// every run. Exhausting the budget yields the typed `ConnectFailed`
/// naming the rank and address instead of a raw I/O error.
fn dial_with_retry(me: usize, dst: usize, addr: std::net::SocketAddr) -> Result<TcpStream> {
    let mut backoff = DIAL_BACKOFF_BASE;
    let mut last = String::new();
    for attempt in 0..DIAL_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < DIAL_ATTEMPTS {
            // Deterministic jitter in [0, backoff/2): a hash of (dialer,
            // peer, attempt), not a clock or RNG, so failing bring-ups
            // replay exactly.
            let h = ((me as u64) << 24 ^ (dst as u64) << 8 ^ attempt as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 33;
            let jitter_us = if backoff.as_micros() >= 2 {
                h % (backoff.as_micros() as u64 / 2)
            } else {
                0
            };
            std::thread::sleep(backoff + Duration::from_micros(jitter_us));
            backoff = (backoff * 2).min(DIAL_BACKOFF_CAP);
        }
    }
    Err(NetError::ConnectFailed {
        rank: dst,
        addr: addr.to_string(),
        attempts: DIAL_ATTEMPTS,
        last,
    })
}

impl Inbound {
    /// Accepts inbound links until the stop is raised, starting a reader for
    /// each. `shutdown()` raises the stop, then wakes the blocked `accept`
    /// by connecting to the listener itself.
    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => Arc::new(stream),
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                Err(_) => return, // the listener is unusable: accept nothing more
            };
            // The stop is read, and the reader registered, under the lock the
            // reader's last act and `shutdown()` take: the entry is there
            // before the reader can remove it, and a reader started before
            // the stop is one whose stream `shutdown()` closes.
            let mut live = self.readers.lock();
            if self.stop.load(Ordering::SeqCst) {
                return; // the self-connect that woke us, or a dialer racing the stop
            }
            let (inbound, link) = (Arc::clone(self), Arc::clone(&stream));
            let spawned = std::thread::Builder::new()
                .name(format!("cts-link-{}", self.rank))
                .spawn(move || {
                    inbound.read_link(&link);
                    inbound.readers.lock().remove(&std::thread::current().id());
                });
            if let Ok(thread) = spawned {
                live.insert(thread.thread().id(), Reader { stream, thread });
            }
        }
    }

    /// Serves one accepted link: the dialer's rank hello, then frames into
    /// the mailbox until EOF, an I/O error or a corrupt header. A hello
    /// naming no other rank of the fabric drops the link. When a named link
    /// ends, its source is disconnected — the dialer closes only at
    /// teardown, so that peer is gone (queued messages stay readable; fresh
    /// receives fail).
    fn read_link(&self, stream: &TcpStream) {
        let mut reader = BufReader::new(stream);
        let mut hello = [0u8; 4];
        if reader.read_exact(&mut hello).is_err() {
            return;
        }
        let peer = u32::from_le_bytes(hello) as usize;
        if peer >= self.world || peer == self.rank {
            return;
        }
        while let Ok((tag, payload)) = read_frame(&mut reader) {
            self.mailbox.deliver(Message {
                src: peer,
                tag,
                payload,
            });
        }
        self.mailbox.disconnect_src(peer);
    }
}

/// Reads one frame. The payload buffer starts at no more than
/// [`PAYLOAD_PREALLOC`] and grows only as bytes arrive, so a forged length
/// costs at most the larger of that and twice what was really sent.
fn read_frame(reader: &mut impl Read) -> std::io::Result<(Tag, Bytes)> {
    let mut header = [0u8; 8];
    reader.read_exact(&mut header)?;
    let tag = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(ErrorKind::InvalidData.into());
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_PREALLOC));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok((Tag(tag), Bytes::from(payload)))
}

/// Writes one frame with one vectored write of header and payload, looping
/// over short writes: a small frame leaves in one segment. The caller holds
/// the link's lock.
fn write_frame(mut stream: &TcpStream, tag: Tag, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&tag.0.to_le_bytes());
    header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Transport for TcpEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.registry.world_size()
    }

    fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        check_frame_size(&payload)?;
        if dst == self.rank {
            // Loopback without touching the wire, like MPI self-sends.
            self.inbound.mailbox.deliver(Message {
                src: self.rank,
                tag,
                payload,
            });
            return Ok(());
        }
        let link = self.link_to(dst)?;
        let _writing = link.writing.lock();
        write_frame(&link.stream, tag, &payload)?;
        Ok(())
    }

    fn multicast(&self, dsts: &[usize], tag: Tag, payload: Bytes) -> Result<()> {
        check_frame_size(&payload)?;
        // Validate + dial first so no copy is sent on a bad destination
        // list. `dsts` is a set (trait contract): dedupe — a duplicate
        // would re-lock a peer's non-reentrant writer mutex — and sort, so
        // concurrent multicasts on one endpoint acquire the per-peer locks
        // in one global order (no lock-ordering deadlock).
        let mut distinct: Vec<usize> = dsts.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut links = Vec::with_capacity(distinct.len());
        for &dst in &distinct {
            if dst != self.rank {
                links.push(self.link_to(dst)?);
            }
        }
        if distinct.contains(&self.rank) {
            self.inbound.mailbox.deliver(Message {
                src: self.rank,
                tag,
                payload: payload.clone(),
            });
        }
        let _writing: Vec<_> = links.iter().map(|link| link.writing.lock()).collect();
        // A failed copy does not cut the others short: every healthy link
        // gets a whole frame, and the first error is reported after.
        let mut first_err = None;
        for link in &links {
            if let Err(e) = write_frame(&link.stream, tag, &payload) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        self.inbound.mailbox.recv_any(keys, deadline)
    }

    fn shutdown(&self) {
        if !self.inbound.stop.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.registry.addr(self.rank) {
                let _ = TcpStream::connect(addr); // wakes the acceptor
            }
        }
        for link in self.outbound.lock().values() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        for reader in self.inbound.readers.lock().values() {
            let _ = reader.stream.shutdown(Shutdown::Both);
        }
        self.inbound.mailbox.close();
    }

    fn mark_peer_dead(&self, peer: usize) {
        self.inbound.mailbox.mark_dead(peer);
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Outbound links `ep` has dialed so far — with the lazy mesh, exactly
    /// the number of distinct peers it has sent to.
    fn outbound_links(ep: &TcpEndpoint) -> usize {
        ep.outbound.lock().len()
    }

    /// A raw connection into `ep`'s listener that has sent `hello`.
    fn raw_link(ep: &TcpEndpoint, hello: u32) -> TcpStream {
        let mut stream = TcpStream::connect(ep.registry.addr(ep.rank).unwrap()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&hello.to_le_bytes()).unwrap();
        stream
    }

    /// A frame's header: the tag, then the length the payload claims.
    fn header(tag: Tag, len: u32) -> Vec<u8> {
        [tag.0.to_le_bytes(), len.to_le_bytes()].concat()
    }

    /// Blocks until the endpoint closes `stream`: a read finds EOF or a
    /// reset.
    fn assert_closed(mut stream: TcpStream) {
        let mut scratch = [0u8; 16];
        assert!(matches!(stream.read(&mut scratch), Ok(0) | Err(_)));
    }

    #[test]
    fn mesh_ping_pong() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let (a, b) = (&endpoints[0], &endpoints[1]);
        a.send(1, Tag::app(0), Bytes::from_static(b"over tcp"))
            .unwrap();
        assert_eq!(b.recv(0, Tag::app(0)).unwrap(), "over tcp");
        b.send(0, Tag::app(1), Bytes::from_static(b"back")).unwrap();
        assert_eq!(a.recv(1, Tag::app(1)).unwrap(), "back");
    }

    #[test]
    fn self_send_loops_back() {
        let endpoints = build_tcp_fabric(1).unwrap();
        endpoints[0]
            .send(0, Tag::app(0), Bytes::from_static(b"self"))
            .unwrap();
        assert_eq!(endpoints[0].recv(0, Tag::app(0)).unwrap(), "self");
    }

    #[test]
    fn large_payload_crosses_intact() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let big: Vec<u8> = (0..1_000_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        endpoints[0]
            .send(1, Tag::app(5), Bytes::from(big.clone()))
            .unwrap();
        let got = endpoints[1].recv(0, Tag::app(5)).unwrap();
        assert_eq!(got.len(), big.len());
        assert_eq!(&got[..], &big[..]);
    }

    #[test]
    fn frames_written_a_byte_at_a_time_arrive_intact() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut raw = raw_link(&endpoints[1], 0);
        let mut wire = Vec::new();
        for i in 0..5u32 {
            let len = 100 * (i + 1);
            wire.extend(header(Tag::app(i), len));
            wire.extend(vec![i as u8; len as usize]);
        }
        for byte in &wire {
            raw.write_all(std::slice::from_ref(byte)).unwrap();
        }
        for i in 0..5u32 {
            let got = endpoints[1].recv(0, Tag::app(i)).unwrap();
            assert_eq!(got.len(), 100 * (i as usize + 1));
            assert!(got.iter().all(|&b| b == i as u8), "frame {i}");
        }
    }

    #[test]
    fn an_empty_payload_arrives() {
        let endpoints = build_tcp_fabric(2).unwrap();
        endpoints[0].send(1, Tag::app(3), Bytes::new()).unwrap();
        assert!(endpoints[1].recv(0, Tag::app(3)).unwrap().is_empty());
        // And from a raw dialer: a bare header is a whole frame.
        let mut raw = raw_link(&endpoints[0], 1);
        raw.write_all(&header(Tag::app(4), 0)).unwrap();
        assert!(endpoints[0].recv(1, Tag::app(4)).unwrap().is_empty());
    }

    #[test]
    fn an_oversized_header_closes_the_link_and_disconnects_its_source() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut raw = raw_link(&endpoints[1], 0);
        raw.write_all(&header(Tag::app(0), MAX_FRAME + 1)).unwrap();
        assert!(matches!(
            endpoints[1].recv(0, Tag::app(0)),
            Err(NetError::Disconnected { .. })
        ));
        assert_closed(raw);
        // The endpoint itself carries on.
        endpoints[0]
            .send(1, Tag::app(1), Bytes::from_static(b"still here"))
            .unwrap();
        endpoints[1]
            .send(0, Tag::app(1), Bytes::from_static(b"and here"))
            .unwrap();
        assert_eq!(endpoints[0].recv(1, Tag::app(1)).unwrap(), "and here");
    }

    #[test]
    fn a_length_the_bytes_never_reach_closes_the_link() {
        // 512 MiB claimed, 10 bytes sent, then EOF.
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut raw = raw_link(&endpoints[1], 0);
        raw.write_all(&header(Tag::app(0), 512 << 20)).unwrap();
        raw.write_all(&[7u8; 10]).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(
            endpoints[1].recv(0, Tag::app(0)),
            Err(NetError::Disconnected { .. })
        ));
        assert_closed(raw);
    }

    #[test]
    fn a_hello_naming_no_other_rank_is_dropped() {
        let endpoints = build_tcp_fabric(2).unwrap();
        for hello in [2u32, 1, u32::MAX] {
            let mut raw = raw_link(&endpoints[1], hello);
            // Whatever follows is not read as a frame from anyone.
            let _ = raw.write_all(&header(Tag::app(0), 1));
            let _ = raw.write_all(b"x");
            assert_closed(raw);
        }
        assert!(endpoints[1].try_recv(0, Tag::app(0)).unwrap().is_none());
        assert!(endpoints[1].try_recv(1, Tag::app(0)).unwrap().is_none());
        // No source was disconnected either: rank 0's real link still works.
        endpoints[0]
            .send(1, Tag::app(0), Bytes::from_static(b"real"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "real");
    }

    #[test]
    fn four_node_all_to_all() {
        let endpoints = build_tcp_fabric(4).unwrap();
        std::thread::scope(|scope| {
            for ep in &endpoints {
                scope.spawn(move || {
                    let me = ep.rank();
                    for dst in (0..4).filter(|&d| d != me) {
                        ep.send(
                            dst,
                            Tag::app(0),
                            Bytes::copy_from_slice(&[me as u8, dst as u8]),
                        )
                        .unwrap();
                    }
                    for src in (0..4).filter(|&s| s != me) {
                        let got = ep.recv(src, Tag::app(0)).unwrap();
                        assert_eq!(&got[..], &[src as u8, me as u8]);
                    }
                });
            }
        });
    }

    #[test]
    fn fifo_order_per_peer_and_tag() {
        let endpoints = build_tcp_fabric(2).unwrap();
        for i in 0..100u32 {
            endpoints[0]
                .send(1, Tag::app(0), Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        for i in 0..100u32 {
            let got = endpoints[1].recv(0, Tag::app(0)).unwrap();
            assert_eq!(u32::from_le_bytes(got[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn lazy_mesh_dials_only_used_pairs() {
        let endpoints = build_tcp_fabric(6).unwrap();
        // Only 0 → 1 traffic: no other endpoint opens a data link.
        endpoints[0]
            .send(1, Tag::app(0), Bytes::from_static(b"sparse"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "sparse");
        assert_eq!(outbound_links(&endpoints[0]), 1);
        for ep in &endpoints[1..] {
            assert_eq!(outbound_links(ep), 0, "rank {}", ep.rank());
        }
        // Repeat sends reuse the dialed link instead of opening more.
        endpoints[0]
            .send(1, Tag::app(1), Bytes::from_static(b"again"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(1)).unwrap(), "again");
        assert_eq!(outbound_links(&endpoints[0]), 1);
    }

    #[test]
    fn multicast_reaches_every_destination() {
        let endpoints = build_tcp_fabric(4).unwrap();
        let payload: Vec<u8> = (0..500_000u32).map(|i| (i % 251) as u8).collect();
        endpoints[1]
            .multicast(&[0, 2, 3], Tag::app(9), Bytes::from(payload.clone()))
            .unwrap();
        for dst in [0usize, 2, 3] {
            let got = endpoints[dst].recv(1, Tag::app(9)).unwrap();
            assert_eq!(&got[..], &payload[..], "dst {dst}");
        }
    }

    #[test]
    fn multicast_including_self_delivers_locally() {
        let endpoints = build_tcp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[0, 1], Tag::app(2), Bytes::from_static(b"both"))
            .unwrap();
        assert_eq!(endpoints[0].recv(0, Tag::app(2)).unwrap(), "both");
        assert_eq!(endpoints[1].recv(0, Tag::app(2)).unwrap(), "both");
    }

    #[test]
    fn multicast_duplicate_destinations_deliver_once_without_deadlock() {
        let endpoints = build_tcp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[1, 1], Tag::app(0), Bytes::from_static(b"dup"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "dup");
        assert!(endpoints[1].try_recv(0, Tag::app(0)).unwrap().is_none());
    }

    #[test]
    fn multicast_rejects_invalid_rank_before_sending() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let err = endpoints[0]
            .multicast(&[1, 9], Tag::app(0), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidRank { rank: 9, .. }));
        // Nothing was sent to the valid destination either.
        assert!(endpoints[1].try_recv(0, Tag::app(0)).unwrap().is_none());
    }

    #[test]
    fn multicast_finishes_the_healthy_copies_and_reports_the_failed_one() {
        let mut endpoints = build_tcp_fabric(3).unwrap();
        endpoints[0]
            .multicast(&[1, 2], Tag::app(0), Bytes::from_static(b"warm"))
            .unwrap();
        assert_eq!(endpoints[2].recv(0, Tag::app(0)).unwrap(), "warm");
        // Rank 1 goes away; its end of the 0 → 1 link resets the writes.
        drop(endpoints.remove(1));
        let payload = Bytes::from(vec![3u8; 1 << 20]);
        let mut result = Ok(());
        for round in 1..=8 {
            result = endpoints[0].multicast(&[1, 2], Tag::app(round), payload.clone());
            let got = endpoints[1].recv(0, Tag::app(round)).unwrap();
            assert_eq!(got, payload, "round {round}: rank 2's copy is whole");
            if result.is_err() {
                break;
            }
        }
        assert!(result.is_err(), "writes to a closed peer must fail");
    }

    #[test]
    fn exhausted_dial_budget_is_a_typed_error() {
        // A bound-then-dropped listener leaves a port that refuses every
        // connect: the retry budget must drain with backoff, then surface
        // ConnectFailed naming the rank and address — not a raw Io error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let started = std::time::Instant::now();
        let err = dial_with_retry(0, 3, addr).unwrap_err();
        // Backoffs 1+2+4+8+16+32+64 ms floor the failure path's duration.
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "retries must back off before giving up"
        );
        match err {
            NetError::ConnectFailed {
                rank,
                addr: dialed,
                attempts,
                ..
            } => {
                assert_eq!(rank, 3);
                assert_eq!(dialed, addr.to_string());
                assert_eq!(attempts, 8);
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn dial_retry_rides_out_late_bring_up() {
        // The listener only starts accepting after the first attempts have
        // failed: the bounded retry must land the connection.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            TcpListener::bind(addr).unwrap()
        });
        let stream = dial_with_retry(1, 0, addr).expect("late listener must be reached");
        assert_eq!(stream.peer_addr().unwrap(), addr);
        drop(opener.join().unwrap());
    }

    #[test]
    fn shutdown_unblocks_peers() {
        let mut endpoints = build_tcp_fabric(2).unwrap();
        let b = endpoints.pop().unwrap();
        // Establish the 0 → b link first: with the lazy mesh, peer-death
        // detection rides on an existing connection's EOF (a never-used
        // pair has no socket to observe; the cluster layer covers that case
        // by shutting every endpoint down explicitly on abort).
        endpoints[0]
            .send(1, Tag::app(7), Bytes::from_static(b"warm"))
            .unwrap();
        assert_eq!(b.recv(0, Tag::app(7)).unwrap(), "warm");
        let handle = std::thread::spawn(move || b.recv(0, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        drop(endpoints); // drops endpoint 0 → socket shutdown → b's reader EOFs
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(NetError::Disconnected { .. })));
    }

    #[test]
    fn invalid_rank_rejected() {
        let endpoints = build_tcp_fabric(2).unwrap();
        assert!(matches!(
            endpoints[0].send(7, Tag::app(0), Bytes::new()),
            Err(NetError::InvalidRank { .. })
        ));
    }

    #[test]
    fn bidirectional_bulk_exchange_cannot_deadlock() {
        // Both sides write 2 MB at each other before either reads: the
        // writes block once the socket buffers fill, and only complete
        // because every link's reader drains it into the mailbox on its own.
        let endpoints = build_tcp_fabric(2).unwrap();
        let big = vec![0xABu8; 2_000_000];
        std::thread::scope(|scope| {
            for ep in &endpoints {
                let big = &big;
                scope.spawn(move || {
                    let other = 1 - ep.rank();
                    ep.send(other, Tag::app(0), Bytes::from(big.clone()))
                        .unwrap();
                    let got = ep.recv(other, Tag::app(0)).unwrap();
                    assert_eq!(got.len(), big.len());
                });
            }
        });
    }

    #[test]
    fn concurrent_first_sends_to_one_peer_race_safely() {
        // Several threads racing the first send to the same destination
        // must agree on a single dialed link and deliver every frame.
        let endpoints = build_tcp_fabric(2).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let ep = &endpoints[0];
                scope.spawn(move || {
                    ep.send(1, Tag::app(t), Bytes::copy_from_slice(&[t as u8]))
                        .unwrap();
                });
            }
        });
        for t in 0..4u32 {
            assert_eq!(endpoints[1].recv(0, Tag::app(t)).unwrap()[0], t as u8);
        }
        assert_eq!(outbound_links(&endpoints[0]), 1);
    }
}
