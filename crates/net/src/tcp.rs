//! Real-socket transport: an event-driven TCP mesh over localhost.
//!
//! This is the "custom networking" substrate replacing the paper's Open MPI
//! deployment. The original design ran one blocking reader thread per peer
//! (`K−1` threads per endpoint, `O(K²)` for the fabric), which capped
//! emulation around `K ≈ 20`. It is now event-driven: every socket is
//! non-blocking, each endpoint runs a **single reactor thread** that polls
//! all of its peer sockets through [`nio::FrameReader`](crate::nio), and
//! sends go through resumable [`nio::FrameWrite`](crate::nio) state
//! machines. Thread count is `O(K)` and single-host emulation scales to
//! `K = 128`.
//!
//! Mesh bring-up is **lazy** (connect-on-first-send): binding the
//! [`registry`](crate::registry) costs `K` listeners, and a directed link
//! `i → j` is dialed only when `i` first sends to `j`, introducing itself
//! with a 4-byte little-endian rank hello that keeps rank identification
//! deterministic. A fully used mesh still tops out at `K(K−1)` simplex
//! links, but sparse communication patterns — pod-partitioned engines,
//! coordinator-only barriers — open only the file descriptors they touch
//! instead of the eager `K(K−1)/2` duplex mesh that risked fd exhaustion
//! at `K = 128`.
//!
//! The endpoint also implements a real one-to-many primitive:
//! [`Transport::multicast`] interleaves chunked non-blocking writes across
//! all destination sockets ([`nio::drive_writes`]), so the copies of one
//! coded packet overlap on the wire instead of queueing behind each other —
//! the fanout/multicast fabrics of [`fabric`](crate::fabric). (For
//! *physical* one-to-many frames, see [`udp`](crate::udp), which layers
//! IP multicast over this mesh as its control channel.)
//!
//! Every byte the algorithms shuffle really crosses the kernel's TCP stack,
//! so the TCP examples and tests exercise exactly the code path an EC2
//! deployment would. Frame format per message:
//! `[tag: u32 LE][len: u32 LE][payload]`. The peer's rank is announced by
//! the dialer's hello and implicit in the connection thereafter.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::tcp::build_tcp_fabric;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//!
//! let endpoints = build_tcp_fabric(3).unwrap();
//! // One native multicast: rank 0 → ranks 1 and 2, overlapped writes.
//! endpoints[0]
//!     .multicast(&[1, 2], Tag::app(0), Bytes::from_static(b"coded"))
//!     .unwrap();
//! assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "coded");
//! assert_eq!(endpoints[2].recv(0, Tag::app(0)).unwrap(), "coded");
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{NetError, Result};
use crate::mailbox::Mailbox;
use crate::message::{Key, Message, Tag};
use crate::nio::{self, Backoff, FrameReader, FrameWrite, ReadStatus};
use crate::registry::RankRegistry;
use crate::transport::Transport;

/// Builds a fully connected *capable* TCP fabric of `k` endpoints on
/// loopback: binds a [`RankRegistry`] and starts one reactor per endpoint.
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
/// [`nio::MAX_FRAME`] guard) cannot represent, before any byte is written.
fn check_frame_size(payload: &Bytes) -> Result<()> {
    if payload.len() > nio::MAX_FRAME as usize {
        return Err(NetError::Io {
            what: format!(
                "payload of {} bytes exceeds the {} byte frame limit",
                payload.len(),
                nio::MAX_FRAME
            ),
        });
    }
    Ok(())
}

struct PeerLink {
    /// Write half: a lock serializes frame writes from this endpoint's
    /// threads; the stream itself is non-blocking, so writers resume
    /// through `nio` instead of blocking in the kernel.
    writer: Mutex<TcpStream>,
    /// Kept so `shutdown()` can close the link and wake the peer's reactor
    /// with an EOF.
    raw: TcpStream,
}

/// Raw handles of reactor-owned inbound streams, shared so `shutdown()`
/// can close them from outside the reactor thread.
type InboundRaw = Arc<Mutex<Vec<TcpStream>>>;

/// One endpoint of a TCP fabric.
///
/// A single reactor thread accepts inbound connections on this rank's
/// listener and polls the accepted peer sockets, parsing frames into the
/// endpoint's [`Mailbox`]; `send` and `multicast` dial missing outbound
/// links on demand and drive non-blocking writes under a per-peer lock.
/// Dropping the endpoint shuts the sockets down and joins the reactor.
pub struct TcpEndpoint {
    rank: usize,
    registry: RankRegistry,
    mailbox: Arc<Mailbox>,
    /// Outbound simplex links, dialed on first send (peer rank → link).
    /// The map lock is held only for lookups/inserts — never across a
    /// dial — so sends to established peers don't queue behind a slow
    /// connect to someone else.
    outbound: Mutex<HashMap<usize, Arc<PeerLink>>>,
    /// Per-destination dial serialization: racing first-senders to one
    /// peer agree on a single link without blocking traffic to others.
    dial_locks: Vec<Mutex<()>>,
    inbound_raw: InboundRaw,
    stop: Arc<AtomicBool>,
    reactor: Mutex<Option<JoinHandle<()>>>,
}

impl TcpEndpoint {
    fn start(rank: usize, registry: RankRegistry, listener: TcpListener) -> Result<TcpEndpoint> {
        listener.set_nonblocking(true)?;
        let mailbox = Arc::new(Mailbox::new(rank));
        let stop = Arc::new(AtomicBool::new(false));
        let inbound_raw: InboundRaw = Arc::new(Mutex::new(Vec::new()));
        let world = registry.world_size();
        let reactor = {
            let mailbox = Arc::clone(&mailbox);
            let stop = Arc::clone(&stop);
            let inbound_raw = Arc::clone(&inbound_raw);
            std::thread::Builder::new()
                .name(format!("cts-net-reactor-{rank}"))
                .spawn(move || reactor_loop(listener, world, rank, &mailbox, &stop, &inbound_raw))
                .expect("spawn reactor thread")
        };
        Ok(TcpEndpoint {
            rank,
            registry,
            mailbox,
            outbound: Mutex::new(HashMap::new()),
            dial_locks: (0..world).map(|_| Mutex::new(())).collect(),
            inbound_raw,
            stop,
            reactor: Mutex::new(Some(reactor)),
        })
    }

    /// Returns the link to `dst`, dialing it first if this is the first
    /// send to that peer. The dial introduces this endpoint with a 4-byte
    /// little-endian rank hello (written in blocking mode, so it cannot
    /// interleave with frames) before the socket turns non-blocking.
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
        stream.set_nonblocking(true)?;
        let raw = stream.try_clone()?;
        let link = Arc::new(PeerLink {
            writer: Mutex::new(stream),
            raw,
        });
        self.outbound.lock().insert(dst, Arc::clone(&link));
        Ok(link)
    }

    /// This rank's mailbox. The UDP fabric layered over this mesh delivers
    /// its reassembled datagrams into it and waits on it directly, so a
    /// rank has one queue whatever path a message took.
    pub(crate) fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    /// Joins the reactor after shutting the sockets down.
    fn teardown(&self) {
        self.shutdown();
        if let Some(handle) = self.reactor.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
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

/// The per-endpoint event loop: accepts inbound connections (reading each
/// dialer's rank hello incrementally), round-robins every established peer
/// socket, feeds parsed frames into the mailbox, and backs off adaptively
/// while idle. A peer's EOF marks that source disconnected in the mailbox
/// (queued messages stay readable; fresh receives from it fail). Exits when
/// asked to stop.
fn reactor_loop(
    listener: TcpListener,
    world: usize,
    rank: usize,
    mailbox: &Mailbox,
    stop: &AtomicBool,
    inbound_raw: &InboundRaw,
) {
    struct Link {
        peer: usize,
        stream: TcpStream,
        reader: FrameReader,
        open: bool,
        /// The connection's peer address, identifying its raw clone in
        /// `inbound_raw` so the fd can be released when the link closes.
        id: Option<std::net::SocketAddr>,
    }
    /// An accepted stream whose 4-byte rank hello is still arriving.
    struct PendingHello {
        stream: TcpStream,
        hello: [u8; 4],
        got: usize,
        open: bool,
        id: Option<std::net::SocketAddr>,
    }
    /// Releases a closed connection's raw clone (and any dead strays):
    /// without this, accept churn would retain one fd per connection for
    /// the endpoint's whole lifetime.
    fn prune_inbound(inbound_raw: &InboundRaw, id: Option<std::net::SocketAddr>) {
        inbound_raw.lock().retain(|s| match s.peer_addr() {
            Ok(addr) => Some(addr) != id,
            Err(_) => false,
        });
    }
    let mut links: Vec<Link> = Vec::new();
    let mut pending: Vec<PendingHello> = Vec::new();
    let mut frames: Vec<(u32, Bytes)> = Vec::new();
    // Reactors may sit idle through whole compute stages; a higher park cap
    // keeps K idle endpoints from re-polling their sockets every
    // millisecond.
    let mut backoff = Backoff::with_max_park_us(5_000);
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let mut progressed = false;
        // Accept every connection waiting in the backlog.
        loop {
            match listener.accept() {
                Ok((stream, addr)) => {
                    progressed = true;
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    if let Ok(raw) = stream.try_clone() {
                        inbound_raw.lock().push(raw);
                    }
                    pending.push(PendingHello {
                        stream,
                        hello: [0u8; 4],
                        got: 0,
                        open: true,
                        id: Some(addr),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // listener closed or fatal: stop accepting
            }
        }
        // Drive partially read hellos forward.
        for p in pending.iter_mut() {
            loop {
                match p.stream.read(&mut p.hello[p.got..]) {
                    Ok(0) => {
                        p.open = false;
                        break;
                    }
                    Ok(n) => {
                        p.got += n;
                        progressed = true;
                        if p.got == 4 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        p.open = false;
                        break;
                    }
                }
            }
        }
        for p in pending.extract_if(.., |p| !p.open || p.got == 4) {
            if !p.open {
                prune_inbound(inbound_raw, p.id);
                continue;
            }
            let peer = u32::from_le_bytes(p.hello) as usize;
            if peer >= world || peer == rank {
                // A hello announcing an impossible rank: drop the link.
                let _ = p.stream.shutdown(std::net::Shutdown::Both);
                prune_inbound(inbound_raw, p.id);
                continue;
            }
            links.push(Link {
                peer,
                stream: p.stream,
                reader: FrameReader::new(),
                open: true,
                id: p.id,
            });
        }
        // Poll established links.
        for link in links.iter_mut().filter(|l| l.open) {
            match link.reader.poll(&link.stream, &mut frames) {
                ReadStatus::Progress => progressed = true,
                ReadStatus::WouldBlock => {}
                ReadStatus::Closed => {
                    link.open = false;
                    // The dialer only closes at teardown: that peer is gone.
                    mailbox.disconnect_src(link.peer);
                    prune_inbound(inbound_raw, link.id);
                }
            }
            for (tag, payload) in frames.drain(..) {
                mailbox.deliver(Message {
                    src: link.peer,
                    tag: Tag(tag),
                    payload,
                });
            }
        }
        links.retain(|l| l.open);
        if progressed {
            backoff.reset();
        } else {
            backoff.wait();
        }
    }
    // Wake pending receivers: no further messages will arrive.
    mailbox.close();
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
            self.mailbox.deliver(Message {
                src: self.rank,
                tag,
                payload,
            });
            return Ok(());
        }
        let link = self.link_to(dst)?;
        let writer = link.writer.lock();
        nio::write_frame(&*writer, tag.0, &payload)?;
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
            self.mailbox.deliver(Message {
                src: self.rank,
                tag,
                payload: payload.clone(),
            });
        }
        let guards: Vec<_> = links.iter().map(|link| link.writer.lock()).collect();
        // One resumable frame writer per destination, driven round-robin so
        // the copies overlap on the wire.
        let mut ops: Vec<FrameWrite<'_, &TcpStream>> = guards
            .iter()
            .map(|guard| FrameWrite::new(&**guard, tag.0, &payload))
            .collect();
        nio::drive_writes(&mut ops)?;
        Ok(())
    }

    fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        self.mailbox.recv_any(keys, deadline)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for link in self.outbound.lock().values() {
            let _ = link.raw.shutdown(std::net::Shutdown::Both);
        }
        for raw in self.inbound_raw.lock().iter() {
            let _ = raw.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.reactor.lock().as_ref() {
            handle.thread().unpark();
        }
        self.mailbox.close();
    }

    fn mark_peer_dead(&self, peer: usize) {
        self.mailbox.mark_dead(peer);
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
        drop(endpoints); // drops endpoint 0 → socket shutdown → b's reactor EOFs
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
        // Both sides write 2 MB at each other before either reads: blocking
        // writes would deadlock once the socket buffers fill; the
        // non-blocking writers plus the always-draining reactors must not.
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
