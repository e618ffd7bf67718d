//! Real-socket transport: a blocking TCP mesh over localhost, the stand-in
//! for the paper's Open MPI deployment. Every byte the algorithms shuffle
//! crosses the kernel's TCP stack, as it would on EC2.
//!
//! Every socket blocks, so every wait is the kernel's: each endpoint runs
//! an **acceptor thread** blocked in `accept` on its listener and **one
//! reader thread per accepted link**, blocked reading that link's frames,
//! `[job: u32 LE][tag: u32 LE][ready: u64 LE][len: u32 LE][payload]`
//! ([`frame`]'s codec), into the endpoint's [`Mailbox`], which drops a frame
//! of a job that is not open there and holds one until its `ready` stamp. A
//! frame leaves in one vectored write under its link's lock;
//! [`Transport::multicast`] writes its copies back to back into kernel
//! buffers that the receivers' readers drain concurrently — the
//! fanout/multicast fabrics of [`fabric`](crate::fabric).
//!
//! Bring-up is **lazy**: the [`registry`](crate::registry) binds `K`
//! listeners, and a directed link `i → j` is dialed when `i` first sends to
//! `j`, which introduces itself with a hello: its rank and the fabric's
//! token. A link whose hello lacks the token is dropped unread.
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
//!     .multicast(&[1, 2], 0, Tag::app(0), Bytes::from_static(b"coded"), None)
//!     .unwrap();
//! assert_eq!(endpoints[1].recv(0, 0, Tag::app(0)).unwrap(), "coded");
//! assert_eq!(endpoints[2].recv(0, 0, Tag::app(0)).unwrap(), "coded");
//! ```

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::sync::lock;

use crate::error::{NetError, Result};
use crate::frame;
use crate::mailbox::Mailbox;
use crate::message::{Message, Tag};
use crate::registry::{RankRegistry, HELLO_LEN};
use crate::transport::Transport;

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

/// What a frame's ripening stamp counts from, one for the whole process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A link frame's head: the message's job and tag, each `u32` LE, then
/// when it ripens, `u64` LE ns since the [`epoch`] — 0 (as is any stamp
/// before it) for ripe on arrival.
fn head(job: u32, tag: Tag, ready: Option<Instant>) -> [u8; 16] {
    let ns = ready.map_or(0, |at| at.saturating_duration_since(epoch()).as_nanos());
    (ns << 64 | u128::from(tag.0) << 32 | u128::from(job)).to_le_bytes()
}

/// Reads a frame head back: job, tag and when the message ripens — `None`
/// for a stamp no clock can read, past `i64::MAX` ns (the monotonic clock's
/// signed nanosecond count) or past what `Instant` can add.
fn parse_head(head: [u8; 16]) -> Option<(u32, Tag, Option<Instant>)> {
    let head = u128::from_le_bytes(head);
    let ready = match head >> 64 {
        0 => None,
        ns => Some(epoch().checked_add(Duration::from_nanos(i64::try_from(ns).ok()? as u64))?),
    };
    Some((head as u32, Tag((head >> 32) as u32), ready))
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
    /// Where each rank listens, and who a hello may name.
    registry: RankRegistry,
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
            registry,
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
            outbound: Mutex::new(HashMap::new()),
            dial_locks: (0..world).map(|_| Mutex::new(())).collect(),
            inbound,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// Returns the link to `dst`, dialing it first if this is the first
    /// send to that peer. The dial introduces this endpoint with its hello
    /// before any frame.
    fn link_to(&self, dst: usize) -> Result<Arc<PeerLink>> {
        if let Some(link) = lock(&self.outbound).get(&dst) {
            return Ok(Arc::clone(link));
        }
        let addr = self
            .inbound
            .registry
            .addr(dst)
            .ok_or(NetError::InvalidRank {
                rank: dst,
                world: self.inbound.registry.world_size(),
            })?;
        // Dial under the per-destination lock only: concurrent first-sends
        // to `dst` agree on one link, while traffic to other peers flows.
        let _dialing = lock(&self.dial_locks[dst]);
        if let Some(link) = lock(&self.outbound).get(&dst) {
            return Ok(Arc::clone(link)); // raced: the other dialer won
        }
        let mut stream = dial_with_retry(self.rank, dst, addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&self.inbound.registry.hello(self.rank))?;
        let link = Arc::new(PeerLink {
            stream,
            writing: Mutex::new(()),
        });
        lock(&self.outbound).insert(dst, Arc::clone(&link));
        Ok(link)
    }

    /// Joins the acceptor and every reader after shutting the sockets down.
    fn teardown(&self) {
        self.shutdown();
        if let Some(acceptor) = lock(&self.acceptor).take() {
            let _ = acceptor.join();
        }
        // Out of the map before joining: a reader's last act takes its lock.
        let readers = std::mem::take(&mut *lock(&self.inbound.readers));
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
            let mut live = lock(&self.readers);
            if self.stop.load(Ordering::SeqCst) {
                return; // the self-connect that woke us, or a dialer racing the stop
            }
            let (inbound, link) = (Arc::clone(self), Arc::clone(&stream));
            let spawned = std::thread::Builder::new()
                .name(format!("cts-link-{}", self.rank))
                .spawn(move || {
                    inbound.read_link(&link);
                    lock(&inbound.readers).remove(&std::thread::current().id());
                });
            if let Ok(thread) = spawned {
                live.insert(thread.thread().id(), Reader { stream, thread });
            }
        }
    }

    /// Serves one accepted link: the dialer's hello, then frames into the
    /// mailbox until EOF, an I/O error or a corrupt header — a length over
    /// the cap or a stamp no clock can read. A hello without
    /// the fabric's token, or naming no other rank of it, drops the link
    /// before a byte more is read. When a named link ends, its source is
    /// disconnected — the dialer closes only at teardown, so that peer is
    /// gone (queued messages stay readable; fresh receives fail).
    fn read_link(&self, stream: &TcpStream) {
        let mut reader = BufReader::new(stream);
        let mut hello = [0u8; HELLO_LEN];
        if reader.read_exact(&mut hello).is_err() {
            return;
        }
        let peer = self.registry.rank_of(&hello);
        let Some(peer) = peer.filter(|&peer| peer != self.rank) else {
            return;
        };
        while let Ok(Some((head, len))) = frame::read_head::<16>(&mut reader) {
            let Some((job, tag, ready)) = parse_head(head) else {
                break;
            };
            let Ok(payload) = frame::read_body(&mut reader, len) else {
                break;
            };
            self.mailbox.deliver(Message {
                src: peer,
                job,
                tag,
                payload: Bytes::from(payload),
                ready,
            });
        }
        self.mailbox.disconnect_src(peer);
    }
}

impl Transport for TcpEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.inbound.registry.world_size()
    }

    fn send(
        &self,
        dst: usize,
        job: u32,
        tag: Tag,
        payload: Bytes,
        ready: Option<Instant>,
    ) -> Result<()> {
        if dst == self.rank {
            // Loopback without touching the wire, like MPI self-sends.
            self.inbound.mailbox.deliver(Message {
                src: self.rank,
                job,
                tag,
                payload,
                ready,
            });
            return Ok(());
        }
        let link = self.link_to(dst)?;
        let _writing = lock(&link.writing);
        frame::write(&link.stream, &head(job, tag, ready), &[&payload])?;
        Ok(())
    }

    fn multicast(
        &self,
        dsts: &[usize],
        job: u32,
        tag: Tag,
        payload: Bytes,
        ready: Option<Instant>,
    ) -> Result<()> {
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
                job,
                tag,
                payload: payload.clone(),
                ready,
            });
        }
        let _writing: Vec<_> = links.iter().map(|link| lock(&link.writing)).collect();
        // A failed copy does not cut the others short: every healthy link
        // gets a whole frame, and the first error is reported after.
        let (head, mut first_err) = (head(job, tag, ready), None);
        for link in &links {
            if let Err(e) = frame::write(&link.stream, &head, &[&payload]) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    fn mailbox(&self) -> &Mailbox {
        &self.inbound.mailbox
    }

    fn shutdown(&self) {
        if !self.inbound.stop.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.inbound.registry.addr(self.rank) {
                let _ = TcpStream::connect(addr); // wakes the acceptor
            }
        }
        for link in lock(&self.outbound).values() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        for reader in lock(&self.inbound.readers).values() {
            let _ = reader.stream.shutdown(Shutdown::Both);
        }
        self.inbound.mailbox.close();
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
    use crate::frame::MAX_FRAME;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Outbound links `ep` has dialed so far — with the lazy mesh, exactly
    /// the number of distinct peers it has sent to.
    fn outbound_links(ep: &TcpEndpoint) -> usize {
        lock(&ep.outbound).len()
    }

    /// A raw connection into `ep`'s listener that has sent `bytes`.
    fn raw_connection(ep: &TcpEndpoint, bytes: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(ep.inbound.registry.addr(ep.rank).unwrap()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(bytes).unwrap();
        stream
    }

    /// A raw connection into `ep`'s listener that has sent the fabric's
    /// hello naming `rank`: a link the endpoint believes.
    fn raw_link(ep: &TcpEndpoint, rank: usize) -> TcpStream {
        raw_connection(ep, &ep.inbound.registry.hello(rank))
    }

    /// A frame's header: the job, the tag, ripe on arrival, then the
    /// length the payload claims.
    fn header(job: u32, tag: Tag, len: u32) -> Vec<u8> {
        [&head(job, tag, None)[..], &len.to_le_bytes()].concat()
    }

    /// Whether `ep` has nothing of job 0 queued under `(tag, src)`: a probe
    /// with a deadline that has already passed.
    fn nothing_from(ep: &TcpEndpoint, src: usize, tag: Tag) -> bool {
        let probe = ep.recv_from(src, 0, tag, Some(Instant::now()));
        matches!(probe, Err(NetError::Timeout { .. }))
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
        a.send(1, 0, Tag::app(0), Bytes::from_static(b"over tcp"), None)
            .unwrap();
        assert_eq!(b.recv(0, 0, Tag::app(0)).unwrap(), "over tcp");
        b.send(0, 0, Tag::app(1), Bytes::from_static(b"back"), None)
            .unwrap();
        assert_eq!(a.recv(1, 0, Tag::app(1)).unwrap(), "back");
    }

    #[test]
    fn self_send_loops_back() {
        let endpoints = build_tcp_fabric(1).unwrap();
        endpoints[0]
            .send(0, 0, Tag::app(0), Bytes::from_static(b"self"), None)
            .unwrap();
        assert_eq!(endpoints[0].recv(0, 0, Tag::app(0)).unwrap(), "self");
    }

    #[test]
    fn large_payload_crosses_intact() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let big: Vec<u8> = (0..1_000_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        endpoints[0]
            .send(1, 0, Tag::app(5), Bytes::from(big.clone()), None)
            .unwrap();
        let got = endpoints[1].recv(0, 0, Tag::app(5)).unwrap();
        assert_eq!(got.len(), big.len());
        assert_eq!(&got[..], &big[..]);
    }

    #[test]
    fn an_oversized_header_closes_the_link_and_disconnects_its_source() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut raw = raw_link(&endpoints[1], 0);
        raw.write_all(&header(0, Tag::app(0), MAX_FRAME + 1))
            .unwrap();
        assert!(matches!(
            endpoints[1].recv(0, 0, Tag::app(0)),
            Err(NetError::Disconnected { .. })
        ));
        assert_closed(raw);
        // The endpoint itself carries on.
        endpoints[0]
            .send(1, 0, Tag::app(1), Bytes::from_static(b"still here"), None)
            .unwrap();
        endpoints[1]
            .send(0, 0, Tag::app(1), Bytes::from_static(b"and here"), None)
            .unwrap();
        assert_eq!(endpoints[0].recv(1, 0, Tag::app(1)).unwrap(), "and here");
    }

    #[test]
    fn a_length_the_bytes_never_reach_closes_the_link() {
        // 512 MiB claimed, 10 bytes sent, then EOF.
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut raw = raw_link(&endpoints[1], 0);
        raw.write_all(&header(0, Tag::app(0), 512 << 20)).unwrap();
        raw.write_all(&[7u8; 10]).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(
            endpoints[1].recv(0, 0, Tag::app(0)),
            Err(NetError::Disconnected { .. })
        ));
        assert_closed(raw);
    }

    #[test]
    fn a_hello_naming_no_other_rank_is_dropped() {
        let endpoints = build_tcp_fabric(2).unwrap();
        for rank in [2, 1, u32::MAX as usize] {
            let mut raw = raw_link(&endpoints[1], rank);
            // Whatever follows is not read as a frame from anyone.
            let _ = raw.write_all(&header(0, Tag::app(0), 1));
            let _ = raw.write_all(b"x");
            assert_closed(raw);
        }
        assert!(nothing_from(&endpoints[1], 0, Tag::app(0)));
        assert!(nothing_from(&endpoints[1], 1, Tag::app(0)));
        // No source was disconnected either: rank 0's real link still works.
        endpoints[0]
            .send(1, 0, Tag::app(0), Bytes::from_static(b"real"), None)
            .unwrap();
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(0)).unwrap(), "real");
    }

    /// A connection that names rank 0 without the fabric's token, then
    /// hangs up, is nobody's link: a receive waiting on rank 0 gets rank 0's
    /// real message, not `Disconnected`.
    #[test]
    fn a_link_without_the_fabrics_token_disconnects_no_one() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let mut forged = endpoints[1].inbound.registry.hello(0);
        forged[HELLO_LEN - 1] ^= 1;
        for hello in [&0u32.to_le_bytes()[..], &forged] {
            let raw = raw_connection(&endpoints[1], hello);
            raw.shutdown(Shutdown::Write).unwrap();
            assert_closed(raw);
        }
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| endpoints[1].recv(0, 0, Tag::app(0)));
            std::thread::sleep(Duration::from_millis(20));
            endpoints[0]
                .send(1, 0, Tag::app(0), Bytes::from_static(b"alive"), None)
                .unwrap();
            assert_eq!(waiting.join().unwrap().unwrap(), "alive");
        });
    }

    /// A whole frame of a job the endpoint has not opened — one that ended,
    /// or never ran there — is read and dropped: nothing is queued, and
    /// neither the link nor its source goes down.
    #[test]
    fn a_frame_for_a_job_that_is_not_open_is_dropped_and_disconnects_no_one() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let ep = &endpoints[1];
        let mut raw = raw_link(ep, 0);
        raw.write_all(&[header(7, Tag::app(0), 5), b"stale".to_vec()].concat())
            .unwrap();
        // Behind it on the same link, a frame of job 0, which is open.
        raw.write_all(&[header(0, Tag::app(0), 5), b"fresh".to_vec()].concat())
            .unwrap();
        assert_eq!(ep.recv(0, 0, Tag::app(0)).unwrap(), "fresh");
        assert_eq!(ep.inbound.mailbox.queued(), 0);
        // Opening the job later does not bring the dropped frame back; its
        // next frame on the same link lands.
        ep.mailbox().open_job(7);
        let probe = ep.recv_from(0, 7, Tag::app(0), Some(Instant::now()));
        assert!(matches!(probe, Err(NetError::Timeout { .. })), "{probe:?}");
        raw.write_all(&[header(7, Tag::app(1), 2), b"ok".to_vec()].concat())
            .unwrap();
        assert_eq!(ep.recv(0, 7, Tag::app(1)).unwrap(), "ok");
        // Rank 0's real link works too.
        endpoints[0]
            .send(1, 0, Tag::app(2), Bytes::from_static(b"real"), None)
            .unwrap();
        assert_eq!(ep.recv(0, 0, Tag::app(2)).unwrap(), "real");
    }

    #[test]
    fn a_stamp_survives_a_frame_and_holds_the_message_until_it_is_due() {
        // To the nanosecond through the head …
        let due = Instant::now() + Duration::from_millis(40);
        for ready in [None, Some(due), Some(epoch())] {
            let expect = ready.filter(|&at| at > epoch());
            assert_eq!(
                parse_head(head(9, Tag::app(3), ready)),
                Some((9, Tag::app(3), expect))
            );
        }
        // … and across a link: in the mailbox at once, seen at `due`.
        let endpoints = build_tcp_fabric(2).unwrap();
        let sent = Instant::now();
        let due = sent + Duration::from_millis(40);
        endpoints[0]
            .send(1, 0, Tag::app(0), Bytes::from_static(b"stamped"), Some(due))
            .unwrap();
        let mailbox = endpoints[1].mailbox();
        let deadline = sent + Duration::from_secs(10);
        while mailbox.queued() == 0 {
            assert!(Instant::now() < deadline, "the frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        if Instant::now() < due {
            assert!(nothing_from(&endpoints[1], 0, Tag::app(0)));
        }
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(0)).unwrap(), "stamped");
        assert!(Instant::now() >= due);
    }

    #[test]
    fn a_stamp_no_clock_can_read_closes_the_link_without_a_panic() {
        for ns in [1u64 << 63, u64::MAX] {
            let endpoints = build_tcp_fabric(2).unwrap();
            let mut raw = raw_link(&endpoints[1], 0);
            let job_and_tag = head(0, Tag::app(0), None);
            let wire = [
                &job_and_tag[..8],
                &ns.to_le_bytes(),
                &2u32.to_le_bytes(),
                b"no",
            ];
            raw.write_all(&wire.concat()).unwrap();
            // Not a message held for centuries: the link is gone.
            let deadline = Instant::now() + Duration::from_secs(10);
            assert!(matches!(
                endpoints[1].recv_from(0, 0, Tag::app(0), Some(deadline)),
                Err(NetError::Disconnected { .. })
            ));
            assert_closed(raw);
            // The reader returned rather than unwound: it removed its own
            // entry, and the endpoint carries on.
            while !lock(&endpoints[1].inbound.readers).is_empty() {
                assert!(Instant::now() < deadline, "the reader never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
            endpoints[1]
                .send(0, 0, Tag::app(1), Bytes::from_static(b"alive"), None)
                .unwrap();
            assert_eq!(endpoints[0].recv(1, 0, Tag::app(1)).unwrap(), "alive");
        }
    }

    /// A live 3-rank fabric, every one of its links dialed, for the hello
    /// fuzz to throw bytes at across cases.
    fn fuzzed_fabric() -> &'static [TcpEndpoint] {
        static FABRIC: OnceLock<Vec<TcpEndpoint>> = OnceLock::new();
        FABRIC.get_or_init(|| {
            let endpoints = build_tcp_fabric(3).unwrap();
            every_link_carries_a_message(&endpoints);
            endpoints
        })
    }

    /// Sends one message over every link of `endpoints` and receives it.
    fn every_link_carries_a_message(endpoints: &[TcpEndpoint]) {
        for (src, dst) in (0..3).flat_map(|src| (0..3).map(move |dst| (src, dst))) {
            if src != dst {
                let payload = Bytes::copy_from_slice(&[src as u8, dst as u8]);
                endpoints[src]
                    .send(dst, 0, Tag::app(0), payload.clone(), None)
                    .unwrap();
                assert_eq!(endpoints[dst].recv(src, 0, Tag::app(0)).unwrap(), payload);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever up to 24 bytes a stray connection sends before it hangs
        /// up, its reader neither panics (a panicked reader never removes
        /// its entry) nor delivers anything, and every real link still
        /// works.
        #[test]
        fn a_stray_hello_delivers_nothing_and_cuts_no_link(
            to in 0usize..3,
            wire in collection::vec(any::<u8>(), 0..25),
        ) {
            let endpoints = fuzzed_fabric();
            let ep = &endpoints[to];
            let raw = raw_connection(ep, &wire);
            // The endpoint may have hung up already.
            let _ = raw.shutdown(Shutdown::Write);
            assert_closed(raw);
            let deadline = Instant::now() + Duration::from_secs(10);
            while lock(&ep.inbound.readers).len() != 2 {
                prop_assert!(Instant::now() < deadline, "a stray link's reader never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
            prop_assert_eq!(ep.inbound.mailbox.queued(), 0);
            every_link_carries_a_message(endpoints);
        }
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
                            0,
                            Tag::app(0),
                            Bytes::copy_from_slice(&[me as u8, dst as u8]),
                            None,
                        )
                        .unwrap();
                    }
                    for src in (0..4).filter(|&s| s != me) {
                        let got = ep.recv(src, 0, Tag::app(0)).unwrap();
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
                .send(
                    1,
                    0,
                    Tag::app(0),
                    Bytes::copy_from_slice(&i.to_le_bytes()),
                    None,
                )
                .unwrap();
        }
        for i in 0..100u32 {
            let got = endpoints[1].recv(0, 0, Tag::app(0)).unwrap();
            assert_eq!(u32::from_le_bytes(got[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn lazy_mesh_dials_only_used_pairs() {
        let endpoints = build_tcp_fabric(6).unwrap();
        // Only 0 → 1 traffic: no other endpoint opens a data link.
        endpoints[0]
            .send(1, 0, Tag::app(0), Bytes::from_static(b"sparse"), None)
            .unwrap();
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(0)).unwrap(), "sparse");
        assert_eq!(outbound_links(&endpoints[0]), 1);
        for ep in &endpoints[1..] {
            assert_eq!(outbound_links(ep), 0, "rank {}", ep.rank());
        }
        // Repeat sends reuse the dialed link instead of opening more.
        endpoints[0]
            .send(1, 0, Tag::app(1), Bytes::from_static(b"again"), None)
            .unwrap();
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(1)).unwrap(), "again");
        assert_eq!(outbound_links(&endpoints[0]), 1);
    }

    #[test]
    fn multicast_reaches_every_destination() {
        let endpoints = build_tcp_fabric(4).unwrap();
        let payload: Vec<u8> = (0..500_000u32).map(|i| (i % 251) as u8).collect();
        endpoints[1]
            .multicast(
                &[0, 2, 3],
                0,
                Tag::app(9),
                Bytes::from(payload.clone()),
                None,
            )
            .unwrap();
        for dst in [0usize, 2, 3] {
            let got = endpoints[dst].recv(1, 0, Tag::app(9)).unwrap();
            assert_eq!(&got[..], &payload[..], "dst {dst}");
        }
    }

    #[test]
    fn multicast_including_self_delivers_locally() {
        let endpoints = build_tcp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[0, 1], 0, Tag::app(2), Bytes::from_static(b"both"), None)
            .unwrap();
        assert_eq!(endpoints[0].recv(0, 0, Tag::app(2)).unwrap(), "both");
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(2)).unwrap(), "both");
    }

    #[test]
    fn multicast_duplicate_destinations_deliver_once_without_deadlock() {
        let endpoints = build_tcp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[1, 1], 0, Tag::app(0), Bytes::from_static(b"dup"), None)
            .unwrap();
        assert_eq!(endpoints[1].recv(0, 0, Tag::app(0)).unwrap(), "dup");
        assert!(nothing_from(&endpoints[1], 0, Tag::app(0)));
    }

    #[test]
    fn multicast_rejects_invalid_rank_before_sending() {
        let endpoints = build_tcp_fabric(2).unwrap();
        let err = endpoints[0]
            .multicast(&[1, 9], 0, Tag::app(0), Bytes::from_static(b"x"), None)
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidRank { rank: 9, .. }));
        // Nothing was sent to the valid destination either.
        assert!(nothing_from(&endpoints[1], 0, Tag::app(0)));
    }

    #[test]
    fn multicast_finishes_the_healthy_copies_and_reports_the_failed_one() {
        let mut endpoints = build_tcp_fabric(3).unwrap();
        endpoints[0]
            .multicast(&[1, 2], 0, Tag::app(0), Bytes::from_static(b"warm"), None)
            .unwrap();
        assert_eq!(endpoints[2].recv(0, 0, Tag::app(0)).unwrap(), "warm");
        // Rank 1 goes away; its end of the 0 → 1 link resets the writes.
        drop(endpoints.remove(1));
        let payload = Bytes::from(vec![3u8; 1 << 20]);
        let mut result = Ok(());
        for round in 1..=8 {
            result = endpoints[0].multicast(&[1, 2], 0, Tag::app(round), payload.clone(), None);
            let got = endpoints[1].recv(0, 0, Tag::app(round)).unwrap();
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
            .send(1, 0, Tag::app(7), Bytes::from_static(b"warm"), None)
            .unwrap();
        assert_eq!(b.recv(0, 0, Tag::app(7)).unwrap(), "warm");
        let handle = std::thread::spawn(move || b.recv(0, 0, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        drop(endpoints); // drops endpoint 0 → socket shutdown → b's reader EOFs
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(NetError::Disconnected { .. })));
    }

    #[test]
    fn invalid_rank_rejected() {
        let endpoints = build_tcp_fabric(2).unwrap();
        assert!(matches!(
            endpoints[0].send(7, 0, Tag::app(0), Bytes::new(), None),
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
                    ep.send(other, 0, Tag::app(0), Bytes::from(big.clone()), None)
                        .unwrap();
                    let got = ep.recv(other, 0, Tag::app(0)).unwrap();
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
                    ep.send(1, 0, Tag::app(t), Bytes::copy_from_slice(&[t as u8]), None)
                        .unwrap();
                });
            }
        });
        for t in 0..4u32 {
            assert_eq!(endpoints[1].recv(0, 0, Tag::app(t)).unwrap()[0], t as u8);
        }
        assert_eq!(outbound_links(&endpoints[0]), 1);
    }
}
