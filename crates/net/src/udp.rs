//! Physical UDP/IP-multicast transport with a NACK-based reliability layer.
//!
//! Every other fabric in this crate *emulates* the paper's headline gain —
//! one coded transmission serving `r` receivers — by charging a single
//! egress crossing while really copying bytes per receiver. This module
//! makes the gain physical: a coded packet is chunked to fit the MTU and
//! sent as **one stream of UDP datagrams to a multicast group address**
//! ([`std::net::UdpSocket::join_multicast_v4`]); the kernel's network
//! stack, not the application, fans it out to the receiver set.
//!
//! ## Architecture
//!
//! * **Group addressing** — [`registry::UdpGroupPlan`](crate::registry::UdpGroupPlan)
//!   hashes each multicast set (receiver bitmask) onto a small pool of
//!   administratively scoped group addresses sharing one UDP port. All
//!   endpoints join the pool once at bring-up (Linux caps IGMP memberships
//!   per socket, so per-`C(K, r+1)`-group memberships cannot scale);
//!   receiver-mask filtering in the chunk header resolves pool collisions,
//!   like coarse IGMP snooping on a real switch.
//! * **Chunking** — a payload is split into datagrams of
//!   `CHUNK_BYTES` (1400 B, conservatively under an
//!   Ethernet MTU with the 40-byte chunk header), each carrying
//!   `(sender, seq, tag, chunk index/count, receiver mask)`.
//! * **Reassembly** — one fabric-wide dispatcher thread reads the shared
//!   receive socket and feeds each rank's reassembly table; a completed
//!   message is delivered exactly once into that rank's mailbox — the one
//!   its [`tcp`](crate::tcp) endpoint owns, so a rank has a single queue
//!   and a single blocking wait whichever path a message took. (On a
//!   real LAN each host would own its socket; the shared receive socket is
//!   purely a single-host-emulation artifact, mirroring how
//!   [`local`](crate::local) shares memory.)
//! * **Loss recovery** — a receiver detects a stall while blocked in a
//!   wait, on one key or on thousands: after [`UdpConfig::nack_interval`]
//!   without a message it runs a bounded *recovery round* over the **TCP
//!   control channel** (the lazy [`tcp`](crate::tcp) mesh underneath)
//!   against every source it awaits: a status request returns the sender's
//!   retained `(seq, tag, chunk count)` manifest for this receiver, and a
//!   NACK with a missing-chunk bitmap — sent only for a message under an
//!   awaited key — triggers retransmission. The first
//!   [`UdpConfig::max_multicast_repairs`] NACKs of a message are served by
//!   re-multicasting the missing chunks (they may help other receivers
//!   too); after that the sender falls back to lossless TCP unicast
//!   repair, so recovery always terminates.
//! * **Unicast and collectives** — [`Transport::send`] (barriers, gathers,
//!   TeraSort's unicast shuffle) rides the TCP mesh unchanged; only
//!   [`Transport::multicast`] takes the physical path.
//!
//! Delivery is exactly-once per message (duplicates are absorbed by the
//! reassembly table), but under loss two messages carrying the *same*
//! `(source, tag)` pair can complete out of send order — callers must use
//! distinct tags for concurrently in-flight multicasts, which the coded
//! engine's one-tag-per-group discipline satisfies.
//!
//! Kernels can deny multicast membership (containers without a
//! multicast-capable interface); [`build_udp_fabric`] probes loopback
//! delivery at bring-up and fails with a descriptive
//! [`NetError::Io`](crate::error::NetError) so tests and CI can skip
//! gracefully — check [`multicast_available`] first.
//!
//! ```no_run
//! use bytes::Bytes;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//! use cts_net::udp::build_udp_fabric;
//!
//! let endpoints = build_udp_fabric(3).unwrap();
//! // One physical multicast: a single datagram stream serves both.
//! endpoints[0]
//!     .multicast(&[1, 2], Tag::app(0), Bytes::from_static(b"coded"))
//!     .unwrap();
//! assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "coded");
//! assert_eq!(endpoints[2].recv(0, Tag::app(0)).unwrap(), "coded");
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{NetError, Result};
use crate::fault::{DatagramAction, DatagramRule};
use crate::mailbox::Mailbox;
use crate::message::{Key, Message, Tag};
use crate::registry::UdpGroupPlan;
use crate::tcp::{build_tcp_fabric, TcpEndpoint};
use crate::transport::Transport;

/// First bytes of every data chunk ("CTSU" little-endian).
const MAGIC: u32 = 0x5553_5443;
/// Magic of the bring-up probe datagram, so stray probes never enter
/// reassembly.
const PROBE_MAGIC: u32 = 0x5053_5443;
/// Fixed chunk header size on the wire.
const HEADER_LEN: usize = 40;
/// Control-channel tags (constant sub-sequence; the mailbox FIFO per
/// `(src, tag)` orders the streams).
const CTRL_TAG: Tag = Tag((Tag::UDP_CTRL as u32) << 24);
const REPLY_TAG: Tag = Tag((Tag::UDP_REPLY as u32) << 24);
const REPAIR_TAG: Tag = Tag((Tag::UDP_REPAIR as u32) << 24);
/// How long a recovery round waits for its status replies, all of them.
const STATUS_REPLY_TIMEOUT: Duration = Duration::from_millis(250);

/// Counters describing the UDP fabric's datagram-level behaviour, shared
/// by every endpoint of one fabric. Tests keep a clone of the
/// [`UdpConfig::stats`] handle to assert delivery really went over
/// multicast and that loss recovery stayed within its retransmit budget.
#[derive(Debug, Default)]
pub struct UdpFabricStats {
    datagrams_sent: AtomicU64,
    datagrams_received: AtomicU64,
    dropped_by_fault: AtomicU64,
    messages_completed: AtomicU64,
    nacks_sent: AtomicU64,
    status_rounds: AtomicU64,
    mcast_repair_chunks: AtomicU64,
    tcp_repair_chunks: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        $( $(#[$doc])* pub fn $field(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        } )*
    };
}

impl UdpFabricStats {
    stat_getters! {
        /// Data chunks that left a sender socket (first transmissions plus
        /// multicast repairs).
        datagrams_sent,
        /// Data chunks the dispatcher read off the shared receive socket.
        datagrams_received,
        /// Chunks suppressed by the injected [`DatagramRule`].
        dropped_by_fault,
        /// Messages fully reassembled and delivered (across all ranks).
        messages_completed,
        /// NACKs receivers sent over the TCP control channel.
        nacks_sent,
        /// Status-request recovery rounds receivers ran.
        status_rounds,
        /// Missing chunks re-multicast in response to NACKs.
        mcast_repair_chunks,
        /// Missing chunks repaired over lossless TCP unicast (the
        /// post-budget fallback).
        tcp_repair_chunks,
    }
}

/// Payload bytes per datagram (the MTU budget minus the 40-byte chunk
/// header): under a 1500-byte Ethernet MTU, so chunks never rely on IP
/// fragmentation on a real LAN.
const CHUNK_BYTES: usize = 1400;
// A chunk plus its header must fit one legal IPv4 UDP datagram (65 507
// payload bytes) and the dispatcher's receive buffer, and its size the
// header's 16-bit `nominal`.
const _: () = assert!(CHUNK_BYTES > 0 && CHUNK_BYTES + HEADER_LEN <= 65_507);
/// Recovery rounds *with something outstanding to repair* a single
/// receive attempts before giving up with `Timeout` (bounding a loss
/// stall at roughly `MAX_RECOVERY_ROUNDS × nack_interval`). Rounds
/// where the awaited sender simply has not sent yet do not count —
/// `recv` blocks indefinitely on healthy silence like every other
/// transport.
const MAX_RECOVERY_ROUNDS: u32 = 400;
/// Sent messages retained per endpoint for repair (ring buffer; a NACK
/// for an evicted message cannot be served).
const HISTORY: u32 = 4096;

/// Tuning knobs of the UDP fabric (the multicast group-address pool is
/// [`UdpGroupPlan::POOL`]).
#[derive(Clone)]
pub struct UdpConfig {
    /// How long a blocked receive stays quiet before running a NACK /
    /// status recovery round against the awaited senders.
    pub nack_interval: Duration,
    /// How many NACKs of one message are served by *re-multicasting* the
    /// missing chunks before the sender falls back to TCP unicast repair.
    pub max_multicast_repairs: u32,
    /// Injected datagram loss for tests (see
    /// [`fault::datagram_loss_rule`](crate::fault::datagram_loss_rule)).
    pub fault: Option<Arc<DatagramRule>>,
    /// Shared counter sink; clone the handle before building the fabric to
    /// observe it from outside.
    pub stats: Arc<UdpFabricStats>,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            nack_interval: Duration::from_millis(20),
            max_multicast_repairs: 2,
            fault: None,
            stats: Arc::new(UdpFabricStats::default()),
        }
    }
}

impl std::fmt::Debug for UdpConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpConfig")
            .field("nack_interval", &self.nack_interval)
            .field("max_multicast_repairs", &self.max_multicast_repairs)
            .field("fault", &self.fault.as_ref().map(|_| "<rule>"))
            .finish_non_exhaustive()
    }
}

/// One data chunk's header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ChunkHeader {
    sender: u16,
    chunk_idx: u16,
    chunk_count: u16,
    /// The sender's nominal chunk payload size, so receivers place any
    /// chunk at `chunk_idx × nominal` without needing chunk 0 first.
    nominal: u16,
    seq: u32,
    tag: u32,
    total_len: u32,
    mask: u128,
}

impl ChunkHeader {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.sender.to_le_bytes());
        out.extend_from_slice(&self.chunk_idx.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.nominal.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.mask.to_le_bytes());
    }

    fn parse(buf: &[u8]) -> Option<ChunkHeader> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let u16_at = |i: usize| u16::from_le_bytes(buf[i..i + 2].try_into().expect("2 bytes"));
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("4 bytes"));
        if u32_at(0) != MAGIC {
            return None;
        }
        Some(ChunkHeader {
            sender: u16_at(4),
            chunk_idx: u16_at(6),
            chunk_count: u16_at(8),
            nominal: u16_at(10),
            seq: u32_at(12),
            tag: u32_at(16),
            total_len: u32_at(20),
            mask: u128::from_le_bytes(buf[24..40].try_into().expect("16 bytes")),
        })
    }
}

/// A message being reassembled from its chunks.
#[derive(Debug)]
struct Reassembly {
    tag: u32,
    total_len: usize,
    chunk_count: u16,
    nominal: usize,
    have: Vec<bool>,
    got: u16,
    buf: Vec<u8>,
}

impl Reassembly {
    fn new(tag: u32, total_len: usize, chunk_count: u16, nominal: usize) -> Reassembly {
        Reassembly {
            tag,
            total_len,
            chunk_count,
            nominal,
            have: vec![false; chunk_count as usize],
            got: 0,
            buf: vec![0u8; total_len],
        }
    }

    /// Bitmap of still-missing chunks (bit set = missing), for NACKs.
    fn missing_bitmap(&self) -> Vec<u8> {
        let mut bits = vec![0u8; self.have.len().div_ceil(8)];
        for (i, have) in self.have.iter().enumerate() {
            if !have {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        bits
    }
}

/// Per-rank receive state: reassembly table plus the mailbox completed
/// messages are delivered into (the rank's TCP endpoint's).
struct RankRx {
    mailbox: Arc<Mailbox>,
    state: Mutex<RxState>,
}

#[derive(Default)]
struct RxState {
    partial: HashMap<(u16, u32), Reassembly>,
    /// Seqs already delivered, for exactly-once absorption of duplicates
    /// and late repairs (pruned past the dedup horizon).
    done: HashSet<(u16, u32)>,
    /// Highest seq seen per sender, driving `done` pruning.
    max_seq: HashMap<u16, u32>,
}

impl RankRx {
    fn new(mailbox: Arc<Mailbox>) -> RankRx {
        RankRx {
            mailbox,
            state: Mutex::new(RxState::default()),
        }
    }

    /// Feeds one chunk (from the dispatcher or a TCP repair frame) into
    /// reassembly; delivers the message on completion. Malformed chunks
    /// are dropped — the reliability layer treats them as lost.
    fn ingest(&self, h: &ChunkHeader, data: &[u8], stats: &UdpFabricStats) {
        let key = (h.sender, h.seq);
        // Shape sanity: the chunk count must be exactly what the declared
        // total length and nominal chunk size imply, which also guarantees
        // every chunk's offset lands inside the reassembly buffer — a
        // forged or corrupt header can otherwise point past it. The rx
        // socket is joined to well-known group addresses, so hostile
        // datagrams must never panic the fabric-wide dispatcher.
        if h.chunk_count == 0 || h.chunk_idx >= h.chunk_count || h.nominal == 0 {
            return;
        }
        let implied = (h.total_len as usize).div_ceil(h.nominal as usize).max(1);
        if h.chunk_count as usize != implied {
            return;
        }
        let mut state = self.state.lock();
        if state.done.contains(&key) {
            return;
        }
        let entry = state.partial.entry(key).or_insert_with(|| {
            Reassembly::new(
                h.tag,
                h.total_len as usize,
                h.chunk_count,
                h.nominal as usize,
            )
        });
        // A chunk disagreeing with the established shape is corrupt: drop.
        if entry.chunk_count != h.chunk_count
            || entry.total_len != h.total_len as usize
            || entry.nominal != h.nominal as usize
            || entry.tag != h.tag
        {
            return;
        }
        let offset = h.chunk_idx as usize * entry.nominal;
        let expected = entry.nominal.min(entry.total_len.saturating_sub(offset));
        if data.len() != expected {
            return;
        }
        if entry.have[h.chunk_idx as usize] {
            return; // duplicate
        }
        entry.buf[offset..offset + expected].copy_from_slice(data);
        entry.have[h.chunk_idx as usize] = true;
        entry.got += 1;
        if entry.got == entry.chunk_count {
            let done = state.partial.remove(&key).expect("entry just updated");
            state.done.insert(key);
            let max = state.max_seq.entry(h.sender).or_insert(h.seq);
            if h.seq > *max {
                *max = h.seq;
            }
            // Amortized prune: once the dedup set outgrows a few horizons,
            // drop entries no sender's repair ring can re-send. The horizon
            // mirrors the sender's `HISTORY` ring: duplicates of a message can
            // only originate from repairs, and a sender can only repair what
            // its ring still retains, so `done` entries older than that below
            // the highest seq seen per sender are safe to forget — this bounds
            // receiver state for long-lived fabrics.
            if state.done.len() > HISTORY as usize * 4 {
                let RxState { done, max_seq, .. } = &mut *state;
                done.retain(|(s, q)| {
                    max_seq
                        .get(s)
                        .is_none_or(|m| *q >= m.saturating_sub(HISTORY))
                });
            }
            drop(state);
            stats.messages_completed.fetch_add(1, Ordering::Relaxed);
            self.mailbox.deliver(Message {
                src: h.sender as usize,
                tag: Tag(done.tag),
                payload: Bytes::from(done.buf),
            });
        }
    }
}

/// State shared by every endpoint of one UDP fabric.
struct FabricCore {
    plan: UdpGroupPlan,
    rx: Vec<Arc<RankRx>>,
    stats: Arc<UdpFabricStats>,
    stop: AtomicBool,
    live: AtomicUsize,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

/// One message retained for repair.
struct SentMsg {
    seq: u32,
    tag: u32,
    mask: u128,
    payload: Bytes,
    /// NACKs of this message already served by re-multicast; beyond
    /// [`UdpConfig::max_multicast_repairs`], repairs go over TCP.
    repair_rounds: u32,
}

#[derive(Default)]
struct SendHistory {
    next_seq: u32,
    ring: VecDeque<SentMsg>,
}

/// The endpoint internals, shared with the control-servicer thread.
struct Shared {
    rank: usize,
    tcp: Arc<TcpEndpoint>,
    core: Arc<FabricCore>,
    cfg: UdpConfig,
    tx: UdpSocket,
    history: Mutex<SendHistory>,
    dg_index: AtomicU64,
}

impl Shared {
    /// Sends the chunks of one message (all of them, or just the NACKed
    /// subset) as multicast datagrams to the mask's group address.
    fn send_chunks(
        &self,
        mask: u128,
        seq: u32,
        tag: u32,
        payload: &[u8],
        only_missing: Option<&[u8]>,
    ) -> Result<()> {
        let nominal = CHUNK_BYTES;
        let chunk_count = chunk_count_for(payload.len(), nominal)?;
        let addr = self.core.plan.addr_for(mask);
        let mut frame = Vec::with_capacity(HEADER_LEN + nominal);
        for (idx, span) in chunk_spans(payload.len(), nominal, chunk_count, only_missing) {
            frame.clear();
            ChunkHeader {
                sender: self.rank as u16,
                chunk_idx: idx,
                chunk_count,
                nominal: nominal as u16,
                seq,
                tag,
                total_len: payload.len() as u32,
                mask,
            }
            .write(&mut frame);
            frame.extend_from_slice(&payload[span]);
            let dgi = self.dg_index.fetch_add(1, Ordering::Relaxed);
            if let Some(rule) = &self.cfg.fault {
                if rule(self.rank, mask, seq, idx, dgi) == DatagramAction::Drop {
                    self.core
                        .stats
                        .dropped_by_fault
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            self.tx.send_to(&frame, addr)?;
            self.core
                .stats
                .datagrams_sent
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// One recovery round for a wait on `keys` that has gone quiet: ask every
    /// source among them for its manifest of messages addressed to us — all
    /// requests first, then the replies as they come, under one
    /// [`STATUS_REPLY_TIMEOUT`] cut short at the wait's `deadline` — and NACK
    /// what is incomplete of the messages the wait is for. A message under a
    /// key nobody lists is left alone: to stop awaiting is to stop repairing.
    /// Returns whether anything was outstanding (a NACK sent, or a source
    /// that did not reply while an awaited message from it sits partial) — an
    /// idle round means the peers simply have not sent yet, which must not
    /// count against the caller's recovery budget.
    fn recovery_round(&self, keys: &[Key], deadline: Option<Instant>) -> Result<bool> {
        let stats = &self.core.stats;
        stats.status_rounds.fetch_add(1, Ordering::Relaxed);
        let world = self.tcp.world_size();
        let mut asked = vec![false; world];
        for &(_, src) in keys {
            if src < world && src != self.rank && !std::mem::replace(&mut asked[src], true) {
                self.tcp
                    .send(src, CTRL_TAG, Bytes::from_static(&[CTRL_STATUS_REQ]))?;
            }
        }
        // Ascending by source under one tag: sorted, as `recv_any` wants.
        let mut replies: Vec<Key> = (0..world)
            .filter(|&src| asked[src])
            .map(|src| (REPLY_TAG, src))
            .collect();
        let reply_by = Instant::now() + STATUS_REPLY_TIMEOUT;
        let reply_by = deadline.map_or(reply_by, |d| d.min(reply_by));
        let awaited = |tag: u32, src: usize| keys.binary_search(&(Tag(tag), src)).is_ok();
        let rx = &self.core.rx[self.rank];
        let mut outstanding = false;
        while !replies.is_empty() {
            let (at, reply) = match self.tcp.recv_any(&replies, Some(reply_by)) {
                Ok(hit) => hit,
                Err(NetError::Timeout { .. }) => {
                    let silent = |src: usize| replies.contains(&(REPLY_TAG, src));
                    let state = rx.state.lock();
                    let mut partial = state.partial.iter().map(|(&(s, _), p)| (s as usize, p.tag));
                    return Ok(outstanding || partial.any(|(s, tag)| silent(s) && awaited(tag, s)));
                }
                Err(e) => return Err(e),
            };
            let (_, src) = replies.remove(at);
            for (seq, tag, chunk_count, total_len, nominal) in parse_status_reply(&reply) {
                if !awaited(tag, src) {
                    continue;
                }
                let mut state = rx.state.lock();
                if state.done.contains(&(src as u16, seq)) {
                    continue;
                }
                let entry = state.partial.entry((src as u16, seq)).or_insert_with(|| {
                    Reassembly::new(tag, total_len as usize, chunk_count, nominal as usize)
                });
                let bitmap = entry.missing_bitmap();
                drop(state);
                if bitmap.iter().all(|b| *b == 0) {
                    continue;
                }
                outstanding = true;
                let mut nack = Vec::with_capacity(7 + bitmap.len());
                nack.push(CTRL_NACK);
                nack.extend_from_slice(&seq.to_le_bytes());
                nack.extend_from_slice(&chunk_count.to_le_bytes());
                nack.extend_from_slice(&bitmap);
                self.tcp.send(src, CTRL_TAG, Bytes::from(nack))?;
                stats.nacks_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(outstanding)
    }
}

const CTRL_STATUS_REQ: u8 = 0;
const CTRL_NACK: u8 = 1;

/// Iterates `(chunk_idx, payload byte range)` over a message's chunks,
/// restricted to the ones a NACK bitmap marks missing (`None` = all).
/// Shared by the multicast send path and the TCP repair path so the two
/// wire forms can never disagree on chunk addressing.
fn chunk_spans<'a>(
    len: usize,
    nominal: usize,
    chunk_count: u16,
    missing: Option<&'a [u8]>,
) -> impl Iterator<Item = (u16, std::ops::Range<usize>)> + 'a {
    (0..chunk_count).filter_map(move |idx| {
        let i = idx as usize;
        if let Some(bits) = missing {
            if i / 8 >= bits.len() || bits[i / 8] & (1 << (i % 8)) == 0 {
                return None;
            }
        }
        let offset = i * nominal;
        Some((idx, offset..(offset + nominal).min(len)))
    })
}

fn chunk_count_for(len: usize, nominal: usize) -> Result<u16> {
    let count = len.div_ceil(nominal).max(1);
    u16::try_from(count).map_err(|_| NetError::Io {
        what: format!(
            "payload of {len} bytes exceeds {} chunks of {nominal}",
            u16::MAX
        ),
    })
}

/// Status-reply wire format: `[n u32]` then `n` entries of
/// `[seq u32][tag u32][chunk_count u16][nominal u16][total_len u32]`.
fn parse_status_reply(buf: &[u8]) -> Vec<(u32, u32, u16, u32, u16)> {
    let mut out = Vec::new();
    if buf.len() < 4 {
        return out;
    }
    let n = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let mut at = 4;
    for _ in 0..n {
        if at + 16 > buf.len() {
            break;
        }
        let seq = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4"));
        let tag = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4"));
        let chunk_count = u16::from_le_bytes(buf[at + 8..at + 10].try_into().expect("2"));
        let nominal = u16::from_le_bytes(buf[at + 10..at + 12].try_into().expect("2"));
        let total_len = u32::from_le_bytes(buf[at + 12..at + 16].try_into().expect("4"));
        out.push((seq, tag, chunk_count, total_len, nominal));
        at += 16;
    }
    out
}

/// The fabric-wide dispatcher: reads the shared receive socket, filters by
/// receiver mask, and feeds each addressed rank's reassembly table — the
/// single-host stand-in for per-host multicast reception.
fn dispatcher_loop(sock: UdpSocket, core: &FabricCore) {
    let mut buf = vec![0u8; 65536];
    let world = core.rx.len();
    while !core.stop.load(Ordering::Acquire) {
        let n = match sock.recv_from(&mut buf) {
            Ok((n, _)) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let Some(h) = ChunkHeader::parse(&buf[..n]) else {
            continue; // probe datagrams and foreign traffic
        };
        core.stats
            .datagrams_received
            .fetch_add(1, Ordering::Relaxed);
        let data = &buf[HEADER_LEN..n];
        let mut mask = h.mask;
        while mask != 0 {
            let rank = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if rank < world && rank != h.sender as usize {
                core.rx[rank].ingest(&h, data, &core.stats);
            }
        }
    }
}

/// The per-endpoint control servicer: answers status requests with the
/// send-history manifest, and serves NACKs by re-multicasting missing
/// chunks (within budget) or repairing over TCP; inbound TCP repair
/// chunks are fed into this rank's own reassembly. It blocks in one wait
/// over every peer's control and repair keys until the endpoint shuts down
/// (which closes the mailbox) or the fabric goes down around it.
fn servicer_loop(shared: &Shared) {
    let peers = (0..shared.tcp.world_size()).filter(|&src| src != shared.rank);
    let mut keys: Vec<Key> = peers
        .flat_map(|src| [(CTRL_TAG, src), (REPAIR_TAG, src)])
        .collect();
    keys.sort_unstable();
    while !keys.is_empty() {
        match shared.tcp.recv_any(&keys, None) {
            Ok((at, msg)) if keys[at].0 == CTRL_TAG => {
                let _ = handle_ctrl(shared, keys[at].1, &msg);
            }
            Ok((at, msg)) => handle_repair(shared, keys[at].1, &msg),
            // A peer the health layer declared dead asks for nothing more.
            Err(NetError::PeerDead { peer, .. }) => keys.retain(|&(_, src)| src != peer),
            Err(_) => break,
        }
    }
}

fn handle_ctrl(shared: &Shared, src: usize, msg: &[u8]) -> Result<()> {
    match msg.first() {
        Some(&CTRL_STATUS_REQ) => {
            let bit = 1u128 << src;
            let history = shared.history.lock();
            // `multicast` validates the chunk count before recording
            // history, so every retained entry chunks cleanly; skip (never
            // panic over) anything that somehow does not — this thread
            // serves the whole rank's reliability layer.
            let mine: Vec<&SentMsg> = history
                .ring
                .iter()
                .filter(|m| {
                    m.mask & bit != 0 && chunk_count_for(m.payload.len(), CHUNK_BYTES).is_ok()
                })
                .collect();
            let mut reply = Vec::with_capacity(4 + mine.len() * 16);
            reply.extend_from_slice(&(mine.len() as u32).to_le_bytes());
            for m in &mine {
                let chunk_count =
                    chunk_count_for(m.payload.len(), CHUNK_BYTES).expect("filtered above");
                reply.extend_from_slice(&m.seq.to_le_bytes());
                reply.extend_from_slice(&m.tag.to_le_bytes());
                reply.extend_from_slice(&chunk_count.to_le_bytes());
                reply.extend_from_slice(&(CHUNK_BYTES as u16).to_le_bytes());
                reply.extend_from_slice(&(m.payload.len() as u32).to_le_bytes());
            }
            drop(history);
            shared.tcp.send(src, REPLY_TAG, Bytes::from(reply))
        }
        Some(&CTRL_NACK) if msg.len() >= 7 => {
            let seq = u32::from_le_bytes(msg[1..5].try_into().expect("4 bytes"));
            let bitmap = &msg[7..];
            let mut history = shared.history.lock();
            let Some(m) = history.ring.iter_mut().find(|m| m.seq == seq) else {
                return Ok(()); // evicted from the ring: unrepairable
            };
            m.repair_rounds += 1;
            let (mask, tag, payload, rounds) = (m.mask, m.tag, m.payload.clone(), m.repair_rounds);
            drop(history);
            if rounds <= shared.cfg.max_multicast_repairs {
                let before = shared.core.stats.datagrams_sent.load(Ordering::Relaxed);
                shared.send_chunks(mask, seq, tag, &payload, Some(bitmap))?;
                let sent = shared.core.stats.datagrams_sent.load(Ordering::Relaxed) - before;
                shared
                    .core
                    .stats
                    .mcast_repair_chunks
                    .fetch_add(sent, Ordering::Relaxed);
            } else {
                repair_over_tcp(shared, src, seq, tag, &payload, bitmap)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Sends the NACKed chunks as TCP repair frames:
/// `[seq u32][tag u32][chunk_idx u16][chunk_count u16][nominal u16][total_len u32][data]`.
fn repair_over_tcp(
    shared: &Shared,
    dst: usize,
    seq: u32,
    tag: u32,
    payload: &[u8],
    bitmap: &[u8],
) -> Result<()> {
    let nominal = CHUNK_BYTES;
    let chunk_count = chunk_count_for(payload.len(), nominal)?;
    for (idx, span) in chunk_spans(payload.len(), nominal, chunk_count, Some(bitmap)) {
        let mut frame = Vec::with_capacity(18 + span.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&idx.to_le_bytes());
        frame.extend_from_slice(&chunk_count.to_le_bytes());
        frame.extend_from_slice(&(nominal as u16).to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload[span]);
        shared.tcp.send(dst, REPAIR_TAG, Bytes::from(frame))?;
        shared
            .core
            .stats
            .tcp_repair_chunks
            .fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

fn handle_repair(shared: &Shared, src: usize, msg: &[u8]) {
    if msg.len() < 18 {
        return;
    }
    let h = ChunkHeader {
        sender: src as u16,
        chunk_idx: u16::from_le_bytes(msg[8..10].try_into().expect("2")),
        chunk_count: u16::from_le_bytes(msg[10..12].try_into().expect("2")),
        nominal: u16::from_le_bytes(msg[12..14].try_into().expect("2")),
        seq: u32::from_le_bytes(msg[0..4].try_into().expect("4")),
        tag: u32::from_le_bytes(msg[4..8].try_into().expect("4")),
        total_len: u32::from_le_bytes(msg[14..18].try_into().expect("4")),
        mask: 1u128 << shared.rank,
    };
    shared.core.rx[shared.rank].ingest(&h, &msg[18..], &shared.core.stats);
}

/// One endpoint of a UDP-multicast fabric: physical multicast for group
/// sends, the lazy TCP mesh for unicasts and control traffic.
pub struct UdpEndpoint {
    shared: Arc<Shared>,
    servicer: Mutex<Option<JoinHandle<()>>>,
}

impl UdpEndpoint {
    fn teardown(&self) {
        self.shutdown();
        if let Some(handle) = self.servicer.lock().take() {
            let _ = handle.join();
        }
        let core = &self.shared.core;
        if core.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            core.stop.store(true, Ordering::Release);
            if let Some(handle) = core.dispatcher.lock().take() {
                let _ = handle.join();
            }
        }
    }
}

impl Transport for UdpEndpoint {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn world_size(&self) -> usize {
        self.shared.tcp.world_size()
    }

    /// Point-to-point sends ride the TCP control channel (they need
    /// per-pair ordering, which raw datagrams cannot give).
    fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        self.shared.tcp.send(dst, tag, payload)
    }

    /// The physical one-to-many primitive: one chunked datagram stream to
    /// the destination set's multicast group address.
    fn multicast(&self, dsts: &[usize], tag: Tag, payload: Bytes) -> Result<()> {
        let shared = &self.shared;
        let world = self.world_size();
        let mut mask = 0u128;
        let mut to_self = false;
        for &dst in dsts {
            if dst >= world {
                return Err(NetError::InvalidRank { rank: dst, world });
            }
            if dst == shared.rank {
                to_self = true;
            } else {
                mask |= 1u128 << dst;
            }
        }
        if to_self {
            shared.tcp.send(shared.rank, tag, payload.clone())?;
        }
        if mask == 0 {
            return Ok(());
        }
        // Reject unsendable payloads *before* recording history: an entry
        // that can never be chunked must not be advertised to receivers
        // (the servicer builds status replies from the ring and relies on
        // every retained message chunking cleanly).
        chunk_count_for(payload.len(), CHUNK_BYTES)?;
        let seq = {
            let mut history = shared.history.lock();
            let seq = history.next_seq;
            history.next_seq = history.next_seq.wrapping_add(1);
            history.ring.push_back(SentMsg {
                seq,
                tag: tag.0,
                mask,
                payload: payload.clone(),
                repair_rounds: 0,
            });
            while history.ring.len() > HISTORY as usize {
                history.ring.pop_front();
            }
            seq
        };
        shared.send_chunks(mask, seq, tag.0, &payload, None)
    }

    /// One blocking wait on the rank's mailbox, whatever path the message
    /// takes and however many keys are listed; a dead or disconnected
    /// source and shutdown end it as on every other transport. Each time
    /// the wait has been quiet for [`UdpConfig::nack_interval`] it runs a
    /// recovery round against every source it awaits. Only rounds that
    /// found something outstanding to repair count against the bounded
    /// recovery budget, so peers that simply have not sent yet keep the
    /// wait blocking like on every other transport, while each idle round
    /// doubles the quiet interval (up to 32×) so that a long compute-stage
    /// wait does not spam them. A message taken ends the call, and the next
    /// one starts the clock afresh.
    fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        let shared = &self.shared;
        let mut repair_rounds = 0u32;
        let mut idle_rounds = 0u32;
        loop {
            let repair_at = Instant::now() + shared.cfg.nack_interval * (1 << idle_rounds.min(5));
            let until = deadline.map_or(repair_at, |d| d.min(repair_at));
            let timeout = match shared.tcp.recv_any(keys, Some(until)) {
                Err(e @ NetError::Timeout { .. }) => e,
                other => return other,
            };
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(timeout);
            }
            if shared.recovery_round(keys, deadline)? {
                idle_rounds = 0;
                repair_rounds += 1;
                if repair_rounds > MAX_RECOVERY_ROUNDS {
                    return Err(timeout);
                }
            } else {
                idle_rounds = idle_rounds.saturating_add(1);
            }
        }
    }

    fn shutdown(&self) {
        // Closes the mailbox, which ends every wait on it — the servicer's too.
        self.shared.tcp.shutdown();
    }

    fn mark_peer_dead(&self, peer: usize) {
        self.shared.tcp.mark_peer_dead(peer);
    }
}

impl Drop for UdpEndpoint {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Opens a transmit socket configured for host-looped multicast. `std`
/// exposes no `IP_MULTICAST_IF` setter, so datagrams leave via the
/// kernel's default multicast route — the bring-up probe verifies that
/// this route loops deliveries back to local group members before the
/// fabric is handed out.
fn open_tx() -> std::io::Result<UdpSocket> {
    let tx = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?;
    tx.set_multicast_loop_v4(true)?;
    Ok(tx)
}

/// Binds the shared receive socket, joins the whole group pool on `iface`,
/// and verifies loopback delivery end to end with a probe datagram through
/// the real transmit path.
fn try_open_rx(
    pool: &[Ipv4Addr],
    port_group: Ipv4Addr,
    iface: Ipv4Addr,
) -> std::io::Result<UdpSocket> {
    let rx = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?;
    let port = rx.local_addr()?.port();
    for group in pool {
        rx.join_multicast_v4(group, &iface)?;
    }
    let tx = open_tx()?;
    rx.set_read_timeout(Some(Duration::from_millis(100)))?;
    let probe = PROBE_MAGIC.to_le_bytes();
    let mut buf = [0u8; 64];
    for _attempt in 0..3 {
        tx.send_to(&probe, SocketAddrV4::new(port_group, port))?;
        loop {
            match rx.recv_from(&mut buf) {
                Ok((n, _)) if n >= 4 && buf[..4] == probe => return Ok(rx),
                Ok(_) => continue, // foreign datagram: keep draining
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "multicast probe was not looped back",
    ))
}

/// Joins the pool and probes delivery on the candidate join interfaces,
/// returning the verified receive socket.
fn open_rx(pool: &[Ipv4Addr]) -> Result<UdpSocket> {
    let mut last = String::from("no interface candidates");
    for iface in [Ipv4Addr::UNSPECIFIED, Ipv4Addr::LOCALHOST] {
        match try_open_rx(pool, pool[0], iface) {
            Ok(rx) => return Ok(rx),
            Err(e) => last = format!("iface {iface}: {e}"),
        }
    }
    Err(NetError::Io {
        what: format!("udp-multicast unavailable: {last}"),
    })
}

/// Whether this kernel/interface setup supports the UDP-multicast fabric
/// (join + loopback delivery). Probed once and cached; tests and the CI
/// smoke job consult this to skip gracefully.
pub fn multicast_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| open_rx(&UdpGroupPlan::new(0).pool()[..1]).is_ok())
}

/// The canonical skip guard for tests and smoke jobs that need the UDP
/// fabric: returns `true` (after explaining why on stderr) where the
/// kernel denies multicast membership or loopback delivery, so callers
/// can `return` early and degrade to a visible no-op.
pub fn skip_without_multicast() -> bool {
    if multicast_available() {
        return false;
    }
    eprintln!("skipping: kernel denies UDP multicast membership/loopback");
    true
}

/// Builds a UDP-multicast fabric of `k` endpoints with default tuning.
///
/// # Errors
/// `NetError::Io` with an `"udp-multicast unavailable"` message when the
/// kernel denies multicast membership or does not loop deliveries back;
/// ordinary I/O errors otherwise.
pub fn build_udp_fabric(k: usize) -> Result<Vec<UdpEndpoint>> {
    build_udp_fabric_with(k, UdpConfig::default())
}

/// [`build_udp_fabric`] with explicit [`UdpConfig`] tuning.
pub fn build_udp_fabric_with(k: usize, cfg: UdpConfig) -> Result<Vec<UdpEndpoint>> {
    let tcp = build_tcp_fabric(k)?;
    let pool = UdpGroupPlan::new(0).pool();
    let rx_sock = open_rx(&pool)?;
    let port = rx_sock.local_addr()?.port();
    rx_sock.set_read_timeout(Some(Duration::from_millis(25)))?;
    let plan = UdpGroupPlan::new(port);
    let core = Arc::new(FabricCore {
        plan,
        rx: (tcp.iter())
            .map(|ep| Arc::new(RankRx::new(Arc::clone(ep.mailbox()))))
            .collect(),
        stats: Arc::clone(&cfg.stats),
        stop: AtomicBool::new(false),
        live: AtomicUsize::new(k),
        dispatcher: Mutex::new(None),
    });
    let dispatcher = {
        let core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("cts-net-udp-dispatch".into())
            .spawn(move || dispatcher_loop(rx_sock, &core))
            .expect("spawn udp dispatcher")
    };
    *core.dispatcher.lock() = Some(dispatcher);

    let build = |rank: usize, tcp_ep: TcpEndpoint| -> Result<UdpEndpoint> {
        let shared = Arc::new(Shared {
            rank,
            tcp: Arc::new(tcp_ep),
            core: Arc::clone(&core),
            cfg: cfg.clone(),
            tx: open_tx()?,
            history: Mutex::new(SendHistory::default()),
            dg_index: AtomicU64::new(0),
        });
        let servicer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cts-net-udp-ctrl-{rank}"))
                .spawn(move || servicer_loop(&shared))
                .expect("spawn udp servicer")
        };
        Ok(UdpEndpoint {
            shared,
            servicer: Mutex::new(Some(servicer)),
        })
    };
    let mut endpoints = Vec::with_capacity(k);
    for (rank, tcp_ep) in tcp.into_iter().enumerate() {
        match build(rank, tcp_ep) {
            Ok(ep) => endpoints.push(ep),
            Err(e) => {
                // Partial bring-up: tear down what exists, then stop and
                // join the dispatcher ourselves — the endpoints created so
                // far cannot drive `live` down to the last-one-out handoff
                // (it was initialized for all `k`), so without this the
                // dispatcher thread, its socket, and the group memberships
                // would leak on every failed bring-up.
                drop(endpoints);
                core.stop.store(true, Ordering::Release);
                if let Some(handle) = core.dispatcher.lock().take() {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    Ok(endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::datagram_loss_rule;

    #[test]
    fn chunk_header_round_trips() {
        let h = ChunkHeader {
            sender: 7,
            chunk_idx: 3,
            chunk_count: 9,
            nominal: 1400,
            seq: 0xDEAD_BEEF,
            tag: 0xB100_0042,
            total_len: 12_345,
            mask: (1u128 << 127) | 0b1010,
        };
        let mut wire = Vec::new();
        h.write(&mut wire);
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(ChunkHeader::parse(&wire), Some(h));
        // Wrong magic and short buffers are rejected.
        wire[0] ^= 0xFF;
        assert_eq!(ChunkHeader::parse(&wire), None);
        assert_eq!(ChunkHeader::parse(&[0u8; 10]), None);
    }

    #[test]
    fn forged_chunk_headers_are_dropped_not_panicked() {
        let rx = RankRx::new(Arc::new(Mailbox::new(1)));
        let stats = UdpFabricStats::default();
        // chunk_idx × nominal far past total_len, with an empty body whose
        // length happens to match the expected tail: must be rejected by
        // the shape check, not slice out of the reassembly buffer.
        let h = ChunkHeader {
            sender: 0,
            chunk_idx: 4,
            chunk_count: 5,
            nominal: 1400,
            seq: 1,
            tag: 0,
            total_len: 100,
            mask: 0b10,
        };
        rx.ingest(&h, &[], &stats);
        // Inconsistent duplicate shapes for an established entry drop too.
        let good = ChunkHeader {
            sender: 0,
            chunk_idx: 0,
            chunk_count: 1,
            nominal: 1400,
            seq: 2,
            tag: 0,
            total_len: 3,
            mask: 0b10,
        };
        rx.ingest(&good, b"abc", &stats);
        assert_eq!(rx.mailbox.recv_any(&[(Tag(0), 0)], None).unwrap().1, "abc");
        assert_eq!(stats.messages_completed(), 1);
        assert_eq!(rx.state.lock().partial.len(), 0, "forged entry discarded");
    }

    #[test]
    fn missing_bitmap_marks_unreceived_chunks() {
        let mut r = Reassembly::new(0, 3000, 3, 1400);
        r.have[1] = true;
        let bits = r.missing_bitmap();
        assert_eq!(bits, vec![0b101]);
    }

    #[test]
    fn status_reply_round_trips() {
        let mut reply = Vec::new();
        reply.extend_from_slice(&2u32.to_le_bytes());
        for (seq, tag, count, nominal, total) in
            [(5u32, 9u32, 3u16, 1400u16, 4000u32), (6, 9, 1, 1400, 10)]
        {
            reply.extend_from_slice(&seq.to_le_bytes());
            reply.extend_from_slice(&tag.to_le_bytes());
            reply.extend_from_slice(&count.to_le_bytes());
            reply.extend_from_slice(&nominal.to_le_bytes());
            reply.extend_from_slice(&total.to_le_bytes());
        }
        assert_eq!(
            parse_status_reply(&reply),
            vec![(5, 9, 3, 4000, 1400), (6, 9, 1, 10, 1400)]
        );
        assert!(parse_status_reply(&[]).is_empty());
    }

    #[test]
    fn chunk_count_handles_edges() {
        assert_eq!(chunk_count_for(0, 1400).unwrap(), 1);
        assert_eq!(chunk_count_for(1400, 1400).unwrap(), 1);
        assert_eq!(chunk_count_for(1401, 1400).unwrap(), 2);
        assert!(chunk_count_for(1400 * 70_000, 1400).is_err());
    }

    #[test]
    fn physical_multicast_end_to_end() {
        if skip_without_multicast() {
            return;
        }
        let cfg = UdpConfig::default();
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(4, cfg).unwrap();
        // 3 chunks of 1400 for a 4000-byte payload.
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        endpoints[1]
            .multicast(&[0, 2, 3], Tag::app(3), Bytes::from(payload.clone()))
            .unwrap();
        for dst in [0usize, 2, 3] {
            let got = endpoints[dst].recv(1, Tag::app(3)).unwrap();
            assert_eq!(&got[..], &payload[..], "dst {dst}");
        }
        // The payload crossed the sender's socket once per chunk — not per
        // receiver: 3 datagrams for 3 receivers, not 9.
        assert_eq!(stats.datagrams_sent(), 3);
        assert_eq!(stats.messages_completed(), 3);
        assert_eq!(stats.nacks_sent(), 0);
    }

    #[test]
    fn empty_and_single_byte_payloads_deliver() {
        if skip_without_multicast() {
            return;
        }
        let endpoints = build_udp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[1], Tag::app(0), Bytes::new())
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap().len(), 0);
        endpoints[0]
            .multicast(&[1], Tag::app(1), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(1)).unwrap(), "x");
    }

    #[test]
    fn multicast_including_self_delivers_locally() {
        if skip_without_multicast() {
            return;
        }
        let endpoints = build_udp_fabric(2).unwrap();
        endpoints[0]
            .multicast(&[0, 1], Tag::app(2), Bytes::from_static(b"both"))
            .unwrap();
        assert_eq!(endpoints[0].recv(0, Tag::app(2)).unwrap(), "both");
        assert_eq!(endpoints[1].recv(0, Tag::app(2)).unwrap(), "both");
    }

    #[test]
    fn unicast_and_invalid_ranks_behave_like_tcp() {
        if skip_without_multicast() {
            return;
        }
        let endpoints = build_udp_fabric(2).unwrap();
        endpoints[0]
            .send(1, Tag::app(0), Bytes::from_static(b"p2p"))
            .unwrap();
        assert_eq!(endpoints[1].recv(0, Tag::app(0)).unwrap(), "p2p");
        assert!(matches!(
            endpoints[0].multicast(&[9], Tag::app(0), Bytes::new()),
            Err(NetError::InvalidRank { rank: 9, .. })
        ));
        assert!(matches!(
            endpoints[0].recv(9, Tag::app(0)),
            Err(NetError::InvalidRank { rank: 9, .. })
        ));
    }

    #[test]
    fn injected_loss_recovers_via_nack_and_multicast_repair() {
        if skip_without_multicast() {
            return;
        }
        // Drop the first 2 data datagrams outright, deliver the rest.
        let cfg = UdpConfig {
            fault: Some(Arc::new(|_, _, _, _, idx| {
                if idx < 2 {
                    DatagramAction::Drop
                } else {
                    DatagramAction::Deliver
                }
            })),
            ..UdpConfig::default()
        };
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(2, cfg).unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 253) as u8).collect();
        endpoints[0]
            .multicast(&[1], Tag::app(0), Bytes::from(payload.clone()))
            .unwrap();
        let got = endpoints[1].recv(0, Tag::app(0)).unwrap();
        assert_eq!(&got[..], &payload[..]);
        assert!(stats.dropped_by_fault() >= 2);
        assert!(stats.nacks_sent() >= 1, "recovery must have NACKed");
        assert!(stats.mcast_repair_chunks() >= 1);
        assert_eq!(stats.tcp_repair_chunks(), 0, "budget not exhausted");
    }

    #[test]
    fn total_loss_falls_back_to_tcp_repair() {
        if skip_without_multicast() {
            return;
        }
        // Every datagram is lost: after max_multicast_repairs NACK rounds
        // the sender must repair over TCP, which cannot be dropped.
        let cfg = UdpConfig {
            fault: Some(datagram_loss_rule(100, 1)),
            max_multicast_repairs: 1,
            ..UdpConfig::default()
        };
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(2, cfg).unwrap();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        endpoints[0]
            .multicast(&[1], Tag::app(0), Bytes::from(payload.clone()))
            .unwrap();
        let got = endpoints[1].recv(0, Tag::app(0)).unwrap();
        assert_eq!(&got[..], &payload[..]);
        assert!(
            stats.tcp_repair_chunks() >= 3,
            "all chunks repaired over TCP"
        );
        assert_eq!(stats.datagrams_received(), 0, "nothing survived the fault");
    }

    #[test]
    fn duplicate_datagrams_deliver_exactly_once() {
        if skip_without_multicast() {
            return;
        }
        let endpoints = build_udp_fabric(2).unwrap();
        // Two sends under distinct tags, then verify each arrives once and
        // nothing phantom remains queued.
        for t in 0..2u32 {
            endpoints[0]
                .multicast(&[1], Tag::app(t), Bytes::from_static(b"once"))
                .unwrap();
            assert_eq!(endpoints[1].recv(0, Tag::app(t)).unwrap(), "once");
            assert!(endpoints[1].try_recv(0, Tag::app(t)).unwrap().is_none());
        }
    }

    /// Drops chunk 0 of each endpoint's first `messages` three-chunk
    /// sends; repairs (later datagram indices) pass.
    fn first_chunks_lost(messages: u64) -> UdpConfig {
        UdpConfig {
            fault: Some(Arc::new(move |_, _, _, chunk, idx| {
                if chunk == 0 && idx < 3 * messages {
                    DatagramAction::Drop
                } else {
                    DatagramAction::Deliver
                }
            })),
            nack_interval: Duration::from_millis(10),
            ..UdpConfig::default()
        }
    }

    #[test]
    fn a_wait_on_several_keys_repairs_every_sender_it_awaits() {
        if skip_without_multicast() {
            return;
        }
        let cfg = first_chunks_lost(1);
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(3, cfg).unwrap();
        let payload = |sender: usize| Bytes::from(vec![sender as u8 + 1; 4000]);
        for sender in [0, 1] {
            let tag = Tag::app(sender as u32);
            endpoints[sender]
                .multicast(&[2], tag, payload(sender))
                .unwrap();
        }
        let keys = [(Tag::app(0), 0), (Tag::app(1), 1)];
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        let mut got = [false; 2];
        for _ in 0..2 {
            let (key, message) = endpoints[2].recv_any(&keys, deadline).unwrap();
            assert_eq!(message, payload(key));
            got[key] = true;
        }
        assert_eq!(got, [true; 2]);
        assert_eq!(stats.dropped_by_fault(), 2);
        assert!(stats.nacks_sent() >= 2, "one NACK per short message");
    }

    #[test]
    fn only_an_awaited_message_is_repaired() {
        if skip_without_multicast() {
            return;
        }
        let cfg = first_chunks_lost(2);
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(2, cfg).unwrap();
        let (unlisted, listed) = (Tag::app(0), Tag::app(1));
        for tag in [unlisted, listed] {
            endpoints[0]
                .multicast(&[1], tag, Bytes::from(vec![7u8; 4000]))
                .unwrap();
        }
        // Both messages sit short of a chunk; the wait is for one of them.
        assert_eq!(endpoints[1].recv(0, listed).unwrap().len(), 4000);
        assert_eq!(stats.dropped_by_fault(), 2);
        assert_eq!(stats.messages_completed(), 1, "nobody awaited the other");
        assert!(stats.nacks_sent() >= 1);
        assert!(endpoints[1].try_recv(0, unlisted).unwrap().is_none());
        // Awaited in its turn, it is repaired in its turn.
        assert_eq!(endpoints[1].recv(0, unlisted).unwrap().len(), 4000);
    }

    #[test]
    fn an_unanswered_wait_backs_off_and_times_out_on_its_deadline() {
        if skip_without_multicast() {
            return;
        }
        let cfg = UdpConfig::default();
        let stats = Arc::clone(&cfg.stats);
        let endpoints = build_udp_fabric_with(2, cfg).unwrap();
        let keys = [(Tag::app(0), 0), (Tag::app(1), 0)];
        let started = Instant::now();
        let result = endpoints[1].recv_any(&keys, Some(started + Duration::from_secs(2)));
        let waited = started.elapsed();
        assert!(
            matches!(result, Err(NetError::Timeout { src: 0, .. })),
            "{result:?}"
        );
        // Quiet intervals of 20, 40, 80 … 640 ms: seven rounds fit in 2 s.
        assert!((1..=8).contains(&stats.status_rounds()), "{stats:?}");
        assert_eq!(stats.nacks_sent(), 0);
        assert!(
            waited >= Duration::from_secs(2) && waited < Duration::from_millis(2_100),
            "waited {waited:?}"
        );
    }

    #[test]
    fn shutdown_ends_a_blocked_multi_key_wait_and_the_servicer() {
        if skip_without_multicast() {
            return;
        }
        let endpoints = build_udp_fabric(2).unwrap();
        let keys = [(Tag::app(0), 0), (Tag::app(1), 0)];
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| endpoints[1].recv_any(&keys, None));
            std::thread::sleep(Duration::from_millis(30));
            endpoints[1].shutdown();
            let result = waiter.join().unwrap();
            assert!(
                matches!(result, Err(NetError::Disconnected { rank: 1 })),
                "{result:?}"
            );
        });
        // Dropping an endpoint joins its servicer, which blocks in a wait
        // of its own: it must have ended with the mailbox.
        let (dropped_tx, dropped_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(endpoints);
            dropped_tx.send(()).unwrap();
        });
        dropped_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("teardown joins every servicer");
    }

    #[test]
    fn shutdown_unblocks_blocked_receiver() {
        if skip_without_multicast() {
            return;
        }
        let mut endpoints = build_udp_fabric(2).unwrap();
        let b = endpoints.pop().unwrap();
        let handle = std::thread::spawn(move || {
            let r = b.recv_timeout(0, Tag::app(0), Duration::from_secs(5));
            b.shutdown();
            r
        });
        std::thread::sleep(Duration::from_millis(30));
        endpoints[0].shutdown();
        drop(endpoints);
        let result = handle.join().unwrap();
        assert!(
            matches!(
                result,
                Err(NetError::Disconnected { .. }) | Err(NetError::Timeout { .. })
            ),
            "got {result:?}"
        );
    }
}
