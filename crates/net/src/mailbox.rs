//! Tag-matched mailboxes.
//!
//! Each endpoint owns one [`Mailbox`]. Incoming messages are queued by
//! exact tag and source — a [`Key`] — and leave in FIFO order per key: the
//! matching semantics of MPI's `MPI_Recv` with an explicit source and tag.
//! There is one way to wait: [`Mailbox::recv_any`] blocks until a message
//! is queued under any of a set of keys, a listed source is dead or
//! disconnected, the mailbox is closed, or a deadline passes. Every other
//! receive in the crate is that call with one key and some deadline.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::mailbox::Mailbox;
//! use cts_net::message::{Message, Tag};
//!
//! let mb = Mailbox::new(0);
//! mb.deliver(Message { src: 2, tag: Tag::app(7), payload: Bytes::from_static(b"hi") });
//! // Matching is on exact tag and source; the hit names the key it came under.
//! let keys = [(Tag::app(7), 1), (Tag::app(7), 2)];
//! let (key, payload) = mb.recv_any(&keys, None).unwrap();
//! assert_eq!((key, &payload[..]), (1, &b"hi"[..]));
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::error::{NetError, Result};
use crate::message::{Key, Message, Tag};

#[derive(Default)]
struct Inner {
    /// Every queued message under its key and arrival number, so that the
    /// messages of one key sit together, oldest first, and the map's size
    /// is the backlog — not the history of keys ever used.
    queued: BTreeMap<(Tag, usize, u64), Bytes>,
    arrivals: u64,
    closed: bool,
    /// Per-source disconnect bits (bit `s` set = no further messages will
    /// ever arrive from source `s`; world sizes are ≤ 128).
    gone: u128,
    /// Per-source death bits set by the health layer: like `gone`, but the
    /// receiver learns *which* peer failed via `PeerDead` instead of the
    /// anonymous `Disconnected`.
    dead: u128,
}

impl Inner {
    /// Takes the oldest message of the lowest queued key in `keys` (sorted),
    /// with the index of that key. The two sorted sets leapfrog: from a
    /// listed key to the first queued message at or after it, from there —
    /// unless it is a hit — to the first listed key after it. A step is two
    /// logarithmic searches and skips a whole run of misses, so a wait on
    /// tens of thousands of keys costs no more per wake-up than a wait on
    /// one.
    fn take(&mut self, keys: &[Key]) -> Option<(usize, Bytes)> {
        let mut at = 0;
        while let Some(&(tag, src)) = keys.get(at) {
            let (&(tag, src, arrival), _) = self.queued.range((tag, src, 0)..).next()?;
            match keys[at..].binary_search(&(tag, src)) {
                Ok(i) => {
                    let payload = self.queued.remove(&(tag, src, arrival))?;
                    return Some((at + i, payload));
                }
                Err(i) => at += i,
            }
        }
        None
    }
}

/// A blocking, tag-matched message queue for one endpoint.
pub struct Mailbox {
    rank: usize,
    inner: Mutex<Inner>,
    available: Condvar,
}

impl Mailbox {
    /// Creates the mailbox for endpoint `rank`.
    pub fn new(rank: usize) -> Self {
        Mailbox {
            rank,
            inner: Mutex::new(Inner::default()),
            available: Condvar::new(),
        }
    }

    /// Enqueues a message (called by the transport's delivery path).
    ///
    /// Delivery to a closed mailbox is silently dropped — the owner has
    /// already stopped receiving.
    pub fn deliver(&self, msg: Message) {
        let mut inner = self.inner.lock();
        if inner.closed {
            return;
        }
        inner.arrivals += 1;
        let at = (msg.tag, msg.src, inner.arrivals);
        inner.queued.insert(at, msg.payload);
        drop(inner);
        self.available.notify_all();
    }

    /// Blocks until a message is queued under one of `keys` and returns it
    /// with the index of its key. `keys` must be sorted ascending — by tag,
    /// then source. When several have messages the lowest key wins, so a
    /// caller that numbers its work in tags takes it in that order;
    /// messages under one key leave in arrival order. A key whose source is
    /// no rank of the fabric never matches.
    ///
    /// A queued message always drains first. With nothing queued, the wait
    /// ends on the first of: a listed source the health layer declared dead
    /// (`PeerDead`, naming it), a listed source that disconnected or a
    /// closed mailbox (`Disconnected`), `deadline` passing (`Timeout`,
    /// naming the first key). A deadline that has already passed makes the
    /// call a non-blocking probe; `None` waits indefinitely.
    pub fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        let mut inner = self.inner.lock();
        let mut sources = None;
        loop {
            if let Some(hit) = inner.take(keys) {
                return Ok(hit);
            }
            // Whose messages these keys await matters only once somebody
            // is down, and costs a pass over them: worked out then, once.
            let sources = match inner.dead | inner.gone {
                0 => 0,
                _ => *sources.get_or_insert_with(|| {
                    let listed = keys.iter().filter(|key| key.1 < 128);
                    listed.fold(0u128, |mask, key| mask | 1 << key.1)
                }),
            };
            if inner.dead & sources != 0 {
                return Err(NetError::PeerDead {
                    rank: self.rank,
                    peer: (inner.dead & sources).trailing_zeros() as usize,
                });
            }
            if inner.closed || inner.gone & sources != 0 {
                return Err(NetError::Disconnected { rank: self.rank });
            }
            let timed_out = match deadline {
                None => {
                    self.available.wait(&mut inner);
                    false
                }
                Some(at) => self.available.wait_until(&mut inner, at).timed_out(),
            };
            if timed_out {
                let (tag, src) = keys.first().copied().unwrap_or((Tag(0), self.rank));
                return Err(NetError::Timeout { src, tag: tag.0 });
            }
        }
    }

    /// Total queued messages (diagnostics).
    pub fn queued(&self) -> usize {
        self.inner.lock().queued.len()
    }

    /// Closes the mailbox: queued messages stay receivable, but blocked and
    /// future waits that find nothing queued fail with `Disconnected`.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }

    /// Marks one source as disconnected: already-queued messages from it
    /// remain receivable, but once its queues drain, blocked and future
    /// waits listing that source fail with `Disconnected`. Other sources
    /// are unaffected — the lazy TCP mesh calls this when a single peer's
    /// link EOFs, where closing the whole mailbox would wrongly unblock
    /// receives from still-healthy peers.
    pub fn disconnect_src(&self, src: usize) {
        if src >= 128 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.gone |= 1u128 << src;
        drop(inner);
        self.available.notify_all();
    }

    /// Marks one source as *dead* (declared by the health layer): queued
    /// messages from it still drain, then blocked and future waits listing
    /// that source fail with the typed `PeerDead` error — the receiver
    /// learns exactly which peer will never speak again instead of
    /// blocking until a generic timeout.
    pub fn mark_dead(&self, src: usize) {
        if src >= 128 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.dead |= 1u128 << src;
        drop(inner);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// The single-key receives the transports build over `recv_any`.
    impl Mailbox {
        fn recv(&self, src: usize, tag: Tag) -> Result<Bytes> {
            Ok(self.recv_any(&[(tag, src)], None)?.1)
        }

        fn recv_timeout(&self, src: usize, tag: Tag, timeout: Duration) -> Result<Bytes> {
            let deadline = Instant::now() + timeout;
            Ok(self.recv_any(&[(tag, src)], Some(deadline))?.1)
        }

        fn try_recv_checked(&self, src: usize, tag: Tag) -> Result<Option<Bytes>> {
            match self.recv_any(&[(tag, src)], Some(Instant::now())) {
                Ok((_, payload)) => Ok(Some(payload)),
                Err(NetError::Timeout { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        }

        fn try_recv(&self, src: usize, tag: Tag) -> Option<Bytes> {
            self.try_recv_checked(src, tag).ok().flatten()
        }
    }

    fn msg(src: usize, tag: Tag, bytes: &'static [u8]) -> Message {
        Message {
            src,
            tag,
            payload: Bytes::from_static(bytes),
        }
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let mb = Mailbox::new(0);
        mb.deliver(msg(1, Tag::app(0), b"first"));
        mb.deliver(msg(1, Tag::app(0), b"second"));
        assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "first");
        assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "second");
    }

    #[test]
    fn matching_is_keyed_on_src_and_tag() {
        let mb = Mailbox::new(0);
        mb.deliver(msg(2, Tag::app(7), b"from-2"));
        mb.deliver(msg(1, Tag::app(7), b"from-1"));
        mb.deliver(msg(1, Tag::app(9), b"tag-9"));
        // Out-of-order matching works regardless of arrival order.
        assert_eq!(mb.recv(1, Tag::app(9)).unwrap(), "tag-9");
        assert_eq!(mb.recv(1, Tag::app(7)).unwrap(), "from-1");
        assert_eq!(mb.recv(2, Tag::app(7)).unwrap(), "from-2");
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new(3));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(0, Tag::app(1)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(msg(0, Tag::app(1), b"late"));
        assert_eq!(handle.join().unwrap(), "late");
    }

    #[test]
    fn recv_timeout_expires() {
        let mb = Mailbox::new(0);
        let err = mb
            .recv_timeout(1, Tag::app(0), Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { src: 1, .. }));
    }

    #[test]
    fn recv_timeout_succeeds_when_present() {
        let mb = Mailbox::new(0);
        mb.deliver(msg(1, Tag::app(0), b"x"));
        let got = mb
            .recv_timeout(1, Tag::app(0), Duration::from_millis(10))
            .unwrap();
        assert_eq!(got, "x");
    }

    #[test]
    fn close_wakes_blocked_receivers() {
        let mb = Arc::new(Mailbox::new(5));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(0, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::Disconnected { rank: 5 })
        ));
    }

    #[test]
    fn disconnect_src_is_per_source() {
        let mb = Arc::new(Mailbox::new(1));
        mb.deliver(msg(0, Tag::app(0), b"queued"));
        mb.disconnect_src(0);
        // Queued messages from the gone source still drain …
        assert_eq!(mb.recv(0, Tag::app(0)).unwrap(), "queued");
        // … then the source reads as disconnected.
        assert!(matches!(
            mb.recv(0, Tag::app(0)),
            Err(NetError::Disconnected { rank: 1 })
        ));
        // Other sources are unaffected (blocked recv wakes on delivery).
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(2, Tag::app(0)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(msg(2, Tag::app(0), b"alive"));
        assert_eq!(handle.join().unwrap(), "alive");
    }

    #[test]
    fn disconnect_src_wakes_blocked_receiver() {
        let mb = Arc::new(Mailbox::new(4));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(0, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        mb.disconnect_src(0);
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::Disconnected { rank: 4 })
        ));
    }

    #[test]
    fn mark_dead_surfaces_typed_peer_death_after_drain() {
        let mb = Arc::new(Mailbox::new(2));
        mb.deliver(msg(0, Tag::app(0), b"queued"));
        mb.mark_dead(0);
        // Already-queued traffic from the dead peer still drains …
        assert_eq!(mb.recv(0, Tag::app(0)).unwrap(), "queued");
        // … then the death is typed, naming the peer.
        assert!(matches!(
            mb.recv(0, Tag::app(0)),
            Err(NetError::PeerDead { rank: 2, peer: 0 })
        ));
        assert!(matches!(
            mb.recv_timeout(0, Tag::app(0), Duration::from_millis(5)),
            Err(NetError::PeerDead { rank: 2, peer: 0 })
        ));
        // Other sources are unaffected.
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(1, Tag::app(0)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(msg(1, Tag::app(0), b"alive"));
        assert_eq!(handle.join().unwrap(), "alive");
    }

    #[test]
    fn mark_dead_wakes_blocked_receiver() {
        let mb = Arc::new(Mailbox::new(6));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(3, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        mb.mark_dead(3);
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::PeerDead { rank: 6, peer: 3 })
        ));
    }

    #[test]
    fn close_drops_future_deliveries() {
        let mb = Mailbox::new(0);
        mb.close();
        mb.deliver(msg(1, Tag::app(0), b"ghost"));
        assert_eq!(mb.try_recv(1, Tag::app(0)), None);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let mb = Mailbox::new(0);
        assert_eq!(mb.try_recv(1, Tag::app(0)), None);
        mb.deliver(msg(1, Tag::app(0), b"now"));
        assert_eq!(mb.try_recv(1, Tag::app(0)).unwrap(), "now");
        assert_eq!(mb.queued(), 0);
    }

    #[test]
    fn checked_try_recv_drains_then_reports_terminal_states() {
        let mb = Mailbox::new(3);
        assert_eq!(mb.try_recv_checked(1, Tag::app(0)).unwrap(), None);
        // Queued traffic drains even after the terminal mark …
        mb.deliver(msg(1, Tag::app(0), b"last-words"));
        mb.mark_dead(1);
        assert_eq!(
            mb.try_recv_checked(1, Tag::app(0)).unwrap().unwrap(),
            "last-words"
        );
        // … then the death is typed, while other sources stay pollable.
        assert!(matches!(
            mb.try_recv_checked(1, Tag::app(0)),
            Err(NetError::PeerDead { rank: 3, peer: 1 })
        ));
        assert_eq!(mb.try_recv_checked(2, Tag::app(0)).unwrap(), None);
        // Closure fails every source fast — the poll loop cannot spin.
        mb.close();
        assert!(matches!(
            mb.try_recv_checked(2, Tag::app(0)),
            Err(NetError::Disconnected { rank: 3 })
        ));
    }

    #[test]
    fn queued_counts_all_keys() {
        let mb = Mailbox::new(0);
        mb.deliver(msg(1, Tag::app(0), b"a"));
        mb.deliver(msg(2, Tag::app(1), b"b"));
        mb.deliver(msg(2, Tag::app(1), b"c"));
        assert_eq!(mb.queued(), 3);
    }

    #[test]
    fn many_concurrent_receivers() {
        let mb = Arc::new(Mailbox::new(0));
        let mut handles = Vec::new();
        for src in 0..8usize {
            let mb = Arc::clone(&mb);
            handles.push(std::thread::spawn(move || {
                mb.recv(src, Tag::app(src as u32)).unwrap()
            }));
        }
        std::thread::sleep(Duration::from_millis(10));
        for src in (0..8usize).rev() {
            mb.deliver(Message {
                src,
                tag: Tag::app(src as u32),
                payload: Bytes::copy_from_slice(&[src as u8]),
            });
        }
        for (src, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap()[0] as usize, src);
        }
    }

    #[test]
    fn wait_wakes_on_any_listed_key_and_not_on_an_unlisted_one() {
        let mb = Arc::new(Mailbox::new(0));
        let keys = [(Tag::app(0), 1), (Tag::app(0), 3), (Tag::app(5), 2)];
        let (woke_tx, woke_rx) = std::sync::mpsc::channel();
        let waiter = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let hit = mb.recv_any(&keys, None).unwrap();
                woke_tx.send(()).unwrap();
                hit
            })
        };
        // Same source under another tag, same tag from another source:
        // neither is a listed key, so the waiter stays blocked.
        mb.deliver(msg(2, Tag::app(0), b"other-tag"));
        mb.deliver(msg(4, Tag::app(0), b"other-src"));
        assert!(woke_rx.recv_timeout(Duration::from_millis(50)).is_err());
        mb.deliver(msg(2, Tag::app(5), b"listed"));
        let (key, payload) = waiter.join().unwrap();
        assert_eq!((key, &payload[..]), (2, &b"listed"[..]));
        // The unlisted messages are still there for whoever wants them.
        assert_eq!(mb.queued(), 2);
    }

    #[test]
    fn many_keys_come_lowest_key_first_and_fifo_within_a_key() {
        let mb = Mailbox::new(0);
        let keys: Vec<Key> = (0..64).map(|t| (Tag::app(t), 1)).collect();
        mb.deliver(msg(1, Tag::app(40), b"a"));
        mb.deliver(msg(1, Tag::app(40), b"b"));
        mb.deliver(msg(1, Tag::app(7), b"c"));
        let order: Vec<(usize, Bytes)> =
            (0..3).map(|_| mb.recv_any(&keys, None).unwrap()).collect();
        assert_eq!(order[0], (7, Bytes::from_static(b"c")));
        assert_eq!(order[1], (40, Bytes::from_static(b"a")));
        assert_eq!(order[2], (40, Bytes::from_static(b"b")));
        assert!(matches!(
            mb.recv_any(&keys, Some(Instant::now())),
            Err(NetError::Timeout { src: 1, tag: 0 })
        ));
    }

    #[test]
    fn terminal_states_during_a_multi_key_wait_wake_it() {
        type Mark = fn(&Mailbox);
        let cases: [(Mark, NetError); 3] = [
            (
                |mb| mb.mark_dead(2),
                NetError::PeerDead { rank: 9, peer: 2 },
            ),
            (
                |mb| mb.disconnect_src(1),
                NetError::Disconnected { rank: 9 },
            ),
            (|mb| mb.close(), NetError::Disconnected { rank: 9 }),
        ];
        for (mark, expected) in cases {
            let mb = Arc::new(Mailbox::new(9));
            let waiter = {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || mb.recv_any(&[(Tag::app(0), 1), (Tag::app(0), 2)], None))
            };
            std::thread::sleep(Duration::from_millis(20));
            // A terminal mark on a source nobody listed wakes nothing.
            mb.mark_dead(3);
            mb.disconnect_src(4);
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished());
            mark(&mb);
            assert_eq!(waiter.join().unwrap(), Err(expected));
        }
    }

    #[test]
    fn a_queued_message_under_any_key_drains_before_a_terminal_state() {
        let mb = Mailbox::new(0);
        let keys = [(Tag::app(0), 1), (Tag::app(0), 2)];
        mb.deliver(msg(2, Tag::app(0), b"still-here"));
        mb.mark_dead(1);
        mb.close();
        assert_eq!(mb.recv_any(&keys, None).unwrap().1, "still-here");
        assert_eq!(
            mb.recv_any(&keys, None),
            Err(NetError::PeerDead { rank: 0, peer: 1 })
        );
    }

    #[test]
    fn drained_keys_leave_nothing_behind() {
        // A resident endpoint sees a fresh tag per multicast group and per
        // barrier epoch; its map must track the backlog, not that history.
        let mb = Mailbox::new(0);
        for t in 0..10_000u32 {
            mb.deliver(msg(t as usize % 8, Tag::app(t), b"x"));
        }
        assert_eq!(mb.inner.lock().queued.len(), 10_000);
        for t in 0..10_000u32 {
            mb.recv(t as usize % 8, Tag::app(t)).unwrap();
        }
        assert!(mb.inner.lock().queued.is_empty());
    }
}
