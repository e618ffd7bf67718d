//! Tag-matched mailboxes.
//!
//! Each endpoint owns one [`Mailbox`]. Incoming messages are queued by job,
//! exact tag and source, and leave in FIFO order per key: the matching
//! semantics of MPI's `MPI_Recv` with an explicit communicator, source and
//! tag. A message stamped with when its sender's emulated NIC sends its last
//! byte ([`Message::ready`]) is held out of sight until then, and so is what
//! its source sends after it. A mailbox queues a message only
//! while its job is open there ([`open_job`](Mailbox::open_job));
//! [`close_job`](Mailbox::close_job) drops whatever the job left behind,
//! held or not, and from then on anything that still arrives for it is
//! dropped on arrival. There is one way to wait: [`Mailbox::recv_any`]
//! blocks until a ripe message of one job is queued under any of a set of
//! keys, a listed source disconnected, the mailbox is closed, or a deadline
//! passes. Every other receive in the crate is that call with one key and
//! some deadline.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::mailbox::Mailbox;
//! use cts_net::message::{Message, Tag};
//!
//! let mb = Mailbox::new(0);
//! mb.open_job(9);
//! let msg = |job| Message {
//!     src: 2,
//!     job,
//!     tag: Tag::app(7),
//!     payload: Bytes::from_static(b"hi"),
//!     ready: None, // ripe on arrival
//! };
//! mb.deliver(msg(9));
//! mb.deliver(msg(8)); // job 8 is not open here: dropped
//! // Matching is on job, exact tag and source; the hit names its key.
//! let keys = [(Tag::app(7), 1), (Tag::app(7), 2)];
//! let (key, payload) = mb.recv_any(9, &keys, None).unwrap();
//! assert_eq!((key, &payload[..]), (1, &b"hi"[..]));
//! assert_eq!(mb.queued(), 0);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use bytes::Bytes;
use cts_core::sync::{lock, unpoison};

use crate::error::{NetError, Result};
use crate::message::{Key, Message, Tag};

/// A message's place in the queue: its job, tag, source and arrival number.
type Place = (u32, Tag, usize, u64);

#[derive(Default)]
struct Inner {
    /// Every ripe queued message by its place, so that the messages of one
    /// key sit together, oldest first, and the map's size is the backlog —
    /// not the history of keys ever used.
    queued: BTreeMap<Place, Bytes>,
    /// The messages not yet ripe, by when they ripen, each with its place
    /// in `queued`: it moves there once its time has come and a wait looks.
    held: BTreeMap<(Instant, Place), Bytes>,
    /// Per job and source: when its latest held message ripens (or did). A
    /// message ripens no earlier, so a source's messages surface in order.
    last: HashMap<(u32, usize), Instant>,
    /// The jobs whose messages are queued; a message of any other job is
    /// dropped on arrival.
    open: Vec<u32>,
    arrivals: u64,
    /// Receivers asleep in [`Mailbox::recv_any`]: a delivery with none to
    /// wake skips the notify, a futex call nobody needed.
    waiters: usize,
    closed: bool,
    /// Per-source disconnect bits (bit `s` set = no further messages will
    /// ever arrive from source `s`; world sizes are ≤ 128).
    gone: u128,
}

impl Inner {
    /// Moves every held message whose time has come into `queued`, and
    /// returns when the earliest one still held ripens. The clock is read
    /// only when something is held.
    fn ripen(&mut self) -> Option<Instant> {
        let now = self.held.first_key_value().map(|_| Instant::now())?;
        while let Some(entry) = self.held.first_entry() {
            let &(ready, at) = entry.key();
            if ready > now {
                return Some(ready);
            }
            self.queued.insert(at, entry.remove());
        }
        None
    }

    /// Takes job `job`'s oldest ripe message of the lowest queued key in
    /// `keys` (sorted), with the index of that key. The two sorted sets
    /// leapfrog: from a listed key to the first queued message at or after
    /// it, from there — unless it is a hit — to the first listed key after
    /// it. A step is two logarithmic searches and skips a whole run of
    /// misses, so a wait on tens of thousands of keys costs no more per
    /// wake-up than a wait on one.
    fn take(&mut self, job: u32, keys: &[Key]) -> Option<(usize, Bytes)> {
        let mut at = 0;
        while let Some(&(tag, src)) = keys.get(at) {
            let (&(of, tag, src, arrival), _) = self.queued.range((job, tag, src, 0)..).next()?;
            if of != job {
                return None;
            }
            match keys[at..].binary_search(&(tag, src)) {
                Ok(i) => {
                    let payload = self.queued.remove(&(job, tag, src, arrival))?;
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
    /// Creates the mailbox for endpoint `rank`, with job 0 open: the job of
    /// a bare transport's traffic and of a one-shot run
    /// ([`JobBinding::ROOT`](crate::cluster::JobBinding::ROOT)).
    pub fn new(rank: usize) -> Self {
        Mailbox {
            rank,
            inner: Mutex::new(Inner {
                open: vec![0],
                ..Inner::default()
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues a message (called by the transport's delivery path). A
    /// stamped message, or one from a source with a stamped message before
    /// it, is held until it is ripe.
    ///
    /// A message of a job that is not open here, or delivered to a closed
    /// mailbox, is silently dropped — nobody will receive it.
    pub fn deliver(&self, msg: Message) {
        let mut inner = lock(&self.inner);
        if inner.closed || !inner.open.contains(&msg.job) {
            return;
        }
        inner.arrivals += 1;
        let at = (msg.job, msg.tag, msg.src, inner.arrivals);
        let behind = inner.last.get(&(msg.job, msg.src)).copied();
        // The later of the two (`None` is the least): ripe at once only if
        // neither holds it.
        let asleep = inner.waiters > 0;
        let Some(ready) = msg.ready.max(behind) else {
            inner.queued.insert(at, msg.payload);
            drop(inner);
            if asleep {
                self.available.notify_all();
            }
            return;
        };
        inner.last.insert((msg.job, msg.src), ready);
        // A wait sleeps until the earliest held message ripens: only a new
        // earliest moves that.
        let earliest = (inner.held.first_key_value()).is_none_or(|(&(first, _), _)| ready < first);
        inner.held.insert((ready, at), msg.payload);
        drop(inner);
        if asleep && earliest {
            self.available.notify_all();
        }
    }

    /// Opens job `job` here: its messages are queued from now on.
    pub fn open_job(&self, job: u32) {
        let mut inner = lock(&self.inner);
        if !inner.open.contains(&job) {
            inner.open.push(job);
        }
    }

    /// Ends job `job` here: what it left queued or held is dropped, and so
    /// is anything of it that arrives later.
    pub fn close_job(&self, job: u32) {
        let mut inner = lock(&self.inner);
        inner.open.retain(|&open| open != job);
        let left = (job, Tag(0), 0, 0)..=(job, Tag(u32::MAX), usize::MAX, u64::MAX);
        inner.queued.extract_if(left, |_, _| true).for_each(drop);
        inner.held.retain(|&(_, (of, ..)), _| of != job);
        inner.last.retain(|&(of, _), _| of != job);
    }

    /// Blocks until a ripe message of job `job` is queued under one of
    /// `keys` and returns it with the index of its key. `keys` must be sorted
    /// ascending — by tag, then source. When several have messages the
    /// lowest key wins, so a caller that numbers its work in tags takes it
    /// in that order; messages under one key leave in arrival order. A key
    /// whose source is no rank of the fabric never matches.
    ///
    /// A queued message always drains first. With nothing ripe, the wait
    /// sleeps until a delivery, the mailbox's earliest held message's
    /// stamp, or `deadline`, and ends on the first of: a listed source that
    /// disconnected or a closed mailbox (`Disconnected`) — unless a message
    /// is held under a listed key — `deadline` passing (`Timeout`, naming
    /// the first key). A deadline that has already passed makes the call a
    /// non-blocking probe; `None` waits indefinitely.
    pub fn recv_any(
        &self,
        job: u32,
        keys: &[Key],
        deadline: Option<Instant>,
    ) -> Result<(usize, Bytes)> {
        let mut inner = lock(&self.inner);
        let mut sources = None;
        let mut expired = false;
        loop {
            let ripens = inner.ripen();
            if let Some(hit) = inner.take(job, keys) {
                return Ok(hit);
            }
            // Whose messages these keys await matters only once somebody
            // is down, and costs a pass over them: worked out then, once.
            let sources = match inner.gone {
                0 => 0,
                _ => *sources.get_or_insert_with(|| {
                    let listed = keys.iter().filter(|key| key.1 < 128);
                    listed.fold(0u128, |mask, key| mask | 1 << key.1)
                }),
            };
            // A message held under a listed key is still to come.
            let holds =
                |&(_, (of, tag, src, _)): &_| of == job && keys.binary_search(&(tag, src)).is_ok();
            if (inner.closed || inner.gone & sources != 0) && !inner.held.keys().any(holds) {
                return Err(NetError::Disconnected { rank: self.rank });
            }
            if expired {
                let (tag, src) = keys.first().copied().unwrap_or((Tag(0), self.rank));
                return Err(NetError::Timeout { src, tag: tag.0 });
            }
            inner.waiters += 1;
            expired = match ripens.into_iter().chain(deadline).min() {
                None => {
                    inner = unpoison(self.available.wait(inner));
                    false
                }
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    let (guard, waited) = unpoison(self.available.wait_timeout(inner, timeout));
                    inner = guard;
                    waited.timed_out() && Some(at) == deadline
                }
            };
            inner.waiters -= 1;
        }
    }

    /// Total queued messages, ripe or held (diagnostics).
    pub fn queued(&self) -> usize {
        let inner = lock(&self.inner);
        inner.queued.len() + inner.held.len()
    }

    /// Closes the mailbox: queued messages stay receivable, but blocked and
    /// future waits that find nothing queued or held under their keys fail
    /// with `Disconnected`.
    pub fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }

    /// Marks one source as disconnected: already-queued messages from it
    /// remain receivable, held ones once they ripen, but once its queues
    /// drain, blocked and future waits listing that source fail with
    /// `Disconnected`. Other sources are unaffected — the lazy TCP mesh
    /// calls this when a single peer's link EOFs, where closing the whole
    /// mailbox would wrongly unblock receives from still-healthy peers.
    pub fn disconnect_src(&self, src: usize) {
        if src >= 128 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.gone |= 1u128 << src;
        drop(inner);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// The single-key receives the transports build over `recv_any`, in
    /// job 0.
    impl Mailbox {
        fn recv(&self, src: usize, tag: Tag) -> Result<Bytes> {
            Ok(self.recv_any(0, &[(tag, src)], None)?.1)
        }

        fn recv_timeout(&self, src: usize, tag: Tag, timeout: Duration) -> Result<Bytes> {
            let deadline = Instant::now() + timeout;
            Ok(self.recv_any(0, &[(tag, src)], Some(deadline))?.1)
        }

        fn try_recv_checked(&self, src: usize, tag: Tag) -> Result<Option<Bytes>> {
            match self.recv_any(0, &[(tag, src)], Some(Instant::now())) {
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
            job: 0,
            tag,
            payload: Bytes::from_static(bytes),
            ready: None,
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
        mb.disconnect_src(1);
        assert_eq!(
            mb.try_recv_checked(1, Tag::app(0)).unwrap().unwrap(),
            "last-words"
        );
        // … then the hang-up is typed, while other sources stay pollable.
        assert!(matches!(
            mb.try_recv_checked(1, Tag::app(0)),
            Err(NetError::Disconnected { rank: 3 })
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
                job: 0,
                tag: Tag::app(src as u32),
                payload: Bytes::copy_from_slice(&[src as u8]),
                ready: None,
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
                let hit = mb.recv_any(0, &keys, None).unwrap();
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
        let order: Vec<(usize, Bytes)> = (0..3)
            .map(|_| mb.recv_any(0, &keys, None).unwrap())
            .collect();
        assert_eq!(order[0], (7, Bytes::from_static(b"c")));
        assert_eq!(order[1], (40, Bytes::from_static(b"a")));
        assert_eq!(order[2], (40, Bytes::from_static(b"b")));
        assert!(matches!(
            mb.recv_any(0, &keys, Some(Instant::now())),
            Err(NetError::Timeout { src: 1, tag: 0 })
        ));
    }

    #[test]
    fn terminal_states_during_a_multi_key_wait_wake_it() {
        type Mark = fn(&Mailbox);
        let cases: [(Mark, NetError); 2] = [
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
                std::thread::spawn(move || {
                    mb.recv_any(0, &[(Tag::app(0), 1), (Tag::app(0), 2)], None)
                })
            };
            std::thread::sleep(Duration::from_millis(20));
            // A terminal mark on a source nobody listed wakes nothing.
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
        mb.disconnect_src(1);
        mb.close();
        assert_eq!(mb.recv_any(0, &keys, None).unwrap().1, "still-here");
        assert_eq!(
            mb.recv_any(0, &keys, None),
            Err(NetError::Disconnected { rank: 0 })
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
        assert_eq!(lock(&mb.inner).queued.len(), 10_000);
        for t in 0..10_000u32 {
            mb.recv(t as usize % 8, Tag::app(t)).unwrap();
        }
        assert!(lock(&mb.inner).queued.is_empty());
    }

    /// The message `msg(src, tag, bytes)` makes, in job `job`.
    fn of(job: u32, src: usize, bytes: &'static [u8]) -> Message {
        Message {
            job,
            ..msg(src, Tag::app(3), bytes)
        }
    }

    #[test]
    fn jobs_with_the_same_keys_never_cross() {
        let mb = Mailbox::new(0);
        mb.open_job(7);
        mb.deliver(of(7, 1, b"job-7"));
        mb.deliver(of(0, 1, b"job-0"));
        let keys = [(Tag::app(3), 1)];
        assert_eq!(mb.recv_any(0, &keys, None).unwrap().1, "job-0");
        assert_eq!(mb.recv_any(7, &keys, None).unwrap().1, "job-7");
        // A wait in one job is not ended by another job's message.
        mb.deliver(of(7, 1, b"job-7-again"));
        assert!(matches!(
            mb.recv_any(0, &keys, Some(Instant::now())),
            Err(NetError::Timeout { src: 1, .. })
        ));
    }

    #[test]
    fn a_job_that_is_not_open_queues_nothing() {
        let mb = Mailbox::new(0);
        mb.deliver(of(5, 1, b"early"));
        assert_eq!(mb.queued(), 0);
        mb.open_job(5);
        mb.open_job(5);
        mb.deliver(of(5, 1, b"left-behind"));
        mb.deliver(of(6, 1, b"never-opened"));
        assert_eq!(mb.queued(), 1);
        // Closing drops what the job left, and what arrives for it after.
        mb.close_job(5);
        assert_eq!(mb.queued(), 0);
        mb.deliver(of(5, 1, b"late"));
        assert_eq!(mb.queued(), 0);
        // Other jobs are untouched.
        mb.deliver(of(0, 1, b"root"));
        assert_eq!(mb.queued(), 1);
    }

    /// Long enough that a stalled test thread still probes before it.
    const HELD: Duration = Duration::from_millis(200);

    /// `msg(src, tag, bytes)`, ripe `after` from now.
    fn held(src: usize, tag: Tag, bytes: &'static [u8], after: Duration) -> Message {
        Message {
            ready: Some(Instant::now() + after),
            ..msg(src, tag, bytes)
        }
    }

    #[test]
    fn a_probe_does_not_see_a_message_before_it_is_ripe() {
        let mb = Mailbox::new(0);
        let due = Instant::now() + HELD;
        mb.deliver(held(1, Tag::app(0), b"later", HELD));
        assert_eq!(mb.try_recv(1, Tag::app(0)), None);
        assert_eq!(mb.queued(), 1);
        // A stamp already past is ripe.
        mb.deliver(held(2, Tag::app(0), b"now", Duration::ZERO));
        assert_eq!(mb.try_recv(2, Tag::app(0)).unwrap(), "now");
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        assert_eq!(mb.try_recv(1, Tag::app(0)).unwrap(), "later");
    }

    #[test]
    fn a_wait_wakes_at_the_stamp_with_no_further_delivery() {
        let mb = Arc::new(Mailbox::new(0));
        let start = Instant::now();
        let waiter = {
            let mb = Arc::clone(&mb);
            let wait = Duration::from_secs(5);
            std::thread::spawn(move || {
                let got = mb.recv_timeout(1, Tag::app(0), wait).unwrap();
                (got, start.elapsed())
            })
        };
        // The waiter is asleep before the message comes: the delivery must
        // set its alarm.
        std::thread::sleep(Duration::from_millis(10));
        mb.deliver(held(1, Tag::app(0), b"ripe", Duration::from_millis(40)));
        let (payload, at) = waiter.join().unwrap();
        assert_eq!(payload, "ripe");
        assert!(at >= Duration::from_millis(50), "{at:?}");
        assert!(at < Duration::from_millis(500), "{at:?}");
        // A deadline before the stamp times out; one after it receives.
        mb.deliver(held(1, Tag::app(0), b"next", HELD));
        assert!(matches!(
            mb.recv_timeout(1, Tag::app(0), Duration::from_millis(10)),
            Err(NetError::Timeout { src: 1, .. })
        ));
        let got = mb.recv_timeout(1, Tag::app(0), Duration::from_secs(5));
        assert_eq!(got.unwrap(), "next");
    }

    #[test]
    fn an_unripe_head_holds_a_ripe_younger_message_of_its_key() {
        let mb = Mailbox::new(0);
        mb.deliver(held(1, Tag::app(0), b"older", HELD));
        mb.deliver(msg(1, Tag::app(0), b"younger"));
        // Another source's ripe message is not held behind it.
        mb.deliver(msg(2, Tag::app(0), b"other"));
        let keys = [(Tag::app(0), 1), (Tag::app(0), 2)];
        let probe = |mb: &Mailbox| mb.recv_any(0, &keys, Some(Instant::now()));
        assert_eq!(probe(&mb).unwrap(), (1, Bytes::from_static(b"other")));
        assert!(matches!(probe(&mb), Err(NetError::Timeout { .. })));
        assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "older");
        assert_eq!(mb.try_recv(1, Tag::app(0)).unwrap(), "younger");
        // An earlier stamp behind a later one of its source waits for it,
        // under another tag too.
        mb.deliver(held(1, Tag::app(0), b"first", HELD));
        mb.deliver(held(1, Tag::app(1), b"second", Duration::ZERO));
        // Another job's message from the same source is not.
        mb.open_job(7);
        mb.deliver(of(7, 1, b"job-7"));
        assert_eq!(mb.try_recv(1, Tag::app(1)), None);
        let job_7 = mb.recv_any(7, &[(Tag::app(3), 1)], Some(Instant::now()));
        assert_eq!(job_7.unwrap().1, "job-7");
        assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "first");
        assert_eq!(mb.try_recv(1, Tag::app(1)).unwrap(), "second");
    }

    #[test]
    fn a_gone_sources_unripe_message_is_received_before_disconnected() {
        for mark in [
            |mb: &Mailbox| mb.disconnect_src(1),
            |mb: &Mailbox| mb.close(),
        ] {
            let mb = Mailbox::new(3);
            mb.deliver(held(1, Tag::app(0), b"in-flight", HELD));
            mark(&mb);
            // The wait holds for it: no `Disconnected` while it is held …
            assert!(matches!(mb.try_recv_checked(1, Tag::app(0)), Ok(None)));
            assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "in-flight");
            // … and it is the source's last word.
            assert!(matches!(
                mb.recv(1, Tag::app(0)),
                Err(NetError::Disconnected { rank: 3 })
            ));
        }
    }

    /// Blocks until a receiver is asleep in `mb`'s wait.
    fn until_asleep(mb: &Mailbox) {
        while lock(&mb.inner).waiters == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_sleeper_wakes_on_a_delivery_and_on_a_new_earliest_held_message() {
        // Far enough that only a wake-up ends the wait in time.
        let far = Duration::from_secs(30);
        for deadline in [None, Some(Instant::now() + far)] {
            let mb = Arc::new(Mailbox::new(0));
            let keys = [(Tag::app(0), 1), (Tag::app(1), 1)];
            let waiter = |mb: &Arc<Mailbox>| {
                let mb = Arc::clone(mb);
                std::thread::spawn(move || mb.recv_any(0, &keys, deadline).unwrap())
            };
            // A delivery wakes it.
            let start = Instant::now();
            let handle = waiter(&mb);
            until_asleep(&mb);
            mb.deliver(msg(1, Tag::app(0), b"now"));
            assert_eq!(handle.join().unwrap().1, "now");
            // Asleep until another source's held message ripens, far off: a
            // listed one held for less is the new earliest and wakes it to
            // sleep until that one's stamp instead.
            mb.deliver(held(2, Tag::app(0), b"unlisted", far));
            let handle = waiter(&mb);
            until_asleep(&mb);
            mb.deliver(held(1, Tag::app(1), b"soon", Duration::from_millis(20)));
            assert_eq!(handle.join().unwrap().1, "soon");
            assert!(start.elapsed() < far / 2, "{:?}", start.elapsed());
            assert_eq!(lock(&mb.inner).waiters, 0);
        }
    }

    #[test]
    fn close_job_drops_unripe_messages() {
        let mb = Mailbox::new(0);
        mb.open_job(5);
        mb.deliver(Message {
            job: 5,
            ..held(1, Tag::app(0), b"held", Duration::from_millis(10))
        });
        mb.deliver(Message {
            job: 5,
            ..msg(1, Tag::app(0), b"behind-it")
        });
        mb.deliver(held(1, Tag::app(0), b"job-0", Duration::from_millis(10)));
        assert_eq!(mb.queued(), 3);
        mb.close_job(5);
        assert_eq!(mb.queued(), 1);
        mb.open_job(5);
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(
            mb.recv_any(5, &[(Tag::app(0), 1)], Some(Instant::now())),
            Err(NetError::Timeout { .. })
        ));
        assert_eq!(mb.recv(1, Tag::app(0)).unwrap(), "job-0");
    }
}
