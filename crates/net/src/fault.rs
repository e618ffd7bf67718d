//! Fault injection for transport-level failure testing.
//!
//! Wraps any [`Transport`] and applies a user rule to every outgoing
//! message: deliver, drop, corrupt, or fail the send. Tests use this to
//! verify that the engines and the packet parser surface transport
//! misbehaviour as errors instead of silently producing wrong output.
//! Multicasts decompose into per-destination sends inside the wrapper, so
//! a rule sees (and can fault) each copy individually.
//!
//! ```
//! use std::sync::Arc;
//! use bytes::Bytes;
//! use cts_net::fault::{FaultAction, FaultyTransport};
//! use cts_net::local::LocalFabric;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//!
//! let fabric = LocalFabric::new(2);
//! // Drop every first send, deliver the rest.
//! let faulty = FaultyTransport::new(
//!     Arc::new(fabric.endpoint(0)),
//!     Box::new(|_, _, _, idx| if idx == 0 { FaultAction::Drop } else { FaultAction::Deliver }),
//! );
//! faulty.send(1, Tag::app(0), Bytes::from_static(b"lost")).unwrap();
//! faulty.send(1, Tag::app(0), Bytes::from_static(b"kept")).unwrap();
//! assert_eq!(faulty.dropped(), 1);
//! assert_eq!(fabric.endpoint(1).recv(0, Tag::app(0)).unwrap(), "kept");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{NetError, Result};
use crate::message::{Key, Tag};
use crate::transport::Transport;

/// Decision returned by a fault rule for one outgoing message.
pub enum FaultAction {
    /// Deliver unchanged.
    Deliver,
    /// Silently drop (receiver never sees it — models a lost frame).
    Drop,
    /// Deliver a corrupted payload instead.
    Corrupt(Bytes),
    /// Deliver, but only after `Duration` — a slow link or straggling
    /// sender. The `send` call itself returns immediately (the delay runs
    /// on a detached thread), modeling a node whose NIC queue drains
    /// slowly rather than one that blocks its own compute.
    Delay(Duration),
    /// Fail the `send` call itself with an error.
    FailSend,
}

/// The rule signature: `(dst, tag, payload, send_index)` → action.
pub type FaultRule = dyn Fn(usize, Tag, &Bytes, u64) -> FaultAction + Send + Sync;

/// A straggler rule: every coded-shuffle multicast this node sends
/// (purpose [`Tag::BCAST`]) is delayed by `delay`; barrier and other
/// control traffic flows normally, so stage synchronization still works —
/// the node is slow at shuffling, not partitioned.
pub fn straggler_delay_rule(delay: Duration) -> Arc<FaultRule> {
    Arc::new(move |_dst, tag: Tag, _payload: &Bytes, _idx| {
        if tag.purpose() == Tag::BCAST {
            FaultAction::Delay(delay)
        } else {
            FaultAction::Deliver
        }
    })
}

/// The `∞×` straggler: every coded-shuffle multicast this node sends is
/// silently dropped — its packets never arrive. Control traffic still
/// flows, so the node participates in barriers and keeps receiving;
/// only quorum decode can finish a shuffle with such a sender.
pub fn straggler_blackhole_rule() -> Arc<FaultRule> {
    Arc::new(move |_dst, tag: Tag, _payload: &Bytes, _idx| {
        if tag.purpose() == Tag::BCAST {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    })
}

/// Where in a job's lifecycle an injected crash fires. Points map to the
/// engine's stage sequence; the engine checks its crash spec at each
/// one and dies there — fail-stop, never Byzantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// In Map, after the rank's first files are mapped and before its
    /// first packet is encoded — nothing was shared.
    MidMap,
    /// After the rank's first coded packets are encoded, before any of
    /// them is posted — nothing was shared.
    MidEncode,
    /// During the shuffle, when the rank's first `n` group multicasts have
    /// left its NIC and no other — peers hold a partial view of its
    /// traffic.
    AfterSends(u64),
    /// After the shuffle completes, before the rank reduces its partition.
    PreReduce,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPoint::MidMap => write!(f, "mid-map"),
            CrashPoint::MidEncode => write!(f, "mid-encode"),
            CrashPoint::AfterSends(n) => write!(f, "after-{n}-sends"),
            CrashPoint::PreReduce => write!(f, "pre-reduce"),
        }
    }
}

/// A crash-at-point injection: `rank` dies fail-stop at `point`. The coded
/// engine interprets this spec directly (it knows where stage boundaries
/// are).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank that dies.
    pub rank: usize,
    /// Where it dies.
    pub point: CrashPoint,
}

/// A [`Transport`] wrapper that applies a [`FaultRule`] to outgoing traffic.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    rule: Box<FaultRule>,
    sends: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
}

impl FaultyTransport {
    /// Wraps `inner` with `rule`.
    pub fn new(inner: Arc<dyn Transport>, rule: Box<FaultRule>) -> Self {
        FaultyTransport {
            inner,
            rule,
            sends: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// Number of messages silently dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of messages corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Number of messages delivered late so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }
}

impl Transport for FaultyTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        let idx = self.sends.fetch_add(1, Ordering::Relaxed);
        match (self.rule)(dst, tag, &payload, idx) {
            FaultAction::Deliver => self.inner.send(dst, tag, payload),
            FaultAction::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            FaultAction::Corrupt(bad) => {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                self.inner.send(dst, tag, bad)
            }
            FaultAction::Delay(d) => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
                let inner = Arc::clone(&self.inner);
                std::thread::spawn(move || {
                    std::thread::sleep(d);
                    // The receiver may have shut down by the time a long
                    // delay drains; a late send failing is the same
                    // observable as a drop.
                    let _ = inner.send(dst, tag, payload);
                });
                Ok(())
            }
            FaultAction::FailSend => Err(NetError::InjectedFault {
                what: format!("send #{idx} to {dst} {tag} failed by rule"),
            }),
        }
    }

    fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)> {
        self.inner.recv_any(keys, deadline)
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }

    fn mark_peer_dead(&self, peer: usize) {
        self.inner.mark_peer_dead(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFabric;

    #[test]
    fn deliver_passes_through() {
        let fabric = LocalFabric::new(2);
        let faulty = FaultyTransport::new(
            Arc::new(fabric.endpoint(0)),
            Box::new(|_, _, _, _| FaultAction::Deliver),
        );
        faulty
            .send(1, Tag::app(0), Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(fabric.endpoint(1).recv(0, Tag::app(0)).unwrap(), "ok");
    }

    #[test]
    fn drop_loses_the_message() {
        let fabric = LocalFabric::new(2);
        let faulty = FaultyTransport::new(
            Arc::new(fabric.endpoint(0)),
            Box::new(|_, _, _, idx| {
                if idx == 0 {
                    FaultAction::Drop
                } else {
                    FaultAction::Deliver
                }
            }),
        );
        faulty
            .send(1, Tag::app(0), Bytes::from_static(b"lost"))
            .unwrap();
        faulty
            .send(1, Tag::app(0), Bytes::from_static(b"kept"))
            .unwrap();
        assert_eq!(faulty.dropped(), 1);
        // The first message that arrives is the second one sent.
        assert_eq!(fabric.endpoint(1).recv(0, Tag::app(0)).unwrap(), "kept");
    }

    #[test]
    fn corrupt_replaces_payload() {
        let fabric = LocalFabric::new(2);
        let faulty = FaultyTransport::new(
            Arc::new(fabric.endpoint(0)),
            Box::new(|_, _, payload, _| {
                let mut bad = payload.to_vec();
                if !bad.is_empty() {
                    bad[0] ^= 0xFF;
                }
                FaultAction::Corrupt(Bytes::from(bad))
            }),
        );
        faulty
            .send(1, Tag::app(0), Bytes::from_static(b"abc"))
            .unwrap();
        assert_eq!(faulty.corrupted(), 1);
        let got = fabric.endpoint(1).recv(0, Tag::app(0)).unwrap();
        assert_eq!(got[0], b'a' ^ 0xFF);
        assert_eq!(&got[1..], b"bc");
    }

    #[test]
    fn delay_delivers_late_and_counts() {
        let fabric = LocalFabric::new(2);
        let faulty = FaultyTransport::new(
            Arc::new(fabric.endpoint(0)),
            Box::new(|_, _, _, _| FaultAction::Delay(Duration::from_millis(30))),
        );
        let t0 = std::time::Instant::now();
        faulty
            .send(1, Tag::new(Tag::BCAST, 0), Bytes::from_static(b"late"))
            .unwrap();
        // The send itself returns immediately (detached delivery).
        assert!(t0.elapsed() < Duration::from_millis(25));
        assert_eq!(faulty.delayed(), 1);
        let got = fabric
            .endpoint(1)
            .recv_timeout(0, Tag::new(Tag::BCAST, 0), Duration::from_secs(2))
            .unwrap();
        assert_eq!(got, "late");
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn straggler_rules_spare_control_traffic() {
        let delay = straggler_delay_rule(Duration::from_millis(1));
        let hole = straggler_blackhole_rule();
        let bcast = Tag::new(Tag::BCAST, 7);
        let barrier = Tag::new(Tag::BARRIER, 0);
        assert!(matches!(
            delay(1, bcast, &Bytes::new(), 0),
            FaultAction::Delay(_)
        ));
        assert!(matches!(
            delay(1, barrier, &Bytes::new(), 0),
            FaultAction::Deliver
        ));
        assert!(matches!(
            hole(1, bcast, &Bytes::new(), 0),
            FaultAction::Drop
        ));
        assert!(matches!(
            hole(1, barrier, &Bytes::new(), 0),
            FaultAction::Deliver
        ));
        assert!(matches!(
            hole(1, Tag::app(3), &Bytes::new(), 0),
            FaultAction::Deliver
        ));
    }

    #[test]
    fn crash_points_display_their_cli_names() {
        assert_eq!(CrashPoint::AfterSends(5).to_string(), "after-5-sends");
        assert_eq!(CrashPoint::MidEncode.to_string(), "mid-encode");
    }

    #[test]
    fn fail_send_surfaces_error() {
        let fabric = LocalFabric::new(2);
        let faulty = FaultyTransport::new(
            Arc::new(fabric.endpoint(0)),
            Box::new(|_, _, _, _| FaultAction::FailSend),
        );
        let err = faulty.send(1, Tag::app(0), Bytes::new()).unwrap_err();
        assert!(matches!(err, NetError::InjectedFault { .. }));
    }
}
