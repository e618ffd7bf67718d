//! The transport abstraction: point-to-point sends plus native multicast.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::local::LocalFabric;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//!
//! let fabric = LocalFabric::new(3);
//! let sender = fabric.endpoint(0);
//! // One native multicast serves both receivers from a single buffer.
//! sender
//!     .multicast(&[1, 2], Tag::app(0), Bytes::from_static(b"pkt"))
//!     .unwrap();
//! assert_eq!(fabric.endpoint(1).recv(0, Tag::app(0)).unwrap(), "pkt");
//! assert_eq!(fabric.endpoint(2).recv(0, Tag::app(0)).unwrap(), "pkt");
//! ```

use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{NetError, Result};
use crate::message::{Key, Tag};

/// A message transport for one endpoint of a fabric.
///
/// Implementations: [`local::LocalEndpoint`](crate::local::LocalEndpoint)
/// (in-process, channel-backed), [`tcp::TcpEndpoint`](crate::tcp::TcpEndpoint)
/// (real sockets) and [`fault::FaultyTransport`](crate::fault::FaultyTransport) (failure
/// injection for tests).
///
/// Semantics mirror MPI's point-to-point layer:
/// * `send` is asynchronous and never blocks on the receiver (buffered);
/// * receives match on exact source *and* tag;
/// * messages between one `(src, dst, tag)` triple arrive in send order;
/// * `multicast` delivers one payload to a destination set, overlapping the
///   copies where the fabric can (shared buffer in memory; on TCP, copies
///   written back to back into kernel buffers that the receivers drain
///   concurrently).
pub trait Transport: Send + Sync {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of endpoints in the fabric.
    fn world_size(&self) -> usize;

    /// Sends `payload` to `dst` under `tag`.
    fn send(&self, dst: usize, tag: Tag, payload: Bytes) -> Result<()>;

    /// Delivers `payload` to every rank in `dsts` under `tag` — the
    /// one-to-many primitive of the coded shuffle.
    ///
    /// `dsts` is a destination *set*: duplicate entries receive a single
    /// copy. The default implementation is serial-unicast emulation (one
    /// `send` per distinct destination, back to back); fabrics with a
    /// genuine concurrent path override it:
    /// [`LocalEndpoint`](crate::local::LocalEndpoint) delivers one shared
    /// buffer, [`TcpEndpoint`](crate::tcp::TcpEndpoint) writes the copies
    /// back to back under every destination's lock at once.
    fn multicast(&self, dsts: &[usize], tag: Tag, payload: Bytes) -> Result<()> {
        let mut seen = vec![false; self.world_size()];
        for &dst in dsts {
            if let Some(flag) = seen.get_mut(dst) {
                if std::mem::replace(flag, true) {
                    continue;
                }
            }
            // Out-of-range destinations fall through for `send` to reject.
            self.send(dst, tag, payload.clone())?;
        }
        Ok(())
    }

    /// The one way to wait for a message: blocks until one is queued under
    /// any of `keys` — exact tag and source, sorted ascending — and returns
    /// it with the index of its key, the lowest key first. A queued message
    /// always drains first; with nothing queued the wait ends with
    /// `PeerDead` when a listed source has been declared dead,
    /// `Disconnected` when one hung up or this endpoint shut down, and
    /// `Timeout` once `deadline` passes (`None` waits indefinitely, a past
    /// deadline only probes). See
    /// [`Mailbox::recv_any`](crate::mailbox::Mailbox::recv_any).
    fn recv_any(&self, keys: &[Key], deadline: Option<Instant>) -> Result<(usize, Bytes)>;

    /// A wait on the one key `(src, tag)`, with the rank checked — what the
    /// three receives below share.
    fn recv_from(&self, src: usize, tag: Tag, deadline: Option<Instant>) -> Result<Bytes> {
        let world = self.world_size();
        if src >= world {
            return Err(NetError::InvalidRank { rank: src, world });
        }
        Ok(self.recv_any(&[(tag, src)], deadline)?.1)
    }

    /// Blocks until a message from `(src, tag)` arrives.
    fn recv(&self, src: usize, tag: Tag) -> Result<Bytes> {
        self.recv_from(src, tag, None)
    }

    /// Blocking receive with a deadline.
    fn recv_timeout(&self, src: usize, tag: Tag, timeout: Duration) -> Result<Bytes> {
        self.recv_from(src, tag, Some(Instant::now() + timeout))
    }

    /// Non-blocking receive: `Ok(None)` when nothing is queued and the
    /// source can still speak.
    fn try_recv(&self, src: usize, tag: Tag) -> Result<Option<Bytes>> {
        match self.recv_from(src, tag, Some(Instant::now())) {
            Ok(payload) => Ok(Some(payload)),
            Err(NetError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Tears down this endpoint: wakes blocked receivers with
    /// `Disconnected`. Used for orderly shutdown and for aborting a fabric
    /// when a peer panics.
    fn shutdown(&self);

    /// Records that `peer` has been declared dead by the health layer:
    /// receives matching that source fail with the typed
    /// [`PeerDead`](crate::error::NetError::PeerDead) once its queued
    /// traffic drains, instead of blocking until a generic timeout.
    /// Default: no-op, for transports without a per-source wait path.
    fn mark_peer_dead(&self, _peer: usize) {}
}
