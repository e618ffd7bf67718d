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
//! // One native multicast serves both receivers from a single buffer. Job 0
//! // is open on a fresh fabric.
//! sender
//!     .multicast(&[1, 2], 0, Tag::app(0), Bytes::from_static(b"pkt"), None)
//!     .unwrap();
//! assert_eq!(fabric.endpoint(1).recv(0, 0, Tag::app(0)).unwrap(), "pkt");
//! assert_eq!(fabric.endpoint(2).recv(0, 0, Tag::app(0)).unwrap(), "pkt");
//! ```

use std::time::Instant;

use bytes::Bytes;

use crate::error::{NetError, Result};
use crate::mailbox::Mailbox;
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
/// * every message belongs to a job, the part an MPI communicator plays:
///   an endpoint's [`mailbox`](Self::mailbox) queues a job's messages only
///   while the job is open there;
/// * receives match on job, exact source *and* tag;
/// * messages between one `(src, dst, job, tag)` arrive in send order;
/// * `multicast` delivers one payload to a destination set, overlapping the
///   copies where the fabric can (shared buffer in memory; on TCP, copies
///   written back to back into kernel buffers that the receivers drain
///   concurrently);
/// * a message stamped `ready` (its sender NIC's booked end) is handed over
///   at once and held by the receiving mailbox until then.
pub trait Transport: Send + Sync {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of endpoints in the fabric.
    fn world_size(&self) -> usize;

    /// Sends `payload` to `dst` as job `job`'s message under `tag`.
    fn send(
        &self,
        dst: usize,
        job: u32,
        tag: Tag,
        payload: Bytes,
        ready: Option<Instant>,
    ) -> Result<()>;

    /// Delivers `payload` to every rank in `dsts` as job `job`'s message
    /// under `tag` — the one-to-many primitive of the coded shuffle.
    ///
    /// `dsts` is a destination *set*: duplicate entries receive a single
    /// copy. The default implementation is one `send` per distinct
    /// destination, back to back — on [`LocalEndpoint`](crate::local::LocalEndpoint)
    /// a queue push each, every copy sharing the one buffer;
    /// [`TcpEndpoint`](crate::tcp::TcpEndpoint) overrides it to write the
    /// copies back to back under every destination's lock at once.
    fn multicast(
        &self,
        dsts: &[usize],
        job: u32,
        tag: Tag,
        payload: Bytes,
        ready: Option<Instant>,
    ) -> Result<()> {
        let mut seen = vec![false; self.world_size()];
        for &dst in dsts {
            if let Some(flag) = seen.get_mut(dst) {
                if std::mem::replace(flag, true) {
                    continue;
                }
            }
            // Out-of-range destinations fall through for `send` to reject.
            self.send(dst, job, tag, payload.clone(), ready)?;
        }
        Ok(())
    }

    /// The mailbox this endpoint receives from: where the fabric queues
    /// the messages of the jobs open on it.
    fn mailbox(&self) -> &Mailbox;

    /// The one way to wait for a message: blocks until one of job `job` is
    /// queued under any of `keys` — exact tag and source, sorted ascending —
    /// and returns it with the index of its key, the lowest key first. See
    /// [`Mailbox::recv_any`].
    fn recv_any(
        &self,
        job: u32,
        keys: &[Key],
        deadline: Option<Instant>,
    ) -> Result<(usize, Bytes)> {
        self.mailbox().recv_any(job, keys, deadline)
    }

    /// A wait on the one key `(tag, src)` of job `job` until `deadline`,
    /// with the rank checked.
    fn recv_from(
        &self,
        src: usize,
        job: u32,
        tag: Tag,
        deadline: Option<Instant>,
    ) -> Result<Bytes> {
        let world = self.world_size();
        if src >= world {
            return Err(NetError::InvalidRank { rank: src, world });
        }
        Ok(self.recv_any(job, &[(tag, src)], deadline)?.1)
    }

    /// Blocks until a message of job `job` from `(src, tag)` arrives.
    fn recv(&self, src: usize, job: u32, tag: Tag) -> Result<Bytes> {
        self.recv_from(src, job, tag, None)
    }

    /// Tears down this endpoint: wakes blocked receivers with
    /// `Disconnected`. Used for orderly shutdown and for aborting a fabric
    /// when a peer panics.
    fn shutdown(&self);
}
