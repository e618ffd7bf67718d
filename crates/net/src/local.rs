//! In-process transport: one mailbox per node, delivery is a queue push.
//!
//! This is the default substrate for experiments — it moves real bytes
//! between real per-node state with MPI matching semantics, at memory
//! speed. A send is a queue push, so [`Transport::multicast`]'s default —
//! one send per distinct destination — hands every destination a handle
//! to one reference-counted buffer: the in-memory analog of network-layer
//! multicast, the payload existing once however many nodes hear it.
//! Wall-clock realism comes either from an emulated
//! [`Nic`](crate::rate::Nic) or from replaying the recorded trace through
//! `cts-netsim`.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::local::LocalFabric;
//! use cts_net::message::Tag;
//! use cts_net::transport::Transport;
//!
//! let fabric = LocalFabric::new(2);
//! let (a, b) = (fabric.endpoint(0), fabric.endpoint(1));
//! a.send(1, 0, Tag::app(0), Bytes::from_static(b"ping"), None).unwrap();
//! assert_eq!(b.recv(0, 0, Tag::app(0)).unwrap(), "ping");
//! ```

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::error::{NetError, Result};
use crate::mailbox::Mailbox;
use crate::message::{Message, Tag};
use crate::transport::Transport;

/// The shared state of an in-process fabric.
pub struct LocalFabric {
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
}

impl LocalFabric {
    /// Creates a fabric of `k` endpoints.
    pub fn new(k: usize) -> Self {
        let mailboxes = Arc::new(
            (0..k)
                .map(|r| Arc::new(Mailbox::new(r)))
                .collect::<Vec<_>>(),
        );
        LocalFabric { mailboxes }
    }

    /// Number of endpoints.
    pub fn world_size(&self) -> usize {
        self.mailboxes.len()
    }

    /// The endpoint for `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= world_size`.
    pub fn endpoint(&self, rank: usize) -> LocalEndpoint {
        assert!(rank < self.mailboxes.len(), "rank {rank} out of range");
        LocalEndpoint {
            rank,
            mailboxes: Arc::clone(&self.mailboxes),
        }
    }

    /// All endpoints, rank order.
    pub fn endpoints(&self) -> Vec<LocalEndpoint> {
        (0..self.world_size()).map(|r| self.endpoint(r)).collect()
    }

    /// Closes every mailbox, waking all blocked receivers with
    /// `Disconnected` — the abort path when one SPMD node panics.
    pub fn abort(&self) {
        for mb in self.mailboxes.iter() {
            mb.close();
        }
    }
}

/// One endpoint of a [`LocalFabric`].
#[derive(Clone)]
pub struct LocalEndpoint {
    rank: usize,
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
}

impl LocalEndpoint {
    fn check(&self, rank: usize) -> Result<()> {
        if rank >= self.mailboxes.len() {
            return Err(NetError::InvalidRank {
                rank,
                world: self.mailboxes.len(),
            });
        }
        Ok(())
    }
}

impl Transport for LocalEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.mailboxes.len()
    }

    fn send(
        &self,
        dst: usize,
        job: u32,
        tag: Tag,
        payload: Bytes,
        ready: Option<Instant>,
    ) -> Result<()> {
        self.check(dst)?;
        self.mailboxes[dst].deliver(Message {
            src: self.rank,
            job,
            tag,
            payload,
            ready,
        });
        Ok(())
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailboxes[self.rank]
    }

    fn shutdown(&self) {
        self.mailboxes[self.rank].close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ping_pong() {
        let fabric = LocalFabric::new(2);
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        a.send(1, 0, Tag::app(0), Bytes::from_static(b"ping"), None)
            .unwrap();
        assert_eq!(b.recv(0, 0, Tag::app(0)).unwrap(), "ping");
        b.send(0, 0, Tag::app(0), Bytes::from_static(b"pong"), None)
            .unwrap();
        assert_eq!(a.recv(1, 0, Tag::app(0)).unwrap(), "pong");
    }

    #[test]
    fn send_to_invalid_rank_fails() {
        let fabric = LocalFabric::new(2);
        let a = fabric.endpoint(0);
        assert!(matches!(
            a.send(5, 0, Tag::app(0), Bytes::new(), None),
            Err(NetError::InvalidRank { rank: 5, world: 2 })
        ));
        assert!(a
            .recv_from(9, 0, Tag::app(0), Some(Instant::now()))
            .is_err());
    }

    #[test]
    fn self_send_is_allowed() {
        let fabric = LocalFabric::new(1);
        let a = fabric.endpoint(0);
        a.send(0, 0, Tag::app(3), Bytes::from_static(b"me"), None)
            .unwrap();
        assert_eq!(a.recv(0, 0, Tag::app(3)).unwrap(), "me");
    }

    #[test]
    fn concurrent_spmd_exchange() {
        let fabric = LocalFabric::new(4);
        let endpoints = fabric.endpoints();
        std::thread::scope(|scope| {
            for ep in endpoints {
                scope.spawn(move || {
                    let me = ep.rank();
                    let k = ep.world_size();
                    // Everyone sends its rank to everyone else …
                    for dst in (0..k).filter(|&d| d != me) {
                        ep.send(
                            dst,
                            0,
                            Tag::app(1),
                            Bytes::copy_from_slice(&[me as u8]),
                            None,
                        )
                        .unwrap();
                    }
                    // … and receives K-1 ranks back.
                    for src in (0..k).filter(|&s| s != me) {
                        let got = ep.recv(src, 0, Tag::app(1)).unwrap();
                        assert_eq!(got[0] as usize, src);
                    }
                });
            }
        });
    }

    #[test]
    fn abort_wakes_blocked_receivers() {
        let fabric = LocalFabric::new(2);
        let a = fabric.endpoint(0);
        let handle = std::thread::spawn(move || a.recv(1, 0, Tag::app(0)));
        std::thread::sleep(Duration::from_millis(20));
        fabric.abort();
        assert!(matches!(
            handle.join().unwrap(),
            Err(NetError::Disconnected { .. })
        ));
    }

    #[test]
    fn multicast_duplicates_deliver_once() {
        let fabric = LocalFabric::new(3);
        let a = fabric.endpoint(0);
        a.multicast(&[1, 2, 1], 0, Tag::app(0), Bytes::from_static(b"set"), None)
            .unwrap();
        let b = fabric.endpoint(1);
        assert_eq!(b.recv(0, 0, Tag::app(0)).unwrap(), "set");
        assert!(matches!(
            b.recv_from(0, 0, Tag::app(0), Some(Instant::now())),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn payload_sharing_is_zero_copy() {
        let fabric = LocalFabric::new(2);
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let payload = Bytes::from(vec![7u8; 1024]);
        let ptr = payload.as_ptr();
        a.send(1, 0, Tag::app(0), payload, None).unwrap();
        let got = b.recv(0, 0, Tag::app(0)).unwrap();
        assert_eq!(got.as_ptr(), ptr, "local delivery must not copy");
    }
}
