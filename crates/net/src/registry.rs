//! The rank registry: who is rank `i` and how to reach them.
//!
//! The paper's deployment fixes a coordinator plus `K` workers whose MPI
//! ranks are known up front (Fig. 8). [`RankRegistry`] is that membership
//! map for the socket fabric: it binds one loopback listener per rank and
//! records every rank's address. The [`tcp`](crate::tcp) endpoints bring
//! links up **lazily** — a directed link is dialed on the first send that
//! needs it, the dialer introducing itself with a hello — so sparse
//! communication patterns open only the file descriptors they use. The
//! hello is the dialer's rank and a token drawn for the fabric when it
//! binds: a connection that does not know the token is nobody's link, so
//! a stray dialer on loopback cannot speak for a rank, nor cut it off when
//! it hangs up.
//!
//! ```
//! use cts_net::registry::RankRegistry;
//!
//! let (registry, listeners) = RankRegistry::bind_loopback(3).unwrap();
//! assert_eq!(registry.world_size(), 3);
//! assert_eq!(listeners.len(), 3);
//! // Every rank has a distinct loopback address.
//! assert_ne!(registry.addr(0).unwrap(), registry.addr(1).unwrap());
//! assert!(registry.addr(7).is_none());
//! ```

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpListener};

use crate::error::{NetError, Result};

/// Highest world size the fabrics support: receiver sets are traced as
/// `u128` bitmasks.
pub const MAX_WORLD: usize = 128;

/// Bytes of a hello: the rank as a little-endian `u32`, then the token as a
/// little-endian `u64`.
pub(crate) const HELLO_LEN: usize = 12;

/// Rank → socket address membership for one fabric.
#[derive(Clone, Debug)]
pub struct RankRegistry {
    addrs: Vec<SocketAddr>,
    /// This fabric's, and no other's: std seeds every `RandomState` afresh.
    token: u64,
}

impl RankRegistry {
    /// How many times a single listener bind is retried before the error
    /// propagates. Ephemeral-port allocation (`127.0.0.1:0`) cannot collide
    /// with another bound socket, but under rapid-sequence cluster churn
    /// the kernel can still transiently refuse (ephemeral range pressure,
    /// `TIME_WAIT` buildup at high fabric turnover); a short bounded retry
    /// with linear backoff absorbs that without masking real failures.
    pub const BIND_RETRIES: usize = 8;

    /// Binds `k` loopback listeners and records their addresses. Returns
    /// the registry plus the listeners (in rank order), one per endpoint's
    /// acceptor.
    ///
    /// Ports are always kernel-assigned ephemerals (never fixed offsets),
    /// so any number of clusters can come up concurrently in one process
    /// or in rapid sequence without port collisions. Rust's std sets
    /// `SO_REUSEADDR` on listeners on Unix, so a recycled address in
    /// `TIME_WAIT` does not block a fresh bind; transient refusals are
    /// retried up to [`BIND_RETRIES`](Self::BIND_RETRIES) times.
    ///
    /// # Errors
    /// I/O errors from binding (after retries); `InvalidRank` if `k` is 0
    /// or exceeds [`MAX_WORLD`].
    pub fn bind_loopback(k: usize) -> Result<(RankRegistry, Vec<TcpListener>)> {
        if k == 0 || k > MAX_WORLD {
            return Err(NetError::InvalidRank {
                rank: k,
                world: MAX_WORLD,
            });
        }
        let mut listeners = Vec::with_capacity(k);
        let mut addrs = Vec::with_capacity(k);
        for _ in 0..k {
            let listener = Self::bind_one_with_retry()?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        let token = RandomState::new().build_hasher().finish();
        Ok((RankRegistry { addrs, token }, listeners))
    }

    fn bind_one_with_retry() -> Result<TcpListener> {
        let mut last_err = None;
        for attempt in 0..Self::BIND_RETRIES {
            match TcpListener::bind("127.0.0.1:0") {
                Ok(listener) => return Ok(listener),
                Err(e) => {
                    last_err = Some(e);
                    // Linear backoff: 1, 2, 3, … ms. Total worst case stays
                    // well under 50 ms for BIND_RETRIES = 8.
                    std::thread::sleep(std::time::Duration::from_millis(attempt as u64 + 1));
                }
            }
        }
        Err(last_err.expect("at least one bind attempt").into())
    }

    /// Number of registered ranks.
    pub fn world_size(&self) -> usize {
        self.addrs.len()
    }

    /// The address of `rank`, if registered.
    pub fn addr(&self, rank: usize) -> Option<SocketAddr> {
        self.addrs.get(rank).copied()
    }

    /// What `rank` writes first on a link it dials.
    pub(crate) fn hello(&self, rank: usize) -> [u8; HELLO_LEN] {
        let mut hello = [0u8; HELLO_LEN];
        hello[..4].copy_from_slice(&(rank as u32).to_le_bytes());
        hello[4..].copy_from_slice(&self.token.to_le_bytes());
        hello
    }

    /// The rank `hello` names, if it carries this fabric's token and names
    /// a registered rank.
    pub(crate) fn rank_of(&self, hello: &[u8; HELLO_LEN]) -> Option<usize> {
        let (rank, token) = hello.split_at(4);
        if token != self.token.to_le_bytes() {
            return None;
        }
        let rank = u32::from_le_bytes(rank.try_into().expect("4 bytes")) as usize;
        (rank < self.world_size()).then_some(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_oversized_worlds_are_rejected() {
        assert!(matches!(
            RankRegistry::bind_loopback(0),
            Err(NetError::InvalidRank { .. })
        ));
        assert!(matches!(
            RankRegistry::bind_loopback(MAX_WORLD + 1),
            Err(NetError::InvalidRank { .. })
        ));
    }

    #[test]
    fn a_hello_names_its_rank_only_with_its_fabrics_token() {
        let (ours, _listeners) = RankRegistry::bind_loopback(3).unwrap();
        let (theirs, _listeners) = RankRegistry::bind_loopback(3).unwrap();
        assert_eq!(ours.rank_of(&ours.hello(2)), Some(2));
        assert_eq!(ours.rank_of(&theirs.hello(2)), None);
        assert_eq!(ours.rank_of(&ours.hello(3)), None);
    }

    #[test]
    fn rapid_sequence_and_concurrent_bringup_never_collides() {
        // Rapid-sequence churn: bring whole worlds up and down back to
        // back. Ephemeral ports + SO_REUSEADDR mean no run may fail.
        for _ in 0..20 {
            let (registry, listeners) = RankRegistry::bind_loopback(8).unwrap();
            assert_eq!(registry.world_size(), 8);
            drop(listeners);
        }
        // Concurrent bring-up: several clusters binding simultaneously in
        // one process must each get disjoint address sets. The listeners
        // live until the comparison: a port whose listener is gone is the
        // kernel's to hand out again.
        let worlds: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| s.spawn(|| RankRegistry::bind_loopback(6).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all_addrs = std::collections::HashSet::new();
        for (registry, _listeners) in &worlds {
            for addr in (0..6).map(|rank| registry.addr(rank).unwrap()) {
                assert!(all_addrs.insert(addr), "duplicate bound addr {addr}");
            }
        }
        assert_eq!(all_addrs.len(), 6 * 6);
    }
}
