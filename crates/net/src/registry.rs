//! The rank registry: who is rank `i` and how to reach them.
//!
//! The paper's deployment fixes a coordinator plus `K` workers whose MPI
//! ranks are known up front (Fig. 8). [`RankRegistry`] is that membership
//! map for the socket fabric: it binds one loopback listener per rank and
//! records every rank's address. The [`tcp`](crate::tcp) endpoints bring
//! links up **lazily** — a directed link is dialed on the first send that
//! needs it, the dialer introducing itself with a 4-byte hello — so sparse
//! communication patterns open only the file descriptors they use.
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

use std::net::{SocketAddr, TcpListener};

use crate::error::{NetError, Result};

/// Highest world size the fabrics support: receiver sets are traced as
/// `u128` bitmasks.
pub const MAX_WORLD: usize = 128;

/// Rank → socket address membership for one fabric.
#[derive(Clone, Debug)]
pub struct RankRegistry {
    addrs: Vec<SocketAddr>,
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
        Ok((RankRegistry { addrs }, listeners))
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
}

/// A point-in-time membership view: the registry's world filtered by the
/// health layer's dead-mask. Successor choice is deterministic (next
/// surviving rank, cyclically), so every survivor computes the same
/// adoption plan without further coordination.
///
/// ```
/// use cts_net::registry::MembershipView;
///
/// let view = MembershipView::new(4, 0b0100); // rank 2 is dead
/// assert!(view.is_alive(1) && !view.is_alive(2));
/// assert_eq!(view.dead_ranks(), vec![2]);
/// assert_eq!(view.successor_of(2), Some(3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipView {
    world: usize,
    dead_mask: u128,
}

impl MembershipView {
    /// A view over `world` ranks with the given dead-mask (bit `i` set =
    /// rank `i` is dead). Bits at or above `world` are ignored.
    pub fn new(world: usize, dead_mask: u128) -> Self {
        let keep = if world >= 128 {
            u128::MAX
        } else {
            (1u128 << world) - 1
        };
        MembershipView {
            world,
            dead_mask: dead_mask & keep,
        }
    }

    /// True if `rank` has not been declared dead.
    pub fn is_alive(&self, rank: usize) -> bool {
        rank < self.world && self.dead_mask & (1u128 << rank) == 0
    }

    /// Dead ranks, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.world).filter(|&r| !self.is_alive(r)).collect()
    }

    /// The deterministic successor of `rank`: the next surviving rank
    /// cyclically after it. `None` if nobody survives.
    pub fn successor_of(&self, rank: usize) -> Option<usize> {
        (1..=self.world)
            .map(|step| (rank + step) % self.world)
            .find(|&r| self.is_alive(r))
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
    fn membership_views_pick_deterministic_successors() {
        let view = MembershipView::new(5, 0);
        assert!(view.dead_ranks().is_empty());
        assert_eq!(view.successor_of(4), Some(0), "succession wraps");

        let holey = MembershipView::new(5, 0b11000); // 3 and 4 dead
        assert_eq!(holey.dead_ranks(), vec![3, 4]);
        assert_eq!(holey.successor_of(3), Some(0), "skips dead 4, wraps");
        assert_eq!(holey.successor_of(2), Some(0));

        // Out-of-world bits are masked off; a fully dead world has no
        // successor.
        assert!(MembershipView::new(3, !0b111).dead_ranks().is_empty());
        assert_eq!(MembershipView::new(3, 0b111).successor_of(0), None);
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
