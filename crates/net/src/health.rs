//! Per-rank liveness: heartbeats, deadlines, and the Alive → Suspect →
//! Dead state machine.
//!
//! Every rank in a recovery-enabled job runs a [`Heartbeat`] thread that
//! beacons to all peers on [`Tag::HEARTBEAT`], and keeps a [`HealthBoard`]
//! that drains those beacons whenever the engine ticks it. A peer that stops
//! beaconing moves `Alive → Suspect` once its deadline lapses, then
//! through a bounded sequence of exponentially backed-off probe windows
//! before it is finally declared `Dead` — late heartbeats at any point
//! snap it back to `Alive`, so a scheduling hiccup never kills a healthy
//! rank. On death the board calls
//! [`Transport::mark_peer_dead`], turning any receive still blocked on
//! that peer into the typed
//! [`PeerDead`](crate::error::NetError::PeerDead) error instead of an
//! indefinite wait.
//!
//! Detection is heartbeat-only on purpose: the in-memory fabric gives
//! peers no socket EOF to observe when an endpoint stops (its mailbox
//! just goes quiet), so deadline expiry is the one signal that works
//! uniformly across the local and TCP fabrics.
//!
//! ```
//! use std::time::Duration;
//! use cts_net::health::{HealthConfig, Liveness};
//!
//! let cfg = HealthConfig::from_heartbeat(Duration::from_millis(10));
//! // A peer is only declared dead after the suspect deadline plus every
//! // probe window expires — far longer than one missed beacon.
//! assert!(cfg.death_deadline() > 10 * cfg.heartbeat);
//! assert_eq!(Liveness::default(), Liveness::Alive);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::metrics::Counter;

use crate::message::Tag;
use crate::transport::Transport;

/// Liveness of one peer as seen by one observer. Observers can disagree
/// transiently; the engine reconciles views at its synchronization points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats are arriving within deadline.
    #[default]
    Alive,
    /// The heartbeat deadline lapsed; probe windows are running.
    Suspect,
    /// Every probe window expired — the peer will never speak again.
    Dead,
}

/// Deadlines governing the liveness state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Interval between heartbeat beacons.
    pub heartbeat: Duration,
    /// Silence after which a peer turns `Suspect`.
    pub suspect_after: Duration,
    /// Number of probe windows a suspect gets before being declared dead.
    pub probes: u32,
    /// First probe window; each subsequent window doubles (bounded
    /// exponential backoff, `probes` windows total).
    pub probe_base: Duration,
}

impl HealthConfig {
    /// Deadlines derived from a heartbeat interval: suspect after 8 missed
    /// beacons, then 3 probe windows of 4×, 8×, and 16× the interval —
    /// death after 36 intervals of total silence.
    pub fn from_heartbeat(heartbeat: Duration) -> Self {
        HealthConfig {
            heartbeat,
            suspect_after: heartbeat * 8,
            probes: 3,
            probe_base: heartbeat * 4,
        }
    }

    /// Total silence needed to declare death: the suspect deadline plus
    /// all probe windows.
    pub fn death_deadline(&self) -> Duration {
        let mut total = self.suspect_after;
        let mut window = self.probe_base;
        for _ in 0..self.probes {
            total += window;
            window *= 2;
        }
        total
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::from_heartbeat(Duration::from_millis(25))
    }
}

/// The background beacon thread: sends an empty [`Tag::HEARTBEAT`] message
/// to every peer each interval until stopped. Send failures are ignored —
/// a beacon that cannot reach a peer is indistinguishable from a lost one,
/// and the peer's own detector handles the silence.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns the beacon thread for `transport`'s rank.
    pub fn spawn(transport: Arc<dyn Transport>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let me = transport.rank();
            let k = transport.world_size();
            let tag = Tag::new(Tag::HEARTBEAT, 0);
            while !flag.load(Ordering::Acquire) {
                for dst in (0..k).filter(|&d| d != me) {
                    let _ = transport.send(dst, tag, Bytes::new());
                }
                std::thread::sleep(interval);
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the beacon and joins the thread. A crashed rank calls this
    /// *before* going silent — its death is only observable because the
    /// beacons cease.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One rank's view of every peer's liveness, advanced by draining
/// heartbeat queues on [`tick`](HealthBoard::tick).
pub struct HealthBoard {
    me: usize,
    k: usize,
    cfg: HealthConfig,
    last_seen: Vec<Instant>,
    state: Vec<Liveness>,
    /// Observability: counts of `→ Suspect` and `→ Dead` transitions this
    /// board performs, shared with the fabric's metrics hub when attached.
    transitions: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl HealthBoard {
    /// A board for rank `me` in a world of `k`, with all peers initially
    /// alive as of now.
    pub fn new(me: usize, k: usize, cfg: HealthConfig) -> Self {
        HealthBoard {
            me,
            k,
            cfg,
            last_seen: vec![Instant::now(); k],
            state: vec![Liveness::Alive; k],
            transitions: None,
        }
    }

    /// The beacon interval the deadlines derive from — how long a waiter
    /// may block before the next [`tick`](Self::tick) is due.
    pub fn heartbeat(&self) -> Duration {
        self.cfg.heartbeat
    }

    /// Attaches transition counters: `suspect` increments on every
    /// `→ Suspect` edge, `dead` on every `→ Dead` declaration (including
    /// merged masks).
    pub fn with_transition_counters(mut self, suspect: Arc<Counter>, dead: Arc<Counter>) -> Self {
        self.transitions = Some((suspect, dead));
        self
    }

    fn note_transition(&self, to: Liveness) {
        if let Some((suspect, dead)) = &self.transitions {
            match to {
                Liveness::Suspect => suspect.inc(),
                Liveness::Dead => dead.inc(),
                Liveness::Alive => {}
            }
        }
    }

    /// Drains queued heartbeats from every peer and advances the state
    /// machine on the observed silences. Newly dead peers are reported to
    /// `transport` via [`Transport::mark_peer_dead`]. Cheap when idle —
    /// one `try_recv` per live peer.
    pub fn tick(&mut self, transport: &dyn Transport) {
        let tag = Tag::new(Tag::HEARTBEAT, 0);
        let now = Instant::now();
        for peer in 0..self.k {
            if peer == self.me || self.state[peer] == Liveness::Dead {
                continue;
            }
            let mut beat = false;
            while let Ok(Some(_)) = transport.try_recv(peer, tag) {
                beat = true;
            }
            if beat {
                self.last_seen[peer] = now;
                self.state[peer] = Liveness::Alive;
                continue;
            }
            let silence = now.duration_since(self.last_seen[peer]);
            if silence >= self.cfg.death_deadline() {
                self.note_transition(Liveness::Dead);
                self.state[peer] = Liveness::Dead;
                transport.mark_peer_dead(peer);
            } else if silence >= self.cfg.suspect_after {
                if self.state[peer] != Liveness::Suspect {
                    self.note_transition(Liveness::Suspect);
                }
                self.state[peer] = Liveness::Suspect;
            }
        }
    }

    /// Force-marks `peer` dead (e.g. learned from a coordinator's
    /// dead-mask rather than own observation).
    pub fn declare_dead(&mut self, peer: usize, transport: &dyn Transport) {
        if peer < self.k && peer != self.me && self.state[peer] != Liveness::Dead {
            self.note_transition(Liveness::Dead);
            self.state[peer] = Liveness::Dead;
            transport.mark_peer_dead(peer);
        }
    }

    /// Merges a dead-mask (bit per rank) into this board.
    pub fn merge_dead_mask(&mut self, mask: u128, transport: &dyn Transport) {
        for peer in 0..self.k.min(128) {
            if mask & (1u128 << peer) != 0 {
                self.declare_dead(peer, transport);
            }
        }
    }

    /// Current liveness of `peer` (the owner reads as alive).
    pub fn liveness(&self, peer: usize) -> Liveness {
        if peer == self.me {
            Liveness::Alive
        } else {
            self.state[peer]
        }
    }

    /// True unless `peer` has been declared dead (suspects still count as
    /// alive — they may yet beat the probe windows).
    pub fn is_alive(&self, peer: usize) -> bool {
        self.liveness(peer) != Liveness::Dead
    }

    /// Bit-per-rank mask of declared-dead peers.
    pub fn dead_mask(&self) -> u128 {
        let mut mask = 0u128;
        for peer in 0..self.k.min(128) {
            if self.state[peer] == Liveness::Dead && peer != self.me {
                mask |= 1u128 << peer;
            }
        }
        mask
    }

    /// The smallest rank this board still believes alive — the
    /// deterministic coordinator choice for liveness-aware collectives.
    pub fn min_alive(&self) -> usize {
        (0..self.k)
            .find(|&p| self.is_alive(p))
            .expect("own rank is always alive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFabric;

    fn fast() -> HealthConfig {
        HealthConfig::from_heartbeat(Duration::from_millis(5))
    }

    #[test]
    fn deadlines_compose() {
        let cfg = fast();
        // 8×5ms suspect + (20 + 40 + 80)ms probes = 180ms.
        assert_eq!(cfg.death_deadline(), Duration::from_millis(180));
    }

    #[test]
    fn beating_peer_stays_alive() {
        let fabric = LocalFabric::new(2);
        let tx = Arc::new(fabric.endpoint(1));
        let rx = fabric.endpoint(0);
        let mut hb = Heartbeat::spawn(tx, Duration::from_millis(2));
        let mut board = HealthBoard::new(0, 2, fast());
        let deadline = Instant::now() + fast().death_deadline() + Duration::from_millis(50);
        while Instant::now() < deadline {
            board.tick(&rx);
            assert_eq!(board.liveness(1), Liveness::Alive);
            std::thread::sleep(Duration::from_millis(5));
        }
        hb.stop();
    }

    #[test]
    fn silent_peer_walks_alive_suspect_dead() {
        let fabric = LocalFabric::new(2);
        let rx = fabric.endpoint(0);
        let cfg = fast();
        let mut board = HealthBoard::new(0, 2, cfg);
        assert_eq!(board.liveness(1), Liveness::Alive);
        // No heartbeats ever arrive: the peer must pass through Suspect
        // before Dead, and death must take the full probed deadline.
        let start = Instant::now();
        let mut saw_suspect = false;
        loop {
            board.tick(&rx);
            match board.liveness(1) {
                Liveness::Alive => {}
                Liveness::Suspect => saw_suspect = true,
                Liveness::Dead => break,
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_suspect, "death must pass through Suspect");
        assert!(
            start.elapsed() >= cfg.death_deadline(),
            "probe windows must delay the declaration"
        );
        // The transport learned of the death: blocked receives are typed.
        assert!(matches!(
            rx.recv(1, Tag::app(0)),
            Err(crate::error::NetError::PeerDead { rank: 0, peer: 1 })
        ));
        assert_eq!(board.dead_mask(), 0b10);
        assert_eq!(board.min_alive(), 0);
    }

    #[test]
    fn late_heartbeat_resurrects_a_suspect() {
        let fabric = LocalFabric::new(2);
        let rx = fabric.endpoint(0);
        let tx = fabric.endpoint(1);
        let cfg = fast();
        let mut board = HealthBoard::new(0, 2, cfg);
        // Let the peer turn suspect …
        std::thread::sleep(cfg.suspect_after + Duration::from_millis(10));
        board.tick(&rx);
        assert_eq!(board.liveness(1), Liveness::Suspect);
        // … then a beacon lands inside a probe window.
        tx.send(0, Tag::new(Tag::HEARTBEAT, 0), Bytes::new())
            .unwrap();
        board.tick(&rx);
        assert_eq!(board.liveness(1), Liveness::Alive);
    }

    #[test]
    fn transition_counters_count_each_edge_once() {
        let fabric = LocalFabric::new(3);
        let rx = fabric.endpoint(0);
        let suspect = Arc::new(Counter::new());
        let dead = Arc::new(Counter::new());
        let cfg = fast();
        let mut board = HealthBoard::new(0, 3, cfg)
            .with_transition_counters(Arc::clone(&suspect), Arc::clone(&dead));
        std::thread::sleep(cfg.suspect_after + Duration::from_millis(10));
        board.tick(&rx);
        board.tick(&rx); // still suspect: no second count
        assert_eq!(suspect.get(), 2, "both silent peers turn suspect once");
        assert_eq!(dead.get(), 0);
        board.declare_dead(1, &rx);
        board.declare_dead(1, &rx); // idempotent
        board.merge_dead_mask(0b110, &rx);
        assert_eq!(dead.get(), 2, "each peer's death counted once");
    }

    #[test]
    fn merged_masks_and_declarations_are_idempotent() {
        let fabric = LocalFabric::new(4);
        let rx = fabric.endpoint(0);
        let mut board = HealthBoard::new(0, 4, fast());
        board.merge_dead_mask(0b1010, &rx);
        assert_eq!(board.dead_mask(), 0b1010);
        board.declare_dead(3, &rx);
        board.merge_dead_mask(0b1010, &rx);
        assert_eq!(board.dead_mask(), 0b1010);
        assert_eq!(board.min_alive(), 0);
        // Own rank can never be declared dead.
        board.declare_dead(0, &rx);
        assert!(board.is_alive(0));
    }
}
