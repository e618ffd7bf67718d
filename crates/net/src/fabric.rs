//! Shuffle-fabric selection: how one logical multicast becomes wire traffic.
//!
//! The paper's `MPI_Bcast` runs on EC2, which offers no network-layer
//! multicast (§I), so every coded packet is really pushed point-to-point.
//! This module names the three ways the substrate emulates a one-to-many
//! transfer, so engines, benches, and the performance model can compare
//! them under one vocabulary:
//!
//! | fabric | egress frames per group send | copies overlap? | emulates |
//! |---|---|---|---|
//! | [`SerialUnicast`](ShuffleFabric::SerialUnicast) | `m` (receiver count) | no — back-to-back blocking sends | the pre-async `tcp.rs` behavior; worst case |
//! | [`Fanout`](ShuffleFabric::Fanout) | `m` | yes — the emulated NIC charges the copies as one transfer; on TCP they are written back to back into kernel buffers that the per-link readers drain concurrently | `MPI_Bcast` over unicast links (what the paper ran) |
//! | [`Multicast`](ShuffleFabric::Multicast) | 1 | n/a — one transmission serves all receivers | network-layer multicast (zero-copy shared buffer / TCP copies charged once) |
//!
//! [`ShuffleFabric::wire_copies`] is the per-fabric egress frame count the
//! trace records, and [`ShuffleFabric::egress`] the one rule for what a
//! group send costs its sender's NIC: the emulated NIC
//! ([`Communicator::post_multicast`](crate::comm::Communicator::post_multicast))
//! charges it and the netsim oracle (`cts-netsim::serial`'s
//! `serial_fabric_makespan` and `egress_floor_s`) predicts shuffle time
//! from it.
//!
//! ```
//! use cts_net::fabric::ShuffleFabric;
//!
//! // A multicast group of 4 members has fanout 3 at each sender's turn.
//! assert_eq!(ShuffleFabric::SerialUnicast.wire_copies(3), 3);
//! assert_eq!(ShuffleFabric::Fanout.wire_copies(3), 3);
//! assert_eq!(ShuffleFabric::Multicast.wire_copies(3), 1);
//! // Fabrics parse from CLI / env spellings.
//! assert_eq!("serial-unicast".parse(), Ok(ShuffleFabric::SerialUnicast));
//! assert_eq!("multicast".parse(), Ok(ShuffleFabric::Multicast));
//! ```

use std::fmt;
use std::str::FromStr;

/// How the communicator realizes a one-to-many (multicast group) transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ShuffleFabric {
    /// One blocking unicast per receiver, back to back. The payload crosses
    /// the sender's egress `m` times and nothing overlaps — the behavior of
    /// the original thread-per-rank fabric, kept as the ablation baseline.
    SerialUnicast,
    /// One copy per receiver, sent as one transfer: the emulated NIC pays
    /// the per-transfer latency once, and on TCP the copies go back to
    /// back into kernel buffers that each receiver's link reader drains
    /// concurrently, so receiver-side drains overlap. Still `m` egress
    /// crossings.
    Fanout,
    /// A genuine one-to-many primitive: the payload leaves the sender once
    /// and every receiver gets it. The in-memory fabric delivers one shared
    /// buffer (zero-copy); the TCP fabric writes one copy per receiver
    /// while the trace and the NIC emulation charge the single crossing
    /// that a network-layer multicast would cost.
    #[default]
    Multicast,
}

impl ShuffleFabric {
    /// Every fabric, in the fixed comparison order benches and tests use.
    /// Each runs on either transport.
    pub const ALL: [ShuffleFabric; 3] = [
        ShuffleFabric::SerialUnicast,
        ShuffleFabric::Fanout,
        ShuffleFabric::Multicast,
    ];

    /// How many times a payload multicast to `fanout` receivers crosses the
    /// sender's egress under this fabric.
    pub fn wire_copies(self, fanout: usize) -> usize {
        match self {
            ShuffleFabric::SerialUnicast | ShuffleFabric::Fanout => fanout,
            ShuffleFabric::Multicast => 1.min(fanout),
        }
    }

    /// What sending `bytes` to `fanout` receivers costs the sender's NIC:
    /// `(transfers, bytes_each)`, a transfer occupying the NIC for its
    /// setup latency `L` plus `bytes_each / rate`. With `m` = `fanout`:
    ///
    /// * `SerialUnicast` — one transfer per receiver: `m·(L + B/rate)`;
    /// * `Fanout` — one setup, `m` copies sharing the egress:
    ///   `L + m·B/rate`;
    /// * `Multicast` — one transmission with the software multicast penalty
    ///   ([`multicast_penalty`]): `L + B·(1 + α·log2 m)/rate`.
    pub fn egress(self, bytes: f64, fanout: usize, alpha: f64) -> (usize, f64) {
        match self {
            ShuffleFabric::SerialUnicast => (fanout, bytes),
            ShuffleFabric::Fanout => (1.min(fanout), bytes * fanout as f64),
            ShuffleFabric::Multicast => (1.min(fanout), bytes * multicast_penalty(alpha, fanout)),
        }
    }

    /// The canonical CLI / display spelling.
    pub fn label(self) -> &'static str {
        match self {
            ShuffleFabric::SerialUnicast => "serial-unicast",
            ShuffleFabric::Fanout => "fanout",
            ShuffleFabric::Multicast => "multicast",
        }
    }
}

/// The slowdown of one multicast to `fanout` receivers over a unicast of the
/// same bytes: `1 + α·log2(fanout)` — the paper's observation that
/// `MPI_Bcast` "increases logarithmically with r" (§V-C).
pub fn multicast_penalty(alpha: f64, fanout: usize) -> f64 {
    if fanout <= 1 {
        1.0
    } else {
        1.0 + alpha * (fanout as f64).log2()
    }
}

impl fmt::Display for ShuffleFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ShuffleFabric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial-unicast" | "serial" | "unicast" => Ok(ShuffleFabric::SerialUnicast),
            "fanout" => Ok(ShuffleFabric::Fanout),
            "multicast" | "mcast" => Ok(ShuffleFabric::Multicast),
            other => Err(format!(
                "unknown fabric {other:?} (expected serial-unicast | fanout | multicast)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_copies_match_the_decision_table() {
        assert_eq!(ShuffleFabric::SerialUnicast.wire_copies(5), 5);
        assert_eq!(ShuffleFabric::Fanout.wire_copies(5), 5);
        assert_eq!(ShuffleFabric::Multicast.wire_copies(5), 1);
        // Degenerate empty group costs nothing anywhere.
        for f in ShuffleFabric::ALL {
            assert_eq!(f.wire_copies(0), 0);
            assert_eq!(f.egress(1e6, 0, 0.3).0, 0);
        }
        // The three closed forms, as seconds on a NIC with latency L and
        // rate R: transfers · (L + bytes_each / R).
        let (l, rate, b, alpha) = (1e-4, 12.5e6, 1e6, 0.3);
        let cost = |f: ShuffleFabric, m: usize| {
            let (transfers, each) = f.egress(b, m, alpha);
            transfers as f64 * (l + each / rate)
        };
        for m in [1usize, 2, 5] {
            let mf = m as f64;
            let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "m = {m}");
            close(cost(ShuffleFabric::SerialUnicast, m), mf * (l + b / rate));
            close(cost(ShuffleFabric::Fanout, m), l + mf * b / rate);
            let mcast = l + b * (1.0 + alpha * mf.log2()) / rate;
            close(cost(ShuffleFabric::Multicast, m), mcast);
            // Frames on the wire and transfers through the NIC differ only
            // for `Fanout`: m frames, one setup.
            assert_eq!(ShuffleFabric::Fanout.egress(b, m, alpha).0, 1);
        }
        // One receiver costs the same on every fabric.
        for f in ShuffleFabric::ALL {
            assert_eq!(cost(f, 1), l + b / rate);
        }
        assert_eq!(multicast_penalty(0.5, 4), 2.0);
        assert_eq!(multicast_penalty(0.0, 8), 1.0);
    }

    #[test]
    fn parse_round_trips_labels() {
        for f in ShuffleFabric::ALL {
            assert_eq!(f.label().parse::<ShuffleFabric>(), Ok(f));
            assert_eq!(f.to_string(), f.label());
        }
        assert!("tachyon".parse::<ShuffleFabric>().is_err());
    }

    #[test]
    fn default_is_multicast() {
        assert_eq!(ShuffleFabric::default(), ShuffleFabric::Multicast);
    }
}
