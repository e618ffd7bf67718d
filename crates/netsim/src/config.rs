//! Model parameters and the EC2 calibration.
//!
//! The paper's testbed — K m3.large workers, 100 Mbps `tc`-shaped NICs,
//! Open MPI, 12 GB of TeraGen data — is not available, so stage times are
//! produced by replaying *measured byte counts* through a linear performance
//! model. The model has one global calibration, fitted once against Table I
//! and checked against every row of Tables II–III (see EXPERIMENTS.md):
//!
//! | parameter | value | fitted from |
//! |---|---|---|
//! | link rate | 100 Mbps | §V-B setup |
//! | TCP efficiency | 0.95 | Table I shuffle: 11.25 GB / 945.72 s |
//! | multicast penalty α | 0.30 | §V-C "increases logarithmically with r"; Table II shuffle gains 2.3 < 3, 4.2 < 5 |
//! | per-transfer latency | 0.1 ms | Table II/III packet-count sensitivity |
//! | per-group CodeGen cost | 3.3 ms | Tables II–III CodeGen ÷ C(K, r+1) ∈ [2.9, 4.0] ms |
//! | Map hash rate | 403 MB/s | Table I: 750 MB / 1.86 s |
//! | per-file Map overhead | 0.5 ms | Map ratios 3.2 (r=3), 5.8 (r=5) |
//! | Pack/Encode rate | 320 MB/s | Table I Pack 2.35 s; Encode rows fit 313–347 MB/s |
//! | Unpack rate | 825 MB/s | Table I Unpack 0.85 s |
//! | Decode rate | 700 MB/s on r×received payload | Decode rows fit 608–818 MB/s |
//! | Reduce sort rate | 72 MB/s | Table I Reduce 10.47 s |
//! | memory-pressure penalty | 9 %/unit of (r−1) on Reduce | §V-C Reduce observation |

use cts_net::rate::NicProfile;
use serde::{Deserialize, Serialize};

/// Network-side model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetModelConfig {
    /// Link rate in **bits** per second (the paper's `tc` cap: 100 Mbps).
    pub bandwidth_bits_per_sec: f64,
    /// Fraction of the link rate usable by TCP payload (headers, ACK
    /// pacing, slow-start remnants).
    pub tcp_efficiency: f64,
    /// Fixed cost per transfer (connection/MPI envelope overhead), seconds.
    pub per_transfer_latency_s: f64,
    /// Multicast penalty coefficient `α`: multicasting to `m` receivers
    /// takes `1 + α·log2(m)` times the unicast time for the same bytes —
    /// the paper's observation that `MPI_Bcast` "increases logarithmically
    /// with r" (§V-C, citing its reference \[11\]).
    pub multicast_alpha: f64,
    /// Per-multicast-group setup cost, seconds (`MPI_Comm_split` + tree
    /// construction); drives the CodeGen stage: `C(K, r+1)` groups.
    pub group_setup_s: f64,
}

impl NetModelConfig {
    /// The EC2 calibration (see module docs).
    pub fn ec2_100mbps() -> Self {
        NetModelConfig {
            bandwidth_bits_per_sec: 100e6,
            tcp_efficiency: 0.95,
            per_transfer_latency_s: 1e-4,
            multicast_alpha: 0.30,
            group_setup_s: 3.3e-3,
        }
    }

    /// The model twin of an emulated NIC: its rate with nothing lost to
    /// TCP, its per-transfer latency and its α, so measured and modeled
    /// shuffle times describe the same machine. Unshaped is infinitely fast.
    pub fn of_nic(nic: &NicProfile) -> Self {
        NetModelConfig {
            bandwidth_bits_per_sec: nic.rate_bytes_per_sec.map_or(f64::INFINITY, |r| r * 8.0),
            tcp_efficiency: 1.0,
            per_transfer_latency_s: nic.latency_s,
            multicast_alpha: nic.multicast_alpha,
            group_setup_s: 0.0,
        }
    }

    /// Effective payload bytes per second.
    pub fn effective_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bits_per_sec / 8.0 * self.tcp_efficiency
    }

    /// The multicast slowdown factor for `fanout` receivers.
    pub fn multicast_penalty(&self, fanout: u32) -> f64 {
        cts_net::fabric::multicast_penalty(self.multicast_alpha, fanout as usize)
    }

    /// Time to push `bytes` to `fanout` receivers, excluding latency.
    pub fn transfer_seconds(&self, bytes: f64, fanout: u32) -> f64 {
        bytes * self.multicast_penalty(fanout) / self.effective_bytes_per_sec()
    }
}

/// Compute-side model parameters (per-node rates on m3.large).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComputeModelConfig {
    /// Map hashing throughput, bytes/second.
    pub hash_bytes_per_sec: f64,
    /// Fixed overhead per input file handled in the Map stage, seconds.
    pub per_file_overhead_s: f64,
    /// Serialization (Pack / the serialization part of Encode) throughput.
    pub pack_bytes_per_sec: f64,
    /// Deserialization (Unpack) throughput.
    pub unpack_bytes_per_sec: f64,
    /// Decode throughput applied to the decode *work* bytes (`r ×` the
    /// received payload: each packet is XORed against `r−1` known segments
    /// and merged).
    pub decode_bytes_per_sec: f64,
    /// Local sort throughput (std::sort over 100-byte records incl. the
    /// final write-out).
    pub sort_bytes_per_sec: f64,
    /// Memory-pressure penalty per unit of extra redundancy: Reduce and
    /// Decode are slowed by `1 + penalty·(r−1)` (the paper's §V-C
    /// observation that coded runs persist more intermediates in memory).
    pub memory_pressure_per_r: f64,
}

impl ComputeModelConfig {
    /// The EC2 m3.large calibration (see module docs).
    pub fn ec2_m3_large() -> Self {
        ComputeModelConfig {
            hash_bytes_per_sec: 403e6,
            per_file_overhead_s: 5e-4,
            pack_bytes_per_sec: 320e6,
            unpack_bytes_per_sec: 825e6,
            decode_bytes_per_sec: 700e6,
            sort_bytes_per_sec: 72e6,
            memory_pressure_per_r: 0.09,
        }
    }

    /// The memory-pressure slowdown factor at redundancy `r`.
    pub fn memory_factor(&self, r: usize) -> f64 {
        1.0 + self.memory_pressure_per_r * (r.saturating_sub(1)) as f64
    }
}

/// Complete model: network + compute.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfModelConfig {
    /// Network parameters.
    pub net: NetModelConfig,
    /// Compute parameters.
    pub compute: ComputeModelConfig,
}

impl PerfModelConfig {
    /// The full paper calibration: EC2 m3.large nodes on a 100 Mbps fabric.
    pub fn ec2_paper() -> Self {
        PerfModelConfig {
            net: NetModelConfig::ec2_100mbps(),
            compute: ComputeModelConfig::ec2_m3_large(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_matches_table1() {
        let net = NetModelConfig::ec2_100mbps();
        // 11.25 GB at effective rate ≈ 947 s — the paper measured 945.72 s.
        let t = 11.25e9 / net.effective_bytes_per_sec();
        assert!((t - 947.4).abs() < 1.0, "t = {t}");
    }

    #[test]
    fn nic_twin_charges_what_the_nic_does() {
        let nic = NicProfile::paper_100mbps();
        let net = NetModelConfig::of_nic(&nic);
        assert_eq!(net.effective_bytes_per_sec(), 12.5e6);
        assert_eq!(net.per_transfer_latency_s, nic.latency_s);
        assert_eq!(net.multicast_alpha, nic.multicast_alpha);
        assert_eq!(
            NetModelConfig::of_nic(&NicProfile::unlimited()).transfer_seconds(1e9, 3),
            0.0
        );
    }

    #[test]
    fn multicast_penalty_is_logarithmic() {
        let net = NetModelConfig::ec2_100mbps();
        assert_eq!(net.multicast_penalty(1), 1.0);
        let p3 = net.multicast_penalty(3);
        let p5 = net.multicast_penalty(5);
        assert!(p3 > 1.0 && p5 > p3);
        assert!((p3 - (1.0 + 0.30 * 3f64.log2())).abs() < 1e-12);
    }

    #[test]
    fn transfer_seconds_scales_linearly() {
        let net = NetModelConfig::ec2_100mbps();
        let one = net.transfer_seconds(1e6, 1);
        assert!((net.transfer_seconds(2e6, 1) - 2.0 * one).abs() < 1e-9);
        assert!(net.transfer_seconds(1e6, 4) > one);
    }

    #[test]
    fn memory_factor_grows_with_r() {
        let c = ComputeModelConfig::ec2_m3_large();
        assert_eq!(c.memory_factor(1), 1.0);
        assert!((c.memory_factor(3) - 1.18).abs() < 1e-12);
        assert!(c.memory_factor(5) > c.memory_factor(3));
    }

    #[test]
    fn config_serializes() {
        let cfg = PerfModelConfig::ec2_paper();
        // serde round-trip through the derive (used by the bench harness to
        // dump the calibration next to results).
        let as_debug = format!("{cfg:?}");
        assert!(as_debug.contains("bandwidth_bits_per_sec"));
    }
}
