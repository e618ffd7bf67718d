//! Per-run workload statistics.
//!
//! The engines in `cts-mapreduce` run the real algorithms on (scaled) real
//! data and report exact work counts per node. Together with the transfer
//! trace from `cts-net`, these statistics are everything the performance
//! model needs; multiplying byte quantities by [`RunStats::scale`] projects
//! a scaled run onto the paper's full 12 GB — valid because every pipeline
//! stage is linear in bytes while counts (files, groups, transfers) are
//! pure topology.

use serde::{Deserialize, Serialize};

/// Work performed by one node during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Bytes hashed in the Map stage (`r×` the node's input share when
    /// coded).
    pub map_input_bytes: u64,
    /// Input files processed in the Map stage.
    pub files_mapped: u64,
    /// Bytes serialized in Pack (uncoded: outgoing intermediates) or
    /// Encode (coded: all kept intermediates, which are split/XORed).
    pub pack_bytes: u64,
    /// Application bytes this node sent during Shuffle (multicast packets
    /// counted once).
    pub sent_bytes: u64,
    /// Application bytes this node received during Shuffle (each multicast
    /// heard counts its full length).
    pub recv_bytes: u64,
    /// Bytes deserialized in Unpack (uncoded runs).
    pub unpack_bytes: u64,
    /// Decode work in bytes: `r ×` received coded bytes (XOR cancellations
    /// plus merge).
    pub decode_work_bytes: u64,
    /// Bytes sorted in the Reduce stage (the node's key partition).
    pub reduce_input_bytes: u64,
}

/// Statistics for a whole run, plus the scale factor to the target size.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of worker nodes `K`.
    pub k: usize,
    /// Redundancy `r` (1 for conventional TeraSort).
    pub r: usize,
    /// Number of multicast groups initialized in CodeGen
    /// (`C(K, r+1)` for coded runs, 0 for uncoded).
    pub num_groups: u64,
    /// Per-node work counts, rank order.
    pub per_node: Vec<NodeStats>,
    /// Multiplier projecting this run's byte counts onto the target input
    /// size (e.g. 100 when 120 MB of real data stands in for 12 GB).
    pub scale: f64,
}

impl RunStats {
    /// Creates empty stats for `k` nodes at redundancy `r`.
    pub fn new(k: usize, r: usize) -> Self {
        RunStats {
            k,
            r,
            num_groups: 0,
            per_node: vec![NodeStats::default(); k],
            scale: 1.0,
        }
    }

    /// Sum of a per-node quantity.
    pub fn total<F: Fn(&NodeStats) -> u64>(&self, f: F) -> u64 {
        self.per_node.iter().map(f).sum()
    }

    /// Total application bytes shuffled (multicasts counted once),
    /// unscaled.
    pub fn shuffle_bytes(&self) -> u64 {
        self.total(|n| n.sent_bytes)
    }

    /// The empirical communication load: shuffled bytes over total mapped
    /// *input* bytes at `r = 1` equivalents (i.e. over `D`, the input
    /// size). Matches the paper's normalization by `Q·N` because every
    /// input byte produces one intermediate byte in TeraSort-style maps.
    pub fn comm_load(&self, input_bytes: u64) -> f64 {
        if input_bytes == 0 {
            0.0
        } else {
            self.shuffle_bytes() as f64 / input_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        let mut s = RunStats::new(3, 2);
        for (i, n) in s.per_node.iter_mut().enumerate() {
            n.map_input_bytes = 100 * (i as u64 + 1);
            n.sent_bytes = 10 * (i as u64 + 1);
            n.recv_bytes = 20;
        }
        s
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.total(|n| n.map_input_bytes), 600);
        assert_eq!(s.shuffle_bytes(), 60);
    }

    #[test]
    fn comm_load_normalizes_by_input() {
        let s = sample();
        assert!((s.comm_load(600) - 0.1).abs() < 1e-12);
        assert_eq!(s.comm_load(0), 0.0);
    }

    #[test]
    fn new_is_zeroed() {
        let s = RunStats::new(4, 3);
        assert_eq!(s.per_node.len(), 4);
        assert_eq!(s.shuffle_bytes(), 0);
        assert_eq!(s.scale, 1.0);
    }
}
