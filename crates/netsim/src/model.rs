//! The end-to-end performance model: run statistics + transfer trace →
//! paper-style stage breakdown.

use cts_net::trace::Trace;

use crate::breakdown::StageBreakdown;
use crate::config::PerfModelConfig;
use crate::serial::serial_makespan;
use crate::stats::RunStats;

/// Stage label used by the engines for shuffle traffic.
pub const SHUFFLE_STAGE: &str = "Shuffle";

/// Evaluates stage times from measured work counts under a calibration.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    cfg: PerfModelConfig,
}

impl PerfModel {
    /// A model with the given calibration.
    pub fn new(cfg: PerfModelConfig) -> Self {
        PerfModel { cfg }
    }

    /// The paper's EC2 calibration.
    pub fn ec2_paper() -> Self {
        PerfModel::new(PerfModelConfig::ec2_paper())
    }

    /// Modeled CodeGen time: `C(K, r+1)` group initializations.
    pub fn codegen_s(&self, stats: &RunStats) -> f64 {
        stats.num_groups as f64 * self.cfg.net.group_setup_s
    }

    /// Modeled Map time: slowest node's hashing plus per-file overhead.
    pub fn map_s(&self, stats: &RunStats) -> f64 {
        stats
            .per_node
            .iter()
            .map(|n| {
                n.map_input_bytes as f64 * stats.scale / self.cfg.compute.hash_bytes_per_sec
                    + n.files_mapped as f64 * self.cfg.compute.per_file_overhead_s
            })
            .fold(0.0, f64::max)
    }

    /// Modeled Pack (uncoded) / Encode (coded) time: slowest node's
    /// serialization (+ XOR, folded into the calibrated rate).
    pub fn pack_encode_s(&self, stats: &RunStats) -> f64 {
        stats
            .per_node
            .iter()
            .map(|n| n.pack_bytes as f64 * stats.scale / self.cfg.compute.pack_bytes_per_sec)
            .fold(0.0, f64::max)
    }

    /// Modeled Shuffle time under the paper's serial schedule.
    pub fn shuffle_s(&self, stats: &RunStats, trace: &Trace) -> f64 {
        serial_makespan(trace, SHUFFLE_STAGE, &self.cfg.net, stats.scale)
    }

    /// Modeled Unpack / Decode time.
    pub fn unpack_decode_s(&self, stats: &RunStats) -> f64 {
        stats
            .per_node
            .iter()
            .map(|n| {
                n.unpack_bytes as f64 * stats.scale / self.cfg.compute.unpack_bytes_per_sec
                    + n.decode_work_bytes as f64 * stats.scale
                        / self.cfg.compute.decode_bytes_per_sec
            })
            .fold(0.0, f64::max)
    }

    /// Modeled Reduce time: slowest partition sort, with memory pressure.
    pub fn reduce_s(&self, stats: &RunStats) -> f64 {
        let mem = self.cfg.compute.memory_factor(stats.r);
        stats
            .per_node
            .iter()
            .map(|n| {
                n.reduce_input_bytes as f64 * stats.scale * mem
                    / self.cfg.compute.sort_bytes_per_sec
            })
            .fold(0.0, f64::max)
    }

    /// Full breakdown under the paper's serial schedule.
    pub fn evaluate(&self, stats: &RunStats, trace: &Trace) -> StageBreakdown {
        self.evaluate_with_shuffle(stats, self.shuffle_s(stats, trace))
    }

    /// Breakdown with an externally computed shuffle time (used by the
    /// parallel-shuffle and tree-unicast ablations).
    pub fn evaluate_with_shuffle(&self, stats: &RunStats, shuffle_s: f64) -> StageBreakdown {
        StageBreakdown {
            codegen_s: self.codegen_s(stats),
            map_s: self.map_s(stats),
            pack_encode_s: self.pack_encode_s(stats),
            shuffle_s,
            unpack_decode_s: self.unpack_decode_s(stats),
            reduce_s: self.reduce_s(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NodeStats;
    use cts_net::trace::{EventKind, Trace};

    /// Hand-built stats mimicking TeraSort at K=16 over 12 GB.
    fn terasort_k16_stats() -> RunStats {
        let k = 16;
        let d: u64 = 12_000_000_000;
        let per = d / k as u64; // 750 MB input per node
        let sent = per - per / k as u64; // (K-1)/K of it leaves
        let mut stats = RunStats::new(k, 1);
        for n in stats.per_node.iter_mut() {
            *n = NodeStats {
                map_input_bytes: per,
                files_mapped: 1,
                pack_bytes: sent,
                sent_bytes: sent,
                recv_bytes: sent,
                unpack_bytes: sent,
                decode_work_bytes: 0,
                reduce_input_bytes: per,
            };
        }
        stats
    }

    /// TeraSort's K = 16 all-to-all, `per_transfer` bytes a unicast.
    fn terasort_k16_trace(per_transfer: u64) -> Trace {
        let mut t = Trace::default();
        for src in 0..16usize {
            for dst in (0..16usize).filter(|&d2| d2 != src) {
                t.push(
                    SHUFFLE_STAGE,
                    src,
                    1 << dst,
                    per_transfer,
                    0,
                    1,
                    EventKind::AppUnicast,
                );
            }
        }
        t
    }

    /// 12 GB over 16 × 16 transfers: 46.875 MB each.
    const PER_TRANSFER: u64 = 12_000_000_000 / 16 / 16;

    #[test]
    fn table1_reproduced_within_tolerance() {
        // The calibration must land close to the paper's Table I:
        // Map 1.86, Pack 2.35, Shuffle 945.72, Unpack 0.85, Reduce 10.47.
        let model = PerfModel::ec2_paper();
        let stats = terasort_k16_stats();
        let trace = terasort_k16_trace(PER_TRANSFER);
        let b = model.evaluate(&stats, &trace);
        assert!((b.map_s - 1.86).abs() < 0.1, "map {}", b.map_s);
        assert!(
            (b.pack_encode_s - 2.35).abs() < 0.3,
            "pack {}",
            b.pack_encode_s
        );
        assert!(
            (b.shuffle_s - 945.72).abs() / 945.72 < 0.01,
            "shuffle {}",
            b.shuffle_s
        );
        assert!(
            (b.unpack_decode_s - 0.85).abs() < 0.1,
            "unpack {}",
            b.unpack_decode_s
        );
        assert!((b.reduce_s - 10.47).abs() < 0.3, "reduce {}", b.reduce_s);
        assert!(
            (b.total_s() - 961.25).abs() / 961.25 < 0.02,
            "total {}",
            b.total_s()
        );
        assert_eq!(b.codegen_s, 0.0);
    }

    #[test]
    fn scale_projects_byte_counts_only() {
        let model = PerfModel::ec2_paper();
        let mut stats = terasort_k16_stats();
        // Pretend we ran at 1% size with scale 100: divide the counts.
        for n in stats.per_node.iter_mut() {
            n.map_input_bytes /= 100;
            n.pack_bytes /= 100;
            n.sent_bytes /= 100;
            n.recv_bytes /= 100;
            n.unpack_bytes /= 100;
            n.reduce_input_bytes /= 100;
        }
        stats.scale = 100.0;
        let full = model.evaluate(&terasort_k16_stats(), &terasort_k16_trace(PER_TRANSFER));
        // Trace bytes also divided by 100 but scaled back by `scale`.
        let scaled = model.evaluate(&stats, &terasort_k16_trace(PER_TRANSFER / 100));
        // Compute stages match exactly; shuffle differs only by the
        // latency term (identical) — totals agree within 0.1%.
        assert!((scaled.total_s() - full.total_s()).abs() / full.total_s() < 1e-3);
    }

    #[test]
    fn codegen_grows_with_groups() {
        let model = PerfModel::ec2_paper();
        let mut stats = RunStats::new(16, 3);
        stats.num_groups = 1820; // C(16,4)
        let t = model.codegen_s(&stats);
        // Paper Table II: 6.06 s.
        assert!((t - 6.0).abs() < 0.5, "codegen {t}");
        stats.num_groups = 38760; // C(20,6)
        let t = model.codegen_s(&stats);
        // Paper Table III: 140.91 s.
        assert!((t - 128.0).abs() < 15.0, "codegen {t}");
    }

    #[test]
    fn memory_penalty_increases_reduce_for_coded() {
        let model = PerfModel::ec2_paper();
        let mut uncoded = terasort_k16_stats();
        uncoded.r = 1;
        let mut coded = terasort_k16_stats();
        coded.r = 5;
        assert!(model.reduce_s(&coded) > model.reduce_s(&uncoded));
    }

    #[test]
    fn evaluate_with_shuffle_overrides_only_shuffle() {
        let model = PerfModel::ec2_paper();
        let stats = terasort_k16_stats();
        let trace = terasort_k16_trace(PER_TRANSFER);
        let a = model.evaluate(&stats, &trace);
        let b = model.evaluate_with_shuffle(&stats, 1.0);
        assert_eq!(a.map_s, b.map_s);
        assert_eq!(a.reduce_s, b.reduce_s);
        assert_eq!(b.shuffle_s, 1.0);
    }
}
