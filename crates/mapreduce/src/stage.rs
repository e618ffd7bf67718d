//! Stage names, span-derived wall times, and engine configuration.

use std::time::Duration;

use cts_core::decode::DecodeMode;
use cts_core::field::FieldKind;
use cts_net::cluster::ClusterConfig;
use cts_net::fabric::ShuffleFabric;
use cts_net::fault::CrashSpec;
use cts_net::rate::NicProfile;
use cts_net::span::SpanLog;

/// Canonical stage labels (also used as trace stage names).
pub mod stages {
    /// Multicast-group initialization (coded only).
    pub const CODEGEN: &str = "CodeGen";
    /// Hashing input files into key partitions.
    pub const MAP: &str = "Map";
    /// Serialization: Pack (uncoded) / Encode incl. XOR (coded).
    pub const PACK_ENCODE: &str = "PackEncode";
    /// The data shuffle — the only stage whose trace events the network
    /// model charges, so the model's spelling is the engine's.
    pub const SHUFFLE: &str = cts_netsim::SHUFFLE_STAGE;
    /// Deserialization: Unpack (uncoded) / Decode incl. XOR (coded).
    pub const UNPACK_DECODE: &str = "UnpackDecode";
    /// Local per-partition reduction.
    pub const REDUCE: &str = "Reduce";
}

/// Wall-clock stage durations for one node. A CPU stage's wall is the time
/// the node's thread spent in that work, its interleaved slices summed
/// (CodeGen is the enumeration alone: no synchronization closes it); the
/// Shuffle's runs from the node's first post to its own drain and its last
/// expected message, with the Map, Encode, Decode and Reduce slices that ran
/// meanwhile included, so the six can sum to more than the node's job took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeWall {
    /// CodeGen duration.
    pub codegen: Duration,
    /// Map duration.
    pub map: Duration,
    /// Pack/Encode duration.
    pub pack_encode: Duration,
    /// Shuffle duration.
    pub shuffle: Duration,
    /// Unpack/Decode duration.
    pub unpack_decode: Duration,
    /// Reduce duration.
    pub reduce: Duration,
}

impl NodeWall {
    /// Sum of all stages — the job laid end to end, as the paper times it.
    pub fn total(&self) -> Duration {
        self.codegen + self.map + self.pack_encode + self.shuffle + self.unpack_decode + self.reduce
    }
}

/// Cluster-wide wall times: the per-stage maximum over nodes, and the job's
/// own wall beside them. No stage closes on a synchronization: a node's
/// stages overlap each other, so `max.total()` exceeds `job` by what ran
/// hidden behind the NIC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallTimes {
    /// Slowest node per stage.
    pub max: NodeWall,
    /// The job's wall: the first stage's start on any node to the last
    /// stage's end on any node.
    pub job: Duration,
}

impl WallTimes {
    /// The walls of one job's span log — the only clock the engine keeps.
    /// Each rank's stage walls ([`wall_ns`](cts_net::span::StageSpan::wall_ns))
    /// are aggregated, and the job's wall is the extent of all spans.
    pub fn from_spans(log: &SpanLog) -> Self {
        let mut nodes: Vec<NodeWall> = Vec::new();
        let (mut start, mut end) = (u64::MAX, 0);
        for span in &log.spans {
            start = start.min(span.start_ns);
            end = end.max(span.end_ns);
            let rank = usize::from(span.rank);
            if nodes.len() <= rank {
                nodes.resize(rank + 1, NodeWall::default());
            }
            let node = &mut nodes[rank];
            let slot = match log.stage_name(span.stage) {
                stages::CODEGEN => &mut node.codegen,
                stages::MAP => &mut node.map,
                stages::PACK_ENCODE => &mut node.pack_encode,
                stages::SHUFFLE => &mut node.shuffle,
                stages::UNPACK_DECODE => &mut node.unpack_decode,
                stages::REDUCE => &mut node.reduce,
                _ => continue,
            };
            *slot += Duration::from_nanos(span.wall_ns);
        }
        let slowest = |field: fn(&NodeWall) -> Duration| nodes.iter().map(field).max();
        let slowest = |field| slowest(field).unwrap_or_default();
        WallTimes {
            job: Duration::from_nanos(end.saturating_sub(start)),
            max: NodeWall {
                codegen: slowest(|n| n.codegen),
                map: slowest(|n| n.map),
                pack_encode: slowest(|n| n.pack_encode),
                shuffle: slowest(|n| n.shuffle),
                unpack_decode: slowest(|n| n.unpack_decode),
                reduce: slowest(|n| n.reduce),
            },
        }
    }

    /// What ran behind the NIC: how much longer the job would have taken
    /// with its slowest stages laid end to end.
    pub fn hidden(&self) -> Duration {
        self.max.total().saturating_sub(self.job)
    }
}

/// One rank's Reduce against its Shuffle, read off the job's span log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceOverlap {
    /// Time the rank's thread spent reducing, every slice.
    pub busy: Duration,
    /// The part of `busy` that ran after the rank's Shuffle had closed.
    pub after_shuffle: Duration,
    /// From the rank's Shuffle closing to the rank's own last span ending:
    /// what the rank still did once its Shuffle was over. Other ranks'
    /// closes do not count, so ranks that close apart do not inflate it.
    pub tail: Duration,
}

impl ReduceOverlap {
    /// One entry per rank that shuffled, in rank order. A span's slices after
    /// the Shuffle closed are contiguous (nothing interleaves with them any
    /// more), so what lies past the close is what was busy past it.
    pub fn of(log: &SpanLog) -> Vec<ReduceOverlap> {
        let stage = |s: &cts_net::span::StageSpan| log.stage_name(s.stage);
        let shuffles = log.spans.iter().filter(|s| stage(s) == stages::SHUFFLE);
        let mut closes: Vec<(u16, u64)> = shuffles.map(|s| (s.rank, s.end_ns)).collect();
        closes.sort_unstable();
        let overlap = |&(rank, close): &(u16, u64)| {
            let own = log.spans.iter().filter(|s| s.rank == rank);
            let rank_end = own.clone().map(|s| s.end_ns).max().unwrap_or(close);
            let (mut busy, mut after) = (0, 0);
            for s in own.filter(|s| stage(s) == stages::REDUCE) {
                busy += s.wall_ns;
                after += (s.end_ns.saturating_sub(close.max(s.start_ns))).min(s.wall_ns);
            }
            ReduceOverlap {
                busy: Duration::from_nanos(busy),
                after_shuffle: Duration::from_nanos(after),
                tail: Duration::from_nanos(rank_end - close),
            }
        };
        closes.iter().map(overlap).collect()
    }
}

/// Parameters of one engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker count `K`.
    pub k: usize,
    /// Redundancy `r`: every file is mapped on `r` nodes. `1` is
    /// conventional TeraSort.
    pub r: usize,
    /// Pod size `g`: coding stays inside disjoint pods of `g` nodes and
    /// cross-pod pieces travel as unicasts (paper §VI). `0` (the default) or
    /// `K` is one pod — the flat layout; otherwise `g` divides `K` and
    /// `r < g`.
    pub pods: usize,
    /// Cluster fabric configuration.
    pub cluster: ClusterConfig,
    /// When a receiver releases a decoded group: `All` (the paper's
    /// barrier-on-all cancel-and-divide, the default) or `Quorum` — the
    /// single-parity quorum code lets any `r − 1` of a group's `r`
    /// packets rebuild it, so the shuffle proceeds without its slowest
    /// sender. Sorted outputs are byte-identical either way.
    pub decode: DecodeMode,
    /// How long a rank's shuffle receive loop tolerates zero progress
    /// before declaring the shuffle stalled, under either decode. Defaults
    /// to 10 s.
    pub idle_timeout: Duration,
    /// Crash injection for failure testing: each spec kills one rank
    /// fail-stop at a stage point. Empty in production.
    pub crashes: Vec<CrashSpec>,
}

impl EngineConfig {
    /// Local in-memory cluster, redundancy `r`.
    pub fn local(k: usize, r: usize) -> Self {
        EngineConfig {
            k,
            r,
            pods: 0,
            cluster: ClusterConfig::local(k),
            decode: DecodeMode::All,
            idle_timeout: Duration::from_secs(10),
            crashes: Vec::new(),
        }
    }

    /// Loopback-TCP cluster, redundancy `r`.
    pub fn tcp(k: usize, r: usize) -> Self {
        EngineConfig {
            cluster: ClusterConfig::tcp(k),
            ..EngineConfig::local(k, r)
        }
    }

    /// Codes inside pods of `g` nodes (see [`EngineConfig::pods`]).
    pub fn with_pods(mut self, g: usize) -> Self {
        self.pods = g;
        self
    }

    /// Does nothing: every coded packet is a binary XOR fold. Kept
    /// because `benchmark/` calls it; goes with ROADMAP 1(a).
    pub fn with_field(self, _field: FieldKind) -> Self {
        self
    }

    /// Selects the group release policy (see
    /// [`EngineConfig::decode`]).
    pub fn with_decode(mut self, decode: DecodeMode) -> Self {
        self.decode = decode;
        self
    }

    /// Selects how the coded shuffle's group sends hit the wire
    /// (serial-unicast, fanout or emulated multicast).
    pub fn with_fabric(mut self, fabric: ShuffleFabric) -> Self {
        self.cluster = self.cluster.with_fabric(fabric);
        self
    }

    /// Installs an emulated NIC on every node (egress rate, per-transfer
    /// latency, multicast `α`) so shuffle wall-clock is *measured* under
    /// the paper's network conditions instead of at memory speed.
    pub fn with_nic(mut self, nic: NicProfile) -> Self {
        self.cluster = self.cluster.with_nic(nic);
        self
    }

    /// Sets the quorum shuffle's receive-idle deadline (how long zero
    /// progress is tolerated before the shuffle is declared stalled).
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Adds a crash-at-point injection (failure testing).
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }

    /// The crash point at which `rank` dies under this config, if any.
    pub fn crash_point_of(&self, rank: usize) -> Option<cts_net::fault::CrashPoint> {
        self.crashes
            .iter()
            .find(|s| s.rank == rank)
            .map(|s| s.point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_wall_total_sums() {
        let n = NodeWall {
            codegen: Duration::from_millis(1),
            map: Duration::from_millis(2),
            pack_encode: Duration::from_millis(3),
            shuffle: Duration::from_millis(4),
            unpack_decode: Duration::from_millis(5),
            reduce: Duration::from_millis(6),
        };
        assert_eq!(n.total(), Duration::from_millis(21));
    }

    #[test]
    fn failure_knobs_round_trip() {
        let cfg = EngineConfig::local(4, 2)
            .with_idle_timeout(Duration::from_secs(3))
            .with_crash(CrashSpec {
                rank: 2,
                point: cts_net::fault::CrashPoint::MidMap,
            });
        assert_eq!(cfg.idle_timeout, Duration::from_secs(3));
        assert_eq!(
            cfg.crash_point_of(2),
            Some(cts_net::fault::CrashPoint::MidMap)
        );
        assert_eq!(cfg.crash_point_of(1), None);
    }

    #[test]
    fn span_walls_sum_each_rank_then_take_the_slowest() {
        use cts_net::span::StageSpan;
        let names = [stages::MAP, stages::REDUCE, "Other"];
        let span = |rank: u16, stage: usize, start_ms: u64, end_ms: u64| StageSpan {
            job: 7,
            rank,
            stage: stage as u16,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            wall_ns: (end_ms - start_ms) * 1_000_000,
        };
        let log = SpanLog {
            names: names.iter().map(|n| n.to_string()).collect(),
            spans: vec![
                span(0, 0, 0, 10),
                span(1, 0, 0, 4),
                // Rank 0 reduces in two slices, 3 ms and 5; rank 1 in one, for
                // 6: the sum is per rank, before the max.
                span(0, 1, 10, 13),
                span(0, 1, 13, 18),
                span(1, 1, 4, 10),
                span(1, 2, 10, 99),
            ],
        };
        let w = WallTimes::from_spans(&log);
        assert_eq!(w.max.map, Duration::from_millis(10));
        assert_eq!(w.max.reduce, Duration::from_millis(8));
        assert_eq!(w.max.total(), Duration::from_millis(18));
        // Nothing overlapped; the job ran to the end of the unknown stage.
        assert_eq!(
            (w.job, w.hidden()),
            (Duration::from_millis(99), Duration::ZERO)
        );
        // An empty log has no walls.
        assert_eq!(
            WallTimes::from_spans(&SpanLog::default()),
            WallTimes::default()
        );
    }

    #[test]
    fn overlapping_spans_report_what_ran_behind_the_nic() {
        use cts_net::span::StageSpan;
        let names = [
            stages::MAP,
            stages::SHUFFLE,
            stages::UNPACK_DECODE,
            stages::REDUCE,
        ];
        let ms = |ms: u64| ms * 1_000_000;
        let span = |rank: u16, stage: u16, start_ms, end_ms, wall_ms| StageSpan {
            job: 0,
            rank,
            stage,
            start_ns: ms(start_ms),
            end_ns: ms(end_ms),
            wall_ns: ms(wall_ms),
        };
        // Rank 0 maps 30 ms in slices up to t = 40, posts from t = 5, decodes
        // 20 ms between packets, reduces 12 ms in slices from t = 41 — the last
        // of them its final pass, over at 97 — and the Shuffle closes at 100;
        // rank 1 maps a little longer, shuffles a little shorter, and 4 of
        // its 16 ms of Reduce are left for after the close.
        let log = SpanLog {
            names: names.iter().map(|n| n.to_string()).collect(),
            spans: vec![
                span(0, 0, 0, 40, 30),
                span(0, 1, 5, 100, 95),
                span(0, 2, 45, 98, 20),
                span(0, 3, 41, 97, 12),
                span(1, 0, 0, 44, 34),
                span(1, 1, 8, 100, 92),
                span(1, 2, 50, 99, 18),
                span(1, 3, 46, 104, 16),
            ],
        };
        let w = WallTimes::from_spans(&log);
        // CPU stages report the time in them, the Shuffle its extent.
        assert_eq!(w.max.map, Duration::from_millis(34));
        assert_eq!(w.max.shuffle, Duration::from_millis(95));
        assert_eq!(w.max.unpack_decode, Duration::from_millis(20));
        assert_eq!(w.max.reduce, Duration::from_millis(16));
        // 165 ms of stages in a 104 ms job: 61 ms ran behind the NIC.
        assert_eq!(w.job, Duration::from_millis(104));
        assert_eq!(w.max.total(), Duration::from_millis(165));
        assert_eq!(w.hidden(), Duration::from_millis(61));
        let ms = Duration::from_millis;
        let overlap = |busy, after_shuffle, tail| ReduceOverlap {
            busy: ms(busy),
            after_shuffle: ms(after_shuffle),
            tail: ms(tail),
        };
        // Rank 0 did nothing past its close; rank 1 reduced 4 ms past its own.
        assert_eq!(
            ReduceOverlap::of(&log),
            vec![overlap(12, 0, 0), overlap(16, 4, 4)]
        );
    }

    #[test]
    fn a_ranks_tail_is_its_own_not_how_far_apart_the_ranks_closed() {
        use cts_net::span::StageSpan;
        let names = [stages::SHUFFLE, stages::REDUCE];
        let us = |us: u64| us * 1_000;
        let span = |rank: u16, stage: u16, start_us, end_us, wall_us| StageSpan {
            job: 0,
            rank,
            stage,
            start_ns: us(start_us),
            end_ns: us(end_us),
            wall_ns: us(wall_us),
        };
        // Rank 0's Shuffle closes at 60 ms and its last Reduce slice 200 us
        // later; rank 1's closes 30 ms after that, its Reduce 300 us after
        // its own close. Each rank's tail is its own few hundred microseconds,
        // not the 30 ms between the two closes.
        let log = SpanLog {
            names: names.iter().map(|n| n.to_string()).collect(),
            spans: vec![
                span(0, 0, 0, 60_000, 60_000),
                span(0, 1, 10_000, 60_200, 5_000),
                span(1, 0, 0, 90_000, 90_000),
                span(1, 1, 10_000, 90_300, 6_000),
            ],
        };
        let tails: Vec<Duration> = (ReduceOverlap::of(&log).iter()).map(|o| o.tail).collect();
        assert_eq!(
            tails,
            [Duration::from_micros(200), Duration::from_micros(300)]
        );
    }
}
