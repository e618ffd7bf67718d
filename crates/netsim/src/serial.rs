//! Serial shuffle schedule evaluation (paper Fig. 9).
//!
//! Both algorithms shuffle *serially*: exactly one sender is active at any
//! instant. TeraSort unicasts back-to-back (Fig. 9(a)); CodedTeraSort
//! multicasts one coded packet at a time (Fig. 9(b)). Under a serial
//! schedule the stage time is simply the sum of individual transfer times —
//! which the model computes from the traced byte counts, the calibrated
//! link rate, the per-transfer latency, and the logarithmic multicast
//! penalty. [`serial_fabric_makespan`] extends the same sum to the three
//! shuffle fabrics: what the shuffle would take if the ranks took turns.
//! The engine itself does not take turns, every rank sends at once; its
//! lower bound is no model but what the emulated NICs booked
//! (`cts_net::NicLedger::egress_floor`).
//!
//! ```
//! use cts_net::fabric::ShuffleFabric;
//! use cts_net::trace::{EventKind, Trace};
//! use cts_netsim::config::NetModelConfig;
//! use cts_netsim::serial::serial_fabric_makespan;
//!
//! // One traced multicast: 1 MB to 3 receivers.
//! let mut trace = Trace::default();
//! trace.push("Shuffle", 0, 0b1110, 1_000_000, 0, 1, EventKind::Multicast);
//!
//! let net = NetModelConfig::ec2_100mbps();
//! let serial = serial_fabric_makespan(&trace, "Shuffle", ShuffleFabric::SerialUnicast, &net, 1.0);
//! let mcast = serial_fabric_makespan(&trace, "Shuffle", ShuffleFabric::Multicast, &net, 1.0);
//! // Serial-unicast emulation pays ~3× the native multicast time.
//! assert!(serial > 2.0 * mcast);
//! ```

use cts_net::fabric::ShuffleFabric;
use cts_net::trace::{EventKind, Trace, TraceEvent};

use crate::config::NetModelConfig;

/// One scheduled transfer in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledTransfer {
    /// Virtual start time (seconds from stage start).
    pub start_s: f64,
    /// Virtual end time.
    pub end_s: f64,
    /// Sender rank.
    pub src: u16,
    /// Receiver bitmask.
    pub dsts: u128,
    /// Payload bytes (already scaled).
    pub bytes: f64,
}

/// The result of evaluating a stage's transfers under a schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Transfers with virtual start/end times, schedule order.
    pub transfers: Vec<ScheduledTransfer>,
}

impl Schedule {
    /// Stage completion time (end of the last transfer).
    pub fn makespan_s(&self) -> f64 {
        self.transfers.last().map(|t| t.end_s).unwrap_or(0.0)
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }
}

/// Evaluates the serial schedule over the non-internal events of `stage`,
/// with byte counts multiplied by `scale`.
///
/// Transfers execute one after another in the paper's order: unicasts node
/// by node (Fig. 9(a)), multicasts group by group with a group's members in
/// rank order (Fig. 9(b)). Trace order says nothing — ranks send at once.
pub fn serial_schedule(trace: &Trace, stage: &str, net: &NetModelConfig, scale: f64) -> Schedule {
    let mut clock = 0.0f64;
    let mut transfers = Vec::new();
    let sent = trace.stage_events(stage);
    let mut events: Vec<_> = sent.filter(|e| e.kind != EventKind::Internal).collect();
    events.sort_by_key(|e| match e.kind {
        EventKind::Multicast => (e.dsts | 1 << e.src, e.src),
        _ => (0, e.src),
    });
    for ev in events {
        let bytes = scaled_wire_bytes(ev, scale);
        let duration = net.per_transfer_latency_s + net.transfer_seconds(bytes, ev.fanout());
        transfers.push(ScheduledTransfer {
            start_s: clock,
            end_s: clock + duration,
            src: ev.src,
            dsts: ev.dsts,
            bytes,
        });
        clock += duration;
    }
    Schedule { transfers }
}

/// Projects a traced transfer onto the target input size: payload scales,
/// per-packet protocol overhead does not.
#[inline]
pub fn scaled_wire_bytes(ev: &TraceEvent, scale: f64) -> f64 {
    (ev.bytes - ev.overhead) as f64 * scale + ev.overhead as f64
}

/// Serial makespan without materializing the schedule (fast path used by
/// sweeps).
pub fn serial_makespan(trace: &Trace, stage: &str, net: &NetModelConfig, scale: f64) -> f64 {
    trace
        .stage_events(stage)
        .filter(|e| e.kind != EventKind::Internal)
        .map(|e| {
            net.per_transfer_latency_s
                + net.transfer_seconds(scaled_wire_bytes(e, scale), e.fanout())
        })
        .sum()
}

/// Models the makespan of a strictly serial schedule under each
/// [`ShuffleFabric`] — a closed-form projection, not a bound on the
/// emulator (the fluid simulator's
/// [`predict_fabric_shuffle_s`](crate::fluid::predict_fabric_shuffle_s)
/// is the projection for a cluster that caps ingress too). Each
/// non-internal event costs what [`ShuffleFabric::egress`] says a send of
/// its scaled bytes to its fanout costs, a transfer `L + B/rate`. The
/// real-time NIC in `cts-net` charges the same bytes but refills its token
/// bucket during each latency, so a run behind it books less than this sum
/// even with one sender; its own lower bound is its booked time
/// (`cts_net::NicLedger::egress_floor`).
pub fn serial_fabric_makespan(
    trace: &Trace,
    stage: &str,
    fabric: ShuffleFabric,
    net: &NetModelConfig,
    scale: f64,
) -> f64 {
    trace
        .stage_events(stage)
        .filter(|e| e.kind != EventKind::Internal)
        .map(|e| fabric_transfer_s(e, fabric, net, scale))
        .sum()
}

/// How long one traced transfer occupies its sender's egress under `fabric`:
/// [`ShuffleFabric::egress`], the rule the emulated NIC charges by.
fn fabric_transfer_s(
    e: &TraceEvent,
    fabric: ShuffleFabric,
    net: &NetModelConfig,
    scale: f64,
) -> f64 {
    let bytes = scaled_wire_bytes(e, scale);
    let m = e.fanout().max(1) as usize;
    let (transfers, bytes_each) = fabric.egress(bytes, m, net.multicast_alpha);
    transfers as f64 * (net.per_transfer_latency_s + net.transfer_seconds(bytes_each, 1))
}

/// Evaluates the *tree-decomposed* cost of multicasts: instead of the
/// `1 + α·log2(m)` penalty on one transfer, each multicast to `m` receivers
/// is charged as `m` serial unicasts of the same payload (a binomial tree
/// moves the packet over exactly `m` edges). This is the ablation that
/// quantifies what `MPI_Bcast`'s software tree would cost if its hops did
/// not overlap at all, relative to ideal network-layer multicast (which
/// EC2 does not support — §I).
pub fn serial_makespan_tree_unicast(
    trace: &Trace,
    stage: &str,
    net: &NetModelConfig,
    scale: f64,
) -> f64 {
    trace
        .stage_events(stage)
        .map(|e| match e.kind {
            EventKind::AppUnicast => {
                net.per_transfer_latency_s + net.transfer_seconds(scaled_wire_bytes(e, scale), 1)
            }
            EventKind::Multicast => {
                e.fanout() as f64
                    * (net.per_transfer_latency_s
                        + net.transfer_seconds(scaled_wire_bytes(e, scale), 1))
            }
            // Tree hops are already accounted by the fanout expansion.
            EventKind::Internal => 0.0,
        })
        .sum()
}

/// Returns the per-sender transfer lists of a stage (trace order within
/// each sender) — the input shape for the parallel-shuffle simulator.
pub fn transfers_by_sender(trace: &Trace, stage: &str, scale: f64) -> Vec<Vec<TraceEvent>> {
    let mut max_rank = 0usize;
    let events: Vec<TraceEvent> = trace
        .stage_events(stage)
        .filter(|e| e.kind != EventKind::Internal)
        .map(|e| {
            max_rank = max_rank.max(e.src as usize);
            let mut e = *e;
            e.bytes = scaled_wire_bytes(&e, scale).round() as u64;
            e.overhead = 0; // already folded into bytes
            e
        })
        .collect();
    let mut by_sender = vec![Vec::new(); max_rank + 1];
    for e in events {
        by_sender[e.src as usize].push(e);
    }
    by_sender
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(events: &[(usize, u128, u64, EventKind)]) -> Trace {
        let mut t = Trace::default();
        for &(src, dsts, bytes, kind) in events {
            t.push("Shuffle", src, dsts, bytes, 0, 1, kind);
        }
        t
    }

    fn net() -> NetModelConfig {
        NetModelConfig {
            bandwidth_bits_per_sec: 80e6, // 10 MB/s effective at eff=1
            tcp_efficiency: 1.0,
            per_transfer_latency_s: 0.001,
            multicast_alpha: 0.5,
            group_setup_s: 0.0,
        }
    }

    #[test]
    fn serial_unicasts_sum() {
        let t = trace_with(&[
            (0, 0b10, 10_000_000, EventKind::AppUnicast),
            (1, 0b01, 20_000_000, EventKind::AppUnicast),
        ]);
        let s = serial_schedule(&t, "Shuffle", &net(), 1.0);
        // 1 s + 2 s plus 1 ms latency each.
        assert!((s.makespan_s() - 3.002).abs() < 1e-9);
        assert_eq!(s.transfers.len(), 2);
        assert!((s.transfers[0].end_s - s.transfers[1].start_s).abs() < 1e-12);
        assert!((serial_makespan(&t, "Shuffle", &net(), 1.0) - s.makespan_s()).abs() < 1e-12);
    }

    #[test]
    fn schedule_is_in_the_papers_order_whatever_the_trace_order() {
        // Two groups {0,1,2} and {0,1,3}, recorded as racing ranks would.
        let t = trace_with(&[
            (1, 0b1001, 10, EventKind::Multicast),
            (2, 0b0011, 10, EventKind::Multicast),
            (0, 0b1010, 10, EventKind::Multicast),
            (1, 0b0101, 10, EventKind::Multicast),
            (3, 0b0011, 10, EventKind::Multicast),
            (0, 0b0110, 10, EventKind::Multicast),
        ]);
        let s = serial_schedule(&t, "Shuffle", &net(), 1.0);
        let order: Vec<(u16, u128)> = s.transfers.iter().map(|x| (x.src, x.dsts)).collect();
        let group = |members: u128| {
            [0u16, 1, 2, 3]
                .into_iter()
                .filter(move |&n| members >> n & 1 == 1)
        };
        let expected: Vec<(u16, u128)> = [0b0111u128, 0b1011]
            .into_iter()
            .flat_map(|m| group(m).map(move |src| (src, m & !(1 << src))))
            .collect();
        assert_eq!(order, expected);
        // Unicasts: node by node, each sender's own order kept.
        let t = trace_with(&[
            (1, 0b100, 1, EventKind::AppUnicast),
            (0, 0b100, 2, EventKind::AppUnicast),
            (1, 0b001, 3, EventKind::AppUnicast),
            (0, 0b010, 4, EventKind::AppUnicast),
        ]);
        let s = serial_schedule(&t, "Shuffle", &net(), 1.0);
        let bytes: Vec<f64> = s.transfers.iter().map(|x| x.bytes).collect();
        assert_eq!(bytes, [2.0, 4.0, 1.0, 3.0]);
    }

    #[test]
    fn multicast_pays_log_penalty() {
        let t = trace_with(&[(0, 0b1110, 10_000_000, EventKind::Multicast)]);
        let s = serial_makespan(&t, "Shuffle", &net(), 1.0);
        // fanout 3: 1 + 0.5·log2(3) ≈ 1.7925 → 1.7925 s + 1 ms.
        assert!((s - (1.0 + 0.5 * 3f64.log2()) - 0.001).abs() < 1e-9, "{s}");
    }

    #[test]
    fn internal_events_are_free() {
        let t = trace_with(&[
            (0, 0b10, 1_000_000, EventKind::Internal),
            (0, 0b10, 1_000_000, EventKind::AppUnicast),
        ]);
        let s = serial_makespan(&t, "Shuffle", &net(), 1.0);
        assert!((s - 0.101).abs() < 1e-9);
    }

    #[test]
    fn scale_multiplies_bytes_not_latency() {
        let t = trace_with(&[(0, 0b10, 1_000_000, EventKind::AppUnicast)]);
        let s1 = serial_makespan(&t, "Shuffle", &net(), 1.0);
        let s10 = serial_makespan(&t, "Shuffle", &net(), 10.0);
        // s1 = 0.1 + 0.001; s10 = 1.0 + 0.001.
        assert!((s10 - 1.001).abs() < 1e-9);
        assert!((s1 - 0.101).abs() < 1e-9);
    }

    #[test]
    fn tree_unicast_charges_fanout_times() {
        // One multicast to 3 receivers decomposed into 3 serial unicasts;
        // the recorded tree hops themselves are not double-charged.
        let t = trace_with(&[
            (0, 0b1110, 1_000_000, EventKind::Multicast),
            (0, 0b0010, 1_000_000, EventKind::Internal),
            (1, 0b0100, 1_000_000, EventKind::Internal),
            (0, 0b1000, 1_000_000, EventKind::Internal),
        ]);
        let tree = serial_makespan_tree_unicast(&t, "Shuffle", &net(), 1.0);
        assert!((tree - 0.303).abs() < 1e-9, "{tree}");
        // The penalty model charges less than 3 serial unicasts (that's the
        // point of multicasting).
        let penalty = serial_makespan(&t, "Shuffle", &net(), 1.0);
        assert!(penalty < tree);
    }

    #[test]
    fn transfers_by_sender_groups_and_scales() {
        let t = trace_with(&[
            (2, 0b001, 100, EventKind::AppUnicast),
            (0, 0b100, 200, EventKind::AppUnicast),
            (2, 0b010, 300, EventKind::AppUnicast),
            (1, 0b001, 400, EventKind::Internal), // excluded
        ]);
        let by = transfers_by_sender(&t, "Shuffle", 2.0);
        assert_eq!(by.len(), 3);
        assert_eq!(by[0].len(), 1);
        assert_eq!(by[1].len(), 0);
        assert_eq!(by[2].len(), 2);
        assert_eq!(by[2][0].bytes, 200);
        assert_eq!(by[2][1].bytes, 600);
    }

    #[test]
    fn empty_stage_is_zero() {
        let t = trace_with(&[]);
        assert_eq!(serial_makespan(&t, "Shuffle", &net(), 1.0), 0.0);
        assert_eq!(
            serial_schedule(&t, "Shuffle", &net(), 1.0).makespan_s(),
            0.0
        );
    }

    #[test]
    fn fabric_makespans_order_correctly() {
        // One multicast to 3 receivers of 10 MB at 10 MB/s, L = 1 ms.
        let t = trace_with(&[(0, 0b1110, 10_000_000, EventKind::Multicast)]);
        let n = net();
        let serial = serial_fabric_makespan(&t, "Shuffle", ShuffleFabric::SerialUnicast, &n, 1.0);
        let fanout = serial_fabric_makespan(&t, "Shuffle", ShuffleFabric::Fanout, &n, 1.0);
        let mcast = serial_fabric_makespan(&t, "Shuffle", ShuffleFabric::Multicast, &n, 1.0);
        // serial: 3·(0.001 + 1) = 3.003; fanout: 0.001 + 3; mcast: 0.001 + 1.7925.
        assert!((serial - 3.003).abs() < 1e-9, "{serial}");
        assert!((fanout - 3.001).abs() < 1e-9, "{fanout}");
        assert!(
            (mcast - (0.001 + 1.0 + 0.5 * 3f64.log2())).abs() < 1e-9,
            "{mcast}"
        );
        assert!(mcast < fanout && fanout < serial);
    }

    #[test]
    fn fabric_makespans_coincide_for_unicasts() {
        let t = trace_with(&[
            (0, 0b10, 5_000_000, EventKind::AppUnicast),
            (1, 0b01, 5_000_000, EventKind::AppUnicast),
        ]);
        let n = net();
        let vals: Vec<f64> = ShuffleFabric::ALL
            .iter()
            .map(|&f| serial_fabric_makespan(&t, "Shuffle", f, &n, 1.0))
            .collect();
        assert!((vals[0] - vals[1]).abs() < 1e-12);
        assert!((vals[1] - vals[2]).abs() < 1e-12);
        assert!((vals[0] - serial_makespan(&t, "Shuffle", &n, 1.0)).abs() < 1e-12);
    }
}
