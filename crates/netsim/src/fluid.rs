//! Parallel-shuffle discrete-event simulator (the paper's §VI
//! *Asynchronous Execution* future direction).
//!
//! The paper shuffles serially — one sender at a time — and asks what
//! parallel communication would change. This module answers with a fluid
//! flow model: every node pushes its transfer queue concurrently (one
//! outstanding transfer per node, in order), each node's NIC has finite
//! egress and ingress capacity, and concurrent flows share links
//! **max-min fairly** (progressive filling). A discrete-event loop advances
//! between flow completions.
//!
//! A notable consequence the ablation bench surfaces: under full
//! parallelism the *receiver* side becomes the bottleneck of the coded
//! scheme (every multicast packet is heard by `r` nodes), so the coded
//! advantage shrinks from `r×` to roughly `(1−1/K)/(1−r/K)⁻¹` — evidence
//! for why the serial schedule is where coding shines, and why the paper
//! flags the asynchronous setting as open.
//!
//! Since the async-fabric refactor this module is also the *validation
//! oracle* for measured runs: [`fabric_queues`] decomposes a trace into
//! per-fabric flow schedules and [`predict_fabric_shuffle_s`] replays them
//! here — what the engine's post-everything-then-drain shuffle would take
//! on a cluster whose NICs cap ingress too. The emulated NIC caps egress
//! only, so measured runs are bracketed by the two closed forms in
//! [`serial`](crate::serial) instead: the egress floor from below, one
//! sender at a time from above.
//!
//! ```
//! use cts_net::fabric::ShuffleFabric;
//! use cts_net::trace::{EventKind, Trace};
//! use cts_netsim::config::NetModelConfig;
//! use cts_netsim::fluid::predict_fabric_shuffle_s;
//!
//! let mut trace = Trace::default();
//! trace.push("Shuffle", 0, 0b0110, 1_000_000, 0, 1, EventKind::Multicast);
//! trace.push("Shuffle", 3, 0b11000, 1_000_000, 0, 1, EventKind::Multicast);
//!
//! let net = NetModelConfig::ec2_100mbps();
//! let fanout = predict_fabric_shuffle_s(&trace, "Shuffle", ShuffleFabric::Fanout, &net, 1.0);
//! let mcast = predict_fabric_shuffle_s(&trace, "Shuffle", ShuffleFabric::Multicast, &net, 1.0);
//! // Disjoint receiver sets: the native multicast finishes first.
//! assert!(mcast < fanout);
//! ```

use cts_net::fabric::ShuffleFabric;
use cts_net::trace::{Trace, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::config::NetModelConfig;
use crate::serial::transfers_by_sender;

/// One flow scheduled by the fluid simulator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FluidFlow {
    /// Sender rank.
    pub src: u16,
    /// Receiver bitmask.
    pub dsts: u128,
    /// Payload bytes (after scaling; before multicast inflation).
    pub bytes: f64,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Virtual completion time.
    pub end_s: f64,
}

/// Result of a fluid simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FluidOutcome {
    /// All flows with their simulated start/end times.
    pub flows: Vec<FluidFlow>,
    /// Stage completion time.
    pub makespan_s: f64,
}

struct ActiveFlow {
    /// Which queue this flow came from (refilled on completion). Queues
    /// usually map 1:1 to senders, but fabric decompositions
    /// ([`fabric_queues`]) may run several queues for one sender.
    queue: usize,
    queue_idx: usize, // index into the queue (for bookkeeping)
    /// The sending *rank* — the egress link this flow occupies.
    src: usize,
    dsts: Vec<usize>,
    remaining: f64, // bytes left (inflated by multicast penalty)
    latency_left: f64,
    start_s: f64,
    original_bytes: f64,
    dst_mask: u128,
}

/// Simulates the parallel shuffle of `by_sender` transfer queues (as
/// produced by [`transfers_by_sender`] or, per fabric, by
/// [`fabric_queues`]).
///
/// Each queue executes in order with one outstanding transfer; all queues
/// run concurrently. A transfer first pays the per-transfer latency
/// (consuming no bandwidth), then streams `bytes × multicast penalty`
/// through the *recorded sender's* egress and every receiver's ingress, at
/// the max-min fair rate. Several queues may carry the same sender rank
/// (the fanout decomposition), in which case their flows share that
/// sender's egress link.
pub fn simulate_parallel(by_sender: &[Vec<TraceEvent>], net: &NetModelConfig) -> FluidOutcome {
    let nodes = by_sender.len().max(
        by_sender
            .iter()
            .flatten()
            .flat_map(|e| mask_to_vec(e.dsts).into_iter().chain([e.src as usize]))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0),
    );
    let cap = net.effective_bytes_per_sec();
    let mut next_idx = vec![0usize; by_sender.len()];
    let mut active: Vec<ActiveFlow> = Vec::new();
    let mut finished: Vec<FluidFlow> = Vec::new();
    let mut clock = 0.0f64;

    let start_next =
        |queue: usize, next_idx: &mut Vec<usize>, active: &mut Vec<ActiveFlow>, clock: f64| {
            if let Some(ev) = by_sender[queue].get(next_idx[queue]) {
                let dsts = mask_to_vec(ev.dsts);
                let inflation = net.multicast_penalty(dsts.len() as u32);
                active.push(ActiveFlow {
                    queue,
                    queue_idx: next_idx[queue],
                    src: ev.src as usize,
                    remaining: ev.bytes as f64 * inflation,
                    latency_left: net.per_transfer_latency_s,
                    start_s: clock,
                    original_bytes: ev.bytes as f64,
                    dst_mask: ev.dsts,
                    dsts,
                });
                next_idx[queue] += 1;
            }
        };

    for sender in 0..by_sender.len() {
        start_next(sender, &mut next_idx, &mut active, clock);
    }

    while !active.is_empty() {
        // Flows past their latency phase compete for bandwidth.
        let streaming: Vec<usize> = (0..active.len())
            .filter(|&i| active[i].latency_left <= 0.0)
            .collect();
        let rates = maxmin_rates(&active, &streaming, nodes, cap);

        // Time to the next event: a latency expiry or a flow completion.
        let mut dt = f64::INFINITY;
        for (i, f) in active.iter().enumerate() {
            if f.latency_left > 0.0 {
                dt = dt.min(f.latency_left);
            } else if rates[i] > 0.0 {
                dt = dt.min(f.remaining / rates[i]);
            }
        }
        debug_assert!(dt.is_finite(), "fluid simulation stalled");
        clock += dt;

        // Advance and collect completions.
        let mut completed: Vec<usize> = Vec::new();
        for (i, f) in active.iter_mut().enumerate() {
            if f.latency_left > 0.0 {
                f.latency_left -= dt;
            } else {
                f.remaining -= rates[i] * dt;
                if f.remaining <= 1e-9 {
                    completed.push(i);
                }
            }
        }
        // Remove completed (descending index), record, and refill senders.
        completed.sort_unstable_by(|a, b| b.cmp(a));
        for i in completed {
            let f = active.swap_remove(i);
            finished.push(FluidFlow {
                src: f.src as u16,
                dsts: f.dst_mask,
                bytes: f.original_bytes,
                start_s: f.start_s,
                end_s: clock,
            });
            let _ = f.queue_idx;
            start_next(f.queue, &mut next_idx, &mut active, clock);
        }
    }

    finished.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
    FluidOutcome {
        makespan_s: clock,
        flows: finished,
    }
}

/// Decomposes a stage's traced transfers into per-queue flow lists that
/// express how the given [`ShuffleFabric`] actually puts copies on the
/// wire, for replay through [`simulate_parallel`]:
///
/// * `SerialUnicast` — each multicast becomes `m` single-destination flows
///   *in the same sender queue* (copies serialize behind each other);
/// * `Fanout` — each multicast becomes `m` single-destination flows spread
///   over `m` parallel queues per sender (copies stream concurrently but
///   share the sender's egress link, which the simulator enforces because
///   all copies keep the same `src`);
/// * `Multicast` — events pass through unchanged: one flow that loads the
///   egress once (times the α-penalty) and every receiver's ingress.
pub fn fabric_queues(
    trace: &Trace,
    stage: &str,
    fabric: ShuffleFabric,
    scale: f64,
) -> Vec<Vec<TraceEvent>> {
    let base = transfers_by_sender(trace, stage, scale);
    match fabric {
        ShuffleFabric::Multicast => base,
        ShuffleFabric::SerialUnicast => base
            .into_iter()
            .map(|queue| {
                queue
                    .iter()
                    .flat_map(|e| {
                        mask_to_vec(e.dsts).into_iter().map(move |d| {
                            let mut copy = *e;
                            copy.dsts = 1u128 << d;
                            copy
                        })
                    })
                    .collect()
            })
            .collect(),
        ShuffleFabric::Fanout => {
            let senders = base.len();
            let width = base
                .iter()
                .flatten()
                .map(|e| e.fanout() as usize)
                .max()
                .unwrap_or(1)
                .max(1);
            let mut queues: Vec<Vec<TraceEvent>> = vec![Vec::new(); senders * width];
            for (s, queue) in base.iter().enumerate() {
                for e in queue {
                    for (j, d) in mask_to_vec(e.dsts).into_iter().enumerate() {
                        let mut copy = *e;
                        copy.dsts = 1u128 << d;
                        queues[s * width + j].push(copy);
                    }
                }
            }
            queues
        }
    }
}

/// The fluid half of the fabric validation oracle: the modeled shuffle
/// makespan when every sender streams at once on a cluster that caps
/// *ingress as well as egress*. The engine does send that way, but the
/// NIC it is measured behind (`cts_net::rate`) shapes egress only, so a
/// NIC-emulated run sits on
/// [`egress_floor_s`](crate::serial::egress_floor_s) — at or below this
/// projection, far below it for coded packets, whose `r`-fold fan-in is
/// free there — and under the one-sender-at-a-time bound
/// ([`serial_fabric_makespan`](crate::serial::serial_fabric_makespan)).
pub fn predict_fabric_shuffle_s(
    trace: &Trace,
    stage: &str,
    fabric: ShuffleFabric,
    net: &NetModelConfig,
    scale: f64,
) -> f64 {
    simulate_parallel(&fabric_queues(trace, stage, fabric, scale), net).makespan_s
}

fn mask_to_vec(mask: u128) -> Vec<usize> {
    let mut out = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        out.push(m.trailing_zeros() as usize);
        m &= m - 1;
    }
    out
}

/// Max-min fair rates via progressive filling over per-node egress and
/// ingress links of capacity `cap`. Only `streaming` flows (past latency)
/// get bandwidth; others get 0.
fn maxmin_rates(active: &[ActiveFlow], streaming: &[usize], nodes: usize, cap: f64) -> Vec<f64> {
    // Link ids: 0..nodes = egress, nodes..2*nodes = ingress.
    let num_links = 2 * nodes;
    let mut link_cap = vec![cap; num_links];
    let mut rates = vec![0.0f64; active.len()];
    let mut frozen: Vec<bool> = (0..active.len()).map(|i| !streaming.contains(&i)).collect();

    let links_of = |f: &ActiveFlow| -> Vec<usize> {
        let mut l = vec![f.src];
        l.extend(f.dsts.iter().map(|&d| nodes + d));
        l
    };

    loop {
        // Flows still rising per link.
        let mut counts = vec![0usize; num_links];
        let mut any = false;
        for (i, f) in active.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            any = true;
            for l in links_of(f) {
                counts[l] += 1;
            }
        }
        if !any {
            break;
        }
        // The binding link determines the uniform increment.
        let mut delta = f64::INFINITY;
        for l in 0..num_links {
            if counts[l] > 0 {
                delta = delta.min(link_cap[l] / counts[l] as f64);
            }
        }
        if !delta.is_finite() || delta <= 0.0 {
            break;
        }
        for (i, f) in active.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rates[i] += delta;
            for l in links_of(f) {
                link_cap[l] -= delta;
            }
        }
        // Freeze flows on saturated links.
        for (i, f) in active.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if links_of(f).iter().any(|&l| link_cap[l] <= 1e-9) {
                frozen[i] = true;
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_net::trace::{EventKind, TraceEvent};

    fn net_10mbs() -> NetModelConfig {
        NetModelConfig {
            bandwidth_bits_per_sec: 80e6, // 10 MB/s at eff 1
            tcp_efficiency: 1.0,
            per_transfer_latency_s: 0.0,
            multicast_alpha: 0.0,
            group_setup_s: 0.0,
        }
    }

    fn ev(src: usize, dsts: u128, bytes: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            stage: 0,
            job: 0,
            src: src as u16,
            dsts,
            bytes,
            overhead: 0,
            wire_copies: 1,
            kind: EventKind::AppUnicast,
        }
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let out = simulate_parallel(&[vec![ev(0, 0b10, 10_000_000)]], &net_10mbs());
        assert!((out.makespan_s - 1.0).abs() < 1e-6, "{}", out.makespan_s);
        assert_eq!(out.flows.len(), 1);
    }

    #[test]
    fn disjoint_flows_run_concurrently() {
        // 0→1 and 2→3 share no links: both finish at t = 1.
        let out = simulate_parallel(
            &[
                vec![ev(0, 0b0010, 10_000_000)],
                vec![],
                vec![ev(2, 0b1000, 10_000_000)],
            ],
            &net_10mbs(),
        );
        assert!((out.makespan_s - 1.0).abs() < 1e-6, "{}", out.makespan_s);
    }

    #[test]
    fn ingress_contention_halves_rates() {
        // 0→2 and 1→2 share node 2's ingress: each gets 5 MB/s → 2 s.
        let out = simulate_parallel(
            &[
                vec![ev(0, 0b100, 10_000_000)],
                vec![ev(1, 0b100, 10_000_000)],
            ],
            &net_10mbs(),
        );
        assert!((out.makespan_s - 2.0).abs() < 1e-6, "{}", out.makespan_s);
    }

    #[test]
    fn sender_queue_is_sequential() {
        // One sender, two back-to-back unicasts to different receivers.
        let out = simulate_parallel(
            &[vec![ev(0, 0b010, 10_000_000), ev(0, 0b100, 10_000_000)]],
            &net_10mbs(),
        );
        assert!((out.makespan_s - 2.0).abs() < 1e-6, "{}", out.makespan_s);
        assert!(out.flows[0].end_s <= out.flows[1].start_s + 1e-9);
    }

    #[test]
    fn parallel_all_to_all_beats_serial() {
        // 4 nodes, all-to-all 10 MB each with the classic staggered order
        // (step i: s → (s+i) mod K, all links disjoint per step):
        // serial = 12 s; parallel = 3 s.
        let by_sender: Vec<Vec<TraceEvent>> = (0..4usize)
            .map(|s| {
                (1..4usize)
                    .map(|i| ev(s, 1 << ((s + i) % 4), 10_000_000))
                    .collect()
            })
            .collect();
        let out = simulate_parallel(&by_sender, &net_10mbs());
        assert!((out.makespan_s - 3.0).abs() < 0.01, "{}", out.makespan_s);
    }

    #[test]
    fn naive_ordering_creates_ingress_hotspots() {
        // If every sender targets node 0 first, node 0's ingress serializes
        // the first phase: the makespan doubles vs. the staggered order.
        let by_sender: Vec<Vec<TraceEvent>> = (0..4usize)
            .map(|s| {
                (0..4usize)
                    .filter(|&d| d != s)
                    .map(|d| ev(s, 1 << d, 10_000_000))
                    .collect()
            })
            .collect();
        let out = simulate_parallel(&by_sender, &net_10mbs());
        assert!(out.makespan_s > 4.5, "{}", out.makespan_s);
    }

    #[test]
    fn multicast_loads_every_receiver_ingress() {
        // Two senders multicast 10 MB to the same two receivers.
        // Each receiver ingress carries 20 MB at 10 MB/s → 2 s.
        let out = simulate_parallel(
            &[
                vec![ev(0, 0b1100, 10_000_000)],
                vec![ev(1, 0b1100, 10_000_000)],
            ],
            &net_10mbs(),
        );
        assert!((out.makespan_s - 2.0).abs() < 1e-6, "{}", out.makespan_s);
    }

    #[test]
    fn latency_delays_streaming() {
        let net = NetModelConfig {
            per_transfer_latency_s: 0.5,
            ..net_10mbs()
        };
        let out = simulate_parallel(&[vec![ev(0, 0b10, 10_000_000)]], &net);
        assert!((out.makespan_s - 1.5).abs() < 1e-6, "{}", out.makespan_s);
    }

    #[test]
    fn multicast_penalty_inflates_bytes() {
        let net = NetModelConfig {
            multicast_alpha: 1.0,
            ..net_10mbs()
        };
        // Fanout 2 → inflation 1 + log2(2) = 2 → 2 s for 10 MB.
        let out = simulate_parallel(&[vec![ev(0, 0b110, 10_000_000)]], &net);
        assert!((out.makespan_s - 2.0).abs() < 1e-6, "{}", out.makespan_s);
    }

    #[test]
    fn empty_input_is_zero() {
        let out = simulate_parallel(&[vec![], vec![]], &net_10mbs());
        assert_eq!(out.makespan_s, 0.0);
        assert!(out.flows.is_empty());
    }

    fn multicast_trace() -> Trace {
        let mut t = Trace::default();
        // Two senders, each multicasting 10 MB to the two other ranks.
        t.push("Shuffle", 0, 0b0110, 10_000_000, 0, 1, EventKind::Multicast);
        t.push("Shuffle", 3, 0b0011, 10_000_000, 0, 1, EventKind::Multicast);
        t
    }

    #[test]
    fn fabric_queues_decompose_per_fabric() {
        let t = multicast_trace();
        let mc = fabric_queues(&t, "Shuffle", ShuffleFabric::Multicast, 1.0);
        assert_eq!(mc.iter().flatten().count(), 2);
        assert!(mc.iter().flatten().all(|e| e.fanout() == 2));

        let serial = fabric_queues(&t, "Shuffle", ShuffleFabric::SerialUnicast, 1.0);
        // Copies serialize within the sender's own queue.
        assert_eq!(serial[0].len(), 2);
        assert!(serial.iter().flatten().all(|e| e.fanout() == 1));

        let fanout = fabric_queues(&t, "Shuffle", ShuffleFabric::Fanout, 1.0);
        // Copies land in distinct queues but keep their sender for egress.
        assert_eq!(fanout.iter().flatten().count(), 4);
        let nonempty: Vec<_> = fanout.iter().filter(|q| !q.is_empty()).collect();
        assert_eq!(nonempty.len(), 4);
        assert!(fanout.iter().flatten().all(|e| e.src == 0 || e.src == 3));
    }

    #[test]
    fn fabric_predictions_order_on_disjoint_receivers() {
        // Receiver-disjoint groups so sender egress is the only bottleneck.
        let mut t = Trace::default();
        t.push(
            "Shuffle",
            0,
            0b0000110,
            10_000_000,
            0,
            1,
            EventKind::Multicast,
        );
        t.push(
            "Shuffle",
            3,
            0b0110000,
            10_000_000,
            0,
            1,
            EventKind::Multicast,
        );
        let net = NetModelConfig {
            per_transfer_latency_s: 0.05,
            multicast_alpha: 0.3,
            ..net_10mbs()
        };
        let serial =
            predict_fabric_shuffle_s(&t, "Shuffle", ShuffleFabric::SerialUnicast, &net, 1.0);
        let fanout = predict_fabric_shuffle_s(&t, "Shuffle", ShuffleFabric::Fanout, &net, 1.0);
        let mcast = predict_fabric_shuffle_s(&t, "Shuffle", ShuffleFabric::Multicast, &net, 1.0);
        // serial: 2·(0.05 + 1) = 2.1; fanout: 0.05 + 2; mcast: 0.05 + 1.3.
        assert!((serial - 2.1).abs() < 1e-6, "serial {serial}");
        assert!((fanout - 2.05).abs() < 1e-6, "fanout {fanout}");
        assert!((mcast - 1.35).abs() < 1e-6, "mcast {mcast}");
        assert!(mcast < fanout && fanout < serial);
    }

    #[test]
    fn fluid_prediction_never_exceeds_serial_bound() {
        // Per fabric, the concurrent (fluid) prediction is a lower bound on
        // the strictly serial closed form — even with receiver contention,
        // where native multicast can lose its cross-fabric edge (the §VI
        // receiver-bottleneck effect).
        use crate::serial::serial_fabric_makespan;
        let t = multicast_trace();
        let net = NetModelConfig {
            per_transfer_latency_s: 0.05,
            multicast_alpha: 0.3,
            ..net_10mbs()
        };
        for fabric in ShuffleFabric::ALL {
            let fluid = predict_fabric_shuffle_s(&t, "Shuffle", fabric, &net, 1.0);
            let serial = serial_fabric_makespan(&t, "Shuffle", fabric, &net, 1.0);
            assert!(
                fluid <= serial + 1e-9,
                "{fabric}: fluid {fluid} > serial {serial}"
            );
        }
    }
}
