//! **Ablation: shuffle fabrics** — serial-unicast vs fanout vs native
//! multicast, *measured* wall-clock against the netsim oracle.
//!
//! The paper's headline gain is the `r×` shuffle reduction from multicast
//! coded exchange, but a fabric that emulates multicast by blocking serial
//! unicasts never shows it on the wall-clock. This bench runs the same
//! coded sort three times per `K` — once per
//! [`ShuffleFabric`](cts_net::fabric::ShuffleFabric) — over the in-memory
//! cluster with an *emulated NIC* (token-bucket egress, per-transfer
//! latency, multicast `α`; a queue that drains by itself), and compares:
//!
//! * **measured** — the slowest node's shuffle-stage wall-clock, from its
//!   first post to its last packet in and its NIC drained;
//! * **÷ floor** — measured over the egress floor, the busiest rank's
//!   booked NIC time (`NicLedger::egress_floor` of the job's ledgers): a
//!   rank's Shuffle runs from its first post to its NIC drained, so this is
//!   ≥ 1 on every run (asserted), and a rank posts each send the moment it
//!   has it while the emulated NIC shapes egress only, so it is near 1
//!   where the NIC sets the wall (1.05–1.2 at K = 16 and 20 on two cores);
//!   1.3–2.5 at K = 64, where 64 rank threads share the host's cores and
//!   the stage is as long as the Map, Encode and Decode slices that run
//!   inside it;
//! * **serial bound** — `cts_netsim::serial_fabric_makespan`: one sender
//!   at a time, the paper's schedule, each transfer at `L + B/rate`;
//! * **fluid** — `cts_netsim::predict_fabric_shuffle_s`: the max-min-fair
//!   concurrent replay on a cluster that caps ingress as well, which the
//!   emulation does not (skipped at K = 64 where the flow count makes it
//!   slow).
//!
//! Sorted outputs are asserted byte-identical across fabrics, and at
//! K = 16 the fanout and multicast fabrics must beat serial-unicast
//! strictly — the wall-clock materialization of the paper's multicast
//! shuffling.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_fabric
//! ```

use cts_bench::env_usize;
use cts_mapreduce::EngineConfig;
use cts_net::fabric::ShuffleFabric;
use cts_net::rate::{NicLedger, NicProfile};
use cts_netsim::config::NetModelConfig;
use cts_netsim::{predict_fabric_shuffle_s, serial_fabric_makespan, SHUFFLE_STAGE};
use cts_terasort::driver::{run_coded_terasort, SortJob};
use cts_terasort::teragen;

/// 2 MB/s egress, the paper NIC's 0.1 ms per transfer, α = 0.30 — slow
/// enough that the shuffle dominates at bench scale, fast enough to finish
/// in seconds, and 200 bytes of bucket refill per latency: about a packet
/// at this scale, so the (r − 1) extra latencies of a serial group send
/// are not hidden behind its bytes. (The latency is booked in the NIC's
/// queue, not spun for: K ranks sending at once cost no CPU.)
const RATE_BYTES_PER_SEC: f64 = 2_000_000.0;
const LATENCY_S: f64 = 1e-4;
const ALPHA: f64 = 0.30;

fn nic() -> NicProfile {
    let mut p = NicProfile::rate_limited(RATE_BYTES_PER_SEC)
        .with_latency_s(LATENCY_S)
        .with_multicast_alpha(ALPHA);
    p.burst_bytes = 4096.0; // keep the bucket binding at bench scale
    p
}

fn main() {
    let records = env_usize("CTS_RECORDS", 24_000);
    println!(
        "shuffle fabrics, measured vs modeled ({} records, {:.0} KB/s NIC, {:.1} ms/transfer):\n",
        records,
        RATE_BYTES_PER_SEC / 1e3,
        LATENCY_S * 1e3
    );

    let net = NetModelConfig::of_nic(&nic());
    for (k, r) in [(16usize, 3usize), (20, 3), (64, 2)] {
        let input = teragen::generate(records, 2017);
        println!("K = {k}, r = {r}:");
        println!(
            "  {:<16} {:>12} {:>8} {:>14} {:>10} {:>10}",
            "fabric", "measured (s)", "÷ floor", "serial bnd (s)", "fluid (s)", "sends"
        );

        let mut walls = Vec::new();
        let mut outputs: Vec<Vec<Vec<u8>>> = Vec::new();
        for fabric in ShuffleFabric::ALL {
            let job = SortJob::new(
                EngineConfig::local(k, r)
                    .with_fabric(fabric)
                    .with_nic(nic()),
            );
            let run = run_coded_terasort(input.clone(), &job).expect("coded run");
            run.validate().expect("TeraValidate");
            let measured = run.outcome.wall.max.shuffle.as_secs_f64();
            let trace = &run.outcome.trace;
            let floor = NicLedger::egress_floor(&run.outcome.nic).as_secs_f64();
            let serial_bound = serial_fabric_makespan(trace, SHUFFLE_STAGE, fabric, &net, 1.0);
            // The fluid replay is O(flows × active × links); at K = 64 the
            // 125k-flow trace makes it slower than the run it models.
            let fluid =
                (k < 64).then(|| predict_fabric_shuffle_s(trace, SHUFFLE_STAGE, fabric, &net, 1.0));
            println!(
                "  {:<16} {:>12.3} {:>8.2} {:>14.3} {:>10} {:>10}",
                fabric.label(),
                measured,
                measured / floor,
                serial_bound,
                fluid
                    .map(|f| format!("{f:.3}"))
                    .unwrap_or_else(|| "-".into()),
                trace.stage_wire_sends(SHUFFLE_STAGE),
            );
            // No Shuffle is shorter than its busiest rank's bookings.
            assert!(
                measured >= floor,
                "{fabric} at K={k}: measured {measured:.3} under the egress floor {floor:.3}"
            );
            // Ranks sending side by side can only beat one sender at a time.
            assert!(
                measured <= serial_bound * 1.25 + 0.05,
                "{fabric} at K={k}: measured {measured:.3} far above serial bound {serial_bound:.3}"
            );
            walls.push(measured);
            outputs.push(run.outcome.outputs);
        }

        // One logical exchange: identical sorted bytes on every fabric.
        assert_eq!(outputs[0], outputs[1], "serial vs fanout outputs at K={k}");
        assert_eq!(
            outputs[1], outputs[2],
            "fanout vs multicast outputs at K={k}"
        );

        let (serial, fanout, multicast) = (walls[0], walls[1], walls[2]);
        println!(
            "  → serial/fanout {:.2}×, serial/multicast {:.2}×\n",
            serial / fanout,
            serial / multicast
        );
        if k == 16 {
            // The acceptance bar: the async fabrics strictly beat the
            // blocking serial-unicast baseline on *measured* wall-clock.
            assert!(
                fanout < serial,
                "K=16: fanout {fanout:.3} not below serial-unicast {serial:.3}"
            );
            assert!(
                multicast < serial,
                "K=16: multicast {multicast:.3} not below serial-unicast {serial:.3}"
            );
            assert!(
                multicast < fanout,
                "K=16: multicast {multicast:.3} not below fanout {fanout:.3}"
            );
        } else {
            // Where the host, not the NIC, sets the stage wall (K = 64 on a
            // few cores) the fabrics tie: serial-unicast is never clearly
            // the fastest.
            assert!(
                serial >= 0.85 * fanout.max(multicast),
                "K={k}: serial-unicast must be slowest (serial {serial:.3}, fanout {fanout:.3}, multicast {multicast:.3})"
            );
        }
    }

    println!("the r× multicast gain now shows on measured wall-clock, not just the model ✓");
}
