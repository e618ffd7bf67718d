//! Failure injection: the coding layer must turn transport misbehaviour
//! into errors, never into silently wrong output — and, with the quorum
//! decode, a straggling or dead sender must not hold the shuffle
//! hostage. The straggler tests inject deterministic slowdown rules
//! ({2×, 10×, ∞}) on one rank and hold the measured makespans inside the
//! `cts_netsim::straggler` model's brackets. Everything else fails fast: a
//! crashed rank fails its job with its identity, and a message nothing can
//! replace stalls the shuffle, under either decode, into a typed error after
//! its idle timeout.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::coding::decode::DecodePipeline;
use coded_terasort::coding::encode::Encoder;
use coded_terasort::coding::intermediate::MapOutputStore;
use coded_terasort::coding::packet::CodedPacket;
use coded_terasort::coding::placement::PlacementPlan;
use coded_terasort::coding::CodedError;
use coded_terasort::mapreduce::EngineError;
use coded_terasort::net::fault::{
    straggler_blackhole_rule, straggler_delay_rule, CrashPoint, CrashSpec, FaultAction,
    FaultyTransport,
};
use coded_terasort::net::local::LocalFabric;
use coded_terasort::net::{NetError, Tag, Transport};
use coded_terasort::netsim::straggler::{Slowdown, StragglerModel};
use coded_terasort::prelude::*;
use coded_terasort::terasort::SortRun;
use proptest::prelude::*;

/// Builds keep-rule stores for a (k, r) deployment with deterministic
/// contents.
fn stores(k: usize, r: usize) -> Vec<MapOutputStore> {
    let plan = PlacementPlan::new(k, r).unwrap();
    (0..k)
        .map(|node| {
            let mut st = MapOutputStore::new();
            for fid in plan.files_of_node(node) {
                let f = plan.nodes_of_file(fid);
                for t in 0..k {
                    if plan.keeps_intermediate(node, f, t) {
                        let data: Vec<u8> = (0..20 + t * 3).map(|i| (t * 41 + i) as u8).collect();
                        st.insert(t, f, Bytes::from(data));
                    }
                }
            }
            st
        })
        .collect()
}

#[test]
fn truncated_packet_is_rejected_not_misdecoded() {
    let stores = stores(4, 2);
    let enc = Encoder::new(4, 2, 0).unwrap();
    let pkt = enc.encode_all(&stores[0]).unwrap().remove(0);
    let wire = pkt.to_bytes();
    for cut in 0..wire.len() {
        assert!(
            CodedPacket::from_bytes(&wire[..cut]).is_err(),
            "truncation at {cut} must fail to parse"
        );
    }
}

#[test]
fn bitflip_in_header_is_caught_or_changes_attribution() {
    // Flip each header byte; the parse must either fail or produce a
    // packet whose decode then fails at a well-defined point. (Payload
    // bit-flips are undetectable without checksums — XOR codes have no
    // integrity layer; that is the transport's job, as in the paper's TCP.)
    let stores = stores(3, 2);
    let enc = Encoder::new(3, 2, 0).unwrap();
    let pkt = enc.encode_all(&stores[0]).unwrap().remove(0);
    let wire = pkt.to_bytes();
    let header_len = wire.len() - pkt.payload.len();
    let mut outcomes = (0usize, 0usize); // (parse errors, decode errors)
    for i in 0..header_len {
        let mut bad = wire.clone();
        bad[i] ^= 0x01;
        match CodedPacket::from_bytes(&bad) {
            Err(_) => outcomes.0 += 1,
            Ok(parsed) => {
                let mut pipe = DecodePipeline::new(3, 2, 1).unwrap();
                if pipe.accept(&parsed, &stores[1]).is_err() {
                    outcomes.1 += 1;
                }
            }
        }
    }
    assert!(
        outcomes.0 + outcomes.1 >= header_len / 2,
        "most header corruptions must surface: {outcomes:?} of {header_len}"
    );
}

#[test]
fn decode_without_map_output_reports_missing_intermediate() {
    let stores = stores(3, 2);
    let enc = Encoder::new(3, 2, 0).unwrap();
    let pkt = enc.encode_all(&stores[0]).unwrap().remove(0);
    let empty = MapOutputStore::new();
    let mut pipe = DecodePipeline::new(3, 2, 1).unwrap();
    let err = pipe.accept(&pkt, &empty).unwrap_err();
    assert!(matches!(err, CodedError::MissingIntermediate { .. }));
}

#[test]
fn dropped_frames_surface_as_timeouts() {
    // A transport that drops everything: the receiver's timed wait must
    // expire rather than hang or fabricate data.
    let fabric = LocalFabric::new(2);
    let lossy = FaultyTransport::new(
        Arc::new(fabric.endpoint(0)),
        Box::new(|_, _, _, _| FaultAction::Drop),
    );
    lossy
        .send(1, 0, Tag::app(0), Bytes::from_static(b"vanishes"), None)
        .unwrap();
    assert_eq!(lossy.dropped(), 1);
    let rx = fabric.endpoint(1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(30);
    let err = rx.recv_from(0, 0, Tag::app(0), Some(deadline)).unwrap_err();
    assert!(matches!(err, NetError::Timeout { .. }));
}

#[test]
fn corrupted_wire_bytes_fail_engine_style_parsing() {
    // Simulate the engine's decode stage receiving a corrupted frame via a
    // corrupting transport.
    let fabric = LocalFabric::new(2);
    let stores = stores(2, 1);
    let enc = Encoder::new(2, 1, 0).unwrap();
    let pkt = enc.encode_all(&stores[0]).unwrap().remove(0);
    let corruptor = FaultyTransport::new(
        Arc::new(fabric.endpoint(0)),
        Box::new(|_, _, payload, _| {
            let mut bad = payload.to_vec();
            bad[0] ^= 0xFF; // destroy the magic
            FaultAction::Corrupt(Bytes::from(bad))
        }),
    );
    corruptor
        .send(1, 0, Tag::app(0), Bytes::from(pkt.to_bytes()), None)
        .unwrap();
    let raw = fabric.endpoint(1).recv(0, 0, Tag::app(0)).unwrap();
    let err = CodedPacket::from_bytes(&raw).unwrap_err();
    assert!(matches!(err, CodedError::MalformedPacket { .. }));
}

/// One rank failing must fail the job, not strand its peers: a truncated
/// coded packet makes exactly one receiver's decode return `Err` (under
/// quorum, if that receiver takes it before the group's quorum is met)
/// while everybody else is healthy and waiting at the next synchronization.
/// The failing rank shuts the job's endpoints down and the job reports
/// *its* error, not the `Disconnected` the teardown hands the others. That
/// costs a resident runtime those endpoints, not its life: the next job
/// runs on fresh ones, with the same tags the failed job left its traffic
/// under.
#[test]
fn one_ranks_decode_error_fails_the_job_with_that_error() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Barrier-on-all needs every packet of a group, so the bad one is
    // always decoded. The quorum completes a group on any r − 1 of its r
    // packets: it decodes the bad one (and fails the same way) unless the
    // other sender's packet won the race, and then it never reads it and
    // sorts correctly without it.
    // The third leg runs behind a NIC that takes ~0.4 s per rank: the error
    // strikes with every rank's later packets still queued, and the teardown
    // must release those queues too.
    let crawl = coded_terasort::net::NicProfile::rate_limited(20e3);
    for (tcp, nic) in [(false, None), (true, None), (false, Some(crawl))] {
        for decode in [DecodeMode::All, DecodeMode::Quorum] {
            // Truncates the first coded packet rank 0 sends rank 2, ever.
            let fired = AtomicBool::new(false);
            let rule: Arc<coded_terasort::net::fault::FaultRule> =
                Arc::new(move |dst, tag: Tag, payload: &Bytes, _| {
                    let hit = tag.purpose() == Tag::BCAST && dst == 2;
                    if hit && !fired.swap(true, Ordering::SeqCst) {
                        FaultAction::Corrupt(payload.slice(..payload.len() / 2))
                    } else {
                        FaultAction::Deliver
                    }
                });
            let mut template = if tcp {
                EngineConfig::tcp(4, 2)
            } else {
                EngineConfig::local(4, 2)
            };
            template = template.with_decode(decode);
            template.cluster.nic = nic;
            template.cluster = template.cluster.with_fault(0, rule);
            let runtime =
                JobRuntime::start(RuntimeConfig::new(template).with_max_concurrent(2)).unwrap();
            let sort = |seed: u64| {
                let input = teragen::generate(1_200, seed);
                let reference = run_sequential(&TeraSortWorkload::range(4), &input, 4);
                let job = runtime
                    .submit(move |ctx| ctx.run(&TeraSortWorkload::range(4), input, &ctx.cfg))
                    .unwrap();
                (job.wait().map(|outcome| outcome.outputs), reference)
            };
            let started = Instant::now();
            let (first, reference) = sort(1);
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "tcp={tcp} nic={nic:?} {decode}: took {:?}",
                started.elapsed()
            );
            match first {
                Err(err) => assert!(
                    matches!(err, EngineError::Coded(CodedError::MalformedPacket { .. })),
                    "tcp={tcp} nic={nic:?} {decode}: {err}"
                ),
                Ok(outputs) => {
                    assert_eq!(
                        decode,
                        DecodeMode::Quorum,
                        "tcp={tcp} nic={nic:?}: no error"
                    );
                    assert_eq!(outputs, reference, "tcp={tcp} nic={nic:?} {decode}");
                }
            }
            let (outputs, reference) = sort(2);
            assert_eq!(
                outputs.unwrap(),
                reference,
                "tcp={tcp} nic={nic:?} {decode}"
            );
            runtime.shutdown();
        }
    }
}

/// One timed coded sort with an optional fault rule on `victim`.
fn timed_run(
    input: &Bytes,
    k: usize,
    r: usize,
    decode: DecodeMode,
    fault: Option<(usize, Arc<coded_terasort::net::fault::FaultRule>)>,
) -> (Vec<Vec<u8>>, f64) {
    let mut job = SortJob::new(EngineConfig::local(k, r).with_decode(decode));
    if let Some((victim, rule)) = fault {
        job.engine.cluster = job.engine.cluster.with_fault(victim, rule);
    }
    let started = Instant::now();
    let run = run_coded_terasort(input.clone(), &job).expect("coded sort with straggler");
    let elapsed = started.elapsed().as_secs_f64();
    run.validate().expect("TeraValidate");
    (run.outcome.outputs, elapsed)
}

#[test]
fn quorum_decode_outruns_delayed_stragglers() {
    let (k, r) = (5usize, 3usize);
    let victim = 1usize;
    let input = teragen::generate(2_000, 2017);

    // Healthy baseline: calibrates the straggler model's brackets.
    let (reference, healthy_s) = timed_run(&input, k, r, DecodeMode::Quorum, None);

    // Deterministic {2×, 10×} slowdowns: the victim's multicasts arrive
    // `factor × unit` late, where the unit is the healthy makespan floored
    // at 40 ms so CI timing noise can't drown the signal, and the whole
    // sweep is capped to keep the suite fast.
    let unit_s = healthy_s.max(0.04);
    for factor in [2.0f64, 10.0] {
        let delay_s = (factor * unit_s).min(0.4);
        let model = StragglerModel::new(healthy_s, Slowdown::DelayS(delay_s));
        let rule = straggler_delay_rule(Duration::from_secs_f64(delay_s));

        let (outputs, quorum_s) = timed_run(
            &input,
            k,
            r,
            DecodeMode::Quorum,
            Some((victim, Arc::clone(&rule))),
        );
        assert_eq!(outputs, reference, "quorum output diverged at {factor}×");
        let bracket = model.quorum_bracket();
        assert!(
            bracket.contains(quorum_s),
            "{factor}×: quorum makespan {quorum_s:.3}s outside [{:.3}, {:.3}]s",
            bracket.lo_s,
            bracket.hi_s
        );

        // Contrast: the paper's barrier-on-all decode must eat the delay —
        // once, although the victim sends late in four groups.
        let (all_outputs, all_s) = timed_run(&input, k, r, DecodeMode::All, Some((victim, rule)));
        assert_eq!(
            all_outputs, reference,
            "all-mode output diverged at {factor}×"
        );
        let all_bracket = model.all_bracket();
        assert!(
            all_bracket.contains(all_s),
            "{factor}×: all-mode makespan {all_s:.3}s outside [{:.3}, {:.3}]s",
            all_bracket.lo_s,
            all_bracket.hi_s
        );
    }
}

#[test]
fn quorum_decode_survives_a_dead_sender() {
    // The ∞ point of the sweep: the victim's multicasts never arrive.
    // Only the quorum decode can finish; its makespan must still track
    // the healthy run, and the output must stay byte-identical.
    let (k, r) = (5usize, 3usize);
    let victim = 2usize;
    let input = teragen::generate(2_000, 4099);

    let (reference, healthy_s) = timed_run(&input, k, r, DecodeMode::Quorum, None);
    let model = StragglerModel::new(healthy_s, Slowdown::Blackhole);
    let (outputs, dead_s) = timed_run(
        &input,
        k,
        r,
        DecodeMode::Quorum,
        Some((victim, straggler_blackhole_rule())),
    );
    assert_eq!(outputs, reference, "output diverged with a dead sender");
    let bracket = model.quorum_bracket();
    assert!(
        bracket.contains(dead_s),
        "dead-sender makespan {dead_s:.3}s outside [{:.3}, {:.3}]s",
        bracket.lo_s,
        bracket.hi_s
    );
    assert!(model.predicted_speedup().is_infinite());
}

/// One timed coded sort at (k, r) with quorum decode and optional
/// fail-stop crash injection. `tcp` selects the loopback-TCP cluster
/// instead of the in-memory fabric.
fn crash_run(
    input: &Bytes,
    k: usize,
    r: usize,
    tcp: bool,
    crashes: &[CrashSpec],
) -> (coded_terasort::mapreduce::Result<SortRun>, f64) {
    let engine = if tcp {
        EngineConfig::tcp(k, r)
    } else {
        EngineConfig::local(k, r)
    };
    let mut job = SortJob::new(engine.with_decode(DecodeMode::Quorum));
    for spec in crashes {
        job.engine = job.engine.with_crash(*spec);
    }
    let started = Instant::now();
    let run = run_coded_terasort(input.clone(), &job);
    (run, started.elapsed().as_secs_f64())
}

/// K = 16, r = 3, one rank killed fail-stop mid-Map on one fabric: the job
/// must fail fast with the crash's identity as a typed
/// [`EngineError::RankDied`] — no deadline waits, no hang — within six
/// healthy makespans plus half a second.
fn kill_mid_map_acceptance(tcp: bool) {
    let (k, r) = (16usize, 3usize);
    let victim = 5usize;
    let crash = CrashSpec {
        rank: victim,
        point: CrashPoint::MidMap,
    };
    let input = teragen::generate(3_000, 1617);

    // Healthy baseline under the same config: calibrates the bound.
    let (healthy, healthy_s) = crash_run(&input, k, r, tcp, &[]);
    healthy
        .expect("healthy baseline")
        .validate()
        .expect("TeraValidate healthy");

    let (failed, failed_s) = crash_run(&input, k, r, tcp, &[crash]);
    match failed {
        Err(EngineError::RankDied { rank, point }) => {
            assert_eq!(rank, victim);
            assert_eq!(point, CrashPoint::MidMap);
        }
        other => panic!("a crashed rank must fail the job with RankDied, got {other:?}"),
    }
    let bound_s = 6.0 * healthy_s + 0.5;
    assert!(
        failed_s <= bound_s,
        "fail-fast took {failed_s:.3}s, over the {bound_s:.3}s bound"
    );
}

#[test]
fn killed_mid_map_rank_fails_the_job_fast_on_the_local_fabric() {
    kill_mid_map_acceptance(false);
}

#[test]
fn killed_mid_map_rank_fails_the_job_fast_on_the_tcp_fabric() {
    kill_mid_map_acceptance(true);
}

/// Runs `job` on `input` on a thread of its own, so that a hang fails the
/// caller instead of stalling the suite, and checks that it fails with the
/// typed stall error no sooner than `idle` after it starts.
fn stalls_into_a_typed_error(job: SortJob, input: Bytes, idle: Duration) {
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let started = Instant::now();
        let run = run_coded_terasort(input, &job).map(|_| ());
        let _ = done_tx.send((run, started.elapsed()));
    });
    let slack = Duration::from_secs(10);
    let (run, took) = done
        .recv_timeout(idle + slack)
        .expect("the stalled job hung past its idle timeout");
    match run {
        Err(EngineError::Protocol { what }) => {
            assert!(what.contains("shuffle stalled"), "{what}")
        }
        other => panic!("a lost message must stall the job, got {other:?}"),
    }
    assert!(
        idle <= took && took < idle + slack,
        "stalled after {took:?} with a {idle:?} idle timeout"
    );
}

/// A plain piece has one sender and nothing can rebuild it, so losing it
/// leaves a quorum shuffle nothing to wait for: the receiver must give up
/// `idle_timeout` after its last message with the typed stall error, not
/// hang. One rank of a K = 8 job in pods of 4 drops every cross-pod
/// unicast it sends.
#[test]
fn a_lost_plain_piece_stalls_a_quorum_job_into_a_typed_error() {
    let idle = Duration::from_millis(300);
    let mut job = SortJob::new(
        EngineConfig::local(8, 2)
            .with_pods(4)
            .with_decode(DecodeMode::Quorum)
            .with_idle_timeout(idle),
    );
    let rule: Arc<coded_terasort::net::fault::FaultRule> = Arc::new(|_, tag: Tag, _, _| {
        if tag.purpose() == Tag::APP {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    });
    job.engine.cluster = job.engine.cluster.with_fault(0, rule);
    stalls_into_a_typed_error(job, teragen::generate(2_000, 3737), idle);
}

/// Barrier-on-all decodes a group from every one of its packets, so one
/// lost coded packet leaves its receiver nothing to wait for either: the
/// same deadline fails the job with the same typed error. One rank of a
/// K = 5, r = 2 job drops one copy of one of its multicasts.
fn a_lost_coded_packet_stalls_an_all_decode_job(engine: EngineConfig) {
    let idle = Duration::from_millis(300);
    let mut job = SortJob::new(engine.with_idle_timeout(idle));
    assert_eq!(job.engine.decode, DecodeMode::All);
    let dropped = std::sync::atomic::AtomicBool::new(false);
    let rule: Arc<coded_terasort::net::fault::FaultRule> = Arc::new(move |_, tag: Tag, _, _| {
        let first = tag.purpose() == Tag::BCAST && !dropped.swap(true, Ordering::Relaxed);
        if first {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    });
    job.engine.cluster = job.engine.cluster.with_fault(0, rule);
    stalls_into_a_typed_error(job, teragen::generate(2_000, 3737), idle);
}

#[test]
fn a_lost_coded_packet_stalls_an_all_decode_job_into_a_typed_error_on_the_local_fabric() {
    a_lost_coded_packet_stalls_an_all_decode_job(EngineConfig::local(5, 2));
}

#[test]
fn a_lost_coded_packet_stalls_an_all_decode_job_into_a_typed_error_on_the_tcp_fabric() {
    a_lost_coded_packet_stalls_an_all_decode_job(EngineConfig::tcp(5, 2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos sweep over (K, r, victim, crash point): any single fail-stop
    /// death surfaces as the typed crash identity — structured errors,
    /// never hangs.
    #[test]
    fn chaos_single_death_fails_typed(
        k in 4usize..=6,
        r_sel in 0usize..2,
        victim_sel in any::<u64>(),
        point_sel in 0usize..4,
        records in 200usize..600,
        seed in any::<u64>(),
    ) {
        let r = 2 + r_sel;
        prop_assume!(r < k);
        let victim = (victim_sel as usize) % k;
        let point = match point_sel {
            0 => CrashPoint::MidMap,
            1 => CrashPoint::MidEncode,
            2 => CrashPoint::AfterSends(victim_sel % 4),
            _ => CrashPoint::PreReduce,
        };
        let crash = CrashSpec { rank: victim, point };
        let input = teragen::generate(records, seed);

        let (failed, _) = crash_run(&input, k, r, false, &[crash]);
        match failed {
            Err(EngineError::RankDied { rank, point: p }) => {
                prop_assert_eq!(rank, victim);
                prop_assert_eq!(p, point);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "a crashed rank must fail the job typed, got {other:?}"
                )));
            }
        }
    }
}

#[test]
fn peer_shutdown_mid_shuffle_disconnects_cleanly() {
    let fabric = LocalFabric::new(3);
    let a = fabric.endpoint(0);
    let b = fabric.endpoint(2);
    // Node 2 dies (its mailbox closes); node 0's later receive from it
    // must fail with Disconnected instead of hanging.
    b.shutdown();
    let handle = std::thread::spawn(move || a.recv(2, 0, Tag::app(0)));
    std::thread::sleep(std::time::Duration::from_millis(20));
    fabric.abort(); // cluster teardown path
    assert!(matches!(
        handle.join().unwrap(),
        Err(NetError::Disconnected { .. })
    ));
}
