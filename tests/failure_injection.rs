//! Failure injection: the coding layer must turn transport misbehaviour
//! into errors, never into silently wrong output — and, with the MDS
//! quorum decode, a straggling or dead sender must not hold the shuffle
//! hostage. The straggler tests inject deterministic slowdown rules
//! ({2×, 10×, ∞}) on one rank and hold the measured makespans inside the
//! `cts_netsim::straggler` model's brackets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::coding::decode::DecodePipeline;
use coded_terasort::coding::encode::Encoder;
use coded_terasort::coding::intermediate::MapOutputStore;
use coded_terasort::coding::packet::CodedPacket;
use coded_terasort::coding::placement::PlacementPlan;
use coded_terasort::coding::CodedError;
use coded_terasort::mapreduce::{EngineError, RecoveryMode};
use coded_terasort::net::fault::{
    straggler_blackhole_rule, straggler_delay_rule, CrashPoint, CrashSpec, FaultAction,
    FaultyTransport,
};
use coded_terasort::net::local::LocalFabric;
use coded_terasort::net::{HealthConfig, NetError, Tag, Transport};
use coded_terasort::netsim::straggler::{Slowdown, StragglerModel};
use coded_terasort::netsim::RecoveryModel;
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
        .send(1, Tag::app(0), Bytes::from_static(b"vanishes"))
        .unwrap();
    assert_eq!(lossy.dropped(), 1);
    let rx = fabric.endpoint(1);
    let err = rx
        .recv_timeout(0, Tag::app(0), std::time::Duration::from_millis(30))
        .unwrap_err();
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
        .send(1, Tag::app(0), Bytes::from(pkt.to_bytes()))
        .unwrap();
    let raw = fabric.endpoint(1).recv(0, Tag::app(0)).unwrap();
    let err = CodedPacket::from_bytes(&raw).unwrap_err();
    assert!(matches!(err, CodedError::MalformedPacket { .. }));
}

/// One rank failing must fail the job, not strand its peers: a truncated
/// coded packet makes exactly one receiver's decode return `Err` while
/// everybody else is healthy and waiting at the next synchronization.
/// The failing rank shuts the job's endpoints down and the job reports
/// *its* error, not the `Disconnected` the teardown hands the others. That
/// costs a resident runtime those endpoints, not its life: the next job
/// runs on fresh ones, in the slot the failed job left its traffic in.
#[test]
fn one_ranks_decode_error_fails_the_job_with_that_error() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Over GF(2) both shuffles need every packet of a group, so the bad one
    // is always decoded. (The MDS quorum over GF(256) completes a group on
    // any r − 1 of its r packets and would discard the bad one unread
    // whenever it lost that race.)
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
            let err = sort(1).0.unwrap_err();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "tcp={tcp} nic={nic:?} {decode}: took {:?}",
                started.elapsed()
            );
            assert!(
                matches!(err, EngineError::Coded(CodedError::MalformedPacket { .. })),
                "tcp={tcp} nic={nic:?} {decode}: {err}"
            );
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
    let mut job = SortJob::new(
        EngineConfig::local(k, r)
            .with_field(FieldKind::Gf256)
            .with_decode(decode),
    );
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

/// One timed coded sort at (k, r) with GF(256) + quorum decode, optional
/// fail-stop crash injection, and the given recovery mode. `tcp` selects
/// the loopback-TCP cluster instead of the in-memory fabric.
fn crash_run(
    input: &Bytes,
    k: usize,
    r: usize,
    tcp: bool,
    recovery: RecoveryMode,
    heartbeat: Duration,
    crashes: &[CrashSpec],
) -> (coded_terasort::mapreduce::Result<SortRun>, f64) {
    let engine = if tcp {
        EngineConfig::tcp(k, r)
    } else {
        EngineConfig::local(k, r)
    };
    let mut job = SortJob::new(
        engine
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_recovery(recovery)
            .with_heartbeat(heartbeat),
    );
    for spec in crashes {
        job.engine = job.engine.with_crash(*spec);
    }
    let started = Instant::now();
    let run = run_coded_terasort(input.clone(), &job);
    (run, started.elapsed().as_secs_f64())
}

/// The tentpole acceptance sweep on one fabric: K = 16, r = 3, one rank
/// killed fail-stop mid-Map.
///
/// * `--recovery speculative` must finish with output byte-identical to
///   the healthy run's, with the makespan inside the
///   [`RecoveryModel::speculative_bracket`] calibrated from the measured
///   healthy makespan and the health layer's death deadline;
/// * `--recovery off` must fail fast with the crash's identity as a typed
///   [`EngineError::RankDied`] — no deadline waits, no hang — inside
///   [`RecoveryModel::failfast_bracket`].
fn kill_mid_map_acceptance(tcp: bool) {
    let (k, r) = (16usize, 3usize);
    let victim = 5usize;
    // TCP runs 16 socket-fed ranks; under full-suite parallel load a
    // heartbeat thread can starve long enough to miss a tight deadline,
    // so the real-socket leg gets a wider interval than the in-memory one.
    let heartbeat = Duration::from_millis(if tcp { 25 } else { 10 });
    let crash = CrashSpec {
        rank: victim,
        point: CrashPoint::MidMap,
    };
    let input = teragen::generate(3_000, 1617);

    // Healthy baseline under the same config (recovery armed, heartbeats
    // flowing, nobody dies): calibrates the recovery model's brackets.
    let (healthy, healthy_s) =
        crash_run(&input, k, r, tcp, RecoveryMode::Speculative, heartbeat, &[]);
    let healthy = healthy.expect("healthy baseline");
    healthy.validate().expect("TeraValidate healthy");

    let detect_s = HealthConfig::from_heartbeat(heartbeat)
        .death_deadline()
        .as_secs_f64();
    let model = RecoveryModel::new(healthy_s, detect_s);

    // Speculative: survivors adopt the victim's partition; output is
    // byte-identical and the makespan pays at most detection + headroom.
    let (recovered, recovered_s) = crash_run(
        &input,
        k,
        r,
        tcp,
        RecoveryMode::Speculative,
        heartbeat,
        &[crash],
    );
    let recovered = recovered.expect("speculative recovery must complete");
    recovered.validate().expect("TeraValidate recovered");
    assert_eq!(
        recovered.outcome.outputs, healthy.outcome.outputs,
        "recovered output diverged from the healthy run"
    );
    let bracket = model.speculative_bracket();
    assert!(
        bracket.contains(recovered_s),
        "recovery makespan {recovered_s:.3}s outside [{:.3}, {:.3}]s",
        bracket.lo_s,
        bracket.hi_s
    );

    // Recovery off: the same death is a fast typed error, never a hang.
    let (failed, failed_s) = crash_run(&input, k, r, tcp, RecoveryMode::Off, heartbeat, &[crash]);
    match failed {
        Err(EngineError::RankDied { rank, point }) => {
            assert_eq!(rank, victim);
            assert_eq!(point, CrashPoint::MidMap);
        }
        other => panic!("recovery off must fail with RankDied, got {other:?}"),
    }
    let bracket = model.failfast_bracket();
    assert!(
        bracket.contains(failed_s),
        "fail-fast took {failed_s:.3}s, outside [{:.3}, {:.3}]s",
        bracket.lo_s,
        bracket.hi_s
    );
}

#[test]
fn killed_mid_map_rank_recovers_byte_identically_on_the_local_fabric() {
    kill_mid_map_acceptance(false);
}

#[test]
fn killed_mid_map_rank_recovers_byte_identically_on_the_tcp_fabric() {
    kill_mid_map_acceptance(true);
}

/// A rank that dies with its pieces absorbed — what it kept, received and
/// decoded is in its reducer, which it never finishes — leaves a partition
/// its successor rebuilds through a reducer of the same shape, fed in whatever
/// order the helpers answer. Behind a shaped NIC, where pieces really do land
/// one by one over ~0.1 s, the output is the healthy run's byte for byte.
#[test]
fn a_rank_killed_with_its_pieces_absorbed_is_rebuilt_byte_identically_behind_the_nic() {
    let (k, r, victim) = (6usize, 3usize, 2usize);
    let input = teragen::generate(3_000, 2424);
    let mut nic = NicProfile::rate_limited(400e3).with_latency_s(1e-4);
    nic.burst_bytes = 256.0;
    let healthy = SortJob::new(
        EngineConfig::local(k, r)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_recovery(RecoveryMode::Speculative)
            .with_heartbeat(Duration::from_millis(10))
            .with_nic(nic),
    );
    let mut wounded = healthy.clone();
    wounded.engine = wounded.engine.with_crash(CrashSpec {
        rank: victim,
        point: CrashPoint::PreReduce,
    });
    let healthy = run_coded_terasort(input.clone(), &healthy).expect("healthy run");
    let recovered = run_coded_terasort(input, &wounded).expect("one death is recoverable");
    recovered.validate().expect("TeraValidate recovered");
    assert_eq!(recovered.outcome.outputs, healthy.outcome.outputs);
    // The victim took part in the whole Shuffle: every packet went out.
    let shuffled = |run: &SortRun| {
        run.outcome
            .trace
            .stage_bytes(coded_terasort::netsim::SHUFFLE_STAGE)
    };
    assert_eq!(shuffled(&recovered), shuffled(&healthy));
}

#[test]
fn more_deaths_than_the_code_tolerates_degrade_gracefully() {
    // Two fail-stop deaths exceed the quorum code's one-dead-sender
    // capacity: the job must abort with a structured report naming the
    // dead ranks and the starved groups — quickly, never hanging on the
    // idle deadline.
    let (k, r) = (8usize, 3usize);
    let heartbeat = Duration::from_millis(5);
    let input = teragen::generate(1_200, 4242);
    let crashes = [
        CrashSpec {
            rank: 1,
            point: CrashPoint::MidMap,
        },
        CrashSpec {
            rank: 6,
            point: CrashPoint::MidMap,
        },
    ];
    let started = Instant::now();
    let (outcome, _) = crash_run(
        &input,
        k,
        r,
        false,
        RecoveryMode::Speculative,
        heartbeat,
        &crashes,
    );
    match outcome {
        Err(EngineError::Unrecoverable(report)) => {
            assert_eq!(report.dead, vec![1, 6]);
            assert!(
                !report.unrecoverable_groups.is_empty(),
                "the report must name the starved groups"
            );
        }
        other => panic!("two deaths must be Unrecoverable, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "graceful degradation must not hang"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos sweep over (K, r, victim, crash point): any single fail-stop
    /// death under speculative recovery sorts byte-identically to the
    /// healthy run, and the same death with recovery off surfaces as the
    /// typed crash identity — structured errors, never hangs.
    #[test]
    fn chaos_single_death_recovers_or_fails_typed(
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
        // The in-memory leg's interval of the killed-mid-map tests: under
        // the suite's parallel load a 5 ms deadline is missed by a live rank.
        let heartbeat = Duration::from_millis(10);
        let crash = CrashSpec { rank: victim, point };
        let input = teragen::generate(records, seed);

        let (healthy, _) = crash_run(
            &input, k, r, false, RecoveryMode::Speculative, heartbeat, &[],
        );
        let healthy = healthy.expect("healthy chaos baseline");

        let (recovered, _) = crash_run(
            &input, k, r, false, RecoveryMode::Speculative, heartbeat, &[crash],
        );
        let recovered = recovered.expect("single death must be recoverable");
        recovered.validate().expect("TeraValidate chaos");
        prop_assert_eq!(
            &recovered.outcome.outputs,
            &healthy.outcome.outputs,
            "k={} r={} victim={} point={}",
            k, r, victim, point
        );

        let (failed, _) = crash_run(
            &input, k, r, false, RecoveryMode::Off, heartbeat, &[crash],
        );
        match failed {
            Err(EngineError::RankDied { rank, point: p }) => {
                prop_assert_eq!(rank, victim);
                prop_assert_eq!(p, point);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "recovery off must fail typed, got {other:?}"
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
    let handle = std::thread::spawn(move || a.recv(2, Tag::app(0)));
    std::thread::sleep(std::time::Duration::from_millis(20));
    fabric.abort(); // cluster teardown path
    assert!(matches!(
        handle.join().unwrap(),
        Err(NetError::Disconnected { .. })
    ));
}
