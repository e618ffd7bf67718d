//! The Shuffle schedule: every rank posts each send the moment it has it,
//! and waits for none. Behind a shaped NIC the stage must therefore sit on
//! the egress floor — the busiest sender's own NIC time — for every layout
//! and both decode disciplines, and the CPU stages must hide behind it;
//! a rank reduces while the Shuffle still runs, not after it;
//! and nothing but *when* the NIC is busy may differ from the turn-taking
//! schedule this replaced: the traced transfers are pinned to the multisets
//! that schedule produced, `AfterSends(n)` still dies with exactly `n`
//! group sends out, and a rank that dies before its first post has sent
//! nothing.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use coded_terasort::mapreduce::{EngineError, JobOutcome, ReduceOverlap};
use coded_terasort::net::fault::{CrashPoint, CrashSpec, FaultAction, FaultRule};
use coded_terasort::netsim::{egress_floor_s, NetModelConfig, SHUFFLE_STAGE};
use coded_terasort::prelude::*;

const K: usize = 8;

/// Two of these tests hold a job's wall-clock to a few milliseconds, the
/// others burn CPU in K = 8 jobs: they run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// The four ways a job's pieces travel: conventional, coded with either
/// decode discipline, and pods (in-pod groups *and* cross-pod unicasts).
#[derive(Clone, Copy, Debug)]
enum Leg {
    Uncoded,
    CodedAll,
    CodedQuorum,
    Pods,
}

fn run_leg(leg: Leg, engine: EngineConfig, input: &Bytes) -> JobOutcome {
    let workload = TeraSortWorkload::range(K);
    let engine = match leg {
        Leg::CodedQuorum => engine
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum),
        Leg::Pods => engine.with_pods(4),
        _ => engine,
    };
    let outcome = run(&workload, input.clone(), &engine).unwrap_or_else(|e| panic!("{leg:?}: {e}"));
    cts_terasort::validate(input, &outcome.outputs).unwrap_or_else(|e| panic!("{leg:?}: {e}"));
    outcome
}

/// A rank reduces as its pieces land. Read off the job's own span log, in
/// ratios inside the one run: on every rank Reduce opens inside the
/// Shuffle's extent, and what it still had to do once the Shuffle had closed
/// is the lesser part of it.
fn assert_reduce_ran_inside_the_shuffle(leg: Leg, outcome: &JobOutcome) {
    let log = &outcome.spans;
    let overlaps = ReduceOverlap::of(log);
    assert_eq!(overlaps.len(), K, "{leg:?}");
    for (rank, overlap) in overlaps.iter().enumerate() {
        let span = |stage| {
            let stage = log.stage_index(stage).expect("a stage every rank enters");
            let mut spans = log.spans.iter();
            let span = spans.find(|s| s.stage == stage && usize::from(s.rank) == rank);
            *span.expect("one span per stage")
        };
        let (shuffle, reduce) = (span(SHUFFLE_STAGE), span("Reduce"));
        assert!(
            shuffle.start_ns <= reduce.start_ns && reduce.start_ns < shuffle.end_ns,
            "{leg:?}, rank {rank}: Reduce opens outside the Shuffle: {reduce:?} {shuffle:?}"
        );
        assert!(
            overlap.after_shuffle.as_secs_f64() <= 0.6 * overlap.busy.as_secs_f64(),
            "{leg:?}, rank {rank}: {overlap:?}"
        );
    }
}

fn redundancy(leg: Leg) -> usize {
    match leg {
        Leg::Uncoded => 1,
        Leg::CodedAll | Leg::CodedQuorum => 3,
        Leg::Pods => 2,
    }
}

#[test]
fn shuffle_sits_on_the_egress_floor_in_every_layout() {
    let _alone = alone();
    let input = teragen::generate(5_000, 2017);
    // Egress rates that put each leg's busiest sender at 150–300 ms.
    for (leg, rate) in [
        (Leg::Uncoded, 275e3),
        (Leg::CodedAll, 100e3),
        (Leg::CodedQuorum, 150e3),
        (Leg::Pods, 370e3),
    ] {
        let mut nic = NicProfile::rate_limited(rate)
            .with_latency_s(1e-4)
            .with_multicast_alpha(0.30);
        nic.burst_bytes = 256.0; // the free first bytes: under 1 % of any sender's egress
        let engine = EngineConfig::local(K, redundancy(leg)).with_nic(nic);
        let outcome = run_leg(leg, engine, &input);
        let floor_s = egress_floor_s(
            &outcome.trace,
            SHUFFLE_STAGE,
            ShuffleFabric::default(),
            &NetModelConfig::of_nic(&nic),
        );
        assert!(
            (0.15..=0.30).contains(&floor_s),
            "{leg:?}: the floor {floor_s:.3} s left the range this test is sized for"
        );
        let shuffle_s = outcome.wall.max.shuffle.as_secs_f64();
        let ratio = shuffle_s / floor_s;
        println!("{leg:?}: shuffle {shuffle_s:.3} s = {ratio:.2}× the egress floor {floor_s:.3} s");
        assert!(
            (0.9..=1.25).contains(&ratio),
            "{leg:?}: shuffle {shuffle_s:.3} s is {ratio:.2}× the egress floor {floor_s:.3} s"
        );
        assert_reduce_ran_inside_the_shuffle(leg, &outcome);
    }
}

/// Count and FNV-1a digest of a stage's traced events as the sorted multiset
/// of `(src, dst mask, bytes, wire copies, kind)`.
fn shuffle_events(outcome: &JobOutcome) -> (usize, u64) {
    let mut events: Vec<_> = outcome
        .trace
        .stage_events(SHUFFLE_STAGE)
        .map(|e| (e.src, e.dsts, e.bytes, e.wire_copies, e.kind as u8))
        .collect();
    events.sort_unstable();
    let fields = events.iter().flat_map(|&(src, dsts, bytes, copies, kind)| {
        [src.into(), dsts, bytes.into(), copies.into(), kind.into()]
    });
    let wire: Vec<u8> = fields.flat_map(u128::to_le_bytes).collect();
    (events.len(), fnv1a(&wire))
}

/// FNV-1a 64: the hash the pinned values below were taken with.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the Shuffle stage puts on the wire, pinned to values taken from the
/// turn-taking schedule of the commit before this file existed.
#[test]
fn shuffle_event_multisets_are_the_turn_taking_schedules() {
    let _alone = alone();
    let input = teragen::generate(4_000, 99);
    for (leg, tcp, pinned) in [
        (Leg::Uncoded, false, PINNED_UNCODED),
        (Leg::CodedAll, false, PINNED_CODED),
        (Leg::Pods, false, PINNED_PODS),
        (Leg::CodedAll, true, PINNED_CODED),
    ] {
        let r = redundancy(leg);
        let engine = if tcp {
            EngineConfig::tcp(K, r)
        } else {
            EngineConfig::local(K, r)
        };
        let got = shuffle_events(&run_leg(leg, engine, &input));
        assert_eq!(got, pinned, "{leg:?}, tcp = {tcp}: {got:#x?}");
    }
}

// 56 pieces, 280 packets, 24 packets + 48 pieces; 14 barrier frames each.
const PINNED_UNCODED: (usize, u64) = (70, 0xe73d_96c6_85a6_a9d6);
const PINNED_CODED: (usize, u64) = (294, 0x927a_6b27_3f08_c0d7);
const PINNED_PODS: (usize, u64) = (86, 0x5bfc_e5a4_3594_56d5);

/// `AfterSends(n)` in all-mode with recovery off: the victim fails the job
/// as `RankDied` having multicast to exactly `n` of its groups (all of them
/// for a budget at or past the total).
#[test]
fn after_sends_dies_with_exactly_n_group_sends_posted() {
    let _alone = alone();
    let (k, r, victim) = (4usize, 2usize, 1usize);
    let owned = 3; // C(k − 1, r) groups per rank
    let input = teragen::generate(1_200, 7);
    for n in [0u64, 1, owned, owned + 4] {
        let posted = Arc::new(Mutex::new(BTreeSet::new()));
        let seen = Arc::clone(&posted);
        let rule: Arc<FaultRule> = Arc::new(move |_dst, tag: Tag, _payload: &Bytes, _idx| {
            if tag.purpose() == Tag::BCAST {
                seen.lock().unwrap().insert(tag.0);
            }
            FaultAction::Deliver
        });
        let point = CrashPoint::AfterSends(n);
        let mut engine = EngineConfig::local(k, r).with_crash(CrashSpec {
            rank: victim,
            point,
        });
        engine.cluster = engine.cluster.with_fault(victim, rule);
        match run(&TeraSortWorkload::range(k), input.clone(), &engine) {
            Err(EngineError::RankDied { rank, point: p }) => {
                assert_eq!((rank, p), (victim, point));
            }
            other => panic!("AfterSends({n}): expected RankDied, got {other:?}"),
        }
        assert_eq!(
            posted.lock().unwrap().len() as u64,
            n.min(owned),
            "AfterSends({n})"
        );
    }
}

/// TeraSort whose Map *blocks* for a fixed time per file — a disk read, not
/// CPU, so eight ranks on any number of cores each take the same Map wall.
struct SlowMap {
    inner: TeraSortWorkload,
    per_file: Duration,
}

impl Workload for SlowMap {
    fn name(&self) -> &str {
        "slow-map terasort"
    }
    fn format(&self) -> InputFormat {
        self.inner.format()
    }
    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        std::thread::sleep(self.per_file);
        self.inner.map_file(file, num_partitions, keep)
    }
    fn reduce(&self, partition: usize, data: &[u8]) -> Vec<u8> {
        self.inner.reduce(partition, data)
    }
}

/// A rank maps, encodes and decodes while its NIC drains: with 105 ms of
/// Map per rank (21 files × 5 ms) in front of a 150–300 ms Shuffle, the job
/// takes the floor plus what cannot overlap — the three files before the
/// first packet exists, the last packet's decode and what Reduce has left to
/// do with the last piece — not the floor plus the Map. (Barrier-separated
/// stages took floor + 1.0 × Map.)
#[test]
fn cpu_stages_hide_behind_the_nic() {
    let _alone = alone();
    let input = teragen::generate(5_000, 2017);
    let workload = SlowMap {
        inner: TeraSortWorkload::range(K),
        per_file: Duration::from_millis(5),
    };
    let map_s = 21.0 * workload.per_file.as_secs_f64();
    for (leg, rate) in [(Leg::CodedAll, 100e3), (Leg::CodedQuorum, 150e3)] {
        let mut nic = NicProfile::rate_limited(rate)
            .with_latency_s(1e-4)
            .with_multicast_alpha(0.30);
        nic.burst_bytes = 256.0;
        let mut engine = EngineConfig::local(K, 3).with_nic(nic);
        if let Leg::CodedQuorum = leg {
            engine = engine
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum);
        }
        let started = Instant::now();
        let outcome = run(&workload, input.clone(), &engine).unwrap();
        let job_s = started.elapsed().as_secs_f64();
        cts_terasort::validate(&input, &outcome.outputs).unwrap();
        let net = NetModelConfig::of_nic(&nic);
        let floor_s = egress_floor_s(
            &outcome.trace,
            SHUFFLE_STAGE,
            ShuffleFabric::default(),
            &net,
        );
        assert!(
            (0.15..=0.30).contains(&floor_s),
            "{leg:?}: floor {floor_s:.3} s"
        );
        let wall = outcome.wall.max;
        println!("{leg:?}: job {job_s:.3} s over a floor of {floor_s:.3} s; {wall:.1?}");
        assert!(
            wall.map.as_secs_f64() >= map_s,
            "{leg:?}: the injected Map time is missing from {wall:.1?}"
        );
        assert!(
            job_s <= floor_s + 0.35 * map_s,
            "{leg:?}: job {job_s:.3} s; floor {floor_s:.3} s + 0.35 × Map {map_s:.3} s"
        );
        let ratio = wall.shuffle.as_secs_f64() / floor_s;
        assert!(
            (0.9..=1.25).contains(&ratio),
            "{leg:?}: shuffle ÷ floor {ratio:.2}"
        );
        assert_reduce_ran_inside_the_shuffle(leg, &outcome);
    }
}

/// A rank that dies in Map or Encode has posted nothing, although its first
/// packet exists long before its last file is mapped: its peers see no
/// coded packet from it.
#[test]
fn a_rank_that_dies_before_its_first_post_has_sent_nothing() {
    let _alone = alone();
    let (k, r, victim) = (4usize, 2usize, 1usize);
    let input = teragen::generate(1_200, 7);
    for point in [CrashPoint::MidMap, CrashPoint::MidEncode] {
        let posted = Arc::new(Mutex::new(0usize));
        let seen = Arc::clone(&posted);
        let rule: Arc<FaultRule> = Arc::new(move |_dst, tag: Tag, _payload: &Bytes, _idx| {
            if tag.purpose() == Tag::BCAST {
                *seen.lock().unwrap() += 1;
            }
            FaultAction::Deliver
        });
        let mut engine = EngineConfig::local(k, r).with_crash(CrashSpec {
            rank: victim,
            point,
        });
        engine.cluster = engine.cluster.with_fault(victim, rule);
        match run(&TeraSortWorkload::range(k), input.clone(), &engine) {
            Err(EngineError::RankDied { rank, point: p }) => assert_eq!((rank, p), (victim, point)),
            other => panic!("{point}: expected RankDied, got {other:?}"),
        }
        assert_eq!(*posted.lock().unwrap(), 0, "{point}");
    }
}
