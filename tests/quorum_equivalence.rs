//! Quorum equivalence: the decode discipline is a pure latency knob, so
//! `--decode quorum` (the single-parity code: any `r − 1` of a group's `r`
//! packets rebuild it) must produce **byte-identical** sorted output to
//! `--decode all` (the paper's barrier-on-all) for the same input — across
//! shuffle fabrics, r = 2 and 3 and the pod-partitioned engine. The wire
//! payloads differ; only the recovered data is invariant.

use coded_terasort::prelude::*;
use cts_terasort::workload::TeraSortWorkload;

fn sorted_outputs(job: &SortJob, input: &bytes::Bytes) -> Vec<Vec<u8>> {
    let run = run_coded_terasort(input.clone(), job).expect("coded run");
    run.validate().expect("TeraValidate");
    run.outcome.outputs
}

#[test]
fn quorum_decode_matches_all_decode_across_fabrics() {
    let (k, r) = (5, 3);
    let records = 1_800;
    let input = teragen::generate(records, 333);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for fabric in ShuffleFabric::ALL {
        let job = SortJob::new(
            EngineConfig::local(k, r)
                .with_fabric(fabric)
                .with_decode(DecodeMode::Quorum),
        );
        assert_eq!(
            sorted_outputs(&job, &input),
            reference,
            "quorum over {fabric}, {records} records, vs all-mode reference"
        );
    }
}

#[test]
fn quorum_decode_matches_all_decode_over_tcp() {
    let (k, r) = (5, 3);
    let input = teragen::generate(1_800, 333);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    let tcp = SortJob::new(EngineConfig::tcp(k, r).with_decode(DecodeMode::Quorum));
    assert_eq!(sorted_outputs(&tcp, &input), reference, "quorum over TCP");
}

/// One rank's packets never reach the wire: every group it is in still
/// has `r − 1` senders, which is the quorum, so the sort over real
/// sockets is the all-decode reference, parity-rebuilt parts included.
#[test]
fn quorum_decode_rebuilds_around_a_silent_sender_over_tcp() {
    let (k, r) = (5, 3);
    let input = teragen::generate(1_800, 4099);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for victim in [0, 3] {
        let mut job = SortJob::new(EngineConfig::tcp(k, r).with_decode(DecodeMode::Quorum));
        job.engine.cluster = (job.engine.cluster).with_fault(
            victim,
            coded_terasort::net::fault::straggler_blackhole_rule(),
        );
        assert_eq!(
            sorted_outputs(&job, &input),
            reference,
            "quorum over TCP with rank {victim} silent"
        );
    }
}

/// At r = 2 a group's quorum is one of its two packets.
#[test]
fn quorum_decode_matches_all_decode_across_thread_counts() {
    let (k, r) = (5, 2);
    let input = teragen::generate(1_500, 41);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    let job = SortJob::new(EngineConfig::local(k, r).with_decode(DecodeMode::Quorum));
    assert_eq!(sorted_outputs(&job, &input), reference);
}

#[test]
fn quorum_pods_engine_matches_all_decode() {
    let (k, r, pods) = (6usize, 2usize, 3usize);
    let input = teragen::generate(1_200, 17);
    let workload = TeraSortWorkload::range(k);
    let outputs: Vec<_> = DecodeMode::ALL
        .into_iter()
        .map(|decode| {
            let cfg = EngineConfig::local(k, r)
                .with_pods(pods)
                .with_decode(decode);
            run(&workload, input.clone(), &cfg)
                .expect("pods run")
                .outputs
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "pods all vs quorum");
}
