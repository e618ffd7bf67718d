//! CodedTeraSort-style execution (paper §IV): the engine on the flat
//! `(K, r)` layout — `C(K, r)` files placed `r`-fold, `C(K, r+1)`
//! multicast groups, one coded packet per group membership.
//!
//! At `r = 1` a "group" is two nodes swapping one uncancellable segment
//! each, so the layout has no groups and the run *is* [`run_uncoded`]
//! (same bytes, same sends, no CodeGen).
//!
//! [`run_uncoded`]: crate::uncoded::run_uncoded

use bytes::Bytes;
use cts_net::cluster::{JobBinding, SharedFabric};

use crate::engine::{self, JobOutcome, Layout};
use crate::error::Result;
use crate::stage::EngineConfig;
use crate::workload::Workload;

/// Runs `workload` over `input` at redundancy `cfg.r`.
///
/// Builds an ephemeral [`SharedFabric`] and submits the job at
/// [`JobBinding::ROOT`] — the one-shot path and the resident runtime's
/// per-job path are the same code.
///
/// # Errors
/// `BadConfig` for invalid `(K, r)`; a rank's failure — transport,
/// protocol, an injected crash with recovery off
/// ([`RankDied`](crate::EngineError::RankDied)), an exhausted recovery
/// margin ([`Unrecoverable`](crate::EngineError::Unrecoverable)) — fails
/// the job with that rank's error.
pub fn run_coded<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    engine::run(workload, input, cfg, Layout::flat(cfg.k, cfg.r)?)
}

/// Runs `workload` at redundancy `cfg.r` as one job on an existing
/// [`SharedFabric`], isolated under `binding`.
///
/// Jobs on nonzero slots live in an 18-bit tag-sequence space
/// ([`Tag::JOB_SEQ_BITS`](cts_net::message::Tag::JOB_SEQ_BITS)), which
/// bounds `C(K, r+1)`; and they cannot use
/// [`RecoveryMode::Speculative`](crate::RecoveryMode) — the health layer's
/// heartbeats and repair traffic run on raw, unscoped transports and
/// declaring a peer dead would poison every cohabiting job, so recovery is
/// reserved for exclusive (slot-0) fabrics.
///
/// # Errors
/// `BadConfig` for invalid `(K, r)`, world-size mismatch, or the
/// shared-fabric restrictions above; otherwise as [`run_coded`].
pub fn run_coded_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let layout = Layout::flat(cfg.k, cfg.r)?;
    engine::run_on(fabric, binding, workload, input, cfg, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::stage::RecoveryMode;
    use crate::testutil::{sample_input, ByteSort};
    use crate::uncoded::run_uncoded;
    use crate::verify::run_sequential;
    use cts_core::decode::DecodeMode;
    use cts_net::fault::CrashPoint;

    #[test]
    fn coded_matches_sequential_k4_r2() {
        let input = sample_input(1200);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn coded_matches_uncoded_across_k_r() {
        let input = sample_input(2000);
        for (k, r) in [(3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 3)] {
            let coded = run_coded(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let uncoded =
                run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(coded.outputs, uncoded.outputs, "k={k} r={r}");
        }
    }

    #[test]
    fn r_one_is_the_uncoded_run() {
        use crate::stage::stages;
        let input = sample_input(3000);
        let coded = run_coded(&ByteSort, input.clone(), &EngineConfig::local(5, 1)).unwrap();
        let uncoded = run_uncoded(&ByteSort, input, &EngineConfig::local(5, 3)).unwrap();
        assert_eq!(coded.outputs, uncoded.outputs);
        assert_eq!(coded.stats, uncoded.stats);
        assert_eq!(coded.stats.num_groups, 0);
        assert_eq!(coded.stats.shuffle_bytes(), uncoded.stats.shuffle_bytes());
        // 5 × 4 plain unicasts, no coded packet and no CodeGen stage.
        for outcome in [&coded, &uncoded] {
            assert_eq!(outcome.trace.stage_wire_sends(stages::SHUFFLE), 20);
            assert_eq!(
                outcome.trace.stage_bytes(stages::SHUFFLE),
                outcome.stats.shuffle_bytes()
            );
            assert!(outcome.spans.stage_index(stages::CODEGEN).is_none());
        }
    }

    #[test]
    fn r_equals_k_needs_no_shuffle() {
        let input = sample_input(800);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(4, 4)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        assert_eq!(outcome.stats.num_groups, 0);
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn comm_load_drops_r_times() {
        // Large enough that the 31-byte packet headers are noise next to
        // the payloads.
        let input = sample_input(120_000);
        let k = 6;
        let uncoded = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
        let base_load = uncoded.stats.comm_load(input.len() as u64);
        for r in [2usize, 3] {
            let coded = run_coded(&ByteSort, input.clone(), &EngineConfig::local(k, r)).unwrap();
            let load = coded.stats.comm_load(input.len() as u64);
            let expected = cts_core::theory::coded_comm_load(r, k);
            // Real data: small deviations from the uniform-hash ideal plus
            // packet headers.
            assert!(
                (load - expected).abs() / expected < 0.25,
                "k={k} r={r}: load {load} vs theory {expected}"
            );
            // And the r× reduction vs. the uncoded baseline holds.
            let gain = base_load / load;
            assert!(gain > 0.7 * r as f64, "gain {gain} at r={r}");
        }
    }

    #[test]
    fn stats_count_groups_and_files() {
        let input = sample_input(1500);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(outcome.stats.num_groups, 10); // C(5,3)
        for n in &outcome.stats.per_node {
            assert_eq!(n.files_mapped, 4); // C(4,1)
        }
        // Map input is r× the uncoded share in total.
        let total_mapped = outcome.stats.total(|n| n.map_input_bytes);
        assert_eq!(total_mapped, 2 * input.len() as u64);
    }

    #[test]
    fn coded_works_over_tcp() {
        let input = sample_input(900);
        let outcome = run_coded(&ByteSort, input.clone(), &EngineConfig::tcp(4, 2)).unwrap();
        assert_eq!(outcome.outputs, run_sequential(&ByteSort, &input, 4));
    }

    #[test]
    fn rejects_invalid_r() {
        let err = run_coded(&ByteSort, Bytes::new(), &EngineConfig::local(4, 5)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }

    #[test]
    fn quorum_decode_matches_all_decode() {
        use cts_core::field::FieldKind;
        let input = sample_input(2200);
        for field in FieldKind::ALL {
            for (k, r) in [(4, 2), (5, 3), (4, 1), (5, 4)] {
                let cfg = EngineConfig::local(k, r).with_field(field);
                let all = run_coded(&ByteSort, input.clone(), &cfg).unwrap();
                let quorum = run_coded(
                    &ByteSort,
                    input.clone(),
                    &cfg.clone().with_decode(DecodeMode::Quorum),
                )
                .unwrap();
                assert_eq!(all.outputs, quorum.outputs, "k={k} r={r} field={field}");
                // Traffic accounting stays sane: one multicast per group
                // membership either way.
                assert_eq!(all.stats.num_groups, quorum.stats.num_groups);
            }
        }
    }

    #[test]
    fn quorum_decode_works_over_tcp_and_threads() {
        use cts_core::field::FieldKind;
        let input = sample_input(1500);
        let reference = run_sequential(&ByteSort, &input, 4);
        let tcp = run_coded(
            &ByteSort,
            input.clone(),
            &EngineConfig::tcp(4, 3)
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum),
        )
        .unwrap();
        assert_eq!(tcp.outputs, reference);
        let threaded = run_coded(
            &ByteSort,
            input,
            &EngineConfig::local(4, 3)
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum)
                .with_threads(4),
        )
        .unwrap();
        assert_eq!(threaded.outputs, reference);
    }

    #[test]
    fn speculative_recovery_matches_the_healthy_run() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(3000);
        let healthy_cfg = EngineConfig::local(6, 3)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum);
        let healthy = run_coded(&ByteSort, input.clone(), &healthy_cfg).unwrap();
        for point in [
            CrashPoint::MidMap,
            CrashPoint::MidEncode,
            CrashPoint::AfterSends(2),
            CrashPoint::PreReduce,
        ] {
            let cfg = healthy_cfg
                .clone()
                .with_recovery(RecoveryMode::Speculative)
                .with_heartbeat(std::time::Duration::from_millis(5))
                .with_crash(CrashSpec { rank: 2, point });
            let wounded = run_coded(&ByteSort, input.clone(), &cfg).unwrap();
            assert_eq!(wounded.outputs, healthy.outputs, "crash at {point}");
        }
    }

    #[test]
    fn recovery_off_fails_fast_with_the_crash_identity() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_idle_timeout(std::time::Duration::from_secs(2))
            .with_crash(CrashSpec {
                rank: 3,
                point: CrashPoint::MidMap,
            });
        let err = run_coded(&ByteSort, input, &cfg).unwrap_err();
        assert_eq!(
            err,
            EngineError::RankDied {
                rank: 3,
                point: CrashPoint::MidMap
            }
        );
    }

    #[test]
    fn two_deaths_exhaust_recovery_with_a_structured_report() {
        use cts_core::field::FieldKind;
        use cts_net::fault::CrashSpec;
        let input = sample_input(1500);
        let cfg = EngineConfig::local(5, 2)
            .with_field(FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum)
            .with_recovery(RecoveryMode::Speculative)
            .with_heartbeat(std::time::Duration::from_millis(5))
            .with_crash(CrashSpec {
                rank: 1,
                point: CrashPoint::MidMap,
            })
            .with_crash(CrashSpec {
                rank: 4,
                point: CrashPoint::MidMap,
            });
        let err = run_coded(&ByteSort, input, &cfg).unwrap_err();
        match err {
            EngineError::Unrecoverable(report) => {
                assert_eq!(report.dead, vec![1, 4]);
                assert!(!report.unrecoverable_groups.is_empty());
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn speculative_recovery_requires_quorum_gf256_and_redundancy() {
        let input = sample_input(500);
        for cfg in [
            EngineConfig::local(4, 2).with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 2)
                .with_field(cts_core::field::FieldKind::Gf256)
                .with_recovery(RecoveryMode::Speculative),
            EngineConfig::local(4, 1)
                .with_field(cts_core::field::FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum)
                .with_recovery(RecoveryMode::Speculative),
        ] {
            let err = run_coded(&ByteSort, input.clone(), &cfg).unwrap_err();
            assert!(matches!(err, EngineError::BadConfig { .. }), "{cfg:?}");
            // r = 1 spelled `run_uncoded` is refused too, not run unprotected.
            let err = run_uncoded(&ByteSort, input.clone(), &cfg).unwrap_err();
            assert!(matches!(err, EngineError::BadConfig { .. }), "{cfg:?}");
        }
    }

    #[test]
    fn walls_are_the_span_logs() {
        use crate::stage::WallTimes;
        let cfg = EngineConfig::local(4, 2);
        let run = run_coded(&ByteSort, sample_input(600), &cfg).unwrap();
        assert_eq!(run.wall, WallTimes::from_spans(&run.spans));
        assert!(run.wall.max.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn trace_records_multicasts_once() {
        let input = sample_input(1200);
        let outcome = run_coded(&ByteSort, input, &EngineConfig::local(4, 2)).unwrap();
        use cts_net::trace::EventKind;
        let multicasts = outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .count();
        // C(4,3) groups × 3 senders each.
        assert_eq!(multicasts, 12);
        // Every multicast reaches exactly r = 2 receivers.
        assert!(outcome
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Multicast)
            .all(|e| e.fanout() == 2));
    }
}
