//! **Ablation** — recovery sweep: one rank is killed fail-stop at each
//! stage boundary (mid-Map, mid-Encode, mid-Shuffle, pre-Reduce) and the
//! sort runs once with speculative recovery and once with recovery off.
//!
//! With the quorum decode a single death never starves a group, so
//! speculative recovery pays only *detection* (the health layer's probed
//! death deadline) *plus the missing work* (re-executing the dead rank's
//! replicated map share and adopting its reduce partition) — never a
//! restart. Every recovered makespan must land inside the
//! `cts_netsim::recovery` model's bracket and the output is byte-identical
//! to the healthy run's; with recovery off the same death surfaces as a
//! typed error down the fail-fast path, with no deadline waits at all.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_recovery
//! ```

use std::time::{Duration, Instant};

use cts_bench::env_usize;
use cts_bench::results::BenchDoc;
use cts_core::decode::DecodeMode;
use cts_mapreduce::error::EngineError;
use cts_mapreduce::stage::{EngineConfig, RecoveryMode};
use cts_net::fault::{CrashPoint, CrashSpec};
use cts_net::health::HealthConfig;
use cts_netsim::recovery::RecoveryModel;
use cts_terasort::driver::{run_coded_terasort, SortJob, SortRun};
use cts_terasort::teragen;
use serde::json::Value;

const HEARTBEAT: Duration = Duration::from_millis(10);

struct Point {
    label: String,
    recovered_s: f64,
    failfast_s: f64,
    recovered_hi_s: f64,
    failfast_hi_s: f64,
}

fn timed(
    input: &bytes::Bytes,
    k: usize,
    r: usize,
    recovery: RecoveryMode,
    crash: Option<CrashSpec>,
) -> (cts_mapreduce::Result<SortRun>, f64) {
    let mut job = SortJob::new(
        EngineConfig::local(k, r)
            .with_decode(DecodeMode::Quorum)
            .with_recovery(recovery)
            .with_heartbeat(HEARTBEAT),
    );
    if let Some(spec) = crash {
        job.engine = job.engine.with_crash(spec);
    }
    let started = Instant::now();
    let run = run_coded_terasort(input.clone(), &job);
    (run, started.elapsed().as_secs_f64())
}

fn main() {
    let (k, r) = (8usize, 3usize);
    let victim = 3usize;
    let records = env_usize("CTS_RECORDS", 4_000).min(50_000);
    let input = teragen::generate(records, 2017);

    println!("Recovery sweep — K = {k}, r = {r}, quorum decode, victim rank {victim}");
    println!(
        "({records} records; heartbeat {} ms, death deadline {} ms)\n",
        HEARTBEAT.as_millis(),
        HealthConfig::from_heartbeat(HEARTBEAT)
            .death_deadline()
            .as_millis()
    );

    let (healthy, healthy_s) = timed(&input, k, r, RecoveryMode::Speculative, None);
    let healthy = healthy.expect("healthy baseline");
    healthy.validate().expect("TeraValidate healthy");
    println!("healthy makespan: {healthy_s:.3} s\n");

    let detect_s = HealthConfig::from_heartbeat(HEARTBEAT)
        .death_deadline()
        .as_secs_f64();
    let model = RecoveryModel::new(healthy_s, detect_s);

    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "crash point", "recovered (s)", "fail-fast (s)", "identical"
    );

    let mut points: Vec<Point> = Vec::new();
    for point in [
        CrashPoint::MidMap,
        CrashPoint::MidEncode,
        CrashPoint::AfterSends(2),
        CrashPoint::PreReduce,
    ] {
        let crash = CrashSpec {
            rank: victim,
            point,
        };

        let (recovered, recovered_s) = timed(&input, k, r, RecoveryMode::Speculative, Some(crash));
        let recovered = recovered.expect("speculative recovery must complete");
        recovered.validate().expect("TeraValidate recovered");
        assert_eq!(
            recovered.outcome.outputs, healthy.outcome.outputs,
            "{point}: recovered output diverged"
        );
        assert!(
            model.speculative_bracket().contains(recovered_s),
            "{point}: recovered makespan {recovered_s:.3}s outside {:?}",
            model.speculative_bracket()
        );

        let (failed, failfast_s) = timed(&input, k, r, RecoveryMode::Off, Some(crash));
        assert!(
            matches!(failed, Err(EngineError::RankDied { rank, .. }) if rank == victim),
            "{point}: recovery off must fail typed"
        );
        assert!(
            model.failfast_bracket().contains(failfast_s),
            "{point}: fail-fast took {failfast_s:.3}s, outside {:?}",
            model.failfast_bracket()
        );

        println!(
            "{point:>12} {recovered_s:>14.3} {failfast_s:>14.3} {:>10}",
            "yes"
        );
        points.push(Point {
            label: point.to_string(),
            recovered_s,
            failfast_s,
            recovered_hi_s: model.speculative_bracket().hi_s,
            failfast_hi_s: model.failfast_bracket().hi_s,
        });
    }

    let worst = points.iter().map(|p| p.recovered_s).fold(0.0f64, f64::max);
    println!(
        "\nevery crash point recovered byte-identically within \
         detection + re-execution headroom (worst {worst:.3} s ≤ bound {:.3} s); \
         recovery off failed fast and typed at every point. ✓",
        model.speculative_bracket().hi_s
    );
    write_json(k, r, victim, records, healthy_s, detect_s, &points);
}

/// Dumps the sweep as `BENCH_ablation_recovery.json` inside
/// `$CTS_BENCH_JSON_DIR` (no-op when unset), the PR's headline artifact.
#[allow(clippy::too_many_arguments)]
fn write_json(
    k: usize,
    r: usize,
    victim: usize,
    records: usize,
    healthy_s: f64,
    detect_s: f64,
    points: &[Point],
) {
    let mut doc = BenchDoc::new("ablation_recovery")
        .config("k", Value::UInt(k as u64))
        .config("r", Value::UInt(r as u64))
        .config("records", Value::UInt(records as u64))
        .config("victim_rank", Value::UInt(victim as u64))
        .config("decode", Value::Str("quorum".to_string()))
        .config("heartbeat_ms", Value::UInt(HEARTBEAT.as_millis() as u64))
        .config("death_deadline_s", Value::Float(detect_s))
        .config("healthy_makespan_s", Value::Float(healthy_s))
        .unit("recovered_makespan_s", "s")
        .unit("failfast_error_s", "s")
        .unit("recovered_bound_s", "s")
        .unit("failfast_bound_s", "s");
    for p in points {
        doc.row([
            ("crash_point", Value::Str(p.label.clone())),
            ("recovered_makespan_s", Value::Float(p.recovered_s)),
            ("failfast_error_s", Value::Float(p.failfast_s)),
            ("recovered_bound_s", Value::Float(p.recovered_hi_s)),
            ("failfast_bound_s", Value::Float(p.failfast_hi_s)),
            ("byte_identical", Value::Bool(true)),
        ]);
    }
    doc.write();
}
