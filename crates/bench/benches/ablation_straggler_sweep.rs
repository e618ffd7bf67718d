//! **Ablation** — straggler-injection sweep: one rank's multicasts are
//! slowed {2×, 10×, ∞} and the sort runs under both decode disciplines.
//!
//! The paper's engines barrier on every coded packet, so the whole
//! Shuffle inherits the slowest sender's delay. The MDS quorum decode
//! (any `r−1` of `r` packets release a group) takes the straggler off
//! every critical path: its makespan must stay inside the
//! `cts_netsim::straggler` model's delay-independent bracket while the
//! barrier-on-all makespan grows at least linearly with the delay — and
//! at ∞ only the quorum run finishes at all.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_straggler_sweep
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cts_bench::env_usize;
use cts_bench::results::BenchDoc;
use cts_core::decode::DecodeMode;
use cts_core::field::FieldKind;
use cts_mapreduce::EngineConfig;
use cts_net::fault::{straggler_blackhole_rule, straggler_delay_rule, FaultRule};
use cts_netsim::straggler::{Slowdown, StragglerModel};
use cts_terasort::driver::{run_coded_terasort, SortJob};
use cts_terasort::teragen;
use serde::json::Value;

struct Point {
    label: String,
    delay_s: f64,
    quorum_s: f64,
    /// `None` at the ∞ point — barrier-on-all would never finish.
    all_s: Option<f64>,
    quorum_hi_s: f64,
}

fn timed(
    input: &bytes::Bytes,
    k: usize,
    r: usize,
    decode: DecodeMode,
    fault: Option<(usize, Arc<FaultRule>)>,
) -> f64 {
    let mut job = SortJob::new(
        EngineConfig::local(k, r)
            .with_field(FieldKind::Gf256)
            .with_decode(decode),
    );
    if let Some((victim, rule)) = fault {
        job.engine.cluster = job.engine.cluster.with_fault(victim, rule);
    }
    let started = Instant::now();
    let run = run_coded_terasort(input.clone(), &job).expect("straggler sweep run");
    let elapsed = started.elapsed().as_secs_f64();
    run.validate().expect("TeraValidate");
    elapsed
}

fn main() {
    let (k, r) = (5usize, 3usize);
    let victim = 1usize;
    let records = env_usize("CTS_RECORDS", 4_000).min(50_000);
    let input = teragen::generate(records, 2017);

    println!("Straggler sweep — K = {k}, r = {r}, GF(256), victim rank {victim}");
    println!("({records} records; slowdown = extra delay on every victim multicast)\n");

    let healthy_s = timed(&input, k, r, DecodeMode::Quorum, None);
    println!("healthy quorum makespan: {healthy_s:.3} s\n");
    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12}",
        "slowdown", "delay (s)", "quorum (s)", "all (s)", "all/quorum"
    );

    // Delay unit: the healthy makespan, floored so sub-10ms local runs
    // still separate the sweep's points.
    let unit_s = healthy_s.max(0.02);
    let mut points: Vec<Point> = Vec::new();
    for factor in [2.0f64, 10.0] {
        let delay_s = (factor * unit_s).min(1.0);
        let model = StragglerModel::new(healthy_s, Slowdown::DelayS(delay_s));
        let rule = straggler_delay_rule(Duration::from_secs_f64(delay_s));
        let quorum_s = timed(
            &input,
            k,
            r,
            DecodeMode::Quorum,
            Some((victim, Arc::clone(&rule))),
        );
        let all_s = timed(&input, k, r, DecodeMode::All, Some((victim, rule)));
        println!(
            "{factor:>8}× {delay_s:>10.3} {quorum_s:>12.3} {all_s:>12.3} {:>12.2}",
            all_s / quorum_s
        );
        assert!(
            model.quorum_bracket().contains(quorum_s),
            "{factor}×: quorum {quorum_s:.3}s outside {:?}",
            model.quorum_bracket()
        );
        assert!(
            model.all_bracket().contains(all_s),
            "{factor}×: all-mode {all_s:.3}s outside {:?}",
            model.all_bracket()
        );
        points.push(Point {
            label: format!("{factor}x"),
            delay_s,
            quorum_s,
            all_s: Some(all_s),
            quorum_hi_s: model.quorum_bracket().hi_s,
        });
    }

    // The ∞ point: the victim's multicasts never arrive. Only quorum runs.
    let model = StragglerModel::new(healthy_s, Slowdown::Blackhole);
    let quorum_s = timed(
        &input,
        k,
        r,
        DecodeMode::Quorum,
        Some((victim, straggler_blackhole_rule())),
    );
    println!(
        "{:>9} {:>10} {quorum_s:>12.3} {:>12} {:>12}",
        "inf", "inf", "never", "inf"
    );
    assert!(
        model.quorum_bracket().contains(quorum_s),
        "∞: quorum {quorum_s:.3}s outside {:?}",
        model.quorum_bracket()
    );
    points.push(Point {
        label: "inf".to_string(),
        delay_s: f64::INFINITY,
        quorum_s,
        all_s: None,
        quorum_hi_s: model.quorum_bracket().hi_s,
    });

    // Graceful degradation: the quorum makespan must not track the delay —
    // the 10× and ∞ points stay within the same healthy-calibrated bound
    // the 2× point satisfies (sub-linear by construction of the bracket).
    let worst = points.iter().map(|p| p.quorum_s).fold(0.0f64, f64::max);
    assert!(
        worst <= points[0].quorum_hi_s,
        "quorum makespan grew with the injected delay: worst {worst:.3}s"
    );
    println!(
        "\nquorum makespan is delay-independent (worst {worst:.3} s ≤ bound {:.3} s); \
         barrier-on-all pays ≥ the injected delay. ✓",
        points[0].quorum_hi_s
    );
    write_json(k, r, records, healthy_s, &points);
}

/// Dumps the sweep as `BENCH_ablation_straggler_sweep.json` inside
/// `$CTS_BENCH_JSON_DIR` (no-op when unset), the PR's headline artifact.
fn write_json(k: usize, r: usize, records: usize, healthy_s: f64, points: &[Point]) {
    let mut doc = BenchDoc::new("ablation_straggler_sweep")
        .config("k", Value::UInt(k as u64))
        .config("r", Value::UInt(r as u64))
        .config("records", Value::UInt(records as u64))
        .config("victim_rank", Value::UInt(1))
        .config("field", Value::Str("gf256".to_string()))
        .config("healthy_quorum_makespan_s", Value::Float(healthy_s))
        .unit("injected_delay_s", "s")
        .unit("quorum_makespan_s", "s")
        .unit("all_makespan_s", "s")
        .unit("quorum_bound_s", "s");
    for p in points {
        doc.row([
            ("slowdown", Value::Str(p.label.clone())),
            (
                "injected_delay_s",
                if p.delay_s.is_finite() {
                    Value::Float(p.delay_s)
                } else {
                    Value::Str("inf".to_string())
                },
            ),
            ("quorum_makespan_s", Value::Float(p.quorum_s)),
            (
                "all_makespan_s",
                match p.all_s {
                    Some(s) => Value::Float(s),
                    None => Value::Str("never-completes".to_string()),
                },
            ),
            ("quorum_bound_s", Value::Float(p.quorum_hi_s)),
        ]);
    }
    doc.write();
}
