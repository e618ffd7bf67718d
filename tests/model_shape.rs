//! Model-level shape assertions: the reproduced tables must show the
//! paper's qualitative structure (who wins, by roughly what factor, where
//! the trends point), independent of exact seconds.
//!
//! Experiment runs are memoized per `(K, r)` so each configuration's full
//! map-shuffle-reduce execution happens once no matter how many tests
//! consume it, and the K = 20 configurations — the most expensive by far
//! (`C(20,6) = 38 760` multicast groups at r = 5) — are `#[ignore]`d by
//! default to keep the tier-1 debug suite fast. CI runs
//! `--include-ignored` in release mode, where they cost a few seconds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use coded_terasort::bench::Experiment;
use coded_terasort::netsim::StageBreakdown;

fn experiment(k: usize) -> Experiment {
    Experiment {
        k,
        records: 24_000, // 2.4 MB real, projected to 12 GB
        target_bytes: 12_000_000_000,
        seed: 2017,
    }
}

/// Memoized paper-scale breakdowns: `r = 0` encodes the uncoded run.
///
/// One `OnceLock` cell per `(k, r)` key: concurrent tests needing the same
/// config block on that cell (the experiment runs exactly once), while
/// distinct configs still compute in parallel — only the cell lookup holds
/// the map lock.
fn breakdown(k: usize, r: usize) -> StageBreakdown {
    type Cell = Arc<OnceLock<StageBreakdown>>;
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), Cell>>> = OnceLock::new();
    let cell = Arc::clone(
        CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap()
            .entry((k, r))
            .or_default(),
    );
    *cell.get_or_init(|| {
        let exp = experiment(k);
        if r == 0 {
            exp.run(1).breakdown
        } else {
            exp.run(r).breakdown
        }
    })
}

#[test]
fn table2_shape_k16() {
    let base = breakdown(16, 0);
    let r3 = breakdown(16, 3);
    let r5 = breakdown(16, 5);

    // Paper Table II: total ≈ 961 s; speedups 2.16× and 3.39×.
    let total = base.total_s();
    assert!((900.0..1030.0).contains(&total), "TeraSort total {total}");

    let s3 = base.total_s() / r3.total_s();
    let s5 = base.total_s() / r5.total_s();
    assert!((1.8..2.6).contains(&s3), "r=3 speedup {s3}");
    assert!((2.7..3.8).contains(&s5), "r=5 speedup {s5}");
    // Winner ordering at K = 16: r = 5 beats r = 3 beats uncoded.
    assert!(s5 > s3 && s3 > 1.0);

    // Shuffle gain below r but above r/2 (the multicast penalty).
    let g3 = base.shuffle_s / r3.shuffle_s;
    let g5 = base.shuffle_s / r5.shuffle_s;
    assert!(g3 < 3.0 && g3 > 1.7, "shuffle gain r=3: {g3}");
    assert!(g5 < 5.0 && g5 > 2.8, "shuffle gain r=5: {g5}");

    // Map roughly r× the baseline.
    let m3 = r3.map_s / base.map_s;
    assert!((2.4..4.0).contains(&m3), "map ratio r=3: {m3}");

    // Shuffle dominates the uncoded run (paper: 98.4%).
    assert!(base.shuffle_s / base.total_s() > 0.95);
}

#[test]
#[ignore = "K=20 runs are the slowest configs; CI covers them with --include-ignored"]
fn table3_shape_k20() {
    let base = breakdown(20, 0);
    let r3 = breakdown(20, 3);
    let r5 = breakdown(20, 5);

    let s3 = base.total_s() / r3.total_s();
    let s5 = base.total_s() / r5.total_s();
    // Paper Table III: 1.97× and 2.20×.
    assert!((1.7..2.4).contains(&s3), "r=3 speedup {s3}");
    assert!((1.8..2.6).contains(&s5), "r=5 speedup {s5}");

    // The CodeGen wall: C(20,6) = 38760 groups ≈ 128 s modeled — within
    // 15% of the paper's 140.91 s and far above every other non-shuffle
    // stage.
    let cg = r5.codegen_s;
    assert!((110.0..160.0).contains(&cg), "codegen {cg}");
    assert!(cg > r5.map_s + r5.pack_encode_s + r5.reduce_s);
}

#[test]
#[ignore = "needs the K=20 r=5 run; CI covers it with --include-ignored"]
fn speedup_decreases_with_k() {
    // Paper §V-C: "As K increases, the speedup decreases."
    let s16 = breakdown(16, 0).total_s() / breakdown(16, 5).total_s();
    let s20 = breakdown(20, 0).total_s() / breakdown(20, 5).total_s();
    assert!(
        s16 > s20,
        "speedup should fall from K=16 ({s16:.2}) to K=20 ({s20:.2})"
    );
}

#[test]
#[ignore = "needs a K=20 run; CI covers it with --include-ignored"]
fn codegen_time_proportional_to_group_count() {
    // Paper §V-C observation 1. Modeled CodeGen per group must be constant.
    let cg_a = breakdown(16, 3).codegen_s / 1820.0; // C(16,4)
    let cg_b = breakdown(16, 5).codegen_s / 8008.0; // C(16,6)
    let cg_c = breakdown(20, 3).codegen_s / 4845.0; // C(20,4)
    assert!((cg_a - cg_b).abs() / cg_a < 0.01);
    assert!((cg_a - cg_c).abs() / cg_a < 0.01);
}

#[test]
fn scaled_runs_are_scale_invariant() {
    // Two different scaled-run sizes must model nearly identical
    // paper-scale breakdowns — the linearity claim behind the methodology.
    let small = Experiment {
        records: 12_000,
        ..experiment(8)
    };
    let large = Experiment {
        records: 48_000,
        ..experiment(8)
    };
    let a = small.run(3).breakdown;
    let b = large.run(3).breakdown;
    let rel = |x: f64, y: f64| (x - y).abs() / y.max(1e-9);
    assert!(
        rel(a.total_s(), b.total_s()) < 0.05,
        "{} vs {}",
        a.total_s(),
        b.total_s()
    );
    assert!(rel(a.shuffle_s, b.shuffle_s) < 0.05);
    assert!(rel(a.map_s, b.map_s) < 0.05);
}
