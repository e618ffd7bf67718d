//! **Ablation: the impact of the redundancy parameter r** (paper §V-C).
//!
//! The paper observes: shuffle time falls ≈ r×, Map grows linearly,
//! CodeGen grows as C(K, r+1), so speedup first rises then falls; it
//! bounds r ≤ 5. This sweep runs the real engine at K = 16 for r = 1…8
//! and prints modeled paper-scale totals, the eq. (4) ideal, and the gap.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_r_sweep
//! ```

use cts_bench::Experiment;
use cts_core::combinatorics::binomial;
use cts_core::theory;

fn main() {
    let k = 16;
    let exp = Experiment {
        records: cts_bench::env_usize("CTS_RECORDS", 60_000),
        ..Experiment::paper(k)
    };
    let base = exp.run(1);
    let (tm, ts, tr) = (
        base.breakdown.map_s,
        base.breakdown.shuffle_s,
        base.breakdown.reduce_s,
    );

    println!("r sweep at K = {k} (12 GB modeled):\n");
    println!(
        "{:>3} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10}",
        "r", "CodeGen", "Map", "Shuffle", "total", "speedup", "eq.(4)", "groups"
    );
    println!(
        "{:>3} {:>9} {:>9} {:>9} {:>9.1} {:>10} {:>9.1} {:>10}",
        1,
        "-",
        format!("{tm:.1}"),
        format!("{ts:.1}"),
        base.breakdown.total_s(),
        "1.00x",
        tm + ts + tr,
        "-"
    );

    let mut speedups = vec![1.0f64];
    for r in 2..=8usize {
        let res = exp.run(r);
        let total = res.breakdown.total_s();
        let speedup = base.breakdown.total_s() / total;
        speedups.push(speedup);
        println!(
            "{:>3} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.2}x {:>9.1} {:>10}",
            r,
            res.breakdown.codegen_s,
            res.breakdown.map_s,
            res.breakdown.shuffle_s,
            total,
            speedup,
            theory::predicted_total_time(r, tm, ts, tr),
            binomial(k as u64, r as u64 + 1),
        );
    }

    // Large-r regime, analytic: CodeGen ∝ C(K, r+1) with eq. (4) for the
    // rest — shows where the curve must turn at bigger K.
    println!("\nanalytic large-r regime at K = 20 (CodeGen wall):");
    for r in [5usize, 7, 9, 11] {
        let groups = binomial(20, r as u64 + 1);
        let codegen = groups as f64 * 3.3e-3;
        let rest = theory::predicted_total_time(r, 1.47, 960.07, 8.29);
        println!(
            "  r = {r:>2}: C(20,{:>2}) = {groups:>7} groups → CodeGen {codegen:>6.1} s, total ≳ {:>7.1} s",
            r + 1,
            codegen + rest
        );
    }

    // Shape: speedup strictly improves through the paper's range (r ≤ 5).
    assert!(speedups.windows(2).take(4).all(|w| w[1] > w[0]));
    // And the paper's headline range covers our r = 3 and r = 5 points.
    assert!(speedups[2] > 1.9 && speedups[4] > 2.8);
    println!("\nshape checks passed ✓");
}
