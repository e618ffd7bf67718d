//! Choosing the redundancy r* (paper §II, eqs. (4)–(5), and §III-B).
//!
//! From baseline stage times, eq. (4) predicts the coded total at any r:
//! `r·T_map + T_shuffle/r + T_reduce`, minimized at `r* ≈ √(Ts/Tm)`. The
//! paper's Table I numbers give r* = 23 and a ~10× predicted gain — but
//! the *practical* optimum is far smaller because CodeGen grows as
//! C(K, r+1). This example contrasts the idealized rule with the model's
//! full prediction.
//!
//! ```sh
//! cargo run --release --example tune_r
//! ```

use coded_terasort::bench::Experiment;
use coded_terasort::prelude::*;

fn main() {
    // The paper's Table I baseline.
    let (t_map, t_shuffle, t_reduce) = (1.86, 945.72, 10.47);
    println!("Paper Table I baseline: Map {t_map} s, Shuffle {t_shuffle} s, Reduce {t_reduce} s\n");

    let root = theory::optimal_r_real(t_map, t_shuffle);
    println!(
        "eq. (4) idealized rule: r* = ⌈√(Ts/Tm)⌉ = ⌈{root:.2}⌉ = {}",
        root.ceil()
    );
    println!(
        "eq. (5) idealized optimal total: {:.1} s  ({:.1}× vs {:.1} s)\n",
        theory::predicted_optimal_time(t_map, t_shuffle, t_reduce),
        (t_map + t_shuffle + t_reduce) / theory::predicted_optimal_time(t_map, t_shuffle, t_reduce),
        t_map + t_shuffle + t_reduce
    );

    println!("eq. (4) prediction by r (no CodeGen/multicast overheads):");
    for r in [1usize, 2, 3, 5, 8, 12, 16, 23, 32] {
        println!(
            "  r = {r:>2}: {:>7.1} s  ({:.2}×)",
            theory::predicted_total_time(r, t_map, t_shuffle, t_reduce),
            theory::predicted_speedup(r, t_map, t_shuffle, t_reduce)
        );
    }

    // Now the full model, which charges CodeGen ∝ C(K, r+1), the
    // logarithmic multicast penalty, and memory pressure — the effects
    // that made the paper cap r at 5 (§V-C).
    let k = 16;
    println!("\nFull model at K = {k} (12 GB, 100 Mbps), including CodeGen:");
    let exp = Experiment::paper(k);
    let base = exp.run(1);
    let mut best = (1usize, base.breakdown.total_s());
    for r in 2..=8 {
        let res = exp.run(r);
        let total = res.breakdown.total_s();
        println!(
            "  r = {r}: total {total:>7.1} s  (CodeGen {:>6.1} s, Shuffle {:>6.1} s)  speedup {:.2}×",
            res.breakdown.codegen_s,
            res.breakdown.shuffle_s,
            base.breakdown.total_s() / total
        );
        if total < best.1 {
            best = (r, total);
        }
    }
    println!(
        "\nbest swept r at K = {k}: r = {} — far below the idealized r* = 23: the\n\
         multicast penalty and CodeGen already ate most of eq. (4)'s promise.\n\
         The paper additionally caps r at 5 because storage grows r× (its\n\
         footnote 6) and CodeGen ∝ C(K, r+1) explodes at larger K:",
        best.0
    );
    // The K = 20 CodeGen wall, straight from the group counts.
    for r in [3usize, 5, 7, 9] {
        let groups = cts_core::combinatorics::binomial(20, r as u64 + 1);
        println!(
            "  K = 20, r = {r}: C(20,{}) = {groups:>7} groups → modeled CodeGen ≈ {:>6.1} s",
            r + 1,
            groups as f64 * 3.3e-3
        );
    }
    println!("  (at r = 9 CodeGen alone exceeds the entire r = 5 run — the paper's\n   'speedup decreases' regime, §V-C.)");
}
