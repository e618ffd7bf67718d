//! **Ablation: the impact of the worker count K** (paper §V-C).
//!
//! The paper observes that the coded speedup *decreases* with K: more
//! multicast groups (CodeGen ∝ C(K, r+1)) and less locally available data
//! (load 1 − r/K grows). This sweep fixes r = 3 and varies K.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_k_sweep
//! ```

use cts_bench::{env_usize, Experiment};
use cts_core::theory;

fn main() {
    let r = 3usize;
    println!("K sweep at r = {r} (12 GB modeled):\n");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "K", "CodeGen", "Shuffle", "coded", "uncoded", "speedup", "L_CMR(r)"
    );

    let mut speedups = Vec::new();
    for k in [8usize, 12, 16, 20] {
        let exp = Experiment {
            records: env_usize("CTS_RECORDS", 60_000),
            ..Experiment::paper(k)
        };
        let base = exp.run(1);
        let coded = exp.run(r);
        let speedup = base.breakdown.total_s() / coded.breakdown.total_s();
        speedups.push((k, speedup));
        println!(
            "{k:>4} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x {:>12.4}",
            coded.breakdown.codegen_s,
            coded.breakdown.shuffle_s,
            coded.breakdown.total_s(),
            base.breakdown.total_s(),
            speedup,
            theory::coded_comm_load(r, k),
        );
    }

    // The paper's trend: speedup falls from K = 16 to K = 20 (its two
    // measured points). We additionally check monotonicity over the upper
    // range — at small K the load term (1 - r/K) dominates the other way.
    let s16 = speedups.iter().find(|(k, _)| *k == 16).unwrap().1;
    let s20 = speedups.iter().find(|(k, _)| *k == 20).unwrap().1;
    assert!(
        s16 > s20,
        "speedup must fall from K=16 ({s16:.2}) to K=20 ({s20:.2})"
    );
    println!("\nspeedup falls with K over the paper's range (paper: 2.16× → 1.97×) ✓");
}
