//! **Ablation: scalable coding via pods** (paper §VI, future direction 2).
//!
//! CodeGen cost grows as C(K, r+1) — 38 760 groups at K = 20, r = 5, and
//! combinatorially worse beyond. The pod-partitioned variant codes only
//! within disjoint pods of g nodes: group count falls to (K/g)·C(g, r+1),
//! while communication load rises to `(g/K)(1/r)(1−r/g) + (1−g/K)` (the
//! cross-pod traffic is uncoded).
//!
//! The honest result this ablation shows: at the paper's scale (K ≤ 20)
//! flat coding still wins — its CodeGen (≤ 141 s) is cheaper than the
//! extra cross-pod traffic. But CodeGen grows as K^(r+1)/(r+1)! while
//! shuffle time is bounded, so pods win from K ≈ 30 onward: the paper's
//! scalability concern, quantified.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_scalable_coding
//! ```

use cts_core::combinatorics::binomial;
use cts_core::groups::PodGroups;
use cts_core::theory;
use cts_netsim::config::{NetModelConfig, PerfModelConfig};

/// CodeGen + shuffle for the flat scheme at (K, r) over `d` bytes.
fn flat_cost(k: usize, r: usize, d: f64, net: &NetModelConfig) -> (f64, f64) {
    let groups = binomial(k as u64, r as u64 + 1);
    let codegen = groups as f64 * net.group_setup_s;
    let shuffle = d * theory::coded_comm_load(r, k) * net.multicast_penalty(r as u32)
        / net.effective_bytes_per_sec();
    (codegen, shuffle)
}

/// CodeGen + shuffle for pods of size `g`.
fn pod_cost(k: usize, r: usize, g: usize, d: f64, net: &NetModelConfig) -> (f64, f64) {
    let pods = PodGroups::new(k, r, g).unwrap();
    let codegen = pods.num_groups() as f64 * net.group_setup_s;
    let in_pod = d * (g as f64 / k as f64) * (1.0 - r as f64 / g as f64) / r as f64;
    let cross = d * (1.0 - g as f64 / k as f64);
    let shuffle =
        (in_pod * net.multicast_penalty(r as u32) + cross) / net.effective_bytes_per_sec();
    (codegen, shuffle)
}

fn main() {
    let d = 12e9; // the paper's 12 GB
    let net = PerfModelConfig::ec2_paper().net;
    let r = 5usize;
    let g = 10usize;

    println!("flat coding vs pods of g = {g}, r = {r}, 12 GB (CodeGen + Shuffle only):\n");
    println!(
        "{:>4} {:>12} {:>10} {:>10} | {:>10} {:>10} {:>10} {:>8}",
        "K", "flat groups", "flat CG", "flat total", "pod groups", "pod CG", "pod total", "winner"
    );

    let mut crossover: Option<usize> = None;
    for k in [10usize, 20, 30, 40, 50, 60] {
        if k % g != 0 {
            continue;
        }
        let (fcg, fsh) = flat_cost(k, r, d, &net);
        let (pcg, psh) = pod_cost(k, r, g, d, &net);
        let flat_total = fcg + fsh;
        let pod_total = pcg + psh;
        let winner = if pod_total < flat_total {
            "pods"
        } else {
            "flat"
        };
        if winner == "pods" && crossover.is_none() {
            crossover = Some(k);
        }
        println!(
            "{k:>4} {:>12} {fcg:>10.1} {flat_total:>10.1} | {:>10} {pcg:>10.1} {pod_total:>10.1} {winner:>8}",
            binomial(k as u64, r as u64 + 1),
            PodGroups::new(k, r, g).unwrap().num_groups(),
        );
    }

    println!("\nload comparison at K = 20 (pods pay in bytes what they save in CodeGen):");
    for g2 in [10usize, 20] {
        let load = if g2 == 20 {
            theory::coded_comm_load(r, 20)
        } else {
            theory::pod_comm_load(r, 20, g2)
        };
        let reduction = binomial(20, r as u64 + 1) as f64
            / PodGroups::new(20, r, g2)
                .map(|p| p.num_groups() as f64)
                .unwrap_or(binomial(20, r as u64 + 1) as f64);
        println!("  g = {g2:>2}: L = {load:.4}, CodeGen reduction {reduction:>6.1}×");
    }

    // Cross-check the closed forms against the *real* pod engine at a
    // small configuration: measured wire load must match pod_comm_load.
    {
        use cts_mapreduce::workload::{InputFormat, NodeSet, Workload};
        use cts_mapreduce::{run, EngineConfig};

        struct ByteSort;
        impl Workload for ByteSort {
            fn name(&self) -> &str {
                "bytesort"
            }
            fn format(&self) -> InputFormat {
                InputFormat::FixedWidth(1)
            }
            fn map_file(&self, file: &[u8], parts: usize, _: NodeSet) -> Vec<Vec<u8>> {
                let mut out = vec![Vec::new(); parts];
                for &b in file {
                    out[b as usize % parts].push(b);
                }
                out
            }
            fn reduce(&self, _p: usize, data: &[u8]) -> Vec<u8> {
                let mut v = data.to_vec();
                v.sort_unstable();
                v
            }
        }

        let (ek, er, eg) = (8usize, 2usize, 4usize);
        let bytes: Vec<u8> = (0..200_000usize).map(|i| (i % 251) as u8).collect();
        let input = bytes::Bytes::from(bytes);
        let run = run(
            &ByteSort,
            input.clone(),
            &EngineConfig::local(ek, er).with_pods(eg),
        )
        .expect("pod engine");
        let measured = run.stats.comm_load(input.len() as u64);
        let predicted = theory::pod_comm_load(er, ek, eg);
        println!(
            "\nengine cross-check at K={ek}, r={er}, g={eg}: measured load {measured:.4} vs theory {predicted:.4}"
        );
        assert!(
            (measured - predicted).abs() / predicted < 0.15,
            "pod engine load must match the closed form"
        );
    }

    // Shape assertions.
    let (fcg20, fsh20) = flat_cost(20, r, d, &net);
    let (pcg20, psh20) = pod_cost(20, r, g, d, &net);
    assert!(pcg20 < fcg20 / 50.0, "pods slash CodeGen by ≫50×");
    assert!(psh20 > fsh20, "pods pay more shuffle");
    assert!(
        fcg20 + fsh20 < pcg20 + psh20,
        "at the paper's K = 20 flat still wins"
    );
    let k_star = crossover.expect("pods must win at some K");
    assert!(
        (30..=50).contains(&k_star),
        "crossover at K = {k_star} should land between 30 and 50"
    );
    println!("\npods overtake flat coding at K = {k_star} — scalable coding pays off\nexactly where the paper's CodeGen concern kicks in. ✓");
}
