//! Closed-form Coded MapReduce theory (paper §II).
//!
//! These are the formulas behind Fig. 2 and eqs. (2)–(5): the
//! computation/communication tradeoff `L(r)`, the predicted execution time
//! under a computation load `r`, and the optimal choice `r*`. The benchmark
//! harness plots them next to loads *measured* from real engine runs.

/// Communication load of an **uncoded** scheme with computation load `r`
/// (each file mapped on `r` nodes, shuffling by unicast):
/// `L_uncoded(r) = 1 − r/K`, normalized by `Q·N` as in the paper.
///
/// `r = 1` is conventional TeraSort: `(K−1)/K` of all intermediate data
/// crosses the network.
///
/// # Panics
/// Panics unless `1 ≤ r ≤ k`.
pub fn uncoded_comm_load(r: usize, k: usize) -> f64 {
    assert!(k >= 1 && (1..=k).contains(&r), "need 1 <= r <= K");
    1.0 - r as f64 / k as f64
}

/// Communication load of **Coded MapReduce** (paper eq. (2)):
/// `L_CMR(r) = (1/r)·(1 − r/K)` — exactly `r×` below the uncoded load, and
/// information-theoretically optimal.
///
/// # Panics
/// Panics unless `1 ≤ r ≤ k`.
pub fn coded_comm_load(r: usize, k: usize) -> f64 {
    uncoded_comm_load(r, k) / r as f64
}

/// Communication load of the pod-partitioned *scalable coding* variant
/// (§VI extension): coding within pods of size `g`, uncoded across pods:
/// `L_pod = (g/K)·(1/r)(1 − r/g) + (1 − g/K)`.
///
/// Setting `g = K` recovers [`coded_comm_load`]; `r = 1` recovers the
/// uncoded TeraSort load for any `g`.
///
/// # Panics
/// Panics unless `r < g`, `g ≤ k`, and `g` divides `k`.
pub fn pod_comm_load(r: usize, k: usize, g: usize) -> f64 {
    assert!(
        g >= 1 && g <= k && k.is_multiple_of(g),
        "pod size must divide K"
    );
    assert!((1..g).contains(&r) || (r == 1 && g == 1), "need 1 <= r < g");
    let in_pod = (g as f64 / k as f64) * (1.0 - r as f64 / g as f64) / r as f64;
    let cross = 1.0 - g as f64 / k as f64;
    in_pod + cross
}

/// Predicted total execution time of CMR with computation load `r`
/// (paper eq. (4)): `r·T_map + T_shuffle/r + T_reduce`, where the `T`s are
/// the *baseline* (r = 1) stage times.
pub fn predicted_total_time(r: usize, t_map: f64, t_shuffle: f64, t_reduce: f64) -> f64 {
    assert!(r >= 1);
    r as f64 * t_map + t_shuffle / r as f64 + t_reduce
}

/// The real-valued minimizer `√(T_shuffle / T_map)` of eq. (4).
pub fn optimal_r_real(t_map: f64, t_shuffle: f64) -> f64 {
    assert!(t_map > 0.0 && t_shuffle >= 0.0);
    (t_shuffle / t_map).sqrt()
}

/// The integer `r* ∈ {1, …, K}` minimizing predicted total time — the
/// paper's `⌊√(Ts/Tm)⌋ or ⌈√(Ts/Tm)⌉` rule, clamped to the valid range and
/// broken by evaluating eq. (4).
pub fn optimal_r(t_map: f64, t_shuffle: f64, t_reduce: f64, k: usize) -> usize {
    assert!(k >= 1);
    let root = optimal_r_real(t_map, t_shuffle);
    let lo = (root.floor() as usize).clamp(1, k);
    let hi = (root.ceil() as usize).clamp(1, k);
    let t_lo = predicted_total_time(lo, t_map, t_shuffle, t_reduce);
    let t_hi = predicted_total_time(hi, t_map, t_shuffle, t_reduce);
    if t_lo <= t_hi {
        lo
    } else {
        hi
    }
}

/// Predicted *optimal* total time (paper eq. (5)):
/// `2·√(T_shuffle·T_map) + T_reduce` — what an unconstrained real `r` would
/// achieve.
pub fn predicted_optimal_time(t_map: f64, t_shuffle: f64, t_reduce: f64) -> f64 {
    2.0 * (t_shuffle * t_map).sqrt() + t_reduce
}

/// Theoretical end-to-end speedup of CMR at load `r` over the `r = 1`
/// baseline, per eqs. (3)/(4).
pub fn predicted_speedup(r: usize, t_map: f64, t_shuffle: f64, t_reduce: f64) -> f64 {
    let base = t_map + t_shuffle + t_reduce;
    base / predicted_total_time(r, t_map, t_shuffle, t_reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn loads_match_paper_examples() {
        // Fig. 1 example: K = 3, N = 6, Q = 3. Uncoded r=1: each node needs
        // 4 of 6·3 = 18 intermediates → 12/18 = 2/3 = 1 - 1/3. ✓
        assert!((uncoded_comm_load(1, 3) - 2.0 / 3.0).abs() < EPS);
        // r=2 uncoded: 6/18 = 1/3. Coded: 3/18 = 1/6.
        assert!((uncoded_comm_load(2, 3) - 1.0 / 3.0).abs() < EPS);
        assert!((coded_comm_load(2, 3) - 1.0 / 6.0).abs() < EPS);
    }

    #[test]
    fn coded_is_exactly_r_times_smaller() {
        for k in 2..=20usize {
            for r in 1..=k {
                let gain = uncoded_comm_load(r, k) / coded_comm_load(r, k).max(EPS);
                if r < k {
                    assert!((gain - r as f64).abs() < 1e-9, "k={k} r={r}");
                } else {
                    assert_eq!(uncoded_comm_load(r, k), 0.0);
                }
            }
        }
    }

    #[test]
    fn load_is_monotone_decreasing_in_r() {
        for k in [10usize, 16, 20] {
            let mut last = f64::INFINITY;
            for r in 1..=k {
                let l = coded_comm_load(r, k);
                assert!(l < last);
                last = l;
            }
            assert_eq!(coded_comm_load(k, k), 0.0);
        }
    }

    #[test]
    fn pod_load_limits() {
        // g = K recovers the flat coded load.
        assert!((pod_comm_load(3, 16, 16) - coded_comm_load(3, 16)).abs() < EPS);
        // r = 1 recovers the TeraSort load regardless of pods.
        for g in [2usize, 4, 8] {
            assert!((pod_comm_load(1, 16, g) - uncoded_comm_load(1, 16)).abs() < EPS);
        }
        // Pods trade load for CodeGen: load is between flat-coded and uncoded.
        let l = pod_comm_load(3, 20, 10);
        assert!(l > coded_comm_load(3, 20));
        assert!(l < uncoded_comm_load(1, 20));
    }

    #[test]
    fn table1_predicts_r23_and_10x() {
        // Paper §III-B: Tmap = 1.86, Tshuffle = 945.72 → r* = ⌈22.55⌉ = 23,
        // and ~10× predicted saving.
        let (tm, ts, tr) = (1.86, 945.72, 10.47 + 2.35 + 0.85);
        let root = optimal_r_real(tm, ts);
        assert_eq!(root.ceil() as usize, 23);
        let r_star = optimal_r(tm, ts, tr, 64);
        assert!((22..=23).contains(&r_star));
        let speedup = (tm + ts + tr) / predicted_optimal_time(tm, ts, tr);
        assert!(speedup > 9.0 && speedup < 12.0, "speedup {speedup}");
    }

    #[test]
    fn optimal_r_is_clamped_to_k() {
        // With shuffle ≫ map the unconstrained r* exceeds K; must clamp.
        assert_eq!(optimal_r(1.0, 1e6, 0.0, 16), 16);
        assert_eq!(optimal_r(1e6, 1.0, 0.0, 16), 1);
    }

    #[test]
    fn optimal_r_beats_neighbors() {
        let (tm, ts, tr) = (2.0, 100.0, 5.0);
        let k = 20;
        let r = optimal_r(tm, ts, tr, k);
        let t = predicted_total_time(r, tm, ts, tr);
        for cand in 1..=k {
            assert!(t <= predicted_total_time(cand, tm, ts, tr) + EPS);
        }
    }

    #[test]
    fn predicted_speedup_above_one_when_shuffle_dominates() {
        let s = predicted_speedup(3, 1.86, 945.72, 10.47);
        assert!(s > 2.5, "speedup {s}");
        // No gain when map dominates.
        let s = predicted_speedup(3, 100.0, 1.0, 1.0);
        assert!(s < 1.0);
    }
}
