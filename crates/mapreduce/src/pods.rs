//! Pod-partitioned coded execution — a working implementation of the
//! paper's §VI *scalable coding* direction, as one more engine layout.
//!
//! The `K` nodes split into `K/g` disjoint pods of `g` nodes. Each pod
//! owns `1/(K/g)` of the input, placed redundantly *within the pod* as
//! `C(g, r)` files on `r`-subsets of pod members. Shuffling then has two
//! parts:
//!
//! 1. **in-pod coded multicast** — the standard CodedTeraSort exchange,
//!    run independently per pod over pod-local multicast groups (total
//!    groups: `(K/g)·C(g, r+1)` instead of `C(K, r+1)`);
//! 2. **cross-pod uncoded unicast** — intermediate values destined to
//!    nodes outside the pod carry no exploitable side information, so the
//!    file's lowest-ranked holder unicasts them directly.
//!
//! Communication load: `(g/K)(1/r)(1−r/g) + (1−g/K)`
//! ([`cts_core::theory::pod_comm_load`]); CodeGen shrinks by up to
//! `C(K, r+1) / ((K/g)·C(g, r+1))` — the tradeoff the
//! `ablation_scalable_coding` bench quantifies.

use bytes::Bytes;
use cts_net::cluster::{JobBinding, SharedFabric};

use crate::engine::{self, JobOutcome, Layout};
use crate::error::Result;
use crate::stage::EngineConfig;
use crate::workload::Workload;

/// Runs `workload` with pod-partitioned coding: pods of `pod_size` nodes,
/// redundancy `cfg.r` within each pod.
///
/// # Errors
/// `BadConfig` unless `pod_size` divides `cfg.k` and `cfg.r < pod_size`,
/// or if `cfg.recovery` is on (the adoption planner is flat-only);
/// otherwise as [`run_coded`](crate::coded::run_coded).
pub fn run_coded_pods<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    pod_size: usize,
) -> Result<JobOutcome> {
    engine::run(workload, input, cfg, Layout::pods(cfg.k, pod_size, cfg.r)?)
}

/// Runs [`run_coded_pods`] as one job on an existing [`SharedFabric`],
/// isolated under `binding` (same restrictions as
/// [`run_coded_on`](crate::coded::run_coded_on)).
pub fn run_coded_pods_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
    pod_size: usize,
) -> Result<JobOutcome> {
    let layout = Layout::pods(cfg.k, pod_size, cfg.r)?;
    engine::run_on(fabric, binding, workload, input, cfg, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_input, ByteSort};
    use crate::uncoded::run_uncoded;
    use cts_core::decode::DecodeMode;

    #[test]
    fn pods_match_uncoded_output() {
        let input = sample_input(4_000);
        for (k, r, g) in [
            (4usize, 1usize, 2usize),
            (6, 2, 3),
            (8, 1, 4),
            (8, 3, 4),
            (9, 2, 3),
        ] {
            let pods =
                run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(k, r), g).unwrap();
            let unc = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(k, 1)).unwrap();
            assert_eq!(pods.outputs, unc.outputs, "k={k} r={r} g={g}");
        }
    }

    #[test]
    fn pods_decode_in_quorum_mode_too() {
        let input = sample_input(4_000);
        let cfg = EngineConfig::local(8, 3)
            .with_field(cts_core::field::FieldKind::Gf256)
            .with_decode(DecodeMode::Quorum);
        let pods = run_coded_pods(&ByteSort, input.clone(), &cfg, 4).unwrap();
        let unc = run_uncoded(&ByteSort, input, &EngineConfig::local(8, 1)).unwrap();
        assert_eq!(pods.outputs, unc.outputs);
    }

    #[test]
    fn single_pod_equals_flat_coded() {
        // g = K degenerates... g must exceed r, and with one pod the
        // cross-pod phase is empty: identical to flat coded output.
        let input = sample_input(2_000);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(5, 2), 5).unwrap();
        let flat = crate::coded::run_coded(&ByteSort, input, &EngineConfig::local(5, 2)).unwrap();
        assert_eq!(pods.outputs, flat.outputs);
        assert_eq!(pods.stats.num_groups, flat.stats.num_groups);
    }

    #[test]
    fn group_count_shrinks() {
        let input = sample_input(3_000);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(8, 2), 4).unwrap();
        // 2 pods × C(4,3) = 8 groups, vs flat C(8,3) = 56.
        assert_eq!(pods.stats.num_groups, 8);
        let flat = crate::coded::run_coded(&ByteSort, input, &EngineConfig::local(8, 2)).unwrap();
        assert_eq!(flat.stats.num_groups, 56);
    }

    #[test]
    fn comm_load_matches_pod_theory() {
        let input = sample_input(120_000);
        let (k, r, g) = (8usize, 2usize, 4usize);
        let pods = run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(k, r), g).unwrap();
        let load = pods.stats.comm_load(input.len() as u64);
        let expected = cts_core::theory::pod_comm_load(r, k, g);
        assert!(
            (load - expected).abs() / expected < 0.15,
            "measured {load} vs theory {expected}"
        );
    }

    #[test]
    fn rejects_bad_pod_parameters() {
        let input = sample_input(100);
        assert!(run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(6, 2), 4).is_err());
        assert!(run_coded_pods(&ByteSort, input.clone(), &EngineConfig::local(6, 3), 3).is_err());
        assert!(run_coded_pods(&ByteSort, input, &EngineConfig::local(6, 0), 3).is_err());
    }
}
