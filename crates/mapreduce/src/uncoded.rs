//! Conventional TeraSort-style execution (paper §III): the engine at
//! `r = 1` — file `k` on node `k`, no multicast groups, and every
//! intermediate `I^j_{k}` a plain unicast to node `j` (one flow per
//! intermediate — paper §V-A), posted as soon as it is mapped: every rank
//! sends at once, not in the turns of Fig. 9(a).

use bytes::Bytes;
use cts_net::cluster::{JobBinding, SharedFabric};

pub use crate::engine::JobOutcome;
use crate::engine::{self, Layout};
use crate::error::Result;
use crate::stage::EngineConfig;
use crate::workload::Workload;

/// Runs `workload` over `input` with conventional uncoded execution
/// (`cfg.r` is ignored).
///
/// Builds an ephemeral [`SharedFabric`] and submits the job at
/// [`JobBinding::ROOT`] — the one-shot path and the resident runtime's
/// per-job path are the same code.
///
/// # Errors
/// `BadConfig` for an invalid `K`; a rank's failure (transport, protocol)
/// fails the job with that rank's error. Panics in worker closures
/// propagate as panics (after fabric teardown).
pub fn run_uncoded<W: Workload>(
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    engine::run(workload, input, cfg, Layout::flat(cfg.k, 1)?)
}

/// Runs `workload` as one job on an existing [`SharedFabric`], isolated
/// under `binding` (tags, trace events, and the returned trace are scoped
/// to it). The job's emulated NIC comes from `cfg.cluster.nic`, so a
/// throttled tenant paces only its own sends.
///
/// # Errors
/// `BadConfig` if `cfg.k` does not match the fabric's world size;
/// otherwise as [`run_uncoded`].
pub fn run_uncoded_on<W: Workload>(
    fabric: &SharedFabric,
    binding: JobBinding,
    workload: &W,
    input: Bytes,
    cfg: &EngineConfig,
) -> Result<JobOutcome> {
    let layout = Layout::flat(cfg.k, 1)?;
    engine::run_on(fabric, binding, workload, input, cfg, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::stage::stages;
    use crate::testutil::{sample_input, ByteSort};
    use crate::verify::run_sequential;

    #[test]
    fn matches_sequential_reference() {
        let input = sample_input(1000);
        let cfg = EngineConfig::local(4, 1);
        let outcome = run_uncoded(&ByteSort, input.clone(), &cfg).unwrap();
        let reference = run_sequential(&ByteSort, &input, 4);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn every_input_byte_lands_somewhere() {
        let input = sample_input(777);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(3, 1)).unwrap();
        let total: usize = outcome.outputs.iter().map(|o| o.len()).sum();
        assert_eq!(total, input.len());
    }

    #[test]
    fn stats_account_for_shuffle_bytes() {
        let input = sample_input(1200);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(4, 1)).unwrap();
        // Sent == received globally.
        assert_eq!(
            outcome.stats.total(|n| n.sent_bytes),
            outcome.stats.total(|n| n.recv_bytes)
        );
        // Trace shuffle bytes match node-side accounting.
        assert_eq!(
            outcome.trace.stage_bytes(stages::SHUFFLE),
            outcome.stats.shuffle_bytes()
        );
        // Communication load ≈ 1 - 1/K (uniform bytes).
        let load = outcome.stats.comm_load(input.len() as u64);
        assert!((load - 0.75).abs() < 0.05, "load {load}");
    }

    #[test]
    fn single_node_shuffles_nothing() {
        let input = sample_input(500);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::local(1, 1)).unwrap();
        assert_eq!(outcome.stats.shuffle_bytes(), 0);
        let mut expect = input.to_vec();
        expect.sort_unstable();
        assert_eq!(outcome.outputs[0], expect);
    }

    #[test]
    fn works_over_tcp() {
        let input = sample_input(600);
        let outcome = run_uncoded(&ByteSort, input.clone(), &EngineConfig::tcp(3, 1)).unwrap();
        let reference = run_sequential(&ByteSort, &input, 3);
        assert_eq!(outcome.outputs, reference);
    }

    #[test]
    fn rejects_bad_k() {
        let err = run_uncoded(&ByteSort, Bytes::new(), &EngineConfig::local(0, 1)).unwrap_err();
        assert!(matches!(err, EngineError::BadConfig { .. }));
    }
}
