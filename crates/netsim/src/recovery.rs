//! Recovery makespan model: what a rank death should cost the job.
//!
//! With the MDS quorum decode, a single fail-stop death never blocks the
//! shuffle — every group the dead rank belonged to still fields its
//! `r − 1`-sender quorum — so the *only* recovery costs are (1) the
//! detection latency (the health layer's probed death deadline: silence
//! must outlast the suspect window plus every exponentially backed-off
//! probe window before a peer is declared dead) and (2) the speculative
//! re-execution of the dead rank's reduce partition on its successor
//! (bounded by one rank's share of Map plus one partition's worth of
//! unicast forwarding — a small multiple of the healthy makespan).
//!
//! [`RecoveryModel`] turns that into testable brackets, in the same
//! calibrated-from-a-healthy-run style as
//! [`StragglerModel`](crate::straggler::StragglerModel):
//! `tests/failure_injection.rs` holds measured crash-recovery runs inside
//! them, and `crates/bench`'s `ablation_recovery` records the sweep they
//! bracket.

use serde::{Deserialize, Serialize};

use crate::straggler::Bracket;

/// Predicts makespan brackets for a run in which one rank dies fail-stop
/// and the survivors finish the job.
///
/// Calibrated from a *measured healthy run* of the same job (same input,
/// `K`, `r`, fabric) plus the health layer's configured death deadline —
/// the model claims only how the death *changes* the makespan, which is
/// the part detection and re-execution control.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryModel {
    /// Measured makespan of the healthy (no-fault) run, seconds.
    pub healthy_s: f64,
    /// The health layer's death deadline (suspect window plus all probe
    /// windows — [`HealthConfig::death_deadline`]), seconds. Survivors
    /// cannot agree the victim is dead any sooner, so it lower-bounds the
    /// added latency of any sync the death straddles.
    ///
    /// [`HealthConfig::death_deadline`]:
    ///     ../../cts_net/health/struct.HealthConfig.html#method.death_deadline
    pub detect_s: f64,
    /// Multiplicative headroom on the healthy makespan (re-executed Map
    /// work, adoption forwarding, polling sweeps, scheduler jitter).
    /// Default 6×, matching the straggler model.
    pub tolerance: f64,
    /// Additive headroom in seconds (clock granularity, one polling
    /// idle-sweep). Default 0.5 s.
    pub slack_s: f64,
}

impl RecoveryModel {
    /// A model with the default tolerances.
    pub fn new(healthy_s: f64, detect_s: f64) -> Self {
        RecoveryModel {
            healthy_s,
            detect_s,
            tolerance: 6.0,
            slack_s: 0.5,
        }
    }

    /// Bracket for a speculative-recovery run: the job must finish, and
    /// must do so within the healthy makespan's headroom plus one
    /// detection deadline — death costs *detection plus the missing
    /// work*, never a restart. The lower bound is left at zero: a death
    /// late in the job (e.g. pre-reduce) can overlap detection with work
    /// the survivors were doing anyway.
    pub fn speculative_bracket(&self) -> Bracket {
        Bracket {
            lo_s: 0.0,
            hi_s: self.tolerance * self.healthy_s + self.detect_s + self.slack_s,
        }
    }

    /// Bracket for a recovery-off run: the crash panics the job down the
    /// fail-fast teardown path, which involves no deadline waits at all —
    /// the typed error must surface within the healthy makespan's
    /// headroom, with no detection term.
    pub fn failfast_bracket(&self) -> Bracket {
        Bracket {
            lo_s: 0.0,
            hi_s: self.tolerance * self.healthy_s + self.slack_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_bracket_adds_exactly_one_detection_deadline() {
        let m = RecoveryModel::new(0.2, 0.18);
        assert_eq!(
            m.speculative_bracket().hi_s,
            m.failfast_bracket().hi_s + 0.18
        );
        assert!(m.speculative_bracket().contains(0.2 + 0.18));
        assert!(m.failfast_bracket().contains(0.1));
    }

    #[test]
    fn overhead_scales_with_detection_latency() {
        let fast = RecoveryModel::new(0.2, 0.05);
        let slow = RecoveryModel::new(0.2, 0.9);
        let delta = slow.speculative_bracket().hi_s - fast.speculative_bracket().hi_s;
        assert!((delta - (0.9 - 0.05)).abs() < 1e-12, "delta {delta}");
    }

    #[test]
    fn brackets_include_their_endpoints() {
        let b = RecoveryModel::new(0.1, 0.2).speculative_bracket();
        assert!(b.contains(b.lo_s));
        assert!(b.contains(b.hi_s));
        assert!(!b.contains(b.hi_s + 1e-9));
    }
}
