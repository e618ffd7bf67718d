//! Straggler makespan model: what a slow sender should cost each decode
//! discipline.
//!
//! The paper's engines barrier on *every* coded packet (§IV, stage 5), so
//! one slow sender holds the whole Shuffle stage hostage: the makespan
//! lower bound is the straggler's injected delay. It is paid once, however
//! many groups the victim sends in: every rank posts all of its multicasts
//! before it waits for any, so the victim's delayed packets travel side by
//! side rather than one after another. The MDS quorum decode (any `r−1` of
//! `r` packets release a group) removes the straggler from every group's
//! critical path, so the makespan should track the *healthy* run
//! regardless of how slow — or how dead — the victim is.
//!
//! [`StragglerModel`] turns that argument into testable brackets. It is
//! deliberately coarse: the quorum bound is a constant multiple of the
//! measured healthy makespan (wake-ups, scheduler jitter) plus an additive
//! slack, and the all-mode bracket is the injected delay from below and
//! the delay plus that same headroom from above.
//! `tests/failure_injection.rs` holds measured runs inside these brackets;
//! `crates/bench` records the sweep they bracket.

/// How much slower the victim's multicasts are than a healthy sender's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slowdown {
    /// Every multicast send is delayed by this many seconds (a `c×`
    /// slowdown shows up as a fixed per-send delay under the fault
    /// injector's [`straggler_delay_rule`]).
    ///
    /// [`straggler_delay_rule`]: ../../cts_net/fault/fn.straggler_delay_rule.html
    DelayS(f64),
    /// The victim's multicasts never arrive (`∞×`; the fault injector's
    /// blackhole rule). Only the quorum decode can finish.
    Blackhole,
}

impl Slowdown {
    /// The injected per-send delay in seconds (`∞` for a blackhole).
    pub fn delay_s(&self) -> f64 {
        match *self {
            Slowdown::DelayS(d) => d,
            Slowdown::Blackhole => f64::INFINITY,
        }
    }
}

/// An inclusive `[lo_s, hi_s]` makespan bracket in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bracket {
    /// Least admissible makespan.
    pub lo_s: f64,
    /// Greatest admissible makespan (`∞` = "no upper bound asserted").
    pub hi_s: f64,
}

impl Bracket {
    /// Whether a measured makespan falls inside the bracket.
    pub fn contains(&self, measured_s: f64) -> bool {
        self.lo_s <= measured_s && measured_s <= self.hi_s
    }
}

/// Predicts makespan brackets for a run with one straggling sender.
///
/// Calibrated from a *measured healthy run* of the same job (same input,
/// `K`, `r`, fabric), not from first principles — the model only claims
/// how the straggler *changes* the makespan, which is the part the decode
/// discipline controls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerModel {
    /// Measured makespan of the healthy (no-fault) run, seconds.
    pub healthy_s: f64,
    /// The victim's slowdown.
    pub slowdown: Slowdown,
    /// Multiplicative headroom on the healthy makespan for the quorum
    /// bound (polling sweeps, thread scheduling). Default 6×.
    pub tolerance: f64,
    /// Additive headroom in seconds (clock granularity, one polling
    /// idle-sweep). Default 0.5 s.
    pub slack_s: f64,
}

impl StragglerModel {
    /// A model with the default tolerances.
    pub fn new(healthy_s: f64, slowdown: Slowdown) -> Self {
        StragglerModel {
            healthy_s,
            slowdown,
            tolerance: 6.0,
            slack_s: 0.5,
        }
    }

    /// Bracket for the quorum decode: the straggler is off every group's
    /// critical path, so the bound is independent of the injected delay —
    /// `[0, tolerance · healthy + slack]` whether the victim is 2× slow
    /// or gone entirely.
    pub fn quorum_bracket(&self) -> Bracket {
        Bracket {
            lo_s: 0.0,
            hi_s: self.tolerance * self.healthy_s + self.slack_s,
        }
    }

    /// Bracket for the paper's barrier-on-all decode: every node waits
    /// for the victim's delayed multicasts, which all left together, so
    /// the makespan is at least the injected delay and at most the delay
    /// plus the quorum bracket's headroom. A blackhole never completes:
    /// the bracket is empty (`lo = hi = ∞`).
    pub fn all_bracket(&self) -> Bracket {
        Bracket {
            lo_s: self.slowdown.delay_s(),
            hi_s: self.slowdown.delay_s() + self.quorum_bracket().hi_s,
        }
    }

    /// The quorum-over-all makespan advantage this model guarantees:
    /// `all.lo / quorum.hi` — below 1 the model predicts no separation
    /// (delay too small to measure), above 1 the quorum run must beat
    /// the barrier run by at least this factor. `∞` for a blackhole.
    pub fn predicted_speedup(&self) -> f64 {
        self.slowdown.delay_s() / self.quorum_bracket().hi_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_bracket_ignores_the_delay() {
        let mild = StragglerModel::new(0.1, Slowdown::DelayS(0.2));
        let dead = StragglerModel::new(0.1, Slowdown::Blackhole);
        assert_eq!(mild.quorum_bracket(), dead.quorum_bracket());
        assert!(mild.quorum_bracket().hi_s < 2.0);
    }

    #[test]
    fn all_bracket_pays_the_delay_exactly_once() {
        let m = StragglerModel::new(0.1, Slowdown::DelayS(0.4));
        assert_eq!(m.all_bracket().lo_s, 0.4);
        assert!(m.all_bracket().contains(0.4));
        assert!(!m.all_bracket().contains(0.39));
        // 0.4 + (6 × 0.1 + 0.5): one delay and the healthy headroom, not
        // one delay per group the victim sends in.
        assert!(m.all_bracket().contains(1.5));
        assert!(!m.all_bracket().contains(1.6));
    }

    #[test]
    fn blackhole_all_bracket_is_empty() {
        let m = StragglerModel::new(0.1, Slowdown::Blackhole);
        let b = m.all_bracket();
        assert_eq!(b.lo_s, f64::INFINITY);
        assert!(!b.contains(1e9));
    }

    #[test]
    fn speedup_grows_with_the_delay() {
        let t0 = 0.05;
        let s2 = StragglerModel::new(t0, Slowdown::DelayS(2.0 * t0));
        let s10 = StragglerModel::new(t0, Slowdown::DelayS(10.0 * t0));
        assert!(s10.predicted_speedup() > s2.predicted_speedup());
        assert_eq!(
            StragglerModel::new(t0, Slowdown::Blackhole).predicted_speedup(),
            f64::INFINITY
        );
    }

    #[test]
    fn brackets_include_their_endpoints() {
        let b = StragglerModel::new(0.1, Slowdown::DelayS(0.2)).quorum_bracket();
        assert!(b.contains(b.lo_s));
        assert!(b.contains(b.hi_s));
        assert!(!b.contains(b.hi_s + 1e-9));
    }
}
