//! # cts-netsim — the EC2 stand-in: calibrated performance modeling
//!
//! The paper's evaluation ran on Amazon EC2: K m3.large workers behind
//! 100 Mbps `tc`-shaped NICs, shuffling 12 GB. This crate replaces that
//! testbed with a deterministic model, fed by *real measured work*:
//! the engines in `cts-mapreduce` execute the actual algorithms on (scaled)
//! real data, record every transfer in a `cts-net` [`Trace`], and report
//! per-node work counts in [`stats::RunStats`]; this crate replays those
//! measurements under one global calibration
//! ([`config::PerfModelConfig::ec2_paper`], fitted once against Table I and
//! validated against all of Tables II–III) to produce the paper's stage
//! breakdowns.
//!
//! * [`config`] — the calibrated parameters and their provenance;
//! * [`stats`] — per-node work counts with linear size scaling;
//! * [`serial`] — the paper's serial unicast/multicast schedule (Fig. 9)
//!   plus the `MPI_Bcast` tree-cost ablation;
//! * [`fluid`] — a max-min-fair discrete-event simulator for the §VI
//!   *asynchronous execution* future-work extension;
//! * [`straggler`] — makespan brackets for one slow/dead sender under
//!   barrier-on-all vs MDS quorum decode;
//! * [`recovery`] — makespan brackets for a rank death: detection
//!   latency plus speculative re-execution vs the fail-fast path;
//! * [`model`] — run statistics + trace → [`breakdown::StageBreakdown`];
//! * [`breakdown`] — stage breakdowns and paper-style table rendering;
//! * [`timeline`] — ASCII Fig. 9 schedules.
//!
//! [`Trace`]: cts_net::trace::Trace

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod config;
pub mod fluid;
pub mod model;
pub mod recovery;
pub mod serial;
pub mod stats;
pub mod straggler;
pub mod timeline;

pub use breakdown::{render_table, StageBreakdown, TableRow};
pub use config::{ComputeModelConfig, NetModelConfig, PerfModelConfig};
pub use fluid::{fabric_queues, predict_fabric_shuffle_s, simulate_parallel, FluidOutcome};
pub use model::{PerfModel, SHUFFLE_STAGE};
pub use recovery::RecoveryModel;
pub use serial::{
    egress_floor_s, serial_fabric_makespan, serial_makespan, serial_schedule, transfers_by_sender,
    Schedule,
};
pub use stats::{NodeStats, RunStats};
pub use straggler::{Bracket, Slowdown, StragglerModel};
