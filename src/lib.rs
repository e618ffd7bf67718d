//! # coded-terasort — a full reproduction of *Coded TeraSort* (Li,
//! Supittayapornpong, Maddah-Ali, Avestimehr, 2017)
//!
//! CodedTeraSort attacks the dominant cost of distributed sorting — the
//! data shuffle — by *coding*: every input file is redundantly mapped on
//! `r` carefully chosen nodes, which lets nodes exchange XOR-coded
//! multicast packets that serve `r` receivers at once, cutting the shuffle
//! load by exactly `r×` (paper eq. (2)). On EC2 the paper measured
//! 1.97×–3.39× end-to-end speedups over conventional TeraSort; this
//! workspace reproduces the system and those results in Rust.
//!
//! ## Crates
//!
//! | crate | role |
//! |---|---|
//! | [`coding`] | the coding layer: placement, groups, Algorithm 1 (encode), Algorithm 2 (decode), CMR theory |
//! | [`net`] | MPI-like substrate: mailboxes, in-memory + TCP fabrics, collectives, tracing, rate limiting |
//! | [`netsim`] | the EC2 stand-in: calibrated performance model, serial schedule, parallel-shuffle simulator |
//! | [`mapreduce`] | the engine: one `run`, whose `EngineConfig` lays out the uncoded (§III), coded (§IV) and pod (§VI) schemes of one pipeline; resident job runtime; the WordCount workload |
//! | [`terasort`] | TeraGen, partitioners, sort kernels, TeraSort/CodedTeraSort drivers, TeraValidate |
//! | [`bench`](mod@bench) | the experiment harness regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use coded_terasort::prelude::*;
//!
//! // 2 000 records, 4 workers, redundancy r = 2.
//! let input = teragen::generate(2_000, 42);
//! let coded = run_coded_terasort(input.clone(), &SortJob::local(4, 2)).unwrap();
//! let plain = run_terasort(input, &SortJob::local(4, 1)).unwrap();
//!
//! coded.validate().unwrap(); // TeraValidate: sorted, ordered, lossless
//! assert_eq!(coded.outcome.outputs, plain.outcome.outputs);
//!
//! // The coded shuffle moved ~r× fewer bytes.
//! let gain = plain.outcome.stats.shuffle_bytes() as f64
//!     / coded.outcome.stats.shuffle_bytes() as f64;
//! assert!(gain > 1.4);
//! ```
//!
//! See `examples/` for runnable walkthroughs (the paper's Fig. 1 example,
//! an EC2-scale emulation, coded WordCount, a real-TCP cluster, and the
//! `r*` tuning rule) and `crates/bench/benches/` for the per-table/figure
//! reproduction harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use cts_bench as bench;
pub use cts_core as coding;
pub use cts_mapreduce as mapreduce;
pub use cts_net as net;
pub use cts_netsim as netsim;
pub use cts_terasort as terasort;

/// The most common imports in one place.
pub mod prelude {
    pub use cts_core::theory;
    pub use cts_core::{
        BufPool, CodedPacket, DecodeMode, Decoder, EncodeScratch, Encoder, MapOutputStore,
        MulticastGroups, NodeSet, PlacementPlan,
    };
    pub use cts_mapreduce::{
        run, run_sequential, EngineConfig, InputFormat, JobRuntime, JobStatus, RuntimeConfig,
        Workload,
    };
    pub use cts_net::{run_spmd, ClusterConfig, Communicator, NicProfile, ShuffleFabric, Tag};
    pub use cts_netsim::{render_table, PerfModel, PerfModelConfig, RunStats, StageBreakdown};
    pub use cts_terasort::teragen;
    pub use cts_terasort::{
        run_coded_terasort, run_terasort, JobKind, PartitionerKind, RemoteStatus, ServiceClient,
        SortJob, SortService, TeraSortWorkload,
    };
}
