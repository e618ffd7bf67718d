//! # cts-net — MPI-like message passing for Coded TeraSort
//!
//! The paper implements TeraSort and CodedTeraSort in C++ over Open MPI on
//! an EC2 cluster. There is no comparable Rust substrate, so this crate
//! builds one from scratch:
//!
//! * [`mailbox`] — blocking, `(source, tag)`-matched message queues with
//!   MPI receive semantics;
//! * [`local`] — an in-process fabric (threads + shared mailboxes) that
//!   moves real bytes at memory speed, with zero-copy native multicast;
//! * [`registry`] — the rank → address registry and deterministic mesh
//!   bring-up;
//! * [`tcp`] — a real-socket fabric (lazily connected TCP mesh over
//!   loopback, length-prefixed frames, blocking sockets: one acceptor per
//!   endpoint and one reader thread per used link; tested to a `K = 32`
//!   full mesh);
//! * [`fabric`] — the [`ShuffleFabric`] selector: serial-unicast vs fanout
//!   vs emulated multicast realizations of a group send (EC2 has no
//!   network-layer multicast, so one-to-many is always emulated);
//! * [`comm`] — the per-node [`Communicator`]:
//!   send/recv, barrier, the fabric-aware
//!   [`Communicator::multicast`] (the `MPI_Bcast` of the paper's Multicast
//!   Shuffling), and their non-blocking forms, `post` / `post_multicast` +
//!   `drain`;
//! * [`rate`] — the emulated NIC: a token-bucket egress queue that drains
//!   by itself (the paper's 100 Mbps `tc` cap), per-transfer latency,
//!   multicast `α`;
//! * [`trace`] — transfer tracing: every unicast and multicast with stage
//!   labels, byte counts, and per-fabric egress frame counts, consumed by
//!   `cts-netsim`'s calibrated network model;
//! * [`span`] — stage spans: wall-clock brackets per job and rank driven
//!   by the engines' `set_stage` annotations (`WallTimes`, `cts stats`,
//!   `--timeline`); a job writes both into a journal of its own and gets
//!   them back with its results;
//! * [`cluster`] — SPMD runners ([`run_spmd`]) spawning
//!   one thread per rank over either fabric, with panic- and abort-safe
//!   teardown, plus the resident [`SharedFabric`] that runs many
//!   concurrent job-scoped SPMD programs over one set of transports;
//! * [`fault`] — transport-level fault injection for failure testing,
//!   including crash-at-point specs ([`fault::CrashSpec`]);
//! * [`health`] — per-rank liveness (Alive/Suspect/Dead) driven by
//!   heartbeat deadlines with bounded exponential backoff, feeding
//!   [`registry::MembershipView`]s and typed
//!   [`NetError::PeerDead`] receive failures.
//!
//! ```
//! use bytes::Bytes;
//! use cts_net::cluster::{run_spmd, ClusterConfig};
//! use cts_net::message::Tag;
//!
//! // Three nodes; node 0 multicasts a packet to the whole group.
//! let run = run_spmd(&ClusterConfig::local(3), |comm| {
//!     comm.set_stage("Shuffle");
//!     let data = (comm.rank() == 0).then(|| Bytes::from_static(b"coded packet"));
//!     comm.multicast(0, &[0, 1, 2], Tag::new(Tag::BCAST, 0), data).unwrap()
//! })
//! .unwrap();
//! assert!(run.results.iter().all(|r| r == "coded packet"));
//! // The trace counted the multicast's bytes once.
//! assert_eq!(run.trace.stage_bytes("Shuffle"), 12);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod comm;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod health;
mod journal;
pub mod local;
pub mod mailbox;
pub mod message;
pub mod rate;
pub mod registry;
pub mod span;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use cluster::{
    run_spmd, run_spmd_with_inputs, ClusterConfig, ClusterRun, JobBinding, SharedFabric,
    TransportKind,
};
pub use comm::Communicator;
pub use error::{NetError, Result};
pub use fabric::ShuffleFabric;
pub use health::{HealthBoard, HealthConfig, Heartbeat, Liveness};
pub use message::{Key, Message, Tag};
pub use rate::{Nic, NicMeter, NicProfile};
pub use registry::{MembershipView, RankRegistry};
pub use span::{SpanLog, StageSpan};
pub use trace::{EventKind, Trace, TraceEvent};
pub use transport::Transport;
