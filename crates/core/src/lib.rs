//! # cts-core — the Coded TeraSort coded-shuffle core
//!
//! This crate implements the primary contribution of *Coded TeraSort*
//! (Li, Supittayapornpong, Maddah-Ali, Avestimehr, 2017): a coded data
//! shuffle for MapReduce-style computation that trades `r×` redundant Map
//! computation for an `r×` reduction in shuffle communication.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §IV-A structured redundant file placement, eq. (6) | [`placement`] |
//! | multicast groups `M` of size `r+1` | [`groups`] |
//! | segment splitting, eq. (7) | [`segment`] |
//! | §IV-C encoding, eq. (8), Algorithm 1 | [`encode`] |
//! | §IV-E decoding, eq. (10), Algorithm 2 | [`decode`] |
//! | coded packet `E_{M,k}` and wire format | [`packet`] |
//! | §II loads and execution-time theory, eqs. (2)–(5) | [`theory`] |
//! | combinatorial number system underpinning ids | [`combinatorics`] |
//!
//! The crate is transport-agnostic: encoders read a node's
//! [`intermediate::MapOutputStore`] and produce [`packet::CodedPacket`]s,
//! which decoders cancel against the same store; how packets move between
//! nodes is the business of `cts-net`, and how long that takes on a 100 Mbps
//! EC2 cluster is modeled by `cts-netsim`.
//!
//! ## Quick example
//!
//! A complete single-group exchange (the paper's Fig. 6/7 setting, K = 3,
//! r = 2, where each node recovers its missing intermediate from the two
//! coded packets of the other members):
//!
//! ```
//! use bytes::Bytes;
//! use cts_core::decode::DecodePipeline;
//! use cts_core::encode::Encoder;
//! use cts_core::intermediate::MapOutputStore;
//! use cts_core::placement::PlacementPlan;
//!
//! let (k, r) = (3, 2);
//! let plan = PlacementPlan::new(k, r).unwrap();
//!
//! // Map-stage output: node n keeps I^t_F per the §IV-B keep rule.
//! let mut stores: Vec<MapOutputStore> = (0..k).map(|_| MapOutputStore::new()).collect();
//! for node in 0..k {
//!     for file_id in plan.files_of_node(node) {
//!         let file = plan.nodes_of_file(file_id);
//!         for t in 0..k {
//!             if plan.keeps_intermediate(node, file, t) {
//!                 let data = vec![(t * 10 + file.bits() as usize) as u8; 6];
//!                 stores[node].insert(t, file, Bytes::from(data));
//!             }
//!         }
//!     }
//! }
//!
//! // Encode at every sender, "multicast", decode at every receiver.
//! let mut pipes: Vec<DecodePipeline> =
//!     (0..k).map(|n| DecodePipeline::new(k, r, n).unwrap()).collect();
//! let mut recovered = 0;
//! for sender in 0..k {
//!     let enc = Encoder::new(k, r, sender).unwrap();
//!     for pkt in enc.encode_all(&stores[sender]).unwrap() {
//!         for rx in pkt.group.iter().filter(|&n| n != sender) {
//!             if pipes[rx].accept(&pkt, &stores[rx]).unwrap().is_some() {
//!                 recovered += 1;
//!             }
//!         }
//!     }
//! }
//! // Every node recovers the one intermediate it was missing.
//! assert_eq!(recovered, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `deny`, not `forbid`: the crate has one audited `unsafe` surface,
// `exec::run_all`'s task lifetime erasure (a call that returns only once
// every task it handed to a parked thread is done); everything else stays
// safe.
#![deny(unsafe_code)]

pub mod combinatorics;
pub mod decode;
pub mod encode;
pub mod error;
pub mod exec;
pub mod field;
pub mod gf256;
pub mod groups;
pub mod intermediate;
pub mod metrics;
pub mod packet;
pub mod placement;
pub mod pool;
pub mod segment;
pub mod solve;
pub mod subset;
pub mod sync;
pub mod theory;
pub mod xor;

pub use decode::{DecodeMode, DecodePipeline, DecodedSegment, Decoder};
pub use encode::{EncodeScratch, Encoder};
pub use error::{CodedError, Result};
pub use groups::{GroupId, MulticastGroups};
pub use intermediate::MapOutputStore;
pub use metrics::{Counter, Gauge, Histogram, MetricsHub};
pub use packet::CodedPacket;
pub use placement::{FileId, PlacementPlan};
pub use pool::{BufPool, Scratch};
pub use subset::{NodeId, NodeSet};
