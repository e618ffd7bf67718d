//! # cts-mapreduce — the uncoded/coded MapReduce engine
//!
//! This crate runs real MapReduce jobs over the `cts-net` substrate. One
//! pipeline executes every scheme. The paper times its stages laid end to
//! end and closes them on barriers; here no stage closes on a
//! synchronization, and each node walks the
//! stages in one pass, so its CPU work runs while its NIC drains (paper §VI,
//! "asynchronous execution"):
//!
//! 1. **Placement** (untimed, the coordinator's job): the input splits
//!    into `C(K, r)` files, file `F_S` staged on every node of `S`.
//! 2. **CodeGen** (when there are groups): where the paper's
//!    `MPI_Comm_split` loops over all `C(K, r+1)` multicast groups, a node
//!    lists only its own `C(g − 1, r)` of its pod of `g` (`g = K` without
//!    pods), once and in group id order: a group communicator is a member
//!    list a node computes by itself (the EC2 cost is modeled).
//! 3. **Map**: each node hashes each of its files into `K` intermediates
//!    and keeps them per the §IV-B rule — file by file, in the order that
//!    completes a group soonest.
//! 4. **Pack/Encode**: Algorithm 1 — one coded packet per group
//!    membership, encoded the moment the last of the group's `r` files is
//!    mapped. Uncoded pieces are already the buffers Map produced.
//! 5. **Shuffle**: a node posts each packet as it is encoded, over the
//!    configured [`ShuffleFabric`](cts_net::fabric::ShuffleFabric), then
//!    whatever travels uncoded — a post queues behind the node's NIC and
//!    does not wait for it — and then receives whatever comes next until
//!    every packet is in or, in quorum mode, each group decodes. The stage
//!    ends when its NIC has drained too; no peer is waited for. The
//!    paper sends one node at a time (Fig. 9); behind a NIC that shapes
//!    egress this stage takes the busiest sender's egress time, and Map,
//!    Encode, Decode and Reduce hide in it.
//! 6. **Unpack/Decode**: Algorithm 2 cancels each received packet against
//!    local intermediates as it arrives.
//! 7. **Reduce**: everything a node reduces — kept, unicast and decoded
//!    pieces — goes to the partition's [`workload::Reducer`] the moment the
//!    node holds it, in whatever order that is; what the reducer can only do
//!    with every piece in hand runs when the last one lands, while the
//!    node's NIC may still be draining.
//!
//! There is one entry point, [`run`] ([`run_on`] for a fabric that already
//! exists), and the layout is a function of the [`EngineConfig`]:
//!
//! * `r = 1` — no groups: conventional TeraSort (paper §III), one file per
//!   node, every intermediate a unicast;
//! * `1 < r < g` — coded groups inside pods of `g` nodes: CodedTeraSort
//!   (paper §IV) when the one pod is all `K` (`pods` 0 or `K`);
//! * pieces that cross pods travel as unicasts (paper §VI, `pods = g < K`).
//!
//! The engine is generic over a byte-oriented [`workload::Workload`] —
//! TeraSort lives in `cts-terasort`; [`wordcount::WordCount`] here is the
//! one workload beyond sorting (Coded MapReduce's own example, the paper's
//! §VI direction), and the check that the engine is not a sort. A run returns a
//! [`JobOutcome`]: per-partition outputs, a transfer trace, the
//! stage spans with the wall times derived from them, and the
//! [`cts_netsim::RunStats`] the performance model consumes. A rank that
//! fails shuts the job's endpoints down and the run returns that rank's
//! error.
//!
//! ```
//! use bytes::Bytes;
//! use cts_mapreduce::stage::EngineConfig;
//! use cts_mapreduce::wordcount::WordCount;
//! use cts_mapreduce::run;
//!
//! let input = Bytes::from_static(b"to be or not to be\nthat is the question\n");
//! let uncoded = run(&WordCount, input.clone(), &EngineConfig::local(3, 1)).unwrap();
//! let coded = run(&WordCount, input, &EngineConfig::local(3, 2)).unwrap();
//! assert_eq!(uncoded.outputs, coded.outputs);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod engine;
pub mod error;
pub mod runtime;
pub mod stage;
pub mod timeline;
pub mod verify;
pub mod wordcount;
pub mod workload;

pub use engine::{run, run_on, JobOutcome, IN_TURN_BYTES, MESSAGE_BYTES};
pub use error::{EngineError, Result};
pub use runtime::{JobContext, JobHandle, JobRuntime, JobStatus, RuntimeConfig};
pub use stage::{EngineConfig, NodeWall, ReduceOverlap, WallTimes};
pub use timeline::{chrome_trace, stage_totals_ns};
pub use verify::{diff_outputs, run_sequential};
pub use workload::{InputFormat, PartitionShape, Reducer, Workload};

/// `uncoded::JobOutcome`: kept for `benchmark/`; goes with ROADMAP 1(a).
pub mod uncoded {
    pub use crate::JobOutcome;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! The fixture the engine's unit tests share.

    use bytes::Bytes;

    use crate::workload::{InputFormat, NodeSet, Workload};

    /// Trivial workload: records are single bytes, partition = value % K,
    /// reduce sorts.
    pub(crate) struct ByteSort;

    impl Workload for ByteSort {
        fn name(&self) -> &str {
            "bytesort"
        }
        fn format(&self) -> InputFormat {
            InputFormat::FixedWidth(1)
        }
        fn map_file(&self, file: &[u8], num_partitions: usize, _: NodeSet) -> Vec<Vec<u8>> {
            let mut out = vec![Vec::new(); num_partitions];
            for &b in file {
                out[b as usize % num_partitions].push(b);
            }
            out
        }
        fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
            let mut v = data.to_vec();
            v.sort_unstable();
            v
        }
    }

    /// `len` deterministic, well-spread bytes.
    pub(crate) fn sample_input(len: usize) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| ((i * 131 + 17) % 251) as u8)
                .collect::<Vec<u8>>(),
        )
    }
}
