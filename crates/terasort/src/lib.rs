//! # cts-terasort — TeraSort and CodedTeraSort
//!
//! The sorting application of the paper, built on the generic engine of
//! `cts-mapreduce`:
//!
//! * [`record`] — the 100-byte TeraGen record (10-byte key + 90-byte
//!   value, integer key ordering) and the TeraValidate checksum;
//! * [`teragen`] — deterministic input generation, uniform and skewed;
//! * [`partition`] — ordered key-domain partitioning (§III-A2): exact
//!   range splitting plus a sampling-based partitioner for skew;
//! * [`sort`] — Reduce kernels: `std::sort` equivalent and an LSD radix
//!   sort ablation;
//! * [`workload`] — TeraSort as a `cts-mapreduce` workload;
//! * [`driver`] — one-call runs: a [`SortJob`] is a kernel, a partitioner
//!   and the engine's own configuration (`K`, `r`, pods, fabric, …);
//!   TeraSort (§III) is the job at `r = 1`, CodedTeraSort (§IV) above it;
//! * [`service`] — the `cts serve` daemon: a multi-tenant sort service
//!   over a resident `cts_mapreduce::JobRuntime`, plus the wire client;
//! * [`validate`](mod@validate) — TeraValidate (order, boundaries, conservation).
//!
//! ```
//! use cts_terasort::driver::{run_coded_terasort, run_terasort, SortJob};
//! use cts_terasort::teragen;
//!
//! let input = teragen::generate(1_000, 42);
//! let plain = run_terasort(input.clone(), &SortJob::local(4, 1)).unwrap();
//! let coded = run_coded_terasort(input, &SortJob::local(4, 2)).unwrap();
//! plain.validate().unwrap();
//! coded.validate().unwrap();
//! assert_eq!(plain.outcome.outputs, coded.outcome.outputs);
//! // Coding cut the shuffled bytes roughly in half (r = 2).
//! assert!(coded.outcome.stats.shuffle_bytes() < plain.outcome.stats.shuffle_bytes());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod partition;
pub mod record;
pub mod service;
pub mod sort;
pub mod teragen;
pub mod validate;
pub mod workload;

pub use driver::{run_coded_terasort, run_terasort, PartitionerKind, SortJob, SortRun};
pub use partition::{RangePartitioner, SampledPartitioner};
pub use record::{KEY_LEN, RECORD_LEN, VALUE_LEN};
pub use service::{JobKind, RemoteStatus, ResultDigest, ServiceClient, SortService};
pub use sort::SortKernel;
pub use validate::{validate, ValidationError};
pub use workload::TeraSortWorkload;
