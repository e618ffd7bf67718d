//! What the benchmark runs and what it reports: the four workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `../BENCHMARK.json` is generated from these tables
//! (`--emit-manifest`) and a unit test keeps the two equal.

use cts_core::decode::DecodeMode;
use cts_core::field::FieldKind;
use cts_mapreduce::stage::EngineConfig;
use cts_net::rate::NicProfile;
use cts_terasort::driver::SortJob;
use cts_terasort::record::RECORD_LEN;
use serde::json::Value;

/// Seconds one run measures for (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 24;

/// The TeraGen seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2017;

/// The three ways one sort job is executed; every workload runs all three,
/// interleaved, so drift hits them alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Conventional TeraSort, r = 1.
    Uncoded,
    /// CodedTeraSort at the workload's r over GF(2), decode on all
    /// packets — the paper's code.
    Coded,
    /// CodedTeraSort at the workload's r over GF(256), decode on a quorum
    /// (the MDS plane).
    Quorum,
}

impl Variant {
    /// All variants in the order a round runs them.
    pub const ALL: [Variant; 3] = [Variant::Uncoded, Variant::Coded, Variant::Quorum];

    /// The name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Uncoded => "uncoded",
            Variant::Coded => "coded",
            Variant::Quorum => "quorum",
        }
    }

    /// Position in [`Variant::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What connects the K workers of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// In-process fabric, unshaped: the network is free.
    Local,
    /// In-process fabric with every node behind the paper's 100 Mbps NIC.
    PaperNic,
}

/// How callers reach the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// One caller invoking `run_terasort` / `run_coded_terasort`.
    OneShot,
    /// Two closed-loop clients of resident `SortService` daemons over the
    /// TCP wire; with `fetch` they also download and compare the output.
    Service {
        /// Whether a job includes FETCH and a byte comparison.
        fetch: bool,
    },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in the manifest.
    pub name: &'static str,
    /// Why the workload exists (one line, ≤ 200 characters).
    pub why: &'static str,
    /// Records per job (100 bytes each).
    pub records: usize,
    /// Worker count K.
    pub k: usize,
    /// Redundancy r of the coded and quorum variants.
    pub r: usize,
    /// The fabric between workers.
    pub net: Net,
    /// The path the end-to-end metrics are measured on.
    pub path: Path,
    /// Quantile of a variant's job times its throughput is taken at. The
    /// median where a job mostly waits (token bucket, socket timers): the
    /// host's other tenants barely move it. The lower decile where a job is
    /// all CPU and page faults: there a busy host inflates the median by
    /// half and more (the driver saw one commit's medians land 40 % apart),
    /// while the fastest tenth of the calls still ran undisturbed.
    pub quantile: f64,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sort_inmem",
        why: "100 MB one-shot sorts, K=8, free network: map, encode/decode, reduce and allocation do all the work; coding loses here",
        records: 1_000_000,
        k: 8,
        r: 3,
        net: Net::Local,
        path: Path::OneShot,
        quantile: 0.10,
    },
    Workload {
        name: "sort_nic",
        why: "50 MB one-shot sorts, K=8, every node behind the paper's 100 Mbps NIC: shuffle dominates, only bytes on the wire and overlap can move it",
        records: 500_000,
        k: 8,
        r: 3,
        net: Net::PaperNic,
        path: Path::OneShot,
        quantile: 0.50,
    },
    Workload {
        name: "svc_small",
        why: "2 clients loop SUBMIT-DIGEST on 2000-record sorts against resident daemons (K=4): job compute is ~1% of latency, the service wire and waits are the rest",
        records: 2_000,
        k: 4,
        r: 2,
        net: Net::Local,
        path: Path::Service { fetch: false },
        quantile: 0.50,
    },
    Workload {
        name: "svc_bulk",
        why: "same daemons and clients, 10 MB jobs with FETCH and byte compare: frame copies, digest hashing and compute share the time, so small-frame tricks that cost bulk show",
        records: 100_000,
        k: 4,
        r: 2,
        net: Net::Local,
        path: Path::Service { fetch: true },
        quantile: 0.50,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload about ten times smaller, for `--quick` smokes.
    pub fn quick(&self) -> Workload {
        Workload {
            records: (self.records / 10).max(500),
            ..*self
        }
    }

    /// Input bytes of one job.
    pub fn input_bytes(&self) -> usize {
        self.records * RECORD_LEN
    }

    /// Input megabytes (10^6 bytes) of one job.
    pub fn input_mb(&self) -> f64 {
        self.input_bytes() as f64 / 1e6
    }

    /// Redundancy `variant` runs at.
    pub fn r_of(&self, variant: Variant) -> usize {
        match variant {
            Variant::Uncoded => 1,
            Variant::Coded | Variant::Quorum => self.r,
        }
    }

    /// The engine configuration of `variant`: library defaults plus the
    /// workload's fabric and the variant's code.
    pub fn engine(&self, variant: Variant) -> EngineConfig {
        let r = self.r_of(variant);
        let cfg = match self.net {
            Net::Local => EngineConfig::local(self.k, r),
            Net::PaperNic => EngineConfig::local(self.k, r).with_nic(NicProfile::paper_100mbps()),
        };
        match variant {
            Variant::Uncoded | Variant::Coded => cfg,
            Variant::Quorum => cfg
                .with_field(FieldKind::Gf256)
                .with_decode(DecodeMode::Quorum),
        }
    }

    /// The one-shot job of `variant`.
    pub fn sort_job(&self, variant: Variant) -> SortJob {
        SortJob {
            engine: self.engine(variant),
            ..SortJob::local(self.k, self.r_of(variant))
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, with its regression bound.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload on a plain run. One
/// bound serves all four workloads. The spreads seen here (quartile
/// distance over median, ten seeds, separate processes, with and without
/// two processes hogging the cores on and off) stay under a third of it.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "uncoded_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "coded_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "quorum_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer (no bound).
#[derive(Clone, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (crate) it measures.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Engine stages whose wall time `JobOutcome.wall` reports, as metric
/// suffixes.
pub const STAGES: [&str; 5] = [
    "map_s",
    "pack_encode_s",
    "shuffle_s",
    "unpack_decode_s",
    "reduce_s",
];

/// The per-layer metrics, reported by every workload on a traced run.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };

    // The whole run's job times, all variants pooled: what the host's other
    // tenants move most, hence no bound.
    add("jobs_per_s", "jobs/s", Higher);
    add("job_p50_ms", "ms", Lower);
    add("job_p95_ms", "ms", Lower);

    // cts-core: coding kernels over a cycled arena.
    add("core.xor_gb_per_s", "GB/s", Higher);
    add("core.gf256_gb_per_s", "GB/s", Higher);
    add("core.encode_gb_per_s", "GB/s", Higher);
    add("core.decode_gb_per_s", "GB/s", Higher);
    add("core.mds_solve_gb_per_s", "GB/s", Higher);
    add("core.packet_wire_gb_per_s", "GB/s", Higher);
    add("core.codegen_ms", "ms", Lower);

    // cts-terasort: kernels, then the service seen from its clients.
    add("terasort.map_hash_mb_per_s", "MB/s", Higher);
    add("terasort.sort_comparison_mrec_per_s", "Mrec/s", Higher);
    add("terasort.sort_keyindex_mrec_per_s", "Mrec/s", Higher);
    add("terasort.teragen_mb_per_s", "MB/s", Higher);
    add("terasort.validate_mb_per_s", "MB/s", Higher);
    add("terasort.digest_mb_per_s", "MB/s", Higher);
    add("service.submit_p50_ms", "ms", Lower);
    add("service.digest_p50_ms", "ms", Lower);
    add("service.fetch_p50_ms", "ms", Lower);
    add("service.fetch_mb_per_s", "MB/s", Higher);
    add("service.job_self_ms", "ms", Lower);
    add("service.job_p50_ms", "ms", Lower);
    add("service.wire_overhead_ms", "ms", Lower);
    add("service.ledger_residual_ms", "ms", Lower);
    add("service.refused", "count", Lower);
    add("service.boot_ms", "ms", Lower);
    add("service.shutdown_ms", "ms", Lower);
    add("service.idle_cpu_share", "ratio", Lower);

    // cts-mapreduce: stage walls of the workload's job, per variant.
    for v in Variant::ALL {
        let v = v.name();
        for stage in STAGES {
            add(&format!("mapreduce.{v}.{stage}"), "s", Lower);
        }
        add(&format!("mapreduce.{v}.outside_stages_s"), "s", Lower);
        add(&format!("mapreduce.{v}.shuffle_bytes"), "bytes", Lower);
        add(&format!("mapreduce.{v}.wire_sends"), "count", Lower);
        add(&format!("mapreduce.{v}.comm_load"), "ratio", Lower);
    }
    add("mapreduce.coded.codegen_s", "s", Lower);
    add("mapreduce.quorum.codegen_s", "s", Lower);
    add("mapreduce.coded.groups", "count", Lower);
    add("mapreduce.coded_speedup", "ratio", Higher);
    add("mapreduce.quorum_speedup", "ratio", Higher);
    add("mapreduce.first_round_s", "s", Lower);
    add("mapreduce.oneshot.job_p50_ms", "ms", Lower);
    add("mapreduce.runtime.job_p50_ms", "ms", Lower);
    add("mapreduce.runtime.overhead_ms", "ms", Lower);

    // cts-net: the substrate under the engines.
    add("net.local.rtt_us", "us", Lower);
    add("net.tcp.rtt_us", "us", Lower);
    add("net.barrier_us", "us", Lower);
    add("net.local.bulk_gb_per_s", "GB/s", Higher);
    add("net.local.multicast_gb_per_s", "GB/s", Higher);
    add("net.tcp.bulk_mb_per_s", "MB/s", Higher);
    add("net.local.fabric_build_ms", "ms", Lower);
    add("net.tcp.fabric_build_ms", "ms", Lower);
    add("net.nic.pacing_error", "ratio", Lower);

    // cts-netsim: predicted over measured shuffle time (model fidelity).
    for v in Variant::ALL {
        add(
            &format!("netsim.serial_over_measured.{}", v.name()),
            "ratio",
            Lower,
        );
        add(
            &format!("netsim.fluid_over_measured.{}", v.name()),
            "ratio",
            Lower,
        );
    }

    // The process, the machine and the harness itself.
    add("proc.user_s", "s", Lower);
    add("proc.sys_s", "s", Lower);
    add("proc.minor_faults", "count", Lower);
    add("proc.peak_rss_mb", "MB", Lower);
    add("machine.memcpy_gb_per_s", "GB/s", Higher);
    add("machine.nproc", "count", Higher);
    add("trace.overhead_share", "ratio", Lower);
    add("failed_share", "ratio", Lower);
    out
}

/// The manifest (`BENCHMARK.json`) these tables describe.
pub fn manifest() -> Value {
    let strs =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    Value::object([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::object([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.name().into())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", Value::Str(m.name.clone())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.name().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        }
        for m in &layers {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed.trim_end(), manifest().render());
    }

    #[test]
    fn quick_workloads_shrink_tenfold() {
        let w = Workload::by_name("sort_inmem").unwrap().quick();
        assert_eq!(w.records, 100_000);
        assert_eq!(Workload::by_name("svc_small").unwrap().quick().records, 500);
        assert!(Workload::by_name("nope").is_none());
    }
}
