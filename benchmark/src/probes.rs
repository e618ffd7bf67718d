//! Isolated layer probes: each times calls into one layer's public
//! functions, away from the engines, so a per-layer number can be set
//! against the end-to-end metric it should move.
//!
//! Rate probes cycle through a 64 MiB arena in 64 KiB segments (the
//! engine's segment size) so they run out of memory, not out of the 4 MiB
//! L2; `machine.memcpy_gb_per_s`, measured the same way in the same run,
//! is their floor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::decode::Decoder;
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::exec::WorkerPool;
use cts_core::field::FieldKind;
use cts_core::gf256::add_scaled_slice;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_core::solve::{mds_row, GroupSolver};
use cts_core::subset::NodeSet;
use cts_core::xor::xor_into;
use cts_mapreduce::workload::Workload as _;
use cts_net::cluster::{run_spmd, ClusterConfig, SharedFabric};
use cts_net::message::Tag;
use cts_net::rate::NicProfile;
use cts_terasort::record::RECORD_LEN;
use cts_terasort::service::ResultDigest;
use cts_terasort::sort::{sort_records_with, SortKernel, SortScratch};
use cts_terasort::workload::TeraSortWorkload;
use cts_terasort::{teragen, validate};

use crate::report::Metrics;
use crate::stats::median;

const ARENA: usize = 64 << 20;
const SEG: usize = 64 << 10;
/// Coding probes run at the sort workloads' shape.
const K: usize = 8;
const R: usize = 3;
/// Independent copies of the encode/decode working set cycled through.
const SETS: usize = 8;
/// Records of the terasort-kernel probes: one node's file of a 1 M-record,
/// K = 8 sort (12.5 MB).
const PROBE_RECORDS: usize = 125_000;
const MIB: usize = 1 << 20;

/// Calls `f` until `slice` has elapsed (at least once); `f` returns the
/// units of work it did. Returns units per second.
fn rate(slice: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let started = Instant::now();
    let mut work = 0usize;
    loop {
        work += f();
        let elapsed = started.elapsed();
        if elapsed >= slice {
            return work as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Calls `f` until `slice` has elapsed (at least three times) and returns
/// the median duration of one call in seconds.
fn median_call_s(slice: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < slice {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// A buffer of pseudo-random bytes (xorshift64; the seed is fixed because
/// `--seed` drives TeraGen only).
fn arena() -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut buf = vec![0u8; ARENA];
    for word in buf.chunks_exact_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        word.copy_from_slice(&x.to_le_bytes());
    }
    buf
}

/// Runs `op(dst, src)` over segment pairs cycling through the whole arena;
/// returns GB/s of `src` bytes consumed.
fn segment_rate(arena: &mut [u8], slice: Duration, op: impl Fn(&mut [u8], &[u8])) -> f64 {
    let (src_half, dst_half) = arena.split_at_mut(ARENA / 2);
    let pairs = ARENA / 2 / SEG;
    let mut i = 0usize;
    rate(slice, || {
        let at = (i % pairs) * SEG;
        i += 1;
        op(&mut dst_half[at..at + SEG], &src_half[at..at + SEG]);
        SEG
    }) / 1e9
}

/// `I^t_F` of working-set copy `set`: a 3-segment slice of the arena. The
/// same `(set, t, F)` always names the same bytes, so every node's store
/// agrees and decoding recovers what encoding folded in.
fn intermediate(arena: &Bytes, set: usize, t: usize, file: NodeSet) -> Bytes {
    let len = R * SEG;
    let slots = ARENA / len;
    let slot = (file.bits() as usize * K + t + set * 2_048) * 7_919 % slots;
    arena.slice(slot * len..(slot + 1) * len)
}

/// `node`'s Map output under the keep rule, for working-set copy `set`.
fn store_of(arena: &Bytes, plan: &PlacementPlan, node: usize, set: usize) -> MapOutputStore {
    let mut store = MapOutputStore::new();
    for fid in plan.files_of_node(node) {
        let file = plan.nodes_of_file(fid);
        for t in (0..K).filter(|&t| plan.keeps_intermediate(node, file, t)) {
            store.insert(t, file, intermediate(arena, set, t, file));
        }
    }
    store
}

fn core_probes(m: &mut Metrics, slice: Duration) -> Result<(), String> {
    let mut buf = arena();
    m.set(
        "machine.memcpy_gb_per_s",
        segment_rate(&mut buf, slice, |dst, src| dst.copy_from_slice(src)),
    );
    m.set("core.xor_gb_per_s", segment_rate(&mut buf, slice, xor_into));
    m.set(
        "core.gf256_gb_per_s",
        segment_rate(&mut buf, slice, |dst, src| add_scaled_slice(dst, src, 0x8E)),
    );

    // MDS solve at s = 2: two equations in, two parts out.
    let rows = [
        mds_row(FieldKind::Gf256, 0, 2, 2),
        mds_row(FieldKind::Gf256, 1, 2, 2),
    ];
    let segments = ARENA / SEG;
    let mut i = 0usize;
    let mut failed = false;
    let solve_rate = rate(slice, || {
        let mut solver = GroupSolver::new(2, SEG);
        for row in &rows {
            let at = (i % segments) * SEG;
            i += 1;
            failed |= solver.add_equation(row, &buf[at..at + SEG]).is_err();
        }
        failed |= solver.solve().map(black_box).is_err();
        2 * SEG
    });
    if failed {
        return Err("mds solve probe: singular system".into());
    }
    m.set("core.mds_solve_gb_per_s", solve_rate / 1e9);

    // Encode node 0's 35 groups, decode them at node 1, move them over the
    // wire format.
    let arena = Bytes::from(buf);
    let err = |e: cts_core::CodedError| format!("coding probe: {e}");
    let plan = PlacementPlan::new(K, R).map_err(err)?;
    let encoder = Encoder::new(K, R, 0).map_err(err)?;
    let decoder = Decoder::new(K, R, 1).map_err(err)?;
    let groups: Vec<NodeSet> = encoder.groups().groups_of_node(0).map(|(_, g)| g).collect();
    let sender_stores: Vec<MapOutputStore> =
        (0..SETS).map(|s| store_of(&arena, &plan, 0, s)).collect();
    let receiver_stores: Vec<MapOutputStore> =
        (0..SETS).map(|s| store_of(&arena, &plan, 1, s)).collect();

    let mut scratch = EncodeScratch::new();
    let mut failed = false;
    let mut set = 0usize;
    let encode_rate = rate(slice, || {
        let store = &sender_stores[set % SETS];
        set += 1;
        let mut folded = 0usize;
        for g in &groups {
            failed |= encoder.encode_group_into(*g, store, &mut scratch).is_err();
            folded += scratch.seg_len_sum() as usize;
        }
        black_box(scratch.payload.len());
        folded
    });
    if failed {
        return Err("encode probe: missing intermediate".into());
    }
    m.set("core.encode_gb_per_s", encode_rate / 1e9);

    let mut packets: Vec<Vec<CodedPacket>> = Vec::with_capacity(SETS);
    for store in &sender_stores {
        let for_node_1 = groups.iter().filter(|g| g.contains(1));
        packets.push(
            for_node_1
                .map(|g| encoder.encode_group(*g, store))
                .collect::<Result<_, _>>()
                .map_err(err)?,
        );
    }
    // Once, check that decoding recovers exactly the segment encoded.
    let first = &packets[0][0];
    let seg = decoder
        .decode_packet(first, &receiver_stores[0])
        .map_err(err)?;
    let whole = intermediate(&arena, 0, 1, seg.file);
    if seg.data[..] != whole[seg.position * SEG..(seg.position + 1) * SEG] {
        return Err("decode probe: recovered segment differs from the encoded one".into());
    }
    let mut acc = Vec::new();
    let mut set = 0usize;
    let decode_rate = rate(slice, || {
        let s = set % SETS;
        set += 1;
        let mut work = 0usize;
        for p in &packets[s] {
            failed |= decoder
                .decode_packet_into(p, &receiver_stores[s], &mut acc)
                .is_err();
            work += p.payload.len() * R;
        }
        black_box(acc.len());
        work
    });
    if failed {
        return Err("decode probe: packet rejected".into());
    }
    m.set("core.decode_gb_per_s", decode_rate / 1e9);

    let frames: Vec<Bytes> = packets
        .iter()
        .flatten()
        .map(|p| Bytes::from(p.to_bytes()))
        .collect();
    let all: Vec<&CodedPacket> = packets.iter().flatten().collect();
    let mut out = Vec::new();
    let mut shell = CodedPacket::empty();
    let mut i = 0usize;
    let wire_rate = rate(slice, || {
        let n = i % all.len();
        i += 1;
        out.clear();
        all[n].write_into(&mut out);
        failed |= shell.read_wire(&frames[n]).is_err();
        black_box(shell.payload.len());
        out.len()
    });
    if failed {
        return Err("packet wire probe: frame rejected".into());
    }
    m.set("core.packet_wire_gb_per_s", wire_rate / 1e9);

    // CodeGen as the coded engine does it, at the paper's largest shape
    // (K = 16, r = 5: 8 008 groups).
    let codegen_s = median_call_s(slice, || {
        let plan = PlacementPlan::new(16, 5).expect("valid shape");
        let groups = MulticastGroups::new(16, 5).expect("valid shape");
        let schedule: Vec<(u64, NodeSet, Vec<usize>)> = groups
            .iter_groups()
            .map(|(gid, g)| (gid.0, g, g.to_vec()))
            .collect();
        black_box((plan, schedule));
    });
    m.set("core.codegen_ms", codegen_s * 1e3);
    Ok(())
}

fn terasort_probes(m: &mut Metrics, seed: u64, slice: Duration) -> Result<(), String> {
    let mb = (PROBE_RECORDS * RECORD_LEN) as f64 / 1e6;
    m.set(
        "terasort.teragen_mb_per_s",
        mb / median_call_s(slice, || {
            black_box(teragen::generate(PROBE_RECORDS, seed));
        }),
    );
    let input = teragen::generate(PROBE_RECORDS, seed);
    let workload = TeraSortWorkload::range(K);
    let pool = WorkerPool::serial();
    m.set(
        "terasort.map_hash_mb_per_s",
        mb / median_call_s(slice, || {
            black_box(workload.map_file_par(&input, K, &pool));
        }),
    );
    let mut scratch = SortScratch::new();
    for (name, kernel) in [
        (
            "terasort.sort_comparison_mrec_per_s",
            SortKernel::Comparison,
        ),
        ("terasort.sort_keyindex_mrec_per_s", SortKernel::KeyIndex),
    ] {
        let call_s = median_call_s(slice, || {
            black_box(sort_records_with(&input, kernel, &mut scratch));
        });
        m.set(name, PROBE_RECORDS as f64 / 1e6 / call_s);
    }
    let outputs: Vec<Vec<u8>> = workload
        .map_file_par(&input, K, &pool)
        .iter()
        .map(|part| sort_records_with(part, SortKernel::KeyIndex, &mut scratch))
        .collect();
    let mut valid = true;
    let validate_s = median_call_s(slice, || valid &= validate(&input, &outputs).is_ok());
    if !valid {
        return Err("validate probe: sorted partitions rejected".into());
    }
    m.set("terasort.validate_mb_per_s", mb / validate_s);
    m.set(
        "terasort.digest_mb_per_s",
        mb / median_call_s(slice, || {
            black_box(ResultDigest::of(&outputs));
        }),
    );
    Ok(())
}

/// Median round trip of a 64-byte message between ranks 0 and 1, in µs.
fn rtt_us(cfg: &ClusterConfig, slice: Duration) -> Result<f64, String> {
    let (ping, pong) = (Tag::app(1), Tag::app(2));
    let run = run_spmd(cfg, |comm| -> cts_net::Result<Option<f64>> {
        if comm.rank() == 0 {
            let ball = Bytes::from(vec![7u8; 64]);
            let rtt_s = || -> cts_net::Result<f64> {
                let t0 = Instant::now();
                comm.send(1, ping, ball.clone())?;
                comm.recv(1, pong)?;
                Ok(t0.elapsed().as_secs_f64())
            };
            for _ in 0..20 {
                rtt_s()?;
            }
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < 20 || started.elapsed() < slice {
                samples.push(rtt_s()?);
            }
            // An empty message tells the echo side to stop.
            comm.send(1, ping, Bytes::new())?;
            Ok(Some(median(&samples) * 1e6))
        } else {
            loop {
                let ball = comm.recv(0, ping)?;
                if ball.is_empty() {
                    return Ok(None);
                }
                comm.send(0, pong, ball)?;
            }
        }
    })
    .map_err(|e| e.to_string())?;
    rank0_value(run.results)
}

/// What rank 0 measured, out of the per-rank results of an SPMD probe.
fn rank0_value(results: Vec<cts_net::Result<Option<f64>>>) -> Result<f64, String> {
    let mut value = None;
    for r in results {
        value = value.or(r.map_err(|e| e.to_string())?);
    }
    value.ok_or_else(|| "probe returned no measurement".to_string())
}

/// Rank 0 streams `count` messages of 1 MiB to rank 1 and waits for its
/// acknowledgement; returns bytes per second.
fn bulk_bytes_per_s(cfg: &ClusterConfig, count: usize) -> Result<f64, String> {
    let (data, ack) = (Tag::app(1), Tag::app(2));
    let run = run_spmd(cfg, |comm| -> cts_net::Result<Option<f64>> {
        if comm.rank() == 0 {
            let block = Bytes::from(vec![5u8; MIB]);
            let t0 = Instant::now();
            for _ in 0..count {
                comm.send(1, data, block.clone())?;
            }
            comm.recv(1, ack)?;
            Ok(Some((count * MIB) as f64 / t0.elapsed().as_secs_f64()))
        } else {
            for _ in 0..count {
                black_box(comm.recv(0, data)?);
            }
            comm.send(0, ack, Bytes::new())?;
            Ok(None)
        }
    })
    .map_err(|e| e.to_string())?;
    rank0_value(run.results)
}

/// Rank 0 multicasts `count` messages of 1 MiB to three receivers and
/// waits for their acknowledgements; returns payload bytes per second
/// (each message counted once).
fn multicast_bytes_per_s(count: usize) -> Result<f64, String> {
    let (data, ack) = (Tag::app(1), Tag::app(2));
    let members = [0usize, 1, 2, 3];
    let run = run_spmd(
        &ClusterConfig::local(members.len()),
        |comm| -> cts_net::Result<Option<f64>> {
            if comm.rank() == 0 {
                let block = Bytes::from(vec![5u8; MIB]);
                let t0 = Instant::now();
                for _ in 0..count {
                    comm.multicast(0, &members, data, Some(block.clone()))?;
                }
                for peer in 1..members.len() {
                    comm.recv(peer, ack)?;
                }
                Ok(Some((count * MIB) as f64 / t0.elapsed().as_secs_f64()))
            } else {
                for _ in 0..count {
                    black_box(comm.multicast(0, &members, data, None)?);
                }
                comm.send(0, ack, Bytes::new())?;
                Ok(None)
            }
        },
    )
    .map_err(|e| e.to_string())?;
    rank0_value(run.results)
}

fn net_probes(m: &mut Metrics, slice: Duration) -> Result<(), String> {
    m.set("net.local.rtt_us", rtt_us(&ClusterConfig::local(2), slice)?);
    m.set("net.tcp.rtt_us", rtt_us(&ClusterConfig::tcp(2), slice)?);

    // K = 8 barriers, timed at rank 0 (every rank runs the same count).
    let run = run_spmd(
        &ClusterConfig::local(K),
        |comm| -> cts_net::Result<Option<f64>> {
            let mut samples = Vec::with_capacity(300);
            for _ in 0..300 {
                let t0 = Instant::now();
                comm.barrier()?;
                samples.push(t0.elapsed().as_secs_f64());
            }
            Ok((comm.rank() == 0).then(|| median(&samples) * 1e6))
        },
    )
    .map_err(|e| e.to_string())?;
    m.set("net.barrier_us", rank0_value(run.results)?);

    m.set(
        "net.local.bulk_gb_per_s",
        bulk_bytes_per_s(&ClusterConfig::local(2), 4_096)? / 1e9,
    );
    m.set(
        "net.local.multicast_gb_per_s",
        multicast_bytes_per_s(4_096)? / 1e9,
    );
    m.set(
        "net.tcp.bulk_mb_per_s",
        bulk_bytes_per_s(&ClusterConfig::tcp(2), 96)? / 1e6,
    );

    for (name, cfg) in [
        ("net.local.fabric_build_ms", ClusterConfig::local(K)),
        ("net.tcp.fabric_build_ms", ClusterConfig::tcp(K)),
    ] {
        let mut failure = None;
        let build_s = median_call_s(slice, || match SharedFabric::build(&cfg) {
            Ok(fabric) => fabric.shutdown(),
            Err(e) => failure = Some(e.to_string()),
        });
        if let Some(e) = failure {
            return Err(format!("{name}: {e}"));
        }
        m.set(name, build_s * 1e3);
    }

    // Calibration canary: a 2 MiB transfer in 64 KiB sends through the
    // paper's NIC, measured over what the shaping parameters predict.
    let nic = NicProfile::paper_100mbps();
    let sends = 32usize;
    let run = run_spmd(
        &ClusterConfig::local(2).with_nic(nic),
        |comm| -> cts_net::Result<Option<f64>> {
            if comm.rank() == 0 {
                let block = Bytes::from(vec![3u8; SEG]);
                let t0 = Instant::now();
                for _ in 0..sends {
                    comm.send(1, Tag::app(1), block.clone())?;
                }
                Ok(Some(t0.elapsed().as_secs_f64()))
            } else {
                for _ in 0..sends {
                    black_box(comm.recv(0, Tag::app(1))?);
                }
                Ok(None)
            }
        },
    )
    .map_err(|e| e.to_string())?;
    let rate = nic
        .rate_bytes_per_sec
        .expect("the paper NIC is rate-limited");
    let ideal_s = sends as f64 * nic.latency_s + (sends * SEG) as f64 / rate;
    m.set("net.nic.pacing_error", rank0_value(run.results)? / ideal_s);
    Ok(())
}

/// The machine's copy bandwidth alone, for the repeat check's machine line.
pub fn memcpy_gb_per_s() -> f64 {
    segment_rate(&mut arena(), Duration::from_millis(200), |dst, src| {
        dst.copy_from_slice(src)
    })
}

/// Probes that run for a time slice; the others (barrier, bulk, multicast,
/// pacing) do a fixed amount of work.
const SLICED_PROBES: u32 = 18;

/// Runs every probe within about `budget` and records its metric.
pub fn run(m: &mut Metrics, seed: u64, budget: Duration) -> Result<(), String> {
    let slice = budget / SLICED_PROBES;
    core_probes(m, slice)?;
    terasort_probes(m, seed, slice)?;
    net_probes(m, slice)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.set("machine.nproc", nproc as f64);
    Ok(())
}
