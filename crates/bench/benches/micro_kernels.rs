//! Criterion micro-benchmarks of the hot kernels: XOR, the GF(256)
//! field kernels (scalar vs runtime-dispatched SIMD), encode, decode,
//! hash partitioning, pack/unpack-style copying, sort kernels, and
//! combinatorial enumeration.
//!
//! ```sh
//! cargo bench -p cts-bench --bench micro_kernels
//! ```

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cts_core::combinatorics::Combinations;
use cts_core::decode::Decoder;
use cts_core::encode::{EncodeScratch, Encoder};
use cts_core::gf256::{add_scaled_slice_with, Gf256Kernel};
use cts_core::intermediate::MapOutputStore;
use cts_core::packet::CodedPacket;
use cts_core::placement::PlacementPlan;
use cts_core::subset::NodeSet;
use cts_core::xor::xor_into;
use cts_mapreduce::workload::Workload;
use cts_terasort::record::checksum;
use cts_terasort::sort::{sort_records_with, SortKernel, SortScratch};
use cts_terasort::teragen;
use cts_terasort::workload::TeraSortWorkload;

fn bench_xor(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_into");
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let src = vec![0xA5u8; size];
        let mut dst = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| xor_into(std::hint::black_box(&mut dst), std::hint::black_box(&src)));
        });
    }
    group.finish();
}

fn bench_field_kernels(c: &mut Criterion) {
    // GB/s per coding-field kernel: the GF(2) XOR fold next to the
    // GF(256) `dst ^= c ⊙ src` kernels — scalar log/exp tables vs the
    // runtime-dispatched SIMD path (PSHUFB nibble tables on AVX2,
    // `vqtbl1q_u8` on NEON). Unsupported kernels self-skip so the bench
    // runs everywhere; the SIMD row only appears on hosts that have it.
    let mut group = c.benchmark_group("field_kernels");
    let coeff = 0x8E; // an arbitrary nonzero scalar
    for size in [4 * 1024usize, 64 * 1024, 1 << 20] {
        let src = vec![0xA5u8; size];
        let mut dst = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("gf2_xor", size), &size, |b, _| {
            b.iter(|| xor_into(std::hint::black_box(&mut dst), std::hint::black_box(&src)));
        });
        for kernel in Gf256Kernel::ALL {
            if !kernel.supported() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(kernel.to_string(), size), &size, |b, _| {
                b.iter(|| {
                    add_scaled_slice_with(
                        kernel,
                        std::hint::black_box(&mut dst),
                        std::hint::black_box(&src),
                        coeff,
                    )
                });
            });
        }
    }
    group.finish();
}

/// Builds keep-rule stores for encode/decode benchmarks.
fn stores_for(k: usize, r: usize, value_len: usize) -> Vec<MapOutputStore> {
    let plan = PlacementPlan::new(k, r).unwrap();
    (0..k)
        .map(|node| {
            let mut st = MapOutputStore::new();
            for fid in plan.files_of_node(node) {
                let f = plan.nodes_of_file(fid);
                for t in 0..k {
                    if plan.keeps_intermediate(node, f, t) {
                        st.insert(t, f, Bytes::from(vec![(t * 7) as u8; value_len]));
                    }
                }
            }
            st
        })
        .collect()
}

fn bench_encode_decode(c: &mut Criterion) {
    let (k, r) = (8usize, 3usize);
    let value_len = 64 * 1024;
    let stores = stores_for(k, r, value_len);
    let enc = Encoder::new(k, r, 0).unwrap();
    let groups: Vec<NodeSet> = enc
        .groups()
        .groups_of_node(0)
        .map(|(_, m)| m)
        .take(8)
        .collect();

    let mut group = c.benchmark_group("encode_group");
    group.throughput(Throughput::Bytes((value_len * groups.len()) as u64));
    group.bench_function(format!("k{k}_r{r}_64k"), |b| {
        b.iter(|| {
            for m in &groups {
                std::hint::black_box(enc.encode_group(*m, &stores[0]).unwrap());
            }
        });
    });
    group.finish();

    // Decode: node 1 decodes node 0's packets.
    let packets: Vec<CodedPacket> = groups
        .iter()
        .filter(|m| m.contains(1))
        .map(|m| enc.encode_group(*m, &stores[0]).unwrap())
        .collect();
    let dec = Decoder::new(k, r, 1).unwrap();
    let mut group = c.benchmark_group("decode_packet");
    group.throughput(Throughput::Bytes(
        packets
            .iter()
            .map(|p| p.payload.len() as u64 * r as u64)
            .sum(),
    ));
    group.bench_function(format!("k{k}_r{r}_64k"), |b| {
        b.iter(|| {
            for p in &packets {
                std::hint::black_box(dec.decode_packet(p, &stores[1]).unwrap());
            }
        });
    });
    group.finish();
}

fn bench_packet_wire(c: &mut Criterion) {
    let (k, r) = (8usize, 3usize);
    let stores = stores_for(k, r, 64 * 1024);
    let enc = Encoder::new(k, r, 0).unwrap();
    let pkt = enc.encode_all(&stores[0]).unwrap().remove(0);
    let wire = pkt.to_bytes();
    let wire_frame = Bytes::from(wire.clone());
    let mut group = c.benchmark_group("packet_wire");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("serialize", |b| {
        b.iter(|| std::hint::black_box(pkt.to_bytes()));
    });
    group.bench_function("serialize_into_reused", |b| {
        let mut out = Vec::with_capacity(wire.len());
        b.iter(|| {
            out.clear();
            pkt.write_into(&mut out);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function("parse", |b| {
        b.iter(|| std::hint::black_box(CodedPacket::from_bytes(&wire).unwrap()));
    });
    group.bench_function("parse_zero_copy", |b| {
        let mut shell = CodedPacket::empty();
        b.iter(|| {
            shell.read_wire(std::hint::black_box(&wire_frame)).unwrap();
            std::hint::black_box(shell.payload.len())
        });
    });
    group.bench_function("roundtrip_pooled", |b| {
        // The full warm send/receive kernel: write_into a reused buffer,
        // zero-copy parse into a reused shell.
        let mut out = Vec::with_capacity(wire.len());
        let mut shell = CodedPacket::empty();
        b.iter(|| {
            out.clear();
            pkt.write_into(&mut out);
            shell.read_wire(&wire_frame).unwrap();
            std::hint::black_box(shell.seg_lens.len())
        });
    });
    group.finish();
}

fn bench_encode_pooled_vs_fresh(c: &mut Criterion) {
    let (k, r) = (8usize, 3usize);
    let value_len = 64 * 1024;
    let stores = stores_for(k, r, value_len);
    let enc = Encoder::new(k, r, 0).unwrap();
    let groups: Vec<NodeSet> = enc
        .groups()
        .groups_of_node(0)
        .map(|(_, m)| m)
        .take(8)
        .collect();
    let mut group = c.benchmark_group("encode_pooled_vs_fresh");
    group.throughput(Throughput::Bytes((value_len * groups.len()) as u64));
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            for m in &groups {
                std::hint::black_box(enc.encode_group(*m, &stores[0]).unwrap());
            }
        });
    });
    group.bench_function("pooled_scratch", |b| {
        let mut scratch = EncodeScratch::new();
        b.iter(|| {
            for m in &groups {
                enc.encode_group_into(*m, &stores[0], &mut scratch).unwrap();
                std::hint::black_box(scratch.payload.len());
            }
        });
    });
    group.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let records = 50_000;
    let input = teragen::generate(records, 17);
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("word_at_a_time_5mb", |b| {
        b.iter(|| std::hint::black_box(checksum(&input)));
    });
    group.bench_function("bytewise_reference_5mb", |b| {
        b.iter(|| std::hint::black_box(cts_terasort::record::checksum_bytewise(&input)));
    });
    group.finish();
}

fn bench_map_hashing(c: &mut Criterion) {
    let records = 50_000;
    let input = teragen::generate(records, 11);
    let workload = TeraSortWorkload::range(16);
    let mut group = c.benchmark_group("map_hash_partition");
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("k16", |b| {
        b.iter(|| std::hint::black_box(workload.map_file(&input, 16)));
    });
    group.finish();
}

fn bench_sort_kernels(c: &mut Criterion) {
    let records = 100_000;
    let input = teragen::generate(records, 13);
    let mut group = c.benchmark_group("reduce_sort");
    group.throughput(Throughput::Bytes(input.len() as u64));
    for kernel in SortKernel::ALL {
        group.bench_function(format!("{kernel}_100k"), |b| {
            let mut scratch = SortScratch::new();
            b.iter(|| std::hint::black_box(sort_records_with(&input, kernel, &mut scratch)));
        });
    }
    group.finish();
}

fn bench_sort_kernels_1m(c: &mut Criterion) {
    // The key-index kernel at acceptance scale, 1 M records (100 MB).
    // Skippable quick mode: CTS_RECORDS_1M=0 disables the group entirely.
    let records = cts_bench::env_usize("CTS_RECORDS_1M", 1_000_000);
    if records == 0 {
        return;
    }
    let input = teragen::generate(records, 14);
    let mut group = c.benchmark_group("reduce_sort_1m");
    group.throughput(Throughput::Bytes(input.len() as u64));
    let kernel = SortKernel::KeyIndex;
    group.bench_function(format!("{kernel}_{records}"), |b| {
        let mut scratch = SortScratch::new();
        b.iter(|| std::hint::black_box(sort_records_with(&input, kernel, &mut scratch)));
    });
    group.finish();
}

fn bench_codegen_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("codegen_enumeration");
    for (k, r) in [(16usize, 3usize), (16, 5), (20, 5)] {
        group.bench_function(format!("k{k}_r{r}"), |b| {
            b.iter(|| {
                let count = Combinations::new(k, r + 1).count();
                std::hint::black_box(count)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_xor,
    bench_field_kernels,
    bench_encode_decode,
    bench_encode_pooled_vs_fresh,
    bench_packet_wire,
    bench_checksum,
    bench_map_hashing,
    bench_sort_kernels,
    bench_sort_kernels_1m,
    bench_codegen_enumeration
);
criterion_main!(benches);
