//! Field equivalence: the coding field is a pure algebra/performance
//! knob, so GF(2) and GF(256) runs must produce **byte-identical** sorted
//! output for the same input — across shuffle fabrics, GF(256) kernels
//! (SIMD and `CTS_FORCE_SCALAR`-forced scalar), thread counts, and the
//! pod-partitioned engine. The wire payloads themselves *must differ*
//! (nontrivial coefficients); only the recovered data is invariant.
//!
//! The decode discipline is the same kind of knob: `--decode quorum`
//! (MDS, any `r−1` of `r`) must match `--decode all` byte-for-byte over
//! every field × fabric × thread-count combination, with the field's
//! degenerate cases (GF(2) has no nontrivial MDS code → quorum runs the
//! classic code and needs every packet) covered too.

use coded_terasort::prelude::*;
use cts_terasort::workload::TeraSortWorkload;

fn sorted_outputs(job: &SortJob, input: &bytes::Bytes) -> Vec<Vec<u8>> {
    let run = run_coded_terasort(input.clone(), job).expect("coded run");
    run.validate().expect("TeraValidate");
    run.outcome.outputs
}

#[test]
fn gf2_and_gf256_sort_identically_across_fabrics() {
    let (k, r) = (6, 3);
    let input = teragen::generate(1_800, 99);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for fabric in ShuffleFabric::ALL {
        let job = SortJob::new(
            EngineConfig::local(k, r)
                .with_fabric(fabric)
                .with_field(FieldKind::Gf256),
        );
        assert_eq!(
            sorted_outputs(&job, &input),
            reference,
            "gf256 over {fabric} vs gf2 reference"
        );
    }
}

#[test]
fn gf2_and_gf256_sort_identically_across_thread_counts() {
    let (k, r) = (5, 2);
    let input = teragen::generate(1_500, 41);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for threads in [1usize, 2, 4] {
        for field in FieldKind::ALL {
            let job = SortJob::new(
                EngineConfig::local(k, r)
                    .with_threads(threads)
                    .with_field(field),
            );
            assert_eq!(
                sorted_outputs(&job, &input),
                reference,
                "{field} with {threads} threads"
            );
        }
    }
}

#[test]
fn gf256_pods_engine_matches_gf2() {
    let (k, r, pods) = (6usize, 2usize, 3usize);
    let input = teragen::generate(1_200, 17);
    let workload = TeraSortWorkload::range(k);
    let mut outputs = Vec::new();
    for field in FieldKind::ALL {
        let cfg = EngineConfig::local(k, r).with_pods(pods).with_field(field);
        let outcome = run(&workload, input.clone(), &cfg).expect("pods run");
        outputs.push(outcome.outputs);
    }
    assert_eq!(outputs[0], outputs[1], "pods gf2 vs gf256");
}

#[test]
fn quorum_decode_matches_all_decode_across_fields_and_fabrics() {
    let (k, r) = (5, 3);
    let records = 1_800;
    let input = teragen::generate(records, 333);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for fabric in ShuffleFabric::ALL {
        for field in FieldKind::ALL {
            let job = SortJob::new(
                EngineConfig::local(k, r)
                    .with_fabric(fabric)
                    .with_field(field)
                    .with_decode(DecodeMode::Quorum),
            );
            assert_eq!(
                sorted_outputs(&job, &input),
                reference,
                "quorum {field} over {fabric}, {records} records, vs all-mode reference"
            );
        }
    }
}

#[test]
fn quorum_decode_matches_all_decode_across_thread_counts() {
    let (k, r) = (5, 2);
    let input = teragen::generate(1_500, 41);
    let reference = sorted_outputs(&SortJob::local(k, r), &input);
    for threads in [1usize, 2, 4] {
        for field in FieldKind::ALL {
            let job = SortJob::new(
                EngineConfig::local(k, r)
                    .with_threads(threads)
                    .with_field(field)
                    .with_decode(DecodeMode::Quorum),
            );
            assert_eq!(
                sorted_outputs(&job, &input),
                reference,
                "quorum {field} with {threads} threads"
            );
        }
    }
}

#[test]
fn forced_scalar_kernel_matches_active_kernel_end_to_end() {
    // `Gf256Kernel::active()` latches once per process, so this test
    // exercises the scalar kernel directly through the per-call `_with`
    // entry points instead of mutating the environment: an encode/decode
    // round trip over the scalar kernel must recover exactly what the
    // dispatched kernel recovers. (The CI matrix runs the whole suite
    // under CTS_FORCE_SCALAR=1 to cover the env-override path.)
    use cts_core::gf256::{add_scaled_slice_with, mul_slice_with, Gf256Kernel};
    let src: Vec<u8> = (0..4097).map(|i| (i * 31 % 251) as u8).collect();
    let c = 0x53u8;
    let mut via_active = vec![0u8; src.len()];
    add_scaled_slice_with(Gf256Kernel::active(), &mut via_active, &src, c);
    mul_slice_with(
        Gf256Kernel::active(),
        &mut via_active,
        cts_core::gf256::inv(c),
    );
    let mut via_scalar = vec![0u8; src.len()];
    add_scaled_slice_with(Gf256Kernel::Scalar, &mut via_scalar, &src, c);
    mul_slice_with(
        Gf256Kernel::Scalar,
        &mut via_scalar,
        cts_core::gf256::inv(c),
    );
    assert_eq!(via_active, via_scalar);
    assert_eq!(via_active, src, "scale ∘ inverse-scale must round-trip");
}
