//! Reference execution and output-equivalence checking.

use bytes::Bytes;

use crate::workload::{NodeSet, Workload};

/// Runs `workload` sequentially on one machine: the whole input is mapped
/// as a single file and each partition is reduced directly. This is the
/// ground truth every layout must match (their intermediates arrive in
/// different concatenation orders, which order-insensitive reduces absorb).
pub fn run_sequential<W: Workload>(workload: &W, input: &Bytes, k: usize) -> Vec<Vec<u8>> {
    let intermediates = workload.map_file(input, k, NodeSet::full(k));
    intermediates
        .into_iter()
        .enumerate()
        .map(|(p, data)| workload.reduce(p, &data))
        .collect()
}

/// Compares two engine outputs partition by partition; returns the indices
/// of mismatching partitions (empty means equivalent).
pub fn diff_outputs(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<usize> {
    let mut bad: Vec<usize> = (0..a.len().max(b.len()))
        .filter(|&i| a.get(i) != b.get(i))
        .collect();
    bad.dedup();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::InputFormat;

    struct CountBytes;

    impl Workload for CountBytes {
        fn name(&self) -> &str {
            "countbytes"
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
            (data.len() as u64).to_le_bytes().to_vec()
        }
    }

    #[test]
    fn sequential_reduces_every_partition() {
        let input = Bytes::from_static(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let outputs = run_sequential(&CountBytes, &input, 4);
        assert_eq!(outputs.len(), 4);
        let total: u64 = outputs
            .iter()
            .map(|o| u64::from_le_bytes(o[..8].try_into().unwrap()))
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn diff_outputs_finds_mismatches() {
        let a = vec![vec![1u8], vec![2], vec![3]];
        let mut b = a.clone();
        assert!(diff_outputs(&a, &b).is_empty());
        b[1] = vec![9];
        assert_eq!(diff_outputs(&a, &b), vec![1]);
        b.pop();
        assert_eq!(diff_outputs(&a, &b), vec![1, 2]);
    }
}
