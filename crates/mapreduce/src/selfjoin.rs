//! SelfJoin — the other workload the paper names explicitly among the
//! shuffle-bound applications (§I via its reference \[6\], and §VI:
//! "coded versions of many other distributed computing applications
//! whose performance is limited by data shuffling (e.g., Grep,
//! SelfJoin)").
//!
//! Input lines are `key<TAB>value`. The join emits, for every key, all
//! ordered pairs of *distinct* values seen with that key — the classic
//! PUMA SelfJoin benchmark shape. Map partitions by key hash;
//! intermediates are `(key, value)` entries; reduce groups, sorts, and
//! expands pairs, emitting `key: v1×v2\n` lines sorted lexicographically.

use std::collections::BTreeMap;

use crate::workload::{fnv1a, InputFormat, NodeSet, Workload};

/// The SelfJoin workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfJoin;

fn push_entry(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(&(value.len() as u16).to_le_bytes());
    buf.extend_from_slice(value);
}

fn parse_entries(mut data: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    std::iter::from_fn(move || {
        if data.len() < 2 {
            return None;
        }
        let kl = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        if data.len() < 2 + kl + 2 {
            return None;
        }
        let key = &data[2..2 + kl];
        let vl = u16::from_le_bytes(data[2 + kl..4 + kl].try_into().unwrap()) as usize;
        if data.len() < 4 + kl + vl {
            return None;
        }
        let value = &data[4 + kl..4 + kl + vl];
        data = &data[4 + kl + vl..];
        Some((key, value))
    })
}

impl Workload for SelfJoin {
    fn name(&self) -> &str {
        "selfjoin"
    }

    fn format(&self) -> InputFormat {
        InputFormat::Lines
    }

    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new(); num_partitions];
        for line in file.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let Some(tab) = line.iter().position(|&b| b == b'\t') else {
                continue;
            };
            let (key, value) = (&line[..tab], &line[tab + 1..]);
            let p = (fnv1a(key) % num_partitions as u64) as usize;
            if keep.contains(p) {
                push_entry(&mut out[p], key, value);
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        let mut by_key: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        for (key, value) in parse_entries(data) {
            by_key.entry(key.to_vec()).or_default().push(value.to_vec());
        }
        let mut out = Vec::new();
        for (key, mut values) in by_key {
            values.sort_unstable();
            values.dedup();
            for a in &values {
                for b in &values {
                    if a < b {
                        out.extend_from_slice(&key);
                        out.extend_from_slice(b": ");
                        out.extend_from_slice(a);
                        out.push(b'x');
                        out.extend_from_slice(b);
                        out.push(b'\n');
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::run_sequential;
    use bytes::Bytes;

    #[test]
    fn joins_values_sharing_a_key() {
        let input = Bytes::from_static(b"k1\ta\nk1\tb\nk1\tc\nk2\tx\n");
        let outputs = run_sequential(&SelfJoin, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert!(text.contains("k1: axb\n"));
        assert!(text.contains("k1: axc\n"));
        assert!(text.contains("k1: bxc\n"));
        // Singleton keys produce no pairs.
        assert!(!text.contains("k2"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn duplicate_values_collapse() {
        let input = Bytes::from_static(b"k\tv\nk\tv\nk\tw\n");
        let outputs = run_sequential(&SelfJoin, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert_eq!(text, "k: vxw\n");
    }

    #[test]
    fn pairs_are_unordered_and_unique() {
        let input = Bytes::from_static(b"k\tb\nk\ta\n");
        let outputs = run_sequential(&SelfJoin, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        // Emitted once, smaller value first.
        assert_eq!(text, "k: axb\n");
    }

    #[test]
    fn keys_route_to_one_partition() {
        let input = Bytes::from_static(b"alpha\t1\nalpha\t2\nbeta\t3\nbeta\t4\n");
        let parts = SelfJoin.map_file(&input, 4, NodeSet::full(4));
        let non_empty = parts.iter().filter(|p| !p.is_empty()).count();
        assert!(non_empty <= 2);
        // All alpha entries share a partition.
        let p_alpha = (fnv1a(b"alpha") % 4) as usize;
        let entries: Vec<(&[u8], &[u8])> = parse_entries(&parts[p_alpha]).collect();
        assert!(entries.iter().filter(|(k, _)| *k == b"alpha").count() == 2);
    }

    #[test]
    fn entry_roundtrip() {
        let mut buf = Vec::new();
        push_entry(&mut buf, b"key", b"value-1");
        push_entry(&mut buf, b"", b"v");
        let got: Vec<(&[u8], &[u8])> = parse_entries(&buf).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (b"key".as_ref(), b"value-1".as_ref()));
        assert_eq!(got[1].1, b"v");
    }

    #[test]
    fn malformed_lines_skipped() {
        let input = Bytes::from_static(b"no-tab\nk\ta\nk\tb\n");
        let outputs = run_sequential(&SelfJoin, &input, 2);
        let all: String = outputs
            .iter()
            .map(|o| String::from_utf8_lossy(o).to_string())
            .collect();
        assert_eq!(all.trim(), "k: axb");
    }
}
