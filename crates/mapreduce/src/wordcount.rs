//! WordCount — the canonical shuffle-heavy MapReduce workload beyond
//! sorting (paper §VI: "apply the coding concept to develop coded versions
//! of many other distributed computing applications").
//!
//! Intermediate format: a flat sequence of entries
//! `[len: u16 LE][word bytes][count: u32 LE]`. Entries from different files
//! concatenate freely; the reducer aggregates counts per word and emits
//! `word<TAB>count\n` lines sorted by word — order-insensitive as the
//! engine requires.

use std::collections::HashMap;

use crate::workload::{fnv1a, InputFormat, NodeSet, Workload};

/// The WordCount workload: counts whitespace-separated words.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordCount;

fn push_entry(buf: &mut Vec<u8>, word: &[u8], count: u32) {
    debug_assert!(word.len() <= u16::MAX as usize);
    buf.extend_from_slice(&(word.len() as u16).to_le_bytes());
    buf.extend_from_slice(word);
    buf.extend_from_slice(&count.to_le_bytes());
}

fn parse_entries(mut data: &[u8]) -> impl Iterator<Item = (&[u8], u32)> {
    std::iter::from_fn(move || {
        if data.len() < 2 {
            return None;
        }
        let len = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        if data.len() < 2 + len + 4 {
            return None;
        }
        let word = &data[2..2 + len];
        let count = u32::from_le_bytes(data[2 + len..2 + len + 4].try_into().unwrap());
        data = &data[2 + len + 4..];
        Some((word, count))
    })
}

impl Workload for WordCount {
    fn name(&self) -> &str {
        "wordcount"
    }

    fn format(&self) -> InputFormat {
        InputFormat::Lines
    }

    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        // Pre-aggregate within the file (a combiner) before partitioning.
        let mut counts: HashMap<&[u8], u32> = HashMap::new();
        for word in file
            .split(|&b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
        {
            *counts.entry(word).or_insert(0) += 1;
        }
        let mut out = vec![Vec::new(); num_partitions];
        let mut sorted: Vec<(&[u8], u32)> = counts.into_iter().collect();
        sorted.sort_unstable(); // deterministic intermediate bytes
        for (word, count) in sorted {
            let p = (fnv1a(word) % num_partitions as u64) as usize;
            if keep.contains(p) {
                push_entry(&mut out[p], word, count);
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        let mut totals: HashMap<Vec<u8>, u64> = HashMap::new();
        for (word, count) in parse_entries(data) {
            *totals.entry(word.to_vec()).or_insert(0) += count as u64;
        }
        let mut sorted: Vec<(Vec<u8>, u64)> = totals.into_iter().collect();
        sorted.sort_unstable();
        let mut out = Vec::new();
        for (word, count) in sorted {
            out.extend_from_slice(&word);
            out.push(b'\t');
            out.extend_from_slice(count.to_string().as_bytes());
            out.push(b'\n');
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
    fn counts_simple_text() {
        let input = Bytes::from_static(b"the cat and the hat\nthe end\n");
        let outputs = run_sequential(&WordCount, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert!(text.contains("the\t3"));
        assert!(text.contains("cat\t1"));
        assert!(text.contains("end\t1"));
    }

    #[test]
    fn partitioning_is_by_word_hash() {
        let input = Bytes::from_static(b"alpha beta alpha gamma\n");
        let parts = WordCount.map_file(&input, 4, NodeSet::full(4));
        // Every word's entries land in exactly one partition.
        for word in ["alpha", "beta", "gamma"] {
            let p = (fnv1a(word.as_bytes()) % 4) as usize;
            let found = parse_entries(&parts[p]).any(|(w, _)| w == word.as_bytes());
            assert!(found, "{word} missing from its partition");
        }
    }

    #[test]
    fn combiner_preaggregates() {
        let input = Bytes::from_static(b"x x x x x\n");
        let parts = WordCount.map_file(&input, 1, NodeSet::full(1));
        let entries: Vec<(&[u8], u32)> = parse_entries(&parts[0]).collect();
        assert_eq!(entries, vec![(b"x".as_ref(), 5)]);
    }

    #[test]
    fn reduce_merges_across_files() {
        let a = WordCount.map_file(b"dog dog", 1, NodeSet::full(1));
        let b = WordCount.map_file(b"dog cat", 1, NodeSet::full(1));
        let mut merged = a[0].clone();
        merged.extend_from_slice(&b[0]);
        let out = WordCount.reduce(0, &merged);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("dog\t3"));
        assert!(text.contains("cat\t1"));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let parts = WordCount.map_file(b"", 3, NodeSet::full(3));
        assert!(parts.iter().all(|p| p.is_empty()));
        assert!(WordCount.reduce(0, &[]).is_empty());
    }

    #[test]
    fn entry_roundtrip_handles_long_words() {
        let word = vec![b'w'; 300];
        let mut buf = Vec::new();
        push_entry(&mut buf, &word, 42);
        let parsed: Vec<(&[u8], u32)> = parse_entries(&buf).collect();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, &word[..]);
        assert_eq!(parsed[0].1, 42);
    }
}
