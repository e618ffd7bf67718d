//! Inverted index — the RankedInvertedIndex-style workload the paper's
//! §I cites (its reference \[6\]) among the shuffle-bound applications.
//!
//! Input lines are `doc_id<TAB>text`. Map emits `(word, doc_id)` pairs
//! partitioned by word; reduce groups each word's postings into a sorted,
//! deduplicated list: `word: doc1,doc2,…\n`, sorted by word.
//!
//! Intermediate format per entry:
//! `[word_len: u16 LE][word][doc_len: u16 LE][doc_id]`.

use std::collections::BTreeMap;

use crate::workload::{fnv1a, InputFormat, NodeSet, Workload};

/// The inverted-index workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvertedIndex;

fn push_entry(buf: &mut Vec<u8>, word: &[u8], doc: &[u8]) {
    buf.extend_from_slice(&(word.len() as u16).to_le_bytes());
    buf.extend_from_slice(word);
    buf.extend_from_slice(&(doc.len() as u16).to_le_bytes());
    buf.extend_from_slice(doc);
}

fn parse_entries(mut data: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    std::iter::from_fn(move || {
        if data.len() < 2 {
            return None;
        }
        let wl = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        if data.len() < 2 + wl + 2 {
            return None;
        }
        let word = &data[2..2 + wl];
        let dl = u16::from_le_bytes(data[2 + wl..4 + wl].try_into().unwrap()) as usize;
        if data.len() < 4 + wl + dl {
            return None;
        }
        let doc = &data[4 + wl..4 + wl + dl];
        data = &data[4 + wl + dl..];
        Some((word, doc))
    })
}

impl Workload for InvertedIndex {
    fn name(&self) -> &str {
        "inverted-index"
    }

    fn format(&self) -> InputFormat {
        InputFormat::Lines
    }

    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new(); num_partitions];
        for line in file.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let Some(tab) = line.iter().position(|&b| b == b'\t') else {
                continue; // malformed line: skip
            };
            let (doc, text) = (&line[..tab], &line[tab + 1..]);
            // Dedup words within the document deterministically.
            let mut words: Vec<&[u8]> = text
                .split(|&b| b.is_ascii_whitespace())
                .filter(|w| !w.is_empty())
                .collect();
            words.sort_unstable();
            words.dedup();
            for word in words {
                let p = (fnv1a(word) % num_partitions as u64) as usize;
                if keep.contains(p) {
                    push_entry(&mut out[p], word, doc);
                }
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        let mut postings: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
        for (word, doc) in parse_entries(data) {
            postings
                .entry(word.to_vec())
                .or_default()
                .push(doc.to_vec());
        }
        let mut out = Vec::new();
        for (word, mut docs) in postings {
            docs.sort_unstable();
            docs.dedup();
            out.extend_from_slice(&word);
            out.extend_from_slice(b": ");
            for (i, d) in docs.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(d);
            }
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
    fn builds_postings() {
        let input = Bytes::from_static(b"d1\tthe quick fox\nd2\tthe lazy dog\nd3\tquick dog\n");
        let outputs = run_sequential(&InvertedIndex, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert!(text.contains("the: d1,d2\n"), "{text}");
        assert!(text.contains("quick: d1,d3\n"), "{text}");
        assert!(text.contains("dog: d2,d3\n"), "{text}");
        assert!(text.contains("fox: d1\n"), "{text}");
    }

    #[test]
    fn within_document_duplicates_collapse() {
        let input = Bytes::from_static(b"d1\tbuffalo buffalo buffalo\n");
        let outputs = run_sequential(&InvertedIndex, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert_eq!(text, "buffalo: d1\n");
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let input = Bytes::from_static(b"no-tab-here\nd2\tok\n");
        let outputs = run_sequential(&InvertedIndex, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        assert_eq!(text, "ok: d2\n");
    }

    #[test]
    fn entries_roundtrip() {
        let mut buf = Vec::new();
        push_entry(&mut buf, b"word", b"doc-42");
        push_entry(&mut buf, b"w2", b"d");
        let got: Vec<(&[u8], &[u8])> = parse_entries(&buf).collect();
        assert_eq!(
            got,
            vec![
                (b"word".as_ref(), b"doc-42".as_ref()),
                (b"w2".as_ref(), b"d".as_ref())
            ]
        );
    }

    #[test]
    fn output_is_sorted_by_word() {
        let input = Bytes::from_static(b"d1\tzebra apple mango\n");
        let outputs = run_sequential(&InvertedIndex, &input, 1);
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["apple: d1", "mango: d1", "zebra: d1"]);
    }
}
