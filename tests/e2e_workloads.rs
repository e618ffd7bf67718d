//! Beyond-sorting workloads (paper §VI): coded == uncoded == sequential.

use bytes::Bytes;
use coded_terasort::mapreduce::grep::Grep;
use coded_terasort::mapreduce::invindex::InvertedIndex;
use coded_terasort::mapreduce::wordcount::WordCount;
use coded_terasort::prelude::*;

fn text_corpus() -> Bytes {
    let mut s = String::new();
    for i in 0..4000 {
        s.push_str(&format!(
            "doc{} shuffles data across node {} with coded packet {}\n",
            i % 97,
            i % 13,
            i % 7
        ));
    }
    Bytes::from(s)
}

fn docs_corpus() -> Bytes {
    let mut s = String::new();
    for i in 0..2000 {
        s.push_str(&format!(
            "d{:04}\tterm{} term{} shared{} coded shuffle\n",
            i,
            i % 53,
            (i * 7) % 101,
            i % 3
        ));
    }
    Bytes::from(s)
}

#[test]
fn wordcount_all_engines_agree() {
    let input = text_corpus();
    let seq = run_sequential(&WordCount, &input, 4);
    let unc = run(&WordCount, input.clone(), &EngineConfig::local(4, 1)).unwrap();
    assert_eq!(seq, unc.outputs);
    for r in [2usize, 3, 4] {
        let coded = run(&WordCount, input.clone(), &EngineConfig::local(4, r)).unwrap();
        assert_eq!(seq, coded.outputs, "r={r}");
    }
}

#[test]
fn wordcount_totals_conserved() {
    let input = text_corpus();
    let coded = run(&WordCount, input.clone(), &EngineConfig::local(5, 2)).unwrap();
    let total: u64 = coded
        .outputs
        .iter()
        .flat_map(|o| {
            String::from_utf8_lossy(o)
                .lines()
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .map(|l| l.rsplit('\t').next().unwrap().parse::<u64>().unwrap())
        .sum();
    let words = input
        .split(|&b| b.is_ascii_whitespace())
        .filter(|w| !w.is_empty())
        .count() as u64;
    assert_eq!(total, words);
}

#[test]
fn grep_all_engines_agree() {
    let input = text_corpus();
    let grep = Grep::new(&b"node 7"[..]);
    let seq = run_sequential(&grep, &input, 3);
    let unc = run(&grep, input.clone(), &EngineConfig::local(3, 1)).unwrap();
    let coded = run(&grep, input.clone(), &EngineConfig::local(3, 2)).unwrap();
    assert_eq!(seq, unc.outputs);
    assert_eq!(seq, coded.outputs);
    // Every emitted line really matches.
    for out in &coded.outputs {
        for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert!(line.windows(6).any(|w| w == b"node 7"));
        }
    }
}

#[test]
fn inverted_index_all_engines_agree() {
    let input = docs_corpus();
    let seq = run_sequential(&InvertedIndex, &input, 4);
    let unc = run(&InvertedIndex, input.clone(), &EngineConfig::local(4, 1)).unwrap();
    let coded = run(&InvertedIndex, input.clone(), &EngineConfig::local(4, 3)).unwrap();
    assert_eq!(seq, unc.outputs);
    assert_eq!(seq, coded.outputs);
    // "shared0" must list many documents, comma separated and sorted.
    let joined: String = coded
        .outputs
        .iter()
        .map(|o| String::from_utf8_lossy(o).to_string())
        .collect();
    let line = joined
        .lines()
        .find(|l| l.starts_with("shared0: "))
        .expect("shared0 posting list");
    let docs: Vec<&str> = line["shared0: ".len()..].split(',').collect();
    assert!(docs.len() > 500);
    let mut sorted = docs.clone();
    sorted.sort_unstable();
    assert_eq!(docs, sorted);
}

#[test]
fn coded_shuffle_saves_bytes_on_every_workload() {
    let input = text_corpus();
    let configs = (EngineConfig::local(5, 1), EngineConfig::local(5, 2));
    // WordCount.
    let u = run(&WordCount, input.clone(), &configs.0).unwrap();
    let c = run(&WordCount, input.clone(), &configs.1).unwrap();
    assert!(c.stats.shuffle_bytes() < u.stats.shuffle_bytes());
    // Grep.
    let grep = Grep::new(&b"coded"[..]);
    let u = run(&grep, input.clone(), &configs.0).unwrap();
    let c = run(&grep, input.clone(), &configs.1).unwrap();
    assert!(c.stats.shuffle_bytes() < u.stats.shuffle_bytes());
    // Inverted index.
    let input = docs_corpus();
    let u = run(&InvertedIndex, input.clone(), &configs.0).unwrap();
    let c = run(&InvertedIndex, input, &configs.1).unwrap();
    assert!(c.stats.shuffle_bytes() < u.stats.shuffle_bytes());
}

#[test]
fn lopsided_text_still_correct() {
    // One enormous line plus many empty ones stresses the line splitter.
    let mut s = String::new();
    s.push_str(&"megaword ".repeat(5000));
    s.push('\n');
    for _ in 0..50 {
        s.push('\n');
    }
    s.push_str("tail line\n");
    let input = Bytes::from(s);
    let seq = run_sequential(&WordCount, &input, 3);
    let coded = run(&WordCount, input, &EngineConfig::local(3, 2)).unwrap();
    assert_eq!(seq, coded.outputs);
    let joined: String = coded
        .outputs
        .iter()
        .map(|o| String::from_utf8_lossy(o).to_string())
        .collect();
    assert!(joined.contains("megaword\t5000"));
}
