//! The workload beyond sorting (paper §VI), WordCount: coded == uncoded ==
//! sequential, and coding saves shuffle bytes on it as on TeraSort.

use bytes::Bytes;
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
fn coded_shuffle_saves_bytes_on_every_workload() {
    let configs = (EngineConfig::local(5, 1), EngineConfig::local(5, 2));
    // WordCount.
    let input = text_corpus();
    let u = run(&WordCount, input.clone(), &configs.0).unwrap();
    let c = run(&WordCount, input.clone(), &configs.1).unwrap();
    assert_eq!(u.outputs, run_sequential(&WordCount, &input, 5));
    assert_eq!(c.outputs, u.outputs);
    assert!(c.stats.shuffle_bytes() < u.stats.shuffle_bytes());
    // TeraSort.
    let input = teragen::generate(4_000, 45);
    let sort = TeraSortWorkload::range(5);
    let u = run(&sort, input.clone(), &configs.0).unwrap();
    let c = run(&sort, input.clone(), &configs.1).unwrap();
    cts_terasort::validate(&input, &u.outputs).unwrap();
    assert_eq!(c.outputs, u.outputs);
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
