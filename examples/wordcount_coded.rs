//! Beyond sorting (paper §VI): coded WordCount.
//!
//! The coded shuffle is workload-agnostic — anything with
//! concatenation-mergeable intermediates and an order-insensitive reduce
//! gains the same r× communication reduction. This example runs WordCount
//! uncoded and coded over synthetic text and compares traffic.
//!
//! ```sh
//! cargo run --release --example wordcount_coded
//! ```

use bytes::Bytes;
use coded_terasort::mapreduce::wordcount::WordCount;
use coded_terasort::prelude::*;

/// Synthetic prose: a handful of hot stop-words plus a large long-tail
/// vocabulary (Zipf-flavored), so per-file intermediates grow with file
/// size the way real text corpora do.
fn synthetic_text(words: usize, seed: u64) -> Bytes {
    const HOT: &[&str] = &["the", "of", "and", "to", "in", "code", "data", "sort"];
    // splitmix64: a deterministic draw per call.
    let mut state = seed;
    let mut next_u64 = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = String::new();
    for i in 0..words {
        let z = (next_u64() % 100) as usize;
        if z < 30 {
            out.push_str(HOT[next_u64() as usize % HOT.len()]);
        } else {
            // Long tail: ~60k distinct word forms.
            out.push_str(&format!("w{}", next_u64() % 60_000));
        }
        out.push(if i % 12 == 11 { '\n' } else { ' ' });
    }
    out.push('\n');
    Bytes::from(out)
}

fn main() {
    let k = 5;
    let r = 2;
    let input = synthetic_text(200_000, 7);
    println!(
        "WordCount over {:.1} MB of text, K = {k}, r = {r}\n",
        input.len() as f64 / 1e6
    );

    let uncoded =
        run(&WordCount, input.clone(), &EngineConfig::local(k, 1)).expect("uncoded wordcount");
    let coded = run(&WordCount, input, &EngineConfig::local(k, r)).expect("coded wordcount");

    assert_eq!(
        uncoded.outputs, coded.outputs,
        "coded and uncoded WordCount must agree"
    );
    println!("Outputs identical at r = 1 and r = {r}. ✓");

    // Show the top words from partition outputs.
    let mut lines: Vec<String> = coded
        .outputs
        .iter()
        .flat_map(|o| {
            String::from_utf8_lossy(o)
                .lines()
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect();
    lines.sort_by_key(|l| {
        std::cmp::Reverse(
            l.rsplit('\t')
                .next()
                .and_then(|c| c.parse::<u64>().ok())
                .unwrap_or(0),
        )
    });
    println!("\nTop words:");
    for l in lines.iter().take(5) {
        println!("  {l}");
    }

    println!("\nShuffle traffic:");
    println!("  uncoded : {:>10} bytes", uncoded.stats.shuffle_bytes());
    println!("  coded   : {:>10} bytes", coded.stats.shuffle_bytes());
    println!(
        "  gain    : {:.2}×  (ideal r-fold gain bounded by (1-1/K)/((1/r)(1-r/K)) = {:.2}×)",
        uncoded.stats.shuffle_bytes() as f64 / coded.stats.shuffle_bytes() as f64,
        theory::uncoded_comm_load(1, k) / theory::coded_comm_load(r, k)
    );
}
