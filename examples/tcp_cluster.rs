//! CodedTeraSort over real TCP sockets with the paper's coordinator
//! pattern (Fig. 8): rank 0 scatters the files, workers sort, rank 0
//! gathers the results — every byte crossing the kernel's TCP stack.
//!
//! Optionally rate-limits each node to the paper's 100 Mbps for a
//! real-time feel (tiny input, or it takes minutes by design):
//!
//! ```sh
//! cargo run --release --example tcp_cluster
//! CTS_RATE_LIMIT=1 cargo run --release --example tcp_cluster
//! ```

use coded_terasort::prelude::*;

fn main() {
    let k = 4;
    let r = 2;
    let records = 20_000;
    let rate_limited = std::env::var("CTS_RATE_LIMIT").is_ok();

    println!("Building a {k}-node TCP mesh on loopback…");
    let input = teragen::generate(records, 99);

    let mut job = SortJob::new(EngineConfig::tcp(k, r));
    if rate_limited {
        println!("Rate-limiting every node's egress to 100 Mbps (tc-style)…");
        job.engine = job.engine.with_nic(NicProfile::rate_limited(100e6 / 8.0));
    }

    let started = std::time::Instant::now();
    let run = run_coded_terasort(input.clone(), &job).expect("coded terasort over tcp");
    let elapsed = started.elapsed();
    run.validate().expect("TeraValidate");

    println!(
        "\nSorted {} records ({:.1} MB) over real TCP in {elapsed:.2?}. ✓",
        records,
        input.len() as f64 / 1e6
    );
    println!(
        "Shuffle bytes on the wire: {} across {} multicast packets",
        run.outcome.stats.shuffle_bytes(),
        run.outcome
            .trace
            .stage_transfer_count(cts_netsim::SHUFFLE_STAGE),
    );

    let w = run.outcome.wall.max;
    println!("\nWall-clock stages (slowest node):");
    println!(
        "  CodeGen {:>9.2?}   Map    {:>9.2?}   Encode {:>9.2?}",
        w.codegen, w.map, w.pack_encode
    );
    println!(
        "  Shuffle {:>9.2?}   Decode {:>9.2?}   Reduce {:>9.2?}",
        w.shuffle, w.unpack_decode, w.reduce
    );

    // Compare against r = 1 over the same fabric.
    let mut plain_job = SortJob::new(EngineConfig::tcp(k, 1));
    if rate_limited {
        plain_job.engine = plain_job
            .engine
            .with_nic(NicProfile::rate_limited(100e6 / 8.0));
    }
    let started = std::time::Instant::now();
    let plain = run_terasort(input, &plain_job).expect("terasort over tcp");
    let plain_elapsed = started.elapsed();
    plain.validate().expect("TeraValidate");
    assert_eq!(plain.outcome.outputs, run.outcome.outputs);

    println!("\nTeraSort on the same TCP fabric: {plain_elapsed:.2?}");
    println!(
        "Shuffle bytes: {} (coded saved {:.1}%)",
        plain.outcome.stats.shuffle_bytes(),
        100.0
            * (1.0
                - run.outcome.stats.shuffle_bytes() as f64
                    / plain.outcome.stats.shuffle_bytes() as f64)
    );
    if rate_limited {
        println!(
            "\nRate-limited wall-clock speedup: {:.2}×",
            plain_elapsed.as_secs_f64() / elapsed.as_secs_f64()
        );
    }
}
