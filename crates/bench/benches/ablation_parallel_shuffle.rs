//! **Ablation: asynchronous / parallel shuffling** (paper §VI, future
//! direction 3).
//!
//! The paper executes shuffles serially and asks what parallel
//! communication changes. Replaying the recorded transfer sets through
//! the max-min-fair fluid simulator answers quantitatively:
//!
//! * uncoded all-to-all parallelizes almost perfectly (≈ K× faster);
//! * the coded shuffle parallelizes far worse: every packet occupies `r`
//!   receivers' ingress at once, multicast flows run at the rate of their
//!   most-contended receiver, and the α-penalty still applies — under this
//!   one-outstanding-send-per-node model the coded scheme can even lose to
//!   parallel uncoded all-to-all. Serial-shuffle regimes are where coding
//!   pays; the asynchronous setting is exactly the open question the paper
//!   flags in §VI.
//!
//! ```sh
//! cargo bench -p cts-bench --bench ablation_parallel_shuffle
//! ```

use cts_bench::Experiment;
use cts_netsim::config::NetModelConfig;
use cts_netsim::serial::transfers_by_sender;
use cts_netsim::{simulate_parallel, SHUFFLE_STAGE};

fn main() {
    let k = 16;
    let exp = Experiment::paper(k);
    let net = NetModelConfig::ec2_100mbps();

    let base = exp.run(1);
    let base_serial = base.breakdown.shuffle_s;
    let base_parallel = simulate_parallel(
        &transfers_by_sender(&base.trace, SHUFFLE_STAGE, base.stats.scale),
        &net,
    )
    .makespan_s;

    println!("shuffle times at K = {k} (12 GB modeled), serial vs parallel:\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12}",
        "", "serial (s)", "parallel(s)", "serial/par"
    );
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>11.1}x",
        "TeraSort",
        base_serial,
        base_parallel,
        base_serial / base_parallel
    );

    let mut coded_parallel = Vec::new();
    for r in [3usize, 5] {
        let coded = exp.run(r);
        let serial = coded.breakdown.shuffle_s;
        let parallel = simulate_parallel(
            &transfers_by_sender(&coded.trace, SHUFFLE_STAGE, coded.stats.scale),
            &net,
        )
        .makespan_s;
        coded_parallel.push((r, parallel));
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>11.1}x",
            format!("CodedTeraSort r={r}"),
            serial,
            parallel,
            serial / parallel
        );
    }

    println!("\ncoding gain in each regime:");
    for (r, parallel) in &coded_parallel {
        let serial_gain = base_serial / exp.run(*r).breakdown.shuffle_s;
        let parallel_gain = base_parallel / parallel;
        println!(
            "  r = {r}: serial-shuffle gain {serial_gain:.2}× → parallel-shuffle gain {parallel_gain:.2}×"
        );
        // The receiver bottleneck: the coding gain collapses (and can
        // invert) once senders stop serializing.
        assert!(
            parallel_gain < serial_gain,
            "coding gain must shrink under parallelism"
        );
    }

    // Parallelism helps both schemes dramatically.
    assert!(
        base_serial / base_parallel > 8.0,
        "uncoded ≈ K× parallel win"
    );
    println!("\nparallelism ≈ K×-accelerates the uncoded shuffle; the coded gain\nmigrates from sender serialization to receiver-side load — the open\nquestion the paper poses. ✓");
}
