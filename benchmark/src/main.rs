//! The repo benchmark: four workloads, four bounded end-to-end metrics and
//! a per-layer table, driven through the crates' public functions only.
//! See `README.md` for what each number means and `../BENCHMARK.json` for
//! the contract with the driver.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sort_nic --seed 2017 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when any output differed from its reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod oneshot;
mod probes;
mod procstat;
mod report;
mod resident;
mod run;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::json::Value;

use crate::report::metric_json;
use crate::run::Output;
use crate::spec::{Workload, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage: cts-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
       cts-benchmark --quick                   smoke: all four workloads, ten times smaller
       cts-benchmark --repeat-check [--runs <n>] [--seed <n>] [--seconds <s>]
       cts-benchmark --emit-manifest           print BENCHMARK.json
workloads: sort_inmem sort_nic svc_small svc_bulk";

/// Where a traced run of `workload` writes its Chrome trace.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    runs: Option<usize>,
    emit_manifest: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--runs" => {
                let v = value("a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad run count `{v}`"))?;
                if n < 2 {
                    return Err("--runs needs at least 2".into());
                }
                args.runs = Some(n);
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Prints every metric by name with its unit, then the result line.
fn print_output(w: &Workload, out: &Output, trace: bool, quick: bool) -> Result<(), String> {
    let names: Vec<(String, &str)> = if trace {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(names.len());
    println!(
        "workload {}{}:",
        w.name,
        if quick { " (quick)" } else { "" }
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit) in names {
        let value = out.metrics.get(&name)?;
        match value {
            Some(v) => println!("  {name:<44} {v:>16.6} {unit}"),
            None => println!("  {name:<44} {:>16} {unit}", "null"),
        }
        metrics.push((name, metric_json(value, unit)));
    }
    let mut fields = vec![
        ("correct".to_string(), Value::Bool(out.tally.failed == 0)),
        ("attempted".to_string(), Value::UInt(out.tally.attempted)),
        ("failed".to_string(), Value::UInt(out.tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ];
    if quick {
        // Not a baseline: the workload ran ten times smaller.
        fields.push(("quick".to_string(), Value::Bool(true)));
    }
    println!("{}", Value::Object(fields).render());
    Ok(())
}

/// Runs every workload `runs` times and checks each end-to-end metric
/// against its bound. Two runs share the seed and must agree within the
/// bound; more runs each take the next seed, and the distance between the
/// quartiles of their values, as a share of the median, must stay within
/// it (the driver's acceptance rule; aim for a third of the bound).
/// `setup_s` is printed but, as in the driver's rule, not gated: a single
/// set-up time is far noisier than the median of ten the driver compares.
fn repeat_check(seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "machine: nproc {nproc}, memcpy {:.2} GB/s, GF(256) kernel {}",
        probes::memcpy_gb_per_s(),
        cts_core::gf256::Gf256Kernel::active()
    );
    let same_seed = runs == 2;
    println!(
        "repeat check: {runs} runs per workload, {seconds} s each, {}\n",
        if same_seed {
            format!("all on seed {seed}; diff = |a - b| / mean")
        } else {
            format!(
                "seeds {seed}..={}; spread = (q3 - q1) / median",
                seed + runs as u64 - 1
            )
        }
    );
    println!(
        "{:<11} {:<17} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "min",
        "median",
        "max",
        if same_seed { "diff" } else { "spread" },
        "bound"
    );
    let mut agree = true;
    for w in &WORKLOADS {
        let mut outputs = Vec::with_capacity(runs);
        for i in 0..runs as u64 {
            outputs.push(run::run(
                w,
                if same_seed { seed } else { seed + i },
                seconds,
                false,
            )?);
        }
        for metric in &END_TO_END {
            let values = outputs
                .iter()
                .map(|o| {
                    o.metrics
                        .get(metric.name)
                        .map(|v| v.expect("timings exist on every platform"))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            let (lo, hi) = (stats::quantile(&values, 0.0), stats::quantile(&values, 1.0));
            let disagreement = if same_seed {
                (hi - lo) / ((hi + lo) / 2.0)
            } else {
                stats::spread(&values).expect("at least two runs")
            };
            let ok = disagreement <= metric.bound;
            let gated = metric.name != "setup_s";
            agree &= ok || !gated;
            println!(
                "{:<11} {:<17} {lo:>12.4} {:>12.4} {hi:>12.4} {:>7.2}% {:>5.0}%  {}",
                w.name,
                metric.name,
                stats::median(&values),
                disagreement * 100.0,
                metric.bound * 100.0,
                match (ok, gated) {
                    (true, _) => "ok",
                    (false, true) => "DISAGREE",
                    (false, false) => "wide (not gated)",
                }
            );
        }
        let failed: u64 = outputs.iter().map(|o| o.tally.failed).sum();
        let attempted: u64 = outputs.iter().map(|o| o.tally.attempted).sum();
        println!("{:<11} failed {failed} of {attempted} operations", w.name);
        agree &= failed == 0;
    }
    Ok(agree)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.emit_manifest {
        println!("{}", spec::manifest().render());
        return Ok(true);
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if args.repeat_check {
        return repeat_check(
            seed,
            args.seconds.unwrap_or(RUN_SECONDS as f64),
            args.runs.unwrap_or(2),
        );
    }
    let chosen: Vec<Workload> = match &args.workload {
        Some(name) => {
            vec![*Workload::by_name(name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?]
        }
        None if args.quick => WORKLOADS.to_vec(),
        None => return Err(USAGE.to_string()),
    };
    let mut correct = true;
    for w in chosen {
        let (w, seconds) = if args.quick {
            (w.quick(), args.seconds.unwrap_or(1.5))
        } else {
            (w, args.seconds.unwrap_or(RUN_SECONDS as f64))
        };
        let out = run::run(&w, seed, seconds, args.trace)?;
        print_output(&w, &out, args.trace, args.quick)?;
        correct &= out.tally.failed == 0;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an output differed from its reference, or a repeated run disagreed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload svc_bulk --seed 7 --seconds 24 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("svc_bulk"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (Some(7), Some(24.0), true, false)
        );
        assert!(!parse("--workload x --trace 0").unwrap().trace);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "--trace",
            "--trace yes",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--runs 1",
            "--bogus",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
