//! `cts` — the command-line face of the reproduction.
//!
//! ```text
//! cts gen    --records 100000 --out data.bin [--seed 7] [--skew 0.6]
//! cts sort   --input data.bin --k 8 --r 3 [--pods 4] [--sampled 16]
//!            [--tcp] [--fabric fanout] [--decode quorum]
//!            [--idle-timeout-ms 10000] [--paper-nic] [--timeline trace.json]
//! cts serve  --k 4 --r 2 --port 0 [--tcp] [--max-concurrent 4] [--queue 16]
//!            [--metrics-port 9100]
//! cts submit --addr 127.0.0.1:7117 --records 10000 [--r 2]
//!            [--timeline trace.json]
//! cts stats  --addr 127.0.0.1:7117
//! cts model  --k 16 --r 3 [--records 120000] [--target-gb 12]
//! cts theory --k 16 [--tmap 1.86 --tshuffle 945.72 --treduce 10.47]
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use bytes::Bytes;
use coded_terasort::bench::Experiment;
use coded_terasort::prelude::*;

/// `println!` for a subcommand: a stdout that is gone (`cts theory | head
/// -1`) ends the subcommand with its `error:` line instead of a panic.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_gone)?
    };
}

fn stdout_gone(e: std::io::Error) -> String {
    format!("writing stdout: {e}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (run, known): (Subcommand, &[&str]) = match cmd.as_str() {
        "gen" => (cmd_gen, GEN_FLAGS),
        "sort" => (cmd_sort, SORT_FLAGS),
        "serve" => (cmd_serve, SERVE_FLAGS),
        "submit" => (cmd_submit, SUBMIT_FLAGS),
        "stats" => (cmd_stats, STATS_FLAGS),
        "model" => (cmd_model, MODEL_FLAGS),
        "theory" => (cmd_theory, THEORY_FLAGS),
        "help" | "--help" | "-h" => return usage(),
        other => {
            eprintln!("error: unknown command `{other}`");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_flags(rest, known) {
        Ok(Some(o)) => o,
        Ok(None) => return usage(),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints USAGE for `--help`.
fn usage() -> ExitCode {
    match writeln!(std::io::stdout(), "{USAGE}") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", stdout_gone(e));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cts — Coded TeraSort reproduction CLI

USAGE:
  cts gen    --records N --out FILE [--seed S] [--skew F]
               generate TeraGen records (100 B each; --skew F → hot fraction, 0..=1)
  cts sort   --input FILE --k K [--r R] [--pods G] [--sampled STRIDE]
               [--tcp] [--no-validate]
               [--fabric serial-unicast|fanout|multicast]
               [--decode all|quorum] [--paper-nic]
               [--timeline FILE]
               sort a file on the one engine, one thread per node, each
               partition sorted with the paper's std::sort: r=1 →
               TeraSort, r>1 → CodedTeraSort, --pods G → coding inside
               pods of G nodes,
               --fabric → how multicast groups hit the wire (multicast =
                 one crossing per group send, default; fanout = the
                 paper's MPI_Bcast, one copy per receiver),
               --decode → coded decode discipline (all = the paper's
                 barrier-on-all, default; quorum = release each group once
                 any r-1 of r coded packets arrive — a single-parity XOR
                 code, the shuffle outruns stragglers; same sorted output),
               --idle-timeout-ms N → shuffle zero-progress deadline,
                 either decode (default 10000),
               --paper-nic → emulate the paper's 100 Mbps NIC in real time,
               --timeline → write the run's per-rank stage timeline as
                 Chrome trace-event JSON (open in chrome://tracing)
  cts serve  --k K [--r R] [--port P] [--tcp] [--max-concurrent N]
               [--queue N] [--metrics-port P]
               run the multi-tenant sort service: a resident job runtime
               (shared fabric + admission queue) that clients submit
               sort jobs into. --port 0 picks an ephemeral
               port and prints it. --tcp backs the fabric with real
               sockets; --max-concurrent bounds in-flight jobs (1..=63,
               one dispatcher thread each); --queue bounds admitted-
               but-not-running jobs (beyond it, submits are refused);
               --metrics-port binds a Prometheus text endpoint
               (`curl http://127.0.0.1:P/metrics`). SIGINT/SIGTERM drain
               gracefully: admission stops, in-flight jobs finish, exit 0
  cts submit --addr HOST:PORT (--input FILE | --records N [--seed S])
               [--r R] [--out FILE] [--no-wait] [--shutdown]
               [--timeline FILE]
               submit a sort of the TeraGen records in FILE (or of N
               generated ones) to a running `cts serve`. Default waits and
               prints the result digest; --out also fetches the full
               output; --no-wait prints the job id and returns;
               --timeline writes the job's per-rank stage timeline as
               Chrome trace-event JSON (open in chrome://tracing);
               --shutdown (alone) stops the service
  cts stats  --addr HOST:PORT
               print a running service's live stats: job lifecycle
               counts, admission queue, results evicted, stage-latency
               summary (p50/p99/max), and a row per job the daemon still
               holds (the last 64 finished / 256 MiB, plus those in
               flight) with its stage walls and NIC stalls
  cts model  --k K --r R [--records N] [--target-gb G]
               modeled paper-scale stage breakdown (EC2 calibration)
  cts theory --k K [--tmap S --tshuffle S --treduce S]
               communication loads and the optimal r* (eqs. (2),(4),(5))";

type Flags = HashMap<String, String>;

/// A subcommand's body: it reads its flags and reports misuse as `Err`.
type Subcommand = fn(&Flags) -> Result<(), String>;

/// Reads `args` as the flags of a subcommand that knows only `known`:
/// `None` when they ask for help (`--help` / `-h`), an error naming the
/// first flag the subcommand would not read.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Option<Flags>, String> {
    let mut out = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{arg}`"));
        };
        if !known.contains(&name) {
            return Err(format!("unknown flag `--{name}`"));
        }
        // Boolean flags take no value.
        if matches!(
            name,
            "tcp" | "no-validate" | "paper-nic" | "no-wait" | "shutdown"
        ) {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(Some(out))
}

fn req<T: std::str::FromStr>(opts: &Flags, name: &str) -> Result<T, String> {
    opts.get(name)
        .ok_or_else(|| format!("--{name} is required"))?
        .parse()
        .map_err(|_| format!("--{name}: cannot parse `{}`", opts[name]))
}

fn opt<T: std::str::FromStr>(opts: &Flags, name: &str, default: T) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

/// A named choice (`--fabric fanout`): the option type's own parser and
/// error text, its own default when the flag is absent.
fn choice<T>(opts: &Flags, name: &str) -> Result<T, String>
where
    T: std::str::FromStr<Err = String> + Default,
{
    opts.get(name)
        .map_or_else(|| Ok(T::default()), |v| v.parse())
}

const GEN_FLAGS: &[&str] = &["records", "out", "seed", "skew"];

fn cmd_gen(opts: &Flags) -> Result<(), String> {
    let records: usize = req(opts, "records")?;
    let out: String = req(opts, "out")?;
    let seed: u64 = opt(opts, "seed", 2017)?;
    let skew: f64 = opt(opts, "skew", 0.0)?;
    if !(0.0..=1.0).contains(&skew) {
        return Err(format!("--skew: {skew} is not a hot fraction in [0, 1]"));
    }
    let data = if skew > 0.0 {
        cts_terasort::teragen::generate_skewed(records, seed, skew, 16)
    } else {
        teragen::generate(records, seed)
    };
    std::fs::write(&out, &data).map_err(|e| format!("writing {out}: {e}"))?;
    say!(
        "wrote {} records ({:.1} MB) to {out}",
        records,
        data.len() as f64 / 1e6
    );
    Ok(())
}

const SORT_FLAGS: &[&str] = &[
    "input",
    "k",
    "r",
    "pods",
    "sampled",
    "tcp",
    "no-validate",
    "paper-nic",
    "fabric",
    "decode",
    "idle-timeout-ms",
    "timeline",
];

fn cmd_sort(opts: &Flags) -> Result<(), String> {
    let input_path: String = req(opts, "input")?;
    let k: usize = req(opts, "k")?;
    let r: usize = opt(opts, "r", 1)?;
    let pods: usize = opt(opts, "pods", 0)?;
    let sampled: usize = opt(opts, "sampled", 0)?;
    let tcp = opts.contains_key("tcp");
    let validate = !opts.contains_key("no-validate");
    let paper_nic = opts.contains_key("paper-nic");
    let fabric: cts_net::ShuffleFabric = choice(opts, "fabric")?;
    let decode: cts_core::decode::DecodeMode = choice(opts, "decode")?;
    if decode == cts_core::decode::DecodeMode::Quorum && r <= 1 {
        return Err("--decode quorum needs --r 2 or more (no coded groups at r = 1)".to_string());
    }
    let idle_timeout_ms: u64 = opt(opts, "idle-timeout-ms", 10_000)?;

    let raw = std::fs::read(&input_path).map_err(|e| format!("reading {input_path}: {e}"))?;
    let input = Bytes::from(raw);
    say!(
        "sorting {:.1} MB with K = {k}, r = {r}{}{} over {}…",
        input.len() as f64 / 1e6,
        if pods > 0 {
            format!(", pods of {pods}")
        } else {
            String::new()
        },
        if sampled > 0 { ", sampled" } else { "" },
        if tcp { "TCP" } else { "in-memory channels" },
    );

    // One engine configuration, one job, one call: the layout (r = 1, coded,
    // pods) is the engine's reading of it.
    let engine = if tcp {
        EngineConfig::tcp(k, r)
    } else {
        EngineConfig::local(k, r)
    };
    let mut engine = engine
        .with_pods(pods)
        .with_fabric(fabric)
        .with_decode(decode)
        .with_idle_timeout(std::time::Duration::from_millis(idle_timeout_ms));
    if decode == cts_core::decode::DecodeMode::Quorum {
        say!(
            "decode: quorum (any {} of {r} coded packets release a group)",
            cts_core::segment::mds_parts(r + 1)
        );
    }
    if paper_nic {
        engine = engine.with_nic(cts_net::NicProfile::paper_100mbps());
        say!("emulating the paper's NIC: 100 Mbps egress, 0.1 ms/transfer, α = 0.30");
    }
    let mut job = SortJob::new(engine);
    if sampled > 0 {
        job = job.with_sampling(sampled);
    }

    let started = std::time::Instant::now();
    let outcome = run_coded_terasort(input.clone(), &job)
        .map_err(|e| e.to_string())?
        .outcome;
    let elapsed = started.elapsed();

    if validate {
        cts_terasort::validate(&input, &outcome.outputs)
            .map_err(|e| format!("TeraValidate: {e}"))?;
        say!("TeraValidate passed ✓");
    }
    say!("wall-clock: {elapsed:.2?}");
    let wall = outcome.wall.max;
    say!("stage walls, slowest rank each: {wall:.1?}");
    say!("{}", outcome.schedule.describe(outcome.outputs.len()));
    // The stages overlap: a rank maps, encodes and decodes while its NIC drains.
    let (job_s, stages_s) = (outcome.wall.job.as_secs_f64(), wall.total().as_secs_f64());
    let hidden_s = outcome.wall.hidden().as_secs_f64();
    say!("job {job_s:.3} s; stages Σ {stages_s:.3} s; {hidden_s:.3} s hidden behind the NIC");
    if let Some(path) = opts.get("timeline") {
        std::fs::write(path, coded_terasort::mapreduce::chrome_trace(&outcome, 0))
            .map_err(|e| format!("writing {path}: {e}"))?;
        say!("stage timeline written to {path}");
    }
    if paper_nic {
        // The least the Shuffle can take: the busiest rank's booked NIC time.
        let shuffle_s = wall.shuffle.as_secs_f64();
        let floor_s = cts_net::NicLedger::egress_floor(&outcome.nic).as_secs_f64();
        let cpu_s = stages_s - shuffle_s;
        say!(
            "job = {:.2}× max(egress floor {floor_s:.3} s, Σ CPU stages {cpu_s:.3} s)",
            job_s / floor_s.max(cpu_s)
        );
        say!(
            "shuffle: {shuffle_s:.3} s = {:.2}× the egress floor {floor_s:.3} s",
            shuffle_s / floor_s
        );
        // What the Shuffle left over: a rank reduces as its pieces land.
        let overlaps = coded_terasort::mapreduce::ReduceOverlap::of(&outcome.spans);
        let tail = overlaps.iter().map(|o| o.tail).max().unwrap_or_default();
        let slowest = overlaps.iter().max_by_key(|o| o.busy).copied();
        let (busy, after) = slowest.map_or_else(Default::default, |o| (o.busy, o.after_shuffle));
        say!(
            "tail after the Shuffle: {:.1} ms (Reduce {:.1} ms busy, {:.1} ms of it inside the Shuffle)",
            tail.as_secs_f64() * 1e3,
            busy.as_secs_f64() * 1e3,
            (busy - after).as_secs_f64() * 1e3
        );
    }
    say!("{}", cts_core::pool::global().stats());
    say!(
        "shuffle: {} bytes across the wire (load {:.4}; TeraSort baseline {:.4})",
        outcome.stats.shuffle_bytes(),
        outcome.stats.comm_load(input.len() as u64),
        theory::uncoded_comm_load(1, k),
    );
    let largest = outcome.outputs.iter().map(Vec::len).max().unwrap_or(0);
    say!(
        "largest partition: {:.3} of the records",
        largest as f64 / input.len().max(1) as f64
    );
    Ok(())
}

const SERVE_FLAGS: &[&str] = &[
    "k",
    "r",
    "port",
    "max-concurrent",
    "queue",
    "tcp",
    "metrics-port",
];

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    let k: usize = req(opts, "k")?;
    let r: usize = opt(opts, "r", 1)?;
    let port: u16 = opt(opts, "port", 7117)?;
    let max_concurrent: usize = opt(opts, "max-concurrent", 4)?;
    let queue: usize = opt(opts, "queue", 16)?;
    let tcp = opts.contains_key("tcp");

    let template = if tcp {
        EngineConfig::tcp(k, r)
    } else {
        EngineConfig::local(k, r)
    };
    let cfg = RuntimeConfig::new(template)
        .with_max_concurrent(max_concurrent)
        .with_queue_capacity(queue);
    let mut service = SortService::bind(("127.0.0.1", port), cfg).map_err(|e| e.to_string())?;
    let addr = service.local_addr().map_err(|e| e.to_string())?;
    say!(
        "cts serve listening on {addr} (K = {k}, default r = {r}, {} fabric, \
         {max_concurrent} concurrent jobs, queue depth {queue})",
        if tcp { "TCP" } else { "in-memory" },
    );
    if let Some(mp) = opts.get("metrics-port") {
        let mport: u16 = mp
            .parse()
            .map_err(|_| format!("--metrics-port: cannot parse `{mp}`"))?;
        let maddr = service.serve_metrics(("127.0.0.1", mport))?;
        say!("metrics endpoint: curl http://{maddr}/metrics");
    }
    say!("submit with: cts submit --addr {addr} --records 1000");
    signals::install(addr).map_err(|e| format!("signal connection: {e}"))?;
    service.run()
}

/// SIGINT/SIGTERM → the service's SHUTDOWN frame, written by the handler
/// itself on a connection opened beforehand: `write(2)` is
/// async-signal-safe, and the frame reaches the daemon the way any
/// client's would, so nothing has to poll a flag. Registered through the
/// raw C `signal` entry point.
#[cfg(unix)]
mod signals {
    use std::os::fd::IntoRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    static FD: AtomicI32 = AtomicI32::new(-1);

    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_sig: i32) {
        let frame = &cts_terasort::service::SHUTDOWN_FRAME;
        // SAFETY: `write` reads `frame.len()` bytes of a constant; the
        // descriptor is the never-closed socket `install` stored.
        unsafe { write(FD.load(Ordering::SeqCst), frame.as_ptr(), frame.len()) };
    }

    pub fn install(service: std::net::SocketAddr) -> std::io::Result<()> {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let conn = std::net::TcpStream::connect(service)?;
        FD.store(conn.into_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_signal` has the handler type `signal` expects and
        // makes only an async-signal-safe call.
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
        Ok(())
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install(_service: std::net::SocketAddr) -> std::io::Result<()> {
        Ok(())
    }
}

const STATS_FLAGS: &[&str] = &["addr"];

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let addr: String = req(opts, "addr")?;
    let mut client = ServiceClient::connect(&*addr)?;
    write!(std::io::stdout(), "{}", client.stats()?).map_err(stdout_gone)?;
    Ok(())
}

const SUBMIT_FLAGS: &[&str] = &[
    "addr", "shutdown", "r", "input", "records", "seed", "no-wait", "out", "timeline",
];

fn cmd_submit(opts: &Flags) -> Result<(), String> {
    let addr: String = req(opts, "addr")?;
    let mut client = ServiceClient::connect(&*addr)?;
    if opts.contains_key("shutdown") {
        client.shutdown()?;
        say!("service at {addr} shutting down");
        return Ok(());
    }

    let r: usize = opt(opts, "r", 1)?;

    let input: Vec<u8> = match opts.get("input") {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => {
            let records: usize = req(opts, "records")
                .map_err(|_| "--input FILE or --records N is required".to_string())?;
            let seed: u64 = opt(opts, "seed", 2017)?;
            teragen::generate(records, seed).to_vec()
        }
    };

    let id = client.submit(&JobKind::Sort, r, &input)?;
    say!(
        "job {id} submitted: sort, r = {r}, {:.1} KB input",
        input.len() as f64 / 1e3
    );
    if opts.contains_key("no-wait") {
        return Ok(());
    }

    let digest = client.digest(id)?;
    let total_bytes: u64 = digest.partitions.iter().map(|(len, _)| len).sum();
    say!(
        "job {id} done: {} partitions, {total_bytes} output bytes, digest {:016x}",
        digest.partitions.len(),
        digest.total
    );
    for (p, (len, hash)) in digest.partitions.iter().enumerate() {
        say!("  partition {p}: {len:>10} bytes  xxh64 {hash:016x}");
    }
    if let Some(out) = opts.get("out") {
        let outputs = client.fetch(id)?;
        let mut all = Vec::with_capacity(total_bytes as usize);
        for o in &outputs {
            all.extend_from_slice(o);
        }
        std::fs::write(out, &all).map_err(|e| format!("writing {out}: {e}"))?;
        say!("wrote {} bytes to {out}", all.len());
    }
    if let Some(path) = opts.get("timeline") {
        let json = client.timeline(id)?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        say!(
            "wrote stage timeline ({} bytes) to {path} — load in chrome://tracing",
            json.len()
        );
    }
    Ok(())
}

const MODEL_FLAGS: &[&str] = &["k", "r", "records", "target-gb"];

fn cmd_model(opts: &Flags) -> Result<(), String> {
    let k: usize = req(opts, "k")?;
    let r: usize = req(opts, "r")?;
    let records: usize = opt(opts, "records", 120_000)?;
    let target_gb: f64 = opt(opts, "target-gb", 12.0)?;
    if records == 0 {
        return Err("--records 0: there is nothing to model".into());
    }
    // The shape the engine would refuse, refused in its words before a run.
    EngineConfig::local(k, r)
        .check()
        .map_err(|e| e.to_string())?;
    let exp = Experiment {
        k,
        records,
        target_bytes: (target_gb * 1e9) as u64,
        seed: 2017,
    };
    let base = exp.run(1);
    let rows = if r > 1 {
        let coded = exp.run(r);
        vec![base.row(None), coded.row(Some(&base.breakdown))]
    } else {
        vec![base.row(None)]
    };
    say!(
        "{}",
        render_table(
            &format!("modeled at {target_gb} GB, K = {k}, 100 Mbps (EC2 calibration)"),
            &rows
        )
    );
    Ok(())
}

const THEORY_FLAGS: &[&str] = &["k", "tmap", "tshuffle", "treduce"];

fn cmd_theory(opts: &Flags) -> Result<(), String> {
    let k: usize = req(opts, "k")?;
    if k == 0 {
        return Err("--k 0: a cluster has at least one node".into());
    }
    say!("communication loads at K = {k}:");
    say!("{:>3} {:>12} {:>12}", "r", "uncoded", "CMR");
    for r in 1..=k {
        say!(
            "{r:>3} {:>12.4} {:>12.4}",
            theory::uncoded_comm_load(r, k),
            theory::coded_comm_load(r, k)
        );
    }
    if let (Ok(tm), Ok(ts), Ok(tr)) = (
        req::<f64>(opts, "tmap"),
        req::<f64>(opts, "tshuffle"),
        req::<f64>(opts, "treduce"),
    ) {
        let r_star = theory::optimal_r(tm, ts, tr, k);
        say!(
            "\nr* = {r_star} (√(Ts/Tm) = {:.2}); predicted total at r*: {:.1} s vs baseline {:.1} s",
            theory::optimal_r_real(tm, ts),
            theory::predicted_total_time(r_star, tm, ts, tr),
            tm + ts + tr,
        );
    }
    Ok(())
}
