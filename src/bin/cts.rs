//! `cts` — the command-line face of the reproduction.
//!
//! ```text
//! cts gen    --records 100000 --out data.bin [--seed 7] [--skew 0.6]
//! cts sort   --input data.bin --k 8 --r 3 [--pods 4] [--sampled 16]
//!            [--tcp] [--sort-kernel key-index] [--threads 4]
//!            [--fabric fanout] [--field gf256] [--decode quorum]
//!            [--recovery speculative] [--heartbeat-ms 25]
//!            [--idle-timeout-ms 10000] [--paper-nic] [--timeline trace.json]
//! cts serve  --k 4 --r 2 --port 0 [--tcp] [--max-concurrent 4] [--queue 16]
//!            [--metrics-port 9100]
//! cts submit --addr 127.0.0.1:7117 --kind sort --records 10000 [--r 2]
//!            [--timeline trace.json]
//! cts stats  --addr 127.0.0.1:7117
//! cts model  --k 16 --r 3 [--records 120000] [--target-gb 12]
//! cts theory --k 16 [--tmap 1.86 --tshuffle 945.72 --treduce 10.47]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use bytes::Bytes;
use coded_terasort::bench::Experiment;
use coded_terasort::prelude::*;
use cts_netsim::{egress_floor_s, predict_fabric_shuffle_s, NetModelConfig, SHUFFLE_STAGE};

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
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_flags(rest, known) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
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

const USAGE: &str = "\
cts — Coded TeraSort reproduction CLI

USAGE:
  cts gen    --records N --out FILE [--seed S] [--skew F]
               generate TeraGen records (100 B each; --skew hot-fraction)
  cts sort   --input FILE --k K [--r R] [--pods G] [--sampled STRIDE]
               [--tcp] [--no-validate]
               [--sort-kernel comparison|key-index] [--threads T]
               [--fabric serial-unicast|fanout|multicast]
               [--field gf2|gf256] [--decode all|quorum] [--paper-nic]
               [--timeline FILE]
               sort a file on the one engine: r=1 → TeraSort, r>1 →
               CodedTeraSort, --pods G → coding inside pods of G nodes,
               --sort-kernel → Reduce sort algorithm,
               --threads → intra-node workers for
                 Map/Encode/Decode/Reduce (0 = all cores),
               --field → finite field for coded packets (gf2 = the
                 paper's XOR code, default; gf256 = q-ary combinations on
                 SIMD kernels — same sorted output, different wire bytes),
               --fabric → how multicast groups hit the wire (multicast =
                 one crossing per group send, default; fanout = the
                 paper's MPI_Bcast, one copy per receiver),
               --decode → coded decode discipline (all = the paper's
                 barrier-on-all, default; quorum = release each group once
                 any r-1 of r coded packets arrive — GF(256) MDS code, the
                 shuffle outruns stragglers; same sorted output),
               --recovery off|speculative → rank-death handling (off =
                 fail fast with a typed error, default; speculative =
                 heartbeat failure detection + re-execution of the dead
                 rank's work on survivors; needs --field gf256
                 --decode quorum and r >= 2; same sorted output),
               --heartbeat-ms N → health beacon interval (death declared
                 after ~36 silent intervals; default 25),
               --idle-timeout-ms N → quorum shuffle zero-progress
                 deadline (default 10000),
               --paper-nic → emulate the paper's 100 Mbps NIC in real time,
               --timeline → write the run's per-rank stage timeline as
                 Chrome trace-event JSON (open in chrome://tracing)
  cts serve  --k K [--r R] [--port P] [--tcp] [--max-concurrent N]
               [--queue N] [--threads T] [--metrics-port P]
               run the multi-tenant sort service: a resident job runtime
               (shared fabric + admission queue) that clients submit
               sort/wordcount/grep jobs into. --port 0 picks an ephemeral
               port and prints it. --tcp backs the fabric with real
               sockets; --max-concurrent bounds in-flight jobs (1 =
               exclusive mode, full tag space); --queue bounds admitted-
               but-not-running jobs (beyond it, submits are refused);
               --threads sets every job's intra-node workers, as for
               `cts sort` (default 1, 0 = all cores); --metrics-port
               binds a Prometheus text endpoint
               (`curl http://127.0.0.1:P/metrics`). SIGINT/SIGTERM drain
               gracefully: admission stops, in-flight jobs finish, exit 0
  cts submit --addr HOST:PORT --kind sort|wordcount|grep
               (--input FILE | --records N [--seed S]) [--pattern P]
               [--r R] [--out FILE] [--no-wait] [--shutdown]
               [--timeline FILE]
               submit a job to a running `cts serve`. Default waits and
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
    let data = if skew > 0.0 {
        cts_terasort::teragen::generate_skewed(records, seed, skew, 16)
    } else {
        teragen::generate(records, seed)
    };
    std::fs::write(&out, &data).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
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
    "threads",
    "sort-kernel",
    "fabric",
    "field",
    "decode",
    "recovery",
    "heartbeat-ms",
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
    let threads: usize = opt(opts, "threads", 1)?;
    let kernel: SortKernel = choice(opts, "sort-kernel")?;
    let fabric: cts_net::ShuffleFabric = choice(opts, "fabric")?;
    let field: cts_core::FieldKind = choice(opts, "field")?;
    let decode: cts_core::decode::DecodeMode = choice(opts, "decode")?;
    if decode == cts_core::decode::DecodeMode::Quorum && r <= 1 {
        return Err("--decode quorum needs --r 2 or more (no coded groups at r = 1)".to_string());
    }
    let recovery: coded_terasort::mapreduce::RecoveryMode = choice(opts, "recovery")?;
    let heartbeat_ms: u64 = opt(opts, "heartbeat-ms", 25)?;
    let idle_timeout_ms: u64 = opt(opts, "idle-timeout-ms", 10_000)?;

    let raw = std::fs::read(&input_path).map_err(|e| format!("reading {input_path}: {e}"))?;
    let input = Bytes::from(raw);
    println!(
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
        .with_threads(threads)
        .with_fabric(fabric)
        .with_field(field)
        .with_decode(decode)
        .with_recovery(recovery)
        .with_heartbeat(std::time::Duration::from_millis(heartbeat_ms))
        .with_idle_timeout(std::time::Duration::from_millis(idle_timeout_ms));
    if recovery == coded_terasort::mapreduce::RecoveryMode::Speculative {
        println!(
            "recovery: speculative ({heartbeat_ms} ms heartbeats; a dead rank's partition is \
             re-executed on its successor)"
        );
    }
    if decode == cts_core::decode::DecodeMode::Quorum {
        println!(
            "decode: quorum (any {} of {r} coded packets release a group)",
            cts_core::solve::mds_parts(r + 1)
        );
    }
    if field == cts_core::FieldKind::Gf256 {
        println!(
            "coding field: GF(256), kernel {}",
            cts_core::Gf256Kernel::active()
        );
    }
    let nic = cts_net::NicProfile::paper_100mbps();
    if paper_nic {
        engine = engine.with_nic(nic);
        println!("emulating the paper's NIC: 100 Mbps egress, 0.1 ms/transfer, α = 0.30");
    }
    let mut job = SortJob::new(engine).with_kernel(kernel);
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
        println!("TeraValidate passed ✓");
    }
    println!("wall-clock: {elapsed:.2?}");
    let wall = outcome.wall.max;
    println!("stage walls, slowest rank each: {wall:.1?}");
    // The stages overlap: a rank maps, encodes and decodes while its NIC drains.
    let (job_s, stages_s) = (outcome.wall.job.as_secs_f64(), wall.total().as_secs_f64());
    let hidden_s = outcome.wall.hidden().as_secs_f64();
    println!("job {job_s:.3} s; stages Σ {stages_s:.3} s; {hidden_s:.3} s hidden behind the NIC");
    if let Some(path) = opts.get("timeline") {
        std::fs::write(path, coded_terasort::mapreduce::chrome_trace(&outcome, 0))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("stage timeline written to {path}");
    }
    if paper_nic {
        // The emulated NIC shapes egress only; the fluid model caps ingress too.
        let net = NetModelConfig::of_nic(&nic);
        let shuffle_s = wall.shuffle.as_secs_f64();
        let floor_s = egress_floor_s(&outcome.trace, SHUFFLE_STAGE, fabric, &net);
        let cpu_s = stages_s - shuffle_s;
        println!(
            "job = {:.2}× max(egress floor {floor_s:.3} s, Σ CPU stages {cpu_s:.3} s)",
            job_s / floor_s.max(cpu_s)
        );
        let fluid_s = predict_fabric_shuffle_s(&outcome.trace, SHUFFLE_STAGE, fabric, &net, 1.0);
        println!(
            "shuffle: {shuffle_s:.3} s = {:.2}× the egress floor {floor_s:.3} s \
             (fluid model with ingress caps: {fluid_s:.3} s)",
            shuffle_s / floor_s
        );
        // What the Shuffle left over: a rank reduces as its pieces land.
        let overlaps = coded_terasort::mapreduce::ReduceOverlap::of(&outcome.spans);
        let tail = overlaps.iter().map(|o| o.tail).max().unwrap_or_default();
        let slowest = overlaps.iter().max_by_key(|o| o.busy).copied();
        let (busy, after) = slowest.map_or_else(Default::default, |o| (o.busy, o.after_shuffle));
        println!(
            "tail after the Shuffle: {:.1} ms (Reduce {:.1} ms busy, {:.1} ms of it inside the Shuffle)",
            tail.as_secs_f64() * 1e3,
            busy.as_secs_f64() * 1e3,
            (busy - after).as_secs_f64() * 1e3
        );
    }
    println!("{}", cts_core::pool::global().stats());
    println!(
        "shuffle: {} bytes across the wire (load {:.4}; TeraSort baseline {:.4})",
        outcome.stats.shuffle_bytes(),
        outcome.stats.comm_load(input.len() as u64),
        theory::uncoded_comm_load(1, k),
    );
    let largest = outcome.outputs.iter().map(Vec::len).max().unwrap_or(0);
    println!(
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
    "threads",
    "tcp",
    "metrics-port",
];

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    let k: usize = req(opts, "k")?;
    let r: usize = opt(opts, "r", 1)?;
    let port: u16 = opt(opts, "port", 7117)?;
    let max_concurrent: usize = opt(opts, "max-concurrent", 4)?;
    let queue: usize = opt(opts, "queue", 16)?;
    let threads: usize = opt(opts, "threads", 1)?;
    let tcp = opts.contains_key("tcp");

    let template = if tcp {
        EngineConfig::tcp(k, r)
    } else {
        EngineConfig::local(k, r)
    };
    let cfg = RuntimeConfig::new(template.with_threads(threads))
        .with_max_concurrent(max_concurrent)
        .with_queue_capacity(queue);
    let mut service = SortService::bind(("127.0.0.1", port), cfg).map_err(|e| e.to_string())?;
    let addr = service.local_addr().map_err(|e| e.to_string())?;
    println!(
        "cts serve listening on {addr} (K = {k}, default r = {r}, {} fabric, \
         {max_concurrent} concurrent jobs, queue depth {queue}, {} per node)",
        if tcp { "TCP" } else { "in-memory" },
        match threads {
            0 => "all cores".to_string(),
            t => format!("{t} worker threads"),
        },
    );
    if let Some(mp) = opts.get("metrics-port") {
        let mport: u16 = mp
            .parse()
            .map_err(|_| format!("--metrics-port: cannot parse `{mp}`"))?;
        let maddr = service.serve_metrics(("127.0.0.1", mport))?;
        println!("metrics endpoint: curl http://{maddr}/metrics");
    }
    println!("submit with: cts submit --addr {addr} --kind sort --records 1000");
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
    print!("{}", client.stats()?);
    Ok(())
}

const SUBMIT_FLAGS: &[&str] = &[
    "addr", "shutdown", "kind", "pattern", "r", "input", "records", "seed", "no-wait", "out",
    "timeline",
];

fn cmd_submit(opts: &Flags) -> Result<(), String> {
    let addr: String = req(opts, "addr")?;
    let mut client = ServiceClient::connect(&*addr)?;
    if opts.contains_key("shutdown") {
        client.shutdown()?;
        println!("service at {addr} shutting down");
        return Ok(());
    }

    let kind_name: String = req(opts, "kind")?;
    let kind = match kind_name.as_str() {
        "sort" => JobKind::Sort,
        "wordcount" => JobKind::WordCount,
        "grep" => {
            let pattern: String = req(opts, "pattern")?;
            JobKind::Grep(pattern.into_bytes())
        }
        other => return Err(format!("--kind: unknown job kind `{other}`")),
    };
    let r: usize = opt(opts, "r", 1)?;

    let input: Vec<u8> = match opts.get("input") {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?,
        None if kind == JobKind::Sort => {
            let records: usize = req(opts, "records")
                .map_err(|_| "--input FILE or --records N is required".to_string())?;
            let seed: u64 = opt(opts, "seed", 2017)?;
            teragen::generate(records, seed).to_vec()
        }
        None => return Err("--input FILE is required for this kind".to_string()),
    };

    let id = client.submit(&kind, r, &input)?;
    println!(
        "job {id} submitted: {kind_name}, r = {r}, {:.1} KB input",
        input.len() as f64 / 1e3
    );
    if opts.contains_key("no-wait") {
        return Ok(());
    }

    let digest = client.digest(id)?;
    let total_bytes: u64 = digest.partitions.iter().map(|(len, _)| len).sum();
    println!(
        "job {id} done: {} partitions, {total_bytes} output bytes, digest {:016x}",
        digest.partitions.len(),
        digest.total
    );
    for (p, (len, hash)) in digest.partitions.iter().enumerate() {
        println!("  partition {p}: {len:>10} bytes  xxh64 {hash:016x}");
    }
    if let Some(out) = opts.get("out") {
        let outputs = client.fetch(id)?;
        let mut all = Vec::with_capacity(total_bytes as usize);
        for o in &outputs {
            all.extend_from_slice(o);
        }
        std::fs::write(out, &all).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {} bytes to {out}", all.len());
    }
    if let Some(path) = opts.get("timeline") {
        let json = client.timeline(id)?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
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
    println!(
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
    println!("communication loads at K = {k}:");
    println!("{:>3} {:>12} {:>12}", "r", "uncoded", "CMR");
    for r in 1..=k {
        println!(
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
        println!(
            "\nr* = {r_star} (√(Ts/Tm) = {:.2}); predicted total at r*: {:.1} s vs baseline {:.1} s",
            theory::optimal_r_real(tm, ts),
            theory::predicted_total_time(r_star, tm, ts, tr),
            tm + ts + tr,
        );
    }
    Ok(())
}
