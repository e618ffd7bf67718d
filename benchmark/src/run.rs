//! One benchmark run: set-up, the measured window, and the metrics derived
//! from it — end-to-end on a plain run, per-layer on a traced one.

use std::time::{Duration, Instant};

use cts_net::rate::NicProfile;
use cts_netsim::config::NetModelConfig;
use cts_netsim::{predict_fabric_shuffle_s, serial_fabric_makespan, SHUFFLE_STAGE};

use crate::oneshot::{self, Call, Prepared};
use crate::procstat::{live_threads_cpu_ns, peak_rss_mb, ProcSample};
use crate::report::{Metrics, Tally};
use crate::resident::{self, ClientData, Daemons, Drive, Fetch, Job, Plan};
use crate::spans::{self, Recorder, Span};
use crate::spec::{Path, Variant, Workload, STAGES};
use crate::stats::{highest_supported_percentile, median, quantile};
use crate::{probes, trace_path};

/// Times the set-up is repeated; `setup_s` is their median. Plain and traced
/// runs repeat it alike, because what earlier set-ups leave in the
/// allocator changes how fast the measured calls run (see README,
/// "Defects this benchmark surfaced").
const SETUPS: usize = 3;

/// Warm-up and minimum jobs per client: one of each variant.
const ROUND_OF_JOBS: usize = Variant::ALL.len();

/// Shares of a traced run's `--seconds`: the workload's own path, each of
/// the two other paths, and all isolated probes together.
const MAIN_SHARE: f64 = 0.5;
const SIDE_SHARE: f64 = 0.15;
const PROBES_SHARE: f64 = 0.2;

/// What a run produced.
pub struct Output {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric of the run's kind, by name.
    pub metrics: Metrics,
    /// Lines for the human reader: sample counts and distributions.
    pub notes: Vec<String>,
}

/// Runs `w` once: a plain run for the end-to-end metrics, or a traced run
/// for the per-layer metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Output, String> {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return Err("the load generator needs at least 2 cores (2 client threads)".into());
    }
    let mut tally = Tally::default();
    let (ready, setup_s) = set_up(w, seed, &mut tally)?;
    let (metrics, notes) = if trace {
        traced(w, seed, seconds, ready, &mut tally)?
    } else {
        plain(w, seconds, ready, setup_s, &mut tally)?
    };
    Ok(Output {
        tally,
        metrics,
        notes,
    })
}

/// Everything in place for the first measured job of the workload's path.
enum Ready {
    /// Input, reference and shapes of the one-shot job.
    OneShot(Prepared),
    /// Warmed-up daemons and the clients' data.
    Service {
        daemons: Daemons,
        data: ClientData,
        fetch: bool,
    },
}

/// Sets the workload up [`SETUPS`] times, keeping the last; returns it with
/// the median set-up time in seconds. A set-up is TeraGen, the reference
/// output (and digest), daemon boot on the service path, and one discarded
/// warm-up round of each variant.
fn set_up(w: &Workload, seed: u64, tally: &mut Tally) -> Result<(Ready, f64), String> {
    let mut durations = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(Ready::Service { daemons, .. }) = kept.take() {
            daemons.shutdown()?;
        }
        let t0 = Instant::now();
        kept = Some(match w.path {
            Path::OneShot => Ready::OneShot(oneshot::prepare(w, seed, tally)?),
            Path::Service { fetch } => {
                let data = ClientData::generate(w, seed, tally)?;
                let daemons = Daemons::boot(w)?;
                let warm_up = Plan {
                    window: Duration::ZERO,
                    min_jobs: ROUND_OF_JOBS,
                    fetch: if fetch { Fetch::InJob } else { Fetch::No },
                    recorder: None,
                };
                resident::drive(w, &daemons, &data, &warm_up, tally)?;
                Ready::Service {
                    daemons,
                    data,
                    fetch,
                }
            }
        });
        durations.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("set up at least once"), median(&durations)))
}

fn plain(
    w: &Workload,
    seconds: f64,
    ready: Ready,
    setup_s: f64,
    tally: &mut Tally,
) -> Result<(Metrics, Vec<String>), String> {
    let window = Duration::from_secs_f64(seconds);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    // (variant, seconds) of every verified job, and the time they took.
    let (samples, busy_s): (Vec<(Variant, f64)>, f64) = match ready {
        Ready::OneShot(prepared) => {
            let calls = oneshot::measure(w, &prepared, window, usize::MAX, None, tally);
            // One caller: the window is the time spent inside calls; the
            // harness's own output comparison between calls is not the
            // program's.
            let busy_s = calls.iter().map(|c| c.wall_s).sum();
            (
                calls.iter().map(|c| (c.variant, c.wall_s)).collect(),
                busy_s,
            )
        }
        Ready::Service {
            daemons,
            data,
            fetch,
        } => {
            let plan = Plan {
                window,
                min_jobs: ROUND_OF_JOBS,
                fetch: if fetch { Fetch::InJob } else { Fetch::No },
                recorder: None,
            };
            let drive = resident::drive(w, &daemons, &data, &plan, tally)?;
            daemons.shutdown()?;
            (
                drive
                    .jobs
                    .iter()
                    .map(|j| (j.variant, j.latency_s))
                    .collect(),
                drive.window_s,
            )
        }
    };
    if samples.is_empty() {
        return Err("no job was verified".into());
    }
    for v in Variant::ALL {
        let of_v: Vec<f64> = samples.iter().filter(|s| s.0 == v).map(|s| s.1).collect();
        m.set(
            &format!("{}_mb_per_s", v.name()),
            w.input_mb() / quantile(&of_v, w.quantile),
        );
        notes.push(format!(
            "{:<8} {:>4} jobs, ms: min {:.2} p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} max {:.2}",
            v.name(),
            of_v.len(),
            quantile(&of_v, 0.0) * 1e3,
            quantile(&of_v, 0.10) * 1e3,
            quantile(&of_v, 0.25) * 1e3,
            median(&of_v) * 1e3,
            quantile(&of_v, 0.75) * 1e3,
            quantile(&of_v, 1.0) * 1e3,
        ));
    }
    notes.push(format!(
        "throughputs are input MB over the p{:.0} job time",
        w.quantile * 100.0
    ));
    m.set("setup_s", setup_s);
    let [(_, jobs_per_s), (_, p50_ms), (_, p95_ms)] = pooled(&samples, busy_s);
    let supported = highest_supported_percentile(samples.len())
        .map_or("none".to_string(), |p| format!("p{:.0}", p * 100.0));
    notes.push(format!(
        "pooled   {:>4} jobs, {jobs_per_s:.3} jobs/s, ms: p50 {p50_ms:.2} p95 {p95_ms:.2}; \
         highest percentile with 10 samples beyond it: {supported}",
        samples.len()
    ));
    Ok((m, notes))
}

/// The per-layer `jobs_per_s`, `job_p50_ms` and `job_p95_ms` of a window:
/// its verified jobs (variant, seconds), all variants pooled, over the
/// `busy_s` seconds they took.
fn pooled(samples: &[(Variant, f64)], busy_s: f64) -> [(&'static str, f64); 3] {
    let all_ms: Vec<f64> = samples.iter().map(|s| s.1 * 1e3).collect();
    [
        ("jobs_per_s", samples.len() as f64 / busy_s),
        ("job_p50_ms", median(&all_ms)),
        ("job_p95_ms", quantile(&all_ms, 0.95)),
    ]
}

fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    ready: Ready,
    tally: &mut Tally,
) -> Result<(Metrics, Vec<String>), String> {
    let main = Duration::from_secs_f64(seconds * MAIN_SHARE);
    let side = Duration::from_secs_f64(seconds * SIDE_SHARE);
    let probes_budget = Duration::from_secs_f64(seconds * PROBES_SHARE);
    let mut m = Metrics::default();
    let recorder = Recorder::default();

    let proc_main = match ready {
        Ready::OneShot(prepared) => {
            let before = ProcSample::now();
            let calls = oneshot::measure(w, &prepared, main, usize::MAX, Some(&recorder), tally);
            let proc_main = before.and_then(|b| Some(ProcSample::now()?.since(&b)));
            oneshot_metrics(&mut m, w, &prepared, &calls)?;
            m.set(
                "trace.overhead_share",
                overhead_share(calls.iter().map(|c| (c.traced, c.wall_s))),
            );
            let samples: Vec<_> = calls.iter().map(|c| (c.variant, c.wall_s)).collect();
            for (name, value) in pooled(&samples, samples.iter().map(|s| s.1).sum()) {
                m.set(name, value);
            }

            let data = ClientData::new(prepared.input, prepared.reference);
            let runtime_s = resident::runtime_jobs(w, &data, side, ROUND_OF_JOBS, tally)?;
            m.set("mapreduce.runtime.job_p50_ms", median(&runtime_s) * 1e3);
            let daemons = Daemons::boot(w)?;
            let plan = Plan {
                window: side,
                min_jobs: ROUND_OF_JOBS,
                fetch: Fetch::AfterJob,
                recorder: Some(&recorder),
            };
            let drive = resident::drive(w, &daemons, &data, &plan, tally)?;
            service_metrics(&mut m, w, &drive, daemons)?;
            proc_main
        }
        Ready::Service {
            daemons,
            data,
            fetch,
        } => {
            let plan = Plan {
                window: main,
                min_jobs: ROUND_OF_JOBS,
                fetch: if fetch { Fetch::InJob } else { Fetch::AfterJob },
                recorder: Some(&recorder),
            };
            let before = ProcSample::now();
            let drive = resident::drive(w, &daemons, &data, &plan, tally)?;
            let proc_main = before.and_then(|b| Some(ProcSample::now()?.since(&b)));
            m.set(
                "trace.overhead_share",
                overhead_share(drive.jobs.iter().map(|j| (j.traced, j.latency_s))),
            );
            let samples: Vec<_> = drive
                .jobs
                .iter()
                .map(|j| (j.variant, j.latency_s))
                .collect();
            for (name, value) in pooled(&samples, drive.window_s) {
                m.set(name, value);
            }
            service_metrics(&mut m, w, &drive, daemons)?;

            let runtime_s = resident::runtime_jobs(w, &data, side, ROUND_OF_JOBS, tally)?;
            m.set("mapreduce.runtime.job_p50_ms", median(&runtime_s) * 1e3);
            drop(data);
            let prepared = oneshot::prepare(w, seed, tally)?;
            // A small job finishes thousands of rounds in the window; a few
            // hundred already pin the medians.
            let calls = oneshot::measure(w, &prepared, side, 300, None, tally);
            oneshot_metrics(&mut m, w, &prepared, &calls)?;
            proc_main
        }
    };

    m.set_opt("proc.user_s", proc_main.map(|p| p.user_s));
    m.set_opt("proc.sys_s", proc_main.map(|p| p.sys_s));
    m.set_opt(
        "proc.minor_faults",
        proc_main.map(|p| p.minor_faults as f64),
    );
    m.set_opt("proc.peak_rss_mb", peak_rss_mb());

    let spans = recorder.finish();
    ledger(&mut m, &spans)?;
    probes::run(&mut m, seed, probes_budget)?;
    m.set("failed_share", tally.failed_share());

    let path = trace_path(w.name);
    std::fs::create_dir_all(path.parent().expect("the trace file sits in a directory"))
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(w.name, &spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let note = format!("trace: {} spans written to {}", spans.len(), path.display());
    Ok((m, vec![note]))
}

/// Mean time of the recorded jobs over that of the plain ones, minus one,
/// all variants pooled (recording alternates per round or job, so both sides
/// hold the same variant mix). Means, not medians: `svc_small`'s latencies
/// are quantized to 44 or 88 ms, and a median flips between the two.
fn overhead_share(samples: impl Iterator<Item = (bool, f64)>) -> f64 {
    let (on, off): (Vec<_>, Vec<_>) = samples.partition(|s| s.0);
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    let mean = |side: &[(bool, f64)]| side.iter().map(|s| s.1).sum::<f64>() / side.len() as f64;
    mean(&on) / mean(&off) - 1.0
}

/// The model twin of the paper's emulated NIC, for the netsim predictors.
fn paper_net_model() -> NetModelConfig {
    let nic = NicProfile::paper_100mbps();
    NetModelConfig {
        bandwidth_bits_per_sec: nic
            .rate_bytes_per_sec
            .expect("the paper NIC is rate-limited")
            * 8.0,
        tcp_efficiency: 1.0,
        per_transfer_latency_s: nic.latency_s,
        multicast_alpha: nic.multicast_alpha,
        group_setup_s: 0.0,
    }
}

/// Per-layer metrics of the `cts-mapreduce` and `cts-netsim` layers from
/// one-shot calls of the workload's job.
fn oneshot_metrics(
    m: &mut Metrics,
    w: &Workload,
    prepared: &Prepared,
    calls: &[Call],
) -> Result<(), String> {
    let net = paper_net_model();
    let mut wall_p50 = [0.0f64; 3];
    for v in Variant::ALL {
        let of_v: Vec<&Call> = calls.iter().filter(|c| c.variant == v).collect();
        if of_v.is_empty() {
            return Err(format!("no verified one-shot {} call", v.name()));
        }
        let med = |f: &dyn Fn(&Call) -> f64| median(&of_v.iter().map(|c| f(c)).collect::<Vec<_>>());
        let name = v.name();
        let stage_s: [f64; 5] = [
            med(&|c| c.stages.map.as_secs_f64()),
            med(&|c| c.stages.pack_encode.as_secs_f64()),
            med(&|c| c.stages.shuffle.as_secs_f64()),
            med(&|c| c.stages.unpack_decode.as_secs_f64()),
            med(&|c| c.stages.reduce.as_secs_f64()),
        ];
        for (stage, s) in STAGES.iter().zip(stage_s) {
            m.set(&format!("mapreduce.{name}.{stage}"), s);
        }
        if v != Variant::Uncoded {
            m.set(
                &format!("mapreduce.{name}.codegen_s"),
                med(&|c| c.stages.codegen.as_secs_f64()),
            );
        }
        m.set(
            &format!("mapreduce.{name}.outside_stages_s"),
            med(&|c| c.outside_stages_s()),
        );
        wall_p50[v.index()] = med(&|c| c.wall_s);

        let shape = &prepared.shapes[v.index()];
        m.set(
            &format!("mapreduce.{name}.shuffle_bytes"),
            shape.shuffle_bytes as f64,
        );
        m.set(
            &format!("mapreduce.{name}.wire_sends"),
            shape.wire_sends as f64,
        );
        m.set(&format!("mapreduce.{name}.comm_load"), shape.comm_load);

        // Shuffle time the netsim models predict for this job's transfers
        // behind the paper's NIC, over the shuffle time measured.
        let fabric = w.engine(v).cluster.fabric;
        let measured_s = stage_s[2];
        let serial_s = serial_fabric_makespan(&shape.trace, SHUFFLE_STAGE, fabric, &net, 1.0);
        let fluid_s = predict_fabric_shuffle_s(&shape.trace, SHUFFLE_STAGE, fabric, &net, 1.0);
        m.set(
            &format!("netsim.serial_over_measured.{name}"),
            serial_s / measured_s,
        );
        m.set(
            &format!("netsim.fluid_over_measured.{name}"),
            fluid_s / measured_s,
        );
    }
    m.set(
        "mapreduce.coded.groups",
        prepared.shapes[Variant::Coded.index()].groups as f64,
    );
    let [uncoded, coded, quorum] = wall_p50;
    m.set("mapreduce.coded_speedup", uncoded / coded);
    m.set("mapreduce.quorum_speedup", uncoded / quorum);
    m.set(
        "mapreduce.first_round_s",
        prepared.first_round_s.iter().sum(),
    );
    m.set("mapreduce.oneshot.job_p50_ms", coded * 1e3);
    Ok(())
}

/// Per-layer metrics of the service as its clients saw it; measures the
/// idle daemons' CPU share, then shuts them down.
fn service_metrics(
    m: &mut Metrics,
    w: &Workload,
    drive: &Drive,
    daemons: Daemons,
) -> Result<(), String> {
    let ms = |f: &dyn Fn(&Job) -> Option<f64>| {
        median(&drive.jobs.iter().filter_map(f).collect::<Vec<_>>()) * 1e3
    };
    m.set("service.submit_p50_ms", ms(&|j| Some(j.submit_s)));
    m.set("service.digest_p50_ms", ms(&|j| Some(j.digest_s)));
    let fetch_ms = ms(&|j| j.fetch_s);
    m.set("service.fetch_p50_ms", fetch_ms);
    // A sort's output is as large as its input.
    m.set("service.fetch_mb_per_s", w.input_mb() / (fetch_ms / 1e3));
    m.set("service.refused", drive.refused as f64);

    // Ledger entry: SUBMIT sent → digest verified, of the coded jobs the
    // harness recorded. One-shot + runtime overhead + wire overhead equals
    // it by construction; the residual is what the unrecorded coded jobs of
    // the same drive saw beyond that.
    let to_digest_ms = |traced: bool| -> Result<f64, String> {
        let of: Vec<f64> = drive
            .jobs
            .iter()
            .filter(|j| j.variant == Variant::Coded && j.traced == traced)
            .map(|j| (j.submit_s + j.digest_s) * 1e3)
            .collect();
        if of.is_empty() {
            return Err("no verified coded service job on one side of the tracing split".into());
        }
        Ok(median(&of))
    };
    let recorded_ms = to_digest_ms(true)?;
    m.set("service.job_p50_ms", recorded_ms);
    m.set(
        "service.ledger_residual_ms",
        to_digest_ms(false)? - recorded_ms,
    );
    m.set("service.boot_ms", daemons.boot_ms);

    // No job is in flight now: what the resident daemons cost while idle.
    let idle = Duration::from_secs(1);
    let before = live_threads_cpu_ns();
    std::thread::sleep(idle);
    let cpu_ns = before.and_then(|b| Some(live_threads_cpu_ns()?.saturating_sub(b)));
    m.set_opt(
        "service.idle_cpu_share",
        cpu_ns.map(|ns| ns as f64 / idle.as_nanos() as f64),
    );
    m.set("service.shutdown_ms", daemons.shutdown()?);
    Ok(())
}

/// Closes the latency ledger of the coded job — one-shot call, plus what
/// the resident runtime adds, plus what the service wire adds — and derives
/// the clients' self time (job span minus its calls) from the spans.
fn ledger(m: &mut Metrics, spans: &[Span]) -> Result<(), String> {
    let self_ns = spans::self_times_ns(spans);
    let job_self_ms: Vec<f64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "svc.job")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    m.set("service.job_self_ms", median(&job_self_ms));

    let measured = |name: &str| {
        m.get(name)
            .map(|v| v.expect("timings exist on every platform"))
    };
    let oneshot_ms = measured("mapreduce.oneshot.job_p50_ms")?;
    let runtime_ms = measured("mapreduce.runtime.job_p50_ms")?;
    let service_ms = measured("service.job_p50_ms")?;
    m.set("mapreduce.runtime.overhead_ms", runtime_ms - oneshot_ms);
    m.set("service.wire_overhead_ms", service_ms - runtime_ms);
    Ok(())
}
