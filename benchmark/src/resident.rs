//! The resident paths: sort jobs submitted into a `JobRuntime` in process,
//! and into `SortService` daemons over the TCP wire by two closed-loop
//! clients.
//!
//! A daemon's code (field and decode discipline) is its operator's choice
//! and a tenant picks only `r`, so two daemons run side by side: one with
//! the library defaults (GF(2), decode on all) serving the uncoded and
//! coded variants, one on the MDS plane (GF(256), quorum) serving the
//! quorum variant.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_mapreduce::runtime::{JobRuntime, RuntimeConfig};
use cts_terasort::driver::run_terasort;
use cts_terasort::service::{JobKind, ResultDigest, ServiceClient, SortService};
use cts_terasort::workload::TeraSortWorkload;
use cts_terasort::{teragen, validate};

use crate::report::Tally;
use crate::spans::Recorder;
use crate::spec::{Variant, Workload};

/// Jobs the resident runtime and each daemon run at once: one per client.
const MAX_CONCURRENT: usize = 2;

/// Closed-loop clients driving the daemons, one connection per daemon each.
pub const CLIENTS: usize = 2;

/// The input both clients submit, with what its jobs must return.
pub struct ClientData {
    /// The TeraGen input.
    pub input: Bytes,
    /// Output partitions of a one-shot uncoded run.
    pub reference: Vec<Vec<u8>>,
    /// Digest of `reference`, computed locally.
    pub digest: ResultDigest,
}

impl ClientData {
    /// Wraps an input and its already validated reference output.
    pub fn new(input: Bytes, reference: Vec<Vec<u8>>) -> ClientData {
        let digest = ResultDigest::of(&reference);
        ClientData {
            input,
            reference,
            digest,
        }
    }

    /// Generates an input and its reference with a one-shot uncoded sort,
    /// checked by TeraValidate.
    pub fn generate(w: &Workload, seed: u64, tally: &mut Tally) -> Result<ClientData, String> {
        let input = teragen::generate(w.records, seed);
        let run = run_terasort(input.clone(), &w.sort_job(Variant::Uncoded))
            .map_err(|e| e.to_string())?;
        tally.check(validate(&input, &run.outcome.outputs).is_ok(), || {
            "reference output fails TeraValidate".into()
        });
        Ok(ClientData::new(input, run.outcome.outputs))
    }
}

fn runtime_config(w: &Workload, variant: Variant) -> RuntimeConfig {
    RuntimeConfig::new(w.engine(variant)).with_max_concurrent(MAX_CONCURRENT)
}

/// Runs the coded variant through an in-process `JobRuntime`
/// (submit → wait, no wire) until `window` has elapsed and at least
/// `min_jobs` ran; returns each job's latency in seconds.
pub fn runtime_jobs(
    w: &Workload,
    data: &ClientData,
    window: Duration,
    min_jobs: usize,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let runtime =
        JobRuntime::start(runtime_config(w, Variant::Coded)).map_err(|e| e.to_string())?;
    let r = w.r_of(Variant::Coded);
    let started = Instant::now();
    let mut latencies = Vec::new();
    while latencies.len() < min_jobs || started.elapsed() < window {
        let input = data.input.clone();
        let t0 = Instant::now();
        // The same job body the daemon submits for a sort request.
        let outcome = runtime
            .submit(move |ctx| {
                let mut cfg = ctx.cfg.clone();
                cfg.r = r;
                ctx.run_coded_with(&TeraSortWorkload::range(cfg.k), input, &cfg)
            })
            .and_then(|handle| handle.wait());
        latencies.push(t0.elapsed().as_secs_f64());
        match outcome {
            Ok(o) => tally.check(o.outputs == data.reference, || {
                "runtime job output differs from the reference".into()
            }),
            Err(e) => tally.check(false, || format!("runtime job: {e}")),
        }
    }
    runtime.shutdown();
    Ok(latencies)
}

/// Index of the daemon that serves `variant`.
fn daemon_of(variant: Variant) -> usize {
    usize::from(variant == Variant::Quorum)
}

/// The two running daemons.
pub struct Daemons {
    addrs: [SocketAddr; 2],
    servers: Vec<JoinHandle<Result<(), String>>>,
    /// Wall-clock of binding both services and starting their runtimes.
    pub boot_ms: f64,
}

impl Daemons {
    /// Boots both daemons on kernel-assigned loopback ports.
    pub fn boot(w: &Workload) -> Result<Daemons, String> {
        let t0 = Instant::now();
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for variant in [Variant::Coded, Variant::Quorum] {
            let service = SortService::bind("127.0.0.1:0", runtime_config(w, variant))?;
            addrs.push(service.local_addr().map_err(|e| e.to_string())?);
            servers.push(std::thread::spawn(move || service.run()));
        }
        Ok(Daemons {
            addrs: [addrs[0], addrs[1]],
            servers,
            boot_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Sends SHUTDOWN to both daemons and waits until each has drained and
    /// its threads have ended; returns the wall-clock in milliseconds.
    pub fn shutdown(self) -> Result<f64, String> {
        let t0 = Instant::now();
        for addr in self.addrs {
            ServiceClient::connect(addr)?.shutdown()?;
        }
        for server in self.servers {
            server
                .join()
                .map_err(|_| "daemon thread panicked".to_string())??;
        }
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    }
}

/// Whether and when a client downloads a job's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fetch {
    /// SUBMIT → DIGEST only.
    No,
    /// FETCH and byte comparison are part of the job and of its latency.
    InJob,
    /// FETCH after the latency clock has stopped, so fetch metrics exist
    /// for workloads whose job does not include it.
    AfterJob,
}

/// How the clients drive the daemons.
pub struct Plan<'a> {
    /// Clients stop submitting once this has elapsed…
    pub window: Duration,
    /// …and each has run this many jobs.
    pub min_jobs: usize,
    /// FETCH policy.
    pub fetch: Fetch,
    /// When set, every second job is recorded into it.
    pub recorder: Option<&'a Recorder>,
}

/// One finished job as its client saw it. Times in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Which variant it ran.
    pub variant: Variant,
    /// SUBMIT sent → result verified (digest, and fetched bytes with
    /// [`Fetch::InJob`]).
    pub latency_s: f64,
    /// The SUBMIT call.
    pub submit_s: f64,
    /// The DIGEST call (blocks until the job is done).
    pub digest_s: f64,
    /// The FETCH call, when one was made.
    pub fetch_s: Option<f64>,
    /// Whether the harness recorded spans around it.
    pub traced: bool,
}

/// The result of one drive.
pub struct Drive {
    /// Every verified job, all clients.
    pub jobs: Vec<Job>,
    /// First SUBMIT → last verification, seconds.
    pub window_s: f64,
    /// Submissions the daemons refused at admission.
    pub refused: u64,
}

/// Drives the daemons with [`CLIENTS`] closed-loop clients cycling through
/// the variants (client `c` starts at variant `c`, so they are not in
/// lock-step). Both submit `data`: a quorum job on a resident fabric can
/// consume a late packet of the previous one, which is only harmless when
/// the two jobs sorted the same bytes (see README).
pub fn drive(
    w: &Workload,
    daemons: &Daemons,
    data: &ClientData,
    plan: &Plan<'_>,
    tally: &mut Tally,
) -> Result<Drive, String> {
    let started = Instant::now();
    let per_client: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(c, w, daemons, data, plan, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut out = Drive {
        jobs: Vec::new(),
        window_s: 0.0,
        refused: 0,
    };
    for client in per_client {
        let client = client?;
        out.jobs.extend(client.jobs);
        tally.absorb(client.tally);
        out.refused += client.refused;
        out.window_s = out.window_s.max((client.last_end - started).as_secs_f64());
    }
    Ok(out)
}

/// What one client thread brings back.
struct ClientRun {
    jobs: Vec<Job>,
    tally: Tally,
    refused: u64,
    last_end: Instant,
}

fn client_loop(
    c: usize,
    w: &Workload,
    daemons: &Daemons,
    data: &ClientData,
    plan: &Plan<'_>,
    started: Instant,
) -> Result<ClientRun, String> {
    let mut conns = [
        ServiceClient::connect(daemons.addrs[0])?,
        ServiceClient::connect(daemons.addrs[1])?,
    ];
    let mut jobs = Vec::new();
    let mut tally = Tally::default();
    let mut refused = 0u64;
    let mut last_end = started;
    let mut n = 0usize;
    while n < plan.min_jobs || started.elapsed() < plan.window {
        let variant = Variant::ALL[(n + c) % Variant::ALL.len()];
        let conn = &mut conns[daemon_of(variant)];
        let recorder = plan.recorder.filter(|_| n.is_multiple_of(2));
        let request = (c * 1_000_000 + n) as u64;
        let lane = c as u32;
        n += 1;

        let t0 = Instant::now();
        let id = match conn.submit(&JobKind::Sort, w.r_of(variant), &data.input) {
            Ok(id) => id,
            Err(e) if e.contains("refused at admission") => {
                // Backpressure, not a broken connection: count it against
                // the attempt and try again shortly.
                tally.check(false, || format!("client {c}: {e}"));
                refused += 1;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => return Err(format!("client {c} submit: {e}")),
        };
        let t1 = Instant::now();
        let digest = conn
            .digest(id)
            .map_err(|e| format!("client {c} digest: {e}"))?;
        let t2 = Instant::now();
        let mut ok = digest == data.digest;
        let mut fetch_span = None;
        if plan.fetch == Fetch::InJob {
            let outputs = conn
                .fetch(id)
                .map_err(|e| format!("client {c} fetch: {e}"))?;
            fetch_span = Some((t2, Instant::now()));
            ok &= outputs == data.reference;
        }
        let end = Instant::now();
        if plan.fetch == Fetch::AfterJob {
            let outputs = conn
                .fetch(id)
                .map_err(|e| format!("client {c} fetch: {e}"))?;
            fetch_span = Some((end, Instant::now()));
            ok &= outputs == data.reference;
        }
        tally.check(ok, || {
            format!(
                "client {c} job {id} ({}) differs from the reference",
                variant.name()
            )
        });
        last_end = end;
        if !ok {
            continue;
        }
        if let Some(rec) = recorder {
            let job = rec.open("svc.job", t0, None, request, lane);
            rec.leaf("svc.submit", t0, t1, Some(job), request, lane);
            rec.leaf("svc.digest", t1, t2, Some(job), request, lane);
            if let Some((from, to)) = fetch_span {
                // A fetch made after the job ended is its sibling, not its child.
                let parent = (plan.fetch == Fetch::InJob).then_some(job);
                rec.leaf("svc.fetch", from, to, parent, request, lane);
            }
            rec.close(job, end);
        }
        jobs.push(Job {
            variant,
            latency_s: (end - t0).as_secs_f64(),
            submit_s: (t1 - t0).as_secs_f64(),
            digest_s: (t2 - t1).as_secs_f64(),
            fetch_s: fetch_span.map(|(from, to)| (to - from).as_secs_f64()),
            traced: recorder.is_some(),
        });
    }
    Ok(ClientRun {
        jobs,
        tally,
        refused,
        last_end,
    })
}
