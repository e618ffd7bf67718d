//! `cts serve` — the multi-tenant sort service.
//!
//! A thin wire layer over [`cts_mapreduce::JobRuntime`]: the daemon owns
//! one resident runtime (shared fabric, admission queue, thread budget)
//! and clients submit sort / wordcount / grep jobs into it over TCP,
//! poll status, and fetch results or digests.
//!
//! ## Wire protocol
//!
//! Every message (both directions) is one length-prefixed frame: a `u32`
//! little-endian payload length followed by the payload. Requests start
//! with an opcode byte:
//!
//! | op | request payload | OK response payload |
//! |----|-----------------|---------------------|
//! | `0x01` SUBMIT | `kind u8, r u8, pat_len u16 LE, pattern, input…` | `job_id u32 LE` |
//! | `0x02` STATUS | `job_id u32 LE` | `state u8` (+ error text when failed) |
//! | `0x03` DIGEST | `job_id u32 LE` (blocks until done) | `parts u32`, per part `len u64 + xxh64 u64`, `total u64` (XXH64 of the `(len, xxh64)` list) |
//! | `0x04` FETCH  | `job_id u32 LE` (blocks until done) | `parts u32`, per part `len u64 + bytes` |
//! | `0x05` SHUTDOWN | — | — |
//! | `0x06` STATS | — | UTF-8 live-stats table (see [`ServiceClient::stats`]) |
//! | `0x07` TIMELINE | `job_id u32 LE` (blocks until done) | Chrome trace-event JSON |
//!
//! `kind` is 0 = sort (TeraGen records, range partitioner), 1 =
//! wordcount, 2 = grep (`pattern` required). `r` is the redundancy the
//! engine runs at: `r ≤ 1` is conventional (uncoded) execution, `r > 1`
//! coded. Responses lead
//! with a status byte: `0x00` OK (payload follows), `0xFF` error (UTF-8
//! message follows). A connection may issue any number of requests;
//! closing it does not cancel submitted jobs.
//!
//! ## The job table
//!
//! A job id is a wire concept, so the one table from ids to jobs is here
//! (the runtime and the fabric keep nothing of a job that has returned), and
//! STATUS, DIGEST, FETCH, TIMELINE and the per-job rows of STATS are all
//! answered from it. Queued and running jobs stay in it — admission bounds
//! them; of the finished ones it keeps the newest 64 and at most 256 MiB of
//! output, the newest always. The rest are evicted, asked for or not, and
//! counted (`cts_results_evicted_total`); their ids answer `job N: result
//! evicted (…)`, not `unknown job id N`.
//!
//! ## Introspection
//!
//! Besides the binary STATS frame, [`SortService::serve_metrics`] binds a
//! second listener that answers any connection with a Prometheus
//! text-format dump of the runtime's
//! [`MetricsHub`](cts_core::metrics::MetricsHub) (a minimal hard-coded
//! HTTP/1.1 200 — `curl http://addr/metrics` works, no HTTP stack
//! involved).
//!
//! ## Waiting and stopping
//!
//! Nothing in the daemon wakes on a timer: each listener blocks in
//! `accept` and each connection's handler thread blocks reading its next
//! frame. One timer is still waited out, and it is the kernel's: a reply
//! leaves as two writes (header, payload) on a socket without
//! `TCP_NODELAY`, so its payload is held until the client acknowledges the
//! header, and the client's kernel delays that ACK by 40 ms. A small job
//! therefore takes 44 or 88 ms over the wire, about 1 ms of it compute
//! (CHANGES.md, PR 13, says why that is still so).
//!
//! There is one way to stop: the SHUTDOWN opcode, a [`StopHandle`] and
//! `cts serve`'s SIGINT/SIGTERM handler (which writes [`SHUTDOWN_FRAME`]
//! on a connection it opened beforehand) all raise the same flag and wake
//! every listener by connecting to it. [`SortService::run`] then drains:
//! no further connection is served and no further job admitted; a request
//! in flight — a frame partly read, a DIGEST blocked on a running job —
//! gets its reply; connections sitting at a frame boundary are closed;
//! queued and running jobs finish inside the runtime; `run` returns `Ok`.
//! A request whose first bytes race the stop may find its connection
//! closed instead of answered, never answered wrongly.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, ThreadId};

use bytes::Bytes;
use cts_core::metrics::Counter;
use cts_mapreduce::grep::Grep;
use cts_mapreduce::runtime::{JobHandle, JobRuntime, JobStatus, RuntimeConfig};
use cts_mapreduce::wordcount::WordCount;
use cts_mapreduce::JobOutcome;

use crate::workload::TeraSortWorkload;

/// Largest frame either side will accept (1 GiB).
const MAX_FRAME: u32 = 1 << 30;

const OP_SUBMIT: u8 = 0x01;
const OP_STATUS: u8 = 0x02;
const OP_DIGEST: u8 = 0x03;
const OP_FETCH: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_TIMELINE: u8 = 0x07;

const RESP_OK: u8 = 0x00;
const RESP_ERR: u8 = 0xFF;

/// What a submitted job runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// TeraSort over 100-byte TeraGen records (range partitioner).
    Sort,
    /// Word counting over newline-delimited text.
    WordCount,
    /// Line grep for the contained byte pattern.
    Grep(Vec<u8>),
}

impl JobKind {
    fn code(&self) -> u8 {
        match self {
            JobKind::Sort => 0,
            JobKind::WordCount => 1,
            JobKind::Grep(_) => 2,
        }
    }
}

// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 with seed 0, the published algorithm: four independent lanes over
/// 32-byte stripes, then the 8/4/1-byte tail and the avalanche.
fn xxh64(data: &[u8]) -> u64 {
    let stripes = data.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, input) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(input));
            }
        }
        let mut h = (v[0].rotate_left(1))
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(data.len() as u64);
    let mut words = tail.chunks_exact(8);
    for input in &mut words {
        h = (h ^ round(0, word(input)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if let Some((half, bytes)) = rest.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = bytes;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A job's result digest: per-partition lengths and XXH64 hashes plus a
/// hash over that list — enough to prove byte-identity against a local run
/// without shipping the data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultDigest {
    /// `(output_len, xxh64)` per partition, rank order.
    pub partitions: Vec<(u64, u64)>,
    /// XXH64 over the partitions' `(len, hash)` pairs, rank order, as
    /// little-endian `u64`s.
    pub total: u64,
}

impl ResultDigest {
    /// Digests locally produced outputs (for comparison with a service
    /// job's digest).
    pub fn of(outputs: &[Vec<u8>]) -> ResultDigest {
        let partitions: Vec<(u64, u64)> = (outputs.iter())
            .map(|o| (o.len() as u64, xxh64(o)))
            .collect();
        let list: Vec<u8> = (partitions.iter())
            .flat_map(|&(len, hash)| [len, hash])
            .flat_map(u64::to_le_bytes)
            .collect();
        ResultDigest {
            total: xxh64(&list),
            partitions,
        }
    }
}

/// The engine stages STATS summarizes, in pipeline order.
const STAGE_NAMES: [&str; 6] = [
    cts_mapreduce::stage::stages::CODEGEN,
    cts_mapreduce::stage::stages::MAP,
    cts_mapreduce::stage::stages::PACK_ENCODE,
    cts_mapreduce::stage::stages::SHUFFLE,
    cts_mapreduce::stage::stages::UNPACK_DECODE,
    cts_mapreduce::stage::stages::REDUCE,
];

/// Nearest-rank percentile of an ascending-sorted sample (`0` if empty).
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

// ---- framing ------------------------------------------------------------

/// The frame a client sends to stop the service: a one-byte payload, the
/// SHUTDOWN opcode. A constant so a signal handler can `write` it.
pub const SHUTDOWN_FRAME: [u8; 5] = [1, 0, 0, 0, OP_SHUTDOWN];

/// Sends one frame in two writes, header then payload (what that costs a
/// reply: "Waiting and stopping" in the module docs).
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| std::io::Error::other("frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)
}

/// Reads a frame header: the payload length, or `None` if the peer hung up
/// instead of sending one.
fn read_len(stream: &mut TcpStream) -> std::io::Result<Option<u32>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        let what = format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap");
        return Err(std::io::Error::other(what));
    }
    Ok(Some(len))
}

/// Reads the payload a header announced. The length is the peer's claim:
/// the buffer grows with the bytes that actually arrive, not with it.
fn read_payload(stream: &mut TcpStream, len: u32) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    stream.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(payload)
}

fn take<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], String> {
    buf.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| format!("truncated frame: wanted {N} bytes at offset {at}"))
}

// ---- server -------------------------------------------------------------

/// Finished jobs the table keeps: what `cts stats` has rows for, and as
/// many results as a client may come back for late.
const FINISHED_JOBS_KEPT: usize = 64;
/// MiB of finished jobs' outputs the table keeps: a daemon that sorts
/// 100 MB inputs must not hold 64 of them.
const FINISHED_MIB_KEPT: usize = 256;

type Settled = Result<Arc<JobOutcome>, String>;

/// One resident job: the runtime's handle until a client first asks for the
/// outcome (or the table's sweep finds the job ended), the outcome after.
/// Whoever asks first waits on the handle, everybody else on `outcome`.
struct Entry {
    handle: parking_lot::Mutex<Option<JobHandle>>,
    outcome: OnceLock<Settled>,
}

impl Entry {
    fn new(handle: JobHandle) -> Arc<Entry> {
        Arc::new(Entry {
            handle: parking_lot::Mutex::new(Some(handle)),
            outcome: OnceLock::new(),
        })
    }

    fn status(&self) -> JobStatus {
        match self.outcome.get() {
            Some(Ok(_)) => JobStatus::Done,
            Some(Err(msg)) => JobStatus::Failed(msg.clone()),
            // No handle either: a client is blocked on it, the job running or about to.
            None => (self.handle.lock().as_ref()).map_or(JobStatus::Running, JobHandle::status),
        }
    }

    /// The outcome, waited for if the job has not ended.
    fn settle(&self) -> Settled {
        let wait = || {
            let handle = self.handle.lock().take().expect("taken once, here");
            handle.wait().map(Arc::new).map_err(|e| e.to_string())
        };
        self.outcome.get_or_init(wait).clone()
    }
}

struct Inner {
    runtime: JobRuntime,
    /// The one place a resident job is kept, by id (see the module docs).
    jobs: parking_lot::Mutex<BTreeMap<u32, Arc<Entry>>>,
    evicted: Arc<Counter>,
    stop: StopHandle,
}

#[derive(Default)]
struct StopState {
    raised: AtomicBool,
    /// Every listener a thread may be blocked accepting on.
    listeners: parking_lot::Mutex<Vec<SocketAddr>>,
}

/// The one stop mechanism (see the module docs). The service hands a clone
/// out through [`SortService::stop_handle`], for an embedding process that
/// has no connection to send SHUTDOWN on.
#[derive(Clone, Default)]
pub struct StopHandle(Arc<StopState>);

impl StopHandle {
    fn raised(&self) -> bool {
        self.0.raised.load(Ordering::SeqCst)
    }

    /// Begins the drain and, the first time, wakes each listener with a
    /// connection for its accept loop to find the flag behind.
    pub fn stop(&self) {
        if !self.0.raised.swap(true, Ordering::SeqCst) {
            for addr in self.0.listeners.lock().iter() {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

impl Inner {
    /// The table's entry for `id`, or why it has none.
    fn entry(&self, id: u32) -> Result<Arc<Entry>, String> {
        let jobs = self.jobs.lock();
        // Ids count up from 1 and the newest entry is never evicted.
        let newest = jobs.last_key_value().map_or(0, |(id, _)| *id);
        jobs.get(&id).cloned().ok_or_else(|| {
            if !(1..newest).contains(&id) {
                return format!("unknown job id {id}");
            }
            format!(
                "job {id}: result evicted (the daemon keeps the last \
                 {FINISHED_JOBS_KEPT} finished jobs / {FINISHED_MIB_KEPT} MiB)"
            )
        })
    }

    /// The job's outcome, waited for if need be; its bytes count from here on.
    fn outcome_of(&self, id: u32) -> Settled {
        let settled = self.entry(id)?.settle();
        self.sweep(&mut self.jobs.lock());
        settled
    }

    /// Settles the entries whose job ended unasked, then evicts the oldest
    /// finished entries while the table is over either bound; the newest
    /// finished one stays whatever its size.
    fn sweep(&self, jobs: &mut BTreeMap<u32, Arc<Entry>>) {
        let bytes = |o: Arc<JobOutcome>| o.outputs.iter().map(Vec::len).sum();
        let mut finished: Vec<(u32, usize)> = Vec::new();
        for (id, entry) in jobs.iter() {
            if entry.status().is_terminal() {
                finished.push((*id, entry.settle().map_or(0, bytes)));
            }
        }
        let mut kept = finished.len();
        let mut bytes: usize = finished.iter().map(|(_, bytes)| bytes).sum();
        for (id, size) in finished {
            if kept == 1 || (kept <= FINISHED_JOBS_KEPT && bytes <= FINISHED_MIB_KEPT << 20) {
                break;
            }
            jobs.remove(&id);
            kept -= 1;
            bytes -= size;
            self.evicted.inc();
        }
    }

    /// The live-stats table STATS answers with: job lifecycle counts and
    /// admission gauges from the metric registry, its cross-job
    /// stage-latency summary, and a stage/NIC breakdown of each job in the
    /// table.
    fn render_stats(&self) -> String {
        use std::fmt::Write as _;
        let hub = self.runtime.fabric().metrics();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "jobs: {} known — {} queued, {} running, {} done, {} failed",
            hub.counter("cts_jobs_submitted_total").get(),
            hub.gauge("cts_admission_queue_depth").get(),
            hub.gauge("cts_jobs_running").get(),
            hub.counter("cts_jobs_completed_total").get(),
            hub.counter("cts_jobs_failed_total").get(),
        );
        let _ = writeln!(
            out,
            "admission: queue {}/{}  refused {}  results evicted {}",
            hub.gauge("cts_admission_queue_depth").get(),
            hub.gauge("cts_admission_queue_capacity").get(),
            hub.counter("cts_jobs_refused_total").get(),
            self.evicted.get(),
        );
        let _ = writeln!(out, "{}", cts_core::pool::global().stats());

        let _ = writeln!(out);
        let _ = writeln!(out, "stage latency across finished jobs (ms):");
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p99", "max"
        );
        for stage in STAGE_NAMES {
            let h = hub.histogram_with("cts_stage_seconds", "stage", stage, 1e-9);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>6} {:>10.2} {:>10.2} {:>10.2}",
                stage,
                h.count(),
                h.p50().unwrap_or(0) as f64 / 1e6,
                h.p99().unwrap_or(0) as f64 / 1e6,
                h.max() as f64 / 1e6,
            );
        }

        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "per-job stage walls (ms; slowest rank) and NIC stalls:"
        );
        let jobs: Vec<(u32, Arc<Entry>)> = {
            let mut jobs = self.jobs.lock();
            self.sweep(&mut jobs);
            jobs.iter().map(|(id, e)| (*id, Arc::clone(e))).collect()
        };
        for (id, entry) in jobs {
            let state = match entry.status() {
                JobStatus::Queued => "queued",
                JobStatus::Running => "running",
                JobStatus::Done => "done",
                JobStatus::Failed(_) => "failed",
            };
            let _ = write!(out, "  job {id:<5} {state:<8}");
            if let Some(Ok(outcome)) = entry.outcome.get() {
                for stage in outcome.spans.stages_in_order() {
                    let mut durs = outcome.spans.stage_durations_ns(stage);
                    durs.sort_unstable();
                    let _ = write!(
                        out,
                        " {stage}={:.2}/p99 {:.2}",
                        pct(&durs, 0.50) as f64 / 1e6,
                        pct(&durs, 0.99) as f64 / 1e6,
                    );
                }
                if let Some(m) = &outcome.nic {
                    let _ = write!(
                        out,
                        "  nic_waits={} stall_ms={:.2}",
                        m.waits.get(),
                        m.wait_ns.get() as f64 / 1e6
                    );
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    fn submit(&self, kind: JobKind, r: usize, input: Bytes) -> Result<u32, String> {
        // Admitted under the table's lock: entries go in in id order, so
        // `entry` can tell an issued id from a made-up one by comparison.
        let mut jobs = self.jobs.lock();
        let handle = self
            .runtime
            .submit(move |ctx| {
                let mut cfg = ctx.cfg.clone();
                // The protocol lets `r = 0` stand for conventional too.
                cfg.r = r.max(1);
                match &kind {
                    JobKind::Sort => ctx.run(&TeraSortWorkload::range(cfg.k), input, &cfg),
                    JobKind::WordCount => ctx.run(&WordCount, input, &cfg),
                    JobKind::Grep(pattern) => ctx.run(&Grep::new(pattern.clone()), input, &cfg),
                }
            })
            .map_err(|e| e.to_string())?;
        let id = handle.id();
        jobs.insert(id, Entry::new(handle));
        self.sweep(&mut jobs);
        Ok(id)
    }

    /// Serves one request, appending the OK payload to `out` (the reply
    /// frame under construction, so the payload is written where it leaves
    /// from). Owns the request frame: a SUBMIT's input is a slice of it, not
    /// a copy.
    fn handle_request(&self, req: Bytes, out: &mut Vec<u8>) -> Result<(), String> {
        let op = *req.first().ok_or("empty frame")?;
        match op {
            OP_SUBMIT => {
                let kind_code = *req.get(1).ok_or("truncated SUBMIT")?;
                let r = usize::from(*req.get(2).ok_or("truncated SUBMIT")?);
                let pat_len = usize::from(u16::from_le_bytes(take::<2>(&req, 3)?));
                let pattern = req
                    .get(5..5 + pat_len)
                    .ok_or("truncated SUBMIT pattern")?
                    .to_vec();
                let input = req.slice(5 + pat_len..);
                let kind = match kind_code {
                    0 => JobKind::Sort,
                    1 => JobKind::WordCount,
                    2 => JobKind::Grep(pattern),
                    other => return Err(format!("unknown job kind {other}")),
                };
                let id = self.submit(kind, r, input)?;
                out.extend_from_slice(&id.to_le_bytes());
            }
            OP_STATUS => {
                let id = u32::from_le_bytes(take::<4>(&req, 1)?);
                match self.entry(id)?.status() {
                    JobStatus::Queued => out.push(0),
                    JobStatus::Running => out.push(1),
                    JobStatus::Done => out.push(2),
                    JobStatus::Failed(msg) => {
                        out.push(3);
                        out.extend_from_slice(msg.as_bytes());
                    }
                }
            }
            OP_DIGEST => {
                let id = u32::from_le_bytes(take::<4>(&req, 1)?);
                let digest = ResultDigest::of(&self.outcome_of(id)?.outputs);
                out.extend_from_slice(&(digest.partitions.len() as u32).to_le_bytes());
                for (len, hash) in &digest.partitions {
                    out.extend_from_slice(&len.to_le_bytes());
                    out.extend_from_slice(&hash.to_le_bytes());
                }
                out.extend_from_slice(&digest.total.to_le_bytes());
            }
            OP_FETCH => {
                let id = u32::from_le_bytes(take::<4>(&req, 1)?);
                let outputs = &self.outcome_of(id)?.outputs;
                out.reserve(4 + outputs.iter().map(|o| o.len() + 8).sum::<usize>());
                out.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
                for o in outputs {
                    out.extend_from_slice(&(o.len() as u64).to_le_bytes());
                    out.extend_from_slice(o);
                }
            }
            OP_STATS => out.extend_from_slice(self.render_stats().as_bytes()),
            OP_TIMELINE => {
                let id = u32::from_le_bytes(take::<4>(&req, 1)?);
                let outcome = self.outcome_of(id)?;
                let timeline = cts_mapreduce::timeline::chrome_trace(&outcome, id);
                out.extend_from_slice(timeline.as_bytes());
            }
            OP_SHUTDOWN => self.stop.stop(),
            other => return Err(format!("unknown opcode {other:#04x}")),
        }
        Ok(())
    }
}

/// The live connections by handler thread: what the drain closes and
/// joins. A handler's entry goes when the handler does, so a resident
/// daemon holds one per open connection, not one per connection ever
/// served.
type Registry = Arc<parking_lot::Mutex<HashMap<ThreadId, Conn>>>;

struct Conn {
    /// A second handle on the handler's socket, for the drain to close.
    stream: TcpStream,
    /// At a frame boundary, no request in flight: the drain may close it.
    idle: Arc<AtomicBool>,
    handler: JoinHandle<()>,
}

/// Accepts on `listener` until the stop is raised, serving each connection
/// on its own registered thread.
fn accept_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    conns: &Registry,
    serve: fn(TcpStream, &Inner, &AtomicBool),
) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        if inner.stop.raised() {
            // The connection that woke us, or a client racing the stop.
            return Ok(());
        }
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let idle = Arc::new(AtomicBool::new(true));
        let (inner, registry, flag) = (Arc::clone(inner), Arc::clone(conns), Arc::clone(&idle));
        // Registered under the lock the handler's last act takes, so the
        // entry is there before the handler can remove it.
        let mut live = conns.lock();
        let handler = std::thread::spawn(move || {
            serve(stream, &inner, &flag);
            // Let go of the runtime first: once the entry is gone nobody
            // joins this thread, and `run` must not return while it could
            // still be the one keeping the runtime from draining.
            drop(inner);
            registry.lock().remove(&std::thread::current().id());
        });
        let conn = Conn {
            stream: peer,
            idle,
            handler,
        };
        live.insert(conn.handler.thread().id(), conn);
    }
}

/// The `cts serve` daemon: a TCP front-end over one resident
/// [`JobRuntime`].
pub struct SortService {
    listener: TcpListener,
    inner: Arc<Inner>,
    conns: Registry,
    metrics_threads: Vec<JoinHandle<()>>,
}

impl SortService {
    /// Starts the runtime and binds the service listener. Use port 0 for
    /// a kernel-assigned port (read it back via
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, cfg: RuntimeConfig) -> Result<SortService, String> {
        let runtime = JobRuntime::start(cfg).map_err(|e| e.to_string())?;
        let evicted = runtime
            .fabric()
            .metrics()
            .counter("cts_results_evicted_total");
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind: {e}"))?;
        let stop = StopHandle::default();
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        stop.0.listeners.lock().push(bound);
        Ok(SortService {
            listener,
            inner: Arc::new(Inner {
                runtime,
                jobs: parking_lot::Mutex::new(BTreeMap::new()),
                evicted,
                stop,
            }),
            conns: Registry::default(),
            metrics_threads: Vec::new(),
        })
    }

    /// Binds a Prometheus text-format endpoint on `addr` (port 0 works;
    /// the bound address is returned). Any connection — e.g.
    /// `curl http://addr/metrics` — receives one minimal HTTP/1.1 200
    /// with the runtime's full metric dump and is closed. The listener
    /// thread exits with the service.
    pub fn serve_metrics(&mut self, addr: impl ToSocketAddrs) -> Result<SocketAddr, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("metrics bind: {e}"))?;
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        self.inner.stop.0.listeners.lock().push(bound);
        let (inner, conns) = (Arc::clone(&self.inner), Arc::clone(&self.conns));
        self.metrics_threads.push(std::thread::spawn(move || {
            let _ = accept_loop(&listener, &inner, &conns, serve_scrape);
        }));
        Ok(bound)
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this service exactly as a SHUTDOWN frame does.
    pub fn stop_handle(&self) -> StopHandle {
        self.inner.stop.clone()
    }

    /// Serves until stopped (SHUTDOWN frame or [`StopHandle`]), then
    /// drains as the module docs describe and returns.
    pub fn run(mut self) -> Result<(), String> {
        let accepted = accept_loop(&self.listener, &self.inner, &self.conns, serve_connection);
        // However accepting ended, everything else now ends the same way.
        self.inner.stop.stop();
        let handlers: Vec<JoinHandle<()>> = {
            let mut live = self.conns.lock();
            for conn in live.values().filter(|c| c.idle.load(Ordering::SeqCst)) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            live.drain().map(|(_, conn)| conn.handler).collect()
        };
        for h in handlers.into_iter().chain(self.metrics_threads.drain(..)) {
            let _ = h.join();
        }
        // The runtime itself drains on drop: admission closes, dispatchers
        // finish queued jobs, join.
        accepted.map_err(|e| format!("accept: {e}"))
    }
}

fn serve_connection(mut stream: TcpStream, inner: &Inner, idle: &AtomicBool) {
    while let Ok(Some(len)) = read_len(&mut stream) {
        idle.store(false, Ordering::SeqCst);
        let Ok(req) = read_payload(&mut stream, len) else {
            return;
        };
        let mut resp = vec![RESP_OK];
        if let Err(msg) = inner.handle_request(Bytes::from(req), &mut resp) {
            resp.clear();
            resp.push(RESP_ERR);
            resp.extend_from_slice(msg.as_bytes());
        }
        if write_frame(&mut stream, &resp).is_err() {
            return;
        }
        // Idle first, then look at the stop; the drain raises the stop
        // first, then looks at idle. Whichever order the two run in, either
        // this thread sees the stop or the drain sees it idle and closes the
        // socket under its next read.
        idle.store(true, Ordering::SeqCst);
        if inner.stop.raised() {
            return;
        }
    }
}

/// Answers one metrics scrape with the Prometheus dump and closes.
fn serve_scrape(mut stream: TcpStream, inner: &Inner, idle: &AtomicBool) {
    // Take in the request before answering: closing with it unread would
    // send a reset that can overtake the reply.
    let mut scratch = [0u8; 1024];
    let _ = stream.read(&mut scratch);
    idle.store(false, Ordering::SeqCst);
    let body = inner.runtime.fabric().render_prometheus();
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
}

// ---- client -------------------------------------------------------------

/// A client-side job state, mirroring [`JobStatus`] over the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteStatus {
    /// Admitted, waiting for a dispatcher.
    Queued,
    /// Running on the service's fabric.
    Running,
    /// Finished; digest/fetch will not block.
    Done,
    /// Failed with the contained service-side error message.
    Failed(String),
}

/// The `cts submit` side: one TCP connection to a [`SortService`].
pub struct ServiceClient {
    stream: TcpStream,
}

impl ServiceClient {
    /// Connects to a running service.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServiceClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(ServiceClient { stream })
    }

    /// Sends the request payload `req` and returns the OK response's
    /// payload: the buffer it was read into, the status byte read apart.
    fn roundtrip(&mut self, req: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(&mut self.stream, req).map_err(|e| format!("send: {e}"))?;
        let recv = |e: std::io::Error| format!("recv: {e}");
        let len = read_len(&mut self.stream)
            .map_err(recv)?
            .ok_or("service closed the connection")?;
        let len = len.checked_sub(1).ok_or("malformed response")?;
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status).map_err(recv)?;
        let payload = read_payload(&mut self.stream, len).map_err(recv)?;
        match status[0] {
            RESP_OK => Ok(payload),
            RESP_ERR => Err(String::from_utf8_lossy(&payload).into_owned()),
            _ => Err("malformed response".into()),
        }
    }

    /// A request payload: `op` followed by a job id.
    fn job_request(op: u8, id: u32) -> [u8; 5] {
        let id = id.to_le_bytes();
        [op, id[0], id[1], id[2], id[3]]
    }

    /// Submits a job; returns its service-wide id immediately.
    pub fn submit(&mut self, kind: &JobKind, r: usize, input: &[u8]) -> Result<u32, String> {
        let pattern: &[u8] = match kind {
            JobKind::Grep(p) => p,
            _ => &[],
        };
        let r = u8::try_from(r).map_err(|_| "r exceeds 255".to_string())?;
        let mut req = Vec::with_capacity(5 + pattern.len() + input.len());
        req.push(OP_SUBMIT);
        req.push(kind.code());
        req.push(r);
        req.extend_from_slice(
            &u16::try_from(pattern.len())
                .map_err(|_| "pattern too long".to_string())?
                .to_le_bytes(),
        );
        req.extend_from_slice(pattern);
        req.extend_from_slice(input);
        let resp = self.roundtrip(&req)?;
        Ok(u32::from_le_bytes(take::<4>(&resp, 0)?))
    }

    /// Polls a job's status.
    pub fn status(&mut self, id: u32) -> Result<RemoteStatus, String> {
        let resp = self.roundtrip(&Self::job_request(OP_STATUS, id))?;
        match resp.split_first() {
            Some((0, _)) => Ok(RemoteStatus::Queued),
            Some((1, _)) => Ok(RemoteStatus::Running),
            Some((2, _)) => Ok(RemoteStatus::Done),
            Some((3, msg)) => Ok(RemoteStatus::Failed(
                String::from_utf8_lossy(msg).into_owned(),
            )),
            _ => Err("malformed status".into()),
        }
    }

    /// Blocks until the job finishes and returns its result digest.
    pub fn digest(&mut self, id: u32) -> Result<ResultDigest, String> {
        let resp = self.roundtrip(&Self::job_request(OP_DIGEST, id))?;
        let parts = u32::from_le_bytes(take::<4>(&resp, 0)?) as usize;
        let mut partitions = Vec::with_capacity(parts);
        let mut at = 4;
        for _ in 0..parts {
            let len = u64::from_le_bytes(take::<8>(&resp, at)?);
            let hash = u64::from_le_bytes(take::<8>(&resp, at + 8)?);
            partitions.push((len, hash));
            at += 16;
        }
        let total = u64::from_le_bytes(take::<8>(&resp, at)?);
        Ok(ResultDigest { partitions, total })
    }

    /// Blocks until the job finishes and returns the full per-partition
    /// outputs.
    pub fn fetch(&mut self, id: u32) -> Result<Vec<Vec<u8>>, String> {
        let resp = self.roundtrip(&Self::job_request(OP_FETCH, id))?;
        let parts = u32::from_le_bytes(take::<4>(&resp, 0)?) as usize;
        let mut outputs = Vec::with_capacity(parts);
        let mut at = 4;
        for _ in 0..parts {
            let len = u64::from_le_bytes(take::<8>(&resp, at)?) as usize;
            at += 8;
            let part = (at.checked_add(len)).and_then(|end| resp.get(at..end));
            outputs.push(part.ok_or("truncated fetch payload")?.to_vec());
            at += len;
        }
        Ok(outputs)
    }

    /// Fetches the service's live-stats table: job lifecycle counts,
    /// admission/slot gauges, the cross-job stage-latency summary
    /// (p50/p99/max), and a per-job stage/NIC breakdown.
    pub fn stats(&mut self) -> Result<String, String> {
        let resp = self.roundtrip(&[OP_STATS])?;
        Ok(String::from_utf8_lossy(&resp).into_owned())
    }

    /// Blocks until the job finishes and returns its per-stage timeline
    /// as Chrome trace-event JSON (load it in `chrome://tracing` or
    /// Perfetto).
    pub fn timeline(&mut self, id: u32) -> Result<String, String> {
        let resp = self.roundtrip(&Self::job_request(OP_TIMELINE, id))?;
        Ok(String::from_utf8_lossy(&resp).into_owned())
    }

    /// Asks the service to stop accepting and shut down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.roundtrip(&[OP_SHUTDOWN]).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teragen::generate;
    use cts_mapreduce::stage::EngineConfig;
    use cts_mapreduce::verify::run_sequential;

    fn service(
        k: usize,
        r: usize,
        max_concurrent: usize,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let cfg = RuntimeConfig::new(EngineConfig::local(k, r)).with_max_concurrent(max_concurrent);
        let svc = SortService::bind("127.0.0.1:0", cfg).unwrap();
        let addr = svc.local_addr().unwrap();
        let server = std::thread::spawn(move || svc.run().unwrap());
        (addr, server)
    }

    #[test]
    fn xxh64_gives_the_published_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one stripe, then an 8-, a 4- and three 1-byte steps.
        let spam = b"Nobody inspects the spammish repetition";
        assert_eq!(xxh64(spam), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        // 0..=100 bytes: every tail path, with and without the stripe loop.
        for len in 0..=100usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let hash = xxh64(&data);
            for at in 0..len {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[at] ^= 1 << bit;
                    assert_ne!(xxh64(&flipped), hash, "len {len}, byte {at}, bit {bit}");
                }
            }
        }
    }

    #[test]
    fn digest_hashes_each_partition_and_the_list_of_their_hashes() {
        let outputs = vec![
            generate(40, 1).to_vec(),
            Vec::new(),
            generate(7, 2).to_vec(),
        ];
        let digest = ResultDigest::of(&outputs);
        let expected: Vec<(u64, u64)> = (outputs.iter())
            .map(|o| (o.len() as u64, xxh64(o)))
            .collect();
        assert_eq!(digest.partitions, expected);
        assert_eq!(ResultDigest::of(&[]).total, xxh64(&[]));

        // A flipped bit shows in its own partition's hash and the total only.
        let mut flipped = outputs.clone();
        flipped[2][123] ^= 0x10;
        let other = ResultDigest::of(&flipped);
        assert_ne!(other.total, digest.total);
        assert_ne!(other.partitions[2], digest.partitions[2]);
        assert_eq!(other.partitions[..2], digest.partitions[..2]);

        // The same bytes cut or ordered differently are another result.
        let swapped = vec![outputs[2].clone(), outputs[1].clone(), outputs[0].clone()];
        let (head, moved) = outputs[0].split_at(outputs[0].len() - 100);
        let recut = vec![head.to_vec(), moved.to_vec(), outputs[2].clone()];
        let mut padded = outputs.clone();
        padded.push(Vec::new());
        for changed in [swapped, recut, padded] {
            assert_ne!(ResultDigest::of(&changed).total, digest.total);
        }
    }

    #[test]
    fn submit_status_digest_fetch_roundtrip() {
        let (addr, server) = service(3, 2, 2);
        let input = generate(300, 99);
        let mut client = ServiceClient::connect(addr).unwrap();
        let id = client.submit(&JobKind::Sort, 2, &input).unwrap();
        let digest = client.digest(id).unwrap();
        assert_eq!(client.status(id).unwrap(), RemoteStatus::Done);
        let fetched = client.fetch(id).unwrap();
        // Byte-identical to a one-shot run of the same job.
        let local =
            crate::driver::run_terasort(input.clone(), &crate::driver::SortJob::local(3, 1))
                .unwrap();
        assert_eq!(fetched, local.outcome.outputs);
        assert_eq!(digest, ResultDigest::of(&local.outcome.outputs));
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn wordcount_and_grep_jobs_serve_too() {
        let (addr, server) = service(3, 2, 2);
        let text = b"the quick brown fox\nthe lazy dog\nthe end\n";
        let mut client = ServiceClient::connect(addr).unwrap();
        let wc = client.submit(&JobKind::WordCount, 2, text).unwrap();
        let gr = client
            .submit(&JobKind::Grep(b"the".to_vec()), 1, text)
            .unwrap();
        let wc_out = client.fetch(wc).unwrap();
        let gr_out = client.fetch(gr).unwrap();
        assert_eq!(
            wc_out,
            run_sequential(&WordCount, &Bytes::copy_from_slice(text), 3)
        );
        assert_eq!(
            gr_out,
            run_sequential(&Grep::new(&b"the"[..]), &Bytes::copy_from_slice(text), 3)
        );
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn unknown_job_id_yields_an_error_not_a_hang() {
        let (addr, server) = service(2, 1, 1);
        let mut client = ServiceClient::connect(addr).unwrap();
        assert!(client.status(777).is_err());
        assert!(client.digest(777).is_err());
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn concurrent_clients_share_one_runtime() {
        let (addr, server) = service(3, 2, 4);
        let inputs: Vec<Vec<u8>> = (0..8)
            .map(|i| generate(200 + i * 10, i as u64).to_vec())
            .collect();
        let digests: Vec<ResultDigest> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|input| {
                    s.spawn(move || {
                        let mut client = ServiceClient::connect(addr).unwrap();
                        let id = client.submit(&JobKind::Sort, 2, input).unwrap();
                        client.digest(id).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (input, digest) in inputs.iter().zip(&digests) {
            let local = crate::driver::run_terasort(
                Bytes::copy_from_slice(input),
                &crate::driver::SortJob::local(3, 1),
            )
            .unwrap();
            assert_eq!(*digest, ResultDigest::of(&local.outcome.outputs));
        }
        let mut client = ServiceClient::connect(addr).unwrap();
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn three_clients_digest_one_running_job() {
        // 6 MB through K = 3: the job is still running when the three
        // DIGESTs arrive, and the runtime hands its outcome out once.
        let (addr, server) = service(3, 2, 2);
        let input = generate(60_000, 5);
        let local =
            crate::driver::run_terasort(input.clone(), &crate::driver::SortJob::local(3, 1))
                .unwrap();
        let reference = ResultDigest::of(&local.outcome.outputs);
        let mut clients: Vec<ServiceClient> = (0..3)
            .map(|_| ServiceClient::connect(addr).unwrap())
            .collect();
        for round in 0..20 {
            let id = clients[0].submit(&JobKind::Sort, 2, &input).unwrap();
            let gate = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                for client in &mut clients {
                    let (gate, reference) = (&gate, &reference);
                    s.spawn(move || {
                        gate.wait();
                        assert_eq!(client.digest(id).as_ref(), Ok(reference), "round {round}");
                    });
                }
            });
        }
        clients[0].shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn an_early_digest_does_not_poison_the_id() {
        let (addr, server) = service(2, 1, 1);
        let mut client = ServiceClient::connect(addr).unwrap();
        // Ids count up from 1: ask for the first before it exists.
        assert!(client.digest(1).unwrap_err().contains("unknown job id 1"));
        let input = generate(200, 1);
        assert_eq!(client.submit(&JobKind::Sort, 1, &input).unwrap(), 1);
        let local =
            crate::driver::run_terasort(input, &crate::driver::SortJob::local(2, 1)).unwrap();
        assert_eq!(
            client.digest(1),
            Ok(ResultDigest::of(&local.outcome.outputs))
        );
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn stats_has_rows_for_the_recent_jobs_only() {
        // Straight into the daemon's core: over the wire each of the 100
        // round trips would wait out a delayed ACK.
        let cfg = RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(1);
        let daemon = SortService::bind("127.0.0.1:0", cfg).unwrap().inner;
        let input = generate(20, 3);
        let mut newest = 0;
        for _ in 0..100 {
            newest = daemon.submit(JobKind::Sort, 1, input.clone()).unwrap();
            daemon.outcome_of(newest).unwrap();
            assert!(daemon.jobs.lock().len() <= FINISHED_JOBS_KEPT);
        }
        let stats = daemon.render_stats();
        // The counts cover every job since boot, the table the last 64.
        assert!(stats.contains("100 known") && stats.contains("100 done"));
        assert!(stats.contains("results evicted 36"), "{stats}");
        let rows: Vec<&str> = stats.lines().filter(|l| l.starts_with("  job ")).collect();
        assert!(!rows.is_empty() && rows.len() <= 64, "{} rows", rows.len());
        let last = rows.last().unwrap();
        assert!(
            last.starts_with(&format!("  job {newest:<5} done")),
            "{last}"
        );
        assert!(
            last.contains(" Map=") && last.contains(" Reduce="),
            "{last}"
        );
    }

    #[test]
    fn a_client_that_never_asks_leaves_a_bounded_table_and_an_aged_out_id_says_so() {
        // One dispatcher: jobs end in id order, so once the newest has ended
        // all have.
        let cfg = RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(1);
        let in_flight = cfg.queue_capacity + cfg.max_concurrent;
        let daemon = SortService::bind("127.0.0.1:0", cfg).unwrap().inner;
        let input = generate(20, 3);
        let mut newest = 0;
        while newest < 500 {
            // Refused while the queue is full: a sloppy client just retries.
            match daemon.submit(JobKind::Sort, 1, input.clone()) {
                Ok(id) => newest = id,
                Err(busy) => assert!(busy.contains("admission queue full"), "{busy}"),
            }
            assert!(daemon.jobs.lock().len() <= FINISHED_JOBS_KEPT + in_flight);
        }
        let reference = ResultDigest::of(&daemon.outcome_of(newest).unwrap().outputs);
        // All but the last 64 were evicted unasked, and each of those ids
        // knows what became of it.
        let mut reply = vec![];
        let request = |op: u8, id: u32| Bytes::copy_from_slice(&ServiceClient::job_request(op, id));
        for op in [OP_STATUS, OP_DIGEST, OP_FETCH, OP_TIMELINE] {
            let aged_out = daemon
                .handle_request(request(op, 1), &mut reply)
                .unwrap_err();
            assert!(aged_out.starts_with("job 1: result evicted"), "{aged_out}");
        }
        let never_issued = daemon.handle_request(request(OP_DIGEST, 501), &mut reply);
        assert_eq!(never_issued.unwrap_err(), "unknown job id 501");
        daemon.render_stats();
        let kept: Vec<u32> = daemon.jobs.lock().keys().copied().collect();
        assert_eq!(kept, (437..=500).collect::<Vec<u32>>());
        assert_eq!(daemon.evicted.get(), 436);
        let oldest = daemon.outcome_of(437).unwrap();
        assert_eq!(ResultDigest::of(&oldest.outputs), reference);
    }

    #[test]
    fn the_table_keeps_256_mib_of_results_and_always_the_newest() {
        let cfg = RuntimeConfig::new(EngineConfig::local(2, 1)).with_max_concurrent(1);
        let daemon = SortService::bind("127.0.0.1:0", cfg).unwrap().inner;
        // A job that claims `mib` MiB of output: zeroed pages nobody touches,
        // so address space, not memory. Entered the way `submit` enters one.
        let finish = |mib: usize| {
            let claim = move |ctx: &cts_mapreduce::JobContext<'_>| {
                let sort = TeraSortWorkload::range(ctx.cfg.k);
                let mut outcome = ctx.run(&sort, generate(20, 1), &ctx.cfg)?;
                outcome.outputs = vec![vec![0u8; mib << 20]];
                Ok(outcome)
            };
            let handle = daemon.runtime.submit(claim).unwrap();
            let id = handle.id();
            daemon.jobs.lock().insert(id, Entry::new(handle));
            daemon.outcome_of(id).unwrap();
            daemon.jobs.lock().keys().copied().collect::<Vec<u32>>()
        };
        assert_eq!(finish(100), vec![1]);
        assert_eq!(finish(100), vec![1, 2]);
        // 300 MiB is over: the oldest goes, and 200 MiB fit.
        assert_eq!(finish(100), vec![2, 3]);
        assert_eq!(finish(56), vec![2, 3, 4]);
        assert_eq!(finish(1), vec![3, 4, 5]);
        // Over the bound all by itself, and kept while it is the newest.
        assert_eq!(finish(300), vec![6]);
        assert_eq!(finish(1), vec![7]);
        assert_eq!(daemon.evicted.get(), 6);
        let aged_out = daemon.outcome_of(6).unwrap_err();
        assert!(aged_out.starts_with("job 6: result evicted"), "{aged_out}");
    }

    /// Polls `cond` (the daemon's own state, which no event reports to a
    /// test) until it holds.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_lying_length_header_costs_nothing_and_the_next_client_is_served() {
        let (addr, server) = service(2, 1, 1);
        let mut liar = TcpStream::connect(addr).unwrap();
        // Just under the 1 GiB cap, then hang up: nothing may be allocated
        // on the header's say-so, and the daemon must carry on.
        liar.write_all(&[0xFF, 0xFF, 0xFF, 0x3F]).unwrap();
        drop(liar);
        let mut oversized = TcpStream::connect(addr).unwrap();
        oversized.write_all(&[0xFF; 4]).unwrap();
        assert_eq!(oversized.read(&mut [0u8; 1]).unwrap(), 0, "over the cap");
        let mut client = ServiceClient::connect(addr).unwrap();
        assert!(client.stats().unwrap().contains("jobs: 0 known"));
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn every_way_to_stop_ends_run_under_an_idle_client() {
        let by_frame: fn(SocketAddr, &StopHandle) = |addr, _| {
            ServiceClient::connect(addr).unwrap().shutdown().unwrap();
        };
        let by_handle: fn(SocketAddr, &StopHandle) = |_, handle| handle.stop();
        let by_raw_frame: fn(SocketAddr, &StopHandle) = |addr, _| {
            // What `cts serve`'s signal handler does.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&SHUTDOWN_FRAME).unwrap();
        };
        for stop in [by_frame, by_handle, by_raw_frame] {
            let cfg = RuntimeConfig::new(EngineConfig::local(2, 1));
            let mut svc = SortService::bind("127.0.0.1:0", cfg).unwrap();
            let addr = svc.local_addr().unwrap();
            let metrics = svc.serve_metrics("127.0.0.1:0").unwrap();
            let handle = svc.stop_handle();
            let server = std::thread::spawn(move || svc.run());
            // One client mid-session, one that never said a word, and a
            // scraper that connected and never asked.
            let mut idle = ServiceClient::connect(addr).unwrap();
            idle.stats().unwrap();
            let mut silent = TcpStream::connect(addr).unwrap();
            let _mute_scraper = TcpStream::connect(metrics).unwrap();
            stop(addr, &handle);
            server.join().unwrap().expect("drain is a clean exit");
            assert!(idle.stats().is_err(), "closed at the frame boundary");
            assert_eq!(silent.read(&mut [0u8; 1]).unwrap_or(0), 0);
        }
    }

    #[test]
    fn a_digest_blocked_on_a_running_job_outlives_the_drain() {
        // Behind the paper's 100 Mbps NIC the 1 MB shuffle alone takes tens
        // of milliseconds: long enough to stop the daemon under it.
        let engine = EngineConfig::local(3, 1).with_nic(cts_net::NicProfile::paper_100mbps());
        let svc = SortService::bind("127.0.0.1:0", RuntimeConfig::new(engine)).unwrap();
        let addr = svc.local_addr().unwrap();
        let (handle, conns) = (svc.stop_handle(), Arc::clone(&svc.conns));
        let server = std::thread::spawn(move || svc.run());
        let input = generate(10_000, 3);
        let mut client = ServiceClient::connect(addr).unwrap();
        let id = client.submit(&JobKind::Sort, 1, &input).unwrap();
        let busy = || {
            let live = conns.lock();
            live.values().any(|conn| !conn.idle.load(Ordering::SeqCst))
        };
        eventually("the handler is back at the frame boundary", || !busy());
        let waiter = std::thread::spawn(move || client.digest(id));
        eventually("the DIGEST request is in flight", busy);
        handle.stop();
        let digest = waiter.join().unwrap().expect("in-flight request answered");
        let local =
            crate::driver::run_terasort(input, &crate::driver::SortJob::local(3, 1)).unwrap();
        assert_eq!(digest, ResultDigest::of(&local.outcome.outputs));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let svc = SortService::bind("127.0.0.1:0", RuntimeConfig::new(EngineConfig::local(2, 1)))
            .unwrap();
        let addr = svc.local_addr().unwrap();
        let conns = Arc::clone(&svc.conns);
        let server = std::thread::spawn(move || svc.run());
        for _ in 0..50 {
            ServiceClient::connect(addr).unwrap().stats().unwrap();
        }
        eventually("every finished handler removed its entry", || {
            conns.lock().is_empty()
        });
        let mut client = ServiceClient::connect(addr).unwrap();
        client.stats().unwrap();
        assert_eq!(conns.lock().len(), 1);
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }
}
