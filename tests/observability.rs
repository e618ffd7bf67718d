//! The observability plane end to end: concurrent jobs must separate
//! cleanly in the shared trace/span logs (tenant isolation of the
//! *accounting*, not just the bytes), the daemon must answer STATS and
//! serve a Prometheus dump mid-flight, the TIMELINE frame must be
//! Chrome trace-event JSON whose per-stage extents agree with the span
//! log's own accounting, and `run` must drain gracefully when stopped.

use std::io::{Read, Write};
use std::net::TcpStream;

use bytes::Bytes;
use coded_terasort::mapreduce::stage::stages;
use coded_terasort::mapreduce::timeline::{chrome_trace, stage_totals_ns};
use coded_terasort::prelude::*;
use coded_terasort::terasort::ResultDigest;

/// Shuffle accounting of one coded sort run alone on a fresh runtime.
fn solo_shuffle_accounting(k: usize, r: usize, input: &Bytes) -> (u64, u64) {
    let runtime = JobRuntime::start(RuntimeConfig::new(EngineConfig::local(k, r))).unwrap();
    let input = input.clone();
    let out = runtime
        .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), input, &ctx.cfg))
        .unwrap()
        .wait()
        .unwrap();
    let acc = (
        out.trace.stage_bytes(stages::SHUFFLE),
        out.trace.stage_wire_sends(stages::SHUFFLE),
    );
    runtime.shutdown();
    acc
}

/// Three coded sorts in flight at once on one fabric: every outcome's
/// trace and span log must carry exactly its own job tag, and its
/// shuffle byte/wire-send accounting must be byte-for-byte what the same
/// job produces running alone — interleaving jobs may not bleed
/// transfers into each other's ledgers.
#[test]
fn concurrent_job_traces_and_spans_separate_cleanly() {
    let (k, r) = (4usize, 2usize);
    let inputs: Vec<Bytes> = (0..3)
        .map(|i| teragen::generate(800 + 200 * i, 11 * i as u64 + 1))
        .collect();
    let solo: Vec<(u64, u64)> = inputs
        .iter()
        .map(|input| solo_shuffle_accounting(k, r, input))
        .collect();

    let runtime = JobRuntime::start(
        RuntimeConfig::new(EngineConfig::local(k, r))
            .with_max_concurrent(3)
            .with_queue_capacity(8),
    )
    .unwrap();
    let handles: Vec<_> = inputs
        .iter()
        .map(|input| {
            let input = input.clone();
            runtime
                .submit(move |ctx| ctx.run(&TeraSortWorkload::range(ctx.cfg.k), input, &ctx.cfg))
                .unwrap()
        })
        .collect();
    let ids: Vec<u32> = handles.iter().map(|h| h.id()).collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    for ((outcome, id), (solo_bytes, solo_sends)) in outcomes.iter().zip(&ids).zip(&solo) {
        assert_eq!(outcome.trace.jobs(), vec![*id], "foreign job in trace");
        assert_eq!(outcome.spans.jobs(), vec![*id], "foreign job in spans");
        assert_eq!(
            outcome.trace.stage_bytes(stages::SHUFFLE),
            *solo_bytes,
            "job {id}: concurrent shuffle bytes diverged from solo run"
        );
        assert_eq!(
            outcome.trace.stage_wire_sends(stages::SHUFFLE),
            *solo_sends,
            "job {id}: concurrent wire sends diverged from solo run"
        );
        // Every coded stage closed at least one span for this job.
        for stage in [
            stages::CODEGEN,
            stages::MAP,
            stages::PACK_ENCODE,
            stages::SHUFFLE,
            stages::UNPACK_DECODE,
            stages::REDUCE,
        ] {
            assert!(
                !outcome.spans.stage_durations_ns(stage).is_empty(),
                "job {id}: no {stage} span"
            );
        }
    }
    // Between them the three logs saw all three tenants, each once.
    let all: Vec<u32> = outcomes.iter().flat_map(|o| o.spans.jobs()).collect();
    assert_eq!(all, ids);
    runtime.shutdown();
}

/// Pulls the `u64` after `"key":` out of a serialized trace event.
fn field(event: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = event.find(&pat).unwrap_or_else(|| panic!("no {key}")) + pat.len();
    event[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The exported Chrome trace must reproduce the span log's per-stage
/// accounting: for every stage, the wall extent computed from the JSON
/// events (latest `ts + dur` minus earliest `ts`) matches
/// `stage_totals_ns` to within the format's microsecond rounding.
#[test]
fn chrome_trace_totals_match_span_accounting() {
    let input = teragen::generate(2_000, 42);
    let outcome = run(
        &TeraSortWorkload::range(4),
        input,
        &EngineConfig::local(4, 2),
    )
    .unwrap();
    let json = chrome_trace(&outcome, 0);
    assert!(json.starts_with("{\"traceEvents\":["), "not a trace doc");

    let events: Vec<&str> = json
        .split("{\"name\":")
        .skip(1)
        .map(|e| e.split('}').next().unwrap())
        .collect();
    assert!(!events.is_empty());

    for (stage, wall_ns) in stage_totals_ns(&outcome) {
        let needle = format!("\"{stage}\"");
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let mut count = 0usize;
        for e in events.iter().filter(|e| e.starts_with(&needle)) {
            let ts = field(e, "ts");
            lo = lo.min(ts);
            hi = hi.max(ts + field(e, "dur"));
            count += 1;
        }
        assert_eq!(count, 4, "{stage}: expected one event per rank");
        let json_wall_us = hi - lo;
        let expect_us = wall_ns / 1_000;
        // Each ts/dur rounds independently to µs (sub-µs durations round
        // *up* to 1), so allow one µs of slack per contributing bound.
        assert!(
            json_wall_us.abs_diff(expect_us) <= 4,
            "{stage}: timeline wall {json_wall_us} µs vs span accounting {expect_us} µs"
        );
    }
}

fn bound_service(k: usize, r: usize) -> SortService {
    let cfg = RuntimeConfig::new(EngineConfig::local(k, r))
        .with_max_concurrent(2)
        .with_queue_capacity(8);
    SortService::bind("127.0.0.1:0", cfg).unwrap()
}

/// Grabs the first sample line of `series` from a Prometheus dump.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Live daemon introspection: after two jobs complete, the STATS frame
/// reports their lifecycle counts, admission gauges, and per-stage
/// latency quantiles, and the plain-TCP `/metrics` responder serves a
/// Prometheus text dump whose counters agree.
#[test]
fn stats_frame_and_metrics_endpoint_report_live_counters() {
    let mut svc = bound_service(3, 2);
    let addr = svc.local_addr().unwrap();
    let metrics_addr = svc.serve_metrics(("127.0.0.1", 0)).unwrap();
    let server = std::thread::spawn(move || svc.run().unwrap());

    let mut client = ServiceClient::connect(addr).unwrap();
    let inputs: Vec<Bytes> = (0..2).map(|i| teragen::generate(400, i as u64)).collect();
    for input in &inputs {
        let id = client.submit(&JobKind::Sort, 2, input).unwrap();
        client.digest(id).unwrap(); // blocks until the job is done
    }

    let stats = client.stats().unwrap();
    assert!(
        stats.contains("2 done"),
        "lifecycle counts missing:\n{stats}"
    );
    assert!(
        stats.contains("admission: queue"),
        "gauges missing:\n{stats}"
    );
    assert!(
        stats.contains("\npool: ") && stats.contains(" MB retained"),
        "buffer pool line missing:\n{stats}"
    );
    assert!(
        stats.contains("p50") && stats.contains("p99"),
        "quantile columns missing:\n{stats}"
    );
    for stage in [stages::MAP, stages::SHUFFLE, stages::REDUCE] {
        assert!(stats.contains(stage), "{stage} row missing:\n{stats}");
    }

    // Scrape the minimal HTTP responder with a raw socket.
    let mut sock = TcpStream::connect(metrics_addr).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "bad response:\n{resp}");
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_eq!(sample(body, "cts_jobs_submitted_total"), Some(2.0));
    assert_eq!(sample(body, "cts_jobs_completed_total"), Some(2.0));
    assert_eq!(sample(body, "cts_admission_queue_capacity"), Some(8.0));
    assert!(
        sample(body, "cts_stage_seconds{stage=\"Map\",quantile=\"0.5\"}").is_some(),
        "stage summary missing:\n{body}"
    );

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The graceful-drain path of an embedding process: the stop handle (no
/// SHUTDOWN frame) makes `run` return cleanly after in-flight work
/// finishes, and the port stops answering.
#[test]
fn run_until_drains_and_exits_on_stop_flag() {
    let svc = bound_service(3, 2);
    let addr = svc.local_addr().unwrap();
    let stop = svc.stop_handle();
    let server = std::thread::spawn(move || svc.run().unwrap());

    let input = teragen::generate(500, 9);
    let mut client = ServiceClient::connect(addr).unwrap();
    let id = client.submit(&JobKind::Sort, 2, &input).unwrap();
    let digest = client.digest(id).unwrap();
    let local = run_terasort(input, &SortJob::local(3, 1)).unwrap();
    assert_eq!(digest, ResultDigest::of(&local.outcome.outputs));

    stop.stop();
    server.join().expect("run did not drain");
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The listener may linger in the accept backlog for an
            // instant; a served connection would answer a STATS frame,
            // a drained one hangs up.
            ServiceClient::connect(addr)
                .map(|mut c| c.stats().is_err())
                .unwrap_or(true)
        },
        "daemon still serving after drain"
    );
}
