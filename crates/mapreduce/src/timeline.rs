//! Chrome trace-event export of a job's stage spans.
//!
//! [`chrome_trace`] turns a [`JobOutcome`]'s recorded
//! [`SpanLog`](cts_net::span::SpanLog) into the Trace Event Format JSON
//! that `chrome://tracing` and Perfetto load directly: one complete
//! (`"ph": "X"`) event per rank per stage, `pid` = job id, `tid` = rank.
//! Loading the file reproduces the paper's Fig. 9 stage breakdown for
//! that job — each rank's Map / Encode / Shuffle / Decode / Reduce
//! bracket laid out on a common timebase. Unlike Fig. 9, one rank's events
//! overlap in time: an event runs from its stage's first slice to its
//! last, a rank's Shuffle opens with its first post — while it is still
//! mapping — and its Decode runs inside it; `args.wall_us` is the time the
//! rank actually spent in the stage.
//!
//! Timestamps are microseconds (the format's unit) on the fabric's clock
//! — a daemon's jobs share one timebase; durations under 1 µs round up to 1 so hairline
//! stages stay visible.

use std::fmt::Write as _;

use crate::uncoded::JobOutcome;

/// Microseconds, rounding a nonzero duration up to at least 1.
fn us(ns: u64) -> u64 {
    if ns == 0 {
        0
    } else {
        (ns / 1_000).max(1)
    }
}

/// Renders `outcome`'s spans as Chrome trace-event JSON, under `pid`
/// `job_id`.
///
/// The output is a complete JSON document (`{"traceEvents": [...]}`)
/// ready to write to disk and load into a trace viewer.
pub fn chrome_trace(outcome: &JobOutcome, job_id: u32) -> String {
    let log = &outcome.spans;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in log.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, log.stage_name(s.stage));
        let _ = write!(
            out,
            ",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{job_id},\"tid\":{},\"args\":{{\"wall_us\":{}}}}}",
            us(s.start_ns),
            us(s.dur_ns()),
            s.rank,
            us(s.wall_ns),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Appends `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Per-stage wall totals (ns) of the spans behind [`chrome_trace`], in
/// first-appearance order — the cross-check that the exported timeline
/// and the engine's own stage accounting agree.
pub fn stage_totals_ns(outcome: &JobOutcome) -> Vec<(String, u64)> {
    let log = &outcome.spans;
    log.stages_in_order()
        .iter()
        .map(|name| ((*name).to_string(), log.stage_wall_ns(name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use crate::stage::{stages, EngineConfig};
    use crate::testutil::{sample_input, ByteSort};
    use cts_net::span::{SpanLog, StageSpan};

    #[test]
    fn chrome_trace_covers_every_rank_and_stage() {
        let outcome = run(&ByteSort, sample_input(500), &EngineConfig::local(3, 1)).unwrap();
        let json = chrome_trace(&outcome, 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        // Every uncoded stage appears as an event name.
        for stage in [
            stages::MAP,
            stages::PACK_ENCODE,
            stages::SHUFFLE,
            stages::UNPACK_DECODE,
            stages::REDUCE,
        ] {
            assert!(json.contains(&format!("\"name\":\"{stage}\"")), "{stage}");
        }
        // Three ranks → each stage occurs three times, however many slices
        // a rank spent in it.
        assert_eq!(json.matches("\"name\":\"Map\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 15);
        // A rank's Shuffle opens with its first post and contains its
        // Decode: the two events overlap.
        let log = &outcome.spans;
        let of = |stage| {
            let idx = log.stage_index(stage).unwrap();
            *log.spans
                .iter()
                .find(|s| s.rank == 0 && s.stage == idx)
                .unwrap()
        };
        let (shuffle, decode) = (of(stages::SHUFFLE), of(stages::UNPACK_DECODE));
        assert!(shuffle.start_ns <= decode.start_ns && decode.start_ns <= shuffle.end_ns);
        // Totals line up with the span log's own accounting.
        let totals = stage_totals_ns(&outcome);
        assert_eq!(totals.len(), 5);
        assert!(totals.iter().all(|(_, ns)| *ns > 0));
    }

    /// One event, key for key and byte for byte: the layout a trace
    /// viewer loads, a sub-microsecond wall rounded up to 1 and a stage
    /// name escaped.
    #[test]
    fn one_event_renders_exactly() {
        let mut outcome = run(&ByteSort, sample_input(50), &EngineConfig::local(2, 1)).unwrap();
        outcome.spans = SpanLog {
            names: vec!["init".into(), "Pack/Encode \"v2\"".into()],
            spans: vec![StageSpan {
                job: 7,
                rank: 2,
                stage: 1,
                start_ns: 1_500_000,
                end_ns: 3_000_400,
                wall_ns: 400,
            }],
        };
        assert_eq!(
            chrome_trace(&outcome, 7),
            concat!(
                r#"{"traceEvents":[{"name":"Pack/Encode \"v2\"","cat":"stage","ph":"X","#,
                r#""ts":1500,"dur":1500,"pid":7,"tid":2,"args":{"wall_us":1}}],"#,
                r#""displayTimeUnit":"ms"}"#,
            )
        );
    }
}
