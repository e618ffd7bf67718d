//! The one-shot path: one caller invoking `run_terasort` /
//! `run_coded_terasort` in rounds of [uncoded, coded, quorum].

use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_mapreduce::stage::NodeWall;
use cts_mapreduce::uncoded::JobOutcome;
use cts_net::trace::Trace;
use cts_netsim::SHUFFLE_STAGE;
use cts_terasort::driver::{run_coded_terasort, run_terasort};
use cts_terasort::{teragen, validate};

use crate::report::Tally;
use crate::spans::{Recorder, SpanId};
use crate::spec::{Variant, Workload};

/// Everything a one-shot caller needs before the first measured call.
pub struct Prepared {
    /// The TeraGen input.
    pub input: Bytes,
    /// Output partitions of the uncoded run every later output must equal.
    pub reference: Vec<Vec<u8>>,
    /// Call walls of the discarded warm-up round, in [`Variant::ALL`] order.
    pub first_round_s: [f64; 3],
    /// Exact counts and the transfer trace of each variant's warm-up call.
    pub shapes: Vec<Shape>,
}

/// What one variant's job moves; repeats exactly from call to call.
pub struct Shape {
    /// Application bytes shuffled (multicasts counted once).
    pub shuffle_bytes: u64,
    /// Frames that left a sender during the shuffle.
    pub wire_sends: u64,
    /// Shuffled bytes over input bytes.
    pub comm_load: f64,
    /// Multicast groups set up by CodeGen (0 when uncoded).
    pub groups: u64,
    /// Transfer trace, for the netsim predictors.
    pub trace: Trace,
}

/// One measured call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Which variant ran.
    pub variant: Variant,
    /// Wall-clock of the whole call, fabric build and teardown included.
    pub wall_s: f64,
    /// Whether the harness recorded spans around it.
    pub traced: bool,
    /// Slowest-node wall per stage, from `JobOutcome.wall`.
    pub stages: NodeWall,
}

impl Call {
    /// Call wall minus the stage walls: fabric build, input split, thread
    /// spawn, aggregation.
    pub fn outside_stages_s(&self) -> f64 {
        self.wall_s - self.stages.total().as_secs_f64()
    }
}

/// Runs one variant once; returns the outcome and the call's wall-clock.
fn call(
    w: &Workload,
    variant: Variant,
    input: &Bytes,
) -> Result<(JobOutcome, Instant, Instant), String> {
    let job = w.sort_job(variant);
    let input = input.clone();
    let start = Instant::now();
    let run = match variant {
        Variant::Uncoded => run_terasort(input, &job),
        Variant::Coded | Variant::Quorum => run_coded_terasort(input, &job),
    };
    let end = Instant::now();
    run.map(|r| (r.outcome, start, end))
        .map_err(|e| e.to_string())
}

/// Generates the input and runs the warm-up round. Its uncoded output,
/// once it passes TeraValidate, is the reference; the coded and quorum
/// outputs must pass TeraValidate too and equal it byte for byte.
pub fn prepare(w: &Workload, seed: u64, tally: &mut Tally) -> Result<Prepared, String> {
    let input = teragen::generate(w.records, seed);
    let mut reference: Vec<Vec<u8>> = Vec::new();
    let mut first_round_s = [0.0; 3];
    let mut shapes = Vec::with_capacity(3);
    for v in Variant::ALL {
        let (outcome, start, end) = call(w, v, &input)?;
        first_round_s[v.index()] = (end - start).as_secs_f64();
        let valid = validate(&input, &outcome.outputs).is_ok();
        shapes.push(Shape {
            shuffle_bytes: outcome.stats.shuffle_bytes(),
            wire_sends: outcome.trace.stage_wire_sends(SHUFFLE_STAGE),
            comm_load: outcome.stats.comm_load(w.input_bytes() as u64),
            groups: outcome.stats.num_groups,
            trace: outcome.trace,
        });
        if v == Variant::Uncoded {
            reference = outcome.outputs;
            tally.check(valid, || "uncoded output fails TeraValidate".into());
        } else {
            tally.check(valid && outcome.outputs == reference, || {
                format!("warm-up {} output differs from the reference", v.name())
            });
        }
    }
    Ok(Prepared {
        input,
        reference,
        first_round_s,
        shapes,
    })
}

/// Runs rounds of [uncoded, coded, quorum] until `window` has elapsed (at
/// least one round, at most `max_rounds`), checking every output against
/// the reference outside the timed region. With a recorder, every second
/// round is recorded into it and the others stay plain, so one run yields
/// both sides of the tracing overhead.
pub fn measure(
    w: &Workload,
    prepared: &Prepared,
    window: Duration,
    max_rounds: usize,
    recorder: Option<&Recorder>,
    tally: &mut Tally,
) -> Vec<Call> {
    let started = Instant::now();
    let mut calls = Vec::new();
    for round in 0..max_rounds {
        if round > 0 && started.elapsed() >= window {
            break;
        }
        let recorder = recorder.filter(|_| round.is_multiple_of(2));
        let round_start = Instant::now();
        let round_span = recorder.map(|r| r.open("sort.round", round_start, None, round as u64, 0));
        for v in Variant::ALL {
            match call(w, v, &prepared.input) {
                Ok((outcome, start, end)) => {
                    if let Some(rec) = recorder {
                        let name = format!("sort.{}", v.name());
                        let id = rec.leaf(&name, start, end, round_span, round as u64, 0);
                        attach_stage_spans(rec, id, start, &outcome, round as u64);
                    }
                    tally.check(outcome.outputs == prepared.reference, || {
                        format!(
                            "round {round} {} output differs from the reference",
                            v.name()
                        )
                    });
                    calls.push(Call {
                        variant: v,
                        wall_s: (end - start).as_secs_f64(),
                        traced: recorder.is_some(),
                        stages: outcome.wall.max,
                    });
                }
                Err(e) => tally.check(false, || format!("round {round} {}: {e}", v.name())),
            }
        }
        if let (Some(rec), Some(id)) = (recorder, round_span) {
            rec.close(id, Instant::now());
        }
    }
    calls
}

/// Attaches the engine's per-rank stage brackets (read back from
/// `JobOutcome.spans`) as children of the call span. The engine clocks them
/// from the moment its fabric was built, which is the first thing the call
/// does, so they are placed from the call's start.
fn attach_stage_spans(
    rec: &Recorder,
    parent: SpanId,
    call_start: Instant,
    outcome: &JobOutcome,
    round: u64,
) {
    for s in &outcome.spans.spans {
        rec.leaf(
            outcome.spans.stage_name(s.stage),
            call_start + Duration::from_nanos(s.start_ns),
            call_start + Duration::from_nanos(s.end_ns),
            Some(parent),
            round,
            1 + u32::from(s.rank),
        );
    }
}
