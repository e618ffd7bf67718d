//! One job's journal: where its transfers and stage spans are written while
//! it runs.
//!
//! [`SharedFabric::run_job`](crate::cluster::SharedFabric::run_job) creates
//! one per job and the job's K communicators share it: a rank appends a
//! [`TraceEvent`] for each transfer the fabric took, as it posts it, and its
//! coalesced [`StageSpan`]s when its closure returns, and
//! [`take`](Journal::take) moves both out as the job's [`Trace`] and
//! [`SpanLog`]. Nothing in it outlives the job or is shared with another, so
//! a tenant's log holds its own records by construction.

use std::time::Instant;

use std::sync::Mutex;

use cts_core::sync::lock;

use crate::span::{SpanLog, StageSpan};
use crate::trace::{intern, Trace, TraceEvent};

pub(crate) struct Journal {
    job: u32,
    /// The fabric's clock origin: every job of a resident fabric places its
    /// spans on one timebase.
    origin: Instant,
    /// Indexed by [`TraceEvent::stage`] and [`StageSpan::stage`] alike.
    /// Locked once per rank and stage: a rank resolves the stages it has
    /// entered itself.
    stages: Mutex<Vec<String>>,
    events: Mutex<Vec<TraceEvent>>,
    spans: Mutex<Vec<StageSpan>>,
}

impl Journal {
    /// The stage traffic is labelled with before the first `set_stage`.
    pub(crate) const INIT_STAGE: u16 = 0;

    pub(crate) fn new(job: u32, origin: Instant) -> Journal {
        Journal {
            job,
            origin,
            stages: Mutex::new(vec!["init".to_string()]),
            events: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn job(&self) -> u32 {
        self.job
    }

    /// Nanoseconds on the fabric's clock.
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The job's index for stage `name`, interned on first use.
    pub(crate) fn stage(&self, name: &str) -> u16 {
        intern(&mut lock(&self.stages), name)
    }

    /// Appends one transfer, stamped with the job and its place in the log.
    pub(crate) fn record(&self, mut event: TraceEvent) {
        debug_assert!(event.overhead <= event.bytes, "overhead exceeds bytes");
        let mut events = lock(&self.events);
        (event.job, event.seq) = (self.job, events.len() as u64);
        events.push(event);
    }

    /// Appends one rank's closed spans.
    pub(crate) fn record_spans(&self, spans: impl Iterator<Item = StageSpan>) {
        lock(&self.spans).extend(spans);
    }

    /// Moves out everything recorded so far.
    pub(crate) fn take(&self) -> (Trace, SpanLog) {
        let names = lock(&self.stages).clone();
        let events = std::mem::take(&mut *lock(&self.events));
        let spans = std::mem::take(&mut *lock(&self.spans));
        let trace = Trace {
            stages: names.clone(),
            events,
        };
        (trace, SpanLog { names, spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn event(stage: u16, bytes: u64) -> TraceEvent {
        TraceEvent {
            seq: 99,
            stage,
            job: 99,
            src: 0,
            dsts: 0b10,
            bytes,
            overhead: 0,
            wire_copies: 1,
            kind: EventKind::AppUnicast,
        }
    }

    #[test]
    fn events_and_spans_share_one_name_table_and_leave_with_take() {
        let journal = Journal::new(7, Instant::now());
        let map = journal.stage("Map");
        let shuffle = journal.stage("Shuffle");
        assert_eq!(journal.stage("Map"), map);
        assert_ne!(map, shuffle);
        journal.record(event(Journal::INIT_STAGE, 1));
        journal.record(event(shuffle, 40));
        let t0 = journal.now_ns();
        journal.record_spans(std::iter::once(StageSpan {
            job: journal.job(),
            rank: 0,
            stage: map,
            start_ns: t0,
            end_ns: t0 + 5,
            wall_ns: 5,
        }));
        let (trace, spans) = journal.take();
        assert_eq!(trace.stages, vec!["init", "Map", "Shuffle"]);
        assert_eq!(trace.jobs(), vec![7]);
        assert_eq!((trace.events[0].seq, trace.events[1].seq), (0, 1));
        assert_eq!(trace.stage_bytes("Shuffle"), 40);
        assert_eq!(spans.stage_durations_ns("Map"), vec![5]);
        // A late writer finds the journal empty, not gone.
        journal.record(event(shuffle, 1));
        assert_eq!(journal.take().0.events.len(), 1);
    }
}
