//! Transfer tracing.
//!
//! Every communicator records its traffic into a shared [`TraceCollector`].
//! The resulting [`Trace`] — stage-labelled unicast and multicast events in
//! global order — is what `cts-netsim` replays under a network model to
//! produce the paper's stage timings, and what the Fig. 9 timeline renderer
//! draws.
//!
//! Since the async-fabric refactor every event also carries
//! [`wire_copies`](TraceEvent::wire_copies): how many separate egress
//! transmissions the payload made at the sender under the shuffle fabric in
//! effect. [`Trace::stage_wire_sends`] sums them, which is how the
//! fabric-equivalence tests check that a native multicast really sends
//! `r×` fewer frames than serial-unicast emulation.
//!
//! ```
//! use cts_net::trace::{EventKind, TraceCollector};
//!
//! let collector = TraceCollector::new(true);
//! let stage = collector.intern("Shuffle");
//! // One unicast, then one native multicast to ranks 1 and 2.
//! collector.record(stage, 0, 0b010, 64, EventKind::AppUnicast);
//! collector.record_transfer(stage, 0, 0b110, 100, 0, 1, EventKind::Multicast);
//! let trace = collector.snapshot();
//! assert_eq!(trace.stage_bytes("Shuffle"), 164);
//! assert_eq!(trace.stage_wire_sends("Shuffle"), 2); // 1 unicast + 1 native multicast
//! ```

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// What kind of transfer an event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// An application point-to-point send (TeraSort's unicast shuffle, or
    /// any engine `send`).
    AppUnicast,
    /// A logical multicast: one coded packet delivered to a receiver set
    /// (recorded once, at the root, regardless of the tree used).
    Multicast,
    /// Substrate-internal traffic: barrier control messages. Network
    /// models for the paper's schedules ignore these.
    Internal,
}

/// One recorded transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global record order (monotonic across all nodes).
    pub seq: u64,
    /// Index into [`Trace::stages`].
    pub stage: u16,
    /// The job this transfer belongs to (0 for exclusive/one-shot runs).
    /// Concurrent jobs on a shared fabric interleave in one collector;
    /// [`Trace::for_job`] separates them.
    pub job: u32,
    /// Sender rank.
    pub src: u16,
    /// Receiver set as a bitmask (single bit for unicasts). `u128` so
    /// fabrics can address worlds of up to 128 ranks.
    pub dsts: u128,
    /// Total bytes on the wire (payload + protocol overhead).
    pub bytes: u64,
    /// The fixed protocol-overhead portion of `bytes` (coded-packet
    /// headers). When a scaled run is projected to a larger input, only
    /// `bytes - overhead` scales — headers are per-packet constants.
    pub overhead: u64,
    /// How many separate egress transmissions this payload made at the
    /// sender: 1 for unicasts and native multicasts, the fanout for
    /// serial-unicast / fanout multicast emulation.
    pub wire_copies: u16,
    /// Transfer kind.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Number of receivers.
    pub fn fanout(&self) -> u32 {
        self.dsts.count_ones()
    }
}

/// A completed trace: interned stage names plus events in record order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Stage names, indexed by [`TraceEvent::stage`].
    pub stages: Vec<String>,
    /// All recorded events.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The stage index for `name`, if any events used it.
    pub fn stage_index(&self, name: &str) -> Option<u16> {
        self.stages.iter().position(|s| s == name).map(|i| i as u16)
    }

    /// Iterates events belonging to the named stage.
    pub fn stage_events<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a TraceEvent> {
        let idx = self.stage_index(name);
        self.events.iter().filter(move |e| Some(e.stage) == idx)
    }

    /// Total payload bytes sent in the named stage, counting a multicast
    /// once (the paper's communication-load convention: a coded packet costs
    /// its length, however many nodes hear it).
    pub fn stage_bytes(&self, name: &str) -> u64 {
        self.stage_events(name)
            .filter(|e| e.kind != EventKind::Internal)
            .map(|e| e.bytes)
            .sum()
    }

    /// Count of non-internal events in the named stage.
    pub fn stage_transfer_count(&self, name: &str) -> usize {
        self.stage_events(name)
            .filter(|e| e.kind != EventKind::Internal)
            .count()
    }

    /// Data-plane egress transmissions in the named stage: the sum of
    /// [`TraceEvent::wire_copies`] over non-internal events. A serial or
    /// fanout shuffle sends `fanout` frames per group multicast; a
    /// native multicast sends one — this is the per-fabric send count the
    /// equivalence tests assert on.
    pub fn stage_wire_sends(&self, name: &str) -> u64 {
        self.stage_events(name)
            .filter(|e| e.kind != EventKind::Internal)
            .map(|e| e.wire_copies as u64)
            .sum()
    }

    /// Total non-internal bytes across all stages.
    pub fn total_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind != EventKind::Internal)
            .map(|e| e.bytes)
            .sum()
    }

    /// The trace restricted to one job's transfers (stage table shared).
    /// Event order — including [`TraceEvent::seq`] gaps where other jobs'
    /// transfers interleaved — is preserved.
    pub fn for_job(&self, job: u32) -> Trace {
        Trace {
            stages: self.stages.clone(),
            events: self
                .events
                .iter()
                .filter(|e| e.job == job)
                .copied()
                .collect(),
        }
    }

    /// Distinct job ids present, ascending.
    pub fn jobs(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.events.iter().map(|e| e.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[derive(Default)]
struct CollectorInner {
    stage_index: HashMap<String, u16>,
    stages: Vec<String>,
    events: Vec<TraceEvent>,
    seq: u64,
}

/// Thread-safe trace accumulator shared by all communicators of a fabric.
pub struct TraceCollector {
    enabled: bool,
    inner: Mutex<CollectorInner>,
}

impl TraceCollector {
    /// Creates a collector; a disabled collector records nothing (zero
    /// overhead beyond an atomic check).
    pub fn new(enabled: bool) -> Self {
        TraceCollector {
            enabled,
            inner: Mutex::new(CollectorInner::default()),
        }
    }

    /// Interns a stage name, returning its index.
    ///
    /// Disabled collectors return 0 without touching the lock or
    /// allocating — stage labels are meaningless when nothing records, and
    /// the engine calls this once per stage per rank on the hot path
    /// (`tests/alloc_free.rs` pins the disabled path at zero allocations).
    pub fn intern(&self, name: &str) -> u16 {
        if !self.enabled {
            return 0;
        }
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.stage_index.get(name) {
            return idx;
        }
        let idx = inner.stages.len() as u16;
        inner.stages.push(name.to_string());
        inner.stage_index.insert(name.to_string(), idx);
        idx
    }

    /// Records one event with one egress transmission (no-op when disabled).
    pub fn record(&self, stage: u16, src: usize, dsts: u128, bytes: u64, kind: EventKind) {
        self.record_transfer(stage, src, dsts, bytes, 0, 1, kind);
    }

    /// Records one event with an explicit egress-transmission count (see
    /// [`TraceEvent::wire_copies`]), attributed to job 0.
    #[allow(clippy::too_many_arguments)]
    pub fn record_transfer(
        &self,
        stage: u16,
        src: usize,
        dsts: u128,
        bytes: u64,
        overhead: u64,
        wire_copies: u16,
        kind: EventKind,
    ) {
        self.record_transfer_for(0, stage, src, dsts, bytes, overhead, wire_copies, kind);
    }

    /// Records one event attributed to `job` — the variant communicators on
    /// a shared multi-job fabric use so traces stay separable per job.
    // One flat call per recorded field keeps the hot recording path free of
    // intermediate structs; the argument list mirrors `TraceEvent` exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn record_transfer_for(
        &self,
        job: u32,
        stage: u16,
        src: usize,
        dsts: u128,
        bytes: u64,
        overhead: u64,
        wire_copies: u16,
        kind: EventKind,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(overhead <= bytes, "overhead cannot exceed total bytes");
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(TraceEvent {
            seq,
            stage,
            job,
            src: src as u16,
            dsts,
            bytes,
            overhead,
            wire_copies,
            kind,
        });
    }

    /// Takes a snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let inner = self.inner.lock();
        Trace {
            stages: inner.stages.clone(),
            events: inner.events.clone(),
        }
    }

    /// Removes and returns `job`'s events (record order preserved), leaving
    /// every other job's in place — how a resident fabric hands a finished
    /// job its trace without the collector growing with uptime.
    pub fn take_job(&self, job: u32) -> Trace {
        let mut inner = self.inner.lock();
        let mut events = Vec::new();
        inner.events.retain(|e| {
            if e.job == job {
                events.push(*e);
            }
            e.job != job
        });
        Trace {
            stages: inner.stages.clone(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let c = TraceCollector::new(true);
        let a = c.intern("Map");
        let b = c.intern("Shuffle");
        assert_ne!(a, b);
        assert_eq!(c.intern("Map"), a);
    }

    #[test]
    fn record_and_snapshot() {
        let c = TraceCollector::new(true);
        let s = c.intern("Shuffle");
        c.record(s, 0, 0b0010, 100, EventKind::AppUnicast);
        c.record(s, 1, 0b1101, 40, EventKind::Multicast);
        let t = c.snapshot();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].seq, 1);
        assert_eq!(t.events[1].fanout(), 3);
        assert_eq!(t.stage_bytes("Shuffle"), 140);
        assert_eq!(t.stage_transfer_count("Shuffle"), 2);
    }

    #[test]
    fn internal_events_excluded_from_byte_counts() {
        let c = TraceCollector::new(true);
        let s = c.intern("Shuffle");
        c.record(s, 0, 0b10, 1000, EventKind::Internal);
        c.record(s, 0, 0b10, 7, EventKind::AppUnicast);
        let t = c.snapshot();
        assert_eq!(t.stage_bytes("Shuffle"), 7);
        assert_eq!(t.total_bytes(), 7);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::new(false);
        let s = c.intern("Map");
        c.record(s, 0, 1, 10, EventKind::AppUnicast);
        assert!(c.snapshot().events.is_empty());
    }

    #[test]
    fn disabled_intern_returns_zero_without_interning() {
        let c = TraceCollector::new(false);
        assert_eq!(c.intern("Map"), 0);
        assert_eq!(c.intern("Shuffle"), 0);
        // No stage table was built behind the scenes.
        assert!(c.snapshot().stages.is_empty());
    }

    #[test]
    fn wire_sends_count_per_fabric_copies() {
        let c = TraceCollector::new(true);
        let s = c.intern("Shuffle");
        // Serial-unicast emulation: 3 copies; native multicast: 1.
        c.record_transfer(s, 0, 0b1110, 50, 0, 3, EventKind::Multicast);
        c.record_transfer(s, 1, 0b1101, 50, 0, 1, EventKind::Multicast);
        c.record(s, 2, 0b0001, 9, EventKind::AppUnicast);
        // Internal control traffic never counts.
        c.record(s, 0, 0b0010, 1, EventKind::Internal);
        let t = c.snapshot();
        assert_eq!(t.stage_wire_sends("Shuffle"), 3 + 1 + 1);
    }

    #[test]
    fn unknown_stage_queries_are_empty() {
        let t = Trace::default();
        assert_eq!(t.stage_bytes("Nope"), 0);
        assert_eq!(t.stage_events("Nope").count(), 0);
        assert_eq!(t.stage_index("Nope"), None);
    }

    #[test]
    fn job_filter_separates_interleaved_jobs() {
        let c = TraceCollector::new(true);
        let s = c.intern("Shuffle");
        c.record_transfer_for(1, s, 0, 0b10, 100, 0, 1, EventKind::AppUnicast);
        c.record_transfer_for(2, s, 1, 0b01, 40, 0, 1, EventKind::AppUnicast);
        c.record_transfer_for(1, s, 1, 0b01, 60, 0, 1, EventKind::AppUnicast);
        let t = c.snapshot();
        assert_eq!(t.jobs(), vec![1, 2]);
        let j1 = t.for_job(1);
        assert_eq!(j1.events.len(), 2);
        assert_eq!(j1.stage_bytes("Shuffle"), 160);
        // Global sequence numbers survive the filter (order evidence).
        assert_eq!(j1.events[0].seq, 0);
        assert_eq!(j1.events[1].seq, 2);
        assert_eq!(t.for_job(2).stage_bytes("Shuffle"), 40);
        assert!(t.for_job(9).events.is_empty());
        // Taking a job out leaves exactly the others behind.
        let taken = c.take_job(1);
        assert_eq!(taken.events, j1.events);
        assert_eq!(c.snapshot().jobs(), vec![2]);
        assert!(c.take_job(1).events.is_empty());
    }
}
