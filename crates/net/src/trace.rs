//! Transfer tracing.
//!
//! Every hand-over a communicator makes — a unicast, a group cast, a barrier
//! frame — is one [`TraceEvent`] in its job's journal, and the job returns
//! them as a [`Trace`]: stage-labelled events in record order. That is what
//! `cts-netsim` replays under a network model to produce the paper's stage
//! timings, and what the Fig. 9 timeline renderer draws.
//!
//! Every event carries [`wire_copies`](TraceEvent::wire_copies): how many
//! separate egress transmissions the payload made at the sender under the
//! shuffle fabric in effect. [`Trace::stage_wire_sends`] sums them, which
//! is how the fabric-equivalence tests check that a native multicast really
//! sends `r×` fewer frames than serial-unicast emulation.
//!
//! ```
//! use cts_net::trace::{EventKind, Trace};
//!
//! // A trace written by hand, as the models' tests do: one unicast, then
//! // one native multicast to ranks 1 and 2.
//! let mut trace = Trace::default();
//! trace.push("Shuffle", 0, 0b010, 64, 0, 1, EventKind::AppUnicast);
//! trace.push("Shuffle", 0, 0b110, 100, 0, 1, EventKind::Multicast);
//! assert_eq!(trace.stage_bytes("Shuffle"), 164);
//! assert_eq!(trace.stage_wire_sends("Shuffle"), 2); // 1 unicast + 1 native multicast
//! ```

use serde::{Deserialize, Serialize};

/// The index of `name` in a stage-name table, appended on first sight. A job
/// names fewer than ten stages: the table is searched linearly.
pub(crate) fn intern(names: &mut Vec<String>, name: &str) -> u16 {
    let at = names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    });
    at as u16
}

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
    /// Record order within the job (monotonic across its nodes).
    pub seq: u64,
    /// Index into [`Trace::stages`].
    pub stage: u16,
    /// The job this transfer belongs to (0 for exclusive/one-shot runs).
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

/// One job's trace: its stage names plus its events in record order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Stage names, indexed by [`TraceEvent::stage`].
    pub stages: Vec<String>,
    /// All recorded events.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Appends one event of job 0 under `stage`, naming the stage on first
    /// use — how a trace is written by hand, for a model or a test that
    /// needs one without running a job.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        stage: &str,
        src: usize,
        dsts: u128,
        bytes: u64,
        overhead: u64,
        wire_copies: u16,
        kind: EventKind,
    ) {
        debug_assert!(overhead <= bytes, "overhead cannot exceed total bytes");
        self.events.push(TraceEvent {
            seq: self.events.len() as u64,
            stage: intern(&mut self.stages, stage),
            job: 0,
            src: src as u16,
            dsts,
            bytes,
            overhead,
            wire_copies,
            kind,
        });
    }

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

    /// Distinct job ids present, ascending.
    pub fn jobs(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.events.iter().map(|e| e.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_names_stages_once_and_numbers_events() {
        let mut t = Trace::default();
        t.push("Map", 0, 0b0010, 1, 0, 1, EventKind::AppUnicast);
        t.push("Shuffle", 0, 0b0010, 100, 0, 1, EventKind::AppUnicast);
        t.push("Shuffle", 1, 0b1101, 40, 0, 1, EventKind::Multicast);
        assert_eq!(t.stages, vec!["Map", "Shuffle"]);
        assert_eq!(t.events.len(), 3);
        assert_eq!((t.events[1].seq, t.events[2].seq), (1, 2));
        assert_eq!(t.events[2].fanout(), 3);
        assert_eq!(t.stage_bytes("Shuffle"), 140);
        assert_eq!(t.stage_transfer_count("Shuffle"), 2);
        assert_eq!(t.jobs(), vec![0]);
    }

    #[test]
    fn internal_events_excluded_from_byte_counts() {
        let mut t = Trace::default();
        t.push("Shuffle", 0, 0b10, 1000, 0, 1, EventKind::Internal);
        t.push("Shuffle", 0, 0b10, 7, 0, 1, EventKind::AppUnicast);
        assert_eq!(t.stage_bytes("Shuffle"), 7);
        assert_eq!(t.total_bytes(), 7);
    }

    #[test]
    fn wire_sends_count_per_fabric_copies() {
        let mut t = Trace::default();
        // Serial-unicast emulation: 3 copies; native multicast: 1.
        t.push("Shuffle", 0, 0b1110, 50, 0, 3, EventKind::Multicast);
        t.push("Shuffle", 1, 0b1101, 50, 0, 1, EventKind::Multicast);
        t.push("Shuffle", 2, 0b0001, 9, 0, 1, EventKind::AppUnicast);
        // Internal control traffic never counts.
        t.push("Shuffle", 0, 0b0010, 1, 0, 1, EventKind::Internal);
        assert_eq!(t.stage_wire_sends("Shuffle"), 3 + 1 + 1);
    }

    #[test]
    fn unknown_stage_queries_are_empty() {
        let t = Trace::default();
        assert_eq!(t.stage_bytes("Nope"), 0);
        assert_eq!(t.stage_events("Nope").count(), 0);
        assert_eq!(t.stage_index("Nope"), None);
    }
}
