//! Stage spans: wall-clock brackets around every engine stage, per job
//! and per rank.
//!
//! Where [`trace`](crate::trace) records *what moved* (bytes, receiver
//! sets, egress frames), the span layer records *where time went*: each
//! [`Communicator::set_stage`](crate::comm::Communicator::set_stage) call
//! moves the rank's clock to the named stage, so the engine's stage
//! annotations double as timing brackets. A rank may enter a stage many
//! times — it maps a file, encodes a packet, posts it, maps the next — and
//! its slices coalesce into **one span per stage per job**: from the first
//! slice's start to the last one's end, carrying the stage's wall
//! ([`StageSpan::wall_ns`]). One rank's spans may therefore overlap in
//! time. The result is the live per-job Fig. 9 breakdown a resident daemon
//! can answer `cts stats` and `--timeline` queries from.
//!
//! Recording goes into a **fixed-capacity ring** sized at construction:
//! a resident service's memory stays bounded however many jobs pass
//! through, and — the property `tests/alloc_free.rs` pins — steady-state
//! recording performs zero heap allocations. Old spans are overwritten
//! oldest-first; a job's timeline is complete as long as it is queried
//! within the last `capacity` spans ([`SpanCollector::with_capacity`]),
//! which at seven spans × K ranks per job holds thousands of recent jobs.
//!
//! ```
//! use cts_net::span::{SpanCollector, StageSpan};
//!
//! let spans = SpanCollector::new(true);
//! let map = spans.intern("Map");
//! let t0 = spans.now_ns();
//! let span = StageSpan {
//!     job: 1,
//!     rank: 0,
//!     stage: map,
//!     start_ns: t0,
//!     end_ns: t0 + 1_000,
//!     wall_ns: 1_000,
//! };
//! spans.record(span);
//! let log = spans.snapshot().for_job(1);
//! assert_eq!(log.spans.len(), 1);
//! assert_eq!(log.stage_name(map), "Map");
//! ```

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

/// One stage of one rank of one job: every slice of time the rank spent in
/// it, coalesced. Times are nanoseconds since the owning collector's
/// origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// The job this span belongs to (0 for exclusive/one-shot runs).
    pub job: u32,
    /// The rank whose stage this is.
    pub rank: u16,
    /// Index into the collector's interned stage names.
    pub stage: u16,
    /// Start of the stage's first slice (ns since collector origin).
    pub start_ns: u64,
    /// End of the stage's last slice (ns since collector origin).
    pub end_ns: u64,
    /// The rank's wall for the stage, ns: the summed slices its thread
    /// spent in it — or, for a stage the rank posted to its NIC in, the
    /// whole extent, because the NIC works through the slices the thread
    /// spends elsewhere. A rank's walls can sum to more than its job took;
    /// the excess is work that ran behind the NIC.
    pub wall_ns: u64,
}

impl StageSpan {
    /// The span's extent in nanoseconds, first start to last end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Default ring capacity: at ~7 stages × K ranks per job this retains the
/// full timelines of the last few hundred jobs even at K = 64.
const DEFAULT_CAPACITY: usize = 1 << 16;

struct SpanInner {
    names: Vec<String>,
    index: HashMap<String, u16>,
    /// Ring storage; grows (and allocates) only until `capacity` spans
    /// have been recorded, then overwrites oldest-first.
    ring: Vec<StageSpan>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total spans ever recorded (≥ `ring.len()`).
    recorded: u64,
}

/// Thread-safe span accumulator shared by all communicators of a fabric.
pub struct SpanCollector {
    enabled: bool,
    capacity: usize,
    origin: Instant,
    inner: Mutex<SpanInner>,
}

impl SpanCollector {
    /// Creates a collector with the default ring capacity. A disabled
    /// collector records nothing and its hot path neither locks nor
    /// allocates.
    pub fn new(enabled: bool) -> SpanCollector {
        SpanCollector::with_capacity(enabled, DEFAULT_CAPACITY)
    }

    /// Creates a collector retaining at most `capacity` recent spans.
    pub fn with_capacity(enabled: bool, capacity: usize) -> SpanCollector {
        SpanCollector {
            enabled,
            capacity: capacity.max(1),
            origin: Instant::now(),
            inner: Mutex::new(SpanInner {
                names: Vec::new(),
                index: HashMap::new(),
                ring: Vec::new(),
                head: 0,
                recorded: 0,
            }),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this collector was created — the clock every
    /// span's `start_ns`/`end_ns` is expressed in.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Interns a stage name, returning its index. Disabled collectors
    /// return 0 without locking or allocating.
    pub fn intern(&self, name: &str) -> u16 {
        if !self.enabled {
            return 0;
        }
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.index.get(name) {
            return idx;
        }
        let idx = inner.names.len() as u16;
        inner.names.push(name.to_string());
        inner.index.insert(name.to_string(), idx);
        idx
    }

    /// Records one closed span (no-op when disabled). Allocation-free once
    /// the ring has filled.
    pub fn record(&self, span: StageSpan) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        inner.recorded += 1;
        if inner.ring.len() < self.capacity {
            inner.ring.push(span);
        } else {
            let head = inner.head;
            inner.ring[head] = span;
            inner.head = (head + 1) % self.capacity;
        }
    }

    /// Total spans ever recorded (including any the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Snapshot of the retained spans, oldest first.
    pub fn snapshot(&self) -> SpanLog {
        let inner = self.inner.lock();
        // `head` stays 0 until the ring is full, then marks its oldest span.
        let (newer, older) = inner.ring.split_at(inner.head);
        SpanLog {
            names: inner.names.clone(),
            spans: [older, newer].concat(),
        }
    }

    /// `snapshot().for_job(job)` without copying the rest of the ring out
    /// from under the lock — what a resident fabric asks after every job.
    pub fn job_log(&self, job: u32) -> SpanLog {
        let inner = self.inner.lock();
        let (newer, older) = inner.ring.split_at(inner.head);
        let of_job = older.iter().chain(newer).filter(|s| s.job == job);
        SpanLog {
            names: inner.names.clone(),
            spans: of_job.copied().collect(),
        }
    }
}

/// A snapshot of recorded spans plus the stage-name table.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    /// Stage names, indexed by [`StageSpan::stage`].
    pub names: Vec<String>,
    /// Retained spans, oldest first.
    pub spans: Vec<StageSpan>,
}

impl SpanLog {
    /// The stage name for index `idx` (`"?"` when out of range).
    pub fn stage_name(&self, idx: u16) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// The stage index for `name`, if any span used it.
    pub fn stage_index(&self, name: &str) -> Option<u16> {
        self.names.iter().position(|s| s == name).map(|i| i as u16)
    }

    /// The log restricted to one job's spans (name table shared).
    pub fn for_job(&self, job: u32) -> SpanLog {
        SpanLog {
            names: self.names.clone(),
            spans: self
                .spans
                .iter()
                .filter(|s| s.job == job)
                .copied()
                .collect(),
        }
    }

    /// Distinct job ids present, ascending.
    pub fn jobs(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Per-rank walls (ns) of the named stage, one sample per span — the
    /// sample set `cts stats` feeds into a latency histogram.
    pub fn stage_durations_ns(&self, name: &str) -> Vec<u64> {
        let Some(idx) = self.stage_index(name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.stage == idx)
            .map(|s| s.wall_ns)
            .collect()
    }

    /// The stage's wall-clock extent across ranks: latest end minus
    /// earliest start (ns). This is the paper's per-stage breakdown
    /// convention — a stage lasts until its slowest rank finishes.
    pub fn stage_wall_ns(&self, name: &str) -> u64 {
        let Some(idx) = self.stage_index(name) else {
            return 0;
        };
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for s in self.spans.iter().filter(|s| s.stage == idx) {
            lo = lo.min(s.start_ns);
            hi = hi.max(s.end_ns);
        }
        hi.saturating_sub(lo)
    }

    /// Stage names in first-appearance order among the retained spans.
    pub fn stages_in_order(&self) -> Vec<&str> {
        let mut seen: Vec<u16> = Vec::new();
        for s in &self.spans {
            if !seen.contains(&s.stage) {
                seen.push(s.stage);
            }
        }
        seen.into_iter().map(|i| self.stage_name(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u32, rank: u16, stage: u16, start: u64, end: u64) -> StageSpan {
        StageSpan {
            job,
            rank,
            stage,
            start_ns: start,
            end_ns: end,
            wall_ns: end - start,
        }
    }

    #[test]
    fn intern_is_stable_and_disabled_is_inert() {
        let c = SpanCollector::new(true);
        let a = c.intern("Map");
        let b = c.intern("Shuffle");
        assert_ne!(a, b);
        assert_eq!(c.intern("Map"), a);

        let off = SpanCollector::new(false);
        assert_eq!(off.intern("Map"), 0);
        off.record(span(1, 0, 0, 0, 5));
        assert!(off.snapshot().spans.is_empty());
        assert!(off.snapshot().names.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let c = SpanCollector::with_capacity(true, 4);
        let st = c.intern("Map");
        for i in 0..6u64 {
            c.record(span(1, 0, st, i, i + 1));
        }
        assert_eq!(c.recorded(), 6);
        let log = c.snapshot();
        assert_eq!(log.spans.len(), 4);
        // Oldest retained first: spans 2..6.
        let starts: Vec<u64> = log.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4, 5]);
    }

    #[test]
    fn job_filter_and_stage_queries() {
        let c = SpanCollector::new(true);
        let map = c.intern("Map");
        let shuffle = c.intern("Shuffle");
        c.record(span(1, 0, map, 0, 100));
        c.record(span(2, 0, map, 10, 40));
        c.record(span(1, 1, map, 5, 120));
        c.record(span(1, 0, shuffle, 120, 200));
        let log = c.snapshot();
        assert_eq!(log.jobs(), vec![1, 2]);
        let j1 = log.for_job(1);
        assert_eq!(j1.spans.len(), 3);
        assert_eq!(j1.stage_durations_ns("Map"), vec![100, 115]);
        // Wall extent: earliest Map start 0, latest Map end 120.
        assert_eq!(j1.stage_wall_ns("Map"), 120);
        assert_eq!(j1.stages_in_order(), vec!["Map", "Shuffle"]);
        assert_eq!(log.for_job(2).stage_durations_ns("Map"), vec![30]);
        assert!(log.for_job(9).spans.is_empty());
    }

    #[test]
    fn job_log_equals_the_filtered_snapshot_on_a_wrapped_ring() {
        let c = SpanCollector::with_capacity(true, 8);
        let map = c.intern("Map");
        // 21 spans of three interleaved jobs through an 8-slot ring: the
        // ring has wrapped twice and its oldest span sits mid-buffer.
        for i in 0..21u64 {
            c.record(span((i % 3) as u32, i as u16, map, i, i + 1));
            for job in 0..4 {
                assert_eq!(c.job_log(job).spans, c.snapshot().for_job(job).spans);
                assert_eq!(c.job_log(job).names, vec!["Map"]);
            }
        }
        let ranks: Vec<u16> = c.job_log(1).spans.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![13, 16, 19], "oldest first");
    }

    #[test]
    fn unknown_stage_queries_are_empty() {
        let log = SpanLog::default();
        assert_eq!(log.stage_wall_ns("Nope"), 0);
        assert!(log.stage_durations_ns("Nope").is_empty());
        assert_eq!(log.stage_name(7), "?");
    }

    #[test]
    fn now_ns_is_monotone() {
        let c = SpanCollector::new(true);
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
