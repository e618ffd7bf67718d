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
//! time. A rank hands its spans to its job's journal when its closure
//! returns, and the job returns them as a [`SpanLog`] — K × stages spans,
//! the live per-job Fig. 9 breakdown behind `WallTimes`, `--timeline` and
//! `cts stats`.
//!
//! ```
//! use cts_net::cluster::{run_spmd, ClusterConfig};
//!
//! let run = run_spmd(&ClusterConfig::local(2), |comm| {
//!     comm.set_stage("Map");
//!     comm.set_stage("Reduce");
//! })
//! .unwrap();
//! assert_eq!(run.spans.spans.len(), 4);
//! assert_eq!(run.spans.stages_in_order(), vec!["Map", "Reduce"]);
//! assert_eq!(run.spans.stage_durations_ns("Map").len(), 2);
//! ```

/// One stage of one rank of one job: every slice of time the rank spent in
/// it, coalesced. Times are nanoseconds since the fabric was built, so the
/// jobs of one resident fabric share a timebase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// The job this span belongs to (0 for exclusive/one-shot runs).
    pub job: u32,
    /// The rank whose stage this is.
    pub rank: u16,
    /// Index into [`SpanLog::names`].
    pub stage: u16,
    /// Start of the stage's first slice (ns on the fabric's clock).
    pub start_ns: u64,
    /// End of the stage's last slice (ns on the fabric's clock).
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

/// One job's recorded spans plus the stage-name table they index.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    /// Stage names, indexed by [`StageSpan::stage`].
    pub names: Vec<String>,
    /// The spans, each rank's in first-entry order.
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
    fn stage_queries_over_one_jobs_log() {
        let j1 = SpanLog {
            names: vec!["Map".into(), "Shuffle".into()],
            spans: vec![
                span(1, 0, 0, 0, 100),
                span(1, 1, 0, 5, 120),
                span(1, 0, 1, 120, 200),
            ],
        };
        assert_eq!(j1.stage_durations_ns("Map"), vec![100, 115]);
        // Wall extent: earliest Map start 0, latest Map end 120.
        assert_eq!(j1.stage_wall_ns("Map"), 120);
        assert_eq!(j1.stages_in_order(), vec!["Map", "Shuffle"]);
        assert_eq!(j1.jobs(), vec![1]);
    }

    #[test]
    fn unknown_stage_queries_are_empty() {
        let log = SpanLog::default();
        assert_eq!(log.stage_wall_ns("Nope"), 0);
        assert!(log.stage_durations_ns("Nope").is_empty());
        assert_eq!(log.stage_name(7), "?");
    }
}
