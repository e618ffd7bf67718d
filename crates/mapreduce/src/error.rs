//! Engine error type.

use cts_core::error::CodedError;
use cts_net::error::NetError;
use cts_net::fault::CrashPoint;

/// A structured post-mortem for a job that failure handling could not (or
/// was not allowed to) save: who died, where, and which multicast groups
/// lost more senders than the MDS quorum tolerates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobReport {
    /// Ranks declared dead, ascending.
    pub dead: Vec<usize>,
    /// Multicast groups whose decode became unsatisfiable (≥ 2 dead
    /// senders: quorum needs any `r − 1` of `r`, so one death per group is
    /// the recovery capacity). Ascending group ids; empty when the failure
    /// was fatal for a different reason (stated in `what`).
    pub unrecoverable_groups: Vec<u64>,
    /// Human-readable summary of why the job could not be finished.
    pub what: String,
}

impl std::fmt::Display for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dead ranks {:?}, {} unrecoverable group(s)",
            self.dead,
            self.unrecoverable_groups.len()
        )?;
        if !self.unrecoverable_groups.is_empty() {
            write!(f, " {:?}", self.unrecoverable_groups)?;
        }
        write!(f, ": {}", self.what)
    }
}

/// Errors surfaced by the MapReduce engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The engine configuration is invalid (K/r out of range, mismatched
    /// cluster size, too many multicast groups for the tag space, …).
    BadConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// A transport or collective failure.
    Net(NetError),
    /// A coding-layer failure (malformed packet, missing intermediate, …).
    Coded(CodedError),
    /// The shuffle protocol was violated (wrong packet count, incomplete
    /// decode, unexpected sender, …) — typically caused by data corruption
    /// or fault injection.
    Protocol {
        /// Description of the violation.
        what: String,
    },
    /// A rank died while recovery was off: the job fails fast with the
    /// crash's identity instead of hanging on the dead peer.
    RankDied {
        /// The rank that died.
        rank: usize,
        /// Where in the job it died.
        point: CrashPoint,
    },
    /// Recovery capacity was exhausted — the structured report names the
    /// dead ranks and the groups whose quorum became unsatisfiable.
    Unrecoverable(JobReport),
    /// The runtime refused the job at admission: its bounded queue is full
    /// (or it is shutting down). Backpressure surfaces here, at the
    /// submitter, instead of as a silent stall inside the runtime.
    Busy {
        /// Why admission refused (queue depth, shutdown, …).
        what: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadConfig { what } => write!(f, "bad engine config: {what}"),
            EngineError::Net(e) => write!(f, "network error: {e}"),
            EngineError::Coded(e) => write!(f, "coding error: {e}"),
            EngineError::Protocol { what } => write!(f, "shuffle protocol violation: {what}"),
            EngineError::RankDied { rank, point } => {
                write!(f, "rank {rank} died at {point} (recovery off)")
            }
            EngineError::Unrecoverable(report) => {
                write!(f, "unrecoverable failure: {report}")
            }
            EngineError::Busy { what } => write!(f, "job refused at admission: {what}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Net(e) => Some(e),
            EngineError::Coded(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for EngineError {
    fn from(e: NetError) -> Self {
        EngineError::Net(e)
    }
}

impl From<CodedError> for EngineError {
    fn from(e: CodedError) -> Self {
        EngineError::Coded(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = NetError::Disconnected { rank: 2 }.into();
        assert!(e.to_string().contains("disconnected"));
        let e: EngineError = CodedError::InvalidParameters {
            what: "r too big".into(),
        }
        .into();
        assert!(e.to_string().contains("r too big"));
        let e = EngineError::Protocol {
            what: "missing packet".into(),
        };
        assert!(e.to_string().contains("missing packet"));
    }

    #[test]
    fn failure_variants_render_structured_reports() {
        let died = EngineError::RankDied {
            rank: 5,
            point: CrashPoint::MidMap,
        };
        assert_eq!(died.to_string(), "rank 5 died at mid-map (recovery off)");
        let report = JobReport {
            dead: vec![1, 4],
            unrecoverable_groups: vec![3, 17],
            what: "2 dead senders in one group exceeds the quorum margin".into(),
        };
        let e = EngineError::Unrecoverable(report.clone());
        let msg = e.to_string();
        assert!(msg.contains("[1, 4]"));
        assert!(msg.contains("2 unrecoverable group(s) [3, 17]"));
        assert!(msg.contains("quorum margin"));
        assert_eq!(e, EngineError::Unrecoverable(report));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: EngineError = NetError::Timeout { src: 0, tag: 1 }.into();
        assert!(e.source().is_some());
        let e = EngineError::BadConfig { what: "k".into() };
        assert!(e.source().is_none());
    }
}
