//! Error type for the message-passing substrate.

/// Errors produced by transports, mailboxes, and collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer (or the whole fabric) has shut down; no further messages
    /// will arrive.
    Disconnected {
        /// Which endpoint observed the disconnect.
        rank: usize,
    },
    /// A blocking receive exceeded its deadline.
    Timeout {
        /// The source rank the receive was waiting on.
        src: usize,
        /// The tag the receive was waiting on.
        tag: u32,
    },
    /// A rank outside `0..world_size` was addressed.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The fabric's world size.
        world: usize,
    },
    /// An operating-system level I/O failure (TCP transport).
    Io {
        /// Stringified `std::io::Error`.
        what: String,
    },
    /// A collective was invoked inconsistently (e.g. multicast root not in
    /// the group, or a member list not containing the caller).
    CollectiveMisuse {
        /// Description of the inconsistency.
        what: String,
    },
    /// Fault injection dropped this message (testing only).
    InjectedFault {
        /// Description supplied by the fault rule.
        what: String,
    },
    /// A lazy TCP dial exhausted its bounded retry budget without the
    /// peer ever accepting.
    ConnectFailed {
        /// The rank that could not be reached.
        rank: usize,
        /// The address dialed (stringified socket address).
        addr: String,
        /// How many connect attempts were made before giving up.
        attempts: u32,
        /// The last OS error, stringified.
        last: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected { rank } => write!(f, "endpoint {rank} disconnected"),
            NetError::Timeout { src, tag } => {
                write!(f, "timed out waiting for message from {src} tag {tag:#x}")
            }
            NetError::InvalidRank { rank, world } => {
                write!(f, "rank {rank} out of range for world of {world}")
            }
            NetError::Io { what } => write!(f, "I/O error: {what}"),
            NetError::CollectiveMisuse { what } => write!(f, "collective misuse: {what}"),
            NetError::InjectedFault { what } => write!(f, "injected fault: {what}"),
            NetError::ConnectFailed {
                rank,
                addr,
                attempts,
                last,
            } => write!(
                f,
                "connect to rank {rank} at {addr} failed after {attempts} attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io {
            what: e.to_string(),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            NetError::Disconnected { rank: 3 }.to_string(),
            "endpoint 3 disconnected"
        );
        assert!(NetError::Timeout { src: 1, tag: 255 }
            .to_string()
            .contains("0xff"));
        assert!(NetError::InvalidRank { rank: 9, world: 4 }
            .to_string()
            .contains("world of 4"));
    }

    #[test]
    fn connect_failures_name_the_peer() {
        let conn = NetError::ConnectFailed {
            rank: 3,
            addr: "127.0.0.1:4242".into(),
            attempts: 8,
            last: "connection refused".into(),
        };
        let msg = conn.to_string();
        assert!(msg.contains("rank 3"));
        assert!(msg.contains("127.0.0.1:4242"));
        assert!(msg.contains("8 attempts"));
        assert!(msg.contains("refused"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe burst");
        let net: NetError = io.into();
        assert!(net.to_string().contains("pipe burst"));
    }
}
