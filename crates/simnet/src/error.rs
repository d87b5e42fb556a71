//! Error types for the simulation engines.

use std::fmt;

use crate::id::NodeId;

/// Errors reported by the simulation engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Two nodes (correct or Byzantine) were registered with the same identifier.
    DuplicateId(NodeId),
    /// The adversary tried to send a message claiming a sender identity it does not
    /// control. The model forbids forging sender identifiers, so this is a bug in the
    /// adversary implementation, not a legal Byzantine behaviour.
    ForgedSender {
        /// The identity the adversary claimed.
        claimed: NodeId,
    },
    /// The engine hit the configured round limit before the run condition was met.
    MaxRoundsExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// A node identifier referenced by the caller is not present in the system.
    UnknownNode(NodeId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateId(id) => write!(f, "duplicate node identifier {id}"),
            SimError::ForgedSender { claimed } => {
                write!(f, "adversary attempted to forge sender identity {claimed}")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "execution exceeded the round limit of {limit}")
            }
            SimError::UnknownNode(id) => write!(f, "unknown node identifier {id}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SimError::DuplicateId(NodeId::new(3))
            .to_string()
            .contains("n3"));
        assert!(SimError::ForgedSender {
            claimed: NodeId::new(9)
        }
        .to_string()
        .contains("forge"));
        assert!(SimError::MaxRoundsExceeded { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(SimError::UnknownNode(NodeId::new(1))
            .to_string()
            .contains("n1"));
    }
}
