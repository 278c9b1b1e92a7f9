//! Error types for model construction and validation.

use crate::ids::NodeId;
use std::fmt;

/// Error raised when constructing or validating model objects.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The DAG has no nodes.
    EmptyDag,
    /// An edge references a node that does not exist.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge from a node to itself.
    SelfLoop {
        /// The node with the self-loop.
        node: NodeId,
    },
    /// The edge set contains a cycle, so the graph is not a DAG.
    CycleDetected,
    /// A task period of zero.
    ZeroPeriod,
    /// A task deadline of zero.
    ZeroDeadline,
    /// Deadline exceeds period: the model requires constrained deadlines
    /// (`D_k ≤ T_k`, paper Section III-A).
    DeadlineExceedsPeriod {
        /// The relative deadline.
        deadline: u64,
        /// The period (minimum inter-arrival time).
        period: u64,
    },
    /// The DAG's WCETs sum past `u64::MAX`, so its volume is not
    /// representable.
    VolumeOverflow,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyDag => write!(f, "DAG has no nodes"),
            ModelError::UnknownNode { node, node_count } => write!(
                f,
                "edge references {node} but the graph has only {node_count} nodes"
            ),
            ModelError::SelfLoop { node } => write!(f, "self-loop on {node}"),
            ModelError::CycleDetected => write!(f, "edge set contains a cycle"),
            ModelError::ZeroPeriod => write!(f, "task period must be positive"),
            ModelError::ZeroDeadline => write!(f, "task deadline must be positive"),
            ModelError::DeadlineExceedsPeriod { deadline, period } => write!(
                f,
                "deadline {deadline} exceeds period {period}; constrained deadlines required"
            ),
            ModelError::VolumeOverflow => write!(f, "DAG volume overflows u64"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let msgs = [
            ModelError::EmptyDag.to_string(),
            ModelError::CycleDetected.to_string(),
            ModelError::ZeroPeriod.to_string(),
            ModelError::DeadlineExceedsPeriod {
                deadline: 10,
                period: 5,
            }
            .to_string(),
            ModelError::VolumeOverflow.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_error(ModelError::EmptyDag);
    }
}
