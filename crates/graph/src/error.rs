use std::error::Error;
use std::fmt;

/// Errors produced when constructing or validating a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referred to a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge connected a node to itself; radio-network graphs are simple.
    SelfLoop {
        /// The node with the self loop.
        node: u32,
    },
    /// The graph has zero nodes; the model requires at least one station.
    Empty,
    /// More nodes were requested than the `u32` node-id space can address.
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::TooManyNodes { requested } => {
                write!(f, "requested {requested} nodes, more than the u32 id space")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            GraphError::NodeOutOfRange { node: 5, n: 3 },
            GraphError::SelfLoop { node: 1 },
            GraphError::Empty,
            GraphError::TooManyNodes { requested: usize::MAX },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
