//! Base identifier types shared across the simulator.

use std::fmt;

/// Identifies one node of the CC-NUMA machine.
///
/// A node bundles a processor, its two cache levels, a directory controller,
/// a network interface, and a slice of main memory (Figure 2 of the paper).
///
/// # Example
///
/// ```
/// use revive_sim::types::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node's position as a plain index, for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the first `n` node ids: `n0, n1, ..`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n as u16).map(NodeId)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> NodeId {
        NodeId(u16::try_from(i).expect("node index fits in u16"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        let ids: Vec<NodeId> = NodeId::all(3).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(NodeId::from(7).index(), 7);
    }

    #[test]
    #[should_panic(expected = "fits in u16")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from(100_000);
    }
}
