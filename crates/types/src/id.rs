//! Identifier newtypes: nodes, groups, topics and broadcast events.

use std::fmt;

/// Identifier of a process (node) participating in a broadcast group.
///
/// Node identifiers are dense small integers assigned by the harness
/// (simulator or runtime cluster); they index into membership tables.
///
/// # Example
///
/// ```
/// use agb_types::NodeId;
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert!(a < NodeId::new(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index backing this identifier.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value (used by wire codecs).
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a publish/subscribe topic.
///
/// Topics are mapped onto broadcast groups by the workload layer
/// (subject-based subscription in the paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TopicId(u32);

impl TopicId {
    /// Creates a topic identifier.
    pub const fn new(v: u32) -> Self {
        TopicId(v)
    }

    /// Returns the raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for TopicId {
    fn from(v: u32) -> Self {
        TopicId(v)
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Globally unique identifier of a broadcast event (message).
///
/// An event is identified by its origin node and a per-origin sequence
/// number, mirroring the `e.id` field of the paper's Figure 1. The ordering
/// (origin first, then sequence) gives a deterministic total order used by
/// duplicate-suppression digests.
///
/// # Example
///
/// ```
/// use agb_types::{EventId, NodeId};
/// let id = EventId::new(NodeId::new(2), 40);
/// assert_eq!(id.origin(), NodeId::new(2));
/// assert_eq!(id.seq(), 40);
/// assert_eq!(format!("{id}"), "n2#40");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    origin: NodeId,
    seq: u64,
}

impl EventId {
    /// Creates an event identifier from origin node and sequence number.
    pub const fn new(origin: NodeId, seq: u64) -> Self {
        EventId { origin, seq }
    }

    /// The node that broadcast the event.
    pub const fn origin(self) -> NodeId {
        self.origin
    }

    /// Per-origin monotonically increasing sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastHashSet;

    #[test]
    fn node_id_roundtrip_and_order() {
        let a = NodeId::new(1);
        let b = NodeId::from(2);
        assert!(a < b);
        assert_eq!(b.index(), 2);
        assert_eq!(b.as_u32(), 2);
        assert_eq!(a, NodeId::new(1));
    }

    #[test]
    fn event_id_ordering_is_origin_then_seq() {
        let a = EventId::new(NodeId::new(0), 10);
        let b = EventId::new(NodeId::new(1), 0);
        let c = EventId::new(NodeId::new(1), 5);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = FastHashSet::default();
        for origin in 0..4u32 {
            for seq in 0..16u64 {
                set.insert(EventId::new(NodeId::new(origin), seq));
            }
        }
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId::new(9)), "n9");
        assert_eq!(format!("{}", TopicId::new(5)), "t5");
        assert_eq!(format!("{}", EventId::new(NodeId::new(1), 2)), "n1#2");
    }

    #[test]
    fn topic_roundtrip() {
        assert_eq!(TopicId::from(8).as_u32(), 8);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
        assert_eq!(TopicId::default(), TopicId::new(0));
    }
}
