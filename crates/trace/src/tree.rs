//! Post-run reconstruction of per-event causal dissemination trees.
//!
//! Every delivered copy of an event names the node the winning copy
//! arrived from, so the set of `Deliver` records for one event id *is*
//! its first-delivery spanning tree (parent = `from`, depth = `hops`).
//! Relay records add the outgoing side: how many copies each node
//! forwarded. The builder folds the trace stream into per-event
//! aggregates and summarizes them as [`TreeStats`]: spanning-tree depth,
//! redundancy ratio (arrivals per useful delivery), and the relay
//! fan-out distribution.

use agb_types::json::Json;
use agb_types::{EventId, FastHashMap, Histogram, NodeId, TimeMs};

use crate::record::{TraceKind, TraceRecord};
use crate::summary::{fold_histogram, histogram_json};

/// Aggregated dissemination facts for one event id.
#[derive(Debug, Clone, Default)]
struct EventTree {
    /// Origin node, once a `Publish` record is seen.
    origin: Option<NodeId>,
    /// Admission time at the origin (the latency clock's zero).
    publish_at: Option<TimeMs>,
    /// First deliveries (gossip `Deliver` + recovery `Recovered`) — the
    /// spanning tree's node count.
    deliveries: u32,
    /// Redundant arrivals (`Duplicate` + `RecoveryDuplicate`).
    duplicates: u32,
    /// Deliveries repaired by the recovery layer.
    recovered: u32,
    /// Deepest delivery hop count — the spanning tree's depth.
    max_hops: u32,
    /// Outgoing relay copies per forwarding node (fan-out).
    relays_by_node: FastHashMap<NodeId, u32>,
}

/// Aggregate dissemination-tree statistics over all traced events.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Events with at least one trace record.
    pub events: u64,
    /// Events that reached at least one node.
    pub delivered_events: u64,
    /// First deliveries across all events (spanning-tree nodes).
    pub deliveries: u64,
    /// Redundant arrivals across all events.
    pub duplicates: u64,
    /// Deliveries repaired by the recovery layer.
    pub recovered: u64,
    /// Relay copies sent across all events.
    pub relays: u64,
    /// Mean spanning-tree depth over delivered events.
    pub mean_depth: f64,
    /// Deepest spanning tree observed.
    pub max_depth: u32,
    /// Arrivals per useful delivery: `(deliveries + duplicates) /
    /// deliveries`. 1.0 is a perfect tree; gossip's redundancy is the
    /// price of its fault tolerance.
    pub redundancy: f64,
    /// Distribution of per-node relay fan-out (copies of one event one
    /// node forwarded).
    pub fanout: Histogram,
}

impl TreeStats {
    /// JSON form (stable key order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::from(self.events)),
            ("delivered_events", Json::from(self.delivered_events)),
            ("deliveries", Json::from(self.deliveries)),
            ("duplicates", Json::from(self.duplicates)),
            ("recovered", Json::from(self.recovered)),
            ("relays", Json::from(self.relays)),
            ("mean_depth", Json::Num(self.mean_depth)),
            ("max_depth", Json::from(u64::from(self.max_depth))),
            ("redundancy", Json::Num(self.redundancy)),
            ("fanout", histogram_json("relay_fanout", &self.fanout)),
        ])
    }

    /// Folds the stats into a digest accumulator.
    pub(crate) fn fold_digest(&self, mix: &mut impl FnMut(u64)) {
        mix(self.events);
        mix(self.delivered_events);
        mix(self.deliveries);
        mix(self.duplicates);
        mix(self.recovered);
        mix(self.relays);
        mix(u64::from(self.max_depth));
        mix(self.redundancy.to_bits());
        fold_histogram(&self.fanout, mix);
    }
}

/// Streams trace records into per-event dissemination trees.
///
/// # Example
///
/// ```
/// use agb_trace::{TraceKind, TraceRecord, TreeBuilder};
/// use agb_types::{EventId, NodeId, TimeMs};
///
/// let origin = NodeId::new(0);
/// let id = EventId::new(origin, 0);
/// let mut trees = TreeBuilder::new();
/// let stamp = |node, kind| TraceRecord { node, at: TimeMs::ZERO, round: 0, kind };
/// trees.observe(&stamp(origin, TraceKind::Publish { id }));
/// trees.observe(&stamp(origin, TraceKind::Deliver { id, from: origin, hops: 0 }));
/// trees.observe(&stamp(NodeId::new(1), TraceKind::Deliver { id, from: origin, hops: 1 }));
/// trees.observe(&stamp(NodeId::new(1), TraceKind::Duplicate { id, from: origin }));
///
/// let stats = trees.stats();
/// assert_eq!(stats.deliveries, 2);
/// assert_eq!(stats.max_depth, 1);
/// assert_eq!(stats.redundancy, 1.5); // 3 arrivals / 2 deliveries
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    trees: FastHashMap<EventId, EventTree>,
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into its event's tree. Records without an event
    /// id are ignored.
    pub fn observe(&mut self, record: &TraceRecord) {
        match &record.kind {
            TraceKind::Publish { id } => {
                let t = self.trees.entry(*id).or_default();
                t.origin = Some(record.node);
                t.publish_at = Some(record.at);
            }
            TraceKind::Relay { id, .. } => {
                let t = self.trees.entry(*id).or_default();
                *t.relays_by_node.entry(record.node).or_insert(0) += 1;
            }
            TraceKind::Deliver { id, hops, .. } => {
                let t = self.trees.entry(*id).or_default();
                t.deliveries += 1;
                t.max_hops = t.max_hops.max(*hops);
            }
            TraceKind::Duplicate { id, .. } | TraceKind::RecoveryDuplicate { id } => {
                self.trees.entry(*id).or_default().duplicates += 1;
            }
            TraceKind::Recovered { id, .. } => {
                let t = self.trees.entry(*id).or_default();
                t.deliveries += 1;
                t.recovered += 1;
            }
            _ => {}
        }
    }

    /// Admission time of `id` at its origin, if a `Publish` was traced
    /// (the delivery-latency clock's zero).
    pub fn publish_at(&self, id: EventId) -> Option<TimeMs> {
        self.trees.get(&id).and_then(|t| t.publish_at)
    }

    /// Aggregate statistics over all traced events.
    ///
    /// Every aggregate is order-independent (integer sums, maxima, and
    /// integer-valued histogram samples), so the result is deterministic
    /// even though the underlying maps iterate in hash order.
    pub fn stats(&self) -> TreeStats {
        let mut deliveries = 0u64;
        let mut duplicates = 0u64;
        let mut recovered = 0u64;
        let mut relays = 0u64;
        let mut delivered_events = 0u64;
        let mut depth_sum = 0u64;
        let mut max_depth = 0u32;
        let mut fanout = Histogram::new(&[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0]);
        for t in self.trees.values() {
            deliveries += u64::from(t.deliveries);
            duplicates += u64::from(t.duplicates);
            recovered += u64::from(t.recovered);
            if t.deliveries > 0 {
                delivered_events += 1;
                depth_sum += u64::from(t.max_hops);
                max_depth = max_depth.max(t.max_hops);
            }
            for &n in t.relays_by_node.values() {
                relays += u64::from(n);
                fanout.observe(f64::from(n));
            }
        }
        let mean_depth = if delivered_events > 0 {
            depth_sum as f64 / delivered_events as f64
        } else {
            0.0
        };
        let redundancy = if deliveries > 0 {
            (deliveries + duplicates) as f64 / deliveries as f64
        } else {
            0.0
        };
        TreeStats {
            events: self.trees.len() as u64,
            delivered_events,
            deliveries,
            duplicates,
            recovered,
            relays,
            mean_depth,
            max_depth,
            redundancy,
            fanout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            node: NodeId::new(node),
            at: TimeMs::ZERO,
            round: 0,
            kind,
        }
    }

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    #[test]
    fn relays_accumulate_fanout_per_node() {
        let mut b = TreeBuilder::new();
        let e = id(0, 0);
        for to in 1..4 {
            b.observe(&rec(
                0,
                TraceKind::Relay {
                    id: e,
                    to: NodeId::new(to),
                    age: 1,
                },
            ));
        }
        b.observe(&rec(
            2,
            TraceKind::Relay {
                id: e,
                to: NodeId::new(5),
                age: 2,
            },
        ));
        let stats = b.stats();
        assert_eq!(stats.relays, 4);
        // Two forwarding nodes: one with fan-out 3, one with fan-out 1.
        assert_eq!(stats.fanout.count(), 2);
        assert_eq!(stats.fanout.max(), Some(3.0));
    }

    #[test]
    fn recovered_counts_as_delivery() {
        let mut b = TreeBuilder::new();
        let e = id(0, 0);
        b.observe(&rec(
            1,
            TraceKind::Recovered {
                id: e,
                from: NodeId::new(2),
            },
        ));
        b.observe(&rec(1, TraceKind::RecoveryDuplicate { id: e }));
        let stats = b.stats();
        assert_eq!(stats.deliveries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.redundancy, 2.0);
    }

    #[test]
    fn publish_at_feeds_the_latency_clock() {
        let mut b = TreeBuilder::new();
        let e = id(0, 7);
        assert_eq!(b.publish_at(e), None);
        b.observe(&TraceRecord {
            node: NodeId::new(0),
            at: TimeMs::from_millis(1_500),
            round: 1,
            kind: TraceKind::Publish { id: e },
        });
        assert_eq!(b.publish_at(e), Some(TimeMs::from_millis(1_500)));
    }

    #[test]
    fn empty_builder_has_zeroed_stats() {
        let stats = TreeBuilder::new().stats();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.redundancy, 0.0);
        assert_eq!(stats.mean_depth, 0.0);
    }
}
