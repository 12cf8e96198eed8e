//! The typed trace vocabulary: records, kinds, drop causes, and the sink
//! trait harnesses feed.

use agb_types::{EventId, NodeId, TimeMs};

/// Why an event left a gossip buffer (or never entered one).
///
/// The paper's central claim is that these three causes have very
/// different meanings: `Age` is the normal end of life, `Size` is the
/// congestion signal the adaptive mechanism reacts to, and `Congestion`
/// is the throttle doing its job at the sender before an event ever
/// reaches a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Purged by the age cap — the event lived its full dissemination
    /// window (`PurgeReason::AgeCap`).
    Age,
    /// Evicted by buffer overflow — the raw congestion signal
    /// (`PurgeReason::Overflow`).
    Size,
    /// Suppressed at the sender: an offered message was refused because
    /// the throttle backlog was full. The message has no event id (it
    /// was never admitted).
    Congestion,
}

impl DropCause {
    /// Stable lowercase label (JSON fields, dashboard rows, digests).
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Age => "age",
            DropCause::Size => "size",
            DropCause::Congestion => "congestion",
        }
    }
}

/// What happened, as observed at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A locally offered message was admitted into the gossip buffer at
    /// its origin.
    Publish {
        /// The new event's id.
        id: EventId,
    },
    /// The observing node forwarded a buffered copy of `id` to `to` in a
    /// gossip round.
    Relay {
        /// The forwarded event's id.
        id: EventId,
        /// The gossip target.
        to: NodeId,
        /// The copy's age (hops lived) when forwarded.
        age: u32,
    },
    /// First copy of `id` reached the observing node and was delivered
    /// to the application.
    Deliver {
        /// The delivered event's id.
        id: EventId,
        /// The node the winning copy arrived from (self at the origin).
        from: NodeId,
        /// The copy's age at delivery — its hop count through the
        /// dissemination tree.
        hops: u32,
    },
    /// A redundant copy of `id` arrived after delivery (max-merged into
    /// the buffered copy's age, otherwise wasted bandwidth).
    Duplicate {
        /// The redundant event's id.
        id: EventId,
        /// The node the redundant copy arrived from.
        from: NodeId,
    },
    /// An event was dropped — see [`DropCause`] for the taxonomy.
    Drop {
        /// The dropped event's id; `None` for congestion drops, which
        /// suppress a message before it is assigned an id.
        id: Option<EventId>,
        /// The copy's age at drop time (0 for congestion drops).
        age: u32,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// The recovery layer advertised recently-seen ids to a peer
    /// (piggybacked `IHave` digest).
    IHave {
        /// The digest's destination.
        to: NodeId,
        /// Number of ids advertised.
        ids: u32,
    },
    /// The observing node sent a `Graft` pull request for missing
    /// events. Opens a recovery round-trip; the matching
    /// [`Recovered`](TraceKind::Recovered) closes it.
    Graft {
        /// The advertiser asked to retransmit.
        to: NodeId,
        /// Number of missing ids requested.
        ids: u32,
    },
    /// The observing node answered a `Graft` from its retransmission
    /// cache.
    Retransmit {
        /// The requesting node.
        to: NodeId,
        /// Events served from the cache.
        events: u32,
        /// Requested ids no longer cached.
        missed: u32,
    },
    /// A previously missing event arrived via retransmission and was
    /// delivered — a recovery round-trip completed.
    Recovered {
        /// The repaired event's id.
        id: EventId,
        /// The node that served the retransmission.
        from: NodeId,
    },
    /// A retransmitted event had already arrived through regular gossip
    /// — wasted recovery bandwidth.
    RecoveryDuplicate {
        /// The redundant event's id.
        id: EventId,
    },
    /// Recovery of a missing event was abandoned after the retry budget
    /// ran out — a real delivery gap.
    RecoveryAbandoned {
        /// The unrecoverable event's id.
        id: EventId,
    },
    /// The observing node's membership view changed size (join, leave,
    /// eviction, partial-view churn).
    ViewChange {
        /// The view size after the change.
        view_size: u32,
    },
    /// The observing node crashed (state lost).
    Crash,
    /// The observing node restarted after a crash.
    Restart,
    /// Buffer occupancy snapshot, taken once per gossip round.
    BufferOccupancy {
        /// Events currently buffered.
        len: u32,
        /// Buffer capacity at snapshot time.
        capacity: u32,
    },
    /// An outgoing gossip frame crossed a topology-region boundary (rack,
    /// cluster, site). The raw signal for locality-bias effectiveness:
    /// counted per frame, not per event, because the expensive resource is
    /// the inter-region link. Never recorded unless the probe was given a
    /// region map.
    CrossPartition {
        /// The frame's destination in the foreign region.
        to: NodeId,
        /// The destination's region label.
        region: u32,
    },
    /// The φ-accrual detector crossed the suspicion threshold for a
    /// monitored peer (first φ ≥ suspect level; cleared silently if
    /// traffic resumes).
    Suspect {
        /// The suspected peer.
        peer: NodeId,
    },
    /// The φ-accrual detector condemned a peer (φ ≥ eviction level) and
    /// the observing node evicted it from its local view.
    DetectorEvict {
        /// The evicted peer.
        peer: NodeId,
    },
    /// The observing node sent an explicit heartbeat to a ring successor
    /// that regular gossip did not cover this round (the detector's
    /// liveness fallback).
    Heartbeat {
        /// The heartbeat's destination.
        to: NodeId,
    },
    /// An overloaded queue shed a frame (priority shedding: control >
    /// recovery > app; the label records the shed class).
    Shed {
        /// Shed class: 0 = app, 1 = recovery, 2 = control.
        class: u8,
    },
    /// A previously evicted peer showed fresh traffic and was readmitted
    /// by the detector.
    Rejoin {
        /// The returning peer.
        peer: NodeId,
    },
}

impl TraceKind {
    /// The event id this record is about, if it carries one.
    pub fn event_id(&self) -> Option<EventId> {
        match self {
            TraceKind::Publish { id }
            | TraceKind::Relay { id, .. }
            | TraceKind::Deliver { id, .. }
            | TraceKind::Duplicate { id, .. }
            | TraceKind::Recovered { id, .. }
            | TraceKind::RecoveryDuplicate { id }
            | TraceKind::RecoveryAbandoned { id } => Some(*id),
            TraceKind::Drop { id, .. } => *id,
            _ => None,
        }
    }

    /// Stable kind label (dashboard rows, JSON taxonomy, digests).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Publish { .. } => "publish",
            TraceKind::Relay { .. } => "relay",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::Duplicate { .. } => "duplicate",
            TraceKind::Drop { .. } => "drop",
            TraceKind::IHave { .. } => "ihave",
            TraceKind::Graft { .. } => "graft",
            TraceKind::Retransmit { .. } => "retransmit",
            TraceKind::Recovered { .. } => "recovered",
            TraceKind::RecoveryDuplicate { .. } => "recovery_duplicate",
            TraceKind::RecoveryAbandoned { .. } => "recovery_abandoned",
            TraceKind::ViewChange { .. } => "view_change",
            TraceKind::Crash => "crash",
            TraceKind::Restart => "restart",
            TraceKind::BufferOccupancy { .. } => "buffer_occupancy",
            TraceKind::CrossPartition { .. } => "cross_partition",
            TraceKind::Suspect { .. } => "suspect",
            TraceKind::DetectorEvict { .. } => "detector_evict",
            TraceKind::Heartbeat { .. } => "heartbeat",
            TraceKind::Shed { .. } => "shed",
            TraceKind::Rejoin { .. } => "rejoin",
        }
    }

    /// A small stable discriminant for digest folding.
    pub(crate) fn tag(&self) -> u64 {
        match self {
            TraceKind::Publish { .. } => 1,
            TraceKind::Relay { .. } => 2,
            TraceKind::Deliver { .. } => 3,
            TraceKind::Duplicate { .. } => 4,
            TraceKind::Drop { .. } => 5,
            TraceKind::IHave { .. } => 6,
            TraceKind::Graft { .. } => 7,
            TraceKind::Retransmit { .. } => 8,
            TraceKind::Recovered { .. } => 9,
            TraceKind::RecoveryDuplicate { .. } => 10,
            TraceKind::RecoveryAbandoned { .. } => 11,
            TraceKind::ViewChange { .. } => 12,
            TraceKind::Crash => 13,
            TraceKind::Restart => 14,
            TraceKind::BufferOccupancy { .. } => 15,
            TraceKind::CrossPartition { .. } => 16,
            TraceKind::Suspect { .. } => 17,
            TraceKind::DetectorEvict { .. } => 18,
            TraceKind::Heartbeat { .. } => 19,
            TraceKind::Shed { .. } => 20,
            TraceKind::Rejoin { .. } => 21,
        }
    }
}

/// One trace record: a [`TraceKind`] stamped with where and when it was
/// observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The observing node.
    pub node: NodeId,
    /// Time of observation on the driver's clock: virtual in the
    /// simulator, the tick clock in the Maelstrom adapter.
    pub at: TimeMs,
    /// The observing node's gossip-round counter at observation time
    /// (0 before the first round).
    pub round: u32,
    /// What happened.
    pub kind: TraceKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    #[test]
    fn event_id_accessor_covers_id_bearing_kinds() {
        assert_eq!(
            TraceKind::Publish { id: id(1, 2) }.event_id(),
            Some(id(1, 2))
        );
        assert_eq!(
            TraceKind::Drop {
                id: Some(id(3, 4)),
                age: 2,
                cause: DropCause::Size,
            }
            .event_id(),
            Some(id(3, 4))
        );
        assert_eq!(
            TraceKind::Drop {
                id: None,
                age: 0,
                cause: DropCause::Congestion,
            }
            .event_id(),
            None
        );
        assert_eq!(TraceKind::Crash.event_id(), None);
        assert_eq!(TraceKind::ViewChange { view_size: 9 }.event_id(), None);
    }

    #[test]
    fn labels_and_tags_are_distinct() {
        let kinds = [
            TraceKind::Publish { id: id(0, 0) },
            TraceKind::Relay {
                id: id(0, 0),
                to: NodeId::new(1),
                age: 0,
            },
            TraceKind::Deliver {
                id: id(0, 0),
                from: NodeId::new(1),
                hops: 1,
            },
            TraceKind::Duplicate {
                id: id(0, 0),
                from: NodeId::new(1),
            },
            TraceKind::Drop {
                id: None,
                age: 0,
                cause: DropCause::Congestion,
            },
            TraceKind::IHave {
                to: NodeId::new(1),
                ids: 3,
            },
            TraceKind::Graft {
                to: NodeId::new(1),
                ids: 3,
            },
            TraceKind::Retransmit {
                to: NodeId::new(1),
                events: 2,
                missed: 1,
            },
            TraceKind::Recovered {
                id: id(0, 0),
                from: NodeId::new(1),
            },
            TraceKind::RecoveryDuplicate { id: id(0, 0) },
            TraceKind::RecoveryAbandoned { id: id(0, 0) },
            TraceKind::ViewChange { view_size: 4 },
            TraceKind::Crash,
            TraceKind::Restart,
            TraceKind::BufferOccupancy {
                len: 5,
                capacity: 30,
            },
            TraceKind::CrossPartition {
                to: NodeId::new(1),
                region: 2,
            },
            TraceKind::Suspect {
                peer: NodeId::new(1),
            },
            TraceKind::DetectorEvict {
                peer: NodeId::new(1),
            },
            TraceKind::Heartbeat { to: NodeId::new(1) },
            TraceKind::Shed { class: 0 },
            TraceKind::Rejoin {
                peer: NodeId::new(1),
            },
        ];
        let mut labels: Vec<_> = kinds.iter().map(TraceKind::label).collect();
        let mut tags: Vec<_> = kinds.iter().map(TraceKind::tag).collect();
        labels.sort_unstable();
        labels.dedup();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(labels.len(), kinds.len());
        assert_eq!(tags.len(), kinds.len());
    }

    #[test]
    fn drop_cause_labels() {
        assert_eq!(DropCause::Age.label(), "age");
        assert_eq!(DropCause::Size.label(), "size");
        assert_eq!(DropCause::Congestion.label(), "congestion");
    }
}
