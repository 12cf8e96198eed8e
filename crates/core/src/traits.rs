//! The protocol abstraction shared by every gossip flavor.
//!
//! [`LpbcastNode`](crate::LpbcastNode), [`AdaptiveNode`](crate::AdaptiveNode)
//! and the flavors in other crates are *sans-IO state machines*: they never
//! touch sockets or clocks, they only transform
//! `(now, input) -> outgoing frames + protocol events`. The simulator, the
//! threaded runtime and the Maelstrom adapter all drive them through
//! [`FrameProtocol`], which is how the reproduction keeps the paper's
//! "simulation predicts the implementation" property.

use agb_types::{DurationMs, EventId, NodeId, Payload, TimeMs};

use crate::buffer::PurgeReason;
use crate::event::Event;
use crate::header::GossipFrame;
use crate::rate::RateChangeReason;

/// Result of offering a message to the broadcast primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// The message was admitted (token available) and entered the gossip
    /// buffer immediately.
    Admitted(EventId),
    /// The message is queued behind the token bucket; it will be admitted
    /// by a later round (Figure 3's blocking `wait`).
    Queued,
}

impl OfferOutcome {
    /// The admitted event id, if admission was immediate.
    pub fn admitted_id(self) -> Option<EventId> {
        match self {
            OfferOutcome::Admitted(id) => Some(id),
            OfferOutcome::Queued => None,
        }
    }
}

/// Everything observable that a protocol node does, in occurrence order.
///
/// The metrics layer consumes these to build the paper's figures; the
/// application layer consumes `Delivered` for its payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// A locally offered message passed the throttle and entered the gossip
    /// buffer (the "input" of Figures 6 and 7(a)).
    Admitted {
        /// The new event's id.
        id: EventId,
        /// Admission time.
        at: TimeMs,
    },
    /// An event was delivered to the application (first copy received, or
    /// self-delivery at the origin).
    Delivered {
        /// The delivered event (id, age at delivery = hops, payload).
        event: Event,
        /// The node the copy arrived from (self for origin delivery).
        from: NodeId,
        /// Delivery time.
        at: TimeMs,
    },
    /// An event left the gossip buffer.
    Dropped {
        /// The purged event's id.
        id: EventId,
        /// Its age at purge time — the raw congestion signal.
        age: u32,
        /// Overflow (congestion) or age cap (normal end of life).
        reason: PurgeReason,
        /// Purge time.
        at: TimeMs,
    },
    /// The adaptive controller changed the allowed sending rate
    /// (Figure 9(a)'s time series).
    RateChanged {
        /// Previous rate, msgs/s.
        old: f64,
        /// New rate, msgs/s.
        new: f64,
        /// What triggered the change.
        reason: RateChangeReason,
        /// Change time.
        at: TimeMs,
    },
    /// A new sample period started in the min-buffer estimator.
    PeriodRollover {
        /// The new period index.
        period: u64,
        /// The windowed capacity estimate after the rollover.
        estimate: u32,
        /// Rollover time.
        at: TimeMs,
    },
    /// The recovery layer sent a `Graft` pull request for missing events
    /// (`agb-recovery`).
    RecoveryRequested {
        /// The advertiser the request was sent to.
        to: NodeId,
        /// Number of missing ids requested.
        ids: usize,
        /// Request time.
        at: TimeMs,
    },
    /// The recovery layer answered a `Graft` from its retransmission
    /// cache.
    RecoveryServed {
        /// The requesting node.
        to: NodeId,
        /// Events found in the cache and retransmitted.
        events: usize,
        /// Requested ids no longer cached (the requester will retry
        /// elsewhere).
        missed: usize,
        /// Serve time.
        at: TimeMs,
    },
    /// A previously missing event arrived through a retransmission and was
    /// delivered.
    Recovered {
        /// The recovered event's id.
        id: EventId,
        /// The node that served the retransmission.
        from: NodeId,
        /// Recovery time.
        at: TimeMs,
    },
    /// A retransmitted event had already been received through regular
    /// gossip — wasted recovery bandwidth, tracked as a duplicate.
    RecoveryDuplicate {
        /// The redundant event's id.
        id: EventId,
        /// Arrival time.
        at: TimeMs,
    },
    /// Recovery of a missing event was abandoned after the retry budget
    /// was exhausted.
    RecoveryAbandoned {
        /// The unrecoverable event's id.
        id: EventId,
        /// Abandon time.
        at: TimeMs,
    },
}

/// A gossip broadcast protocol node as a pure, frame-level state machine.
///
/// Every flavor implements this one trait: [`LpbcastNode`](crate::LpbcastNode),
/// [`AdaptiveNode`](crate::AdaptiveNode), agb-topology's `RoutingNode` and
/// agb-recovery's `RecoverableNode`. A node exchanges only
/// [`GossipFrame`]s. Plain flavors emit [`GossipFrame::plain`] gossip,
/// act on gossip frames, and answer recovery frames (`Graft`,
/// `Retransmit`) with nothing; the recovery wrapper adds the pull plane.
///
/// The driving harness must:
/// 1. call [`on_round`](FrameProtocol::on_round) every
///    [`gossip_period`](FrameProtocol::gossip_period) and transmit the
///    returned frames;
/// 2. call [`on_receive`](FrameProtocol::on_receive) for every frame
///    received from the network and transmit the returned replies (pull
///    requests and retransmissions are request/response traffic, not
///    periodic gossip);
/// 3. periodically [`drain_events_into`](FrameProtocol::drain_events_into)
///    and hand the events to the application/metrics.
pub trait FrameProtocol {
    /// This node's identity.
    fn node_id(&self) -> NodeId;

    /// Offers an application message for broadcast (Figure 3's
    /// `BROADCAST`).
    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome;

    /// Runs one gossip round: ages, garbage collection, throttle
    /// bookkeeping, adaptation, and emission of gossip frames (plus any
    /// due recovery retries).
    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)>;

    /// Ingests one frame; returns immediate reply frames (empty for plain
    /// protocols).
    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)>;

    /// Drains the protocol events accumulated since the last drain into a
    /// reusable buffer (the harness hot path: one scratch vector instead
    /// of an allocation per handler invocation). Appends without clearing
    /// `out`.
    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>);

    /// Takes the protocol events accumulated since the last drain.
    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        let mut events = Vec::new();
        self.drain_events_into(&mut events);
        events
    }

    /// Resizes the event buffer at runtime (the Figure 9 experiment).
    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs);

    /// Current event-buffer capacity.
    fn buffer_capacity(&self) -> usize;

    /// Current event-buffer occupancy.
    fn buffer_len(&self) -> usize;

    /// The current allowed sending rate in msgs/s: `Some` for throttled
    /// nodes, `None` for the unthrottled baseline.
    fn allowed_rate(&self) -> Option<f64>;

    /// Messages waiting behind the throttle.
    fn pending_len(&self) -> usize;

    /// The configured gossip period `T`.
    fn gossip_period(&self) -> DurationMs;

    /// The current congestion signal `avgAge` (adaptive nodes only).
    fn avg_age(&self) -> Option<f64> {
        None
    }

    /// The current smoothed token level `avgTokens` (adaptive nodes only).
    fn avg_tokens(&self) -> Option<f64> {
        None
    }

    /// The current group-minimum-buffer estimate (adaptive nodes only).
    fn min_buff_estimate(&self) -> Option<u32> {
        None
    }

    /// Snapshot of the node's current membership view (diagnostics and
    /// churn-convergence probes).
    fn membership_view(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Gracefully leaves the group: returns farewell frames that flush
    /// the node's buffered events and carry its own unsubscription, so
    /// partial views across the group drop it through normal digest
    /// propagation (lpbcast's unsubscribe path). The harness must transmit
    /// the frames and then stop driving the node.
    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let _ = now;
        Vec::new()
    }

    /// Evicts a peer this node believes dead from its membership view,
    /// propagating the removal where the membership service supports it
    /// (the failure-detector hook of churn scenarios).
    fn evict_peer(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Estimated resident memory per subsystem, as `(label, usage)`
    /// rows for the profiling plane's attribution table (agb-profile).
    /// Labels should be stable snake_case subsystem names; the default
    /// reports nothing.
    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::NodeId;

    #[test]
    fn offer_outcome_accessor() {
        let id = EventId::new(NodeId::new(0), 1);
        assert_eq!(OfferOutcome::Admitted(id).admitted_id(), Some(id));
        assert_eq!(OfferOutcome::Queued.admitted_id(), None);
    }
}
