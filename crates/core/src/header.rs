//! The frames nodes exchange: gossip messages, and the pull frames of the
//! recovery layer (`agb-recovery`).

use agb_membership::MembershipDigest;
use agb_types::{EventId, NodeId};

use crate::event::{Event, EventList};
use crate::minbuff::BuffAd;

/// One gossip message: the sender's buffered events plus the small control
/// header that the adaptive mechanism piggybacks on every data message
/// (Figure 5(a): the sample period `s` and the sender's current-period
/// minimum-buffer estimate).
///
/// The mechanism deliberately adds **no extra messages** — only these header
/// fields — which is what preserves gossip's scalability.
///
/// # Example
///
/// ```
/// use agb_core::{BuffAd, Event, GossipMessage};
/// use agb_types::{EventId, NodeId, Payload};
///
/// let msg = GossipMessage {
///     sender: NodeId::new(3),
///     sample_period: 7,
///     min_buffs: vec![BuffAd { node: NodeId::new(9), capacity: 45 }],
///     events: vec![Event::new(EventId::new(NodeId::new(3), 0), Payload::new())].into(),
///     membership: Default::default(),
/// };
/// assert_eq!(msg.min_buff(), Some(45));
/// assert!(msg.wire_size() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GossipMessage {
    /// The gossiping node.
    pub sender: NodeId,
    /// The sender's current sample period index `s` (Figure 5(a)).
    /// Zero when the sender runs the non-adaptive baseline.
    pub sample_period: u64,
    /// The sender's estimate of the `m` smallest buffer capacities in the
    /// group for period `s`, ascending. Baseline lpbcast sends an empty
    /// vector; the paper's mechanism sends one entry (`minBuff_s`); the §6
    /// extension sends `m > 1`.
    pub min_buffs: Vec<BuffAd>,
    /// The sender's buffered events — a shared snapshot: the same
    /// [`EventList`] backs every copy of this round's gossip to all `F`
    /// targets.
    pub events: EventList,
    /// Piggybacked membership updates (lpbcast subscriptions).
    pub membership: MembershipDigest,
}

impl GossipMessage {
    /// Approximate wire size in bytes (header + events + membership ids).
    pub fn wire_size(&self) -> usize {
        let header = 4 /* sender */ + 8 /* period */ + 2 + 8 * self.min_buffs.len();
        let events: usize = self.events.iter().map(Event::wire_size).sum();
        let membership = 4 * self.membership.len();
        header + events + membership + 4 /* counts */
    }

    /// The sender's single-value min-buffer estimate (the smallest entry),
    /// if present.
    pub fn min_buff(&self) -> Option<u32> {
        self.min_buffs.first().map(|a| a.capacity)
    }

    /// Whether this message carries adaptive control information.
    pub fn is_adaptive(&self) -> bool {
        !self.min_buffs.is_empty()
    }
}

/// Compact advertisement of recently-seen event identifiers, piggybacked
/// on gossip data messages by the recovery layer (`agb-recovery`).
///
/// Ids are far cheaper than events (16 bytes each), so a node can keep
/// advertising an event long after purging it from its gossip buffer —
/// which is exactly the window in which lpbcast loses atomicity and a
/// pull-based repair can win it back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IHaveDigest {
    /// Recently-seen event ids, most recent last.
    pub ids: Vec<EventId>,
}

impl IHaveDigest {
    /// Approximate wire size in bytes (count + 12 bytes per id).
    pub fn wire_size(&self) -> usize {
        2 + 12 * self.ids.len()
    }
}

/// Pull request for events the sender detected as missing after seeing
/// them advertised in an [`IHaveDigest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraftRequest {
    /// The requesting node.
    pub sender: NodeId,
    /// The missing event ids.
    pub ids: Vec<EventId>,
}

impl GraftRequest {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        4 + 2 + 12 * self.ids.len()
    }
}

/// Reply to a [`GraftRequest`], serving events from the responder's
/// bounded retransmission cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Retransmission {
    /// The responding node.
    pub sender: NodeId,
    /// The recovered events (requested ids the responder still holds).
    pub events: Vec<Event>,
}

impl Retransmission {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        let events: usize = self.events.iter().map(Event::wire_size).sum();
        4 + 4 + events
    }
}

/// One frame on the wire: the only unit protocol nodes exchange.
///
/// The recovery mechanism adds exactly one piggybacked digest to each
/// data message and two *pull* frame kinds; nodes that run without
/// recovery only ever emit [`GossipFrame::Gossip`] with `ihave: None`.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipFrame {
    /// A regular gossip data message, with an optional piggybacked
    /// recently-seen digest.
    Gossip {
        /// The base protocol's message.
        msg: GossipMessage,
        /// The recovery layer's piggybacked digest, if active.
        ihave: Option<IHaveDigest>,
    },
    /// A retransmission request for missing events.
    Graft(GraftRequest),
    /// A retransmission serving previously missed events.
    Retransmit(Retransmission),
}

impl GossipFrame {
    /// Wraps a plain gossip message (no recovery digest).
    pub fn plain(msg: GossipMessage) -> Self {
        GossipFrame::Gossip { msg, ihave: None }
    }

    /// An empty gossip frame used as an explicit heartbeat: carries no
    /// events, only the sender identity — enough for a receiver's
    /// failure detector to record the arrival while the normal receive
    /// path treats it as a no-op gossip.
    pub fn heartbeat(sender: NodeId) -> Self {
        GossipFrame::plain(GossipMessage {
            sender,
            sample_period: 0,
            min_buffs: Vec::new(),
            events: Default::default(),
            membership: Default::default(),
        })
    }

    /// The node that emitted this frame.
    pub fn sender(&self) -> NodeId {
        match self {
            GossipFrame::Gossip { msg, .. } => msg.sender,
            GossipFrame::Graft(g) => g.sender,
            GossipFrame::Retransmit(r) => r.sender,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            GossipFrame::Gossip { msg, ihave } => {
                msg.wire_size() + ihave.as_ref().map_or(0, IHaveDigest::wire_size)
            }
            GossipFrame::Graft(g) => g.wire_size(),
            GossipFrame::Retransmit(r) => r.wire_size(),
        }
    }
}

#[cfg(test)]
impl GossipFrame {
    /// The message of a plain gossip frame, as the core flavors emit it.
    pub(crate) fn expect_plain_gossip(&self) -> &GossipMessage {
        match self {
            GossipFrame::Gossip { msg, ihave: None } => msg,
            other => panic!("expected a plain gossip frame, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::{EventId, Payload};

    fn base() -> GossipMessage {
        GossipMessage {
            sender: NodeId::new(0),
            sample_period: 0,
            min_buffs: vec![],
            events: Default::default(),
            membership: MembershipDigest::default(),
        }
    }

    #[test]
    fn wire_size_grows_with_events() {
        let empty = base();
        let mut one = base();
        one.events = vec![Event::new(EventId::new(NodeId::new(0), 0), Payload::new())].into();
        assert!(one.wire_size() > empty.wire_size());
    }

    #[test]
    fn min_buff_accessor_and_adaptive_flag() {
        let mut msg = base();
        assert_eq!(msg.min_buff(), None);
        assert!(!msg.is_adaptive());
        msg.min_buffs = vec![
            BuffAd {
                node: NodeId::new(4),
                capacity: 45,
            },
            BuffAd {
                node: NodeId::new(5),
                capacity: 60,
            },
        ];
        assert_eq!(msg.min_buff(), Some(45));
        assert!(msg.is_adaptive());
    }

    #[test]
    fn frame_sender_and_kind() {
        let gossip = GossipFrame::plain(base());
        assert_eq!(gossip.sender(), NodeId::new(0));

        let graft = GossipFrame::Graft(GraftRequest {
            sender: NodeId::new(4),
            ids: vec![EventId::new(NodeId::new(1), 9)],
        });
        assert_eq!(graft.sender(), NodeId::new(4));

        let retransmit = GossipFrame::Retransmit(Retransmission {
            sender: NodeId::new(5),
            events: vec![],
        });
        assert_eq!(retransmit.sender(), NodeId::new(5));
    }

    #[test]
    fn frame_wire_sizes_grow_with_content() {
        let empty = GossipFrame::plain(base());
        let with_digest = GossipFrame::Gossip {
            msg: base(),
            ihave: Some(IHaveDigest {
                ids: vec![EventId::new(NodeId::new(0), 0); 8],
            }),
        };
        assert!(with_digest.wire_size() > empty.wire_size());

        let small = GraftRequest {
            sender: NodeId::new(0),
            ids: vec![],
        };
        let big = GraftRequest {
            sender: NodeId::new(0),
            ids: vec![EventId::new(NodeId::new(0), 0); 4],
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
