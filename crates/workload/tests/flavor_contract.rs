//! The frame contract every flavor keeps, checked on nodes built the way
//! the simulator builds them: a plain node ignores the recovery plane's
//! frames, the recovery wrapper delivers a retransmitted event exactly
//! once whatever flavor it wraps and reads an id a peer's frame repeats
//! as if it were named once, and `has_seen` answers what a copy's
//! delivery would.

use agb_core::{
    Event, FrameProtocol, GossipFrame, GossipMessage, GraftRequest, IHaveDigest, ProtocolEvent,
    Retransmission,
};
use agb_recovery::RecoveryConfig;
use agb_topology::RoutingConfig;
use agb_types::{EventId, NodeId, Payload, TimeMs};
use agb_workload::{Algorithm, ClusterConfig};

const PEER: NodeId = NodeId::new(3);

fn flavors() -> [(&'static str, Algorithm); 3] {
    [
        ("lpbcast", Algorithm::Lpbcast),
        ("adaptive", Algorithm::Adaptive),
        ("routing", Algorithm::Routing(RoutingConfig::default())),
    ]
}

fn node(algorithm: Algorithm, recovery: Option<RecoveryConfig>) -> Box<dyn FrameProtocol + Send> {
    let mut config = ClusterConfig::new(8, 7);
    config.algorithm = algorithm;
    config.recovery = recovery;
    config.make_protocol(NodeId::new(0), 0, None)
}

/// An event this node has never seen, as a peer would retransmit it.
fn missed_event() -> Event {
    Event::new(
        EventId::new(NodeId::new(5), 0),
        Payload::from_static(b"missed"),
    )
}

fn retransmit() -> GossipFrame {
    GossipFrame::Retransmit(Retransmission {
        sender: PEER,
        events: vec![missed_event()],
    })
}

/// A peer's gossip frame carrying `events` and, if given, an `IHave`
/// digest.
fn gossip(events: Vec<Event>, ihave: Option<Vec<EventId>>) -> GossipFrame {
    GossipFrame::Gossip {
        msg: GossipMessage {
            sender: PEER,
            sample_period: 0,
            min_buffs: Vec::new(),
            events: events.into(),
            membership: Default::default(),
        },
        ihave: ihave.map(|ids| IHaveDigest { ids }),
    }
}

/// How many times `events` deliver `id`.
fn deliveries(events: &[ProtocolEvent], id: EventId) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::Delivered { event, .. } if event.id() == id))
        .count()
}

#[test]
fn plain_flavors_ignore_recovery_frames() {
    for (name, algorithm) in flavors() {
        let mut n = node(algorithm, None);
        let own = n
            .offer(Payload::from_static(b"own"), TimeMs::ZERO)
            .admitted_id()
            .unwrap_or_else(|| panic!("{name}: offer not admitted"));
        n.drain_events();
        let graft = GossipFrame::Graft(GraftRequest {
            sender: PEER,
            ids: vec![own],
        });
        for frame in [graft, retransmit()] {
            let replies = n.on_receive(PEER, frame, TimeMs::from_secs(1));
            assert!(replies.is_empty(), "{name}: replied {replies:?}");
            assert!(n.drain_events().is_empty(), "{name}: emitted events");
            assert_eq!(n.buffer_len(), 1, "{name}: buffer changed");
        }
    }
}

#[test]
fn recovery_delivers_a_retransmitted_event_exactly_once() {
    for (name, algorithm) in flavors() {
        let mut n = node(algorithm, Some(RecoveryConfig::default()));
        // The first retransmission delivers; neither a second one nor a
        // late gossip copy delivers again.
        let late_copy = gossip(vec![missed_event()], None);
        let mut delivered = 0;
        for frame in [retransmit(), retransmit(), late_copy] {
            n.on_receive(PEER, frame, TimeMs::from_secs(1));
            delivered += deliveries(&n.drain_events(), missed_event().id());
            assert_eq!(delivered, 1, "{name}");
        }
    }
}

#[test]
fn recovery_counts_a_repeated_retransmitted_id_once() {
    let id = missed_event().id();
    for (name, algorithm) in flavors() {
        let mut n = node(algorithm, Some(RecoveryConfig::default()));
        // The peer advertises the event, so it is tracked as missing.
        n.on_receive(PEER, gossip(Vec::new(), Some(vec![id])), TimeMs::ZERO);
        n.drain_events();
        let repeated = GossipFrame::Retransmit(Retransmission {
            sender: PEER,
            events: vec![missed_event(), missed_event()],
        });
        n.on_receive(PEER, repeated, TimeMs::from_secs(1));
        let events = n.drain_events();
        let recovered = events
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Recovered { id: r, .. } if *r == id))
            .count();
        assert_eq!((deliveries(&events, id), recovered), (1, 1), "{name}");
    }
}

#[test]
fn recovery_serves_a_repeated_graft_id_once() {
    for (name, algorithm) in flavors() {
        let mut n = node(algorithm, Some(RecoveryConfig::default()));
        let own = n
            .offer(Payload::from_static(b"own"), TimeMs::ZERO)
            .admitted_id()
            .unwrap_or_else(|| panic!("{name}: offer not admitted"));
        n.drain_events();
        let graft = GossipFrame::Graft(GraftRequest {
            sender: PEER,
            ids: vec![own, own, own],
        });
        let replies = n.on_receive(PEER, graft, TimeMs::from_secs(1));
        let served: Vec<EventId> = replies
            .iter()
            .flat_map(|(_, frame)| match frame {
                GossipFrame::Retransmit(r) => r.events.iter().map(Event::id).collect(),
                _ => Vec::new(),
            })
            .collect();
        assert_eq!(served, vec![own], "{name}");
        let counted: Vec<(usize, usize)> = n
            .drain_events()
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::RecoveryServed { events, missed, .. } => Some((events, missed)),
                _ => None,
            })
            .collect();
        assert_eq!(counted, vec![(1, 0)], "{name}");
    }
}

#[test]
fn has_seen_answers_whether_a_copy_would_be_delivered() {
    for recovery in [None, Some(RecoveryConfig::default())] {
        for (name, algorithm) in flavors() {
            let name = format!("{name}, recovery {}", recovery.is_some());
            let mut n = node(algorithm, recovery.clone());
            let unseen = missed_event().id();
            assert!(!n.has_seen(unseen), "{name}: unseen id");
            let own = n
                .offer(Payload::from_static(b"own"), TimeMs::ZERO)
                .admitted_id()
                .unwrap_or_else(|| panic!("{name}: offer not admitted"));
            assert!(n.has_seen(own), "{name}: own broadcast");
            n.drain_events();
            // A copy of each id in turn: it is delivered exactly when the
            // node had not seen it, and seen afterwards either way.
            let other = EventId::new(NodeId::new(6), 3);
            for id in [own, unseen, unseen, other, own] {
                let seen = n.has_seen(id);
                let copy = Event::new(id, Payload::from_static(b"copy"));
                n.on_receive(PEER, gossip(vec![copy], None), TimeMs::from_secs(1));
                let delivered = deliveries(&n.drain_events(), id);
                assert_eq!(delivered, usize::from(!seen), "{name}: {id:?}");
                assert!(n.has_seen(id), "{name}: {id:?} delivered");
            }
        }
    }
}
