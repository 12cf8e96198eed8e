//! The frame contract every flavor keeps, checked on nodes built the way
//! the simulator builds them: a plain node ignores the recovery plane's
//! frames, and the recovery wrapper delivers a retransmitted event exactly
//! once whatever flavor it wraps.

use agb_core::{
    Event, FrameProtocol, GossipFrame, GossipMessage, GraftRequest, ProtocolEvent, Retransmission,
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
    let gossip_copy = GossipFrame::plain(GossipMessage {
        sender: PEER,
        sample_period: 0,
        min_buffs: Vec::new(),
        events: vec![missed_event()].into(),
        membership: Default::default(),
    });
    for (name, algorithm) in flavors() {
        let mut n = node(algorithm, Some(RecoveryConfig::default()));
        // The first retransmission delivers; neither a second one nor a
        // late gossip copy delivers again.
        let mut delivered = 0;
        for frame in [retransmit(), retransmit(), gossip_copy.clone()] {
            n.on_receive(PEER, frame, TimeMs::from_secs(1));
            delivered += n
                .drain_events()
                .iter()
                .filter(|e| {
                    matches!(e, ProtocolEvent::Delivered { event, .. }
                        if event.id() == missed_event().id())
                })
                .count();
            assert_eq!(delivered, 1, "{name}");
        }
    }
}
