//! The advertisement contract of the recovery layer: every id a node
//! names in a round's `IHave` digest is one a `Graft` sent that round is
//! served, whatever the digest size, the cache bounds and the node's
//! history of offers, receives and rounds. Beneath it, the retransmission
//! cache serves, advertises and forgets exactly as a plain `Vec` does.

use agb_core::{
    Event, FrameProtocol, GossipConfig, GossipFrame, GossipMessage, GraftRequest, LpbcastNode,
    ProtocolEvent,
};
use agb_membership::FullView;
use agb_recovery::{RecoverableNode, RecoveryConfig, RetransmissionCache};
use agb_types::{DetRng, DurationMs, EventId, NodeId, Payload, TimeMs};
use proptest::prelude::*;
use rand::SeedableRng;

const PEER: NodeId = NodeId::new(1);
const REQUESTER: NodeId = NodeId::new(2);

/// A gossip frame from `PEER` carrying `count` events nobody has sent
/// before, numbered from `*next`.
fn fresh_gossip(next: &mut u64, count: usize) -> GossipFrame {
    let events: Vec<Event> = (0..count)
        .map(|_| {
            let origin = NodeId::new(3 + (*next % 3) as u32);
            let id = EventId::new(origin, *next / 3);
            *next += 1;
            Event::new(id, Payload::from_static(b"fresh"))
        })
        .collect();
    GossipFrame::plain(GossipMessage {
        sender: PEER,
        sample_period: 0,
        min_buffs: Vec::new(),
        events: events.into(),
        membership: Default::default(),
    })
}

/// The digest piggybacked on a round's gossip frames.
fn digest_of(out: &[(NodeId, GossipFrame)]) -> Vec<EventId> {
    out.iter()
        .find_map(|(_, frame)| match frame {
            GossipFrame::Gossip { ihave: Some(d), .. } => Some(d.ids.clone()),
            _ => None,
        })
        .expect("a round emits gossip frames carrying a digest")
}

/// The reference retransmission cache, on a plain `Vec` of `(event,
/// round cached)`, oldest first.
struct ModelCache {
    capacity: usize,
    max_rounds: u64,
    entries: Vec<(Event, u64)>,
    cursor: usize,
    round: u64,
}

impl ModelCache {
    /// A duplicate id is a no-op; a full cache drops its oldest entry.
    fn insert(&mut self, event: Event) {
        if self.capacity == 0 || self.get(event.id()).is_some() {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((event, self.round));
    }

    fn get(&self, id: EventId) -> Option<&Event> {
        self.entries.iter().map(|(e, _)| e).find(|e| e.id() == id)
    }

    /// The next `n` ids from the cursor, wrapping around.
    fn advertise(&mut self, n: usize) -> Vec<EventId> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        let start = self.cursor % self.entries.len();
        let ids: Vec<EventId> = self
            .entries
            .iter()
            .cycle()
            .skip(start)
            .take(n.min(self.entries.len()))
            .map(|(e, _)| e.id())
            .collect();
        self.cursor = (start + ids.len()) % self.entries.len();
        ids
    }

    /// Every entry more than `max_rounds` rounds old goes.
    fn on_round(&mut self) {
        self.round += 1;
        let (round, max_rounds) = (self.round, self.max_rounds);
        self.entries.retain(|&(_, at)| round - at <= max_rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cache serves, advertises and forgets exactly as the model:
    /// ops are `(kind, origin, seq, n)` over a pool of 24 ids, where kind
    /// 0 inserts, 1 runs a round, 2 advertises `n` ids and 3 looks up.
    /// Each insert carries its op index as the age, so a lookup shows
    /// which copy of a repeated id the cache kept.
    #[test]
    fn cache_matches_vec_model(
        capacity in 0usize..40,
        max_rounds in 1u32..8,
        ops in collection::vec((0u8..4, 0u32..2, 0u64..12, 0usize..10), 0..301),
    ) {
        let mut cache = RetransmissionCache::new(capacity, max_rounds);
        let mut model = ModelCache {
            capacity,
            max_rounds: u64::from(max_rounds),
            entries: Vec::new(),
            cursor: 0,
            round: 0,
        };
        for (i, (kind, origin, seq, n)) in ops.into_iter().enumerate() {
            let id = EventId::new(NodeId::new(origin), seq);
            match kind {
                0 => {
                    let event = Event::with_age(id, i as u32, Payload::new());
                    cache.insert(event.clone());
                    model.insert(event);
                }
                1 => {
                    cache.on_round();
                    model.on_round();
                }
                2 => prop_assert_eq!(cache.advertise(n), model.advertise(n)),
                _ => {
                    let served = |e: &Event| (e.id(), e.age());
                    prop_assert_eq!(cache.get(id).map(served), model.get(id).map(served));
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
        }
    }

    /// Steps are `(kind, count)`: kind 0 offers `count` payloads, kind 1
    /// receives a frame of `count` fresh events, kind 2 runs a round and
    /// grafts that round's whole digest back.
    #[test]
    fn every_advertised_id_is_servable(
        digest_size in 1usize..24,
        cache_capacity in 1usize..40,
        cache_rounds in 1u32..8,
        steps in collection::vec((0u8..3, 1usize..6), 1..150),
    ) {
        let mut config = RecoveryConfig::default();
        config.digest_size = digest_size;
        config.cache_capacity = cache_capacity;
        config.cache_rounds = cache_rounds;
        config.serve_budget_per_round = digest_size;
        let inner = LpbcastNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            FullView::new(8),
            DetRng::seed_from_u64(1),
        );
        let mut node = RecoverableNode::new(inner, config);
        let mut next = 0u64;
        let mut now = TimeMs::ZERO;
        for (kind, count) in steps {
            match kind {
                0 => {
                    for _ in 0..count {
                        node.offer(Payload::from_static(b"own"), now);
                    }
                }
                1 => {
                    node.on_receive(PEER, fresh_gossip(&mut next, count), now);
                }
                _ => {
                    now += DurationMs::from_secs(1);
                    let digest = digest_of(&node.on_round(now));
                    prop_assert!(digest.len() <= digest_size);
                    node.drain_events();
                    if digest.is_empty() {
                        continue;
                    }
                    let graft = GossipFrame::Graft(GraftRequest {
                        sender: REQUESTER,
                        ids: digest.clone(),
                    });
                    let replies = node.on_receive(REQUESTER, graft, now);
                    prop_assert_eq!(replies.len(), 1);
                    let GossipFrame::Retransmit(reply) = &replies[0].1 else {
                        panic!("a graft is answered with a retransmission");
                    };
                    let served: Vec<EventId> = reply.events.iter().map(Event::id).collect();
                    prop_assert_eq!(&served, &digest);
                    let missed: Vec<usize> = node
                        .drain_events()
                        .iter()
                        .filter_map(|e| match e {
                            ProtocolEvent::RecoveryServed { missed, .. } => Some(*missed),
                            _ => None,
                        })
                        .collect();
                    prop_assert_eq!(missed, vec![0]);
                }
            }
        }
    }
}
