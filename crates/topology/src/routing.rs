//! The probabilistic-forwarding state machine.

use std::collections::VecDeque;

use agb_core::{
    Event, EventIdBuffer, EventList, FrameProtocol, GossipFrame, GossipMessage, OfferOutcome,
    ProtocolEvent, PurgeReason,
};
use agb_membership::{GossipMembership, MembershipDigest};
use agb_types::{bernoulli, DetRng, DurationMs, EventId, NodeId, Payload, TimeMs};

use crate::config::RoutingConfig;

/// A rumor accepted for relay, with its remaining emission budget.
#[derive(Debug, Clone)]
struct RelaySlot {
    event: Event,
    remaining: u32,
}

/// GOSSIP3-style probabilistic forwarding as a gossip protocol node.
///
/// Unlike [`LpbcastNode`](agb_core::LpbcastNode), which reships its whole
/// buffer every round until the age cap, a `RoutingNode` makes a one-time
/// relay decision per rumor — always for young rumors and low-degree
/// nodes, a coin flip otherwise — and re-emits accepted rumors for only
/// [`relay_rounds`](RoutingConfig::relay_rounds) rounds. Every received
/// rumor is still *delivered* exactly once (duplicates are suppressed by a
/// bounded id window); the gamble is only about forwarding.
///
/// Generic over the membership service `S`, which is where topology bias
/// plugs in: wrap the view in a
/// [`LocalitySampler`](agb_membership::LocalitySampler) and relays go to
/// overlay neighbours instead of uniformly random peers.
#[derive(Debug)]
pub struct RoutingNode<S> {
    id: NodeId,
    config: RoutingConfig,
    membership: S,
    /// Overlay degree, fixed at construction — the rescue-rule input.
    degree: usize,
    rng: DetRng,
    relay: VecDeque<RelaySlot>,
    ids: EventIdBuffer,
    next_seq: u64,
    round: u64,
    out_events: Vec<ProtocolEvent>,
}

impl<S: GossipMembership> RoutingNode<S> {
    /// Creates a node with `degree` overlay neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`RoutingConfig::validate`] first when handling untrusted input.
    pub fn new(
        id: NodeId,
        config: RoutingConfig,
        membership: S,
        degree: usize,
        rng: DetRng,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid RoutingConfig: {e}"));
        RoutingNode {
            id,
            ids: EventIdBuffer::new(config.max_event_ids),
            config,
            membership,
            degree,
            rng,
            relay: VecDeque::new(),
            next_seq: 0,
            round: 0,
            out_events: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// The overlay degree used by the rescue rule.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Updates the overlay degree (the Maelstrom adapter re-learns
    /// neighbourhoods from topology messages).
    pub fn set_degree(&mut self, degree: usize) {
        self.degree = degree;
    }

    /// Gossip rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The membership service.
    pub fn membership(&self) -> &S {
        &self.membership
    }

    /// Mutable membership access.
    pub fn membership_mut(&mut self) -> &mut S {
        &mut self.membership
    }

    /// The forwarding gamble for a rumor received at `age` hops: `true` in
    /// the warm-up zone (`age < sure_hops`), `true` on low-degree nodes
    /// (`degree < rescue_degree`), otherwise Bernoulli(`relay_probability`).
    pub fn relay_decision(&mut self, age: u32) -> bool {
        if age < self.config.sure_hops {
            return true;
        }
        if self.degree < self.config.rescue_degree {
            return true;
        }
        bernoulli(&mut self.rng, self.config.relay_probability)
    }

    /// Broadcasts unconditionally: assigns the next sequence number,
    /// self-delivers, and queues the rumor for relay (the origin always
    /// forwards).
    pub fn broadcast_now(&mut self, payload: Payload, now: TimeMs) -> EventId {
        let id = EventId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let event = Event::new(id, payload);
        self.ids.insert(id);
        self.out_events
            .push(ProtocolEvent::Admitted { id, at: now });
        self.out_events.push(ProtocolEvent::Delivered {
            event: event.clone(),
            from: self.id,
            at: now,
        });
        self.accept_for_relay(event, now);
        id
    }

    fn accept_for_relay(&mut self, event: Event, now: TimeMs) {
        self.relay.push_back(RelaySlot {
            event,
            remaining: self.config.relay_rounds,
        });
        self.enforce_capacity(self.config.max_relay, now);
    }

    /// Evicts the oldest rumors (highest age first, FIFO within equal ages)
    /// until the relay buffer fits `capacity`.
    fn enforce_capacity(&mut self, capacity: usize, now: TimeMs) {
        while self.relay.len() > capacity {
            let victim = self
                .relay
                .iter()
                .enumerate()
                .max_by_key(|(i, s)| (s.event.age(), *i))
                .map(|(i, _)| i)
                .expect("relay buffer non-empty");
            let slot = self.relay.remove(victim).expect("victim index valid");
            self.out_events.push(ProtocolEvent::Dropped {
                id: slot.event.id(),
                age: slot.event.age(),
                reason: PurgeReason::Overflow,
                at: now,
            });
        }
    }

    /// Ingests one gossip message (delivery plus the per-rumor relay
    /// gamble).
    pub fn receive(&mut self, from: NodeId, msg: GossipMessage, now: TimeMs) {
        self.membership
            .observe_gossip(from, &msg.membership, &mut self.rng);
        for event in msg.events.as_slice() {
            if !self.ids.insert(event.id()) {
                continue; // duplicate: already delivered
            }
            self.out_events.push(ProtocolEvent::Delivered {
                event: event.clone(),
                from,
                at: now,
            });
            if self.relay_decision(event.age()) {
                self.accept_for_relay(event.clone(), now);
            }
        }
    }

    fn emit(&mut self) -> Vec<(NodeId, GossipFrame)> {
        // One digest probes whether there is anything to say at all: a
        // routing node with an empty relay buffer and no membership news
        // stays silent — that silence is the flavor's whole overhead story.
        let digest = self.membership.make_digest(&mut self.rng);
        if self.relay.is_empty() && digest.is_empty() {
            return Vec::new();
        }
        // The digest is shared across the F copies (unlike lpbcast's
        // per-target draws): relay traffic is already rare enough that
        // re-sampling buys nothing.
        self.relay_to_sample(&digest)
    }

    /// Sends the relay buffer to `F` sampled peers, one gossip frame each,
    /// all carrying `digest`.
    fn relay_to_sample(&mut self, digest: &MembershipDigest) -> Vec<(NodeId, GossipFrame)> {
        let targets = self
            .membership
            .sample(&mut self.rng, self.config.fanout, self.id);
        if targets.is_empty() {
            return Vec::new();
        }
        let events: EventList = self
            .relay
            .iter()
            .map(|s| s.event.clone())
            .collect::<Vec<_>>()
            .into();
        targets
            .into_iter()
            .map(|t| {
                (
                    t,
                    GossipFrame::plain(GossipMessage {
                        sender: self.id,
                        sample_period: 0,
                        min_buffs: Vec::new(),
                        events: events.clone(),
                        membership: digest.clone(),
                    }),
                )
            })
            .collect()
    }
}

impl<S: GossipMembership> FrameProtocol for RoutingNode<S> {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        OfferOutcome::Admitted(self.broadcast_now(payload, now))
    }

    /// The periodic part: age increments, emission, and retirement of
    /// rumors whose relay budget ran out.
    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.round += 1;
        self.membership.on_round();
        for slot in &mut self.relay {
            slot.event.increment_age();
        }
        let out = self.emit();
        // Retire after emission: every accepted rumor is relayed at least
        // once.
        let mut retired = Vec::new();
        self.relay.retain_mut(|slot| {
            slot.remaining -= 1;
            if slot.remaining == 0 {
                retired.push((slot.event.id(), slot.event.age()));
                false
            } else {
                true
            }
        });
        for (id, age) in retired {
            self.out_events.push(ProtocolEvent::Dropped {
                id,
                age,
                reason: PurgeReason::AgeCap,
                at: now,
            });
        }
        out
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)> {
        if let GossipFrame::Gossip { msg, .. } = frame {
            self.receive(from, msg, now);
        }
        Vec::new()
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        out.append(&mut self.out_events);
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.config.max_relay = capacity.max(1);
        self.enforce_capacity(self.config.max_relay, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.config.max_relay
    }

    fn buffer_len(&self) -> usize {
        self.relay.len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        None
    }

    fn pending_len(&self) -> usize {
        0
    }

    fn gossip_period(&self) -> DurationMs {
        self.config.gossip_period
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.membership.view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let _ = now;
        // Flush whatever is still in flight and announce the departure.
        let farewell = self.membership.make_leave_digest();
        self.relay_to_sample(&farewell)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.membership.evict(node, &mut self.rng);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        use agb_profile::{MemReport, MemUsage};
        let payloads: u64 = self
            .relay
            .iter()
            .map(|s| s.event.payload().len() as u64)
            .sum();
        let relay_bytes = (self.relay.len() * std::mem::size_of::<RelaySlot>()) as u64 + payloads;
        vec![
            (
                "relay_buffer",
                MemUsage::new(relay_bytes, self.relay.len() as u64),
            ),
            ("event_ids", self.ids.mem_usage()),
            (
                "membership_view",
                MemUsage::new(
                    (self.membership.view_size() * std::mem::size_of::<NodeId>()) as u64,
                    self.membership.view_size() as u64,
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_membership::{FullView, LocalitySampler};
    use agb_types::topology::Topology;
    use rand::SeedableRng;

    fn node(id: u32, config: RoutingConfig, degree: usize) -> RoutingNode<FullView> {
        RoutingNode::new(
            NodeId::new(id),
            config,
            FullView::new(8),
            degree,
            DetRng::seed_from_u64(u64::from(id) + 500),
        )
    }

    fn msg_with(events: Vec<Event>) -> GossipMessage {
        GossipMessage {
            sender: NodeId::new(7),
            sample_period: 0,
            min_buffs: vec![],
            events: events.into(),
            membership: Default::default(),
        }
    }

    /// The events of a plain gossip frame.
    fn relayed(frame: &GossipFrame) -> &[Event] {
        match frame {
            GossipFrame::Gossip { msg, ihave: None } => msg.events.as_slice(),
            other => panic!("expected a plain gossip frame, got {other:?}"),
        }
    }

    #[test]
    fn origin_relays_own_rumor_then_retires_it() {
        let mut cfg = RoutingConfig::default();
        cfg.relay_rounds = 2;
        let mut n = node(0, cfg, 8);
        n.broadcast_now(Payload::from_static(b"x"), TimeMs::ZERO);
        assert_eq!(n.buffer_len(), 1);
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(out.len(), 4, "fanout copies");
        assert_eq!(relayed(&out[0].1).len(), 1);
        assert_eq!(relayed(&out[0].1)[0].age(), 1);
        // Second emission, then the budget is spent.
        assert_eq!(n.on_round(TimeMs::from_secs(2)).len(), 4);
        assert_eq!(n.buffer_len(), 0);
        let out = n.on_round(TimeMs::from_secs(3));
        assert!(out.is_empty(), "empty relay buffer stays silent");
        let drops = n
            .drain_events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    ProtocolEvent::Dropped {
                        reason: PurgeReason::AgeCap,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(drops, 1);
    }

    #[test]
    fn young_rumors_always_relay() {
        let mut cfg = RoutingConfig::default();
        cfg.relay_probability = 0.0;
        cfg.sure_hops = 3;
        let mut n = node(1, cfg, 8);
        let e = Event::with_age(EventId::new(NodeId::new(2), 0), 2, Payload::new());
        n.receive(NodeId::new(2), msg_with(vec![e]), TimeMs::ZERO);
        assert_eq!(n.buffer_len(), 1, "age 2 < sure_hops 3 must relay");
        let old = Event::with_age(EventId::new(NodeId::new(2), 1), 3, Payload::new());
        n.receive(NodeId::new(2), msg_with(vec![old]), TimeMs::ZERO);
        assert_eq!(n.buffer_len(), 1, "age 3 with p=0 must not relay");
    }

    #[test]
    fn low_degree_nodes_always_relay() {
        let mut cfg = RoutingConfig::default();
        cfg.relay_probability = 0.0;
        cfg.sure_hops = 0;
        cfg.rescue_degree = 4;
        let mut sparse = node(1, cfg, 3);
        let e = Event::with_age(EventId::new(NodeId::new(2), 0), 9, Payload::new());
        sparse.receive(NodeId::new(2), msg_with(vec![e.clone()]), TimeMs::ZERO);
        assert_eq!(sparse.buffer_len(), 1, "degree 3 < 4 rescues the rumor");
        let mut dense = node(3, cfg, 4);
        dense.receive(NodeId::new(2), msg_with(vec![e]), TimeMs::ZERO);
        assert_eq!(dense.buffer_len(), 0, "degree 4 with p=0 drops it");
    }

    #[test]
    fn duplicates_deliver_once_and_never_relay_twice() {
        let mut n = node(1, RoutingConfig::default(), 8);
        let e = Event::with_age(EventId::new(NodeId::new(2), 0), 0, Payload::new());
        n.receive(NodeId::new(2), msg_with(vec![e.clone()]), TimeMs::ZERO);
        n.receive(NodeId::new(3), msg_with(vec![e]), TimeMs::ZERO);
        let delivered = n
            .drain_events()
            .into_iter()
            .filter(|ev| matches!(ev, ProtocolEvent::Delivered { .. }))
            .count();
        assert_eq!(delivered, 1);
        assert_eq!(n.buffer_len(), 1);
    }

    #[test]
    fn overflow_evicts_oldest_first() {
        let mut cfg = RoutingConfig::default();
        cfg.max_relay = 2;
        cfg.sure_hops = 10; // accept everything
        let mut n = node(1, cfg, 8);
        for (seq, age) in [(0u64, 5u32), (1, 1), (2, 0)] {
            let e = Event::with_age(EventId::new(NodeId::new(2), seq), age, Payload::new());
            n.receive(NodeId::new(2), msg_with(vec![e]), TimeMs::ZERO);
        }
        assert_eq!(n.buffer_len(), 2);
        let dropped: Vec<u32> = n
            .drain_events()
            .into_iter()
            .filter_map(|ev| match ev {
                ProtocolEvent::Dropped {
                    age,
                    reason: PurgeReason::Overflow,
                    ..
                } => Some(age),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, vec![5], "highest age evicted");
    }

    #[test]
    fn composes_with_locality_sampler_and_stays_on_the_overlay() {
        let topo = Topology::grid(3, 3);
        let me = NodeId::new(4);
        let sampler = LocalitySampler::new(FullView::new(9), topo.neighbors(me).to_vec(), 0.0);
        let mut n = RoutingNode::new(
            me,
            RoutingConfig::default(),
            sampler,
            topo.degree(me),
            DetRng::seed_from_u64(3),
        );
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        for (to, _) in n.on_round(TimeMs::from_secs(1)) {
            assert!(topo.neighbors(me).contains(&to));
        }
    }

    #[test]
    fn composes_with_recovery_wrapper() {
        use agb_recovery::{RecoverableNode, RecoveryConfig};
        let inner = node(0, RoutingConfig::default(), 8);
        let mut n = RecoverableNode::new(inner, RecoveryConfig::default());
        n.offer(Payload::new(), TimeMs::ZERO);
        let frames = n.on_round(TimeMs::from_secs(1));
        assert_eq!(frames.len(), 4);
        // Each relay frame keeps its rumor and gains the wrapper's digest.
        for (_, frame) in &frames {
            let GossipFrame::Gossip {
                msg,
                ihave: Some(digest),
            } = frame
            else {
                panic!("expected a gossip frame with a digest, got {frame:?}");
            };
            assert_eq!(msg.events.len(), 1);
            assert_eq!(digest.ids, vec![EventId::new(NodeId::new(0), 0)]);
        }
    }

    #[test]
    fn set_buffer_capacity_purges_and_floors_at_one() {
        let mut cfg = RoutingConfig::default();
        cfg.sure_hops = 10;
        let mut n = node(1, cfg, 8);
        for seq in 0..5u64 {
            let e = Event::with_age(EventId::new(NodeId::new(2), seq), 0, Payload::new());
            n.receive(NodeId::new(2), msg_with(vec![e]), TimeMs::ZERO);
        }
        n.set_buffer_capacity(2, TimeMs::from_secs(1));
        assert_eq!(n.buffer_len(), 2);
        assert_eq!(n.buffer_capacity(), 2);
        n.set_buffer_capacity(0, TimeMs::from_secs(1));
        assert_eq!(n.buffer_capacity(), 1);
    }

    #[test]
    fn leave_flushes_relay_buffer() {
        let mut n = node(0, RoutingConfig::default(), 8);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        let out = n.leave(TimeMs::from_secs(1));
        assert_eq!(out.len(), 4);
        for (_, frame) in &out {
            assert_eq!(relayed(frame).len(), 1);
        }
    }

    #[test]
    fn accessors_and_trait_plumbing() {
        let mut n = node(0, RoutingConfig::default(), 5);
        assert_eq!(n.node_id(), NodeId::new(0));
        assert_eq!(n.degree(), 5);
        n.set_degree(2);
        assert_eq!(n.degree(), 2);
        assert_eq!(n.allowed_rate(), None);
        assert_eq!(n.pending_len(), 0);
        assert_eq!(n.gossip_period(), DurationMs::from_secs(1));
        assert_eq!(n.membership_view().len(), 8);
        assert!(matches!(
            n.offer(Payload::new(), TimeMs::ZERO),
            OfferOutcome::Admitted(_)
        ));
        assert_eq!(n.round(), 0);
        assert_eq!(n.config().fanout, 4);
        assert_eq!(n.membership().members().len(), 8);
        n.membership_mut();
        n.evict_peer(NodeId::new(3));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut n = RoutingNode::new(
                NodeId::new(0),
                RoutingConfig::default(),
                FullView::new(16),
                8,
                DetRng::seed_from_u64(seed),
            );
            let mut log = Vec::new();
            for s in 0..20u64 {
                let e = Event::with_age(
                    EventId::new(NodeId::new(1), s),
                    (s % 6) as u32,
                    Payload::new(),
                );
                n.receive(NodeId::new(1), msg_with(vec![e]), TimeMs::from_secs(s));
                for (to, frame) in n.on_round(TimeMs::from_secs(s + 1)) {
                    log.push((to, relayed(&frame).len()));
                }
            }
            log
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
