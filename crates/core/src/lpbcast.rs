//! The baseline gossip broadcast algorithm — Figure 1 (lpbcast).
//!
//! Every received event is buffered and delivered; every `T` ms each node
//! increments the ages of its buffered events, garbage-collects events past
//! the age cap `k`, and forwards its entire buffer to `F` randomly selected
//! peers. Buffer overflow evicts the highest-age events first. Duplicate
//! delivery is suppressed with a bounded `eventIds` digest.
//!
//! Optionally, a *static* token bucket (Figure 3) throttles the local input
//! rate — the naive a-priori calibration whose shortcomings motivate the
//! adaptive mechanism.

use std::collections::VecDeque;

use agb_membership::{GossipMembership, MembershipDigest};
use agb_types::{DetRng, DurationMs, EventId, NodeId, Payload, TimeMs};

use crate::buffer::{EventBuffer, PurgedEvent};
use crate::config::GossipConfig;
use crate::event::Event;
use crate::header::{GossipFrame, GossipMessage};
use crate::ids::EventIdBuffer;
use crate::token_bucket::TokenBucket;
use crate::traits::{FrameProtocol, OfferOutcome, ProtocolEvent};

/// The lpbcast state machine of Figure 1.
///
/// Generic over the membership service `S` (full or partial view).
///
/// # Example
///
/// ```
/// use agb_core::{FrameProtocol, GossipConfig, LpbcastNode};
/// use agb_membership::FullView;
/// use agb_types::{DetRng, NodeId, Payload, TimeMs};
/// use rand::SeedableRng;
///
/// let mut node = LpbcastNode::new(
///     NodeId::new(0),
///     GossipConfig::default(),
///     FullView::new(10),
///     DetRng::seed_from_u64(1),
/// );
/// node.offer(Payload::from_static(b"hello"), TimeMs::ZERO);
/// let out = node.on_round(TimeMs::from_secs(1));
/// assert_eq!(out.len(), 4); // fanout
/// ```
#[derive(Debug)]
pub struct LpbcastNode<S> {
    id: NodeId,
    config: GossipConfig,
    membership: S,
    rng: DetRng,
    events: EventBuffer,
    ids: EventIdBuffer,
    next_seq: u64,
    bucket: Option<TokenBucket>,
    pending: VecDeque<Payload>,
    out_events: Vec<ProtocolEvent>,
}

impl<S: GossipMembership> LpbcastNode<S> {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; construct configs through
    /// [`GossipConfig::validate`] first when handling untrusted input.
    pub fn new(id: NodeId, config: GossipConfig, membership: S, rng: DetRng) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid GossipConfig: {e}"));
        let bucket = config
            .static_rate
            .map(|r| TokenBucket::new(r, (r * 2.0).max(2.0), TimeMs::ZERO));
        LpbcastNode {
            id,
            events: EventBuffer::new(config.max_events),
            ids: EventIdBuffer::new(config.max_event_ids),
            config,
            membership,
            rng,
            next_seq: 0,
            bucket,
            pending: VecDeque::new(),
            out_events: Vec::new(),
        }
    }

    /// Immutable view of the event buffer (used by the congestion
    /// estimator's would-drop scan).
    pub fn buffer(&self) -> &EventBuffer {
        &self.events
    }

    /// The membership service.
    pub fn membership(&self) -> &S {
        &self.membership
    }

    /// Installs `bucket` as the throttle on local offers: the adaptive
    /// layer retunes this bucket's rate, and offers queue behind it here.
    pub(crate) fn install_bucket(&mut self, bucket: TokenBucket) {
        self.bucket = Some(bucket);
    }

    /// The throttle on local offers, if any.
    pub(crate) fn bucket_mut(&mut self) -> Option<&mut TokenBucket> {
        self.bucket.as_mut()
    }

    /// Broadcasts unconditionally (no throttle): assigns the next sequence
    /// number, buffers, self-delivers.
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
        let purged = self.events.insert(event);
        self.record_purges(purged, now);
        id
    }

    fn record_purges(&mut self, purged: impl IntoIterator<Item = PurgedEvent>, now: TimeMs) {
        for p in purged {
            self.out_events.push(ProtocolEvent::Dropped {
                id: p.id,
                age: p.age,
                reason: p.reason,
                at: now,
            });
        }
    }

    /// Ingests a gossip message (Figure 1 receive handler).
    pub fn receive(&mut self, from: NodeId, msg: GossipMessage, now: TimeMs) {
        self.membership
            .observe_gossip(from, &msg.membership, &mut self.rng);
        for event in &msg.events {
            // Most circulating copies are duplicates of events still
            // buffered: probe the small, hot buffer map first, and
            // consult the (much larger) seen-id set only on a miss.
            // Identical to the id-set-first order whenever the id
            // window outlives buffered events (all shipped configs:
            // max_event_ids >> max_events x age_cap). In the degenerate
            // case where FIFO id eviction outpaces the buffer, this
            // order additionally suppresses a redundant re-delivery of
            // an event that is demonstrably still buffered.
            if self.events.merge_age(event.id(), event.age()) {
                continue;
            }
            if self.ids.insert(event.id()) {
                self.out_events.push(ProtocolEvent::Delivered {
                    event: event.clone(),
                    from,
                    at: now,
                });
                let purged = self.events.insert(event.clone());
                self.record_purges(purged, now);
            }
        }
    }

    /// Broadcasts queued offers while the throttle has tokens (offers
    /// queue only behind a throttle).
    pub(crate) fn admit_pending(&mut self, now: TimeMs) {
        while !self.pending.is_empty() && self.bucket.as_mut().is_some_and(|b| b.try_acquire(now)) {
            let payload = self.pending.pop_front().expect("non-empty");
            self.broadcast_now(payload, now);
        }
    }

    /// Sends one gossip frame to each of `F` sampled peers; all frames
    /// share one buffer snapshot, and `digest` supplies each frame's
    /// membership digest.
    fn gossip_to_sample(
        &mut self,
        mut digest: impl FnMut(&S, &mut DetRng) -> MembershipDigest,
    ) -> Vec<(NodeId, GossipFrame)> {
        let targets = self
            .membership
            .sample(&mut self.rng, self.config.fanout, self.id);
        if targets.is_empty() {
            return Vec::new();
        }
        let events = self.events.snapshot_shared();
        targets
            .into_iter()
            .map(|t| {
                let membership = digest(&self.membership, &mut self.rng);
                (
                    t,
                    GossipFrame::plain(GossipMessage {
                        sender: self.id,
                        sample_period: 0,
                        min_buffs: Vec::new(),
                        events: events.clone(),
                        membership,
                    }),
                )
            })
            .collect()
    }
}

impl<S: GossipMembership> FrameProtocol for LpbcastNode<S> {
    fn node_id(&self) -> NodeId {
        self.id
    }

    /// The two probes [`receive`](Self::receive) makes: the id history,
    /// and the buffer, which can outlive an evicted id.
    fn has_seen(&self, id: EventId) -> bool {
        self.ids.contains(id) || self.events.contains(id)
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        if self.bucket.is_none() {
            return OfferOutcome::Admitted(self.broadcast_now(payload, now));
        }
        // Tokens accrue continuously: drain older queued messages first so
        // the queue empties at the static rate, not once per round.
        self.admit_pending(now);
        if self.pending.is_empty()
            && self
                .bucket
                .as_mut()
                .expect("bucket present")
                .try_acquire(now)
        {
            OfferOutcome::Admitted(self.broadcast_now(payload, now))
        } else {
            self.pending.push_back(payload);
            OfferOutcome::Queued
        }
    }

    /// The periodic part of Figure 1: age updates, age-cap garbage
    /// collection, admission of throttled messages, and gossip emission.
    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.membership.on_round();
        self.events.increment_ages();
        let expired = self.events.purge_age_cap(self.config.age_cap);
        self.record_purges(expired, now);
        self.admit_pending(now);
        self.gossip_to_sample(|membership, rng| membership.make_digest(rng))
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

    fn events(&mut self) -> &mut Vec<ProtocolEvent> {
        &mut self.out_events
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        let purged = self.events.set_capacity(capacity);
        self.record_purges(purged, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.events.capacity()
    }

    fn buffer_len(&self) -> usize {
        self.events.len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.config.static_rate
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.config.gossip_period
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.membership.view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let _ = now;
        // The farewell flushes the remaining buffer (a leaver must not take
        // undisseminated events with it) and carries the node's own
        // TTL-bounded unsubscription instead of the usual digest;
        // receivers drop the leaver from their views and keep propagating
        // the removal until the rumor's TTL runs out.
        let farewell = self.membership.make_leave_digest();
        self.gossip_to_sample(|_, _| farewell.clone())
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.membership.evict(node, &mut self.rng);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        use agb_profile::{MemReport, MemUsage};
        let pending_bytes: u64 = self
            .pending
            .iter()
            .map(|p| (p.len() + std::mem::size_of::<Payload>()) as u64)
            .sum();
        vec![
            ("event_buffer", self.events.mem_usage()),
            ("event_ids", self.ids.mem_usage()),
            (
                "pending_offers",
                MemUsage::new(pending_bytes, self.pending.len() as u64),
            ),
            ("membership_view", self.membership.mem_usage()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::PurgeReason;
    use agb_membership::FullView;
    use rand::SeedableRng;

    fn node(id: u32, config: GossipConfig) -> LpbcastNode<FullView> {
        LpbcastNode::new(
            NodeId::new(id),
            config,
            FullView::new(8),
            DetRng::seed_from_u64(u64::from(id) + 100),
        )
    }

    fn default_node(id: u32) -> LpbcastNode<FullView> {
        node(id, GossipConfig::default())
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

    #[test]
    fn broadcast_self_delivers_and_buffers() {
        let mut n = default_node(0);
        let id = n.broadcast_now(Payload::from_static(b"x"), TimeMs::ZERO);
        assert_eq!(id, EventId::new(NodeId::new(0), 0));
        assert_eq!(n.buffer_len(), 1);
        let events = n.drain_events();
        assert!(matches!(events[0], ProtocolEvent::Admitted { .. }));
        assert!(matches!(
            &events[1],
            ProtocolEvent::Delivered { event, from, .. }
                if event.id() == id && *from == NodeId::new(0)
        ));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut n = default_node(0);
        let a = n.broadcast_now(Payload::new(), TimeMs::ZERO);
        let b = n.broadcast_now(Payload::new(), TimeMs::ZERO);
        assert_eq!(a.seq() + 1, b.seq());
    }

    #[test]
    fn round_emits_fanout_messages_with_full_buffer() {
        let mut n = default_node(0);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(out.len(), 4);
        for (target, frame) in &out {
            let msg = frame.expect_plain_gossip();
            assert_ne!(*target, NodeId::new(0));
            assert_eq!(msg.events.len(), 2);
            assert_eq!(msg.sender, NodeId::new(0));
            assert!(!msg.is_adaptive());
        }
    }

    #[test]
    fn ages_increment_each_round() {
        let mut n = default_node(0);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        n.on_round(TimeMs::from_secs(1));
        n.on_round(TimeMs::from_secs(2));
        let out = n.on_round(TimeMs::from_secs(3));
        assert_eq!(out[0].1.expect_plain_gossip().events[0].age(), 3);
    }

    #[test]
    fn receive_delivers_new_suppresses_duplicates() {
        let mut n = default_node(1);
        let e = Event::with_age(EventId::new(NodeId::new(2), 0), 2, Payload::new());
        n.receive(NodeId::new(2), msg_with(vec![e.clone()]), TimeMs::ZERO);
        // Same event again: duplicate, age merged.
        let mut older = e.clone();
        older.merge_age(5);
        n.receive(NodeId::new(3), msg_with(vec![older]), TimeMs::ZERO);
        assert_eq!(n.buffer_len(), 1);
        let delivered: Vec<_> = n
            .drain_events()
            .into_iter()
            .filter(|ev| matches!(ev, ProtocolEvent::Delivered { .. }))
            .collect();
        assert_eq!(delivered.len(), 1, "duplicate must not be re-delivered");
        // Age was max-merged into the buffered copy.
        assert_eq!(n.buffer().snapshot_shared()[0].age(), 5);
    }

    #[test]
    fn age_cap_garbage_collects() {
        let mut cfg = GossipConfig::default();
        cfg.age_cap = 2;
        let mut n = node(0, cfg);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        n.on_round(TimeMs::from_secs(1)); // age 1
        n.on_round(TimeMs::from_secs(2)); // age 2
        assert_eq!(n.buffer_len(), 1);
        n.on_round(TimeMs::from_secs(3)); // age 3 > cap: purged
        assert_eq!(n.buffer_len(), 0);
        let drops: Vec<_> = n
            .drain_events()
            .into_iter()
            .filter_map(|ev| match ev {
                ProtocolEvent::Dropped { reason, age, .. } => Some((reason, age)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(PurgeReason::AgeCap, 3)]);
    }

    #[test]
    fn overflow_purges_and_reports() {
        let mut cfg = GossipConfig::default();
        cfg.max_events = 2;
        cfg.max_event_ids = 100;
        let mut n = node(0, cfg);
        // Two old events, then a fresh one overflows the buffer.
        n.receive(
            NodeId::new(2),
            msg_with(vec![
                Event::with_age(EventId::new(NodeId::new(2), 0), 6, Payload::new()),
                Event::with_age(EventId::new(NodeId::new(2), 1), 3, Payload::new()),
            ]),
            TimeMs::ZERO,
        );
        n.receive(
            NodeId::new(3),
            msg_with(vec![Event::with_age(
                EventId::new(NodeId::new(3), 0),
                0,
                Payload::new(),
            )]),
            TimeMs::ZERO,
        );
        let drops: Vec<_> = n
            .drain_events()
            .into_iter()
            .filter_map(|ev| match ev {
                ProtocolEvent::Dropped { age, reason, .. } => Some((age, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(6, PurgeReason::Overflow)]);
    }

    #[test]
    fn drain_discards_the_purge_backlog() {
        // Purges are reported only as `Dropped` events on the one queue:
        // the drain that hands them out leaves nothing behind.
        let mut cfg = GossipConfig::default();
        cfg.age_cap = 2;
        let mut n = node(0, cfg);
        let mut events = Vec::new();
        for s in 1..=200 {
            let now = TimeMs::from_secs(s);
            n.offer(Payload::new(), now);
            n.on_round(now);
            n.drain_events_into(&mut events);
            assert!(n.events().is_empty());
        }
        let dropped = events
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Dropped { .. }))
            .count();
        assert!(dropped > 190, "{dropped} purges reported");
    }

    #[test]
    fn static_rate_throttles_offers() {
        let mut cfg = GossipConfig::default();
        cfg.static_rate = Some(1.0); // 1 msg/s, bucket depth 2
        let mut n = node(0, cfg);
        // Bucket starts full (2 tokens).
        assert!(matches!(
            n.offer(Payload::new(), TimeMs::ZERO),
            OfferOutcome::Admitted(_)
        ));
        assert!(matches!(
            n.offer(Payload::new(), TimeMs::ZERO),
            OfferOutcome::Admitted(_)
        ));
        assert_eq!(n.offer(Payload::new(), TimeMs::ZERO), OfferOutcome::Queued);
        assert_eq!(n.pending_len(), 1);
        // One second later the round admits the queued message.
        n.on_round(TimeMs::from_secs(1));
        assert_eq!(n.pending_len(), 0);
        let admitted = n
            .drain_events()
            .into_iter()
            .filter(|e| matches!(e, ProtocolEvent::Admitted { .. }))
            .count();
        assert_eq!(admitted, 3);
    }

    #[test]
    fn unthrottled_offer_admits_immediately() {
        let mut n = default_node(0);
        for _ in 0..100 {
            assert!(matches!(
                n.offer(Payload::new(), TimeMs::ZERO),
                OfferOutcome::Admitted(_)
            ));
        }
        assert_eq!(n.pending_len(), 0);
        assert_eq!(n.allowed_rate(), None);
    }

    #[test]
    fn ordering_preserved_behind_throttle() {
        let mut cfg = GossipConfig::default();
        cfg.static_rate = Some(2.0);
        let mut n = node(0, cfg);
        let mut expected = Vec::new();
        for i in 0..10u8 {
            let payload = Payload::copy_from_slice(&[i]);
            expected.push(payload.clone());
            n.offer(payload, TimeMs::ZERO);
        }
        for s in 1..10 {
            n.on_round(TimeMs::from_secs(s));
        }
        let admitted: Vec<Payload> = n
            .drain_events()
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::Delivered { event, .. } => Some(event.payload().clone()),
                _ => None,
            })
            .collect();
        assert_eq!(admitted, expected);
    }

    #[test]
    fn set_buffer_capacity_purges_excess() {
        let mut n = default_node(0);
        for _ in 0..10 {
            n.broadcast_now(Payload::new(), TimeMs::ZERO);
        }
        n.set_buffer_capacity(4, TimeMs::from_secs(1));
        assert_eq!(n.buffer_capacity(), 4);
        assert_eq!(n.buffer_len(), 4);
        let drops = n
            .drain_events()
            .into_iter()
            .filter(|e| matches!(e, ProtocolEvent::Dropped { .. }))
            .count();
        assert_eq!(drops, 6);
    }

    #[test]
    fn emit_samples_distinct_targets() {
        let mut n = default_node(0);
        n.broadcast_now(Payload::new(), TimeMs::ZERO);
        for _ in 0..20 {
            let out = n.on_round(TimeMs::from_secs(1));
            let mut targets: Vec<NodeId> = out.iter().map(|(t, _)| *t).collect();
            targets.sort();
            targets.dedup();
            assert_eq!(targets.len(), 4);
        }
    }

    #[test]
    fn leave_flushes_buffer_and_carries_own_unsubscription() {
        use agb_membership::{PartialView, PartialViewConfig};
        let mut rng = DetRng::seed_from_u64(9);
        let view = PartialView::with_initial_peers(
            NodeId::new(0),
            PartialViewConfig::default(),
            (1..=6u32).map(NodeId::new),
            &mut rng,
        );
        let mut n = LpbcastNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            view,
            DetRng::seed_from_u64(1),
        );
        n.broadcast_now(Payload::from_static(b"x"), TimeMs::ZERO);
        let out = n.leave(TimeMs::from_secs(1));
        assert_eq!(out.len(), 4, "farewell goes to F peers");
        for (_, frame) in &out {
            let msg = frame.expect_plain_gossip();
            assert_eq!(msg.events.len(), 1, "buffer flushed into farewell");
            assert_eq!(msg.membership.unsubs.len(), 1);
            assert_eq!(msg.membership.unsubs[0].node, NodeId::new(0));
            assert!(msg.membership.unsubs[0].ttl > 0);
            assert!(msg.membership.subs.is_empty());
        }
    }

    #[test]
    fn evict_peer_removes_from_partial_view() {
        use agb_membership::{PartialView, PartialViewConfig};
        let mut rng = DetRng::seed_from_u64(9);
        let view = PartialView::with_initial_peers(
            NodeId::new(0),
            PartialViewConfig::default(),
            [NodeId::new(1), NodeId::new(2)],
            &mut rng,
        );
        let mut n = LpbcastNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            view,
            DetRng::seed_from_u64(1),
        );
        assert!(n.membership_view().contains(&NodeId::new(2)));
        n.evict_peer(NodeId::new(2));
        assert!(!n.membership_view().contains(&NodeId::new(2)));
        // Full views are static: eviction is a no-op there.
        let mut full = default_node(0);
        full.evict_peer(NodeId::new(2));
        assert!(full.membership_view().contains(&NodeId::new(2)));
    }

    #[test]
    fn membership_row_is_the_views_own_report() {
        // A partial view also holds its subscription buffer: the row must
        // count it, not just `view_size` node ids.
        use agb_membership::{PartialView, PartialViewConfig};
        use agb_profile::{MemReport, MemUsage};
        let view = PartialView::new(NodeId::new(0), PartialViewConfig::default());
        let mut n = LpbcastNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            view,
            DetRng::seed_from_u64(1),
        );
        let mut msg = msg_with(Vec::new());
        msg.membership.subs = vec![NodeId::new(2), NodeId::new(3)];
        n.receive(NodeId::new(7), msg, TimeMs::ZERO);
        let row = n
            .mem_breakdown()
            .into_iter()
            .find(|(label, _)| *label == "membership_view")
            .map(|(_, usage)| usage);
        assert_eq!(row, Some(n.membership().mem_usage()));
        assert_eq!(row, Some(MemUsage::new(20, 5)));
    }

    #[test]
    fn gossip_period_accessor() {
        let n = default_node(0);
        assert_eq!(n.gossip_period(), DurationMs::from_secs(1));
        assert_eq!(n.node_id(), NodeId::new(0));
        assert_eq!(n.buffer_capacity(), 90);
    }
}
