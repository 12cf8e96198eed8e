//! The recovery wrapper: any plain [`FrameProtocol`] node plus pull-based
//! anti-entropy.

use std::collections::VecDeque;

use agb_core::{
    Event, EventIdBuffer, FrameProtocol, GossipFrame, GossipMessage, GraftRequest, IHaveDigest,
    OfferOutcome, ProtocolEvent, Retransmission,
};
use agb_membership::MembershipDigest;
use agb_types::{DurationMs, EventId, NodeId, Payload, TimeMs};

use crate::cache::RetransmissionCache;
use crate::config::RecoveryConfig;
use crate::missing::MissingTracker;

/// A gossip node composed with the pull-based recovery layer.
///
/// Wraps any plain [`FrameProtocol`] — `LpbcastNode`, `AdaptiveNode` and
/// `RoutingNode` alike, which answer recovery frames with nothing — and
/// implements the same trait with the pull plane added:
///
/// * every outgoing gossip frame piggybacks an [`IHaveDigest`] drawn
///   from a rotating window of recently-seen event ids (reusing
///   [`EventIdBuffer`] for the seen set);
/// * incoming digests are checked against the seen set; fresh gaps are
///   pulled with [`GraftRequest`]s addressed to the advertiser, with
///   per-round budgets, per-id retry/timeout bookkeeping, and advertiser
///   round-robin on retry;
/// * grafts are served from a bounded [`RetransmissionCache`] with its own
///   FIFO + round-age purge policy, so repair traffic can never occupy
///   gossip buffer slots or grow without bound;
/// * recovered events are fed through the wrapped node's normal receive
///   path, so they are delivered once, re-buffered, and re-disseminated.
///
/// # Example
///
/// ```
/// use agb_core::{FrameProtocol, GossipConfig, LpbcastNode};
/// use agb_membership::FullView;
/// use agb_recovery::{RecoverableNode, RecoveryConfig};
/// use agb_types::{DetRng, NodeId, Payload, TimeMs};
/// use rand::SeedableRng;
///
/// let inner = LpbcastNode::new(
///     NodeId::new(0),
///     GossipConfig::default(),
///     FullView::new(8),
///     DetRng::seed_from_u64(1),
/// );
/// let mut node = RecoverableNode::new(inner, RecoveryConfig::default());
/// node.offer(Payload::from_static(b"x"), TimeMs::ZERO);
/// let out = node.on_round(TimeMs::from_secs(1));
/// // Every data frame carries the piggybacked digest.
/// assert!(out.iter().all(|(_, f)| matches!(
///     f,
///     agb_core::GossipFrame::Gossip { ihave: Some(d), .. } if !d.ids.is_empty()
/// )));
/// ```
#[derive(Debug)]
pub struct RecoverableNode<P> {
    inner: P,
    config: RecoveryConfig,
    /// Ids this node has delivered (gap reference for incoming digests).
    seen: EventIdBuffer,
    /// Rotating advertisement window over the most recently seen ids,
    /// tagged with the round they were first seen.
    window: VecDeque<(EventId, u64)>,
    advertise_cursor: usize,
    cache: RetransmissionCache,
    missing: MissingTracker,
    round: u64,
    graft_ids_this_round: usize,
    served_events_this_round: usize,
    out_events: Vec<ProtocolEvent>,
    /// Reusable buffer for draining the inner node's events on every
    /// sync (once per receive/round — allocation-free at steady state).
    sync_scratch: Vec<ProtocolEvent>,
}

impl<P: FrameProtocol> RecoverableNode<P> {
    /// Wraps `inner` with the recovery layer.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; validate untrusted configs
    /// with [`RecoveryConfig::validate`] first.
    pub fn new(inner: P, config: RecoveryConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid RecoveryConfig: {e}"));
        RecoverableNode {
            seen: EventIdBuffer::new(config.seen_capacity),
            window: VecDeque::new(),
            advertise_cursor: 0,
            cache: RetransmissionCache::new(config.cache_capacity, config.cache_rounds),
            missing: MissingTracker::with_capacity(config.max_missing),
            round: 0,
            graft_ids_this_round: 0,
            served_events_this_round: 0,
            out_events: Vec::new(),
            sync_scratch: Vec::new(),
            inner,
            config,
        }
    }

    /// The recovery configuration in force.
    pub fn recovery_config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// The wrapped protocol node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Events currently held by the retransmission cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Gaps currently tracked as missing.
    pub fn missing_len(&self) -> usize {
        self.missing.len()
    }

    /// Absorbs the wrapped node's protocol events: newly delivered events
    /// populate the seen set, the advertisement window and the
    /// retransmission cache, and close any matching gap.
    fn sync(&mut self) {
        self.sync_collect_delivered(None);
    }

    /// [`sync`](Self::sync), additionally recording delivered ids into
    /// `delivered` when provided (used by the retransmission path to
    /// confirm which recoveries the inner node actually delivered).
    fn sync_collect_delivered(&mut self, mut delivered: Option<&mut Vec<EventId>>) {
        let mut drained = std::mem::take(&mut self.sync_scratch);
        drained.clear();
        self.inner.drain_events_into(&mut drained);
        for event in drained.drain(..) {
            if let ProtocolEvent::Delivered { event: ev, .. } = &event {
                let id = ev.id();
                if self.seen.insert(id) {
                    self.window.push_back((id, self.round));
                    while self.window.len() > self.config.ihave_window {
                        self.window.pop_front();
                    }
                    self.cache.insert(ev.clone());
                }
                self.missing.resolve(id);
                if let Some(out) = delivered.as_deref_mut() {
                    out.push(id);
                }
            }
            self.out_events.push(event);
        }
        self.sync_scratch = drained;
    }

    /// Drops window entries our own cache can no longer serve, keeping
    /// advertisements honest: a graft lands at the advertiser, so only ids
    /// within the cache's round horizon are worth advertising. Without
    /// this, low-rate groups keep advertising unservable ids and trap
    /// receivers in graft/abandon cycles.
    fn prune_window(&mut self) {
        let horizon = u64::from(self.config.cache_rounds);
        while let Some(&(_, seen_at)) = self.window.front() {
            if self.round.saturating_sub(seen_at) <= horizon {
                break;
            }
            self.window.pop_front();
        }
    }

    /// The rotating digest advertised this round.
    fn digest(&mut self) -> IHaveDigest {
        let len = self.window.len();
        if len == 0 {
            return IHaveDigest::default();
        }
        let take = self.config.digest_size.min(len);
        let start = self.advertise_cursor % len;
        let mut ids = Vec::with_capacity(take);
        for i in 0..take {
            ids.push(self.window[(start + i) % len].0);
        }
        self.advertise_cursor = (start + take) % len.max(1);
        IHaveDigest { ids }
    }

    /// Emits due pull requests within the remaining round budget.
    fn poll_grafts(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let budget = self
            .config
            .max_grafts_per_round
            .saturating_sub(self.graft_ids_this_round);
        if budget == 0 {
            return Vec::new();
        }
        let (due, abandoned) = self.missing.take_due(
            self.round,
            budget,
            self.config.graft_timeout_rounds,
            self.config.max_retries,
        );
        for id in abandoned {
            self.out_events
                .push(ProtocolEvent::RecoveryAbandoned { id, at: now });
        }
        self.graft_ids_this_round += due.len();
        // Group ids by advertiser, preserving discovery order.
        let mut requests: Vec<(NodeId, Vec<EventId>)> = Vec::new();
        for graft in due {
            match requests.iter_mut().find(|(node, _)| *node == graft.from) {
                Some((_, ids)) => ids.push(graft.id),
                None => requests.push((graft.from, vec![graft.id])),
            }
        }
        let me = self.inner.node_id();
        requests
            .into_iter()
            .map(|(to, ids)| {
                self.out_events.push(ProtocolEvent::RecoveryRequested {
                    to,
                    ids: ids.len(),
                    at: now,
                });
                (to, GossipFrame::Graft(GraftRequest { sender: me, ids }))
            })
            .collect()
    }

    /// Serves a pull request from the retransmission cache.
    fn serve(&mut self, request: GraftRequest, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let budget = self
            .config
            .serve_budget_per_round
            .saturating_sub(self.served_events_this_round);
        let mut events = Vec::new();
        let mut missed = 0usize;
        for id in request.ids {
            if events.len() >= budget {
                // Budget exhaustion is not a cache miss: the event may
                // well be cached, the requester's retry timeout simply
                // pulls it again (possibly elsewhere) next round.
                continue;
            }
            match self.cache.get(id) {
                Some(event) => events.push(event.clone()),
                None => missed += 1,
            }
        }
        self.served_events_this_round += events.len();
        self.out_events.push(ProtocolEvent::RecoveryServed {
            to: request.sender,
            events: events.len(),
            missed,
            at: now,
        });
        if events.is_empty() {
            return Vec::new();
        }
        let reply = Retransmission {
            sender: self.inner.node_id(),
            events,
        };
        vec![(request.sender, GossipFrame::Retransmit(reply))]
    }

    /// Hands a gossip message to the wrapped node's receive path. A plain
    /// flavor answers nothing: the pull plane is this layer's.
    fn feed_inner(&mut self, from: NodeId, msg: GossipMessage, now: TimeMs) {
        let replies = self.inner.on_receive(from, GossipFrame::plain(msg), now);
        debug_assert!(replies.is_empty(), "the wrapped node must be plain");
    }

    /// Ingests a retransmission: unseen events flow through the wrapped
    /// node's normal receive path (delivery, buffering, re-dissemination).
    fn absorb_retransmission(&mut self, from: NodeId, retransmission: Retransmission, now: TimeMs) {
        let mut fresh = Vec::new();
        let mut candidates = Vec::new();
        for event in retransmission.events {
            if self.seen.contains(event.id()) {
                self.out_events.push(ProtocolEvent::RecoveryDuplicate {
                    id: event.id(),
                    at: now,
                });
            } else {
                if self.missing.contains(event.id()) {
                    candidates.push(event.id());
                }
                fresh.push(event);
            }
        }
        if fresh.is_empty() {
            return;
        }
        let fed_ids: Vec<EventId> = fresh.iter().map(Event::id).collect();
        let synthesized = GossipMessage {
            sender: from,
            sample_period: 0,
            min_buffs: Vec::new(),
            events: fresh.into(),
            membership: MembershipDigest::default(),
        };
        self.feed_inner(from, synthesized, now);
        let mut delivered = Vec::new();
        self.sync_collect_delivered(Some(&mut delivered));
        // A tracked gap counts as recovered only if the inner node actually
        // delivered the copy; an id our (smaller) seen set forgot but the
        // inner dedup buffer still knows is a duplicate, and its gap entry
        // is closed so it is not re-pulled forever.
        for id in candidates {
            if delivered.contains(&id) {
                self.out_events
                    .push(ProtocolEvent::Recovered { id, from, at: now });
            }
        }
        for id in fed_ids {
            if !delivered.contains(&id) {
                self.seen.insert(id);
                self.missing.resolve(id);
                self.out_events
                    .push(ProtocolEvent::RecoveryDuplicate { id, at: now });
            }
        }
    }
}

impl<P: FrameProtocol> FrameProtocol for RecoverableNode<P> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        let outcome = self.inner.offer(payload, now);
        self.sync();
        outcome
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.round += 1;
        self.graft_ids_this_round = 0;
        self.served_events_this_round = 0;
        self.cache.on_round();
        self.prune_window();

        let mut out = self.inner.on_round(now);
        self.sync();
        let digest = self.digest();
        for (_, frame) in &mut out {
            if let GossipFrame::Gossip { ihave, .. } = frame {
                *ihave = Some(digest.clone());
            }
        }
        out.extend(self.poll_grafts(now));
        out
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)> {
        match frame {
            GossipFrame::Gossip { msg, ihave } => {
                self.feed_inner(from, msg, now);
                self.sync();
                if let Some(digest) = ihave {
                    for id in digest.ids {
                        if !self.seen.contains(id) {
                            self.missing.note(id, from, self.round);
                        }
                    }
                }
                // Pull fresh gaps immediately (still budget-bounded);
                // retries ride on later rounds.
                self.poll_grafts(now)
            }
            GossipFrame::Graft(request) => self.serve(request, now),
            GossipFrame::Retransmit(retransmission) => {
                self.absorb_retransmission(from, retransmission, now);
                Vec::new()
            }
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        self.sync();
        out.append(&mut self.out_events);
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.inner.set_buffer_capacity(capacity, now);
        self.sync();
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.inner.allowed_rate()
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.inner.gossip_period()
    }

    fn avg_age(&self) -> Option<f64> {
        self.inner.avg_age()
    }

    fn avg_tokens(&self) -> Option<f64> {
        self.inner.avg_tokens()
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        self.inner.min_buff_estimate()
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.inner.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        // Farewell frames pass through without a digest: the leaver will
        // not be around to serve grafts.
        let farewells = self.inner.leave(now);
        self.sync();
        farewells
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.inner.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        use agb_profile::{MemReport, MemUsage};
        let mut rows = self.inner.mem_breakdown();
        rows.push(("retransmission_cache", self.cache.mem_usage()));
        rows.push(("missing_tracker", self.missing.mem_usage()));
        rows.push(("recovery_seen_ids", self.seen.mem_usage()));
        rows.push((
            "recovery_window",
            MemUsage::new(
                (self.window.len() * std::mem::size_of::<(EventId, u64)>()) as u64,
                self.window.len() as u64,
            ),
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_core::{Event, GossipConfig, LpbcastNode};
    use agb_membership::FullView;
    use agb_types::DetRng;
    use rand::SeedableRng;

    fn lpbcast(id: u32) -> LpbcastNode<FullView> {
        LpbcastNode::new(
            NodeId::new(id),
            GossipConfig::default(),
            FullView::new(8),
            DetRng::seed_from_u64(u64::from(id) + 11),
        )
    }

    fn recoverable(id: u32) -> RecoverableNode<LpbcastNode<FullView>> {
        RecoverableNode::new(lpbcast(id), RecoveryConfig::default())
    }

    fn eid(origin: u32, seq: u64) -> EventId {
        EventId::new(NodeId::new(origin), seq)
    }

    fn gossip_frame(sender: u32, events: Vec<Event>, ihave: Vec<EventId>) -> GossipFrame {
        GossipFrame::Gossip {
            msg: GossipMessage {
                sender: NodeId::new(sender),
                sample_period: 0,
                min_buffs: vec![],
                events: events.into(),
                membership: MembershipDigest::default(),
            },
            ihave: Some(IHaveDigest { ids: ihave }),
        }
    }

    #[test]
    fn advertises_recently_seen_ids() {
        let mut n = recoverable(0);
        n.offer(Payload::from_static(b"a"), TimeMs::ZERO);
        n.offer(Payload::from_static(b"b"), TimeMs::ZERO);
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(out.len(), 4);
        for (_, frame) in &out {
            let GossipFrame::Gossip { ihave: Some(d), .. } = frame else {
                panic!("expected gossip frame with digest");
            };
            assert_eq!(d.ids, vec![eid(0, 0), eid(0, 1)]);
        }
    }

    #[test]
    fn gap_detection_grafts_the_advertiser() {
        let mut n = recoverable(0);
        let replies = n.on_receive(
            NodeId::new(3),
            gossip_frame(3, vec![], vec![eid(7, 0), eid(7, 1)]),
            TimeMs::ZERO,
        );
        assert_eq!(replies.len(), 1);
        let (to, frame) = &replies[0];
        assert_eq!(*to, NodeId::new(3));
        let GossipFrame::Graft(req) = frame else {
            panic!("expected graft");
        };
        assert_eq!(req.sender, NodeId::new(0));
        assert_eq!(req.ids, vec![eid(7, 0), eid(7, 1)]);
        assert_eq!(n.missing_len(), 2);
        let requested = n
            .drain_events()
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::RecoveryRequested { .. }))
            .count();
        assert_eq!(requested, 1);
    }

    #[test]
    fn known_ids_are_not_grafted() {
        let mut n = recoverable(0);
        let event = Event::new(eid(7, 0), Payload::new());
        // Receive the event itself and its advertisement in one frame.
        let replies = n.on_receive(
            NodeId::new(3),
            gossip_frame(3, vec![event], vec![eid(7, 0)]),
            TimeMs::ZERO,
        );
        assert!(replies.is_empty(), "nothing is missing");
        assert_eq!(n.missing_len(), 0);
    }

    #[test]
    fn serves_grafts_from_cache_and_reports_misses() {
        let mut n = recoverable(0);
        n.offer(Payload::from_static(b"x"), TimeMs::ZERO);
        let replies = n.on_receive(
            NodeId::new(2),
            GossipFrame::Graft(GraftRequest {
                sender: NodeId::new(2),
                ids: vec![eid(0, 0), eid(9, 9)],
            }),
            TimeMs::ZERO,
        );
        assert_eq!(replies.len(), 1);
        let GossipFrame::Retransmit(r) = &replies[0].1 else {
            panic!("expected retransmission");
        };
        assert_eq!(r.sender, NodeId::new(0));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].id(), eid(0, 0));
        let served: Vec<_> = n
            .drain_events()
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::RecoveryServed { events, missed, .. } => Some((events, missed)),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![(1, 1)]);
    }

    #[test]
    fn retransmission_delivers_and_resolves_gap() {
        let mut n = recoverable(0);
        n.on_receive(
            NodeId::new(3),
            gossip_frame(3, vec![], vec![eid(7, 0)]),
            TimeMs::ZERO,
        );
        assert_eq!(n.missing_len(), 1);
        n.on_receive(
            NodeId::new(3),
            GossipFrame::Retransmit(Retransmission {
                sender: NodeId::new(3),
                events: vec![Event::with_age(eid(7, 0), 4, Payload::from_static(b"p"))],
            }),
            TimeMs::from_secs(1),
        );
        assert_eq!(n.missing_len(), 0);
        let events = n.drain_events();
        assert!(events.iter().any(|e| matches!(
            e,
            ProtocolEvent::Delivered { event, .. } if event.id() == eid(7, 0)
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            ProtocolEvent::Recovered { id, from, .. }
                if *id == eid(7, 0) && *from == NodeId::new(3)
        )));
    }

    #[test]
    fn duplicate_retransmission_is_counted_not_redelivered() {
        let mut n = recoverable(0);
        let event = Event::new(eid(7, 0), Payload::new());
        n.on_receive(
            NodeId::new(2),
            gossip_frame(2, vec![event.clone()], vec![]),
            TimeMs::ZERO,
        );
        n.drain_events();
        n.on_receive(
            NodeId::new(3),
            GossipFrame::Retransmit(Retransmission {
                sender: NodeId::new(3),
                events: vec![event],
            }),
            TimeMs::ZERO,
        );
        let events = n.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::RecoveryDuplicate { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::Delivered { .. })));
    }

    #[test]
    fn graft_budget_bounds_requests_per_round() {
        let mut config = RecoveryConfig::default();
        config.max_grafts_per_round = 3;
        let mut n = RecoverableNode::new(lpbcast(0), config);
        let ids: Vec<EventId> = (0..10).map(|s| eid(7, s)).collect();
        let replies = n.on_receive(NodeId::new(3), gossip_frame(3, vec![], ids), TimeMs::ZERO);
        let requested: usize = replies
            .iter()
            .filter_map(|(_, f)| match f {
                GossipFrame::Graft(g) => Some(g.ids.len()),
                _ => None,
            })
            .sum();
        assert_eq!(requested, 3, "round budget must bind");
        assert_eq!(n.missing_len(), 10, "unrequested gaps stay tracked");
        // Next round, the budget resets and the remaining gaps go out.
        let out = n.on_round(TimeMs::from_secs(1));
        let grafted: usize = out
            .iter()
            .filter_map(|(_, f)| match f {
                GossipFrame::Graft(g) => Some(g.ids.len()),
                _ => None,
            })
            .sum();
        assert_eq!(grafted, 3);
    }

    #[test]
    fn abandoned_after_retry_budget() {
        let mut config = RecoveryConfig::default();
        config.max_retries = 1;
        config.graft_timeout_rounds = 1;
        let mut n = RecoverableNode::new(lpbcast(0), config);
        n.on_receive(
            NodeId::new(3),
            gossip_frame(3, vec![], vec![eid(7, 0)]),
            TimeMs::ZERO,
        );
        // One attempt was made on receive; the next due poll abandons.
        n.on_round(TimeMs::from_secs(1));
        n.on_round(TimeMs::from_secs(2));
        let abandoned = n
            .drain_events()
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::RecoveryAbandoned { .. }))
            .count();
        assert_eq!(abandoned, 1);
        assert_eq!(n.missing_len(), 0);
    }

    #[test]
    fn digest_rotates_across_rounds() {
        let mut config = RecoveryConfig::default();
        config.digest_size = 2;
        let mut n = RecoverableNode::new(lpbcast(0), config);
        for _ in 0..4 {
            n.offer(Payload::new(), TimeMs::ZERO);
        }
        let digest_of = |out: &Vec<(NodeId, GossipFrame)>| -> Vec<EventId> {
            let GossipFrame::Gossip { ihave: Some(d), .. } = &out[0].1 else {
                panic!("expected digest");
            };
            d.ids.clone()
        };
        let first = digest_of(&n.on_round(TimeMs::from_secs(1)));
        let second = digest_of(&n.on_round(TimeMs::from_secs(2)));
        assert_eq!(first, vec![eid(0, 0), eid(0, 1)]);
        assert_eq!(second, vec![eid(0, 2), eid(0, 3)]);
    }

    #[test]
    fn delegates_protocol_surface_to_inner() {
        let mut n = recoverable(5);
        assert_eq!(n.node_id(), NodeId::new(5));
        assert_eq!(n.buffer_capacity(), 90);
        assert_eq!(n.allowed_rate(), None);
        assert_eq!(n.pending_len(), 0);
        assert_eq!(n.gossip_period(), DurationMs::from_secs(1));
        assert_eq!(FrameProtocol::avg_age(&n), None);
        n.set_buffer_capacity(30, TimeMs::ZERO);
        assert_eq!(n.buffer_capacity(), 30);
        assert_eq!(n.recovery_config().digest_size, 32);
        assert_eq!(n.cache_len(), 0);
    }
}
