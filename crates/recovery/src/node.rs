//! The recovery wrapper: any plain [`FrameProtocol`] node plus pull-based
//! anti-entropy.

use agb_core::{
    Event, FrameProtocol, GossipFrame, GossipMessage, GraftRequest, IHaveDigest, OfferOutcome,
    ProtocolEvent, Retransmission,
};
use agb_membership::MembershipDigest;
use agb_types::{EventId, FastHashSet, NodeId, Payload, TimeMs};

use crate::cache::RetransmissionCache;
use crate::config::RecoveryConfig;
use crate::missing::MissingTracker;

/// Ids advertised per piggybacked `IHave` digest, drawn in rotation from
/// the retransmission cache (each round advertises the next slice of it):
/// about 0.4 kB on a gossip frame.
pub const DIGEST_SIZE: usize = 32;
/// Rounds to wait for a retransmission before re-requesting a missing id
/// from the next advertiser.
const GRAFT_TIMEOUT_ROUNDS: u32 = 2;
/// Pull attempts per missing id before its recovery is abandoned.
const MAX_RETRIES: u32 = 4;
/// Missing ids grafted per round at most (the request-side budget).
const MAX_GRAFTS_PER_ROUND: usize = 64;
/// Events served from the cache per round at most (the serve-side
/// budget).
const SERVE_BUDGET_PER_ROUND: usize = 128;

/// A gossip node composed with the pull-based recovery layer.
///
/// Wraps any plain [`FrameProtocol`] — `LpbcastNode`, `AdaptiveNode` and
/// `RoutingNode` alike, which answer recovery frames with nothing — and
/// implements the same trait with the pull plane added:
///
/// * grafts are served from a bounded [`RetransmissionCache`] with its own
///   FIFO + round-age purge policy, so repair traffic can never occupy
///   gossip buffer slots or grow without bound;
/// * every outgoing gossip frame piggybacks an [`IHaveDigest`] of the
///   next slice of that cache, rotating round by round, so every
///   advertised id is one this node can serve;
/// * incoming digests are checked against the wrapped node's own dedup
///   history ([`FrameProtocol::has_seen`]); fresh gaps are pulled with
///   [`GraftRequest`]s addressed to the advertiser, with per-round
///   budgets, per-id retry/timeout bookkeeping, and advertiser
///   round-robin on retry;
/// * recovered events are fed through the wrapped node's normal receive
///   path, so they are delivered once, re-buffered, and re-disseminated;
/// * the stack has one event queue, the wrapped node's: this layer
///   pushes its own events there as they happen, and caches each
///   delivery a call on the wrapped node appended to it;
/// * a recovery frame that names one id more than once is read as if it
///   named it once (the first occurrence wins).
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
    cache: RetransmissionCache,
    missing: MissingTracker,
    round: u64,
    graft_ids_this_round: usize,
    served_events_this_round: usize,
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
            cache: RetransmissionCache::new(config.cache_capacity, config.cache_rounds),
            missing: MissingTracker::with_capacity(config.max_missing),
            round: 0,
            graft_ids_this_round: 0,
            served_events_this_round: 0,
            inner,
        }
    }

    /// Runs `call` on the wrapped node: each delivery it appended to the
    /// queue enters the retransmission cache and closes any matching gap.
    fn inner_call<R>(&mut self, call: impl FnOnce(&mut P) -> R) -> R {
        let start = self.inner.events().len();
        let result = call(&mut self.inner);
        for event in &self.inner.events()[start..] {
            if let ProtocolEvent::Delivered { event, .. } = event {
                self.cache.insert(event.clone());
                self.missing.resolve(event.id());
            }
        }
        result
    }

    /// Emits due pull requests within the remaining round budget.
    fn poll_grafts(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let budget = MAX_GRAFTS_PER_ROUND.saturating_sub(self.graft_ids_this_round);
        if budget == 0 {
            return Vec::new();
        }
        let (due, abandoned) =
            self.missing
                .take_due(self.round, budget, GRAFT_TIMEOUT_ROUNDS, MAX_RETRIES);
        let events = self.inner.events();
        for id in abandoned {
            events.push(ProtocolEvent::RecoveryAbandoned { id, at: now });
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
                self.inner.events().push(ProtocolEvent::RecoveryRequested {
                    to,
                    ids: ids.len(),
                    at: now,
                });
                (to, GossipFrame::Graft(GraftRequest { sender: me, ids }))
            })
            .collect()
    }

    /// Serves a pull request from the retransmission cache.
    fn serve(&mut self, mut request: GraftRequest, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        first_occurrences(&mut request.ids, |&id| id);
        let budget = SERVE_BUDGET_PER_ROUND.saturating_sub(self.served_events_this_round);
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
        self.inner.events().push(ProtocolEvent::RecoveryServed {
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
        let replies = self.inner_call(|inner| inner.on_receive(from, GossipFrame::plain(msg), now));
        debug_assert!(replies.is_empty(), "the wrapped node must be plain");
    }

    /// Ingests a retransmission: unseen events flow through the wrapped
    /// node's normal receive path (delivery, buffering, re-dissemination),
    /// which delivers every one of them; those that were missing count as
    /// recovered.
    fn absorb_retransmission(
        &mut self,
        from: NodeId,
        mut retransmission: Retransmission,
        now: TimeMs,
    ) {
        first_occurrences(&mut retransmission.events, Event::id);
        let mut fresh = Vec::new();
        let mut recovered = Vec::new();
        for event in retransmission.events {
            let id = event.id();
            if self.inner.has_seen(id) {
                let duplicate = ProtocolEvent::RecoveryDuplicate { id, at: now };
                self.inner.events().push(duplicate);
            } else {
                if self.missing.contains(id) {
                    recovered.push(id);
                }
                fresh.push(event);
            }
        }
        if fresh.is_empty() {
            return;
        }
        let synthesized = GossipMessage {
            sender: from,
            sample_period: 0,
            min_buffs: Vec::new(),
            events: fresh.into(),
            membership: MembershipDigest::default(),
        };
        self.feed_inner(from, synthesized, now);
        let events = self.inner.events();
        for id in recovered {
            events.push(ProtocolEvent::Recovered { id, from, at: now });
        }
    }
}

/// Keeps the first occurrence of each id in `items`, in order: a peer's
/// frame that names an id twice is served, delivered and counted once.
fn first_occurrences<T>(items: &mut Vec<T>, id: impl Fn(&T) -> EventId) {
    if items.len() > 1 {
        let mut named = FastHashSet::default();
        items.retain(|item| named.insert(id(item)));
    }
}

impl<P: FrameProtocol> FrameProtocol for RecoverableNode<P> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn has_seen(&self, id: EventId) -> bool {
        self.inner.has_seen(id)
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        self.inner_call(|inner| inner.offer(payload, now))
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.round += 1;
        self.graft_ids_this_round = 0;
        self.served_events_this_round = 0;
        self.cache.on_round();

        let mut out = self.inner_call(|inner| inner.on_round(now));
        let digest = IHaveDigest {
            ids: self.cache.advertise(DIGEST_SIZE),
        };
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
                if let Some(digest) = ihave {
                    for id in digest.ids {
                        if !self.inner.has_seen(id) {
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

    /// The wrapped node's queue, which holds this layer's events too.
    fn events(&mut self) -> &mut Vec<ProtocolEvent> {
        self.inner.events()
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.inner_call(|inner| inner.set_buffer_capacity(capacity, now));
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
        self.inner_call(|inner| inner.leave(now))
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.inner.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        use agb_profile::MemReport;
        let mut rows = self.inner.mem_breakdown();
        rows.push(("retransmission_cache", self.cache.mem_usage()));
        rows.push(("missing_tracker", self.missing.mem_usage()));
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
        assert_eq!(n.missing.len(), 2);
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
        assert_eq!(n.missing.len(), 0);
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
        assert_eq!(n.missing.len(), 1);
        n.on_receive(
            NodeId::new(3),
            GossipFrame::Retransmit(Retransmission {
                sender: NodeId::new(3),
                events: vec![Event::with_age(eid(7, 0), 4, Payload::from_static(b"p"))],
            }),
            TimeMs::from_secs(1),
        );
        assert_eq!(n.missing.len(), 0);
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

    /// The grafts in `frames`, counted by id.
    fn grafted(frames: &[(NodeId, GossipFrame)]) -> usize {
        frames
            .iter()
            .filter_map(|(_, f)| match f {
                GossipFrame::Graft(g) => Some(g.ids.len()),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn graft_budget_bounds_requests_per_round() {
        let mut n = recoverable(0);
        let gaps = 2 * MAX_GRAFTS_PER_ROUND + 10;
        let ids: Vec<EventId> = (0..gaps as u64).map(|s| eid(7, s)).collect();
        let replies = n.on_receive(NodeId::new(3), gossip_frame(3, vec![], ids), TimeMs::ZERO);
        assert_eq!(
            grafted(&replies),
            MAX_GRAFTS_PER_ROUND,
            "round budget must bind"
        );
        assert_eq!(n.missing.len(), gaps, "unrequested gaps stay tracked");
        // Next round, the budget resets and the remaining gaps go out.
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(grafted(&out), MAX_GRAFTS_PER_ROUND);
    }

    #[test]
    fn abandoned_after_retry_budget() {
        let mut n = recoverable(0);
        let first = n.on_receive(
            NodeId::new(3),
            gossip_frame(3, vec![], vec![eid(7, 0)]),
            TimeMs::ZERO,
        );
        // One attempt is made on receive, then one each time the timeout
        // runs out, until the retry budget is spent; the next due poll
        // abandons.
        let mut attempts = grafted(&first);
        let last_due = u64::from(MAX_RETRIES * GRAFT_TIMEOUT_ROUNDS);
        for round in 1..last_due {
            attempts += grafted(&n.on_round(TimeMs::from_secs(round)));
            assert_eq!(n.missing.len(), 1, "round {round}: still tracked");
        }
        assert_eq!(attempts, MAX_RETRIES as usize);
        let abandoned = |n: &mut RecoverableNode<_>| {
            n.drain_events()
                .iter()
                .filter(|e| matches!(e, ProtocolEvent::RecoveryAbandoned { .. }))
                .count()
        };
        assert_eq!(abandoned(&mut n), 0);
        assert_eq!(grafted(&n.on_round(TimeMs::from_secs(last_due))), 0);
        assert_eq!(abandoned(&mut n), 1);
        assert_eq!(n.missing.len(), 0);
    }

    #[test]
    fn digest_rotates_across_rounds() {
        let mut n = recoverable(0);
        for _ in 0..2 * DIGEST_SIZE {
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
        let slice = |from: usize| -> Vec<EventId> {
            (from..from + DIGEST_SIZE)
                .map(|s| eid(0, s as u64))
                .collect()
        };
        assert_eq!(first, slice(0));
        assert_eq!(second, slice(DIGEST_SIZE));
    }

    #[test]
    fn delegates_protocol_surface_to_inner() {
        let mut n = recoverable(5);
        assert_eq!(n.node_id(), NodeId::new(5));
        assert_eq!(n.buffer_capacity(), 90);
        assert_eq!(n.allowed_rate(), None);
        assert_eq!(n.pending_len(), 0);
        assert_eq!(FrameProtocol::avg_age(&n), None);
        n.set_buffer_capacity(30, TimeMs::ZERO);
        assert_eq!(n.buffer_capacity(), 30);
    }
}
