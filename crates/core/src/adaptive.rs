//! The adaptive gossip broadcast node — the composition of Figure 5.
//!
//! [`AdaptiveNode`] wraps the baseline [`LpbcastNode`] and adds the three
//! mechanisms of the paper:
//!
//! * **Figure 5(a)** — a [`MinBuffEstimator`] that discovers the smallest
//!   buffer in the group by piggybacking `(s, minBuff_s)` on every outgoing
//!   gossip message and folding in the values received;
//! * **Figure 5(b)** — a [`CongestionEstimator`] that, after every received
//!   gossip message, accounts the ages of events a `minBuff`-sized buffer
//!   would have dropped, maintaining the `avgAge` congestion signal;
//! * **Figure 5(c)** — a [`RateController`] retuning the rate of the
//!   wrapped node's own [`TokenBucket`] (Figure 3's throttle, installed
//!   at construction), behind which locally offered broadcasts queue,
//!   with `avgTokens` measuring how much of the allowance the
//!   application actually uses.
//!
//! The node stores events using its **full local buffer** — only the
//! congestion *accounting* pretends the buffer were `minBuff` — so nodes
//! with spare memory still contribute their redundancy to the group
//! (§3.2, validated by Figure 9's heterogeneous runs).

use agb_membership::GossipMembership;
use agb_types::{DetRng, EventId, Ewma, NodeId, Payload, TimeMs};

use crate::buffer::{PurgeReason, PurgedEvent};
use crate::config::{AdaptationConfig, GossipConfig};
use crate::congestion::CongestionEstimator;
use crate::header::GossipFrame;
use crate::lpbcast::LpbcastNode;
use crate::minbuff::MinBuffEstimator;
use crate::rate::RateController;
use crate::token_bucket::TokenBucket;
use crate::traits::{FrameProtocol, OfferOutcome, ProtocolEvent};

/// EWMA weight for `avgTokens`: the paper's `α` (0.9), the same smoothing
/// Figure 5(b) gives `avgAge` by default.
const TOKEN_ALPHA: f64 = 0.9;

/// The adaptive gossip broadcast state machine (lpbcast + Figure 5).
///
/// # Example
///
/// ```
/// use agb_core::{AdaptationConfig, AdaptiveNode, FrameProtocol, GossipConfig, GossipFrame};
/// use agb_membership::FullView;
/// use agb_types::{DetRng, NodeId, Payload, TimeMs};
/// use rand::SeedableRng;
///
/// let mut node = AdaptiveNode::new(
///     NodeId::new(0),
///     GossipConfig::default(),
///     AdaptationConfig::default(),
///     FullView::new(10),
///     DetRng::seed_from_u64(1),
/// );
/// node.offer(Payload::from_static(b"hi"), TimeMs::ZERO);
/// let out = node.on_round(TimeMs::from_secs(1));
/// // Outgoing messages carry the adaptive header.
/// assert!(out.iter().all(|(_, frame)| matches!(
///     frame,
///     GossipFrame::Gossip { msg, .. } if msg.is_adaptive()
/// )));
/// ```
#[derive(Debug)]
pub struct AdaptiveNode<S> {
    inner: LpbcastNode<S>,
    min_buff: MinBuffEstimator,
    congestion: CongestionEstimator,
    controller: RateController,
    avg_tokens: Ewma,
    rng: DetRng,
}

impl<S: GossipMembership> AdaptiveNode<S> {
    /// Creates an adaptive node.
    ///
    /// # Panics
    ///
    /// Panics if either configuration fails validation; validate
    /// untrusted configs with [`GossipConfig::validate`] /
    /// [`AdaptationConfig::validate`] first.
    pub fn new(
        id: NodeId,
        gossip: GossipConfig,
        adaptation: AdaptationConfig,
        membership: S,
        mut rng: DetRng,
    ) -> Self {
        adaptation
            .validate()
            .unwrap_or_else(|e| panic!("invalid AdaptationConfig: {e}"));
        let capacity = gossip.max_events as u32;
        let inner_seed: u64 = rand::RngExt::random(&mut rng);
        let inner_rng = <DetRng as rand::SeedableRng>::seed_from_u64(inner_seed);
        let mut inner = LpbcastNode::new(id, gossip, membership, inner_rng);
        let min_buff = MinBuffEstimator::new(id, capacity, adaptation.min_buff);
        let congestion = CongestionEstimator::new(adaptation.congestion);
        let controller = RateController::new(adaptation.initial_rate, adaptation.rate);
        inner.install_bucket(TokenBucket::new(
            controller.rate(),
            adaptation.bucket_capacity,
            TimeMs::ZERO,
        ));
        let avg_tokens = Ewma::new(TOKEN_ALPHA, 0.0);
        AdaptiveNode {
            inner,
            min_buff,
            congestion,
            controller,
            avg_tokens,
            rng,
        }
    }

    /// The throttle this node installed in the one it wraps.
    fn bucket(&mut self) -> &mut TokenBucket {
        self.inner
            .bucket_mut()
            .expect("AdaptiveNode::new installs the bucket")
    }

    /// Runs `call` on the wrapped node and routes the `Dropped` events it
    /// appended into the congestion estimator; also returns whether any
    /// of them was an overflow eviction.
    fn inner_call<R>(&mut self, call: impl FnOnce(&mut LpbcastNode<S>) -> R) -> (R, bool) {
        let start = self.inner.events().len();
        let result = call(&mut self.inner);
        let mut overflow = false;
        for event in &self.inner.events()[start..] {
            if let ProtocolEvent::Dropped {
                id, age, reason, ..
            } = *event
            {
                overflow |= reason == PurgeReason::Overflow;
                self.congestion.on_purged(&PurgedEvent { id, age, reason });
            }
        }
        (result, overflow)
    }
}

impl<S: GossipMembership> FrameProtocol for AdaptiveNode<S> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn has_seen(&self, id: EventId) -> bool {
        self.inner.has_seen(id)
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        self.inner_call(|inner| inner.offer(payload, now)).0
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        // 1. Sample-period bookkeeping (Figure 5(a), local clock).
        self.min_buff.on_tick(now);

        // 2. Admit queued broadcasts as tokens allow (Figure 3).
        self.inner_call(|inner| inner.admit_pending(now));

        // 3. Sample allowance usage after admissions (Figure 5(c)'s
        //    avgTokens: full bucket = unused allowance).
        let tokens = self.bucket().tokens(now);
        self.avg_tokens.update(tokens);

        // 4. Adjust the allowed rate (Figure 5(c)). Retuning at `now`
        //    refills nothing, so the base round's own admission below
        //    finds no token step 2 did not.
        let max_tokens = self.bucket().max_tokens();
        if let Some(change) = self.controller.adjust(
            self.congestion.avg_age(),
            self.avg_tokens.value(),
            max_tokens,
            &mut self.rng,
        ) {
            self.bucket().set_rate(change.new, now);
            self.inner.events().push(ProtocolEvent::RateChanged {
                old: change.old,
                new: change.new,
                reason: change.reason,
                at: now,
            });
        }

        // 5. Base-protocol round (ages, GC, emission), then stamp the
        //    adaptive header on the message in every outgoing frame.
        let (mut out, _) = self.inner_call(|inner| inner.on_round(now));
        let (period, ads) = self.min_buff.advertisement();
        for (_, frame) in &mut out {
            if let GossipFrame::Gossip { msg, .. } = frame {
                msg.sample_period = period;
                msg.min_buffs = ads.clone();
            }
        }
        out
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)> {
        let GossipFrame::Gossip { msg, .. } = frame else {
            return Vec::new();
        };
        // Figure 5(a): fold the sender's advertisement into the period
        // estimate (adopting a later period if the sender is ahead).
        if msg.is_adaptive() {
            self.min_buff.on_receive(msg.sample_period, &msg.min_buffs);
        }
        // Figure 1 receive path.
        let ((), overflowed) = self.inner_call(|inner| inner.receive(from, msg, now));
        // Figure 5(b): would-drop accounting against the minBuff estimate.
        // Real evictions already updated avgAge through inner_call; they
        // also suppress the no-drop relief for this message.
        self.congestion.scan(
            self.inner.buffer(),
            self.min_buff.estimate() as usize,
            overflowed,
        );
        Vec::new()
    }

    /// The wrapped node's queue, which holds this layer's events too,
    /// pushed as they happen, so a drain keeps occurrence order.
    fn events(&mut self) -> &mut Vec<ProtocolEvent> {
        self.inner.events()
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.inner_call(|inner| inner.set_buffer_capacity(capacity, now));
        self.min_buff.set_own_capacity(capacity as u32);
    }

    fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.inner.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        Some(self.controller.rate())
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn avg_age(&self) -> Option<f64> {
        Some(self.congestion.avg_age())
    }

    fn avg_tokens(&self) -> Option<f64> {
        Some(self.avg_tokens.value())
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        Some(self.min_buff.estimate())
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.inner.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.inner.leave(now)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.inner.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, agb_profile::MemUsage)> {
        self.inner.mem_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CongestionConfig, MinBuffConfig, RateConfig};
    use crate::event::Event;
    use crate::header::GossipMessage;
    use crate::minbuff::BuffAd;
    use agb_membership::FullView;
    use agb_types::EventId;
    use rand::SeedableRng;

    fn adaptive(id: u32, gossip: GossipConfig, adapt: AdaptationConfig) -> AdaptiveNode<FullView> {
        AdaptiveNode::new(
            NodeId::new(id),
            gossip,
            adapt,
            FullView::new(8),
            DetRng::seed_from_u64(u64::from(id) + 7),
        )
    }

    fn default_adaptive(id: u32) -> AdaptiveNode<FullView> {
        adaptive(id, GossipConfig::default(), AdaptationConfig::default())
    }

    fn remote_msg(period: u64, min: u32, events: Vec<Event>) -> GossipFrame {
        GossipFrame::plain(GossipMessage {
            sender: NodeId::new(7),
            sample_period: period,
            min_buffs: vec![BuffAd {
                node: NodeId::new(7),
                capacity: min,
            }],
            events: events.into(),
            membership: Default::default(),
        })
    }

    #[test]
    fn outgoing_messages_carry_adaptive_header() {
        let mut n = default_adaptive(0);
        n.offer(Payload::new(), TimeMs::ZERO);
        let out = n.on_round(TimeMs::from_secs(1));
        assert!(!out.is_empty());
        for (_, frame) in &out {
            let msg = frame.expect_plain_gossip();
            assert!(msg.is_adaptive());
            assert_eq!(msg.min_buff(), Some(90));
        }
    }

    #[test]
    fn learns_min_buff_from_peers() {
        let mut n = default_adaptive(0);
        assert_eq!(n.min_buff.estimate(), 90);
        n.on_receive(NodeId::new(7), remote_msg(0, 45, vec![]), TimeMs::ZERO);
        assert_eq!(n.min_buff.estimate(), 45);
        // And re-advertises the learned minimum.
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(out[0].1.expect_plain_gossip().min_buff(), Some(45));
    }

    #[test]
    fn offer_admits_until_bucket_empty_then_queues() {
        let mut adapt = AdaptationConfig::default();
        adapt.initial_rate = 1.0;
        adapt.bucket_capacity = 2.0;
        let mut n = adaptive(0, GossipConfig::default(), adapt);
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
        n.on_round(TimeMs::from_secs(1));
        assert_eq!(n.pending_len(), 0);
    }

    #[test]
    fn congestion_decreases_allowed_rate() {
        let mut adapt = AdaptationConfig::default();
        adapt.initial_rate = 10.0;
        adapt.congestion = CongestionConfig {
            alpha: 0.0, // track samples immediately
            no_drop_relief: false,
        };
        adapt.rate = RateConfig {
            low_age: 4.0,
            high_age: 6.0,
            delta_dec: 0.5,
            ..RateConfig::default()
        };
        let mut gossip = GossipConfig::default();
        gossip.max_events = 10;
        let mut n = adaptive(0, gossip, adapt);
        // Keep the bucket busy so "unused allowance" never triggers.
        for _ in 0..50 {
            n.offer(Payload::new(), TimeMs::ZERO);
        }
        //

        // A peer claims minBuff = 2; our buffer holds young events, so the
        // would-drop ages are low -> congestion.
        let events: Vec<Event> = (0..6)
            .map(|s| Event::with_age(EventId::new(NodeId::new(7), s), 1, Payload::new()))
            .collect();
        n.on_receive(NodeId::new(7), remote_msg(0, 2, events), TimeMs::ZERO);
        assert!(n.congestion.avg_age() < 4.0);
        let before = n.allowed_rate().unwrap();
        n.on_round(TimeMs::from_secs(1));
        let after = n.allowed_rate().unwrap();
        assert!(after < before, "rate must drop: {before} -> {after}");
        // And the change was reported.
        let changed = n
            .drain_events()
            .iter()
            .any(|e| matches!(e, ProtocolEvent::RateChanged { .. }));
        assert!(changed);
    }

    #[test]
    fn unused_allowance_decays_rate() {
        let mut adapt = AdaptationConfig::default();
        adapt.initial_rate = 50.0;
        // avgAge stays at its (high) initial value: no congestion signal.
        let mut n = adaptive(0, GossipConfig::default(), adapt);
        // Never offer anything; the bucket fills and stays full.
        for s in 1..=30 {
            n.on_round(TimeMs::from_secs(s));
        }
        assert!(
            n.allowed_rate().unwrap() < 50.0,
            "idle sender must not keep its inflated allowance"
        );
    }

    #[test]
    fn headroom_with_busy_sender_increases_rate() {
        let mut adapt = AdaptationConfig::default();
        adapt.initial_rate = 2.0;
        adapt.rate = RateConfig {
            low_age: 4.0,
            high_age: 6.0,
            gamma: 1.0, // deterministic increases
            ..RateConfig::default()
        };
        // avgAge starts at 10 (> H). Keep the sender saturated.
        let mut n = adaptive(0, GossipConfig::default(), adapt);
        let mut now = TimeMs::ZERO;
        let mut last = 2.0;
        for s in 1..=20 {
            for _ in 0..10 {
                n.offer(Payload::new(), now);
            }
            now = TimeMs::from_secs(s);
            n.on_round(now);
            let r = n.allowed_rate().unwrap();
            assert!(r >= last, "rate should be non-decreasing: {last} -> {r}");
            last = r;
        }
        assert!(last > 2.0);
    }

    #[test]
    fn buffer_resize_propagates_to_estimator() {
        let mut n = default_adaptive(0);
        n.set_buffer_capacity(45, TimeMs::ZERO);
        assert_eq!(n.buffer_capacity(), 45);
        assert_eq!(n.min_buff.estimate(), 45);
        let out = n.on_round(TimeMs::from_secs(1));
        assert_eq!(out[0].1.expect_plain_gossip().min_buff(), Some(45));
    }

    #[test]
    fn period_rolls_over_on_the_local_clock() {
        let mut n = default_adaptive(0);
        // Default sample period: 6 s.
        n.on_round(TimeMs::from_secs(1));
        assert_eq!(n.min_buff.current_period(), 0);
        n.on_round(TimeMs::from_secs(6));
        assert_eq!(n.min_buff.current_period(), 1);
    }

    #[test]
    fn rate_change_drains_before_the_same_rounds_age_cap_drop() {
        let mut adapt = AdaptationConfig::default();
        // avgAge starts at 10, below L: the first round lowers the rate.
        adapt.rate.low_age = 20.0;
        adapt.rate.high_age = 30.0;
        let mut n = adaptive(0, GossipConfig::default(), adapt);
        let cap = GossipConfig::default().age_cap;
        // An event at the age cap: the next round ages it past the cap.
        let old = Event::with_age(EventId::new(NodeId::new(7), 0), cap, Payload::new());
        n.on_receive(NodeId::new(7), remote_msg(0, 90, vec![old]), TimeMs::ZERO);
        n.drain_events();
        // The round at 1 s retunes the rate (step 4), then purges the
        // capped event (step 5).
        n.on_round(TimeMs::from_secs(1));
        let events = n.drain_events();
        let at = |pred: fn(&ProtocolEvent) -> bool| events.iter().position(pred);
        let changed = at(|e| matches!(e, ProtocolEvent::RateChanged { .. }));
        let dropped = at(|e| {
            matches!(
                e,
                ProtocolEvent::Dropped {
                    reason: crate::buffer::PurgeReason::AgeCap,
                    ..
                }
            )
        });
        assert!(changed.is_some() && dropped.is_some(), "{events:?}");
        assert!(changed < dropped, "occurrence order: {events:?}");
    }

    #[test]
    fn adopts_later_period_from_message() {
        let mut n = default_adaptive(0);
        n.on_receive(NodeId::new(7), remote_msg(5, 60, vec![]), TimeMs::ZERO);
        assert_eq!(n.min_buff.current_period(), 5);
    }

    #[test]
    fn stale_min_expires_after_window() {
        let mut adapt = AdaptationConfig::default();
        adapt.min_buff = MinBuffConfig {
            window: 2,
            ..MinBuffConfig::default()
        };
        let mut n = adaptive(0, GossipConfig::default(), adapt);
        n.on_receive(NodeId::new(7), remote_msg(0, 45, vec![]), TimeMs::ZERO);
        assert_eq!(n.min_buff.estimate(), 45);
        // Periods 1 and 2 arrive with no 45-advertisement.
        n.on_receive(NodeId::new(7), remote_msg(1, 90, vec![]), TimeMs::ZERO);
        assert_eq!(n.min_buff.estimate(), 45, "still within window");
        n.on_receive(NodeId::new(7), remote_msg(2, 90, vec![]), TimeMs::ZERO);
        assert_eq!(n.min_buff.estimate(), 90, "stale minimum expired");
    }

    #[test]
    fn baseline_messages_do_not_disturb_estimator() {
        let mut n = default_adaptive(0);
        let baseline = GossipMessage {
            sender: NodeId::new(3),
            sample_period: 0,
            min_buffs: vec![],
            events: Default::default(),
            membership: Default::default(),
        };
        n.on_receive(NodeId::new(3), GossipFrame::plain(baseline), TimeMs::ZERO);
        assert_eq!(n.min_buff.estimate(), 90);
    }

    #[test]
    fn drain_merges_inner_and_adaptive_events() {
        let mut adapt = AdaptationConfig::default();
        // avgAge starts at 10, below L: the first round lowers the rate.
        adapt.rate.low_age = 20.0;
        adapt.rate.high_age = 30.0;
        let mut n = adaptive(0, GossipConfig::default(), adapt);
        n.offer(Payload::new(), TimeMs::ZERO);
        n.on_round(TimeMs::from_secs(1));
        let events = n.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::Delivered { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::RateChanged { .. })));
        assert!(n.drain_events().is_empty());
    }
}
