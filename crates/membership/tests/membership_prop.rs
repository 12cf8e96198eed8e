//! Property-based tests of the membership services.

use agb_membership::{
    FullView, GossipMembership, MembershipDigest, PartialView, PeerSampler, Unsubscription,
};
use agb_types::{DetRng, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    /// Full-view samples are distinct, never the caller, and of the
    /// requested size (when enough candidates exist).
    #[test]
    fn full_view_sample_contract(
        n in 1usize..64,
        fanout in 0usize..16,
        caller in 0u32..64,
        seed in any::<u64>(),
    ) {
        let view = FullView::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let caller = NodeId::new(caller % n.max(1) as u32);
        let sample = view.sample(&mut rng, fanout, caller);
        let expect = fanout.min(n.saturating_sub(1));
        prop_assert_eq!(sample.len(), expect);
        prop_assert!(!sample.contains(&caller));
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), expect);
    }

    /// Partial views never exceed their bounds and never contain self,
    /// under arbitrary interleavings of subscriptions, unsubscriptions,
    /// evictions, round aging and digest merges (randomized
    /// join/leave/eviction sequences). Three times as many node ids as
    /// the view holds drive every buffer to its bound.
    #[test]
    fn partial_view_invariants(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..5, 0u32..96, 1u32..11), 0..240),
    ) {
        let me = NodeId::new(99);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(me);
        for (op, node, ttl) in ops {
            let node = NodeId::new(node);
            match op {
                0 => view.observe_subscription(node, &mut rng),
                1 => view.observe_unsubscription(node, &mut rng),
                2 => GossipMembership::evict(&mut view, node, &mut rng),
                3 => view.on_round(),
                _ => view.observe_gossip(
                    node,
                    &MembershipDigest {
                        subs: vec![node, me],
                        unsubs: vec![Unsubscription { node: NodeId::new(node.as_u32() / 2), ttl }],
                    },
                    &mut rng,
                ),
            }
            prop_assert!(view.view_size() <= PartialView::MAX_VIEW);
            prop_assert!(!view.contains(me), "view must never contain self");
            prop_assert!(view.subs().len() <= PartialView::MAX_SUBS);
            prop_assert!(view.unsubs().len() <= PartialView::MAX_UNSUBS);
            // Unsub rumors never outlive their TTL budget and never name
            // self.
            for u in view.unsubs() {
                prop_assert!(u.ttl >= 1 && u.ttl <= PartialView::UNSUB_TTL);
                prop_assert!(u.node != me);
            }
            // subs/unsubs are disjoint.
            for s in view.subs() {
                prop_assert!(!view.has_unsub(*s));
            }
            // Nothing unsubscribed can linger in the view.
            for u in view.unsubs() {
                prop_assert!(!view.contains(u.node));
            }
        }
    }

    /// A stable joiner that keeps gossiping is eventually included: no
    /// randomized prefix of join/leave/evict churn can lock it out
    /// forever, because direct liveness evidence clears stale rumors and
    /// unsub TTLs expire. The view starts full of other peers, so the
    /// joiner also has to win a slot.
    #[test]
    fn stable_joiner_is_eventually_included(
        seed in any::<u64>(),
        churn in proptest::collection::vec((0u8..3, 0u32..16), 0..60),
    ) {
        let me = NodeId::new(99);
        let joiner = NodeId::new(7);
        let mut rng = DetRng::seed_from_u64(seed);
        let others = (100..100 + PartialView::MAX_VIEW as u32).map(NodeId::new);
        let mut view = PartialView::with_initial_peers(me, others, &mut rng);
        prop_assert_eq!(view.view_size(), PartialView::MAX_VIEW);
        // Arbitrary churn, including evictions of the joiner itself.
        for (op, node) in churn {
            let node = NodeId::new(node);
            match op {
                0 => view.observe_subscription(node, &mut rng),
                1 => view.observe_unsubscription(node, &mut rng),
                _ => GossipMembership::evict(&mut view, node, &mut rng),
            }
        }
        // The joiner then gossips to us for enough rounds to outlive every
        // rumor; each round we also age buffers as the protocol does.
        let digest = MembershipDigest { subs: vec![joiner], unsubs: vec![] };
        for _ in 0..=PartialView::UNSUB_TTL {
            view.on_round();
            view.observe_gossip(joiner, &digest, &mut rng);
        }
        prop_assert!(
            view.contains(joiner),
            "stable joiner locked out: view {:?}, unsubs {:?}",
            view.view(),
            view.unsubs()
        );
        prop_assert!(!view.has_unsub(joiner));
    }

    /// Unsubscription rumors die: after `UNSUB_TTL` rounds with no fresh
    /// evidence, the buffer is empty regardless of the churn prefix.
    #[test]
    fn unsub_rumors_expire_within_ttl(
        seed in any::<u64>(),
        departures in proptest::collection::vec(0u32..32, 1..16),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(NodeId::new(99));
        for d in departures {
            view.observe_unsubscription(NodeId::new(d), &mut rng);
        }
        for _ in 0..PartialView::UNSUB_TTL {
            view.on_round();
        }
        prop_assert!(view.unsubs().is_empty(), "rumors survived their TTL");
    }

    /// Digests are bounded and always re-advertise the owner.
    #[test]
    fn digest_contract(
        seed in any::<u64>(),
        subs in proptest::collection::vec(0u32..64, 0..20),
    ) {
        let me = NodeId::new(1_000);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(me);
        for s in subs {
            view.observe_subscription(NodeId::new(s), &mut rng);
        }
        let digest = PartialView::make_digest(&view, &mut rng);
        prop_assert!(digest.subs.len() <= PartialView::DIGEST_SUBS);
        prop_assert!(digest.unsubs.len() <= PartialView::DIGEST_UNSUBS);
        prop_assert!(digest.subs.contains(&me));
    }
}
