//! Peer sampling with piggybacked membership gossip.

use agb_types::{DetRng, NodeId};

use crate::digest::MembershipDigest;
use crate::full::FullView;
use crate::partial::PartialView;
use crate::sampler::PeerSampler;

/// A peer sampler that also produces/consumes the membership digests
/// piggybacked on gossip messages.
///
/// [`FullView`] uses the default no-op implementations (closed group);
/// [`PartialView`] implements real lpbcast subscription gossip. Every
/// implementation reports its own resident footprint, which protocols
/// forward as their `membership_view` memory row.
pub trait GossipMembership: PeerSampler + agb_profile::MemReport {
    /// Builds the digest to attach to an outgoing gossip message.
    fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        let _ = rng;
        MembershipDigest::default()
    }

    /// Ingests the digest (and the sender's liveness) from a received
    /// gossip message.
    fn observe_gossip(&mut self, sender: NodeId, digest: &MembershipDigest, rng: &mut DetRng) {
        let _ = (sender, digest, rng);
    }

    /// Evicts a peer believed dead: removed from the view and propagated
    /// as an unsubscription so the rest of the group forgets it too.
    ///
    /// Static views ([`FullView`]) ignore this — the closed-group
    /// experiments model crashed nodes as silent, not departed.
    fn evict(&mut self, node: NodeId, rng: &mut DetRng) {
        let _ = (node, rng);
    }

    /// Hook called once per gossip round (ages unsubscription rumors on
    /// partial views; no-op for static views).
    fn on_round(&mut self) {}

    /// The digest announcing this node's own graceful departure (empty
    /// for static views).
    fn make_leave_digest(&self) -> MembershipDigest {
        MembershipDigest::default()
    }
}

impl GossipMembership for FullView {}

impl GossipMembership for PartialView {
    fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        PartialView::make_digest(self, rng)
    }

    fn observe_gossip(&mut self, sender: NodeId, digest: &MembershipDigest, rng: &mut DetRng) {
        self.observe_sender(sender, rng);
        self.merge_digest(digest, rng);
    }

    fn evict(&mut self, node: NodeId, rng: &mut DetRng) {
        self.observe_unsubscription(node, rng);
    }

    fn on_round(&mut self) {
        PartialView::on_round(self);
    }

    fn make_leave_digest(&self) -> MembershipDigest {
        PartialView::make_leave_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartialViewConfig;
    use rand::SeedableRng;

    #[test]
    fn full_view_digest_is_empty() {
        let view = FullView::new(5);
        let mut rng = DetRng::seed_from_u64(0);
        assert!(view.make_digest(&mut rng).is_empty());
    }

    #[test]
    fn evict_removes_and_propagates_on_partial_views() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut view = PartialView::new(NodeId::new(0), PartialViewConfig::default());
        view.observe_sender(NodeId::new(3), &mut rng);
        assert!(view.contains(NodeId::new(3)));
        GossipMembership::evict(&mut view, NodeId::new(3), &mut rng);
        assert!(!view.contains(NodeId::new(3)));
        assert!(view.has_unsub(NodeId::new(3)));
        // Full views are static: eviction is a no-op.
        let mut full = FullView::new(4);
        GossipMembership::evict(&mut full, NodeId::new(3), &mut rng);
        assert!(full.contains(NodeId::new(3)));
    }

    #[test]
    fn partial_view_learns_from_gossip() {
        let mut rng = DetRng::seed_from_u64(0);
        let mut view = PartialView::new(NodeId::new(0), PartialViewConfig::default());
        let digest = MembershipDigest {
            subs: vec![NodeId::new(2)],
            unsubs: vec![],
        };
        view.observe_gossip(NodeId::new(1), &digest, &mut rng);
        // Learned both the sender and the subscription.
        assert!(view.contains(NodeId::new(1)));
        assert!(view.contains(NodeId::new(2)));
        // And will re-gossip itself in its own digest.
        let d = GossipMembership::make_digest(&view, &mut rng);
        assert!(d.subs.contains(&NodeId::new(0)));
    }
}
