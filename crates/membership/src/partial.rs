//! lpbcast-style partial membership view.
//!
//! Each node keeps a bounded random subset of the group (`view`), plus two
//! bounded buffers of recent membership events (`subs`, `unsubs`) that it
//! piggybacks on outgoing gossip. Receiving a digest merges it in with
//! random eviction, so views stay size-bounded while remaining connected
//! with high probability.

use agb_types::{DetRng, NodeId};
use rand::seq::index;
use rand::RngExt;

use crate::digest::{MembershipDigest, Unsubscription};
use crate::sampler::PeerSampler;

/// Bounded partial view with subscription gossip (lpbcast §"membership").
///
/// Its bounds are lpbcast-like constants for groups of a few hundred
/// nodes: [`MAX_VIEW`](Self::MAX_VIEW) peers,
/// [`MAX_SUBS`](Self::MAX_SUBS) and [`MAX_UNSUBS`](Self::MAX_UNSUBS)
/// buffered (un)subscriptions, [`DIGEST_SUBS`](Self::DIGEST_SUBS) and
/// [`DIGEST_UNSUBS`](Self::DIGEST_UNSUBS) of them per digest, and
/// [`UNSUB_TTL`](Self::UNSUB_TTL) rounds of life for a departure rumor.
///
/// # Example
///
/// ```
/// use agb_membership::{MembershipDigest, PartialView, PeerSampler};
/// use agb_types::{DetRng, NodeId};
/// use rand::SeedableRng;
///
/// let mut rng = DetRng::seed_from_u64(4);
/// let mut view = PartialView::new(NodeId::new(0));
/// view.merge_digest(
///     &MembershipDigest { subs: vec![NodeId::new(1), NodeId::new(2)], unsubs: vec![] },
///     &mut rng,
/// );
/// assert_eq!(view.view_size(), 2);
/// let digest = view.make_digest(&mut rng);
/// assert!(!digest.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PartialView {
    self_id: NodeId,
    view: Vec<NodeId>,
    subs: Vec<NodeId>,
    unsubs: Vec<Unsubscription>,
}

impl PartialView {
    /// Maximum number of peers in the view.
    pub const MAX_VIEW: usize = 30;
    /// Maximum number of buffered subscriptions.
    pub const MAX_SUBS: usize = 20;
    /// Maximum number of buffered unsubscriptions.
    pub const MAX_UNSUBS: usize = 20;
    /// Subscriptions piggybacked per gossip message, the node's own
    /// included.
    pub const DIGEST_SUBS: usize = 5;
    /// Unsubscriptions piggybacked per gossip message.
    pub const DIGEST_UNSUBS: usize = 5;
    /// Lifetime of an unsubscription rumor this node starts, in gossip
    /// rounds. The remaining TTL travels on the wire and every holder ages
    /// it per round, so the rumor is globally extinct after at most this
    /// many rounds — long enough to inform the group, short enough that a
    /// rejoining node is not ghost-evicted forever.
    pub const UNSUB_TTL: u32 = 10;

    /// Creates an empty view for `self_id`.
    pub fn new(self_id: NodeId) -> Self {
        PartialView {
            self_id,
            view: Vec::new(),
            subs: Vec::new(),
            unsubs: Vec::new(),
        }
    }

    /// Creates a view pre-seeded with known peers (bootstrap/contact list).
    pub fn with_initial_peers(
        self_id: NodeId,
        peers: impl IntoIterator<Item = NodeId>,
        rng: &mut DetRng,
    ) -> Self {
        let mut pv = PartialView::new(self_id);
        for p in peers {
            pv.add_to_view(p, rng);
        }
        pv
    }

    /// The node's own id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    fn add_to_subs(&mut self, node: NodeId, rng: &mut DetRng) {
        if self.subs.contains(&node) {
            return;
        }
        if self.subs.len() >= Self::MAX_SUBS {
            let evict = rng.random_range(0..self.subs.len());
            self.subs.swap_remove(evict);
        }
        self.subs.push(node);
    }

    fn add_to_view(&mut self, node: NodeId, rng: &mut DetRng) {
        if node == self.self_id || self.view.contains(&node) {
            return;
        }
        if self.view.len() >= Self::MAX_VIEW {
            // Evict a random peer but keep it circulating via subs, as in
            // lpbcast: eviction must not silently forget live members.
            let evict = rng.random_range(0..self.view.len());
            let evicted = self.view.swap_remove(evict);
            self.add_to_subs(evicted, rng);
        }
        self.view.push(node);
    }

    /// Records that `node` has (re-)joined: goes into the view and the
    /// subscription buffer for further propagation.
    pub fn observe_subscription(&mut self, node: NodeId, rng: &mut DetRng) {
        if node == self.self_id {
            return;
        }
        self.unsubs.retain(|u| u.node != node);
        self.add_to_view(node, rng);
        self.add_to_subs(node, rng);
    }

    /// Records a locally-observed departure of `node` (graceful leave or
    /// failure-detector eviction): removed from view/subs, buffered in
    /// unsubs with a fresh TTL for further propagation.
    pub fn observe_unsubscription(&mut self, node: NodeId, rng: &mut DetRng) {
        self.observe_unsubscription_with_ttl(node, Self::UNSUB_TTL, rng);
    }

    fn observe_unsubscription_with_ttl(&mut self, node: NodeId, ttl: u32, rng: &mut DetRng) {
        self.view.retain(|&v| v != node);
        self.subs.retain(|&s| s != node);
        if ttl == 0 {
            return;
        }
        if let Some(existing) = self.unsubs.iter_mut().find(|u| u.node == node) {
            // Both copies descend from rumors with a bounded global
            // budget; keeping the larger remaining TTL is safe and avoids
            // double-buffering.
            existing.ttl = existing.ttl.max(ttl);
            return;
        }
        if self.unsubs.len() >= Self::MAX_UNSUBS {
            let evict = rng.random_range(0..self.unsubs.len());
            self.unsubs.swap_remove(evict);
        }
        self.unsubs.push(Unsubscription { node, ttl });
    }

    /// Merges a digest received in a gossip message.
    ///
    /// The gossip *sender* is handled separately via
    /// [`PartialView::observe_sender`].
    pub fn merge_digest(&mut self, digest: &MembershipDigest, rng: &mut DetRng) {
        for u in &digest.unsubs {
            if u.node != self.self_id && u.ttl > 0 {
                self.observe_unsubscription_with_ttl(u.node, u.ttl, rng);
            }
        }
        for &s in &digest.subs {
            self.observe_subscription(s, rng);
        }
    }

    /// Notes that we heard from `sender` directly — direct evidence of
    /// liveness, so it enters the view; a buffered unsubscription for the
    /// sender is stale by definition (rejoin after eviction/leave) and is
    /// dropped rather than re-propagated.
    pub fn observe_sender(&mut self, sender: NodeId, rng: &mut DetRng) {
        self.unsubs.retain(|u| u.node != sender);
        self.add_to_view(sender, rng);
    }

    /// Ages the unsubscription buffer by one gossip round, expiring spent
    /// rumors. Called once per round by the hosting protocol.
    pub fn on_round(&mut self) {
        for u in &mut self.unsubs {
            u.ttl = u.ttl.saturating_sub(1);
        }
        self.unsubs.retain(|u| u.ttl > 0);
    }

    /// Builds the digest to piggyback on an outgoing gossip message:
    /// random bounded subsets of the subs/unsubs buffers, always including
    /// the node itself as a subscription (keeping itself known).
    pub fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        let mut subs = sample_subset(&self.subs, Self::DIGEST_SUBS - 1, rng);
        subs.push(self.self_id);
        let unsubs = sample_unsubs(&self.unsubs, Self::DIGEST_UNSUBS, rng);
        MembershipDigest { subs, unsubs }
    }

    /// The farewell digest of a gracefully leaving node: its own
    /// unsubscription with a full TTL.
    pub fn make_leave_digest(&self) -> MembershipDigest {
        MembershipDigest {
            subs: Vec::new(),
            unsubs: vec![Unsubscription {
                node: self.self_id,
                ttl: Self::UNSUB_TTL,
            }],
        }
    }

    /// The buffered subscriptions (test/diagnostic access).
    pub fn subs(&self) -> &[NodeId] {
        &self.subs
    }

    /// The buffered unsubscriptions (test/diagnostic access).
    pub fn unsubs(&self) -> &[Unsubscription] {
        &self.unsubs
    }

    /// Whether an unsubscription rumor for `node` is currently buffered.
    pub fn has_unsub(&self, node: NodeId) -> bool {
        self.unsubs.iter().any(|u| u.node == node)
    }
}

fn sample_subset(list: &[NodeId], amount: usize, rng: &mut DetRng) -> Vec<NodeId> {
    if list.is_empty() || amount == 0 {
        return Vec::new();
    }
    let amount = amount.min(list.len());
    index::sample(rng, list.len(), amount)
        .iter()
        .map(|i| list[i])
        .collect()
}

fn sample_unsubs(list: &[Unsubscription], amount: usize, rng: &mut DetRng) -> Vec<Unsubscription> {
    if list.is_empty() || amount == 0 {
        return Vec::new();
    }
    let amount = amount.min(list.len());
    index::sample(rng, list.len(), amount)
        .iter()
        .map(|i| list[i])
        .collect()
}

impl agb_profile::MemReport for PartialView {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        let id = std::mem::size_of::<NodeId>();
        let bytes = (self.view.len() + self.subs.len()) * id
            + self.unsubs.len() * std::mem::size_of::<Unsubscription>();
        agb_profile::MemUsage::new(
            bytes as u64,
            (self.view.len() + self.subs.len() + self.unsubs.len()) as u64,
        )
    }
}

impl PeerSampler for PartialView {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = self
            .view
            .iter()
            .copied()
            .filter(|&m| m != exclude)
            .collect();
        if candidates.is_empty() || fanout == 0 {
            return Vec::new();
        }
        let amount = fanout.min(candidates.len());
        index::sample(rng, candidates.len(), amount)
            .iter()
            .map(|i| candidates[i])
            .collect()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.view.contains(&node)
    }

    fn view_size(&self) -> usize {
        self.view.len()
    }

    fn view(&self) -> Vec<NodeId> {
        self.view.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(17)
    }

    #[test]
    fn view_is_bounded_under_merge_storm() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        for i in 1..500u32 {
            pv.merge_digest(
                &MembershipDigest {
                    subs: vec![NodeId::new(i)],
                    unsubs: vec![],
                },
                &mut r,
            );
            assert!(pv.view_size() <= PartialView::MAX_VIEW);
            assert!(pv.subs().len() <= PartialView::MAX_SUBS);
        }
        assert_eq!(pv.view_size(), PartialView::MAX_VIEW);
        assert_eq!(pv.subs().len(), PartialView::MAX_SUBS);
    }

    #[test]
    fn never_contains_self() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(3));
        pv.merge_digest(
            &MembershipDigest {
                subs: vec![NodeId::new(3), NodeId::new(4)],
                unsubs: vec![],
            },
            &mut r,
        );
        assert!(!pv.contains(NodeId::new(3)));
        assert!(pv.contains(NodeId::new(4)));
    }

    #[test]
    fn unsubscription_removes_from_view_and_subs() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        pv.observe_subscription(NodeId::new(5), &mut r);
        assert!(pv.contains(NodeId::new(5)));
        pv.observe_unsubscription(NodeId::new(5), &mut r);
        assert!(!pv.contains(NodeId::new(5)));
        assert!(!pv.subs().contains(&NodeId::new(5)));
        assert!(pv.has_unsub(NodeId::new(5)));
    }

    #[test]
    fn resubscription_clears_unsub_state() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        pv.observe_unsubscription(NodeId::new(7), &mut r);
        assert!(pv.has_unsub(NodeId::new(7)));
        pv.observe_subscription(NodeId::new(7), &mut r);
        assert!(pv.contains(NodeId::new(7)));
        assert!(!pv.has_unsub(NodeId::new(7)));
    }

    #[test]
    fn digest_includes_self_and_respects_bounds() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(9));
        for i in 0..8u32 {
            pv.observe_subscription(NodeId::new(i), &mut r);
        }
        for i in 20..28u32 {
            pv.observe_unsubscription(NodeId::new(i), &mut r);
        }
        let d = pv.make_digest(&mut r);
        assert!(d.subs.contains(&NodeId::new(9)));
        assert!(d.subs.len() <= PartialView::DIGEST_SUBS);
        assert!(d.unsubs.len() <= PartialView::DIGEST_UNSUBS);
    }

    #[test]
    fn eviction_moves_peer_to_subs_buffer() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        let peers = 1..=PartialView::MAX_VIEW as u32 + 1;
        for i in peers.clone() {
            pv.observe_sender(NodeId::new(i), &mut r);
        }
        assert_eq!(pv.view_size(), PartialView::MAX_VIEW);
        // The evicted peer keeps circulating through subs.
        let total: Vec<NodeId> = pv
            .view()
            .into_iter()
            .chain(pv.subs().iter().copied())
            .collect();
        for id in peers.map(NodeId::new) {
            assert!(total.contains(&id), "{id} lost entirely");
        }
    }

    #[test]
    fn sample_draws_from_view_only() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        for i in 1..=5u32 {
            pv.observe_sender(NodeId::new(i), &mut r);
        }
        for _ in 0..50 {
            let s = pv.sample(&mut r, 3, NodeId::new(0));
            assert_eq!(s.len(), 3);
            for p in &s {
                assert!(pv.contains(*p));
            }
        }
    }

    #[test]
    fn with_initial_peers_bootstrap() {
        let mut r = rng();
        let pv =
            PartialView::with_initial_peers(NodeId::new(0), (1..=4u32).map(NodeId::new), &mut r);
        assert_eq!(pv.view_size(), 4);
        assert_eq!(pv.self_id(), NodeId::new(0));
    }

    #[test]
    fn merge_ignores_self_unsub() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(1));
        pv.merge_digest(
            &MembershipDigest {
                subs: vec![],
                unsubs: vec![Unsubscription {
                    node: NodeId::new(1),
                    ttl: 5,
                }],
            },
            &mut r,
        );
        assert!(pv.unsubs().is_empty());
    }

    #[test]
    fn unsub_ttl_ages_out_and_relays_remaining_budget() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        pv.observe_unsubscription(NodeId::new(5), &mut r);
        assert_eq!(pv.unsubs()[0].ttl, PartialView::UNSUB_TTL);
        for expected in (1..PartialView::UNSUB_TTL).rev() {
            pv.on_round();
            assert_eq!(pv.unsubs()[0].ttl, expected, "ttl decrements per round");
            // Relayed digests carry the *remaining* budget, not a fresh one.
            let d = pv.make_digest(&mut r);
            assert!(d.unsubs.iter().all(|u| u.ttl == expected));
        }
        pv.on_round();
        assert!(pv.unsubs().is_empty(), "rumor expired");
    }

    #[test]
    fn merged_unsub_keeps_incoming_budget() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        pv.merge_digest(
            &MembershipDigest {
                subs: vec![],
                unsubs: vec![Unsubscription {
                    node: NodeId::new(3),
                    ttl: 4,
                }],
            },
            &mut r,
        );
        assert_eq!(pv.unsubs()[0].ttl, 4, "no TTL refresh on relay");
        // A zero-TTL rumor is dead on arrival: not buffered, not applied.
        pv.observe_sender(NodeId::new(6), &mut r);
        pv.merge_digest(
            &MembershipDigest {
                subs: vec![],
                unsubs: vec![Unsubscription {
                    node: NodeId::new(6),
                    ttl: 0,
                }],
            },
            &mut r,
        );
        assert!(pv.contains(NodeId::new(6)));
        assert!(!pv.has_unsub(NodeId::new(6)));
    }

    #[test]
    fn direct_contact_clears_stale_unsub() {
        let mut r = rng();
        let mut pv = PartialView::new(NodeId::new(0));
        pv.observe_unsubscription(NodeId::new(4), &mut r);
        assert!(pv.has_unsub(NodeId::new(4)));
        // The "departed" node gossips to us directly: the rumor is stale.
        pv.observe_sender(NodeId::new(4), &mut r);
        assert!(pv.contains(NodeId::new(4)));
        assert!(!pv.has_unsub(NodeId::new(4)));
    }
}
