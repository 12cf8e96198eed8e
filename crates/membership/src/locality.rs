//! Locality-biased peer sampling over a topology hint.

use agb_types::{bernoulli, DetRng, NodeId};
use rand::RngExt;

use crate::digest::MembershipDigest;
use crate::gossiper::GossipMembership;
use crate::sampler::PeerSampler;

/// A peer sampler that prefers topology neighbours, with a tunable uniform
/// escape hatch.
///
/// Wraps any inner membership view `S` and a static neighbour list (a row
/// of [`agb_types::Topology`]). Each of the `fanout` draws picks a
/// neighbour still present in the inner view — except with probability
/// `escape`, when it draws uniformly from the whole view instead. The
/// escape hatch is what keeps partial views from ossifying into the
/// overlay: even a fully clustered topology keeps a trickle of long-range
/// gossip, the small-world shortcut that bounds dissemination latency.
///
/// Boundary behaviour:
///
/// - **Empty neighbour set** (or none of the neighbours in the view):
///   every call falls back to plain uniform sampling over the inner view.
/// - **`escape = 0.0`**: draws are neighbours only; when fewer than
///   `fanout` usable neighbours exist the call returns fewer peers rather
///   than padding with strangers.
/// - **`escape = 1.0`**: delegates to the inner sampler outright — draw
///   for draw identical to the unwrapped view.
///
/// Like every [`PeerSampler`], a call never returns the excluded node or a
/// duplicate.
///
/// # Example
///
/// ```
/// use agb_membership::{FullView, LocalitySampler, PeerSampler};
/// use agb_types::topology::Topology;
/// use agb_types::{DetRng, NodeId};
/// use rand::SeedableRng;
///
/// let grid = Topology::grid(4, 4);
/// let me = NodeId::new(5);
/// let sampler = LocalitySampler::new(
///     FullView::new(16),
///     grid.neighbors(me).to_vec(),
///     0.0, // fully biased
/// );
/// let mut rng = DetRng::seed_from_u64(7);
/// let peers = sampler.sample(&mut rng, 3, me);
/// assert!(!peers.is_empty());
/// for p in &peers {
///     assert!(grid.neighbors(me).contains(p));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LocalitySampler<S> {
    inner: S,
    neighbors: Vec<NodeId>,
    escape: f64,
}

impl<S> LocalitySampler<S> {
    /// Wraps `inner` with a neighbour bias.
    ///
    /// `escape` is clamped to `[0, 1]`; the neighbour list is sorted and
    /// deduplicated.
    pub fn new(inner: S, mut neighbors: Vec<NodeId>, escape: f64) -> Self {
        neighbors.sort();
        neighbors.dedup();
        LocalitySampler {
            inner,
            neighbors,
            escape: escape.clamp(0.0, 1.0),
        }
    }

    /// The wrapped membership view.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The topology neighbour list the bias draws from.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The uniform escape-hatch probability.
    pub fn escape(&self) -> f64 {
        self.escape
    }
}

impl<S: PeerSampler> PeerSampler for LocalitySampler<S> {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        if self.escape >= 1.0 {
            return self.inner.sample(rng, fanout, exclude);
        }
        // The usable local pool: neighbours that are alive in the inner
        // view. Membership changes (eviction, churn) are honoured here
        // without mutating the static topology row.
        let mut local: Vec<NodeId> = self
            .neighbors
            .iter()
            .copied()
            .filter(|&p| p != exclude && self.inner.contains(p))
            .collect();
        if local.is_empty() || fanout == 0 {
            return self.inner.sample(rng, fanout, exclude);
        }
        let mut picked = Vec::with_capacity(fanout.min(local.len()));
        // Built lazily: most draws at small escape never touch it, and for
        // large views materialising it is the expensive part.
        let mut uniform: Option<Vec<NodeId>> = None;
        for _ in 0..fanout {
            let mut go_uniform = bernoulli(rng, self.escape);
            if !go_uniform && local.is_empty() {
                if self.escape <= 0.0 {
                    break; // fully biased: no padding with strangers
                }
                go_uniform = true;
            }
            if go_uniform {
                let pool = uniform.get_or_insert_with(|| {
                    self.inner
                        .view()
                        .into_iter()
                        .filter(|&p| p != exclude && !picked.contains(&p))
                        .collect()
                });
                if pool.is_empty() {
                    if local.is_empty() {
                        break;
                    }
                    go_uniform = false;
                }
            }
            let pick = if go_uniform {
                let pool = uniform.as_mut().expect("uniform pool built");
                let i = rng.random_range(0..pool.len());
                pool.swap_remove(i)
            } else {
                let i = rng.random_range(0..local.len());
                local.swap_remove(i)
            };
            picked.push(pick);
            // A pick leaves both pools: neighbours are also members of the
            // uniform view, and vice versa.
            local.retain(|&p| p != pick);
            if let Some(pool) = uniform.as_mut() {
                pool.retain(|&p| p != pick);
            }
        }
        picked
    }

    fn contains(&self, node: NodeId) -> bool {
        self.inner.contains(node)
    }

    fn view_size(&self) -> usize {
        self.inner.view_size()
    }

    fn view(&self) -> Vec<NodeId> {
        self.inner.view()
    }
}

impl<S: agb_profile::MemReport> agb_profile::MemReport for LocalitySampler<S> {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        let mut usage = self.inner.mem_usage();
        usage.add(agb_profile::MemUsage::new(
            (self.neighbors.len() * std::mem::size_of::<NodeId>()) as u64,
            self.neighbors.len() as u64,
        ));
        usage
    }
}

impl<S: GossipMembership> GossipMembership for LocalitySampler<S> {
    fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        self.inner.make_digest(rng)
    }

    fn observe_gossip(&mut self, sender: NodeId, digest: &MembershipDigest, rng: &mut DetRng) {
        self.inner.observe_gossip(sender, digest, rng);
    }

    fn evict(&mut self, node: NodeId, rng: &mut DetRng) {
        self.inner.evict(node, rng);
    }

    fn on_round(&mut self) {
        self.inner.on_round();
    }

    fn make_leave_digest(&self) -> MembershipDigest {
        self.inner.make_leave_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullView;
    use agb_types::topology::Topology;
    use rand::SeedableRng;

    fn grid_sampler(escape: f64) -> (LocalitySampler<FullView>, NodeId, Vec<NodeId>) {
        let topo = Topology::grid(4, 4);
        let me = NodeId::new(5);
        let neighbors = topo.neighbors(me).to_vec();
        let s = LocalitySampler::new(FullView::new(16), neighbors.clone(), escape);
        (s, me, neighbors)
    }

    #[test]
    fn empty_neighbour_set_falls_back_to_uniform() {
        let s = LocalitySampler::new(FullView::new(10), Vec::new(), 0.0);
        let mut rng = DetRng::seed_from_u64(3);
        let mut uniform_rng = DetRng::seed_from_u64(3);
        let got = s.sample(&mut rng, 4, NodeId::new(0));
        let want = FullView::new(10).sample(&mut uniform_rng, 4, NodeId::new(0));
        assert_eq!(got, want, "empty neighbour set must be draw-identical");
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn neighbours_outside_view_fall_back_to_uniform() {
        // All listed neighbours are strangers to the inner view.
        let s = LocalitySampler::new(
            FullView::new(4),
            vec![NodeId::new(100), NodeId::new(101)],
            0.0,
        );
        let mut rng = DetRng::seed_from_u64(1);
        let got = s.sample(&mut rng, 2, NodeId::new(0));
        assert_eq!(got.len(), 2);
        for p in got {
            assert!(p.index() < 4);
        }
    }

    #[test]
    fn escape_zero_returns_only_neighbours() {
        let (s, me, neighbors) = grid_sampler(0.0);
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..100 {
            let picks = s.sample(&mut rng, 3, me);
            assert!(!picks.is_empty());
            for p in &picks {
                assert!(neighbors.contains(p), "{p} is not a grid neighbour");
            }
        }
        // Fanout beyond the neighbourhood truncates instead of padding.
        let picks = s.sample(&mut rng, 10, me);
        assert_eq!(picks.len(), neighbors.len());
    }

    #[test]
    fn escape_one_is_draw_identical_to_uniform() {
        let (s, me, _) = grid_sampler(1.0);
        let mut rng = DetRng::seed_from_u64(21);
        let mut uniform_rng = DetRng::seed_from_u64(21);
        for _ in 0..50 {
            let got = s.sample(&mut rng, 4, me);
            let want = FullView::new(16).sample(&mut uniform_rng, 4, me);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let (s, me, _) = grid_sampler(0.3);
        let runs: Vec<Vec<Vec<NodeId>>> = (0..2)
            .map(|_| {
                let mut rng = DetRng::seed_from_u64(77);
                (0..20).map(|_| s.sample(&mut rng, 4, me)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        // And a different seed diverges.
        let mut other = DetRng::seed_from_u64(78);
        let diverged: Vec<Vec<NodeId>> = (0..20).map(|_| s.sample(&mut other, 4, me)).collect();
        assert_ne!(runs[0], diverged);
    }

    #[test]
    fn never_excluded_never_duplicated() {
        let (s, me, _) = grid_sampler(0.5);
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..200 {
            let picks = s.sample(&mut rng, 6, me);
            assert!(!picks.contains(&me));
            let mut dedup = picks.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), picks.len());
        }
    }

    #[test]
    fn mid_escape_is_biased_towards_neighbours() {
        let (s, me, neighbors) = grid_sampler(0.2);
        let mut rng = DetRng::seed_from_u64(2);
        let trials = 4_000;
        let mut local = 0usize;
        let mut total = 0usize;
        for _ in 0..trials {
            for p in s.sample(&mut rng, 2, me) {
                total += 1;
                if neighbors.contains(&p) {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / total as f64;
        // Uniform sampling over 15 candidates would land on the 4
        // neighbours ~27% of the time; the bias should push well past that.
        assert!(frac > 0.7, "neighbour fraction was {frac}");
    }

    #[test]
    fn escape_is_clamped_and_accessors_work() {
        let s = LocalitySampler::new(FullView::new(4), vec![NodeId::new(1), NodeId::new(1)], 7.0);
        assert_eq!(s.escape(), 1.0);
        assert_eq!(s.neighbors(), &[NodeId::new(1)]);
        assert_eq!(s.view_size(), 4);
        assert!(s.contains(NodeId::new(3)));
        assert_eq!(s.inner().view_size(), 4);
        let low = LocalitySampler::new(FullView::new(4), vec![], -3.0);
        assert_eq!(low.escape(), 0.0);
    }

    #[test]
    fn gossip_membership_delegates_to_inner() {
        use crate::{PartialView, PartialViewConfig};
        let mut rng = DetRng::seed_from_u64(4);
        let view = PartialView::with_initial_peers(
            NodeId::new(0),
            PartialViewConfig::default(),
            [NodeId::new(1), NodeId::new(2)],
            &mut rng,
        );
        let mut s = LocalitySampler::new(view, vec![NodeId::new(1)], 0.1);
        assert!(s.contains(NodeId::new(2)));
        GossipMembership::evict(&mut s, NodeId::new(2), &mut rng);
        assert!(!s.contains(NodeId::new(2)));
        let digest = s.make_digest(&mut rng);
        assert!(digest.subs.contains(&NodeId::new(0)));
        assert!(!s.make_leave_digest().unsubs.is_empty());
        s.on_round();
        s.observe_gossip(NodeId::new(5), &MembershipDigest::default(), &mut rng);
        assert!(s.contains(NodeId::new(5)));
    }
}
