//! Static full-membership view.

use agb_types::{DetRng, NodeId};
use rand::seq::index;

use crate::sampler::PeerSampler;

/// Full knowledge of a fixed group `{n0, …, n_{size-1}}`.
///
/// This is the membership model of the paper's evaluation: 60 processes known
/// to each other, no churn. Sampling is uniform without replacement.
///
/// # Example
///
/// ```
/// use agb_membership::{FullView, PeerSampler};
/// use agb_types::{DetRng, NodeId};
/// use rand::SeedableRng;
///
/// let view = FullView::new(5);
/// assert_eq!(view.view_size(), 5);
/// let mut rng = DetRng::seed_from_u64(9);
/// // Asking for more peers than exist returns everyone but the caller.
/// let peers = view.sample(&mut rng, 10, NodeId::new(2));
/// assert_eq!(peers.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullView {
    /// The group size: member `i` is `NodeId::new(i)`, so the view holds
    /// nothing else.
    size: usize,
}

impl FullView {
    /// Creates a view over nodes `0..size`.
    pub fn new(size: usize) -> Self {
        FullView { size }
    }
}

impl agb_profile::MemReport for FullView {
    /// Nothing per member is resident: the view is just its size.
    fn mem_usage(&self) -> agb_profile::MemUsage {
        agb_profile::MemUsage::default()
    }
}

impl PeerSampler for FullView {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        // Sampling is per-node, per-round: materialising an N-element
        // candidate list here made every simulated round O(N²) in the
        // group size. Instead, sample indices from the (virtual) list
        // with the excluded slot spliced out.
        let excl = exclude.index();
        let candidates = self.size - usize::from(self.contains(exclude));
        if candidates == 0 || fanout == 0 {
            return Vec::new();
        }
        let amount = fanout.min(candidates);
        let pick = |i: usize| NodeId::new((i + usize::from(i >= excl)) as u32);
        index::sample(rng, candidates, amount)
            .iter()
            .map(pick)
            .collect()
    }

    fn contains(&self, node: NodeId) -> bool {
        node.index() < self.size
    }

    fn view_size(&self) -> usize {
        self.size
    }

    fn view(&self) -> Vec<NodeId> {
        (0..self.size as u32).map(NodeId::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    #[test]
    fn sample_excludes_self_and_has_no_duplicates() {
        let view = FullView::new(20);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = view.sample(&mut rng, 4, NodeId::new(7));
            assert_eq!(s.len(), 4);
            assert!(!s.contains(&NodeId::new(7)));
            let mut dedup = s.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 4);
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let view = FullView::new(10);
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
        let trials = 30_000;
        for _ in 0..trials {
            for p in view.sample(&mut rng, 3, NodeId::new(0)) {
                *counts.entry(p).or_default() += 1;
            }
        }
        // 9 candidates, 3 draws each trial => expected trials/3 per node.
        let expected = trials as f64 / 3.0;
        for (&node, &c) in &counts {
            assert_ne!(node, NodeId::new(0));
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.05, "node {node} count {c} deviates {dev}");
        }
        assert_eq!(counts.len(), 9);
    }

    #[test]
    fn degenerate_views() {
        let empty = FullView::new(0);
        let mut rng = DetRng::seed_from_u64(0);
        assert!(empty.sample(&mut rng, 4, NodeId::new(0)).is_empty());
        let single = FullView::new(1);
        assert!(single.sample(&mut rng, 4, NodeId::new(0)).is_empty());
        let pair = FullView::new(2);
        assert_eq!(
            pair.sample(&mut rng, 4, NodeId::new(0)),
            vec![NodeId::new(1)]
        );
        assert!(pair.sample(&mut rng, 0, NodeId::new(0)).is_empty());
        assert!(pair.contains(NodeId::new(1)));
        assert!(!pair.contains(NodeId::new(2)), "an id >= n is not a member");
        assert_eq!(pair.view(), vec![NodeId::new(0), NodeId::new(1)]);
    }
}
