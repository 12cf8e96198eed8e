//! The one protocol stack builder.

use agb_core::{AdaptationConfig, AdaptiveNode, FrameProtocol, GossipConfig, LpbcastNode};
use agb_membership::{GossipMembership, LocalitySampler};
use agb_recovery::{RecoverableNode, RecoveryConfig};
use agb_topology::{RoutingConfig, RoutingNode};
use agb_types::{DetRng, NodeId};

/// Which protocol a node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Baseline lpbcast, unthrottled input (the paper's comparison runs).
    Lpbcast,
    /// Baseline lpbcast with the static token bucket of Figure 3, at the
    /// given per-sender rate (msgs/s).
    LpbcastStatic {
        /// Static per-sender rate limit, msgs/s.
        rate_per_sender: f64,
    },
    /// The adaptive protocol of Figure 5.
    Adaptive,
    /// GOSSIP3-style probabilistic forwarding (`agb-topology`): each rumor
    /// is relayed a bounded number of rounds with a degree- and age-aware
    /// relay gamble, instead of reshipping the whole buffer every round.
    /// Like every flavor, it takes `F`, its buffer bound and its id window
    /// from the [`StackSpec`]'s gossip parameters.
    Routing(RoutingConfig),
}

/// Overlay hints for one node.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    /// The node's overlay neighbours. Their count is the routing flavor's
    /// degree; an empty list makes the whole group the overlay.
    pub neighbors: Vec<NodeId>,
    /// `Some(p)`: wrap the view in a [`LocalitySampler`] biased towards
    /// `neighbors`, with uniform-escape probability `p`.
    pub escape: Option<f64>,
}

/// What one node runs: the flavor and the parameters it reads.
#[derive(Debug, Clone)]
pub struct StackSpec<'a> {
    /// Protocol flavor.
    pub algorithm: &'a Algorithm,
    /// Base gossip parameters, with any per-node override already applied:
    /// every flavor reads `F`, its buffer bound and its id window here.
    pub gossip: GossipConfig,
    /// Adaptation parameters; only [`Algorithm::Adaptive`] reads them.
    pub adaptation: &'a AdaptationConfig,
    /// `Some` wraps the node in the pull-based recovery layer.
    pub recovery: Option<RecoveryConfig>,
}

impl StackSpec<'_> {
    /// Builds node `id` of an `n_nodes` group over an already-built
    /// membership `view`, drawing protocol randomness from `rng`.
    pub fn build<S>(
        self,
        id: NodeId,
        n_nodes: usize,
        view: S,
        overlay: Option<Overlay>,
        rng: DetRng,
    ) -> Box<dyn FrameProtocol + Send>
    where
        S: GossipMembership + Send + 'static,
    {
        let Overlay { neighbors, escape } = overlay.unwrap_or_default();
        let degree = match neighbors.len() {
            0 => n_nodes.saturating_sub(1),
            d => d,
        };
        match escape {
            Some(p) => self.finish(id, LocalitySampler::new(view, neighbors, p), degree, rng),
            None => self.finish(id, view, degree, rng),
        }
    }

    fn finish<S>(
        self,
        id: NodeId,
        view: S,
        degree: usize,
        rng: DetRng,
    ) -> Box<dyn FrameProtocol + Send>
    where
        S: GossipMembership + Send + 'static,
    {
        let (gossip, recovery) = (self.gossip, self.recovery);
        match self.algorithm {
            Algorithm::Adaptive => {
                let node = AdaptiveNode::new(id, gossip, self.adaptation.clone(), view, rng);
                boxed(node, recovery)
            }
            Algorithm::Routing(rc) => {
                let node = RoutingNode::new(id, &gossip, *rc, view, degree, rng);
                boxed(node, recovery)
            }
            Algorithm::LpbcastStatic { rate_per_sender } => {
                let node = LpbcastNode::new(id, gossip, view, rng);
                boxed(node.with_static_rate(*rate_per_sender), recovery)
            }
            Algorithm::Lpbcast => boxed(LpbcastNode::new(id, gossip, view, rng), recovery),
        }
    }
}

fn boxed<P: FrameProtocol + Send + 'static>(
    node: P,
    recovery: Option<RecoveryConfig>,
) -> Box<dyn FrameProtocol + Send> {
    match recovery {
        Some(config) => Box::new(RecoverableNode::new(node, config)),
        None => Box::new(node),
    }
}
