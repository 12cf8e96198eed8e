//! Topology-aware probabilistic gossip routing.
//!
//! The flavors in `agb-core` flood: every node reships its whole event
//! buffer to `F` uniformly random peers every round, for `age_cap` rounds.
//! That is robust but expensive, and it ignores overlay structure entirely.
//! This crate adds the opposite point in the design space, adapted from
//! "Gossip-Based Ad Hoc Routing" (Haas, Halpern, Li): a [`RoutingNode`]
//! relays each event a bounded number of times, and only *probabilistically*
//! —
//!
//! * a rumor younger than [`sure_hops`](RoutingConfig::sure_hops) hops is
//!   always relayed (GOSSIP3's warm-up zone: kill a rumor early and it dies
//!   group-wide);
//! * a node with fewer than four overlay neighbours always relays (the
//!   low-degree rescue rule: sparse corners cannot afford to drop
//!   copies);
//! * everyone else relays with probability
//!   [`relay_probability`](RoutingConfig::relay_probability).
//!
//! It reads the fanout, its relay buffer's bound and its id window from
//! the same [`GossipConfig`](agb_core::GossipConfig) as every flavor, and
//! only the relay gamble from [`RoutingConfig`].
//!
//! The node is a plain [`FrameProtocol`](agb_core::FrameProtocol): it
//! emits plain gossip frames and answers recovery frames with nothing. So
//! it composes with everything the other flavors do: locality-biased
//! samplers from `agb-membership`, the pull-based recovery wrapper from
//! `agb-recovery`, the simulator, the trace probe, and the Maelstrom
//! adapter.
//!
//! # Example
//!
//! ```
//! use agb_core::{FrameProtocol, GossipConfig};
//! use agb_membership::{FullView, LocalitySampler};
//! use agb_topology::{RoutingConfig, RoutingNode};
//! use agb_types::topology::Topology;
//! use agb_types::{DetRng, NodeId, Payload, TimeMs};
//! use rand::SeedableRng;
//!
//! let grid = Topology::grid(4, 4);
//! let me = NodeId::new(5);
//! let sampler = LocalitySampler::new(FullView::new(16), grid.neighbors(me).to_vec(), 0.1);
//! let mut node = RoutingNode::new(
//!     me,
//!     &GossipConfig::default(),
//!     RoutingConfig::default(),
//!     sampler,
//!     grid.degree(me),
//!     DetRng::seed_from_u64(1),
//! );
//! node.offer(Payload::from_static(b"hello"), TimeMs::ZERO);
//! let out = node.on_round(TimeMs::from_secs(1));
//! assert!(!out.is_empty()); // the origin always relays its own rumor
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod routing;

pub use config::RoutingConfig;
pub use routing::RoutingNode;
