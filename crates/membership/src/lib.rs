//! Membership and peer-sampling services for gossip protocols.
//!
//! Gossip-based broadcast needs each node to pick `F` random peers per round.
//! The paper's base algorithm, lpbcast, was designed around a *partial* view
//! of the membership (each node knows a bounded random subset of the group),
//! with subscriptions and unsubscriptions piggybacked on the same gossip
//! messages as data. §5 of the paper notes the adaptive mechanism applies to
//! algorithms "relying on a partial membership knowledge on each node".
//!
//! This crate provides both flavors behind one trait:
//!
//! * [`FullView`] — static full membership, what the paper's closed 60-node
//!   experiments use;
//! * [`PartialView`] — lpbcast-style bounded view with subscription /
//!   unsubscription buffers and random eviction, exchanged through
//!   [`MembershipDigest`]s.
//!
//! Either flavor can be wrapped in a [`LocalitySampler`] to bias peer
//! selection towards topology neighbours (racks, clusters, radio range)
//! while keeping a tunable uniform escape hatch.
//!
//! # Example
//!
//! ```
//! use agb_membership::{FullView, PeerSampler};
//! use agb_types::{DetRng, NodeId};
//! use rand::SeedableRng;
//!
//! let view = FullView::new(10);
//! let mut rng = DetRng::seed_from_u64(1);
//! let peers = view.sample(&mut rng, 4, NodeId::new(0));
//! assert_eq!(peers.len(), 4);
//! assert!(!peers.contains(&NodeId::new(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod full;
mod gossiper;
mod locality;
mod partial;
mod sampler;

pub use digest::{MembershipDigest, Unsubscription};
pub use full::FullView;
pub use gossiper::GossipMembership;
pub use locality::LocalitySampler;
pub use partial::PartialView;
pub use sampler::PeerSampler;
