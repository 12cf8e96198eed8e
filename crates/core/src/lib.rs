//! Gossip-based broadcast with decentralized rate adaptation.
//!
//! This crate reproduces the protocol contribution of *Adaptive Gossip-Based
//! Broadcast* (Rodrigues, Handurukande, Pereira, Guerraoui, Kermarrec — IEEE
//! DSN 2003):
//!
//! * [`LpbcastNode`] — the baseline probabilistic broadcast of Figure 1
//!   (buffer, gossip to `F` random peers every `T` ms, age-based garbage
//!   collection), with the optional *static* token-bucket throttle of
//!   Figure 3;
//! * [`AdaptiveNode`] — the paper's contribution (Figure 5): the same
//!   algorithm plus a distributed minimum-buffer estimator, a local
//!   drop-age congestion estimator, and a randomized
//!   multiplicative-increase/decrease rate controller, all piggybacked on
//!   normal gossip traffic with **zero additional messages**;
//! * the building blocks ([`EventBuffer`], [`TokenBucket`],
//!   [`MinBuffEstimator`], [`CongestionEstimator`], [`RateController`]) as
//!   public, individually testable components, so the mechanism can be
//!   grafted onto *other* gossip algorithms, as §5 of the paper suggests.
//!
//! Both protocols are **sans-IO state machines** behind the
//! [`FrameProtocol`] trait, exchanging [`GossipFrame`]s: the deterministic
//! simulator (`agb-sim` + `agb-workload`), the threaded socket runtime
//! (`agb-runtime`) and the Maelstrom adapter drive exactly the same code,
//! and so do the other flavors (agb-topology's routing node) and the
//! recovery wrapper (agb-recovery).
//!
//! # Quickstart
//!
//! ```
//! use agb_core::{AdaptationConfig, AdaptiveNode, FrameProtocol, GossipConfig, ProtocolEvent};
//! use agb_membership::FullView;
//! use agb_types::{DetRng, NodeId, Payload, TimeMs};
//! use rand::SeedableRng;
//!
//! // Two adaptive nodes in a 2-node group, wired by hand.
//! let mk = |i: u32| AdaptiveNode::new(
//!     NodeId::new(i),
//!     GossipConfig::default(),
//!     AdaptationConfig::default(),
//!     FullView::new(2),
//!     DetRng::seed_from_u64(i.into()),
//! );
//! let (mut a, mut b) = (mk(0), mk(1));
//!
//! a.offer(Payload::from_static(b"hello"), TimeMs::ZERO);
//! for (to, frame) in a.on_round(TimeMs::from_secs(1)) {
//!     assert_eq!(to, NodeId::new(1));
//!     let replies = b.on_receive(NodeId::new(0), frame, TimeMs::from_secs(1));
//!     assert!(replies.is_empty()); // plain gossip needs no answer
//! }
//! let delivered = b.drain_events().into_iter().any(|e| matches!(
//!     e,
//!     ProtocolEvent::Delivered { event, .. } if event.payload().as_ref() == b"hello"
//! ));
//! assert!(delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod buffer;
mod config;
mod congestion;
mod event;
mod header;
mod ids;
mod lpbcast;
mod minbuff;
mod rate;
mod token_bucket;
mod traits;

pub use adaptive::AdaptiveNode;
pub use buffer::{EventBuffer, PurgeReason, PurgedEvent};
pub use config::{AdaptationConfig, CongestionConfig, GossipConfig, MinBuffConfig, RateConfig};
pub use congestion::CongestionEstimator;
pub use event::{Event, EventList};
pub use header::{GossipFrame, GossipMessage, GraftRequest, IHaveDigest, Retransmission};
pub use ids::EventIdBuffer;
pub use lpbcast::LpbcastNode;
pub use minbuff::{BuffAd, KSmallestSet, MinBuffEstimator};
pub use rate::{RateChange, RateChangeReason, RateController};
pub use token_bucket::TokenBucket;
pub use traits::{FrameProtocol, OfferOutcome, ProtocolEvent};
