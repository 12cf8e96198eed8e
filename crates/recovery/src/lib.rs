//! Pull-based anti-entropy and event recovery for gossip broadcast.
//!
//! The paper's adaptive mechanism keeps gossip reliable by preventing
//! buffer overflow, but the underlying lpbcast design assumes a
//! retransmission-request path to recover events purged before full
//! dissemination — under message loss and aggressive purging, push-only
//! gossip loses atomicity. This crate supplies that path as a composable
//! layer, in the spirit of deterministic pull gossip (Haeupler 2012) and
//! tunable push/pull trade-offs (De Florio & Blondia 2015):
//!
//! * [`RecoverableNode`] wraps **any** plain [`FrameProtocol`] node
//!   (`LpbcastNode`, `AdaptiveNode` or agb-topology's `RoutingNode`) and
//!   implements the same frame-level driving interface that the
//!   simulator, the threaded runtime and the Maelstrom adapter share;
//! * outgoing gossip frames piggyback compact `IHave` digests drawn in
//!   rotation from the [`RetransmissionCache`], so a node advertises only
//!   what it can serve;
//! * receivers detect gaps against the wrapped node's own dedup history
//!   ([`has_seen`](agb_core::FrameProtocol::has_seen)), send `Graft`
//!   pull requests to the advertiser, and retry round-robin across
//!   advertisers with bounded budgets;
//! * the cache serves grafts from a bounded store with its own purge
//!   policy, so recovery traffic cannot itself cause the congestion the
//!   adaptive mechanism exists to prevent.
//!
//! Everything recovery does is observable through the
//! `ProtocolEvent::Recovery*` events and aggregated by
//! `agb_metrics::RecoveryStats`.
//!
//! [`FrameProtocol`]: agb_core::FrameProtocol

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod missing;
mod node;

pub use cache::RetransmissionCache;
pub use config::RecoveryConfig;
pub use missing::{DueGraft, MissingTracker};
pub use node::RecoverableNode;
