//! **agb-node** — one protocol stack builder and one node shell for
//! every execution surface.
//!
//! The simulator (`agb-workload`'s cluster), the threaded runtime
//! (`agb-runtime`) and the Maelstrom adapter (`agb-maelstrom`) run the
//! same per-node logic, so it lives here once:
//!
//! * [`StackSpec::build`] assembles a node's protocol: the [`Algorithm`]
//!   over a membership view the caller built, an optional
//!   locality-biased [`Overlay`], and the optional recovery layer.
//! * [`NodeShell`] owns that protocol, the optional φ-accrual failure
//!   detector with its ring monitors and heartbeat fallback, and a
//!   [`NodeObserver`]. One [`NodeShell::step`] takes an [`Input`] and
//!   returns the frames to send — the `step(event) -> outputs` shape of
//!   a Maelstrom node — and lends the stack a scratch the driver owns
//!   as its one event queue for that step. Drivers keep only their own
//!   I/O and decide where events go: the simulator folds them into its
//!   shard's metrics partial, the runtime into its shared collector, the
//!   Maelstrom adapter into application state.
//!
//! The shell is generic over its observer, so no surface pays dynamic
//! dispatch on its hot path. Each surface has one observer: the trace
//! probe of `agb-trace` in the simulator and the Maelstrom adapter, and
//! the runtime's telemetry handles in the threaded runtime.
//!
//! # Example
//!
//! ```
//! use agb_core::{AdaptationConfig, GossipConfig, ProtocolEvent};
//! use agb_membership::FullView;
//! use agb_node::{Algorithm, Input, NodeShell, StackSpec};
//! use agb_types::{DetRng, NodeId, Payload, TimeMs};
//! use rand::SeedableRng;
//!
//! let shell = |i: u32| {
//!     let spec = StackSpec {
//!         algorithm: &Algorithm::Lpbcast,
//!         gossip: GossipConfig::default(),
//!         adaptation: &AdaptationConfig::default(),
//!         recovery: None,
//!     };
//!     let rng = DetRng::seed_from_u64(i.into());
//!     NodeShell::new(spec.build(NodeId::new(i), 2, FullView::new(2), None, rng), None, 2, ())
//! };
//! let (mut a, mut b) = (shell(0), shell(1));
//! let (now, mut out, mut events) = (TimeMs::from_secs(1), Vec::new(), Vec::new());
//! a.step(now, Input::Offer(Payload::from_static(b"hi")), &mut out, &mut events);
//! a.step(now, Input::Round, &mut out, &mut events);
//! events.clear(); // a's own admission and delivery
//! for (_, frame) in out {
//!     let from = NodeId::new(0);
//!     b.step(now, Input::Frame { from, frame }, &mut Vec::new(), &mut events);
//! }
//! assert!(matches!(events[..], [ProtocolEvent::Delivered { .. }]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shell;
mod stack;

pub use shell::{Input, LifecycleKind, NodeObserver, NodeShell, Outgoing, ShedClass};
pub use stack::{Algorithm, Overlay, StackSpec};
