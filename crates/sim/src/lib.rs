//! Deterministic discrete-event network simulator.
//!
//! This crate is the evaluation substrate of the reproduction: the paper's
//! quantitative results come from a "simple event-based simulation model",
//! which this crate rebuilds with three properties the experiments rely on:
//!
//! 1. **Determinism** — every run is a pure function of the experiment seed.
//!    Events at equal virtual times are delivered in insertion order, node
//!    and network randomness use independent seeded streams.
//! 2. **A configurable network model** — per-message latency distributions,
//!    independent loss, and scheduled partitions ([`network`]).
//! 3. **Actor-style nodes** — protocol state machines implement [`SimNode`]
//!    and interact with the world only through [`SimCtx`], which is exactly
//!    the discipline that lets the threaded runtime (`agb-runtime`) drive the
//!    same protocol code against real sockets.
//!
//! # Example
//!
//! A two-node ping-pong:
//!
//! ```
//! use agb_sim::{Simulation, SimulationBuilder, SimCtx, SimNode};
//! use agb_types::{NodeId, TimeMs};
//!
//! struct Ping { got: u32 }
//!
//! impl SimNode for Ping {
//!     type Msg = u32;
//!     type Slot = ();
//!     fn on_start(&mut self, ctx: &mut SimCtx<'_, u32>) {
//!         if ctx.self_id() == NodeId::new(0) {
//!             ctx.send(NodeId::new(1), 1);
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut SimCtx<'_, u32>) {
//!         self.got += msg;
//!         if msg < 3 {
//!             let peer = if ctx.self_id() == NodeId::new(0) { 1 } else { 0 };
//!             ctx.send(NodeId::new(peer), msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim: Simulation<Ping> = SimulationBuilder::new(42)
//!     .build(vec![Ping { got: 0 }, Ping { got: 0 }], ());
//! sim.run_until(TimeMs::from_secs(10));
//! assert_eq!(sim.node(NodeId::new(1)).got, 1 + 3);
//! assert_eq!(sim.node(NodeId::new(0)).got, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod network;
mod queue;
mod shard;

pub use engine::{
    threads_from_env, NetStats, SimCtx, SimNode, Simulation, SimulationBuilder, TimerId,
};
pub use network::{AdversaryWindow, LatencyModel, LinkFault, NetworkConfig, Partition};
